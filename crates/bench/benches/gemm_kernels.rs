//! Benchmarks the paper's computational claim (Tbl. I / Eq. (5)): fused
//! decode-and-compute MANT GEMM vs dequantize-then-FP32-GEMM vs plain
//! FP32 — plus three GEMV kernels over the same weights: the unpacked
//! scalar path (one code per byte, a masked 16-entry two-lane LUT walk
//! per element, i64 accumulation), the packed pair-LUT scalar kernel (one
//! byte load + one 256-entry table hit per code pair), and the
//! runtime-dispatched tier (on AVX2, `pshufb` nibble decode + `pmaddwd`
//! widening MAC, 32 codes per iteration).
//!
//! The ratios are asserted — packed-scalar ≥ 1.3× over unpacked, and on
//! AVX2 ≥ 2× over packed-scalar (≥ 4× over unpacked); under
//! `MANT_FORCE_SCALAR` the dispatched tier *is* the packed-scalar kernel,
//! so its ratio reads 1.0× and is printed only — and written to
//! `BENCH_kernels.json` so the kernel-level perf trajectory is
//! machine-readable.
//!
//! The batch GEMV gets a sweep: `mant_gemv_batch` at 3, 8 and 32 members
//! against that many `mant_gemv` calls, and against the same members
//! through `mant_gemv_batch` in batches of four, on the sim model's three
//! projection shapes, each placed against the host's measured `pmaddwd`
//! throughput (a register-resident probe) as GMAC/s and a share of that
//! peak. Every batch size runs the packed row sweep, in one call: on AVX2
//! one decode per block of up to four members, on the scalar tier one per
//! (row, group). So 32 members compare one 32-member call with eight
//! 4-member calls over the same weights. On AVX2 the 3-member batch must
//! not lose more than 10 % to 3 GEMVs, and the 32-member call must take no
//! more than 1.33× the eight calls' time (a ratio ≥ 0.75) on every shape.
//!
//! Decode-shaped steps get two rows. The two-member fused sweep — the
//! packed row sweep decode attention also runs, one nibble decode per
//! 64-code run of a weight row feeding both members — against two
//! one-member sweeps on the 256×256 and 512×256 (`n×k`) projections; on
//! AVX2 it must take ≤ 0.8× their time. The LM head's lanes-as-rows f32
//! kernel over its tiled copy against the row-major `matvec_batch`, at
//! 512×256 for 1 and 4 members, outputs asserted bit-identical; on AVX2 it
//! must be ≥ 2.5× faster. Both sides of each ratio are timed in alternating
//! repetitions, and under `MANT_FORCE_SCALAR` both rows are printed only.
//!
//! The attention tail closes the report: the softmax kernel per element
//! against the libm loop it replaced — on 256 benign scores, and on the
//! eight score rows (layer × head) of one position of a real `sim_llama`
//! prefill, a fifth of which lie more than 87 below their row's maximum,
//! where libm's `expf` returns subnormals and every operation on them
//! takes a microcode assist — then the staged-window `P·V` at half a window
//! and one paged attention step at context 1024. On AVX2 the kernel must
//! beat the libm loop by ≥ 2× on the benign row and ≥ 4× on the real ones;
//! the scalar arm must beat it by ≥ 1.2× on the real rows on every tier.
//! The context-1024 decode row is timed against the per-row reference loop
//! it replaced (`fused_dot` per head and cached row, `attend` per head) in
//! alternating repetitions, outputs asserted bit-identical; on AVX2 the
//! block sweep must be ≥ 1.8× faster, under `MANT_FORCE_SCALAR` the ratio
//! is printed only. Each softmax and attention ratio is the median of five
//! alternating best-of-8 pairs, so one slow stretch of the host on one
//! side of one pair cannot fail a floor.
//!
//! Last, run attention: one `RunAttention` of 32 rows (a prefill chunk)
//! and of 4 rows at base 448 against the same rows attended one
//! `attention_incremental_paged` call each, pushes included, outputs
//! asserted bit-identical; the median pair is printed, with no floor.

use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use mant_model::{ActMode, ForwardObserver, KvMode, ModelConfig, TransformerModel};
use mant_numerics::{kernels, KernelDispatch, TiledF32, EXP_FLOOR};
use mant_quant::{
    attention_incremental_paged, dequant_then_gemm, mant_gemm, mant_gemv, mant_gemv_batch,
    mant_gemv_scalar, mant_gemv_with, quantize_activations_int8, quantize_vector_int8,
    CandidateSet, KvCachePool, MantWeightQuantizer, PagedKvCache, PoolConfig, RunAttention,
    UnpackedWeights, VarianceMap,
};
use mant_tensor::{gemm, matvec_batch, TensorGenerator};

const K: usize = 512;
const N: usize = 256;
const G: usize = 64;
const GEMM_M: usize = 8;
/// The sim model's projections as `(n, k)`: attention q/k/v/o, FFN
/// gate/up, FFN down.
const SIM_SHAPES: [(usize, usize); 3] = [(256, 256), (512, 256), (256, 512)];
const BATCH_SWEEP: [usize; 3] = [3, 8, 32];
/// `(n, k)` shapes of the two-member fused-sweep row: attention and FFN
/// gate/up.
const FUSED2_SHAPES: [(usize, usize); 2] = [(256, 256), (512, 256)];

/// Best-of-8 mean seconds per call over `iters` calls. Best-of, not
/// mean-of: CI containers throttle in bursts, and the ratio assertions
/// below need each variant's clean-window speed.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..8)
        .map(|_| time_once(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Mean seconds per call over one run of `iters` calls.
fn time_once(iters: usize, f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// [`time_best`] for variants whose *ratios* are asserted: the eight
/// repetitions alternate between them, so every minimum is drawn from the
/// same stretch of wall time and a slow stretch of the host cannot land on
/// one side only.
fn time_best_alternating<const N: usize>(iters: usize, mut fs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..8 {
        for (b, f) in best.iter_mut().zip(fs.iter_mut()) {
            *b = b.min(time_once(iters, f));
        }
    }
    best
}

/// [`time_best_alternating`] of two variants.
fn time_best_pair(iters: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let [a, b] = time_best_alternating(iters, [&mut f, &mut g]);
    (a, b)
}

/// Alternating runs behind each asserted ratio.
const FLOOR_PAIRS: usize = 5;

/// [`FLOOR_PAIRS`] runs of [`time_best_alternating`]; returns the runs.
fn time_alternating_runs<const N: usize>(
    iters: usize,
    mut fs: [&mut dyn FnMut(); N],
) -> Vec<[f64; N]> {
    (0..FLOOR_PAIRS)
        .map(|_| {
            let fs = fs.each_mut().map(|f| f as &mut dyn FnMut());
            time_best_alternating(iters, fs)
        })
        .collect()
}

/// The median of `value` over `runs`.
fn median_of<T>(runs: &[T], value: impl Fn(&T) -> f64) -> f64 {
    let mut values: Vec<f64> = runs.iter().map(value).collect();
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// [`time_alternating_runs`] of two variants; returns the run whose ratio
/// `g / f` is the median of the runs'.
fn time_median_pair(iters: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let mut runs = time_alternating_runs(iters, [&mut f, &mut g]);
    runs.sort_by(|x, y| (x[1] / x[0]).total_cmp(&(y[1] / y[0])));
    let [a, b] = runs[FLOOR_PAIRS / 2];
    (a, b)
}

/// The softmax every attention path ran before the kernel: libm `expf`
/// and one running sum.
fn libm_softmax(x: &mut [f32]) {
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// Per layer, the latest query vector and every key vector of a forward
/// pass.
struct QkCapture {
    q: Vec<Vec<f32>>,
    k: Vec<Vec<Vec<f32>>>,
}

impl ForwardObserver for QkCapture {
    fn on_query_vector(&mut self, layer: usize, q: &[f32]) {
        self.q[layer] = q.to_vec();
    }
    fn on_kv_vectors(&mut self, layer: usize, k: &[f32], _v: &[f32]) {
        self.k[layer].push(k.to_vec());
    }
}

/// The score rows of the last token of a `ctx`-token prefill of the
/// serving benchmark's model (`sim_llama`, seed 7, packed weights, MANT4
/// KV), one per (layer, head): `q_h · k_t,h / √head_dim` over every
/// position.
fn prefill_score_rows(ctx: usize) -> Vec<Vec<f32>> {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 7);
    let packed = model.pack_weights(G).expect("64 divides every width");
    let mut runner = model.packed_runner(&packed, ActMode::None, KvMode::Mant4 { group: G });
    let mut cap = QkCapture {
        q: vec![Vec::new(); cfg.layers],
        k: vec![Vec::new(); cfg.layers],
    };
    for j in 0..ctx {
        runner.step_observed((j * 131 + 38) % cfg.vocab, &mut cap);
    }
    let hd = cfg.head_dim();
    let scale = 1.0 / (hd as f32).sqrt();
    let mut rows = Vec::new();
    for (q, ks) in cap.q.iter().zip(&cap.k) {
        for h in 0..cfg.heads {
            let kv = h / (cfg.heads / cfg.kv_heads) * hd;
            let qh = &q[h * hd..(h + 1) * hd];
            rows.push(
                ks.iter()
                    .map(|k| {
                        let dot: f32 = qh.iter().zip(&k[kv..kv + hd]).map(|(a, b)| a * b).sum();
                        dot * scale
                    })
                    .collect(),
            );
        }
    }
    rows
}

/// Scores of a row more than the kernel's floor below its maximum.
fn under_floor(scores: &[f32]) -> usize {
    let max = scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    scores.iter().filter(|&&v| v - max < EXP_FLOOR).count()
}

/// Softmaxes a fresh copy of every row; each way under comparison pays the
/// same copy.
fn softmax_each(rows: &[Vec<f32>], scratch: &mut [f32], softmax: impl Fn(&mut [f32])) {
    for row in rows {
        let buf = &mut scratch[..row.len()];
        buf.copy_from_slice(row);
        softmax(black_box(buf));
    }
}

/// One line of the softmax comparison, nanoseconds per element.
struct SoftmaxRow {
    label: &'static str,
    len: usize,
    /// Share of the scores more than the floor below their row's maximum.
    floor_share: f64,
    libm_ns: f64,
    scalar_ns: f64,
    tier_ns: f64,
    /// The scalar arm's and the process tier's speedups over the libm
    /// loop, each from its own median pair.
    scalar_speedup: f64,
    tier_speedup: f64,
}

impl SoftmaxRow {
    /// The libm loop against the scalar arm and against the process tier,
    /// each pair the median of [`FLOOR_PAIRS`] alternating pairs; the libm
    /// figure printed is the better of its two readings.
    fn measure(label: &'static str, rows: &[Vec<f32>]) -> SoftmaxRow {
        let len: usize = rows.iter().map(Vec::len).sum();
        let per_elem = 1e9 / len as f64;
        let longest = rows.iter().map(Vec::len).max().unwrap_or(0);
        let (mut a, mut b) = (vec![0.0f32; longest], vec![0.0f32; longest]);
        let tier = kernels();
        let (libm_a, scalar) = time_median_pair(
            100,
            || softmax_each(rows, &mut a, libm_softmax),
            || softmax_each(rows, &mut b, |x| KernelDispatch::Scalar.softmax(x)),
        );
        let (libm_b, vector) = time_median_pair(
            100,
            || softmax_each(rows, &mut a, libm_softmax),
            || softmax_each(rows, &mut b, |x| tier.softmax(x)),
        );
        SoftmaxRow {
            label,
            len,
            floor_share: rows.iter().map(|r| under_floor(r)).sum::<usize>() as f64 / len as f64,
            libm_ns: libm_a.min(libm_b) * per_elem,
            scalar_ns: scalar * per_elem,
            tier_ns: vector * per_elem,
            scalar_speedup: libm_a / scalar,
            tier_speedup: libm_b / vector,
        }
    }

    fn json(&self) -> String {
        format!(
            "    {{\"row\": \"{}\", \"len\": {}, \"floor_share\": {:.3}, \"libm_ns_per_elem\": {:.2}, \
             \"scalar_ns_per_elem\": {:.2}, \"tier_ns_per_elem\": {:.2}}}",
            self.label, self.len, self.floor_share, self.libm_ns, self.scalar_ns, self.tier_ns
        )
    }
}

/// The attention tail section; returns its JSON fields and the four
/// ratios the floors are asserted on: tier vs libm on the benign row, tier
/// vs libm and scalar arm vs libm on the prefill rows, and swept decode
/// attention vs the per-row reference loop at context 1024.
fn attention_tail() -> (String, [f64; 4]) {
    const CTX: usize = 448;
    let mut gen = TensorGenerator::new(4004);
    let benign: Vec<f32> = (0..256).map(|_| 2.0 * gen.standard_normal()).collect();
    let rows = [
        SoftmaxRow::measure("benign_256", &[benign]),
        SoftmaxRow::measure("sim_llama_prefill_ctx448", &prefill_score_rows(CTX)),
    ];
    for r in &rows {
        println!(
            "softmax {} ({} scores, {:.1}% under the floor): libm {:.2} / scalar arm {:.2} / {} {:.2} \
             ns per element = {:.2}x scalar, {:.2}x tier (median pairs)",
            r.label,
            r.len,
            100.0 * r.floor_share,
            r.libm_ns,
            r.scalar_ns,
            kernels().name(),
            r.tier_ns,
            r.scalar_speedup,
            r.tier_speedup,
        );
    }

    // The staged-window share of P·V: half a window staged, one head's 64
    // channels per call as the serving path makes it, all four heads.
    let map = VarianceMap::analytic(&CandidateSet::paper()).expect("non-empty set");
    let kv_dim = 256;
    let values = gen.group_diverse_matrix(1024, kv_dim, G, 0.5);
    let keys = gen.group_diverse_matrix(1024, kv_dim, G, 0.5);
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim,
        group_size: G,
        block_tokens: 64,
        blocks: 16,
    })
    .expect("valid geometry");
    let mut cache = PagedKvCache::new(&pool, map.clone(), map);
    for r in 0..G / 2 {
        cache
            .push(&mut pool, keys.row(r), values.row(r))
            .expect("the pool has room");
    }
    let mut probs: Vec<f32> = (0..G / 2).map(|_| gen.standard_normal()).collect();
    kernels().softmax(&mut probs);
    let mut out = vec![0.0f32; kv_dim];
    let t_staged = time_best(400, || {
        for (h, o) in out.chunks_exact_mut(64).enumerate() {
            cache.attend(&pool, black_box(&probs), h * 64, o);
        }
    });

    // One decode row's attention at context 1024, as the serving
    // benchmark's `quant.attn_ctx1024_us` probe makes it, against the
    // per-row reference loop it replaced: `fused_dot` per (head, cached
    // row), the softmax, `attend` per head.
    for r in G / 2..1024 {
        cache
            .push(&mut pool, keys.row(r), values.row(r))
            .expect("the pool has room");
    }
    let q: Vec<f32> = (0..kv_dim).map(|_| gen.standard_normal()).collect();
    let per_row = |q: &[f32]| {
        let qv = quantize_vector_int8(q, G).expect("valid group size");
        let mut out = vec![0.0f32; kv_dim];
        let mut scores = vec![0.0f32; cache.len()];
        for (h, o) in out.chunks_exact_mut(64).enumerate() {
            for (t, s) in scores.iter_mut().enumerate() {
                *s = cache.fused_dot(&pool, t, &qv, h, h, 1) * 0.125;
            }
            kernels().softmax(&mut scores);
            cache.attend(&pool, &scores, h * 64, o);
        }
        out
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&attention_incremental_paged(&q, &cache, &pool, 4, 4, 64)),
        bits(&per_row(&q)),
        "swept decode attention drifted from the per-row references"
    );
    let (t_paged, t_per_row) = time_median_pair(
        10,
        || {
            black_box(attention_incremental_paged(
                black_box(&q),
                &cache,
                &pool,
                4,
                4,
                64,
            ));
        },
        || {
            black_box(per_row(black_box(&q)));
        },
    );
    let attn_speedup = t_per_row / t_paged;
    println!(
        "attend_staged, 32 staged rows x 4 heads of 64: {:.2} us; attention_incremental_paged \
         ctx 1024: {:.1} us vs the per-row reference loop {:.1} us = {attn_speedup:.2}x \
         (median pair)",
        t_staged * 1e6,
        t_paged * 1e6,
        t_per_row * 1e6,
    );

    let json = format!(
        "  \"attention_tail\": {{\n   \"softmax\": [\n{}\n   ],\n   \"attend_staged_32rows_4heads_ns\": {:.0},\n   \
         \"attn_paged_ctx1024_ns\": {:.0},\n   \"attn_per_row_ctx1024_ns\": {:.0},\n   \
         \"attn_paged_speedup\": {attn_speedup:.3},\n   \"attn_paged_threshold\": 1.8,\n   \
         \"tier_vs_libm_benign_threshold\": 2.0,\n   \
         \"tier_vs_libm_prefill_threshold\": 4.0,\n   \"scalar_vs_libm_prefill_threshold\": 1.2\n  }},\n",
        rows.iter().map(SoftmaxRow::json).collect::<Vec<_>>().join(",\n"),
        t_staged * 1e9,
        t_paged * 1e9,
        t_per_row * 1e9,
    );
    let ratios = [
        rows[0].tier_speedup,
        rows[1].tier_speedup,
        rows[1].scalar_speedup,
        attn_speedup,
    ];
    (json, ratios)
}

/// The run-attention section; returns its JSON fields. One run of `rows`
/// rows at base 448 on the serving shape (4 heads of 64, group 64, 64-token
/// blocks) — [`RunAttention`]: push the first row, `begin`, then push and
/// `attend_pushed` each later row, `finish` — against the same rows each
/// pushed and attended by one [`attention_incremental_paged`] call, for 32
/// rows (a prefill chunk) and 4. Each side forks the 448-row cache, pushes
/// its rows and releases the fork, so the pushes and the fork are on both
/// sides of the ratio. Outputs asserted bit-identical; the times are the
/// median pair of [`FLOOR_PAIRS`] alternating runs, printed with no floor.
fn run_attention(gen: &mut TensorGenerator) -> String {
    const BASE: usize = 448;
    let (heads, head_dim, kv_dim) = (4, 64, 256);
    let map = VarianceMap::analytic(&CandidateSet::paper()).expect("non-empty set");
    let keys = gen.group_diverse_matrix(BASE + 32, kv_dim, G, 0.5);
    let values = gen.group_diverse_matrix(BASE + 32, kv_dim, G, 0.5);
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|_| (0..kv_dim).map(|_| gen.standard_normal()).collect())
        .collect();
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim,
        group_size: G,
        block_tokens: 64,
        blocks: 12,
    })
    .expect("valid geometry");
    let mut cache = PagedKvCache::new(&pool, map.clone(), map);
    for r in 0..BASE {
        cache
            .push(&mut pool, keys.row(r), values.row(r))
            .expect("the pool has room");
    }
    let pool = RefCell::new(pool);
    let push = |fork: &mut PagedKvCache, pool: &mut KvCachePool, t: usize| {
        fork.push(pool, keys.row(t), values.row(t))
            .expect("the pool has room");
    };
    let as_run = |qs: &[Vec<f32>]| {
        let pool = &mut *pool.borrow_mut();
        let mut fork = cache.fork(pool);
        push(&mut fork, pool, BASE);
        let mut run = RunAttention::begin(qs, &fork, pool, heads, heads, head_dim);
        for i in 1..qs.len() {
            push(&mut fork, pool, BASE + i);
            run.attend_pushed(i, &fork, pool);
        }
        let out = run.finish(&fork, pool);
        fork.release(pool);
        out
    };
    let per_query = |qs: &[Vec<f32>]| {
        let pool = &mut *pool.borrow_mut();
        let mut fork = cache.fork(pool);
        let out = (0..qs.len())
            .map(|i| {
                push(&mut fork, pool, BASE + i);
                attention_incremental_paged(&qs[i], &fork, pool, heads, heads, head_dim)
            })
            .collect::<Vec<_>>();
        fork.release(pool);
        out
    };
    let mut fields = Vec::new();
    for rows in [32usize, 4] {
        let qs = &queries[..rows];
        assert_eq!(
            bits_of_rows(&as_run(qs)),
            bits_of_rows(&per_query(qs)),
            "a {rows}-row run drifted from per-query attention"
        );
        let (t_run, t_per_query) = time_median_pair(
            10,
            || {
                black_box(as_run(black_box(qs)));
            },
            || {
                black_box(per_query(black_box(qs)));
            },
        );
        println!(
            "run attention at base {BASE}, {rows} rows: {:.1} us as one run vs {:.1} us as \
             {rows} one-row calls = {:.2}x (median pair, pushes included)",
            t_run * 1e6,
            t_per_query * 1e6,
            t_per_query / t_run,
        );
        fields.push(format!(
            "    {{\"base\": {BASE}, \"rows\": {rows}, \"run_ns\": {:.0}, \"per_query_ns\": {:.0}, \
             \"per_query_over_run\": {:.3}}}",
            t_run * 1e9,
            t_per_query * 1e9,
            t_per_query / t_run,
        ));
    }
    format!("  \"run_attention\": [\n{}\n  ],\n", fields.join(",\n"))
}

/// Every output row's f32 bits.
fn bits_of_rows(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The decode-shaped section; returns its JSON fields, the worst
/// two-member fused sweep's time over two one-member sweeps, and the
/// smallest tiled-LM-head speedup over the row-major `matvec_batch`.
fn decode_shaped(gen: &mut TensorGenerator) -> (String, f64, f64) {
    let tier = kernels();
    let mut rows = Vec::new();
    let mut fused2_vs_two = 0.0f64;
    for (n, k) in FUSED2_SHAPES {
        let w = gen.group_diverse_matrix(n, k, G, 0.02);
        let wq = MantWeightQuantizer::new(G)
            .quantize(&w)
            .expect("valid group size");
        let xs: Vec<_> = (0..2)
            .map(|_| {
                let x: Vec<f32> = (0..k).map(|_| gen.standard_normal()).collect();
                quantize_vector_int8(&x, G).expect("valid group size")
            })
            .collect();
        let (t_pair, t_two) = time_median_pair(
            20,
            || {
                black_box(mant_gemv_batch(black_box(&xs), black_box(&wq)).expect("shapes"));
            },
            || {
                for x in &xs {
                    black_box(mant_gemv(black_box(x), black_box(&wq)).expect("shapes"));
                }
            },
        );
        let ratio = t_pair / t_two;
        fused2_vs_two = fused2_vs_two.max(ratio);
        println!(
            "fused sweep {n}x{k}, 2 members: {:.1} us vs 2 one-member sweeps {:.1} us = {ratio:.2}x",
            t_pair * 1e6,
            t_two * 1e6,
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"k\": {k}, \"pair_ns\": {:.0}, \"two_gemv_ns\": {:.0}, \"ratio\": {ratio:.3}}}",
            t_pair * 1e9,
            t_two * 1e9,
        ));
    }

    // The sim model's LM head: vocab 512 × hidden 256, f32.
    let (vocab, hidden) = (512, 256);
    let head = gen.group_diverse_matrix(vocab, hidden, G, 0.02);
    let tiled = TiledF32::from_row_major(head.as_slice(), vocab, hidden);
    let hs: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..hidden).map(|_| gen.standard_normal()).collect())
        .collect();
    let mut head_rows = Vec::new();
    let mut lm_head_speedup = f64::INFINITY;
    for m in [1usize, 4] {
        let refs: Vec<&[f32]> = hs[..m].iter().map(Vec::as_slice).collect();
        let bits = |v: &[Vec<f32>]| v.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&tier.matvec_tiled_f32(&tiled, &refs)),
            bits(&matvec_batch(&head, &refs)),
            "tiled LM head drifted from matvec_batch"
        );
        let (t_tiled, t_rows) = time_best_pair(
            50,
            || {
                black_box(tier.matvec_tiled_f32(black_box(&tiled), black_box(&refs)));
            },
            || {
                black_box(matvec_batch(black_box(&head), black_box(&refs)));
            },
        );
        let speedup = t_rows / t_tiled;
        lm_head_speedup = lm_head_speedup.min(speedup);
        println!(
            "lm head {vocab}x{hidden}, {m} member(s): tiled {} {:.1} us vs row-major matvec_batch \
             {:.1} us = {speedup:.2}x",
            tier.name(),
            t_tiled * 1e6,
            t_rows * 1e6,
        );
        head_rows.push(format!(
            "    {{\"members\": {m}, \"tiled_ns\": {:.0}, \"row_major_ns\": {:.0}, \"speedup\": {speedup:.3}}}",
            t_tiled * 1e9,
            t_rows * 1e9,
        ));
    }
    let json = format!(
        "  \"fused_two_members\": [\n{}\n  ],\n  \"fused2_vs_two_gemv\": {fused2_vs_two:.3},\n  \
         \"fused2_threshold\": 0.8,\n  \"lm_head_{vocab}x{hidden}\": [\n{}\n  ],\n  \
         \"lm_head_speedup\": {lm_head_speedup:.3},\n  \"lm_head_threshold\": 2.5,\n",
        rows.join(",\n"),
        head_rows.join(",\n"),
    );
    (json, fused2_vs_two, lm_head_speedup)
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut gen = TensorGenerator::new(1001);
    let x = gen.activation_matrix(GEMM_M, K, 1.0, 0.01, 15.0);
    let w = gen.group_diverse_matrix(N, K, G, 0.02);
    let xq = quantize_activations_int8(&x, G).expect("valid group size");
    let wq = MantWeightQuantizer::new(G)
        .quantize(&w)
        .expect("valid group size");
    let wt = w.transpose();
    let wu = UnpackedWeights::from_packed(&wq);
    let xv: Vec<f32> = (0..K).map(|_| gen.standard_normal()).collect();
    let qv = quantize_vector_int8(&xv, G).expect("valid group size");

    let mut group = c.benchmark_group(format!("gemm_{GEMM_M}x{K}x{N}"));
    group.bench_function("fused_mant_int", |b| {
        b.iter(|| black_box(mant_gemm(black_box(&xq), black_box(&wq)).expect("shapes agree")))
    });
    group.bench_function("dequant_then_f32", |b| {
        b.iter(|| black_box(dequant_then_gemm(black_box(&xq), black_box(&wq))))
    });
    group.bench_function("f32_reference", |b| {
        b.iter(|| black_box(gemm(black_box(&x), black_box(&wt))))
    });
    group.finish();

    let tier = kernels();
    let mut group = c.benchmark_group(format!("gemv_{K}x{N}"));
    let tier_label = format!("packed_{}", tier.name());
    group.bench_function(&tier_label, |b| {
        b.iter(|| black_box(mant_gemv(black_box(&qv), black_box(&wq)).expect("shapes agree")))
    });
    group.bench_function("packed_scalar", |b| {
        b.iter(|| {
            black_box(
                mant_gemv_with(KernelDispatch::Scalar, black_box(&qv), black_box(&wq))
                    .expect("shapes agree"),
            )
        })
    });
    group.bench_function("scalar_unpacked", |b| {
        b.iter(|| black_box(mant_gemv_scalar(black_box(&qv), black_box(&wu))))
    });
    group.finish();

    // --- GEMV kernels: assertions + machine-readable report ---
    // Bit-identity first: neither packing nor the SIMD tier may change a
    // single output bit relative to the unpacked scalar reference.
    let simd_out = mant_gemv(&qv, &wq).expect("shapes agree");
    let packed_out = mant_gemv_with(KernelDispatch::Scalar, &qv, &wq).expect("shapes agree");
    let scalar_out = mant_gemv_scalar(&qv, &wu);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&packed_out),
        bits(&scalar_out),
        "packed GEMV drifted from the scalar reference"
    );
    assert_eq!(
        bits(&simd_out),
        bits(&packed_out),
        "{} GEMV drifted from the packed-scalar kernel",
        tier.name()
    );

    // The three GEMVs in one alternating loop, FLOOR_PAIRS times: each
    // asserted ratio is its median over the runs.
    let gemv_runs = time_alternating_runs(
        20,
        [
            &mut || {
                black_box(mant_gemv(black_box(&qv), black_box(&wq)).expect("shapes agree"));
            },
            &mut || {
                black_box(
                    mant_gemv_with(KernelDispatch::Scalar, black_box(&qv), black_box(&wq))
                        .expect("shapes agree"),
                );
            },
            &mut || {
                black_box(mant_gemv_scalar(black_box(&qv), black_box(&wu)));
            },
        ],
    );
    // GEMM: the cache-blocked packed GEMM (auto tier) vs a batch of
    // unpacked scalar GEMVs (the pre-packing storage consumed row by row).
    let t_gemm_packed = time_best(10, || {
        black_box(mant_gemm(black_box(&xq), black_box(&wq)).expect("shapes agree"));
    });
    let xrows: Vec<_> = (0..GEMM_M)
        .map(|r| quantize_vector_int8(x.row(r), G).expect("valid group size"))
        .collect();
    let t_gemm_scalar = time_best(10, || {
        for xr in &xrows {
            black_box(mant_gemv_scalar(black_box(xr), black_box(&wu)));
        }
    });

    // --- Batch sweep against the pmaddwd roofline ---
    let probe_iters = 1 << 20;
    let mac_peak_gmacs = {
        let t = time_best(1, || {
            black_box(tier.mac_peak_probe(black_box(probe_iters)));
        });
        tier.mac_peak_probe(probe_iters) as f64 / t / 1e9
    };
    let mut sweep_rows = Vec::new();
    let (mut batch32_vs_rows, mut batch3_vs_gemv) = (f64::INFINITY, f64::INFINITY);
    for (n, k) in SIM_SHAPES {
        let w = gen.group_diverse_matrix(n, k, G, 0.02);
        let wq = MantWeightQuantizer::new(G)
            .quantize(&w)
            .expect("valid group size");
        let xs: Vec<_> = (0..*BATCH_SWEEP.iter().max().expect("non-empty sweep"))
            .map(|_| {
                let x: Vec<f32> = (0..k).map(|_| gen.standard_normal()).collect();
                quantize_vector_int8(&x, G).expect("valid group size")
            })
            .collect();
        for m in BATCH_SWEEP {
            // The batch, then the same members as `m` GEMVs, and through
            // the row sweep in batches of four.
            let [t_batch, t_gemvs, t_rows] = time_best_alternating(
                10,
                [
                    &mut || {
                        black_box(
                            mant_gemv_batch(black_box(&xs[..m]), black_box(&wq)).expect("shapes"),
                        );
                    },
                    &mut || {
                        for x in &xs[..m] {
                            black_box(mant_gemv(black_box(x), black_box(&wq)).expect("shapes"));
                        }
                    },
                    &mut || {
                        for four in xs[..m].chunks(4) {
                            black_box(
                                mant_gemv_batch(black_box(four), black_box(&wq)).expect("shapes"),
                            );
                        }
                    },
                ],
            );
            let gmacs = (m * n * k) as f64 / t_batch / 1e9;
            // No vector MAC to measure on the scalar tier: share 0.
            let peak_share = if mac_peak_gmacs > 0.0 {
                gmacs / mac_peak_gmacs
            } else {
                0.0
            };
            let (vs_gemv, vs_rows) = (t_gemvs / t_batch, t_rows / t_batch);
            match m {
                32 => batch32_vs_rows = batch32_vs_rows.min(vs_rows),
                3 => batch3_vs_gemv = batch3_vs_gemv.min(vs_gemv),
                _ => {}
            }
            println!(
                "gemv_batch {n}x{k} m={m}: {:.1} us vs {m} gemv {:.1} us = {vs_gemv:.2}x, \
                 vs the row sweep in fours {:.1} us = {vs_rows:.2}x, \
                 {gmacs:.1} GMAC/s ({:.0}% of the {mac_peak_gmacs:.0} GMAC/s pmaddwd peak)",
                t_batch * 1e6,
                t_gemvs * 1e6,
                t_rows * 1e6,
                100.0 * peak_share,
            );
            sweep_rows.push(format!(
                "    {{\"n\": {n}, \"k\": {k}, \"m\": {m}, \"batch_ns\": {:.0}, \"gemv_ns\": {:.0}, \
                 \"rows_ns\": {:.0}, \"gmacs\": {gmacs:.2}, \"peak_share\": {peak_share:.3}, \
                 \"vs_gemv\": {vs_gemv:.3}, \"vs_rows\": {vs_rows:.3}}}",
                t_batch * 1e9,
                t_gemvs * 1e9,
                t_rows * 1e9,
            ));
        }
    }

    let (decode_json, fused2_vs_two, lm_head_speedup) = decode_shaped(&mut gen);
    let (tail_json, [softmax_benign, softmax_prefill, softmax_prefill_scalar, attn_speedup]) =
        attention_tail();
    let run_json = run_attention(&mut gen);

    let gemv_packed_speedup = median_of(&gemv_runs, |[_, packed, scalar]| scalar / packed);
    let gemv_simd_speedup = median_of(&gemv_runs, |[simd, packed, _]| packed / simd);
    let gemv_total_speedup = median_of(&gemv_runs, |[simd, _, scalar]| scalar / simd);
    let [t_gemv_simd, t_gemv_packed, t_gemv_scalar] =
        [0, 1, 2].map(|v| median_of(&gemv_runs, |run| run[v]));
    let gemm_speedup = t_gemm_scalar / t_gemm_packed;
    println!(
        "gemv {K}x{N}: unpacked {:.1} us / packed-scalar {:.1} us / {} {:.1} us \
         = {gemv_packed_speedup:.2}x packing, {gemv_simd_speedup:.2}x simd, \
         {gemv_total_speedup:.2}x total",
        t_gemv_scalar * 1e6,
        t_gemv_packed * 1e6,
        tier.name(),
        t_gemv_simd * 1e6,
    );
    println!(
        "gemm {GEMM_M}x{K}x{N}: unpacked {:.1} us / packed {:.1} us = {gemm_speedup:.2}x speedup",
        t_gemm_scalar * 1e6,
        t_gemm_packed * 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"gemm_kernels\",\n  \"tier\": \"{}\",\n  \"shape\": {{\"m\": {GEMM_M}, \"k\": {K}, \"n\": {N}, \"group\": {G}}},\n  \"gemv_scalar_ns\": {:.0},\n  \"gemv_packed_ns\": {:.0},\n  \"gemv_simd_ns\": {:.0},\n  \"gemv_packed_speedup\": {gemv_packed_speedup:.3},\n  \"gemv_simd_speedup\": {gemv_simd_speedup:.3},\n  \"gemv_total_speedup\": {gemv_total_speedup:.3},\n  \"gemm_scalar_ns\": {:.0},\n  \"gemm_packed_ns\": {:.0},\n  \"gemm_packed_speedup\": {gemm_speedup:.3},\n  \"gemv_packed_threshold\": 1.3,\n  \"gemv_simd_threshold\": 2.0,\n  \"mac_peak_gmacs\": {mac_peak_gmacs:.2},\n  \"batch_sweep\": [\n{}\n  ],\n  \"batch32_vs_rows\": {batch32_vs_rows:.3},\n  \"batch3_vs_gemv\": {batch3_vs_gemv:.3},\n  \"batch32_threshold\": 0.75,\n  \"batch3_threshold\": 0.9,\n{decode_json}{tail_json}{run_json}  \"bit_identical\": true\n}}\n",
        tier.name(),
        t_gemv_scalar * 1e9,
        t_gemv_packed * 1e9,
        t_gemv_simd * 1e9,
        t_gemm_scalar * 1e9,
        t_gemm_packed * 1e9,
        sweep_rows.join(",\n"),
    );
    // The bench binary's cwd is the package dir (crates/bench); anchor the
    // artifact at the workspace root so CI and humans find it in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json (workspace root)");

    assert!(
        gemv_packed_speedup >= 1.3,
        "packed pair-LUT GEMV must beat the unpacked kernel by >= 1.3x, got {gemv_packed_speedup:.2}x"
    );
    assert!(
        softmax_prefill_scalar >= 1.2,
        "the softmax's scalar arm must beat the libm loop by >= 1.2x on a real prefill row, got {softmax_prefill_scalar:.2}x"
    );
    // On the scalar tier the dispatched GEMV is the packed-scalar kernel
    // itself (1.0×), so the vector floors bind only on AVX2.
    if tier == KernelDispatch::Avx2 {
        assert!(
            gemv_simd_speedup >= 2.0,
            "AVX2 GEMV must beat the packed-scalar kernel by >= 2x, got {gemv_simd_speedup:.2}x"
        );
        assert!(
            gemv_total_speedup >= 4.0,
            "AVX2 GEMV must beat the unpacked baseline by >= 4x, got {gemv_total_speedup:.2}x"
        );
        assert!(
            batch3_vs_gemv >= 0.9,
            "a 3-member batch must not lose to 3 GEMVs by > 10%, got {batch3_vs_gemv:.2}x"
        );
        assert!(
            fused2_vs_two <= 0.8,
            "a two-member fused sweep must take <= 0.8x two one-member sweeps, got {fused2_vs_two:.2}x"
        );
        assert!(
            lm_head_speedup >= 2.5,
            "the tiled LM head must beat the row-major matvec_batch by >= 2.5x, got {lm_head_speedup:.2}x"
        );
        assert!(
            softmax_benign >= 2.0,
            "AVX2 softmax must beat the libm loop by >= 2x on benign scores, got {softmax_benign:.2}x"
        );
        assert!(
            softmax_prefill >= 4.0,
            "AVX2 softmax must beat the libm loop by >= 4x on a real prefill row, got {softmax_prefill:.2}x"
        );
        assert!(
            attn_speedup >= 1.8,
            "swept decode attention at context 1024 must beat the per-row reference loop by >= 1.8x, got {attn_speedup:.2}x"
        );
        assert!(
            batch32_vs_rows >= 0.75,
            "one 32-member row-sweep call must take <= 1.33x the time of eight 4-member calls \
             on the same members on every shape, got {batch32_vs_rows:.2}x"
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_gemm_kernels
}
criterion_main!(benches);
