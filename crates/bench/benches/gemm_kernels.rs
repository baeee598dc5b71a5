//! Benchmarks the paper's computational claim (Tbl. I / Eq. (5)): fused
//! decode-and-compute MANT GEMM vs dequantize-then-FP32-GEMM vs plain
//! FP32 — plus the three-tier kernel ladder on the packed GEMV:
//! the unpacked scalar path (one code per byte, a masked 16-entry
//! two-lane LUT walk per element, i64 accumulation), the packed
//! pair-LUT scalar kernel (one byte load + one 256-entry table hit per
//! code pair), and the runtime-dispatched SIMD tier (`pshufb` nibble
//! decode + `pmaddwd` widening MAC, 16–32 codes per iteration).
//!
//! The tier ratios are asserted — packed-scalar ≥ 1.3× over unpacked,
//! and on AVX2 hardware SIMD ≥ 2× over packed-scalar (≥ 4× over
//! unpacked); without SIMD the ladder degrades gracefully to 1.0× — and
//! written to `BENCH_kernels.json` so the kernel-level perf trajectory
//! is machine-readable.
//!
//! The decode-once tier gets a batch sweep: `mant_gemv_batch` at 3, 8 and
//! 32 members against that many `mant_gemv` calls on the sim model's
//! three projection shapes, each placed against the host's measured
//! `pmaddwd` issue rate (a register-resident probe) as GMAC/s and a share
//! of that peak. On AVX2 the 32-member batch must beat 32 GEMVs by ≥ 3×
//! on every shape, and the 3-member batch — the first size that takes
//! the tile — must not lose more than 10 %.
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

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use mant_model::{ActMode, ForwardObserver, KvMode, ModelConfig, TransformerModel};
use mant_numerics::{kernels, KernelDispatch, EXP_FLOOR};
use mant_quant::{
    attention_incremental_paged, dequant_then_gemm, mant_gemm, mant_gemv, mant_gemv_batch,
    mant_gemv_scalar, mant_gemv_with, quantize_activations_int8, quantize_vector_int8,
    CandidateSet, KvCachePool, MantWeightQuantizer, PagedKvCache, PoolConfig, UnpackedWeights,
    VarianceMap,
};
use mant_tensor::{gemm, TensorGenerator};

const K: usize = 512;
const N: usize = 256;
const G: usize = 64;
const GEMM_M: usize = 8;
/// The sim model's projections as `(n, k)`: attention q/k/v/o, FFN
/// gate/up, FFN down.
const SIM_SHAPES: [(usize, usize); 3] = [(256, 256), (512, 256), (256, 512)];
const BATCH_SWEEP: [usize; 3] = [3, 8, 32];

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

/// [`time_best`] for two variants whose *ratio* is asserted: the eight
/// repetitions alternate between them, so both minima are drawn from the
/// same stretch of wall time and a slow stretch of the host cannot land on
/// one side only.
fn time_best_pair(iters: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..8 {
        best.0 = best.0.min(time_once(iters, &mut f));
        best.1 = best.1.min(time_once(iters, &mut g));
    }
    best
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
}

impl SoftmaxRow {
    /// The libm loop against the scalar arm and against the process tier,
    /// each pair in alternating repetitions; the libm figure kept is the
    /// better of its two readings.
    fn measure(label: &'static str, rows: &[Vec<f32>]) -> SoftmaxRow {
        let len: usize = rows.iter().map(Vec::len).sum();
        let per_elem = 1e9 / len as f64;
        let longest = rows.iter().map(Vec::len).max().unwrap_or(0);
        let (mut a, mut b) = (vec![0.0f32; longest], vec![0.0f32; longest]);
        let tier = kernels();
        let (libm_a, scalar) = time_best_pair(
            100,
            || softmax_each(rows, &mut a, libm_softmax),
            || softmax_each(rows, &mut b, |x| KernelDispatch::Scalar.softmax(x)),
        );
        let (libm_b, vector) = time_best_pair(
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

/// The attention tail section; returns its JSON fields and the three
/// ratios the floors are asserted on: tier vs libm on the benign row, tier
/// vs libm and scalar arm vs libm on the prefill rows.
fn attention_tail() -> (String, [f64; 3]) {
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
             ns per element = {:.2}x scalar, {:.2}x tier",
            r.label,
            r.len,
            100.0 * r.floor_share,
            r.libm_ns,
            r.scalar_ns,
            kernels().name(),
            r.tier_ns,
            r.libm_ns / r.scalar_ns,
            r.libm_ns / r.tier_ns,
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
    // benchmark's `quant.attn_ctx1024_us` probe makes it.
    for r in G / 2..1024 {
        cache
            .push(&mut pool, keys.row(r), values.row(r))
            .expect("the pool has room");
    }
    let q: Vec<f32> = (0..kv_dim).map(|_| gen.standard_normal()).collect();
    let t_paged = time_best(20, || {
        black_box(attention_incremental_paged(
            black_box(&q),
            &cache,
            &pool,
            4,
            4,
            64,
        ));
    });
    println!(
        "attend_staged, 32 staged rows x 4 heads of 64: {:.2} us; attention_incremental_paged \
         ctx 1024: {:.1} us",
        t_staged * 1e6,
        t_paged * 1e6,
    );

    let json = format!(
        "  \"attention_tail\": {{\n   \"softmax\": [\n{}\n   ],\n   \"attend_staged_32rows_4heads_ns\": {:.0},\n   \
         \"attn_paged_ctx1024_ns\": {:.0},\n   \"tier_vs_libm_benign_threshold\": 2.0,\n   \
         \"tier_vs_libm_prefill_threshold\": 4.0,\n   \"scalar_vs_libm_prefill_threshold\": 1.2\n  }},\n",
        rows.iter().map(SoftmaxRow::json).collect::<Vec<_>>().join(",\n"),
        t_staged * 1e9,
        t_paged * 1e9,
    );
    let ratios = [
        rows[0].libm_ns / rows[0].tier_ns,
        rows[1].libm_ns / rows[1].tier_ns,
        rows[1].libm_ns / rows[1].scalar_ns,
    ];
    (json, ratios)
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

    // --- Tier ladder: assertions + machine-readable report ---
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

    let t_gemv_simd = time_best(20, || {
        black_box(mant_gemv(black_box(&qv), black_box(&wq)).expect("shapes agree"));
    });
    let t_gemv_packed = time_best(20, || {
        black_box(
            mant_gemv_with(KernelDispatch::Scalar, black_box(&qv), black_box(&wq))
                .expect("shapes agree"),
        );
    });
    let t_gemv_scalar = time_best(20, || {
        black_box(mant_gemv_scalar(black_box(&qv), black_box(&wu)));
    });
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

    // --- Decode-once tier: batch sweep against the pmaddwd roofline ---
    let probe_iters = 1 << 20;
    let mac_peak_gmacs = {
        let t = time_best(1, || {
            black_box(tier.mac_peak_probe(black_box(probe_iters)));
        });
        tier.mac_peak_probe(probe_iters) as f64 / t / 1e9
    };
    let mut sweep_rows = Vec::new();
    let (mut batch32_vs_gemv, mut batch3_vs_gemv) = (f64::INFINITY, f64::INFINITY);
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
            let (t_batch, t_gemvs) = time_best_pair(
                10,
                || {
                    black_box(
                        mant_gemv_batch(black_box(&xs[..m]), black_box(&wq)).expect("shapes"),
                    );
                },
                || {
                    for x in &xs[..m] {
                        black_box(mant_gemv(black_box(x), black_box(&wq)).expect("shapes"));
                    }
                },
            );
            let gmacs = (m * n * k) as f64 / t_batch / 1e9;
            // No vector MAC to measure on the scalar tier: share 0.
            let peak_share = if mac_peak_gmacs > 0.0 {
                gmacs / mac_peak_gmacs
            } else {
                0.0
            };
            let vs_gemv = t_gemvs / t_batch;
            match m {
                32 => batch32_vs_gemv = batch32_vs_gemv.min(vs_gemv),
                3 => batch3_vs_gemv = batch3_vs_gemv.min(vs_gemv),
                _ => {}
            }
            println!(
                "gemv_batch {n}x{k} m={m}: {:.1} us vs {m} gemv {:.1} us = {vs_gemv:.2}x, \
                 {gmacs:.1} GMAC/s ({:.0}% of the {mac_peak_gmacs:.0} GMAC/s pmaddwd peak)",
                t_batch * 1e6,
                t_gemvs * 1e6,
                100.0 * peak_share,
            );
            sweep_rows.push(format!(
                "    {{\"n\": {n}, \"k\": {k}, \"m\": {m}, \"batch_ns\": {:.0}, \"gemv_ns\": {:.0}, \
                 \"gmacs\": {gmacs:.2}, \"peak_share\": {peak_share:.3}, \"vs_gemv\": {vs_gemv:.3}}}",
                t_batch * 1e9,
                t_gemvs * 1e9,
            ));
        }
    }

    let (tail_json, [softmax_benign, softmax_prefill, softmax_prefill_scalar]) = attention_tail();

    let gemv_packed_speedup = t_gemv_scalar / t_gemv_packed;
    let gemv_simd_speedup = t_gemv_packed / t_gemv_simd;
    let gemv_total_speedup = t_gemv_scalar / t_gemv_simd;
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
        "{{\n  \"bench\": \"gemm_kernels\",\n  \"tier\": \"{}\",\n  \"shape\": {{\"m\": {GEMM_M}, \"k\": {K}, \"n\": {N}, \"group\": {G}}},\n  \"gemv_scalar_ns\": {:.0},\n  \"gemv_packed_ns\": {:.0},\n  \"gemv_simd_ns\": {:.0},\n  \"gemv_packed_speedup\": {gemv_packed_speedup:.3},\n  \"gemv_simd_speedup\": {gemv_simd_speedup:.3},\n  \"gemv_total_speedup\": {gemv_total_speedup:.3},\n  \"gemm_scalar_ns\": {:.0},\n  \"gemm_packed_ns\": {:.0},\n  \"gemm_packed_speedup\": {gemm_speedup:.3},\n  \"gemv_packed_threshold\": 1.3,\n  \"gemv_simd_threshold\": 2.0,\n  \"mac_peak_gmacs\": {mac_peak_gmacs:.2},\n  \"batch_sweep\": [\n{}\n  ],\n  \"batch32_vs_gemv\": {batch32_vs_gemv:.3},\n  \"batch3_vs_gemv\": {batch3_vs_gemv:.3},\n  \"batch32_threshold\": 3.0,\n  \"batch3_threshold\": 0.9,\n{tail_json}  \"bit_identical\": true\n}}\n",
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
    // Without a SIMD tier the ladder's top rung is the packed-scalar
    // kernel itself — a graceful 1.0× — so the vector floors only bind
    // when vector code actually runs.
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
            batch32_vs_gemv >= 3.0,
            "a 32-member batch must beat 32 GEMVs by >= 3x on every shape, got {batch32_vs_gemv:.2}x"
        );
        assert!(
            batch3_vs_gemv >= 0.9,
            "a 3-member batch must not lose to 3 GEMVs by > 10%, got {batch3_vs_gemv:.2}x"
        );
        assert!(
            softmax_benign >= 2.0,
            "AVX2 softmax must beat the libm loop by >= 2x on benign scores, got {softmax_benign:.2}x"
        );
        assert!(
            softmax_prefill >= 4.0,
            "AVX2 softmax must beat the libm loop by >= 4x on a real prefill row, got {softmax_prefill:.2}x"
        );
    } else if tier.is_simd() {
        assert!(
            gemv_simd_speedup >= 1.2,
            "{} GEMV must beat the packed-scalar kernel, got {gemv_simd_speedup:.2}x",
            tier.name()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_gemm_kernels
}
criterion_main!(benches);
