//! Decode-step attention throughput: dequantize path vs the incremental
//! packed-group path.
//!
//! The reference backend dequantizes the **entire** K and V caches on
//! every decode step before attending, so its per-step cost carries a
//! `seq × dim` materialization (alloc + per-element decode) that grows
//! linearly with the sequence — the quadratic-total-cost pathology the
//! quantized execution backend removes. The incremental path consumes the
//! packed codes in place: fused `Q·Kᵀ` group dots
//! ([`PagedKvCache::fused_dot`]) and psum-based `P·V`
//! ([`PagedKvCache::attend`]). This bench measures one full attention
//! step (scores → softmax → weighted V sum, all heads) both ways at two
//! sequence lengths and prints the per-step speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use mant_numerics::kernels;
use mant_quant::{
    attention_f32, attention_incremental_paged, CandidateSet, KvCachePool, PagedKvCache,
    PoolConfig, VarianceMap,
};
use mant_tensor::TensorGenerator;

const DIM: usize = 512; // 8 heads × head_dim 64
const HEADS: usize = 8;
const HEAD_DIM: usize = 64;
const GROUP: usize = 64;

/// A prefilled cache of `seq` tokens in a pool of the serving geometry
/// (64-token blocks), and a query.
fn build_cache(seq: usize, seed: u64) -> (PagedKvCache, KvCachePool, Vec<f32>) {
    let set = CandidateSet::paper();
    let vmap = VarianceMap::analytic(&set).expect("non-empty set");
    let mut gen = TensorGenerator::new(seed);
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim: DIM,
        group_size: GROUP,
        block_tokens: 64,
        blocks: seq.div_ceil(64),
    })
    .expect("group divides dim and block");
    let mut cache = PagedKvCache::new(&pool, vmap.clone(), vmap);
    let k = gen.group_diverse_matrix(seq, DIM, GROUP, 0.5);
    let v = gen.group_diverse_matrix(seq, DIM, GROUP, 0.5);
    cache
        .prefill(&mut pool, &k, &v)
        .expect("the pool is sized for the sequence");
    let q: Vec<f32> = (0..DIM).map(|_| gen.standard_normal()).collect();
    (cache, pool, q)
}

fn bench_decode_throughput(c: &mut Criterion) {
    // (seq, dequantize ns, incremental ns, speedup) per sequence length,
    // serialized to BENCH_decode.json after the sweep.
    let mut report: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &seq in &[256usize, 1024] {
        let (cache, pool, q) = build_cache(seq, 2000 + seq as u64);
        // Materialize both sides and attend in f32, vs packed groups in place.
        let dequantize = |q: &[f32]| {
            let (k_all, v_all) = (cache.dequantize_k(&pool), cache.dequantize_v(&pool));
            attention_f32(q, &k_all, &v_all, HEADS, HEADS, HEAD_DIM)
        };
        let incremental =
            |q: &[f32]| attention_incremental_paged(q, &cache, &pool, HEADS, HEADS, HEAD_DIM);
        let mut g = c.benchmark_group(format!("decode_step_seq{seq}_dim{DIM}"));
        g.bench_function("dequantize_path", |b| {
            b.iter(|| black_box(dequantize(black_box(&q))))
        });
        g.bench_function("incremental_path", |b| {
            b.iter(|| black_box(incremental(black_box(&q))))
        });
        g.finish();

        // Explicit per-step speedup report (best of 3 one-shot runs each)
        // plus a sanity check that the two paths agree on the output.
        let time_best = |f: &dyn Fn() -> Vec<f32>| -> (f64, Vec<f32>) {
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..3 {
                let t0 = Instant::now();
                let y = f();
                best = best.min(t0.elapsed().as_secs_f64());
                out = Some(y);
            }
            (best, out.expect("ran at least once"))
        };
        let (t_deq, y_deq) = time_best(&|| dequantize(&q));
        let (t_inc, y_inc) = time_best(&|| incremental(&q));
        let norm: f32 = y_deq.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        let dist: f32 = y_deq
            .iter()
            .zip(y_inc.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        println!(
            "decode_step seq={seq}: dequantize {:.3} ms / incremental {:.3} ms = {:.2}x per-step speedup; rel output diff {:.4}",
            t_deq * 1e3,
            t_inc * 1e3,
            t_deq / t_inc,
            dist / norm,
        );
        assert!(
            dist / norm < 0.05,
            "incremental attention diverged from the dequantize path: {}",
            dist / norm
        );
        // Non-regression floor: the packed incremental path must keep a
        // decisive per-step win over the dequantize path (it measured
        // ~4x before the nibble-packed kernels and ~7-8x with them; a
        // drop below 2x would mean the packed hot path regressed).
        assert!(
            t_deq / t_inc > 2.0,
            "packed incremental attention lost its speedup at seq {seq}: {:.2}x",
            t_deq / t_inc
        );
        report.push((seq, t_deq * 1e9, t_inc * 1e9, t_deq / t_inc));
    }

    let steps: Vec<String> = report
        .iter()
        .map(|(seq, deq_ns, inc_ns, speedup)| {
            format!(
                "    {{\"seq\": {seq}, \"dequantize_ns\": {deq_ns:.0}, \
                 \"incremental_ns\": {inc_ns:.0}, \"speedup\": {speedup:.3}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"decode_throughput\",\n  \"tier\": \"{}\",\n  \
         \"shape\": {{\"dim\": {DIM}, \"heads\": {HEADS}, \"head_dim\": {HEAD_DIM}, \
         \"group\": {GROUP}}},\n  \"steps\": [\n{}\n  ],\n  \
         \"speedup_threshold\": 2.0\n}}\n",
        kernels().name(),
        steps.join(",\n"),
    );
    // Same anchoring as BENCH_kernels.json: the workspace root, so the
    // perf trajectory artifacts live side by side.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decode.json");
    std::fs::write(path, &json).expect("write BENCH_decode.json");
    println!("wrote BENCH_decode.json (workspace root)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_decode_throughput
}
criterion_main!(benches);
