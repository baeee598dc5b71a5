//! Real-time KV-cache quantization, token by token: the K cache quantizes
//! spatially (whole groups per arriving key vector), the V cache runs the
//! paper's two-phase temporal scheme (INT8 process window + variance-based
//! coefficient selection on commit, Fig. 8), both into a `PagedKvCache`
//! view over a `KvCachePool` sized for the sequence. The decode loop then
//! attends both ways — dequantizing the whole cache per step vs consuming
//! the packed groups incrementally — and reports the per-step speedup.
//!
//! Run with `cargo run --release --example kv_cache_streaming`.

use std::time::Instant;

use mant::quant::{
    attention_f32, attention_incremental_paged, CandidateSet, KvCachePool, PagedKvCache,
    PoolConfig, VarianceMap,
};
use mant::tensor::{mse, Matrix, TensorGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 256; // head_dim × heads
    let group = 64;
    let vmap = VarianceMap::analytic(&CandidateSet::paper())?;

    // 128 prompt + 96 decoded tokens in 64-token blocks.
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim: dim,
        group_size: group,
        block_tokens: 64,
        blocks: (128usize + 96).div_ceil(64),
    })?;
    let mut cache = PagedKvCache::new(&pool, vmap.clone(), vmap);
    let mut gen = TensorGenerator::new(99);

    // Prefill: a 128-token prompt arrives as matrices.
    let k_prefill = gen.group_diverse_matrix(128, dim, group, 0.5);
    let v_prefill = gen.group_diverse_matrix(128, dim, group, 0.5);
    cache.prefill(&mut pool, &k_prefill, &v_prefill)?;
    println!(
        "after prefill: {} keys cached, {} V windows committed, {} V rows staged in INT8",
        cache.len(),
        cache.committed_windows(),
        cache.window_len()
    );

    // Decode: one K/V vector per generated token.
    let mut k_rows = k_prefill.clone();
    let mut v_rows = v_prefill.clone();
    for step in 0..96 {
        let k: Vec<f32> = (0..dim).map(|_| gen.standard_normal() * 0.5).collect();
        let v: Vec<f32> = (0..dim).map(|_| gen.standard_normal() * 0.5).collect();
        cache.push(&mut pool, &k, &v)?;
        k_rows.push_row(&k);
        v_rows.push_row(&v);
        if (step + 1) % 32 == 0 {
            println!(
                "decode step {:>3}: V windows committed {}, staged rows {}",
                step + 1,
                cache.committed_windows(),
                cache.window_len()
            );
        }
    }

    // Accuracy of the whole cache after 128 + 96 tokens.
    let rel = |orig: &Matrix, deq: &Matrix| -> f64 {
        mse(orig.as_slice(), deq.as_slice())
            / mse(orig.as_slice(), &vec![0.0; orig.len()]).max(1e-30)
    };
    let seq = cache.len();
    println!(
        "\nK+V cache: {seq} vectors each at {:.3} bits/element ({} of {} pool blocks reserved)",
        cache.used_bits() as f64 / (2 * seq * dim) as f64,
        cache.reserved_blocks(),
        pool.total_blocks()
    );
    println!(
        "K relative error {:.4}%, V relative error {:.4}%",
        100.0 * rel(&k_rows, &cache.dequantize_k(&pool)),
        100.0 * rel(&v_rows, &cache.dequantize_v(&pool))
    );
    println!("(the staged INT8 tail keeps the newest tokens at higher fidelity,");
    println!(" which the paper argues helps generation quality)");

    // --- One attention step, two execution backends ---
    // Reference path: dequantize the full cache (seq × dim matrices) and
    // attend in f32. Incremental path: quantize the query to INT8 groups
    // and consume the packed codes in place (fused_dot / attend). Both are
    // `mant::quant`'s cache-level attention functions — the same code the
    // model runner, the serving engine and the decode bench execute.
    let heads = dim / group; // head_dim = one quantization group
    let q: Vec<f32> = (0..dim).map(|_| gen.standard_normal()).collect();
    let dequantize_step = || {
        let (k_all, v_all) = (cache.dequantize_k(&pool), cache.dequantize_v(&pool));
        attention_f32(&q, &k_all, &v_all, heads, heads, group)
    };
    let incremental_step = || attention_incremental_paged(&q, &cache, &pool, heads, heads, group);
    let time_best = |f: &dyn Fn() -> Vec<f32>| -> (f64, Vec<f32>) {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            out = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, out)
    };
    let (t_deq, y_deq) = time_best(&dequantize_step);
    let (t_inc, y_inc) = time_best(&incremental_step);
    let norm: f32 = y_deq.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-9);
    let diff: f32 = y_deq
        .iter()
        .zip(y_inc.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    println!(
        "\nattention step over {seq} cached tokens:\n  dequantize path  {:.3} ms (materializes two {seq}x{dim} matrices)\n  incremental path {:.3} ms (packed groups in place) -> {:.2}x per-step speedup, rel diff {:.4}",
        t_deq * 1e3,
        t_inc * 1e3,
        t_deq / t_inc,
        diff / norm
    );
    Ok(())
}
