//! Property-based tests for the quantization framework.

use mant_numerics::kernels;
use mant_quant::{
    attention_incremental_paged, dequant_then_gemv, mant_gemm, mant_gemv,
    quantize_activations_int8, quantize_vector_int8, CandidateSet, KvCachePool,
    MantQuantizedMatrix, MantWeightQuantizer, PagedKvCache, PoolConfig, VarianceMap,
};
use mant_tensor::Matrix;
use proptest::prelude::*;

/// An empty cache over a private pool of one block, `block_tokens` slots:
/// the contiguous layout, for properties of the engines rather than of
/// block arithmetic.
fn one_block_cache(
    kv_dim: usize,
    group_size: usize,
    block_tokens: usize,
) -> (KvCachePool, PagedKvCache) {
    let vmap = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
    let cfg = PoolConfig {
        kv_dim,
        group_size,
        block_tokens,
        blocks: 1,
    };
    let pool = KvCachePool::new(cfg).unwrap();
    let cache = PagedKvCache::new(&pool, vmap.clone(), vmap);
    (pool, cache)
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dequantized MANT weights stay within the group's scaled range and
    /// never blow past 2× the group's max magnitude.
    #[test]
    fn mant_dequantize_bounded(w in small_matrix(4, 64)) {
        let q = MantQuantizedMatrix::quantize(&w, 32, &CandidateSet::paper()).unwrap();
        let deq = q.dequantize();
        for r in 0..4 {
            for g in 0..2 {
                let orig = &w.row(r)[g * 32..(g + 1) * 32];
                let got = &deq.row(r)[g * 32..(g + 1) * 32];
                let amax = orig.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                for &v in got {
                    prop_assert!(v.abs() <= amax * 1.01 + 1e-6,
                        "dequantized {} exceeds group max {}", v, amax);
                }
            }
        }
    }

    /// Quantization error per element is bounded by the worst grid gap.
    #[test]
    fn mant_error_bounded_by_grid_gap(w in small_matrix(2, 32)) {
        let q = MantQuantizedMatrix::quantize(&w, 32, &CandidateSet::paper()).unwrap();
        let deq = q.dequantize();
        for (r, (&x, &y)) in w.as_slice().iter().zip(deq.as_slice()).enumerate() {
            let row = r / 32;
            let meta = q.meta(row, 0);
            // Largest gap between adjacent scaled grid points.
            let grid = meta.dtype.grid();
            let max_gap = grid
                .points()
                .windows(2)
                .map(|p| p[1] - p[0])
                .fold(0.0f32, f32::max) * meta.scale;
            prop_assert!((x - y).abs() <= max_gap / 2.0 + 1e-4,
                "error {} exceeds half max gap {}", (x - y).abs(), max_gap / 2.0);
        }
    }

    /// Fused integer GEMM equals the dequantize-then-GEMM reference.
    #[test]
    fn fused_gemm_exact(x in small_matrix(3, 64), w in small_matrix(2, 64)) {
        let xq = quantize_activations_int8(&x, 32).unwrap();
        let wq = MantWeightQuantizer::new(32).quantize(&w).unwrap();
        let fused = mant_gemm(&xq, &wq).unwrap();
        let reference = mant_quant::dequant_then_gemm(&xq, &wq);
        let scale = reference.as_slice().iter().map(|v| v.abs()).fold(1.0f32, f32::max);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!((a - b).abs() / scale < 1e-4, "{} vs {}", a, b);
        }
    }

    /// INT8 activation roundtrip error is within half a quantization step.
    #[test]
    fn int8_activation_half_step(x in small_matrix(2, 32)) {
        let q = quantize_activations_int8(&x, 32).unwrap();
        let deq = q.dequantize();
        for r in 0..2 {
            let scale = q.scale(r, 0);
            for (a, b) in x.row(r).iter().zip(deq.row(r)) {
                prop_assert!((a - b).abs() <= scale * 0.5 + 1e-6);
            }
        }
    }

    /// The K cache preserves vector count and dimension for any sequence.
    #[test]
    fn k_cache_shape(rows in 1usize..20, vals in proptest::collection::vec(-5.0f32..5.0, 20 * 32)) {
        let (mut pool, mut kv) = one_block_cache(32, 16, 32);
        for r in 0..rows {
            let row = &vals[r * 32..(r + 1) * 32];
            kv.push(&mut pool, row, row).unwrap();
        }
        let deq = kv.dequantize_k(&pool);
        prop_assert_eq!(deq.shape(), (rows, 32));
    }

    /// Quantized-backend GEMV equals dequantize-then-f32 GEMV within a
    /// tight epsilon (same math, integer-psums-plus-f64 vs f32
    /// accumulation) — the scaled-accumulation half of the backend
    /// equivalence claim.
    #[test]
    fn fused_gemv_tight_epsilon(xv in proptest::collection::vec(-8.0f32..8.0, 64),
                                w in small_matrix(3, 64)) {
        let xq = quantize_vector_int8(&xv, 32).unwrap();
        let wq = MantWeightQuantizer::new(32).quantize(&w).unwrap();
        let fused = mant_gemv(&xq, &wq).unwrap();
        let reference = dequant_then_gemv(&xq, &wq);
        let scale = reference.iter().map(|v| v.abs()).fold(1.0f32, f32::max);
        for (a, b) in fused.iter().zip(reference.iter()) {
            prop_assert!((a - b).abs() / scale < 1e-4, "{} vs {}", a, b);
        }
    }

    /// With pure-integer operands (activation max 127 and weight groups
    /// holding integer levels, so every scale is exactly 1.0) the fused
    /// GEMV is EXACT: integer psums and the f32 reference agree bit for
    /// bit because nothing rounds.
    #[test]
    fn fused_gemv_pure_integer_exact(xints in proptest::collection::vec(-127i32..=127, 32),
                                     wints in proptest::collection::vec(-7i32..=7, 2 * 32)) {
        // Force amax to the grid max in every group so scale_for == 1.0.
        let mut xv: Vec<f32> = xints.iter().map(|&v| v as f32).collect();
        xv[0] = 127.0;
        let mut wv: Vec<f32> = wints.iter().map(|&v| v as f32).collect();
        wv[0] = 7.0;
        wv[32] = -7.0;
        let w = Matrix::from_vec(2, 32, wv);
        let set = CandidateSet::custom(&[], true).unwrap(); // INT4-only groups
        let xq = quantize_vector_int8(&xv, 32).unwrap();
        let wq = MantWeightQuantizer::new(32).with_candidates(set).quantize(&w).unwrap();
        let fused = mant_gemv(&xq, &wq).unwrap();
        let reference = dequant_then_gemv(&xq, &wq);
        for (a, b) in fused.iter().zip(reference.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
    }

    /// The incremental K-cache dot equals the dequantized-row dot against
    /// the same quantized query, within a tight epsilon, at every cached
    /// position.
    #[test]
    fn fused_dot_tight_epsilon(rows in 1usize..8,
                               vals in proptest::collection::vec(-3.0f32..3.0, 8 * 64),
                               qv in proptest::collection::vec(-3.0f32..3.0, 64)) {
        let (mut pool, mut kv) = one_block_cache(64, 32, 32);
        for r in 0..rows {
            let row = &vals[r * 64..(r + 1) * 64];
            kv.push(&mut pool, row, row).unwrap();
        }
        let q = quantize_vector_int8(&qv, 32).unwrap();
        let q_deq = q.dequantize();
        let k_deq = kv.dequantize_k(&pool);
        for t in 0..rows {
            let fused = kv.fused_dot(&pool, t, &q, 0, 0, 2);
            let reference: f32 = q_deq.iter().zip(k_deq.row(t)).map(|(&a, &b)| a * b).sum();
            prop_assert!((fused - reference).abs() <= reference.abs().max(1.0) * 1e-4,
                "t={}: {} vs {}", t, fused, reference);
        }
    }

    /// The V cache's committed+staged split always accounts for every row.
    #[test]
    fn v_cache_length_invariant(rows in 1usize..40) {
        // The pool's geometry needs the window to divide the width: 16
        // channels, windows of 16 rows.
        let (mut pool, mut kv) = one_block_cache(16, 16, 48);
        for i in 0..rows {
            let row: Vec<f32> = (0..16).map(|c| ((i * 16 + c) % 13) as f32 - 6.0).collect();
            kv.push(&mut pool, &row, &row).unwrap();
        }
        prop_assert_eq!(kv.len(), rows);
        prop_assert_eq!(kv.committed_windows(), rows / 16);
        prop_assert_eq!(kv.window_len(), rows % 16);
        prop_assert_eq!(kv.dequantize_v(&pool).shape(), (rows, 16));
    }
}

/// The allocator invariant the refcounted pool must hold at every moment:
/// every block is either on the free list or held by at least one view,
/// never both, never neither.
/// Decode attention over `cache` ([`attention_incremental_paged`], which
/// reads the pool's sweep index) equals its per-row references bit for bit:
/// per head, `fused_dot` per cached row (which reads the metadata arena),
/// the softmax kernel, then `attend`. The query is drawn from `seed`.
fn assert_attention_matches_per_row(
    cache: &PagedKvCache,
    pool: &KvCachePool,
    (heads, kv_heads, head_dim): (usize, usize, usize),
    seed: u64,
) {
    let mut gen = mant_tensor::TensorGenerator::new(seed);
    let q: Vec<f32> = (0..heads * head_dim)
        .map(|_| 4.0 * gen.standard_normal())
        .collect();
    let got = attention_incremental_paged(&q, cache, pool, heads, kv_heads, head_dim);
    let g = cache.group_size();
    let (gph, scale) = (head_dim / g, 1.0 / (head_dim as f32).sqrt());
    let qv = quantize_vector_int8(&q, g).unwrap();
    let mut want = vec![0.0f32; heads * head_dim];
    for (h, o) in want.chunks_exact_mut(head_dim).enumerate() {
        let kv_head = h / (heads / kv_heads);
        let mut scores: Vec<f32> = (0..cache.len())
            .map(|t| cache.fused_dot(pool, t, &qv, h * gph, kv_head * gph, gph) * scale)
            .collect();
        kernels().softmax(&mut scores);
        cache.attend(pool, &scores, kv_head * head_dim, o);
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "after {} rows", cache.len());
}

fn assert_pool_invariant(pool: &KvCachePool, views: &[PagedKvCache]) {
    let refcounted = (0..pool.total_blocks() as u32)
        .filter(|&b| pool.refcount(b) > 0)
        .count();
    assert_eq!(
        pool.free_blocks() + refcounted,
        pool.total_blocks(),
        "free list + refcounted blocks must cover the pool exactly"
    );
    assert_eq!(pool.used_blocks(), refcounted);
    // Every held block id is sane and live, and total holds equal the sum
    // of refcounts.
    let holds: usize = views.iter().map(PagedKvCache::reserved_blocks).sum();
    let refs_total: usize = (0..pool.total_blocks() as u32)
        .map(|b| pool.refcount(b) as usize)
        .sum();
    assert_eq!(holds, refs_total, "view holds must equal summed refcounts");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Alloc/free churn under random join / push / fork / leave / grow
    /// never leaks or double-frees a block: `free + #{refcount > 0} ==
    /// capacity` after every operation, and releasing every survivor
    /// empties the pool completely. After every push — into a fork's
    /// shared partial block, into a reused released block, into a grown
    /// pool — decode attention over the pushed view (two groups per head)
    /// equals the per-row references.
    #[test]
    fn pool_churn_never_leaks_blocks(
        ops in proptest::collection::vec((0usize..5, 0usize..8, 1usize..20), 60),
    ) {
        let vmap = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
        let pool_cfg = PoolConfig { kv_dim: 16, group_size: 8, block_tokens: 8, blocks: 12 };
        let mut pool = KvCachePool::new(pool_cfg).unwrap();
        let mut views: Vec<PagedKvCache> = Vec::new();
        let mut stamp = 0usize;
        for &(op, pick, count) in &ops {
            match op {
                // Join: a new empty view (bounded so forks still happen).
                0 if views.len() < 6 => {
                    views.push(PagedKvCache::new(&pool, vmap.clone(), vmap.clone()));
                }
                // Push: grow a view until done or the pool runs dry.
                1 if !views.is_empty() => {
                    let i = pick % views.len();
                    let v = &mut views[i];
                    for _ in 0..count {
                        stamp += 1;
                        let row: Vec<f32> =
                            (0..16).map(|c| ((stamp * 7 + c) % 11) as f32 - 5.0).collect();
                        if v.push(&mut pool, &row, &row).is_err() {
                            break; // exhaustion is legal; state must stay consistent
                        }
                    }
                    if !v.is_empty() {
                        assert_attention_matches_per_row(v, &pool, (2, 1, 16), stamp as u64);
                    }
                }
                // Fork: share every block copy-on-write.
                2 if !views.is_empty() && views.len() < 6 => {
                    let child = views[pick % views.len()].fork(&mut pool);
                    views.push(child);
                }
                // Leave: release a view's holds.
                3 if !views.is_empty() => {
                    let i = pick % views.len();
                    views[i].release(&mut pool);
                    views.remove(i);
                }
                // Grow: live and shared blocks keep their ids and bytes.
                4 if pool.total_blocks() < 16 => pool.grow(1 + pick % 2),
                _ => {}
            }
            assert_pool_invariant(&pool, &views);
        }
        for v in &mut views {
            v.release(&mut pool);
        }
        assert_eq!(pool.free_blocks(), pool.total_blocks(), "survivor release must drain to empty");
        assert_eq!(pool.shared_blocks(), 0);
    }

    /// Fork-then-diverge is byte-identical to two caches that never met:
    /// a parent forked at a random point, each side continuing on its own
    /// rows, must dequantize exactly like a fresh cache in a private pool
    /// fed the same stream (CoW isolation leaves no trace).
    #[test]
    fn fork_then_diverge_matches_independent_caches(
        prefix_rows in 1usize..40,
        a_rows in 1usize..20,
        b_rows in 1usize..20,
        seed in 0u64..500,
    ) {
        let vmap = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
        let mut gen = mant_tensor::TensorGenerator::new(seed);
        let pool_cfg = PoolConfig { kv_dim: 32, group_size: 8, block_tokens: 16, blocks: 16 };
        let mut pool = KvCachePool::new(pool_cfg).unwrap();
        let prefix = gen.group_diverse_matrix(prefix_rows, 32, 8, 0.5);
        let a_tail = gen.group_diverse_matrix(a_rows, 32, 8, 0.6);
        let b_tail = gen.group_diverse_matrix(b_rows, 32, 8, 0.8);

        let mut a = PagedKvCache::new(&pool, vmap.clone(), vmap.clone());
        for t in 0..prefix_rows {
            a.push(&mut pool, prefix.row(t), prefix.row(t)).unwrap();
        }
        let mut b = a.fork(&mut pool);
        for t in 0..a_rows.max(b_rows) {
            if t < a_rows {
                a.push(&mut pool, a_tail.row(t), a_tail.row(t)).unwrap();
            }
            if t < b_rows {
                b.push(&mut pool, b_tail.row(t), b_tail.row(t)).unwrap();
            }
            // The first pushes land in the still-shared partial block.
            if t < 2 {
                assert_attention_matches_per_row(&a, &pool, (4, 4, 8), seed + t as u64);
                assert_attention_matches_per_row(&b, &pool, (8, 4, 8), seed + t as u64);
            }
        }
        assert_attention_matches_per_row(&a, &pool, (4, 4, 8), seed);
        assert_attention_matches_per_row(&b, &pool, (8, 4, 8), seed);
        for (view, tail, rows) in [(&a, &a_tail, a_rows), (&b, &b_tail, b_rows)] {
            let (mut alone_pool, mut alone) = one_block_cache(32, 8, 64);
            let stream = (0..prefix_rows)
                .map(|t| prefix.row(t))
                .chain((0..rows).map(|t| tail.row(t)));
            for row in stream {
                alone.push(&mut alone_pool, row, row).unwrap();
            }
            let (forked_k, alone_k) = (view.dequantize_k(&pool), alone.dequantize_k(&alone_pool));
            let (forked_v, alone_v) = (view.dequantize_v(&pool), alone.dequantize_v(&alone_pool));
            prop_assert_eq!(forked_k.as_slice(), alone_k.as_slice());
            prop_assert_eq!(forked_v.as_slice(), alone_v.as_slice());
        }
        a.release(&mut pool);
        b.release(&mut pool);
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());
    }

    /// Speculative-rollback soundness: truncating a forked/CoW paged cache
    /// is bit-identical to replaying a fresh cache to the same length —
    /// for cuts landing inside a shared block, inside the V staging
    /// window, and at committed-window boundaries — and stays identical
    /// as both caches keep pushing (the replayed staging scales/stats
    /// drive the next commit exactly). The surviving parent is never
    /// perturbed, and no block leaks.
    ///
    /// Half the cases run a second geometry, three groups of 4 to a
    /// 12-wide head and 12-token blocks (neither a multiple of the
    /// kernel's eight lanes). Decode attention over the truncated child
    /// and over it pushed on equals the per-row references.
    #[test]
    fn truncate_on_forked_cache_matches_fresh_replay(
        prefix_rows in 1usize..40,
        extra_rows in 0usize..24,
        cut_back in 0usize..24,
        continue_rows in 0usize..20,
        seed in 0u64..500,
        geometry in 0usize..2,
    ) {
        let vmap = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
        let mut gen = mant_tensor::TensorGenerator::new(seed ^ 0xa11);
        // (pool, (heads, kv_heads, head_dim)).
        let (pool_cfg, shape) = [
            (PoolConfig { kv_dim: 32, group_size: 8, block_tokens: 16, blocks: 24 }, (4, 2, 16)),
            (PoolConfig { kv_dim: 36, group_size: 4, block_tokens: 12, blocks: 32 }, (6, 3, 12)),
        ][geometry];
        let mut pool = KvCachePool::new(pool_cfg).unwrap();
        let (dim, g) = (pool_cfg.kv_dim, pool_cfg.group_size);
        let total = prefix_rows + extra_rows + continue_rows;
        let data = gen.group_diverse_matrix(total.max(1), dim, g, 0.5);

        let mut parent = PagedKvCache::new(&pool, vmap.clone(), vmap.clone());
        for t in 0..prefix_rows {
            parent.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        let mut child = parent.fork(&mut pool);
        for t in prefix_rows..prefix_rows + extra_rows {
            child.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        // Clamp the cut to a representable length: anywhere in the child's
        // staging region, or a committed-window boundary below it.
        let rows = prefix_rows + extra_rows;
        let committed_len = (rows / g) * g;
        let want = rows.saturating_sub(cut_back);
        let len = if want >= committed_len { want } else { (want / g) * g };
        child.truncate(&mut pool, len);

        let parent_k = parent.dequantize_k(&pool);
        let mut fresh = PagedKvCache::new(&pool, vmap.clone(), vmap.clone());
        for t in 0..len {
            fresh.push(&mut pool, data.row(t), data.row(t)).unwrap();
        }
        prop_assert_eq!(child.len(), fresh.len());
        prop_assert_eq!(child.committed_windows(), fresh.committed_windows());
        let (child_k, fresh_k) = (child.dequantize_k(&pool), fresh.dequantize_k(&pool));
        let (child_v, fresh_v) = (child.dequantize_v(&pool), fresh.dequantize_v(&pool));
        prop_assert_eq!(child_k.as_slice(), fresh_k.as_slice());
        prop_assert_eq!(child_v.as_slice(), fresh_v.as_slice());
        if len > 0 {
            assert_attention_matches_per_row(&child, &pool, shape, seed);
        }
        // Staging-region cuts replay exactly: continuing both caches on
        // identical rows (through further commits) stays bit-identical.
        if len >= committed_len {
            for t in 0..continue_rows {
                let row = data.row(prefix_rows + extra_rows + t);
                child.push(&mut pool, row, row).unwrap();
                fresh.push(&mut pool, row, row).unwrap();
            }
            if !child.is_empty() {
                assert_attention_matches_per_row(&child, &pool, shape, seed + 1);
            }
            let (child_k, fresh_k) = (child.dequantize_k(&pool), fresh.dequantize_k(&pool));
            let (child_v, fresh_v) = (child.dequantize_v(&pool), fresh.dequantize_v(&pool));
            prop_assert_eq!(child_k.as_slice(), fresh_k.as_slice());
            prop_assert_eq!(child_v.as_slice(), fresh_v.as_slice());
        }
        // The parent never moved.
        let parent_k_after = parent.dequantize_k(&pool);
        prop_assert_eq!(parent_k_after.as_slice(), parent_k.as_slice());
        child.release(&mut pool);
        fresh.release(&mut pool);
        parent.release(&mut pool);
        prop_assert_eq!(pool.free_blocks(), pool.total_blocks());
    }
}
