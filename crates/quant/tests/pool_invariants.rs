//! Allocator-invariant property tests for the refcounted paged KV pool,
//! including truncate/rollback churn and (under `fault-inject`) forced
//! `PoolExhausted` verdicts from the installed fault plan.
//!
//! The invariant under test, from the allocator's own docs:
//! `free.len() + #{blocks with refcount > 0} == total blocks` — every
//! block is either on the free list or held by at least one view, never
//! both, never neither.

use mant_quant::{CandidateSet, KvCachePool, PagedKvCache, PoolConfig, QuantError, VarianceMap};
use proptest::prelude::*;

/// Asserts the allocator invariant plus hold/refcount accounting.
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
    let holds: usize = views.iter().map(PagedKvCache::reserved_blocks).sum();
    let refs_total: usize = (0..pool.total_blocks() as u32)
        .map(|b| pool.refcount(b) as usize)
        .sum();
    assert_eq!(holds, refs_total, "view holds must equal summed refcounts");
}

/// One churn pass over a small pool: alloc (join), push (extend), fork
/// (retain/CoW), truncate (rollback), release (leave), grow (1–3 more
/// blocks under whatever is live). Any `Err` from
/// `push` — organic exhaustion on this deliberately tiny pool, or an
/// injected `PoolExhausted` when a fault plan is installed — must leave
/// the allocator consistent, which is also what makes this test immune
/// to a concurrently-installed plan in `fault-inject` builds.
fn churn(ops: &[(usize, usize, usize)], blocks: usize) -> Result<(), TestCaseError> {
    let vmap = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
    let pool_cfg = PoolConfig {
        kv_dim: 16,
        group_size: 8,
        block_tokens: 8,
        blocks,
    };
    let mut pool = KvCachePool::new(pool_cfg).unwrap();
    let mut views: Vec<PagedKvCache> = Vec::new();
    let mut stamp = 0usize;
    let mut exhausted = 0usize;
    for &(op, pick, count) in ops {
        match op {
            0 if views.len() < 6 => {
                views.push(PagedKvCache::new(&pool, vmap.clone(), vmap.clone()));
            }
            1 if !views.is_empty() => {
                let i = pick % views.len();
                let v = &mut views[i];
                for _ in 0..count {
                    stamp += 1;
                    let row: Vec<f32> = (0..16)
                        .map(|c| ((stamp * 7 + c) % 11) as f32 - 5.0)
                        .collect();
                    match v.push(&mut pool, &row, &row) {
                        Ok(()) => {}
                        Err(QuantError::PoolExhausted { .. }) => {
                            exhausted += 1;
                            break;
                        }
                        Err(e) => return Err(format!("unexpected push error: {e}")),
                    }
                }
            }
            2 if !views.is_empty() && views.len() < 6 => {
                let child = views[pick % views.len()].fork(&mut pool);
                views.push(child);
            }
            3 if !views.is_empty() => {
                // Truncate: the speculative-rollback path. Cutting a
                // forked view exercises CoW un-sharing; cuts below the
                // committed V region must land on a window boundary (the
                // documented contract), so round those down.
                let i = pick % views.len();
                let len = views[i].len();
                let mut target = len.saturating_sub(count);
                let committed = views[i].committed_windows() * views[i].group_size();
                if target < committed {
                    target -= target % views[i].group_size();
                }
                views[i].truncate(&mut pool, target);
            }
            4 if !views.is_empty() => {
                let i = pick % views.len();
                views[i].release(&mut pool);
                views.remove(i);
            }
            5 => {
                // Growth appends free blocks under whatever is live; the
                // invariant below and the final drain see the new total.
                let extra = 1 + count % 3;
                let (total, free) = (pool.total_blocks(), pool.free_blocks());
                pool.grow(extra);
                assert_eq!(
                    (pool.total_blocks(), pool.free_blocks()),
                    (total + extra, free + extra)
                );
            }
            _ => {}
        }
        assert_pool_invariant(&pool, &views);
    }
    // Exhaustion is expected on a tiny pool; the point is the invariant
    // held at the moment it surfaced.
    let _ = exhausted;
    for v in &mut views {
        v.release(&mut pool);
    }
    prop_assert_eq!(
        pool.free_blocks(),
        pool.total_blocks(),
        "survivor release must drain to empty"
    );
    prop_assert_eq!(pool.shared_blocks(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Randomized alloc / push / fork / truncate / release / grow churn
    /// with organic `PoolExhausted` on an undersized pool: the allocator
    /// invariant holds after every single operation and the pool drains
    /// to empty at the end.
    #[test]
    fn pool_invariant_under_churn_with_truncate(
        ops in proptest::collection::vec((0usize..6, 0usize..8, 1usize..20), 80),
        blocks in 6usize..16,
    ) {
        churn(&ops, blocks)?;
    }
}

/// The same churn under a seeded fault plan forcing `PoolExhausted` from
/// `pool.alloc` at plan-chosen pushes — errors now surface at points the
/// organic path would have succeeded, and the invariant must still hold
/// at every step. The plan is installed only for this test's duration.
#[cfg(feature = "fault-inject")]
#[test]
fn pool_invariant_with_injected_exhaustion() {
    use mant_trace::fault::{self, site, FaultPlan, SiteRule};

    for seed in [7u64, 21, 1234] {
        fault::install(
            FaultPlan::new().with_site(site::POOL_ALLOC, SiteRule::every(3).with_limit(u64::MAX)),
        );
        // A deterministic op tape (seed-mixed) so each seed exercises a
        // different interleaving of injected failures and churn.
        let ops: Vec<(usize, usize, usize)> = (0..120)
            .map(|i| {
                let x = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xbf58476d1ce4e5b9);
                (
                    (x % 6) as usize,
                    ((x >> 8) % 8) as usize,
                    1 + ((x >> 16) % 19) as usize,
                )
            })
            .collect();
        let result = churn(&ops, 12);
        let injected = fault::fires(site::POOL_ALLOC);
        fault::clear();
        result.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            injected > 0,
            "seed {seed}: the plan never fired — the churn tape pushed nothing"
        );
    }
}
