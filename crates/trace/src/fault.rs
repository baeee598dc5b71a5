//! Seeded, deterministic fault injection for the serving stack.
//!
//! This module only exists when the `fault-inject` feature is enabled; a
//! default build carries **zero** fault symbols (CI asserts this by
//! inspecting the compiled rlib). Every injection site in the workspace
//! is likewise wrapped in `#[cfg(feature = "fault-inject")]`, so the
//! production hot paths pay nothing — not even a branch — for the
//! existence of this machinery.
//!
//! # Model
//!
//! A [`FaultPlan`] maps **named injection sites** (the constants in
//! [`site`]) to a [`SiteRule`] deciding *which* hits of that site fire:
//! skip the first `after` hits, then fire every `every`-th eligible hit,
//! at most `limit` times, optionally carrying a `payload` magnitude
//! (milliseconds of clock skew, iterations of stall, ...). Hit and fire
//! counts are per-site atomics, so a plan behaves identically across
//! runs of the same deterministic workload — which is what lets the
//! chaos soak compare a faulted run against a fault-free replay
//! byte-for-byte.
//!
//! One plan is installed process-wide ([`install`]) and removed with
//! [`clear`]. Tests that install plans must serialize against each other
//! (the chaos suites hold a module-local mutex); with no plan installed
//! every site is inert.
//!
//! ```
//! use mant_trace::fault::{self, site, FaultPlan, SiteRule};
//!
//! fault::install(FaultPlan::new().with_site(site::POOL_ALLOC, SiteRule::nth(3)));
//! assert!(!fault::fire(site::POOL_ALLOC)); // hit 1
//! assert!(!fault::fire(site::POOL_ALLOC)); // hit 2
//! assert!(fault::fire(site::POOL_ALLOC)); // hit 3 fires
//! assert_eq!(fault::fires(site::POOL_ALLOC), 1);
//! fault::clear();
//! assert!(!fault::fire(site::POOL_ALLOC)); // inert without a plan
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Canonical injection-site names, one per seam the plan can break.
/// Keeping them here (rather than ad-hoc strings at call sites) makes the
/// failure-domain matrix in `DESIGN.md` greppable against the code.
pub mod site {
    /// `PagedKvCache::push` reports a forced `PoolExhausted` before
    /// touching the pool.
    pub const POOL_ALLOC: &str = "pool.alloc";
    /// `BatchRunner::step_runs` panics at entry (before any KV mutation).
    pub const BATCH_STEP: &str = "batch.step";
    /// The serving engine's draft phase panics at entry, in a tick that
    /// holds a speculative verify run (before either runner is stepped).
    pub const SPEC_STEP: &str = "batch.spec_step";
    /// A drafted candidate token is corrupted right after the draft
    /// argmax (payload offsets the token id); the verify run must reject
    /// it.
    pub const SPEC_DRAFT_CORRUPT: &str = "batch.spec_draft_corrupt";
    /// The engine's deadline sweep sees its iteration clock skewed
    /// forward by `payload` iterations (early expiry).
    pub const ENGINE_CLOCK_SKEW: &str = "engine.clock_skew";
    /// The gateway ticker stalls for `payload` milliseconds (simulated
    /// hung engine thread; the watchdog must catch it).
    pub const TICKER_STALL: &str = "gateway.ticker_stall";
    /// A worker's submission hand-off transiently fails as if the
    /// bounded queue were full (the jittered retry must absorb it).
    pub const SUBMIT_TRANSIENT: &str = "gateway.submit_transient";
    /// Connection reads return at most one byte (short read).
    pub const GW_READ_SHORT: &str = "gateway.read_short";
    /// Connection reads fail with `WouldBlock` (timeout storm).
    pub const GW_READ_WOULDBLOCK: &str = "gateway.read_wouldblock";
    /// Connection writes accept at most one byte (short write).
    pub const GW_WRITE_SHORT: &str = "gateway.write_short";
    /// The connection drops mid-stream (`ConnectionReset` on write).
    pub const GW_DISCONNECT: &str = "gateway.disconnect";
}

/// Every site name, for seeding a whole-stack plan in one call.
pub const ALL_SITES: [&str; 11] = [
    site::POOL_ALLOC,
    site::BATCH_STEP,
    site::SPEC_STEP,
    site::SPEC_DRAFT_CORRUPT,
    site::ENGINE_CLOCK_SKEW,
    site::TICKER_STALL,
    site::SUBMIT_TRANSIENT,
    site::GW_READ_SHORT,
    site::GW_READ_WOULDBLOCK,
    site::GW_WRITE_SHORT,
    site::GW_DISCONNECT,
];

/// When a site's hits fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteRule {
    /// Hits to let pass before the site becomes eligible.
    pub after: u64,
    /// Of the eligible hits, fire every `every`-th (`1` = every one).
    pub every: u64,
    /// Stop firing after this many fires (`u64::MAX` = unbounded).
    pub limit: u64,
    /// Site-specific magnitude (skew iterations, stall ms, token offset).
    pub payload: u64,
}

impl SiteRule {
    /// Fires exactly once, on the `n`-th hit (`n >= 1`).
    pub fn nth(n: u64) -> SiteRule {
        SiteRule {
            after: n.saturating_sub(1),
            every: 1,
            limit: 1,
            payload: 0,
        }
    }

    /// Fires on every `n`-th hit, forever.
    pub fn every(n: u64) -> SiteRule {
        SiteRule {
            after: 0,
            every: n.max(1),
            limit: u64::MAX,
            payload: 0,
        }
    }

    /// Same rule with a payload attached.
    pub fn with_payload(mut self, payload: u64) -> SiteRule {
        self.payload = payload;
        self
    }

    /// Same rule firing at most `limit` times.
    pub fn with_limit(mut self, limit: u64) -> SiteRule {
        self.limit = limit;
        self
    }
}

/// Per-site live state: the rule plus its deterministic counters.
#[derive(Debug)]
struct SiteState {
    rule: SiteRule,
    hits: AtomicU64,
    fires: AtomicU64,
}

/// A set of armed injection sites. Install process-wide with [`install`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    sites: HashMap<String, SiteState>,
}

/// splitmix64: tiny, seedable, and good enough to scatter rule
/// parameters — kept local so this crate stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no armed sites).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arms `site` with `rule` (replacing any previous rule for it).
    pub fn with_site(mut self, site: &str, rule: SiteRule) -> FaultPlan {
        self.sites.insert(
            site.to_owned(),
            SiteState {
                rule,
                hits: AtomicU64::new(0),
                fires: AtomicU64::new(0),
            },
        );
        self
    }

    /// Derives a randomized-but-reproducible rule for each named site:
    /// the same `(seed, sites)` always arms the same plan, so a chaos run
    /// can be replayed exactly from its seed alone. Rules skip a small
    /// random prefix of hits, fire sparsely, and cap total fires so a
    /// soak degrades the run without extinguishing it.
    pub fn seeded(seed: u64, sites: &[&str]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for (i, s) in sites.iter().enumerate() {
            let mut state = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 + 1);
            let after = splitmix64(&mut state) % 24;
            let every = 2 + splitmix64(&mut state) % 7;
            let limit = 1 + splitmix64(&mut state) % 3;
            let payload = 1 + splitmix64(&mut state) % 8;
            plan = plan.with_site(
                s,
                SiteRule {
                    after,
                    every,
                    limit,
                    payload,
                },
            );
        }
        plan
    }

    /// Whether a hit on `site` fires now, advancing the site's counters.
    fn check(&self, site: &str) -> Option<u64> {
        let state = self.sites.get(site)?;
        let hit = state.hits.fetch_add(1, Ordering::SeqCst) + 1;
        if hit <= state.rule.after {
            return None;
        }
        if (hit - state.rule.after) % state.rule.every != 0 {
            return None;
        }
        // Claim a fire slot; back out if the limit is already spent.
        let fired = state.fires.fetch_add(1, Ordering::SeqCst);
        if fired >= state.rule.limit {
            state.fires.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(state.rule.payload)
    }
}

/// The process-wide installed plan (None = every site inert).
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

fn plan() -> Option<Arc<FaultPlan>> {
    PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Installs `plan` process-wide, replacing any previous plan (and its
/// counters).
pub fn install(new_plan: FaultPlan) {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(new_plan));
}

/// Removes the installed plan; every site becomes inert.
pub fn clear() {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Whether any plan is installed.
pub fn active() -> bool {
    plan().is_some()
}

/// Records a hit on `site`; `true` when the installed plan says this hit
/// fires. Inert (and does not count hits) without a plan.
pub fn fire(site: &str) -> bool {
    payload(site).is_some()
}

/// Like [`fire`], but hands back the rule's payload when firing.
pub fn payload(site: &str) -> Option<u64> {
    let p = plan()?.check(site)?;
    crate::counter("fault.injected", 1);
    Some(p)
}

/// How many times `site` has fired under the current plan (0 without
/// one) — lets tests assert a fault actually landed.
pub fn fires(site: &str) -> u64 {
    plan().map_or(0, |p| {
        p.sites
            .get(site)
            .map_or(0, |s| s.fires.load(Ordering::SeqCst))
    })
}

/// How many times `site` has been hit under the current plan.
pub fn hits(site: &str) -> u64 {
    plan().map_or(0, |p| {
        p.sites
            .get(site)
            .map_or(0, |s| s.hits.load(Ordering::SeqCst))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The plan is process-global; these tests must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn rule_after_every_limit_semantics() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::new().with_site(
            "t.site",
            SiteRule {
                after: 2,
                every: 3,
                limit: 2,
                payload: 7,
            },
        ));
        // Hits 1..=2 skipped; eligible hits 3,4,5,... fire every 3rd
        // eligible => hits 5, 8 fire (limit 2 stops hit 11).
        let fired: Vec<u64> = (1..=12).filter(|_| fire("t.site")).collect();
        assert_eq!(fired.len(), 2);
        assert_eq!(fires("t.site"), 2);
        assert_eq!(hits("t.site"), 12);
        clear();
    }

    #[test]
    fn unarmed_sites_and_cleared_plans_are_inert() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        assert!(!active());
        assert!(!fire(site::POOL_ALLOC));
        install(FaultPlan::new().with_site(site::BATCH_STEP, SiteRule::nth(1)));
        assert!(!fire(site::POOL_ALLOC), "unarmed site must stay inert");
        assert!(fire(site::BATCH_STEP));
        clear();
        assert!(!fire(site::BATCH_STEP));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = FaultPlan::seeded(42, &ALL_SITES);
        let b = FaultPlan::seeded(42, &ALL_SITES);
        let c = FaultPlan::seeded(43, &ALL_SITES);
        let rules = |p: &FaultPlan| {
            let mut v: Vec<(String, SiteRule)> =
                p.sites.iter().map(|(k, s)| (k.clone(), s.rule)).collect();
            v.sort_by(|x, y| x.0.cmp(&y.0));
            v
        };
        assert_eq!(rules(&a), rules(&b));
        assert_ne!(rules(&a), rules(&c));
        clear();
    }

    #[test]
    fn payload_round_trips() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(FaultPlan::new().with_site("t.pay", SiteRule::nth(1).with_payload(99)));
        assert_eq!(payload("t.pay"), Some(99));
        assert_eq!(payload("t.pay"), None, "limit 1 spent");
        clear();
    }
}
