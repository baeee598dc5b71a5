//! Chaos soak: replay a Poisson-arrival trace through the speculative
//! serving engine under a *seeded* fault plan covering every engine-side
//! injection site — forced `PoolExhausted`, induced step/speculation
//! panics, corrupted draft candidates, engine-clock skew — and hold the
//! stack to the failure-domain contract:
//!
//! * the engine drains (no hang, no dead run loop),
//! * every request ends exactly one way (completed, poisoned, expired),
//! * every **survivor's** token stream is byte-identical to the
//!   fault-free sequential baseline,
//! * both pools return to all-free at drain (the allocator invariant),
//! * report counters agree with the emitted events.
//!
//! Only compiled with `--features fault-inject`; the whole binary is
//! empty otherwise.
#![cfg(feature = "fault-inject")]

use std::collections::BTreeSet;
use std::sync::Mutex;

use mant_model::{synthesize_speculative_pair, ActMode, DraftConfig, KvMode, ModelConfig};
use mant_serve::{
    requests_from_trace, sequential_generate, AdmissionPolicy, EngineEvent, GenRequest,
    ServeConfig, ServeEngine, ServeReport, SpeculativeConfig,
};
use mant_sim::{poisson_trace, LengthDist, TraceConfig};
use mant_trace::fault::{self, site, FaultPlan, SiteRule};

/// The global fault plan is process-wide; tests in this binary must not
/// overlap.
static LOCK: Mutex<()> = Mutex::new(());

const ENGINE_SITES: [&str; 5] = [
    site::POOL_ALLOC,
    site::BATCH_STEP,
    site::SPEC_STEP,
    site::SPEC_DRAFT_CORRUPT,
    site::ENGINE_CLOCK_SKEW,
];

const VOCAB: usize = 512;
const TICK_CAP: usize = 10_000;

fn chaos_requests(seed: u64) -> Vec<GenRequest> {
    let trace = poisson_trace(&TraceConfig {
        requests: 8,
        arrivals_per_iter: 0.5,
        prompt: LengthDist::Uniform { lo: 3, hi: 10 },
        output: LengthDist::Uniform { lo: 3, hi: 8 },
        seed: seed ^ 0x5e2,
    });
    let mut requests = requests_from_trace(&trace, VOCAB, seed ^ 0x7a11);
    // Engine-clock deadlines with generous slack on a third of the
    // requests: inert in the fault-free run, but live targets for the
    // clock-skew site (which can only pull expiry *earlier*).
    for r in requests.iter_mut().skip(1).step_by(3) {
        r.deadline_iter = Some(r.arrival_iter + 40 + 4 * r.max_new_tokens as u64);
    }
    requests
}

/// Everything one soak pass observed. Assertions live in the caller so
/// they run *after* the silenced panic hook is restored.
struct Soak {
    report: ServeReport,
    events: Vec<EngineEvent>,
    ticks: usize,
    target_free: usize,
    target_total: usize,
    draft_free: usize,
    draft_total: usize,
}

fn run_soak(
    target: &mant_model::TransformerModel,
    packed: &mant_model::PackedWeights,
    draft: &mant_model::TransformerModel,
    draft_packed: &mant_model::PackedWeights,
    requests: &[GenRequest],
) -> Soak {
    let mut engine = ServeEngine::new_with_draft(
        target,
        packed,
        draft,
        draft_packed,
        ServeConfig {
            max_batch: 4,
            pool_blocks: 48,
            block_tokens: 16,
            act: ActMode::None,
            kv: KvMode::Int4 { group: 16 },
            // The only admission policy. A panicked step rolls the whole
            // batch back to the queue; the third in a row quarantines the
            // batch instead.
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: false,
            speculative: Some(SpeculativeConfig { draft_k: 4 }),
        },
    );
    engine.enable_events();
    let target_total = engine.free_blocks();
    let draft_total = engine.draft_free_blocks().expect("draft pool exists");
    for r in requests {
        engine.submit(r.clone());
    }
    let mut events = Vec::new();
    let mut ticks = 0usize;
    while engine.pending() > 0 && ticks < TICK_CAP {
        engine.tick();
        events.extend(engine.drain_events());
        ticks += 1;
    }
    Soak {
        report: engine.report(0.0),
        events,
        ticks,
        target_free: engine.free_blocks(),
        target_total,
        draft_free: engine.draft_free_blocks().unwrap(),
        draft_total,
    }
}

/// Three seeds, each a different deterministic interleaving of faults
/// over the same trace shape. The ISSUE's acceptance bar.
#[test]
fn chaos_soak_survivors_byte_identical_across_seeds() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (target, draft) = synthesize_speculative_pair(
        &ModelConfig::sim_llama(),
        91,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();

    for seed in [7u64, 21, 1234] {
        let requests = chaos_requests(seed);
        let (baseline, _) = sequential_generate(
            &target,
            &packed,
            ActMode::None,
            KvMode::Int4 { group: 16 },
            &requests,
        );

        // Fault-free control: the trace itself must be fully servable.
        fault::clear();
        let clean = run_soak(&target, &packed, &draft, &draft_packed, &requests);
        assert!(clean.ticks < TICK_CAP, "seed {seed}: clean run hung");
        assert_eq!(
            clean.report.completions.len(),
            requests.len(),
            "seed {seed}: the fault-free run must complete every request"
        );

        // Chaos run under the seeded plan. Injected panics are caught
        // inside tick(); silence the default hook so the log isn't a
        // wall of expected backtraces.
        fault::install(FaultPlan::seeded(seed, &ENGINE_SITES));
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let soak = run_soak(&target, &packed, &draft, &draft_packed, &requests);
        drop(std::panic::take_hook());
        std::panic::set_hook(prev_hook);
        let fired: u64 = ENGINE_SITES.iter().map(|s| fault::fires(s)).sum();
        fault::clear();

        // The run loop itself survived every injection.
        assert!(soak.ticks < TICK_CAP, "seed {seed}: chaos run hung");
        assert!(fired > 0, "seed {seed}: the seeded plan never fired");

        // Every request ends exactly one way.
        let mut poisoned_events = 0usize;
        let mut killed = BTreeSet::new();
        for e in &soak.events {
            match e {
                EngineEvent::Poisoned { id } => {
                    poisoned_events += 1;
                    assert!(killed.insert(*id), "seed {seed}: id {id} killed twice");
                }
                EngineEvent::Expired { id } => {
                    assert!(killed.insert(*id), "seed {seed}: id {id} killed twice");
                }
                _ => {}
            }
        }
        let survivors: BTreeSet<u64> = soak.report.completions.iter().map(|c| c.id).collect();
        assert_eq!(
            survivors.len(),
            soak.report.completions.len(),
            "seed {seed}: duplicate completions"
        );
        assert!(
            survivors.is_disjoint(&killed),
            "seed {seed}: a request both completed and was killed"
        );
        assert_eq!(
            survivors.len() + killed.len(),
            requests.len(),
            "seed {seed}: a request vanished without completing, poisoning, or expiring \
             (survivors {survivors:?}, killed {killed:?}, poisoned={} expired={} rollbacks={})",
            soak.report.poisoned_requests,
            soak.report.expired_requests,
            soak.report.step_rollbacks,
        );

        // Survivors are byte-identical to the fault-free baseline: every
        // rollback recomputed exactly, every corrupted draft was caught
        // by verification, every quarantine left the rest untouched.
        for c in &soak.report.completions {
            assert_eq!(
                c.tokens, baseline[c.id as usize],
                "seed {seed}: survivor {} diverged from the fault-free run",
                c.id
            );
        }

        // Counters agree with events; the allocator invariant holds at
        // drain on both pools.
        assert_eq!(
            soak.report.poisoned_requests, poisoned_events,
            "seed {seed}: report/event poison mismatch"
        );
        assert_eq!(
            soak.target_free, soak.target_total,
            "seed {seed}: target pool leaked blocks"
        );
        assert_eq!(
            soak.draft_free, soak.draft_total,
            "seed {seed}: draft pool leaked blocks"
        );
    }
}

/// Corrupted draft candidates alone are *benign*: verification rejects
/// them, so nothing is poisoned, every request completes, and every
/// stream is still byte-identical — speculation only loses speed.
#[test]
fn corrupted_drafts_never_change_emitted_tokens() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (target, draft) = synthesize_speculative_pair(
        &ModelConfig::sim_llama(),
        92,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let requests = chaos_requests(5);
    let (baseline, _) = sequential_generate(
        &target,
        &packed,
        ActMode::None,
        KvMode::Int4 { group: 16 },
        &requests,
    );

    fault::install(FaultPlan::new().with_site(
        site::SPEC_DRAFT_CORRUPT,
        SiteRule::every(2).with_limit(u64::MAX).with_payload(3),
    ));
    let soak = run_soak(&target, &packed, &draft, &draft_packed, &requests);
    let fired = fault::fires(site::SPEC_DRAFT_CORRUPT);
    fault::clear();

    assert!(fired > 0, "corruption site never fired");
    assert!(soak.ticks < TICK_CAP);
    assert_eq!(
        soak.report.poisoned_requests, 0,
        "corruption must be benign"
    );
    assert_eq!(soak.report.completions.len(), requests.len());
    for c in &soak.report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "corrupted draft changed survivor {}'s stream",
            c.id
        );
    }
    assert_eq!(soak.target_free, soak.target_total);
    assert_eq!(soak.draft_free, soak.draft_total);
}
