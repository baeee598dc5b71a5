//! The graceful-degradation ladder: under sustained pool pressure the
//! engine sheds capability one rung at a time (halve draft_k → disable
//! speculation → halve batch → shed), and walks back down with hysteresis
//! once pressure clears — all without changing a single output byte.

use mant_model::{
    synthesize_speculative_pair, ActMode, DraftConfig, KvMode, ModelConfig, TransformerModel,
};
use mant_serve::{
    sequential_generate, AdmissionPolicy, GenRequest, ServeConfig, ServeEngine, SpeculativeConfig,
};

fn req(id: u64, prompt_len: usize, max_new: usize) -> GenRequest {
    GenRequest {
        id,
        prompt: (0..prompt_len)
            .map(|t| ((id as usize) * 131 + t * 29 + 1) % 512)
            .collect(),
        max_new_tokens: max_new,
        arrival_iter: 0,
        deadline_iter: None,
    }
}

/// A pressure burst (many long requests on a deliberately small pool)
/// must climb the ladder — engaged counters land in the report and the
/// rung gauge moves — and a drained engine must release every rung back
/// to full service. Throughout, outputs stay byte-identical to the
/// sequential baseline: degradation changes scheduling, never results.
#[test]
fn ladder_engages_under_pressure_and_releases_after() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 53);
    let packed = model.pack_weights(64).unwrap();
    // 20 blocks × 16 tokens against 6 requests that each want ~44 tokens
    // of KV: perpetual watermark pressure, constant preemption.
    let requests: Vec<GenRequest> = (0..6).map(|id| req(id, 12, 32)).collect();
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 4,
            pool_blocks: 20,
            block_tokens: 16,
            act: ActMode::None,
            kv: KvMode::Int4 { group: 16 },
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 2,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let mut peak_rung = 0u8;
    while engine.pending() > 0 {
        engine.tick();
        peak_rung = peak_rung.max(engine.degradation_rung());
    }
    let report = engine.report(0.0);
    assert!(report.preemptions > 0, "the pool must actually be squeezed");
    assert!(
        peak_rung >= 3,
        "sustained pressure should climb at least to the batch-halving rung, got {peak_rung}"
    );
    assert!(report.degradation.ever_engaged());
    assert!(
        report.degradation.engaged.iter().sum::<u64>() >= u64::from(peak_rung),
        "each rung climbed must be counted"
    );

    // Pressure is gone; idle ticks walk the ladder back down (6-tick
    // hysteresis per rung, so give it room).
    for _ in 0..40 {
        engine.tick();
    }
    assert_eq!(
        engine.degradation_rung(),
        0,
        "a drained engine must return to full service"
    );
    let report = engine.report(0.0);
    assert_eq!(report.degradation.rung, 0);
    assert_eq!(
        report.degradation.engaged.iter().sum::<u64>(),
        report.degradation.released.iter().sum::<u64>(),
        "every engage must eventually release"
    );

    // Degradation never changed what was computed.
    let (baseline, _) = sequential_generate(
        &model,
        &packed,
        ActMode::None,
        KvMode::Int4 { group: 16 },
        &requests,
    );
    assert_eq!(report.completions.len(), requests.len());
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "ladder perturbed request {}'s tokens",
            c.id
        );
    }
}

/// A tick plans with the rung it budgeted with. The pressure valve runs
/// before the ladder's verdict, so a release inside a tick used to plan
/// longer rounds than the valve had made room for: here two sequences sit
/// one row short of a block boundary at rung 2 (no speculation: a one-row
/// step each, no new block), five relaxed ticks into the six a release
/// takes. The sixth tick releases to rung 1 — rounds of two rows, a new
/// block per layer per sequence, four blocks where three are free — and a
/// plan made at the new rung would exhaust the pool inside the step.
#[test]
fn ladder_release_does_not_outrun_the_ticks_block_budget() {
    let cfg = ModelConfig::sim_llama();
    let draft_cfg = DraftConfig {
        layers: 1,
        tail_block_ratio: 0.02,
    };
    let (target, draft) = synthesize_speculative_pair(&cfg, 97, &draft_cfg);
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let (act, kv) = (ActMode::None, KvMode::Int4 { group: 16 });
    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 2,
            pool_blocks: 7,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: Some(SpeculativeConfig { draft_k: 4 }),
        },
    );
    // Climb to rung 2: one sequence holding six of the seven blocks (three
    // a layer) keeps the free list under the engage threshold.
    engine.submit(req(9, 33, 15));
    for _ in 0..40 {
        if engine.degradation_rung() == 2 {
            break;
        }
        engine.tick();
    }
    assert_eq!(engine.degradation_rung(), 2, "pressure must reach rung 2");
    assert!(engine.cancel(9));
    // Five relaxed ticks: one idle, one that prefills both 12-token
    // prompts (nothing decodes, so each is one run), three plain decode
    // steps that bring both sequences to row 15 of their first block.
    engine.tick();
    let generated_before = engine.report(0.0).generated_tokens;
    let requests = [req(0, 12, 12), req(1, 12, 12)];
    for r in &requests {
        engine.submit(r.clone());
    }
    for _ in 0..4 {
        engine.tick();
    }
    assert_eq!((engine.degradation_rung(), engine.running()), (2, 2));
    assert_eq!(engine.free_blocks(), 3, "two blocks a sequence are held");
    assert_eq!(
        engine.report(0.0).generated_tokens - generated_before,
        8,
        "each has cached its prompt and three of its four tokens: 15 rows"
    );
    // The releasing tick.
    engine.tick();
    assert_eq!(engine.degradation_rung(), 1, "six relaxed ticks release");
    let report = engine.run_to_completion();
    assert_eq!(report.step_rollbacks + report.poisoned_requests, 0);
    assert!(report.speculation.expect("spec engine").rounds > 0);
    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &requests);
    assert_eq!(report.completions.len(), 2);
    for c in &report.completions {
        assert_eq!(c.tokens, baseline[c.id as usize]);
    }
}
