//! Cancellation and expiry landing *between speculative rounds* must
//! unwind both runners: the target session and its lockstep draft
//! session release every block they hold on their respective pools, and
//! the surviving sequences keep producing byte-identical output.

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

fn spec_pair(seed: u64) -> (TransformerModel, TransformerModel) {
    synthesize_speculative_pair(
        &ModelConfig::sim_llama(),
        seed,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    )
}

fn spec_engine<'m>(
    target: &'m TransformerModel,
    packed: &'m mant_model::PackedWeights,
    draft: &'m TransformerModel,
    draft_packed: &'m mant_model::PackedWeights,
) -> ServeEngine<'m> {
    ServeEngine::new_with_draft(
        target,
        packed,
        draft,
        draft_packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 64,
            block_tokens: 16,
            act: ActMode::None,
            kv: KvMode::Int4 { group: 16 },
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: false,
            speculative: Some(SpeculativeConfig { draft_k: 4 }),
        },
    )
}

/// Cancels one sequence after speculative rounds have begun: both pools
/// get its blocks back immediately, the survivors finish with streams
/// byte-identical to the sequential baseline, and draining the engine
/// returns *both* pools to their all-free baseline.
#[test]
fn cancel_mid_speculation_unwinds_both_runners() {
    let (target, draft) = spec_pair(71);
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let requests = [req(0, 8, 40), req(1, 6, 40), req(2, 10, 40)];

    let mut engine = spec_engine(&target, &packed, &draft, &draft_packed);
    let target_total = engine.free_blocks();
    let draft_total = engine.draft_free_blocks().expect("draft pool exists");
    for r in &requests {
        engine.submit(r.clone());
    }
    // Past prefill (one tick: every prompt fits one run) and into
    // draft-and-verify territory for everyone.
    for _ in 0..4 {
        engine.tick();
    }
    let spec_rounds = engine.report(0.0).speculation.expect("spec engine").rounds;
    assert!(spec_rounds > 0, "sequences must be mid-speculation");
    assert_eq!(engine.running(), 3);

    let free_before = engine.free_blocks();
    let draft_free_before = engine.draft_free_blocks().unwrap();
    assert!(engine.cancel(0), "request 0 is running");
    assert!(
        engine.free_blocks() > free_before,
        "cancel must release target-pool blocks at once"
    );
    assert!(
        engine.draft_free_blocks().unwrap() > draft_free_before,
        "cancel must release the lockstep draft session's blocks too"
    );

    let report = engine.run_to_completion();
    let (baseline, _) = sequential_generate(
        &target,
        &packed,
        ActMode::None,
        KvMode::Int4 { group: 16 },
        &requests,
    );
    assert_eq!(report.completions.len(), 2, "survivors only");
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "cancellation mid-round perturbed survivor {}",
            c.id
        );
    }
    assert_eq!(report.cancelled_requests, 1);
    // Refcounts back to baseline on both pools: nothing leaked across
    // the speculative fork/rollback machinery.
    assert_eq!(engine.free_blocks(), target_total);
    assert_eq!(engine.draft_free_blocks().unwrap(), draft_total);
}

/// Same discipline for deadline expiry mid-speculation, exercising the
/// `expire_due` removal path instead of the caller-cancel path.
#[test]
fn expire_mid_speculation_unwinds_both_runners() {
    let (target, draft) = spec_pair(72);
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    // Request 1's engine-clock deadline lands after prefill (one tick)
    // but before its 40-token output can finish (a round emits at most
    // five tokens) — it dies mid-speculation.
    let mut requests = [req(0, 8, 20), req(1, 6, 40)];
    requests[1].deadline_iter = Some(6);

    let mut engine = spec_engine(&target, &packed, &draft, &draft_packed);
    let target_total = engine.free_blocks();
    let draft_total = engine.draft_free_blocks().unwrap();
    for r in &requests {
        engine.submit(r.clone());
    }
    for _ in 0..4 {
        engine.tick();
    }
    assert!(
        engine.report(0.0).speculation.expect("spec engine").rounds > 0,
        "sequences must be mid-speculation before the deadline hits"
    );

    let report = engine.run_to_completion();
    assert_eq!(report.expired_requests, 1);
    assert_eq!(report.completions.len(), 1);
    let (baseline, _) = sequential_generate(
        &target,
        &packed,
        ActMode::None,
        KvMode::Int4 { group: 16 },
        &requests,
    );
    assert_eq!(
        report.completions[0].tokens, baseline[0],
        "expiry mid-round perturbed the survivor"
    );
    assert_eq!(engine.free_blocks(), target_total);
    assert_eq!(engine.draft_free_blocks().unwrap(), draft_total);
}
