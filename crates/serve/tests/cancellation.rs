//! Cancellation, deadlines, and typed submission rejection: the serving
//! engine must be able to stop paying for work nobody will read — blocks
//! return to the refcounted free list immediately, expired queued
//! requests are never ticked, and degenerate requests are refused with a
//! reason instead of admitted (or panicked on).

use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
use mant_serve::{
    sequential_generate, AdmissionPolicy, EngineEvent, GenRequest, ServeConfig, ServeEngine,
    SubmitError,
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

fn engine_cfg(prefix_sharing: bool, pool_blocks: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        pool_blocks,
        block_tokens: 16,
        act: ActMode::None,
        kv: KvMode::Int4 { group: 16 },
        admission: AdmissionPolicy::Watermark {
            watermark_blocks: 2,
        },
        prefix_sharing,
        speculative: None,
    }
}

/// Cancelling a running sequence frees its pool blocks immediately and
/// leaves the survivors' outputs byte-identical to the baseline.
#[test]
fn cancel_running_returns_blocks_to_free_list() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 41);
    let packed = model.pack_weights(64).unwrap();
    let requests = [req(0, 20, 30), req(1, 8, 6)];
    let mut engine = ServeEngine::new(&model, &packed, engine_cfg(false, 64));
    for r in &requests {
        engine.submit(r.clone());
    }
    // Run both sequences past prefill (request 0's 20-token prompt is two
    // block-bounded runs) but short of request 1's finish, so request 0
    // holds several blocks.
    for _ in 0..4 {
        engine.tick();
    }
    assert_eq!(engine.running(), 2);
    let free_before = engine.free_blocks();
    assert!(engine.cancel(0), "request 0 is running");
    assert!(
        engine.free_blocks() > free_before,
        "cancellation must return the sequence's blocks immediately \
         ({free_before} free before, {} after)",
        engine.free_blocks()
    );
    assert!(!engine.cancel(0), "already cancelled");

    let report = engine.run_to_completion();
    assert_eq!(report.cancelled_requests, 1);
    assert_eq!(report.completions.len(), 1);
    assert_eq!(report.completions[0].id, 1);
    let (baseline, _) = sequential_generate(
        &model,
        &packed,
        ActMode::None,
        KvMode::Int4 { group: 16 },
        &requests[1..],
    );
    assert_eq!(report.completions[0].tokens, baseline[0]);
    assert_eq!(
        engine.free_blocks(),
        64,
        "all blocks return once every session ends"
    );
}

/// Under prefix sharing, cancelling one of two requests on a shared
/// prefix frees only the cancelled request's references: the survivor
/// keeps the shared blocks and still matches the baseline.
#[test]
fn cancel_is_refcount_correct_under_prefix_sharing() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 43);
    let packed = model.pack_weights(64).unwrap();
    // Identical 32-token prefix (two 16-token blocks), distinct tails.
    let shared: Vec<usize> = (0..32).map(|t| (t * 37 + 5) % cfg.vocab).collect();
    let mk = |id: u64, tail_seed: usize| GenRequest {
        id,
        prompt: shared
            .iter()
            .copied()
            .chain((0..4).map(|t| (tail_seed * 91 + t * 13) % cfg.vocab))
            .collect(),
        max_new_tokens: 12,
        arrival_iter: 0,
        deadline_iter: None,
    };
    let requests = [mk(0, 1), mk(1, 2)];
    let mut engine = ServeEngine::new(&model, &packed, engine_cfg(true, 64));
    for r in &requests {
        engine.submit(r.clone());
    }
    // Three block-bounded prefill runs each, then a few decode ticks.
    for _ in 0..8 {
        engine.tick();
    }
    assert_eq!(engine.running(), 2);
    let used_before = engine.used_blocks();
    assert!(engine.cancel(0));
    let used_after = engine.used_blocks();
    assert!(
        used_after < used_before,
        "the cancelled request's private blocks must free ({used_before} -> {used_after})"
    );
    assert!(
        used_after > 0,
        "the survivor (and shared prefix snapshots) must keep their blocks"
    );
    let report = engine.run_to_completion();
    assert_eq!(report.cancelled_requests, 1);
    assert_eq!(report.completions.len(), 1);
    let (baseline, _) = sequential_generate(
        &model,
        &packed,
        ActMode::None,
        KvMode::Int4 { group: 16 },
        &requests[1..],
    );
    assert_eq!(
        report.completions[0].tokens, baseline[0],
        "cancelling a prefix sibling must not perturb the survivor"
    );
}

/// A queued request whose engine-clock deadline passes is cancelled
/// without ever being ticked: no prompt token of it is ever stepped.
#[test]
fn expired_queued_request_is_cancelled_not_ticked() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 44);
    let packed = model.pack_weights(64).unwrap();
    let front = req(0, 6, 40); // occupies the single lane for ~46 iters
    let doomed = GenRequest {
        deadline_iter: Some(10),
        ..req(1, 9, 4)
    };
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 1,
            ..engine_cfg(false, 64)
        },
    );
    engine.submit(front.clone());
    engine.submit(doomed);
    let report = engine.run_to_completion();
    assert_eq!(report.expired_requests, 1);
    assert_eq!(report.completions.len(), 1);
    assert_eq!(report.completions[0].id, 0);
    assert_eq!(
        report.prompt_tokens,
        front.prompt.len(),
        "the expired request's prompt must never be fed to the model"
    );
}

/// A running sequence whose deadline passes mid-generation releases its
/// lane and blocks; the remaining requests finish normally.
#[test]
fn deadline_expires_running_sequence_and_frees_its_blocks() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 45);
    let packed = model.pack_weights(64).unwrap();
    let doomed = GenRequest {
        deadline_iter: Some(12),
        ..req(0, 8, 64)
    };
    let survivor = req(1, 8, 10);
    let mut engine = ServeEngine::new(&model, &packed, engine_cfg(false, 64));
    engine.submit(doomed);
    engine.submit(survivor);
    let report = engine.run_to_completion();
    assert_eq!(report.expired_requests, 1);
    assert_eq!(report.completions.len(), 1);
    assert_eq!(report.completions[0].id, 1);
    assert_eq!(report.completions[0].tokens.len(), 10);
    assert_eq!(
        engine.free_blocks(),
        64,
        "expired sequence freed its blocks"
    );
}

/// Submission rejects degenerate work with typed reasons instead of
/// panicking — the gateway turns these into HTTP error replies.
#[test]
fn try_submit_reports_typed_rejections() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 46);
    let packed = model.pack_weights(64).unwrap();
    let mut engine = ServeEngine::new(&model, &packed, engine_cfg(false, 8));

    let empty = GenRequest {
        prompt: Vec::new(),
        ..req(0, 1, 1)
    };
    assert_eq!(
        engine.try_submit(empty),
        Err(SubmitError::EmptyPrompt { id: 0 })
    );
    let zero = GenRequest {
        max_new_tokens: 0,
        ..req(1, 3, 1)
    };
    assert_eq!(
        engine.try_submit(zero),
        Err(SubmitError::ZeroNewTokens { id: 1 })
    );
    let oov = GenRequest {
        prompt: vec![1, cfg.vocab + 7],
        ..req(2, 1, 1)
    };
    assert_eq!(
        engine.try_submit(oov),
        Err(SubmitError::TokenOutOfVocab {
            id: 2,
            token: cfg.vocab + 7,
            vocab: cfg.vocab,
        })
    );
    let huge = req(3, 400, 400);
    match engine.try_submit(huge) {
        Err(SubmitError::ExceedsPool {
            id: 3,
            need,
            capacity: 8,
        }) => assert!(need > 8),
        other => panic!("expected ExceedsPool, got {other:?}"),
    }
    engine.try_submit(req(4, 3, 2)).unwrap();
    assert_eq!(
        engine.try_submit(req(4, 3, 2)),
        Err(SubmitError::DuplicateId { id: 4 })
    );
    assert_eq!(engine.queued(), 1, "rejected requests never enqueue");
}

/// With events enabled, the engine streams every token in order plus a
/// terminal event per request — the contract the gateway's SSE path
/// relies on.
#[test]
fn event_stream_matches_completions() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 47);
    let packed = model.pack_weights(64).unwrap();
    let mut engine = ServeEngine::new(&model, &packed, engine_cfg(false, 64));
    engine.enable_events();
    engine.submit(req(0, 5, 6));
    let report = engine.run_to_completion();
    let events = engine.drain_events();
    let tokens: Vec<usize> = events
        .iter()
        .filter_map(|e| match *e {
            EngineEvent::Token { id: 0, token } => Some(token),
            _ => None,
        })
        .collect();
    assert_eq!(tokens, report.completions[0].tokens);
    assert_eq!(*events.last().unwrap(), EngineEvent::Finished { id: 0 });
    assert!(engine.drain_events().is_empty(), "drain takes everything");
}
