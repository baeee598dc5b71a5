//! Batch-vs-sequential equivalence: the serving stack must never change
//! what is computed, only when. A batch of N sequences — including ragged
//! joins and leaves mid-decode — produces logits **bit-identical** to N
//! independent single-sequence runs at every step, at two model sizes;
//! and the full engine's greedy outputs equal the one-request-at-a-time
//! baseline's exactly.

use mant_model::{
    run_sequence_packed, ActMode, FfnKind, KvMode, ModelConfig, SessionId, TransformerModel,
};
use mant_serve::{
    requests_from_trace, sequential_generate, AdmissionPolicy, GenRequest, ServeConfig,
    ServeEngine, PREFILL_ROWS_PER_TICK,
};
use mant_sim::{poisson_trace, LengthDist, TraceConfig};
use proptest::prelude::*;

/// A second, larger model size: 2× hidden width, one more layer than
/// `sim_llama` (matches `tests/end_to_end.rs`).
fn sim_llama_large() -> ModelConfig {
    ModelConfig {
        name: "sim-llama-large".to_owned(),
        hidden: 512,
        heads: 8,
        kv_heads: 8,
        layers: 3,
        ffn: 1024,
        vocab: 512,
        ffn_kind: FfnKind::GatedSilu,
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drives a ragged continuous batch — staggered joins, early leaves — and
/// checks every sequence's every-step logits against an independent
/// sequential run over the same packed weights.
fn check_ragged_equivalence(cfg: &ModelConfig, model_seed: u64, stream_seed: u64) {
    let model = TransformerModel::synthesize(cfg, model_seed);
    let packed = model.pack_weights(64).unwrap();
    let kv = KvMode::Mant4 { group: 64 };

    // Four sequences with different lengths and staggered start times:
    // sequence i joins at iteration 2·i, so every join lands mid-decode of
    // the earlier ones, and shorter sequences retire while others run.
    let lens = [11usize, 6, 9, 4];
    let starts = [0usize, 2, 4, 6];
    let streams: Vec<Vec<usize>> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            (0..len)
                .map(|t| ((stream_seed as usize).wrapping_mul(31) + i * 97 + t * 37) % cfg.vocab)
                .collect()
        })
        .collect();

    let mut br = model.batch_runner(&packed, ActMode::None, kv, 96, 64);
    let mut ids: Vec<Option<SessionId>> = vec![None; streams.len()];
    let mut got: Vec<Vec<Vec<f32>>> = vec![Vec::new(); streams.len()];
    let horizon = starts
        .iter()
        .zip(lens.iter())
        .map(|(s, l)| s + l)
        .max()
        .unwrap();
    for t in 0..horizon {
        let mut batch = Vec::new();
        let mut members = Vec::new();
        for i in 0..streams.len() {
            if t == starts[i] {
                ids[i] = Some(br.create_session());
            }
            if t >= starts[i] && t < starts[i] + lens[i] {
                batch.push((ids[i].unwrap(), streams[i][t - starts[i]]));
                members.push(i);
            }
        }
        if batch.is_empty() {
            continue;
        }
        let logits = br.step(&batch);
        for (out, i) in logits.into_iter().zip(members.iter()) {
            got[*i].push(out);
        }
        for i in 0..streams.len() {
            if t + 1 == starts[i] + lens[i] {
                br.end_session(ids[i].take().unwrap());
            }
        }
    }
    for (i, stream) in streams.iter().enumerate() {
        let solo = run_sequence_packed(&model, &packed, ActMode::None, kv, stream);
        assert_eq!(got[i].len(), stream.len());
        for (t, logits) in got[i].iter().enumerate() {
            assert_eq!(
                bits(logits),
                bits(solo.row(t)),
                "model {} seq {i} step {t}: batched logits diverged from sequential",
                cfg.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Ragged continuous batches are bit-exact at the small model size.
    #[test]
    fn ragged_batches_bit_exact_sim_llama(model_seed in 1u64..1000, stream_seed in 0u64..1000) {
        check_ragged_equivalence(&ModelConfig::sim_llama(), model_seed, stream_seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Ragged continuous batches are bit-exact at the larger model size.
    #[test]
    fn ragged_batches_bit_exact_sim_llama_large(model_seed in 1u64..1000, stream_seed in 0u64..1000) {
        check_ragged_equivalence(&sim_llama_large(), model_seed, stream_seed);
    }
}

/// GQA composes with the serving stack: same bit-exact contract with
/// shared KV heads (a third shape regime).
#[test]
fn ragged_batches_bit_exact_under_gqa() {
    check_ragged_equivalence(&ModelConfig::sim_llama().with_gqa(2), 77, 5);
}

/// Full-engine parity: continuous batching with Poisson arrivals produces
/// exactly the sequential baseline's greedy token streams.
fn check_engine_matches_baseline(cfg: &ModelConfig, seed: u64) {
    let model = TransformerModel::synthesize(cfg, seed);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Mant4 { group: 64 };
    let trace = poisson_trace(&TraceConfig {
        requests: 6,
        arrivals_per_iter: 0.4,
        prompt: LengthDist::Uniform { lo: 3, hi: 10 },
        output: LengthDist::Uniform { lo: 2, hi: 6 },
        seed: seed ^ 0x5e2,
    });
    let requests = requests_from_trace(&trace, cfg.vocab, seed ^ 0x7a11);

    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 64,
            block_tokens: 64,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());

    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "engine output for request {} diverged from the sequential baseline",
            c.id
        );
        assert!(c.first_token_iter > c.arrival_iter);
        assert!(c.finish_iter >= c.first_token_iter);
    }
    assert_eq!(
        report.generated_tokens,
        requests.iter().map(|r| r.max_new_tokens).sum::<usize>()
    );
    assert_eq!(
        report.prompt_tokens,
        requests.iter().map(|r| r.prompt.len()).sum::<usize>()
    );
    assert!(report.mean_batch_occupancy >= 1.0);
    assert!(report.ttft_percentiles().unwrap().p50 >= 1.0);
}

#[test]
fn engine_matches_sequential_baseline_sim_llama() {
    check_engine_matches_baseline(&ModelConfig::sim_llama(), 2025);
}

#[test]
fn engine_matches_sequential_baseline_sim_llama_large() {
    check_engine_matches_baseline(&sim_llama_large(), 2026);
}

/// A pool too small for every request at once throttles admission instead
/// of failing: all requests still complete, block usage stays inside the
/// pool, and outputs stay exact.
#[test]
fn tight_pool_throttles_admission_but_stays_exact() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 88);
    let packed = model.pack_weights(64).unwrap();
    let kv = KvMode::Mant4 { group: 64 };
    let requests: Vec<GenRequest> = (0..4)
        .map(|i| GenRequest {
            id: i,
            prompt: (0..5)
                .map(|t| ((i as usize) * 131 + t * 29) % cfg.vocab)
                .collect(),
            max_new_tokens: 4,
            arrival_iter: 0,
            deadline_iter: None,
        })
        .collect();
    // Each request needs layers(2) × ⌈9/64⌉ = 2 blocks; 5 blocks hold at
    // most 2 at a time even though max_batch is 4.
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 4,
            pool_blocks: 5,
            block_tokens: 64,
            act: ActMode::None,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), 4);
    assert!(report.peak_used_blocks <= 5, "{}", report.peak_used_blocks);
    let (baseline, _) = sequential_generate(&model, &packed, ActMode::None, kv, &requests);
    for c in &report.completions {
        assert_eq!(c.tokens, baseline[c.id as usize]);
    }
}

/// Prefix sharing: a multi-persona trace over a common system prompt is
/// served with shared CoW blocks — the engine must skip real prefill work
/// (prefix-cache hits) and still produce exactly the sequential
/// baseline's token streams.
#[test]
fn prefix_sharing_stays_byte_identical_and_hits() {
    use mant_serve::requests_from_shared_trace;
    use mant_sim::{shared_prefix_trace, SharedPrefixConfig};
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 91);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::None;
    // Int4 KV at group 16 → 16-token blocks, so 32-token shared prefixes
    // span two shareable blocks while the test stays fast.
    let kv = KvMode::Int4 { group: 16 };
    let shared_cfg = SharedPrefixConfig {
        personas: 2,
        requests_per_persona: 2,
        system_prompt_len: 16,
        persona_prompt_len: 16,
        unique_prompt_len: LengthDist::Uniform { lo: 2, hi: 7 },
        output: LengthDist::Uniform { lo: 3, hi: 6 },
        arrivals_per_iter: 0.05, // staggered, so later arrivals can hit
        seed: 17,
    };
    let trace = shared_prefix_trace(&shared_cfg);
    let requests = requests_from_shared_trace(&shared_cfg, &trace, cfg.vocab, 18);

    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 4,
            pool_blocks: 96,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: true,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());
    assert!(
        report.prefix_cached_tokens > 0,
        "staggered same-prefix requests must hit the prefix cache"
    );
    assert!(report.prefix_hit_rate() > 0.0 && report.prefix_hit_rate() < 1.0);

    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "prefix sharing changed request {}'s tokens",
            c.id
        );
        assert!(c.admitted_iter >= c.arrival_iter);
        assert!(c.first_token_iter > c.admitted_iter);
    }
}

/// Forced preemption: a pool too small for the batch's grown caches must
/// trigger evict-youngest-and-recompute — and the recomputed streams must
/// equal the sequential baseline byte for byte.
#[test]
fn forced_preemption_stays_byte_identical() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 92);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    // Each request's lifetime is 8 + 24 = 32 tokens → 2 blocks × 2 layers
    // = 4 blocks. Three requests fully grown need 12 blocks; the pool
    // holds 9, so decode growth must preempt (watermark 1 admits all
    // three during their 1-block prefills).
    let requests: Vec<GenRequest> = (0..3)
        .map(|i| GenRequest {
            id: i,
            prompt: (0..8)
                .map(|t| ((i as usize) * 101 + t * 17 + 3) % cfg.vocab)
                .collect(),
            max_new_tokens: 24,
            arrival_iter: 0,
            deadline_iter: None,
        })
        .collect();
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 9,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), 3);
    assert!(
        report.preemptions > 0,
        "a 9-block pool cannot hold three 4-block lifetimes without preempting"
    );
    assert!(
        report.recomputed_tokens > 0,
        "readmission replays the victim"
    );
    assert!(report.peak_used_blocks <= 9);

    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "preemption/recompute changed request {}'s tokens",
            c.id
        );
        assert_eq!(c.tokens.len(), 24);
    }
}

/// Sharing and preemption compose: a tight pool under a shared-prompt
/// trace evicts snapshots and preempts, and every stream still matches
/// the baseline (preemption recovery may re-hit surviving prefixes).
#[test]
fn sharing_plus_preemption_stays_byte_identical() {
    use mant_serve::requests_from_shared_trace;
    use mant_sim::{shared_prefix_trace, SharedPrefixConfig};
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 93);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    let shared_cfg = SharedPrefixConfig {
        personas: 2,
        requests_per_persona: 3,
        system_prompt_len: 16,
        persona_prompt_len: 0,
        unique_prompt_len: LengthDist::Uniform { lo: 1, hi: 4 },
        output: LengthDist::Fixed(20),
        arrivals_per_iter: 0.2,
        seed: 23,
    };
    let trace = shared_prefix_trace(&shared_cfg);
    let requests = requests_from_shared_trace(&shared_cfg, &trace, cfg.vocab, 24);
    // Lifetime ≈ 16 + 4 + 20 = 40 tokens → 3 blocks × 2 layers = 6; six
    // requests would want ~36 blocks, the pool holds 14.
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 4,
            pool_blocks: 14,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 2,
            },
            prefix_sharing: true,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());
    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "tight-pool sharing run changed request {}'s tokens",
            c.id
        );
    }
    assert!(report.preemptions > 0 || report.prefix_cached_tokens > 0);
}

/// Speculative decoding must change *when* tokens are computed, never
/// which: the engine's greedy streams with draft-and-verify rounds equal
/// the sequential target-only baseline byte for byte, at every `draft_k`.
fn check_speculative_matches_baseline(draft_k: usize, seed: u64) {
    use mant_model::{synthesize_speculative_pair, DraftConfig};
    let cfg = ModelConfig::sim_llama();
    let (target, draft) = synthesize_speculative_pair(
        &cfg,
        seed,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    let trace = poisson_trace(&TraceConfig {
        requests: 6,
        arrivals_per_iter: 0.4,
        prompt: LengthDist::Uniform { lo: 3, hi: 10 },
        output: LengthDist::Uniform { lo: 2, hi: 9 },
        seed: seed ^ 0x5e2,
    });
    let requests = requests_from_trace(&trace, cfg.vocab, seed ^ 0x7a11);

    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 64,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: false,
            speculative: Some(mant_serve::SpeculativeConfig { draft_k }),
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());

    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "speculative decode at draft_k={draft_k} changed request {}'s tokens",
            c.id
        );
    }
    let spec = report
        .speculation
        .expect("speculative engine reports stats");
    assert!(spec.rounds > 0, "decode-phase sequences must speculate");
    // Each round drafts k_eff ∈ [1, draft_k] candidates (capped near a
    // sequence's token budget).
    assert!(spec.drafted >= spec.rounds);
    assert!(spec.drafted <= spec.rounds * draft_k as u64);
    assert!(spec.accepted <= spec.drafted);
    assert!(!spec.draft_ns.is_empty() && !spec.rollback_ns.is_empty());
}

#[test]
fn speculative_decoding_stays_byte_identical_across_draft_k() {
    for (draft_k, seed) in [(1, 101u64), (2, 102), (4, 103), (8, 104)] {
        check_speculative_matches_baseline(draft_k, seed);
    }
}

/// Speculation composes with prefix sharing: shared-prompt traffic over
/// CoW blocks, draft sessions mirroring every registration, and the
/// streams still match the baseline exactly.
#[test]
fn speculative_plus_prefix_sharing_stays_byte_identical() {
    use mant_model::{synthesize_speculative_pair, DraftConfig};
    use mant_serve::requests_from_shared_trace;
    use mant_sim::{shared_prefix_trace, SharedPrefixConfig};
    let cfg = ModelConfig::sim_llama();
    let (target, draft) = synthesize_speculative_pair(
        &cfg,
        95,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    let shared_cfg = SharedPrefixConfig {
        personas: 2,
        requests_per_persona: 2,
        system_prompt_len: 16,
        persona_prompt_len: 16,
        unique_prompt_len: LengthDist::Uniform { lo: 2, hi: 7 },
        output: LengthDist::Uniform { lo: 3, hi: 8 },
        arrivals_per_iter: 0.05,
        seed: 27,
    };
    let trace = shared_prefix_trace(&shared_cfg);
    let requests = requests_from_shared_trace(&shared_cfg, &trace, cfg.vocab, 28);

    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 4,
            pool_blocks: 96,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: true,
            speculative: Some(mant_serve::SpeculativeConfig { draft_k: 4 }),
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());
    assert!(
        report.prefix_cached_tokens > 0,
        "staggered same-prefix requests must hit the prefix cache"
    );
    let spec = report
        .speculation
        .expect("speculative engine reports stats");
    assert!(spec.rounds > 0);

    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "speculation + prefix sharing changed request {}'s tokens",
            c.id
        );
    }
}

/// Speculation composes with forced preemption: a pool too small for the
/// grown caches preempts mid-speculation (both runners' sessions end and
/// replay), and the recomputed streams still match the baseline.
#[test]
fn speculative_under_forced_preemption_stays_byte_identical() {
    use mant_model::{synthesize_speculative_pair, DraftConfig};
    let cfg = ModelConfig::sim_llama();
    let (target, draft) = synthesize_speculative_pair(
        &cfg,
        96,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    // Same geometry as `forced_preemption_stays_byte_identical`: three
    // 4-block lifetimes against a 9-block target pool force preemption
    // during decode — now while rounds hold transient checkpoint blocks.
    let requests: Vec<GenRequest> = (0..3)
        .map(|i| GenRequest {
            id: i,
            prompt: (0..8)
                .map(|t| ((i as usize) * 101 + t * 17 + 3) % cfg.vocab)
                .collect(),
            max_new_tokens: 24,
            arrival_iter: 0,
            deadline_iter: None,
        })
        .collect();
    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 9,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: Some(mant_serve::SpeculativeConfig { draft_k: 3 }),
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), 3);
    assert!(
        report.preemptions > 0,
        "a 9-block pool cannot hold three 4-block lifetimes without preempting"
    );
    let spec = report
        .speculation
        .expect("speculative engine reports stats");
    assert!(spec.rounds > 0);

    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "speculation + preemption changed request {}'s tokens",
            c.id
        );
        assert_eq!(c.tokens.len(), 24);
    }
}

/// One request served alone by a speculative engine over a synthetic
/// target/draft pair, with `Int4 { group: 16 }` KV so a V window commits
/// every 16 rows: checks the stream against `sequential_generate` and that
/// both pools drain, and returns the report.
fn serve_one_speculatively(
    layers: usize,
    seed: u64,
    tail_block_ratio: f32,
    request: GenRequest,
    draft_k: usize,
) -> mant_serve::ServeReport {
    use mant_model::{synthesize_speculative_pair, DraftConfig};
    let mut cfg = ModelConfig::sim_llama();
    cfg.layers = layers;
    let draft_cfg = DraftConfig {
        layers: 1,
        tail_block_ratio,
    };
    let (target, draft) = synthesize_speculative_pair(&cfg, seed, &draft_cfg);
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let (act, kv) = (ActMode::None, KvMode::Int4 { group: 16 });
    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 1,
            pool_blocks: 96,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: false,
            speculative: Some(mant_serve::SpeculativeConfig { draft_k }),
        },
    );
    engine.submit(request.clone());
    let report = engine.run_to_completion();
    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &[request]);
    assert_eq!(
        report.completions[0].tokens, baseline[0],
        "speculative stream diverged (draft_k {draft_k})"
    );
    // No block may leak through a round's rollback.
    assert_eq!(engine.used_blocks(), 0, "target pool must drain");
    assert_eq!(
        engine.draft_free_blocks(),
        Some(96),
        "draft pool must drain"
    );
    assert_eq!(report.step_rollbacks + report.poisoned_requests, 0);
    report
}

/// A 3-layer target with its 1-layer draft truncation, at a seed and tail
/// ratio where the draft agrees with the target about every other token —
/// so both the accept and the reject path run — and the sweep over prompt
/// lengths and `draft_k` moves the rounds across 16-row V window
/// boundaries: rounds that start just before one are cut short.
#[test]
fn speculative_stream_matches_sequential_greedy_across_windows() {
    for (prompt_len, draft_k) in [(5usize, 2usize), (9, 3), (14, 5), (16, 4)] {
        let request = long_request(0, prompt_len, 24, 512);
        let report = serve_one_speculatively(3, 69, 0.5, request, draft_k);
        let spec = report
            .speculation
            .expect("speculative engine reports stats");
        assert!(spec.rounds > 0, "decode must speculate");
        assert!(
            0 < spec.accepted && spec.accepted < spec.drafted,
            "prompt {prompt_len}, draft_k {draft_k}: {}/{} accepted — both the accept and \
             the reject path must run",
            spec.accepted,
            spec.drafted
        );
    }
}

/// A near-inert tail makes the draft track the target closely under Int4
/// KV (shared fixed variance map), so acceptance must stay high. (An
/// exactly-zero tail ratio cannot be used here: the MANT W4 grid has no
/// zero code, so packed zeroed tail projections are *not* inert — see
/// `DraftConfig`.)
#[test]
fn speculative_high_agreement_accepts_most_candidates() {
    let report = serve_one_speculatively(2, 61, 0.02, long_request(0, 6, 26, 512), 4);
    let spec = report
        .speculation
        .expect("speculative engine reports stats");
    assert!(spec.drafted >= 16, "{} candidates drafted", spec.drafted);
    assert!(
        spec.accepted * 2 >= spec.drafted,
        "near-inert tail must keep acceptance high: {}/{}",
        spec.accepted,
        spec.drafted
    );
    // A plain run's one logit row emits one token and a verify run reads a
    // row per candidate, so what the plain rows did not emit the rounds did.
    // (`accepted + rounds` counts one more for every fully accepted round.)
    let plain = report.logit_rows as u64 - spec.drafted;
    assert_eq!(
        spec.emitted_tokens(),
        report.generated_tokens as u64 - plain,
        "{} rounds, {}/{} accepted",
        spec.rounds,
        spec.accepted,
        spec.drafted
    );
}

/// Rounds never draft across a V-window commit: with 16-row windows,
/// `draft_k` 8 and outputs four windows long, rounds start at every offset
/// of a window — a draft that is always wrong advances a token a round, one
/// that is right every other time two, from an odd and from an even
/// position — so rejections land on every side of a commit: in rounds cut
/// short of one, in rounds whose first row fills the window, at that row
/// and past it. Every rejected tail is undone by a truncate: the stream
/// still equals the baseline, both pools drain, and the rounds cut short
/// show up as fewer candidates than `rounds · draft_k`.
#[test]
fn rounds_stop_short_of_a_window_commit_and_roll_back_by_truncate() {
    for (seed, prompt_len, agrees) in [(72u64, 7usize, false), (69, 7, true), (69, 8, true)] {
        let request = long_request(0, prompt_len, 70, 512);
        let report = serve_one_speculatively(3, seed, 0.5, request, 8);
        let spec = report
            .speculation
            .expect("speculative engine reports stats");
        assert!(spec.rounds >= 30, "{} rounds", spec.rounds);
        assert!(
            spec.drafted < spec.rounds * 8,
            "{} candidates in {} rounds: no round was cut short",
            spec.drafted,
            spec.rounds
        );
        assert_eq!(spec.accepted > 0, agrees, "{} accepted", spec.accepted);
        assert!(spec.accepted * 4 < spec.drafted, "a low-agreement draft");
        assert_eq!(spec.rollback_ns.count, spec.draft_ns.count);
    }
}

/// A request with a seeded prompt of `prompt_len` tokens.
fn long_request(id: u64, prompt_len: usize, max_new_tokens: usize, vocab: usize) -> GenRequest {
    GenRequest {
        id,
        prompt: (0..prompt_len)
            .map(|t| ((id as usize) * 131 + t * 29 + 7) % vocab)
            .collect(),
        max_new_tokens,
        arrival_iter: 0,
        deadline_iter: None,
    }
}

/// Prompts on every side of the cuts a prefill run can take — one token,
/// around the tick's row budget, around one and two 64-row blocks, a long
/// one — arrive together, so some prefill in budget-sized runs while
/// nothing decodes and the rest one token a tick beside the decoders.
/// Streams must equal the sequential baseline, with and without prefix
/// registration at every boundary, and the row counters must account for
/// exactly the rows a sequence has: every prompt token once, every
/// generated token but the last fed back once, one logit row per
/// generated token.
#[test]
fn prompt_lengths_around_every_run_cut_stay_byte_identical() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 97);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Mant4 { group: 64 };
    let budget = PREFILL_ROWS_PER_TICK;
    let requests: Vec<GenRequest> = [1, budget - 1, budget, budget + 1, 63, 64, 65, 129, 512]
        .iter()
        .enumerate()
        .map(|(i, &len)| long_request(i as u64, len, 4, cfg.vocab))
        .collect();
    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    for prefix_sharing in [false, true] {
        let mut engine = ServeEngine::new(
            &model,
            &packed,
            ServeConfig {
                max_batch: 3,
                pool_blocks: 64,
                block_tokens: 64,
                act,
                kv,
                admission: AdmissionPolicy::Watermark {
                    watermark_blocks: 4,
                },
                prefix_sharing,
                speculative: None,
            },
        );
        for r in &requests {
            engine.submit(r.clone());
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completions.len(), requests.len());
        for c in &report.completions {
            assert_eq!(
                c.tokens, baseline[c.id as usize],
                "prompt of {} tokens diverged (prefix_sharing {prefix_sharing})",
                c.prompt_len
            );
        }
        let prompt_rows: usize = requests.iter().map(|r| r.prompt.len()).sum();
        let generated: usize = requests.iter().map(|r| r.max_new_tokens).sum();
        assert_eq!(report.prompt_tokens, prompt_rows);
        assert_eq!(report.recomputed_tokens, 0);
        assert_eq!(
            report.stepped_rows,
            prompt_rows + generated - requests.len()
        );
        assert_eq!(report.logit_rows, generated);
        assert_eq!(
            report.kv_only_rows,
            prompt_rows - requests.len(),
            "every prompt row but each prompt's last is KV-only"
        );
        assert!(
            report.iterations < (prompt_rows / 4) as u64,
            "prefill still runs a token a tick: {} iterations",
            report.iterations
        );
    }
}

/// Replay after preemption takes the same runs as prefill: prompts of
/// several 16-row blocks in a pool too small for their grown caches are
/// preempted, recomputed in block-bounded runs, and still match.
#[test]
fn preempted_long_prompts_replay_in_runs_byte_identically() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 98);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    // Lifetimes of 41–70 + 60 tokens are 7–9 blocks × 2 layers; the three
    // of them grow towards 48 blocks and the pool holds 22.
    let requests: Vec<GenRequest> = [41usize, 55, 70]
        .iter()
        .enumerate()
        .map(|(i, &len)| long_request(i as u64, len, 60, cfg.vocab))
        .collect();
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 22,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), 3);
    assert!(report.preemptions > 0, "the pool cannot hold all three");
    assert!(
        report.recomputed_tokens >= 41,
        "a whole prompt is replayed: {}",
        report.recomputed_tokens
    );
    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "replay in runs changed request {}'s tokens",
            c.id
        );
    }
    let prompt_rows: usize = requests.iter().map(|r| r.prompt.len()).sum();
    assert_eq!(
        report.prompt_tokens, prompt_rows,
        "replayed rows are not prompt work"
    );
}

/// Speculation on top of run prefill: the draft runner is fed the same
/// block-bounded runs (for its KV only), so both caches reach decode in
/// lockstep and the verified streams match the target-only baseline.
#[test]
fn speculative_after_run_prefill_stays_byte_identical() {
    use mant_model::{synthesize_speculative_pair, DraftConfig};
    let cfg = ModelConfig::sim_llama();
    let (target, draft) = synthesize_speculative_pair(
        &cfg,
        99,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    let requests: Vec<GenRequest> = [31usize, 33, 65]
        .iter()
        .enumerate()
        .map(|(i, &len)| long_request(i as u64, len, 12, cfg.vocab))
        .collect();
    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 64,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: true,
            speculative: Some(mant_serve::SpeculativeConfig { draft_k: 4 }),
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());
    assert!(report.speculation.expect("spec engine").rounds > 0);
    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "speculation after run prefill changed request {}'s tokens",
            c.id
        );
    }
}

/// KV-only rows under everything at once: long prompts, speculation on and
/// a pool tight enough to preempt and replay, so mid-prompt chunks, replayed
/// spans and the draft runner's lock-step feed all stop after their K/V in
/// the last layer while verify passes and decode rows run it whole. Streams
/// must equal the baseline, the pools must drain, and `kv_only_rows` must be
/// exactly the known-token rows stepped (`prompt_tokens +
/// recomputed_tokens`) less one per run that ended a sequence's known
/// tokens — the only such rows with a logit row.
#[test]
fn kv_only_rows_are_every_known_token_row_but_the_run_ends() {
    use mant_model::{synthesize_speculative_pair, DraftConfig};
    let cfg = ModelConfig::sim_llama();
    let (target, draft) = synthesize_speculative_pair(
        &cfg,
        100,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let packed = target.pack_weights(64).unwrap();
    let draft_packed = draft.pack_weights(64).unwrap();
    let act = ActMode::None;
    let kv = KvMode::Int4 { group: 16 };
    // As `preempted_long_prompts_replay_in_runs_byte_identically`, with a
    // fourth request queued behind: any three of these lifetimes grow
    // towards 48 or more target blocks in a pool of 22.
    let requests: Vec<GenRequest> = [41usize, 55, 70, 97]
        .iter()
        .enumerate()
        .map(|(i, &len)| long_request(i as u64, len, 60, cfg.vocab))
        .collect();
    let mut engine = ServeEngine::new_with_draft(
        &target,
        &packed,
        &draft,
        &draft_packed,
        ServeConfig {
            max_batch: 3,
            pool_blocks: 22,
            block_tokens: 16,
            act,
            kv,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: Some(mant_serve::SpeculativeConfig { draft_k: 3 }),
        },
    );
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completions.len(), requests.len());
    assert!(report.preemptions > 0, "the pool cannot hold three of them");
    assert!(
        report.recomputed_tokens >= 41,
        "a whole prompt is replayed: {}",
        report.recomputed_tokens
    );
    let spec = report.speculation.as_ref().expect("spec engine");
    assert!(spec.rounds > 0);
    let (baseline, _) = sequential_generate(&target, &packed, act, kv, &requests);
    for c in &report.completions {
        assert_eq!(
            c.tokens, baseline[c.id as usize],
            "KV-only rows changed request {}'s tokens",
            c.id
        );
    }
    assert_eq!(engine.used_blocks(), 0, "target pool must drain");
    assert_eq!(
        engine.draft_free_blocks(),
        Some(22),
        "draft pool must drain"
    );

    // Known-token rows are stepped by the batched plan only; its other
    // rows are one-token decode steps, and a verify pass steps one row per
    // draft. Rows with logits: every decode and verify row, plus one per
    // run that ended a sequence's known tokens.
    let known_rows = report.prompt_tokens + report.recomputed_tokens;
    let prompt_rows: usize = requests.iter().map(|r| r.prompt.len()).sum();
    assert_eq!(report.prompt_tokens, prompt_rows);
    let decode_rows = report.stepped_rows - known_rows - spec.drafted as usize;
    let run_ends = report.logit_rows - decode_rows - spec.drafted as usize;
    assert_eq!(report.kv_only_rows, known_rows - run_ends);
    // Every request ends its known tokens once per admission that gets
    // that far: at least once each, at most once more per preemption.
    assert!(
        (requests.len()..=requests.len() + report.preemptions).contains(&run_ends),
        "{run_ends} run ends for {} requests and {} preemptions",
        requests.len(),
        report.preemptions
    );
}

/// In-flight duplicate request ids are rejected at submit: ids key the
/// preemption carry state, so a duplicate would cross-wire two requests'
/// progress.
#[test]
#[should_panic(expected = "already in flight")]
fn duplicate_request_id_rejected_at_submit() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 94);
    let packed = model.pack_weights(64).unwrap();
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 2,
            pool_blocks: 16,
            block_tokens: 64,
            act: ActMode::None,
            kv: KvMode::Mant4 { group: 64 },
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 2,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    let req = GenRequest {
        id: 5,
        prompt: vec![1, 2],
        max_new_tokens: 2,
        arrival_iter: 0,
        deadline_iter: None,
    };
    engine.submit(req.clone());
    engine.submit(req);
}

/// Oversized requests are rejected at submit (they could never be
/// admitted and would deadlock the FCFS queue).
#[test]
#[should_panic(expected = "enlarge the pool")]
fn impossible_request_rejected_at_submit() {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 89);
    let packed = model.pack_weights(64).unwrap();
    let mut engine = ServeEngine::new(
        &model,
        &packed,
        ServeConfig {
            max_batch: 2,
            pool_blocks: 4,
            block_tokens: 64,
            act: ActMode::None,
            kv: KvMode::Mant4 { group: 64 },
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 1,
            },
            prefix_sharing: false,
            speculative: None,
        },
    );
    engine.submit(GenRequest {
        id: 0,
        prompt: vec![1; 200],
        max_new_tokens: 100,
        arrival_iter: 0,
        deadline_iter: None,
    });
}
