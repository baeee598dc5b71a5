//! What the tick composer promises, as tests: a decoding sequence is never
//! held up by somebody's prompt, a tick steps a bounded number of rows,
//! runs stop at block boundaries, and the row budget goes to the oldest
//! prefilling sequence first with the leftover passed on.

use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
use mant_serve::{
    AdmissionPolicy, EngineEvent, GenRequest, ServeConfig, ServeEngine, PREFILL_ROWS_PER_TICK,
};

fn req(id: u64, prompt_len: usize, max_new_tokens: usize) -> GenRequest {
    GenRequest {
        id,
        prompt: (0..prompt_len)
            .map(|t| ((id as usize) * 131 + t * 29 + 1) % 512)
            .collect(),
        max_new_tokens,
        arrival_iter: 0,
        deadline_iter: None,
    }
}

fn config(max_batch: usize, block_tokens: usize) -> ServeConfig {
    ServeConfig {
        max_batch,
        pool_blocks: 96,
        block_tokens,
        act: ActMode::None,
        kv: KvMode::Int4 { group: 16 },
        admission: AdmissionPolicy::Watermark {
            watermark_blocks: 4,
        },
        prefix_sharing: false,
        speculative: None,
    }
}

/// A stream decodes while 512-token prompts arrive back to back: from its
/// first token on, the stream emits a token on every tick and every such
/// tick steps one row per sequence; no tick at all steps more than the
/// row budget plus one row per batch lane.
#[test]
fn a_decoding_stream_emits_every_tick_beside_long_prompts() {
    const STREAM: u64 = 0;
    const STREAM_TOKENS: usize = 1100;
    let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 51);
    let packed = model.pack_weights(64).unwrap();
    let max_batch = 3;
    let mut engine = ServeEngine::new(&model, &packed, config(max_batch, 64));
    engine.enable_events();
    // The first prompt prefills alone, in budget-sized runs; the stream
    // joins at its first token; each later prompt arrives as the previous
    // one ends, and prefills beside the decoding stream.
    engine.submit(req(1, 512, 8));
    let mut next_prompt = 2u64;
    let mut stream_submitted = false;
    let mut stream_tokens = 0usize;
    let mut rows_before = 0usize;
    let mut widest_tick = 0usize;
    let mut prompts_done_beside_stream = 0usize;
    while engine.pending() > 0 {
        let stream_live = stream_tokens > 0 && stream_tokens < STREAM_TOKENS;
        engine.tick();
        let rows = engine.report(0.0).stepped_rows - rows_before;
        rows_before += rows;
        widest_tick = widest_tick.max(rows);
        let events = engine.drain_events();
        let stream_got = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Token { id: STREAM, .. }))
            .count();
        if stream_live {
            assert_eq!(stream_got, 1, "a live stream emits one token every tick");
            assert!(rows <= max_batch, "a decoder waited on a {rows}-row tick");
        }
        stream_tokens += stream_got;
        for e in &events {
            match *e {
                EngineEvent::Token { id: 1, .. } if !stream_submitted => {
                    stream_submitted = true;
                    engine.submit(GenRequest {
                        arrival_iter: engine.iterations(),
                        ..req(STREAM, 8, STREAM_TOKENS)
                    });
                }
                EngineEvent::Finished { id } if id != STREAM => {
                    prompts_done_beside_stream += usize::from(stream_live);
                    if next_prompt <= 3 {
                        engine.submit(GenRequest {
                            arrival_iter: engine.iterations(),
                            ..req(next_prompt, 512, 8)
                        });
                        next_prompt += 1;
                    }
                }
                _ => {}
            }
        }
    }
    assert_eq!(stream_tokens, STREAM_TOKENS);
    assert!(
        prompts_done_beside_stream >= 2,
        "two 512-token prompts went through beside the live stream"
    );
    assert_eq!(
        widest_tick, PREFILL_ROWS_PER_TICK,
        "the lone first prompt takes the whole budget and nothing more"
    );
}

/// Two 40-token prompts in 16-row blocks, nothing decoding: a run stops at
/// its block boundary, the leftover budget goes to the younger sequence,
/// and both reach their first token on the third tick. Were runs allowed
/// across a boundary, the older prompt would take the whole first tick.
#[test]
fn runs_stop_at_block_boundaries_and_leftover_rows_go_to_the_next() {
    assert_eq!(PREFILL_ROWS_PER_TICK, 32, "the arithmetic below assumes it");
    let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 52);
    let packed = model.pack_weights(64).unwrap();
    let mut engine = ServeEngine::new(&model, &packed, config(4, 16));
    engine.submit(req(0, 40, 2));
    engine.submit(req(1, 40, 2));
    let mut rows = Vec::new();
    while engine.pending() > 0 {
        engine.tick();
        rows.push(engine.report(0.0).stepped_rows);
    }
    // 16 + 16, 16 + 16, 8 + 8 (first tokens), then one decode tick.
    assert_eq!(rows, [32, 64, 80, 82]);
    let report = engine.report(0.0);
    assert_eq!(report.mean_batch_occupancy, 2.0);
    for c in &report.completions {
        assert_eq!(c.first_token_iter, 3, "request {}", c.id);
        assert_eq!(c.finish_iter, 4);
    }
}

/// Oldest first: three 100-token prompts in 64-row blocks. The oldest takes
/// the budget until its prompt ends, each younger one only what is left,
/// so first tokens come in admission order and every tick makes progress
/// on the oldest unfinished prompt. A sequence left without rows is not
/// counted in the step.
#[test]
fn the_budget_fills_oldest_admission_first() {
    let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 53);
    let packed = model.pack_weights(64).unwrap();
    let mut engine = ServeEngine::new(&model, &packed, config(4, 64));
    engine.enable_events();
    for id in 0..3 {
        engine.submit(req(id, 100, 1));
    }
    let mut first_tokens = Vec::new();
    let mut prompt_rows = 0usize;
    while engine.pending() > 0 {
        engine.tick();
        let report = engine.report(0.0);
        assert!(
            report.prompt_tokens > prompt_rows,
            "every tick advances some prompt"
        );
        prompt_rows = report.prompt_tokens;
        for e in engine.drain_events() {
            if let EngineEvent::Token { id, .. } = e {
                first_tokens.push((id, engine.iterations()));
            }
        }
    }
    // Request 0: 32 + 32 + 32 + 4 (tick 4, leaving 28 to request 1);
    // request 1: 28 + 32 + 4 + 32 + 4 — its run stops at the 64-row block
    // boundary in tick 6 — and so on down the line.
    let order: Vec<u64> = first_tokens.iter().map(|&(id, _)| id).collect();
    assert_eq!(order, [0, 1, 2], "first tokens in admission order");
    assert_eq!(first_tokens[0].1, 4);
    let report = engine.report(0.0);
    assert!(
        report.mean_batch_occupancy < 2.0,
        "starved sequences are not in the step: {}",
        report.mean_batch_occupancy
    );
    assert_eq!(report.stepped_rows, 300);
    assert_eq!(report.logit_rows, 3);
}
