//! Shared-prefix serving over the copy-on-write paged KV pool: N personas
//! answering M requests each over one common system prompt. Requests with
//! an identical block-aligned prompt prefix map it onto the *same*
//! physical packed MANT4 blocks (refcounted, copy-on-write), skip that
//! prefill entirely, and — by the engine's bit-exactness contract — still
//! produce byte-identical token streams to both the one-request-at-a-time
//! baseline and the same engine with sharing off.
//!
//! Run with `cargo run --release --example serving_prefix`.

use mant::core::Pipeline;
use mant::model::{ActMode, KvMode, ModelConfig};
use mant::serve::{
    requests_from_shared_trace, sequential_generate, AdmissionPolicy, ServeConfig, ServeEngine,
};
use mant::sim::{shared_prefix_trace, LengthDist, SharedPrefixConfig};

fn main() {
    let config = ModelConfig::sim_llama();
    println!(
        "model: {} ({} hidden, {} heads, {} layers, vocab {})",
        config.name, config.hidden, config.heads, config.layers, config.vocab
    );

    let mut pipe = Pipeline::new(&config, 7);
    pipe.calibrate(48);
    let packed = pipe.pack_w4(64);
    let model = pipe.reference();
    let act = ActMode::None;
    // KV group 16 → 16-token pool blocks: a 64-token system prompt spans
    // four shareable blocks.
    let kv = KvMode::Mant4 { group: 16 };

    let shared_cfg = SharedPrefixConfig {
        personas: 2,
        requests_per_persona: 3,
        system_prompt_len: 64,
        persona_prompt_len: 16,
        unique_prompt_len: LengthDist::Uniform { lo: 2, hi: 8 },
        output: LengthDist::Fixed(16),
        arrivals_per_iter: 0.04,
        seed: 31,
    };
    let trace = shared_prefix_trace(&shared_cfg);
    let requests = requests_from_shared_trace(&shared_cfg, &trace, config.vocab, 32);
    println!(
        "trace: {} personas x {} requests over a {}-token system prompt \
         (+{}-token persona blocks)",
        shared_cfg.personas,
        shared_cfg.requests_per_persona,
        shared_cfg.system_prompt_len,
        shared_cfg.persona_prompt_len,
    );

    let serve_cfg = ServeConfig {
        max_batch: 6,
        pool_blocks: 64,
        block_tokens: 16,
        act,
        kv,
        admission: AdmissionPolicy::Watermark {
            watermark_blocks: 8,
        },
        prefix_sharing: true,
        speculative: None,
    };
    let mut engine = ServeEngine::new(model, &packed, serve_cfg);
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();

    let ttft = report.ttft_percentiles().expect("requests completed");
    let queue = report.queueing_percentiles().expect("requests completed");
    println!("\nCoW engine (watermark admission, prefix sharing):");
    println!(
        "  aggregate throughput      : {:.1} generated tok/s ({:.1} tok/s incl. prefill)",
        report.tokens_per_sec(),
        report.total_tokens_per_sec()
    );
    println!(
        "  prefix cache              : {:.0}% hit rate ({} of {} prefill tokens from shared blocks)",
        report.prefix_hit_rate() * 100.0,
        report.prefix_cached_tokens,
        report.prefill_tokens,
    );
    println!(
        "  concurrency               : peak {} running, occupancy {:.2}, peak {}/{} blocks",
        report.peak_running,
        report.mean_batch_occupancy,
        report.peak_used_blocks,
        report.pool_blocks,
    );
    println!(
        "  preemptions               : {} ({} recomputed tokens)",
        report.preemptions, report.recomputed_tokens
    );
    println!(
        "  TTFT  p50/p95/max         : {:.0} / {:.0} / {:.0} iterations",
        ttft.p50, ttft.p95, ttft.max
    );
    println!(
        "  queueing delay p50/p95/max: {:.0} / {:.0} / {:.0} iterations (submit → admission)",
        queue.p50, queue.p95, queue.max
    );

    // The same engine on the same pool with sharing off, for comparison.
    let plain_cfg = ServeConfig {
        prefix_sharing: false,
        ..serve_cfg
    };
    let mut plain_engine = ServeEngine::new(model, &packed, plain_cfg);
    for r in &requests {
        plain_engine.submit(r.clone());
    }
    let plain = plain_engine.run_to_completion();
    println!("\nsame engine, same pool, prefix sharing off:");
    println!(
        "  aggregate throughput      : {:.1} generated tok/s, peak {} running",
        plain.tokens_per_sec(),
        plain.peak_running
    );
    println!(
        "  sharing wins              : {:.2}x aggregate tokens/s",
        report.tokens_per_sec() / plain.tokens_per_sec()
    );

    // Bit-exactness: sharing changed the schedule, not one token.
    let (outputs, _) = sequential_generate(model, &packed, act, kv, &requests);
    let identical = report
        .completions
        .iter()
        .all(|c| c.tokens == outputs[c.id as usize])
        && plain
            .completions
            .iter()
            .all(|c| c.tokens == outputs[c.id as usize]);
    println!("  outputs identical across both engines and the baseline: {identical}");
    assert!(identical, "prefix sharing must not change greedy outputs");
}
