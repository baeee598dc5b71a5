//! Continuous-batching serving over the quantized backend: calibrate and
//! pack a model, generate a seeded Poisson request trace, serve it with
//! the `mant-serve` engine (paged packed KV pool, multi-query packed
//! GEMMs, mixed prefill+decode batches), and compare aggregate throughput
//! and per-request latency against the sequential one-request-at-a-time
//! baseline — which, by the batch runner's bit-exactness contract,
//! produces byte-identical token streams.
//!
//! Run with `cargo run --release --example serving`.

use mant::core::Pipeline;
use mant::model::{synthesize_speculative_pair, ActMode, DraftConfig, KvMode, ModelConfig};
use mant::serve::{
    requests_from_trace, sequential_generate, AdmissionPolicy, ServeConfig, ServeEngine,
    SpeculativeConfig,
};
use mant::sim::{poisson_trace, trace_tokens, LengthDist, TraceConfig};

fn main() {
    let config = ModelConfig::sim_llama();
    println!(
        "model: {} ({} hidden, {} heads, {} layers, vocab {})",
        config.name, config.hidden, config.heads, config.layers, config.vocab
    );

    // Calibrated 4-bit packing, as in `llm_inference`.
    let mut pipe = Pipeline::new(&config, 7);
    pipe.calibrate(48);
    let packed = pipe.pack_w4(64);
    let model = pipe.reference();
    let act = ActMode::None;
    let kv = KvMode::Mant4 { group: 64 };

    // A multi-tenant workload: Poisson arrivals, mixed prompt lengths.
    let trace = poisson_trace(&TraceConfig {
        requests: 10,
        arrivals_per_iter: 0.2,
        prompt: LengthDist::Uniform { lo: 32, hi: 96 },
        output: LengthDist::Uniform { lo: 16, hi: 32 },
        seed: 11,
    });
    let requests = requests_from_trace(&trace, config.vocab, 12);
    println!(
        "trace: {} requests, {} total tokens, last arrival at iteration {}",
        requests.len(),
        trace_tokens(&trace),
        trace.last().map_or(0, |r| r.arrival_iter),
    );

    let serve_cfg = ServeConfig {
        max_batch: 4,
        pool_blocks: 96,
        block_tokens: 64,
        act,
        kv,
        admission: AdmissionPolicy::Watermark {
            watermark_blocks: 4,
        },
        prefix_sharing: false,
        speculative: None,
    };
    let mut engine = ServeEngine::new(model, &packed, serve_cfg);
    for r in &requests {
        engine.submit(r.clone());
    }
    let report = engine.run_to_completion();

    let ttft = report.ttft_percentiles().expect("requests completed");
    let e2e = report.e2e_percentiles().expect("requests completed");
    let queue = report.queueing_percentiles().expect("requests completed");
    let ms_per_iter = report.wall_seconds * 1e3 / report.busy_iterations.max(1) as f64;
    println!("\ncontinuous-batching engine (max_batch 4, watermark admission, CoW MANT4 KV pool):");
    println!(
        "  aggregate throughput      : {:.1} generated tok/s ({:.1} tok/s incl. prefill)",
        report.tokens_per_sec(),
        report.total_tokens_per_sec()
    );
    println!(
        "  batch occupancy           : {:.2} sequences/iteration over {} busy iterations",
        report.mean_batch_occupancy, report.busy_iterations
    );
    let block_kib = report.block_bits as f64 / 8.0 / 1024.0;
    println!(
        "  paged KV pool             : peak {}/{} blocks ({:.1} KiB packed of {:.1} KiB)",
        report.peak_used_blocks,
        report.pool_blocks,
        report.peak_used_blocks as f64 * block_kib,
        report.pool_blocks as f64 * block_kib,
    );
    println!(
        "  TTFT  p50/p95/max         : {:.0} / {:.0} / {:.0} iterations (~{:.0} / {:.0} / {:.0} ms)",
        ttft.p50,
        ttft.p95,
        ttft.max,
        ttft.p50 * ms_per_iter,
        ttft.p95 * ms_per_iter,
        ttft.max * ms_per_iter,
    );
    println!(
        "  E2E   p50/p95/max         : {:.0} / {:.0} / {:.0} iterations",
        e2e.p50, e2e.p95, e2e.max
    );
    println!(
        "  queueing delay p50/p95/max: {:.0} / {:.0} / {:.0} iterations (submit → admission)",
        queue.p50, queue.p95, queue.max
    );
    println!(
        "  concurrency / preemptions : peak {} running, {} preemptions ({} recomputed tokens)",
        report.peak_running, report.preemptions, report.recomputed_tokens
    );

    // Sequential baseline: same requests, one at a time.
    let (outputs, seq_secs) = sequential_generate(model, &packed, act, kv, &requests);
    let seq_tps = report.generated_tokens as f64 / seq_secs;
    println!("\nsequential baseline (one request at a time):");
    println!("  aggregate throughput      : {seq_tps:.1} generated tok/s");
    println!(
        "  continuous batching wins  : {:.2}x aggregate tokens/s",
        report.tokens_per_sec() / seq_tps
    );
    println!(
        "  packed-kernel tokens/s    : {:.1} batched / {seq_tps:.1} sequential (both paths \
         consume nibble-packed groups via the pair-LUT kernels)",
        report.tokens_per_sec(),
    );

    // Bit-exactness: batching changed the schedule, not one token.
    let identical = report
        .completions
        .iter()
        .all(|c| c.tokens == outputs[c.id as usize]);
    println!("  outputs identical to batch: {identical}");
    assert!(identical, "serving must not change greedy outputs");

    // Speculative decoding: a one-layer draft model proposes draft_k
    // candidates per round and the target confirms them in a single
    // batched verify pass — the multi-row GEMM shape the row sweep
    // amortizes — so decode-phase sequences emit several tokens
    // per target pass. Greedy outputs must not move by a byte.
    let (target, draft) = synthesize_speculative_pair(
        &config,
        7,
        &DraftConfig {
            layers: 1,
            tail_block_ratio: 0.02,
        },
    );
    let spec_packed = target.pack_weights(64).expect("target packs");
    let draft_packed = draft.pack_weights(64).expect("draft packs");
    let spec_cfg = ServeConfig {
        speculative: Some(SpeculativeConfig { draft_k: 4 }),
        ..serve_cfg
    };
    let mut engine =
        ServeEngine::new_with_draft(&target, &spec_packed, &draft, &draft_packed, spec_cfg);
    for r in &requests {
        engine.submit(r.clone());
    }
    let spec_report = engine.run_to_completion();
    let spec = spec_report
        .speculation
        .expect("speculative engine reports stats");
    let mean_ms = |h: &mant::trace::Hist| h.mean().unwrap_or(0.0) / 1e6;
    println!("\nspeculative decoding (1-layer draft, draft_k 4, same watermark engine):");
    println!(
        "  rounds / acceptance       : {} draft-and-verify rounds, {:.1}% of {} candidates \
         accepted",
        spec.rounds,
        spec.acceptance_rate() * 100.0,
        spec.drafted,
    );
    println!(
        "  tokens per verify run     : {:.2} emitted (accepted, plus the target's own token at a \
         disagreement) per run of the target step",
        spec.emitted_tokens() as f64 / spec.rounds.max(1) as f64,
    );
    println!(
        "  per tick that verified    : draft {:.2} ms, rollback {:.3} ms (mean; the verify runs \
         ride the tick's one target step: {:.2} ms mean over all ticks, draft included)",
        mean_ms(&spec.draft_ns),
        mean_ms(&spec.rollback_ns),
        mean_ms(&spec_report.breakdown.step),
    );
    let (spec_baseline, _) = sequential_generate(&target, &spec_packed, act, kv, &requests);
    let spec_identical = spec_report
        .completions
        .iter()
        .all(|c| c.tokens == spec_baseline[c.id as usize]);
    println!("  outputs identical to baseline: {spec_identical}");
    assert!(
        spec_identical,
        "speculative serving must not change greedy outputs"
    );
}
