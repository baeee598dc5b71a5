//! Prefix sharing on vs off, on a shared-prompt serving trace.
//!
//! The refcounted copy-on-write pool allocates blocks as tokens arrive and
//! relieves pressure by preemption. With prefix sharing on it also maps
//! identical block-aligned prompt prefixes of different requests onto the
//! *same* physical packed blocks — so the same pool skips most prefill work
//! and holds each request in fewer blocks of its own.
//!
//! This bench serves one multi-persona trace (every prompt = system ++
//! persona ++ unique tail) twice on an identically sized pool, sharing off
//! and on, and **asserts** the sharing engine (a) serves most prefill from
//! the cache, (b) beats the non-sharing engine on aggregate tokens/s, and
//! (c) produces byte-identical token streams; then that a burst into half
//! the pool preempts and still recovers every stream exactly. (Peak
//! concurrency is printed, not asserted: on-demand allocation already fits
//! this trace's arrivals without sharing, and requests that skip their
//! prefill leave sooner.)

use criterion::{criterion_group, criterion_main, Criterion};

use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
use mant_serve::{
    requests_from_shared_trace, AdmissionPolicy, ServeConfig, ServeEngine, ServeReport,
};
use mant_sim::{shared_prefix_trace, LengthDist, SharedPrefixConfig};

/// KV group 16 → 16-token blocks: fine-grained enough that a 64-token
/// system prompt spans four shareable blocks while the trace stays small.
const GROUP: usize = 16;
const BLOCK_TOKENS: usize = 16;
/// 64 blocks: each request's lifetime is ~7 blocks/layer × 2 layers = 14,
/// of which the shared prefix is 8–10 once it is cached.
const POOL_BLOCKS: usize = 64;
const MAX_BATCH: usize = 6;

fn serve(
    model: &TransformerModel,
    packed: &mant_model::PackedWeights,
    requests: &[mant_serve::GenRequest],
    prefix_sharing: bool,
) -> ServeReport {
    let mut engine = ServeEngine::new(
        model,
        packed,
        ServeConfig {
            max_batch: MAX_BATCH,
            pool_blocks: POOL_BLOCKS,
            block_tokens: BLOCK_TOKENS,
            act: ActMode::None,
            kv: KvMode::Mant4 { group: GROUP },
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 8,
            },
            prefix_sharing,
            speculative: None,
        },
    );
    for r in requests {
        engine.submit(r.clone());
    }
    engine.run_to_completion()
}

fn shared_prefix_serving(_c: &mut Criterion) {
    let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 4400);
    let packed = model.pack_weights(64).unwrap();
    let cfg = SharedPrefixConfig {
        personas: 3,
        requests_per_persona: 3,
        system_prompt_len: 64,
        persona_prompt_len: 16,
        unique_prompt_len: LengthDist::Uniform { lo: 2, hi: 8 },
        output: LengthDist::Fixed(24),
        arrivals_per_iter: 0.033,
        seed: 4401,
    };
    let trace = shared_prefix_trace(&cfg);
    let requests = requests_from_shared_trace(&cfg, &trace, model.config.vocab, 4402);

    let plain = serve(&model, &packed, &requests, false);
    let shared = serve(&model, &packed, &requests, true);

    let plain_tps = plain.tokens_per_sec();
    let shared_tps = shared.tokens_per_sec();
    println!(
        "prefix_sharing: CoW, sharing off   : {:.1} tok/s, peak {} running, occupancy {:.2}, \
         {}/{} blocks peak, {} preemptions",
        plain_tps,
        plain.peak_running,
        plain.mean_batch_occupancy,
        plain.peak_used_blocks,
        plain.pool_blocks,
        plain.preemptions,
    );
    println!(
        "prefix_sharing: CoW + prefix cache : {:.1} tok/s, peak {} running, occupancy {:.2}, \
         {}/{} blocks peak, hit rate {:.0}% ({} of {} prefill tokens), {} preemptions",
        shared_tps,
        shared.peak_running,
        shared.mean_batch_occupancy,
        shared.peak_used_blocks,
        shared.pool_blocks,
        shared.prefix_hit_rate() * 100.0,
        shared.prefix_cached_tokens,
        shared.prefill_tokens,
        shared.preemptions,
    );
    println!(
        "prefix_sharing: sharing wins {:.2}x tokens/s at {}x vs {}x peak concurrency",
        shared_tps / plain_tps,
        shared.peak_running,
        plain.peak_running,
    );

    // The acceptance claims, pinned in-code.
    assert!(
        shared_tps > plain_tps,
        "prefix sharing ({shared_tps:.1} tok/s) must beat the same pool without it \
         ({plain_tps:.1} tok/s) on the shared-prompt trace"
    );
    assert!(
        shared.prefix_hit_rate() > 0.5,
        "a 9-request trace over a 64-token system prompt must serve most prefill \
         from the cache, got {:.2}",
        shared.prefix_hit_rate(),
    );
    // Sharing and preemption change the schedule, never the tokens.
    let mut a: Vec<_> = plain
        .completions
        .iter()
        .map(|c| (c.id, &c.tokens))
        .collect();
    let mut b: Vec<_> = shared
        .completions
        .iter()
        .map(|c| (c.id, &c.tokens))
        .collect();
    a.sort_by_key(|&(id, _)| id);
    b.sort_by_key(|&(id, _)| id);
    assert_eq!(
        a, b,
        "token streams must be byte-identical with and without sharing"
    );

    // --- Preemption recovery ---
    // A bursty arrival front on a pool half the size forces the scheduler
    // to evict running sequences. Recovery must (a) complete
    // every request byte-identically and (b) re-prefill the victims
    // mostly from the prefix cache — preemption recompute rides the same
    // shared blocks.
    let burst: Vec<mant_serve::GenRequest> = requests
        .iter()
        .map(|r| mant_serve::GenRequest {
            arrival_iter: r.arrival_iter / 8,
            ..r.clone()
        })
        .collect();
    let tight = {
        let mut engine = ServeEngine::new(
            &model,
            &packed,
            ServeConfig {
                max_batch: MAX_BATCH,
                pool_blocks: POOL_BLOCKS / 2,
                block_tokens: BLOCK_TOKENS,
                act: ActMode::None,
                kv: KvMode::Mant4 { group: GROUP },
                admission: AdmissionPolicy::Watermark {
                    watermark_blocks: 4,
                },
                prefix_sharing: true,
                speculative: None,
            },
        );
        for r in &burst {
            engine.submit(r.clone());
        }
        engine.run_to_completion()
    };
    println!(
        "prefix_sharing: preemption recovery: {} preemptions on a {}-block pool, \
         {} recomputed tokens, {} prefill tokens from cache, all {} requests exact",
        tight.preemptions,
        POOL_BLOCKS / 2,
        tight.recomputed_tokens,
        tight.prefix_cached_tokens,
        tight.completions.len(),
    );
    assert!(
        tight.preemptions > 0,
        "a burst into a half-size pool must force preemption"
    );
    let mut t: Vec<_> = tight
        .completions
        .iter()
        .map(|c| (c.id, &c.tokens))
        .collect();
    t.sort_by_key(|&(id, _)| id);
    assert_eq!(
        t, b,
        "preempt-and-recompute must reproduce the exact token streams"
    );
    assert!(
        tight.prefix_cached_tokens > 0,
        "recovery re-prefill should ride the surviving prefix cache"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(400)).warm_up_time(std::time::Duration::from_millis(100));
    targets = shared_prefix_serving
}
criterion_main!(benches);
