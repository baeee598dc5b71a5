//! Speculative-decoding throughput: draft-and-verify vs target-only
//! greedy decode, both through the serving engine.
//!
//! Decode is GEMV-bound: every token pays one full pass of single-row
//! matvecs. A draft-and-verify round replaces `k` of those passes with
//! `k` *shallow* draft passes plus **one** `k`-token verify run in the
//! tick's target step — the multi-row GEMM shape the SIMD kernel tier is
//! measurably better at than `k` separate GEMVs. The net win is
//! `(accepted + 1)` tokens per round against `k · draft_cost +
//! verify_cost`, so it scales with the draft agreement the synthetic
//! pair's tail ratio dials in.
//!
//! The bench serves the same single request with [`ServeEngine::new`] and
//! with [`ServeEngine::new_with_draft`] at `draft_k ∈ {2, 4, 8}`, asserts
//! the streams are byte-identical (speculation must never change
//! outputs), and reports acceptance rate, net tokens/s and the per-tick
//! draft / step / rollback phases to `BENCH_spec.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

use mant_model::{
    synthesize_speculative_pair, ActMode, DraftConfig, FfnKind, KvMode, ModelConfig, PackedWeights,
    TransformerModel,
};
use mant_numerics::kernels;
use mant_serve::{
    AdmissionPolicy, GenRequest, ServeConfig, ServeEngine, ServeReport, SpeculativeConfig,
};

const HIDDEN: usize = 768;
const LAYERS: usize = 10;
const DRAFT_LAYERS: usize = 1;
const TAIL_RATIO: f32 = 0.02;
const WEIGHT_GROUP: usize = 64;
const KV_GROUP: usize = 64;
const POOL_BLOCKS: usize = 64;
const BLOCK_TOKENS: usize = 64;
const PROMPT_LEN: usize = 16;
const DECODE_LEN: usize = 100;
const DRAFT_KS: [usize; 3] = [2, 4, 8];

/// One speculative measurement: (drafted, accepted, decode seconds,
/// [draft, step, rollback] ns summed over the decode ticks, same-rep
/// net-speedup ratio).
type SpecRep = (u64, u64, f64, [u64; 3], f64);

fn model_config() -> ModelConfig {
    ModelConfig {
        name: "spec-bench".to_owned(),
        hidden: HIDDEN,
        heads: 12,
        kv_heads: 12,
        layers: LAYERS,
        ffn: 1536,
        vocab: 512,
        ffn_kind: FfnKind::GatedSilu,
    }
}

fn serve_config(draft_k: Option<usize>) -> ServeConfig {
    ServeConfig {
        max_batch: 1,
        pool_blocks: POOL_BLOCKS,
        block_tokens: BLOCK_TOKENS,
        act: ActMode::None,
        kv: KvMode::Int4 { group: KV_GROUP },
        admission: AdmissionPolicy::Watermark {
            watermark_blocks: 4,
        },
        prefix_sharing: false,
        speculative: draft_k.map(|draft_k| SpeculativeConfig { draft_k }),
    }
}

/// Serves the bench's one request (a `PROMPT_LEN`-token prompt,
/// `DECODE_LEN` greedy tokens) to completion; returns the report, its wall
/// seconds those of the decode phase (the tick that prefills the prompt
/// excluded), and the decode ticks' step-phase nanoseconds.
fn serve(mut engine: ServeEngine<'_>) -> (ServeReport, u64) {
    engine.submit(GenRequest {
        id: 0,
        prompt: (0..PROMPT_LEN).map(|i| (i * 37 + 3) % 512).collect(),
        max_new_tokens: DECODE_LEN,
        arrival_iter: 0,
        deadline_iter: None,
    });
    // The whole prompt is one run: this tick emits the first token.
    assert_eq!(engine.tick(), 1, "the prompt prefills in one tick");
    let prefill_step_ns = engine.report(0.0).breakdown.step.sum;
    let t0 = Instant::now();
    while engine.pending() > 0 {
        engine.tick();
    }
    let report = engine.report(t0.elapsed().as_secs_f64());
    let step_ns = report.breakdown.step.sum - prefill_step_ns;
    (report, step_ns)
}

/// Target-only greedy decode: the stream and the decode-phase seconds.
fn run_target_only(target: &TransformerModel, packed: &PackedWeights) -> (Vec<usize>, f64) {
    let (report, _) = serve(ServeEngine::new(target, packed, serve_config(None)));
    (report.completions[0].tokens.clone(), report.wall_seconds)
}

/// Speculative greedy decode with draft-and-verify rounds of up to `k`
/// candidates; returns the stream, drafted/accepted counts, decode-phase
/// seconds and the decode ticks' [draft, step, rollback] nanoseconds (the
/// step phase holds the draft passes and the target pass that verifies
/// them).
fn run_speculative(
    target: &TransformerModel,
    packed: &PackedWeights,
    draft: &TransformerModel,
    draft_packed: &PackedWeights,
    k: usize,
) -> (Vec<usize>, u64, u64, f64, [u64; 3]) {
    let (report, step_ns) = serve(ServeEngine::new_with_draft(
        target,
        packed,
        draft,
        draft_packed,
        serve_config(Some(k)),
    ));
    let spec = report.speculation.expect("speculative engine");
    let phases = [spec.draft_ns.sum, step_ns, spec.rollback_ns.sum];
    let tokens = report.completions[0].tokens.clone();
    (
        tokens,
        spec.drafted,
        spec.accepted,
        report.wall_seconds,
        phases,
    )
}

fn bench_spec_decode(_c: &mut Criterion) {
    let cfg = model_config();
    let (target, draft) = synthesize_speculative_pair(
        &cfg,
        77,
        &DraftConfig {
            layers: DRAFT_LAYERS,
            tail_block_ratio: TAIL_RATIO,
        },
    );
    let packed = target.pack_weights(WEIGHT_GROUP).expect("packs");
    let draft_packed = draft.pack_weights(WEIGHT_GROUP).expect("packs");

    // Warm up everything once (allocator, page cache, clock governor),
    // then interleave baseline and speculative repetitions so CPU clock
    // drift across the run hits both sides evenly; keep each side's best.
    let (base_tokens, _) = run_target_only(&target, &packed);
    for &k in &DRAFT_KS {
        run_speculative(&target, &packed, &draft, &draft_packed, k);
    }
    // Speedups are computed *within* a repetition — the baseline and the
    // speculative runs it is compared against execute back-to-back, so
    // they share whatever CPU clock regime the machine is in. Taking each
    // side's minimum across all reps independently would pair
    // measurements from different regimes and swing the ratio by more
    // than the effect. The *median* same-regime pairing is reported (the
    // honest central estimate); the floor asserts on the *best* pairing
    // so one mid-rep clock shift cannot fail CI.
    let mut base_secs = f64::INFINITY;
    let mut reps: Vec<Vec<SpecRep>> = vec![Vec::new(); DRAFT_KS.len()];
    for _ in 0..4 {
        let (tokens, rep_base) = run_target_only(&target, &packed);
        assert_eq!(tokens, base_tokens, "target-only decode is deterministic");
        base_secs = base_secs.min(rep_base);
        for (ki, &k) in DRAFT_KS.iter().enumerate() {
            let (tokens, d, a, s, p) = run_speculative(&target, &packed, &draft, &draft_packed, k);
            assert_eq!(
                tokens, base_tokens,
                "speculative decode at k={k} changed the greedy stream"
            );
            reps[ki].push((d, a, s, p, rep_base / s));
        }
    }
    let base_tps = (DECODE_LEN - 1) as f64 / base_secs;
    println!(
        "spec_decode: target-only {LAYERS}-layer decode: {base_tps:.1} tok/s \
         ({DECODE_LEN} tokens)"
    );

    // (k, acceptance, tok/s, median net speedup, best net speedup,
    // [draft, step, rollback] ms of the median rep's decode ticks).
    let mut rows: Vec<(usize, f64, f64, f64, f64, [f64; 3])> = Vec::new();
    for (ki, &k) in DRAFT_KS.iter().enumerate() {
        reps[ki].sort_by(|a, b| a.4.total_cmp(&b.4));
        let best_ratio = reps[ki].last().expect("4 reps ran").4;
        let (drafted, accepted, secs, phases, speedup) = reps[ki][reps[ki].len() / 2];
        let acceptance = accepted as f64 / drafted.max(1) as f64;
        let tps = (DECODE_LEN - 1) as f64 / secs;
        let [draft_ms, step_ms, rollback_ms] = phases.map(|ns| ns as f64 / 1e6);
        println!(
            "spec_decode: draft_k={k}: acceptance {:.1}%, {tps:.1} tok/s, \
             net {speedup:.2}x median / {best_ratio:.2}x best \
             (step {step_ms:.1}ms, of it draft {draft_ms:.1}ms; rollback {rollback_ms:.1}ms)",
            acceptance * 100.0,
        );
        rows.push((
            k,
            acceptance,
            tps,
            speedup,
            best_ratio,
            [draft_ms, step_ms, rollback_ms],
        ));
    }

    let best = rows
        .iter()
        .map(|&(_, _, _, _, s, _)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    // Non-regression floor: with SIMD kernels the k-token verify GEMM
    // must beat k GEMVs decisively enough for a net win at the best k;
    // the scalar oracle has no GEMM advantage, so it only needs to stay
    // near break-even (round bookkeeping must not be ruinous).
    let scalar = kernels().name() == "scalar";
    let floor = if scalar { 0.9 } else { 1.2 };
    assert!(
        best >= floor,
        "speculative decoding lost its net win ({} tier): best {best:.2}x < {floor}x",
        kernels().name()
    );

    let rows_json: Vec<String> = rows
        .iter()
        .map(
            |(k, acc, tps, speedup, best_ratio, [draft_ms, step_ms, rollback_ms])| {
                format!(
                    "    {{\"draft_k\": {k}, \"acceptance\": {acc:.4}, \
                 \"tokens_per_s\": {tps:.1}, \"net_speedup\": {speedup:.3}, \
                 \"best_net_speedup\": {best_ratio:.3}, \"draft_ms\": {draft_ms:.2}, \
                 \"step_ms\": {step_ms:.2}, \"rollback_ms\": {rollback_ms:.2}}}"
                )
            },
        )
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"spec_decode\",\n  \"tier\": \"{}\",\n  \
         \"shape\": {{\"hidden\": {HIDDEN}, \"layers\": {LAYERS}, \
         \"draft_layers\": {DRAFT_LAYERS}, \"tail_block_ratio\": {TAIL_RATIO}, \
         \"weight_group\": {WEIGHT_GROUP}, \"kv_group\": {KV_GROUP}}},\n  \
         \"decode_tokens\": {DECODE_LEN},\n  \
         \"target_only_tokens_per_s\": {base_tps:.1},\n  \"rounds\": [\n{}\n  ],\n  \
         \"best_net_speedup\": {best:.3},\n  \"speedup_floor\": {floor}\n}}\n",
        kernels().name(),
        rows_json.join(",\n"),
    );
    // Same anchoring as the other BENCH_*.json perf-trajectory artifacts:
    // the workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spec.json");
    std::fs::write(path, &json).expect("write BENCH_spec.json");
    println!("wrote BENCH_spec.json (workspace root)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_spec_decode
}
criterion_main!(benches);
