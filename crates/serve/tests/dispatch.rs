//! Kernel-dispatch equivalence: the runtime-selected SIMD tier must be an
//! invisible implementation detail. The engine's greedy token streams are
//! byte-identical whether the process runs auto-detected kernels or is
//! pinned to the scalar oracle with `MANT_FORCE_SCALAR=1` — checked by
//! re-running the same workload in a forced-scalar child process and
//! diffing the printed streams. A companion test asserts the dispatch
//! reports the tier this machine's CPU (and the env override) demand.

use std::process::Command;

use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
use mant_numerics::{kernels, scalar_forced, KernelDispatch};
use mant_serve::{
    requests_from_trace, sequential_generate, AdmissionPolicy, ServeConfig, ServeEngine,
};
use mant_sim::{poisson_trace, LengthDist, TraceConfig};

/// One fixed serving workload that exercises every SIMD path: packed MANT
/// GEMV/GEMM (weights), INT8 activation quantization (A8 mode), and
/// decode attention over the MANT4 KV cache (the block sweep, softmax and
/// the staged `P·V`).
fn engine_streams() -> Vec<(u64, Vec<usize>)> {
    let cfg = ModelConfig::sim_llama();
    let model = TransformerModel::synthesize(&cfg, 4242);
    let packed = model.pack_weights(64).unwrap();
    let act = ActMode::IntGroup { bits: 8, group: 64 };
    let kv = KvMode::Mant4 { group: 64 };
    let trace = poisson_trace(&TraceConfig {
        requests: 5,
        arrivals_per_iter: 0.5,
        prompt: LengthDist::Uniform { lo: 3, hi: 9 },
        output: LengthDist::Uniform { lo: 2, hi: 6 },
        seed: 0x51d,
    });
    let requests = requests_from_trace(&trace, cfg.vocab, 0xd15b);

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

    // The engine must also match the sequential baseline *within* this
    // process, whatever tier is active.
    let (baseline, _) = sequential_generate(&model, &packed, act, kv, &requests);
    let mut streams: Vec<(u64, Vec<usize>)> = report
        .completions
        .iter()
        .map(|c| (c.id, c.tokens.clone()))
        .collect();
    streams.sort();
    for (id, tokens) in &streams {
        assert_eq!(tokens, &baseline[*id as usize], "request {id}");
    }
    streams
}

/// Serialises streams one request per line: `id:t0,t1,...`.
fn render(streams: &[(u64, Vec<usize>)]) -> String {
    streams
        .iter()
        .map(|(id, toks)| {
            let toks: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
            format!("{id}:{}", toks.join(","))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Child half of the cross-process check: prints this process's streams
/// between markers. Ignored by default; the parent test below runs it in a
/// subprocess with `MANT_FORCE_SCALAR=1`.
#[test]
#[ignore = "spawned as a forced-scalar subprocess by token_streams_identical_across_tiers"]
fn child_print_streams() {
    println!("STREAMS-BEGIN");
    println!("{}", render(&engine_streams()));
    println!("STREAMS-END tier={}", kernels().name());
}

/// The tentpole contract: auto-dispatched kernels (AVX2 on CI) produce
/// byte-for-byte the token streams of the scalar oracle.
#[test]
fn token_streams_identical_across_tiers() {
    let here = render(&engine_streams());

    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "child_print_streams", "--ignored", "--nocapture"])
        .env("MANT_FORCE_SCALAR", "1")
        .output()
        .expect("spawn forced-scalar child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "forced-scalar child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let begin = stdout.find("STREAMS-BEGIN").expect("begin marker") + "STREAMS-BEGIN\n".len();
    let end = stdout.find("STREAMS-END").expect("end marker");
    let child = stdout[begin..end].trim_end();
    assert!(
        stdout.contains("STREAMS-END tier=scalar"),
        "child must run the scalar tier, got:\n{stdout}"
    );
    assert_eq!(
        child,
        here,
        "token streams diverged between tier {} and the forced-scalar child",
        kernels().name()
    );
}

/// The dispatch must report exactly the tier this environment demands:
/// scalar when `MANT_FORCE_SCALAR` pins it, otherwise AVX2 where the CPU
/// has it and scalar elsewhere. On CI (x86_64 AVX2 runners) the auto tier
/// is `avx2`.
#[test]
fn dispatch_reports_expected_tier() {
    let expected = if scalar_forced() {
        KernelDispatch::Scalar
    } else {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                KernelDispatch::Avx2
            } else {
                KernelDispatch::Scalar
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            KernelDispatch::Scalar
        }
    };
    assert_eq!(kernels(), expected);
    assert_ne!(KernelDispatch::detect(), KernelDispatch::Ssse3);
}
