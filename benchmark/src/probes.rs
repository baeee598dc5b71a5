//! Per-layer probes: direct calls into each crate's public functions on
//! fixed shapes. A probe's value is the best of five medians — the median
//! absorbs a stray slow call, the best-of absorbs a slow stretch of the
//! host.

use std::hint::black_box;
use std::time::Instant;

use mant_gateway::{GenerateBody, Limits};
use mant_model::SessionId;
use mant_numerics::{kernels, KernelDispatch};
use mant_quant::{
    attention_incremental_paged, mant_gemm, mant_gemv, mant_gemv_batch, quantize_activations_int8,
    quantize_vector_int8, CandidateSet, KvCachePool, MantQuantizedMatrix, MantWeightQuantizer,
    PagedKvCache, PoolConfig, QuantizedVector, VarianceMap,
};
use mant_tensor::{matvec_batch, TensorGenerator};

use crate::stack::{Stack, ACT, BLOCK_TOKENS, KV};
use crate::stats::median;
use crate::workload::{wire_bytes, RequestSet, VOCAB};

const BATCHES: usize = 5;
const GROUP: usize = 64;
/// Side of the LLaMA-7B-sized projection.
const BIG: usize = 4096;

/// Best over [`BATCHES`] of the median of `calls` timed calls of `f`, in
/// nanoseconds per call. `reset` runs untimed after each batch; both get
/// the probe's state.
fn best_median_ns<S>(
    state: &mut S,
    calls: usize,
    mut f: impl FnMut(&mut S),
    mut reset: impl FnMut(&mut S),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let samples: Vec<f64> = (0..calls)
            .map(|_| {
                let t = Instant::now();
                f(state);
                t.elapsed().as_nanos() as f64
            })
            .collect();
        reset(state);
        best = best.min(median(&samples).expect("calls > 0"));
    }
    best
}

/// A stateless probe.
fn time_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    best_median_ns(&mut (), calls, |()| f(), |()| {})
}

/// For calls too short to time one by one: `reps` back-to-back per timed
/// sample, reported per call.
fn time_ns_repeated(calls: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    time_ns(calls, || {
        for _ in 0..reps {
            f();
        }
    }) / reps as f64
}

fn token(i: usize, j: usize) -> usize {
    (i * 131 + j * 37 + 1) % VOCAB
}

/// `BatchRunner::step` with `batch` sessions each holding `ctx` tokens,
/// microseconds per step.
fn step_us(stack: &Stack, batch: usize, ctx: usize) -> f64 {
    const CALLS: usize = 9;
    let per_seq = stack.model.config.layers * (ctx + CALLS).div_ceil(BLOCK_TOKENS);
    let mut runner =
        stack
            .model
            .batch_runner(&stack.packed, ACT, KV, batch * per_seq, BLOCK_TOKENS);
    let ids: Vec<SessionId> = (0..batch).map(|_| runner.create_session()).collect();
    let feed = |j: usize| -> Vec<(SessionId, usize)> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| (id, token(i, j)))
            .collect()
    };
    for j in 0..ctx {
        runner.step(&feed(j));
    }
    let ns = best_median_ns(
        &mut (runner, ctx),
        CALLS,
        |(runner, j)| {
            black_box(runner.step(&feed(*j)));
            *j += 1;
        },
        // Back to `ctx` tokens, so every batch times the same context.
        |(runner, j)| {
            for &id in &ids {
                runner.truncate_session(id, ctx);
            }
            *j = ctx;
        },
    );
    ns / 1e3
}

fn model_probes(stack: &Stack, out: &mut Vec<(&'static str, f64)>) {
    out.push(("model.step_b1_ctx64_us", step_us(stack, 1, 64)));
    out.push(("model.step_b2_ctx64_us", step_us(stack, 2, 64)));
    out.push(("model.step_b4_ctx64_us", step_us(stack, 4, 64)));
    out.push(("model.step_b8_ctx64_us", step_us(stack, 8, 64)));
    out.push(("model.step_b1_ctx1024_us", step_us(stack, 1, 1024)));

    // One session, eight tokens in one call; per token.
    {
        let blocks = stack.model.config.layers * 3;
        let mut runner = stack
            .model
            .batch_runner(&stack.packed, ACT, KV, blocks, BLOCK_TOKENS);
        let id = runner.create_session();
        for j in 0..64 {
            runner.step(&[(id, token(0, j))]);
        }
        let chunk: Vec<usize> = (64..72).map(|j| token(0, j)).collect();
        let ns = time_ns(5, || {
            black_box(runner.step_multi(id, &chunk));
            runner.truncate_session(id, 64);
        });
        out.push(("model.step_multi_k8_us", ns / 1e3 / chunk.len() as f64));
    }

    // A 512-token prompt the way the engine feeds it today: one token per
    // step. Best of three whole prefills (a median of several would cost
    // seconds).
    {
        let blocks = stack.model.config.layers * 512usize.div_ceil(BLOCK_TOKENS);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut runner = stack
                .model
                .batch_runner(&stack.packed, ACT, KV, blocks, BLOCK_TOKENS);
            let id = runner.create_session();
            let t = Instant::now();
            for j in 0..512 {
                black_box(runner.step(&[(id, token(0, j))]));
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        out.push(("model.prefill512_ms", best));
    }

    // The sequential oracle path over the same packed weights.
    {
        let mut runner = stack.model.packed_runner(&stack.packed, ACT, KV);
        for j in 0..64 {
            runner.step(token(0, j));
        }
        let mut j = 64;
        let ns = time_ns(9, || {
            black_box(runner.step(token(0, j)));
            j += 1;
        });
        out.push(("model.runner_step_us", ns / 1e3));
    }
}

fn quantized(gen: &mut TensorGenerator, rows: usize, cols: usize) -> MantQuantizedMatrix {
    let w = gen.group_diverse_matrix(rows, cols, GROUP, 0.02);
    MantWeightQuantizer::new(GROUP)
        .par_quantize(&w)
        .expect("group divides the width")
}

fn int8_vector(gen: &mut TensorGenerator, len: usize) -> QuantizedVector {
    let x: Vec<f32> = (0..len).map(|_| gen.standard_normal()).collect();
    quantize_vector_int8(&x, GROUP).expect("group divides the length")
}

fn gemm_probes(stream_gbps: f64, out: &mut Vec<(&'static str, f64)>) {
    let mut gen = TensorGenerator::new(1001);
    // The sim model's widest projection: 512 inputs, 256 outputs.
    let w = quantized(&mut gen, 256, 512);
    let x1 = int8_vector(&mut gen, 512);
    let x4: Vec<QuantizedVector> = (0..4).map(|_| int8_vector(&mut gen, 512)).collect();
    let x32 = quantize_activations_int8(&gen.activation_matrix(32, 512, 1.0, 0.01, 15.0), GROUP)
        .expect("group divides the width");
    out.push((
        "quant.gemv_512x256_us",
        time_ns(50, || drop(black_box(mant_gemv(black_box(&x1), &w)))) / 1e3,
    ));
    out.push((
        "quant.gemv_batch4_512x256_us",
        time_ns(30, || drop(black_box(mant_gemv_batch(black_box(&x4), &w)))) / 1e3,
    ));
    out.push((
        "quant.gemm_m32_512x256_us",
        time_ns(10, || drop(black_box(mant_gemm(black_box(&x32), &w)))) / 1e3,
    ));

    // What `pack_weights` runs per projection at set-up.
    let dense = gen.group_diverse_matrix(256, 512, GROUP, 0.02);
    let ns = time_ns(3, || {
        black_box(MantWeightQuantizer::new(GROUP).par_quantize(black_box(&dense))).ok();
    });
    out.push((
        "quant.encode_mgroups_per_s",
        (256 * 512 / GROUP) as f64 / ns * 1e3,
    ));

    // One projection of a LLaMA-7B layer: the packed weights (8 MiB) no
    // longer fit the private caches, so the GEMV streams them from memory.
    // Three candidate types keep the per-group decode tables varied while
    // the encode search (not what is timed) stays short.
    let few = CandidateSet::custom(&[17, 60], true).expect("coefficients below 128");
    let big = MantQuantizedMatrix::par_quantize(
        &gen.group_diverse_matrix(BIG, BIG, GROUP, 0.02),
        GROUP,
        &few,
    )
    .expect("group divides the width");
    let xb = int8_vector(&mut gen, BIG);
    let ns = time_ns(5, || drop(black_box(mant_gemv(black_box(&xb), &big))));
    // Bytes moved are computed from tensor sizes, not counted.
    let gbps = (big.storage_bits() / 8) as f64 / ns;
    out.push(("quant.gemv_4096x4096_us", ns / 1e3));
    out.push(("quant.gemv_4096_gbps", gbps));
    out.push(("quant.gemv_4096_roofline_share", gbps / stream_gbps));
}

fn kv_probes(out: &mut Vec<(&'static str, f64)>) {
    // sim_llama's cache geometry: 4 KV heads of 64.
    const KV_DIM: usize = 256;
    const HEADS: usize = 4;
    const HEAD_DIM: usize = 64;
    let map = VarianceMap::analytic(&CandidateSet::paper()).expect("non-empty set");
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim: KV_DIM,
        group_size: GROUP,
        block_tokens: BLOCK_TOKENS,
        blocks: 48,
    })
    .expect("valid geometry");
    let mut gen = TensorGenerator::new(2002);
    let rows = gen.group_diverse_matrix(1024 + 64, KV_DIM, GROUP, 0.5);
    let q: Vec<f32> = (0..KV_DIM).map(|_| gen.standard_normal()).collect();
    // Row r is the key, row r+1 the value of token r.
    let push = |cache: &mut PagedKvCache, pool: &mut KvCachePool, r: usize| {
        cache
            .push(pool, rows.row(r), rows.row(r + 1))
            .expect("the pool has room");
    };
    let attend = |cache: &PagedKvCache, pool: &KvCachePool, calls: usize| {
        time_ns(calls, || {
            black_box(attention_incremental_paged(
                black_box(&q),
                cache,
                pool,
                HEADS,
                HEADS,
                HEAD_DIM,
            ));
        })
    };

    let mut cache = PagedKvCache::new(&pool, map.clone(), map.clone());
    for r in 0..64 {
        push(&mut cache, &mut pool, r);
    }
    out.push(("quant.attn_ctx64_us", attend(&cache, &pool, 30) / 1e3));

    // One token's K and V written at context 64..112 (resetting before
    // the V window commit at 128).
    let ns = best_median_ns(
        &mut (&mut cache, &mut pool, 64usize),
        48,
        |(cache, pool, r)| {
            push(cache, pool, *r);
            *r += 1;
        },
        |(cache, pool, r)| {
            cache.truncate(pool, 64);
            *r = 64;
        },
    );
    out.push(("quant.kv_push_us", ns / 1e3));

    for r in 64..1024 {
        push(&mut cache, &mut pool, r);
    }
    let ns = attend(&cache, &pool, 9);
    out.push(("quant.attn_ctx1024_us", ns / 1e3));
    // Packed K and V bytes the step reads, from the block geometry.
    let bytes = (cache.reserved_blocks() * pool.block_bits() / 8) as f64;
    out.push(("quant.attn_ctx1024_gbps", bytes / ns));

    // What a prefix hit plus a preemption costs the pool: share a
    // 200-token cache, cut the copy back to the shared 192, let it go.
    let mut base = PagedKvCache::new(&pool, map.clone(), map);
    for r in 0..200 {
        push(&mut base, &mut pool, r);
    }
    let ns = time_ns(50, || {
        let mut child = base.fork(&mut pool);
        child.truncate(&mut pool, 192);
        child.release(&mut pool);
    });
    out.push(("quant.fork_truncate_us", ns / 1e3));
}

fn small_probes(out: &mut Vec<(&'static str, f64)>) {
    let mut gen = TensorGenerator::new(3003);
    let tier = kernels();
    out.push((
        "numerics.kernel_tier",
        match tier {
            KernelDispatch::Scalar => 0.0,
            KernelDispatch::Ssse3 => 1.0,
            KernelDispatch::Avx2 => 2.0,
        },
    ));
    let w = quantized(&mut gen, 4, 64);
    let x = int8_vector(&mut gen, 64);
    let (codes, packed, lut) = (
        x.group_codes(0),
        w.packed_group_codes(0, 0),
        w.plan_table(0, 0),
    );
    out.push((
        "numerics.dot_packed_ns",
        time_ns_repeated(20, 1000, || {
            black_box(tier.dot_packed(black_box(codes), black_box(packed), lut));
        }),
    ));
    let xs: Vec<f32> = (0..256).map(|_| gen.standard_normal()).collect();
    let mut q = vec![0i8; 256];
    out.push((
        "numerics.quantize_i8_ns",
        time_ns_repeated(20, 200, || {
            tier.quantize_i8(black_box(&xs), 0.031, &mut q);
            black_box(&q);
        }),
    ));

    // The lm_head: vocab 512 × hidden 256 in f32, one row of logits.
    let head = gen.group_diverse_matrix(512, 256, GROUP, 0.02);
    let h: Vec<f32> = (0..256).map(|_| gen.standard_normal()).collect();
    out.push((
        "tensor.lm_head_matvec_us",
        time_ns(50, || {
            drop(black_box(matvec_batch(&head, black_box(&[&h[..]]))))
        }) / 1e3,
    ));

    mant_trace::set_enabled(false);
    out.push((
        "trace.disabled_span_ns",
        time_ns_repeated(20, 10_000, || {
            black_box(&mant_trace::span("benchmark.disabled"));
        }),
    ));
}

/// What a gateway worker does to a request before the engine sees it:
/// `read_request` plus `GenerateBody::parse`, on this workload's bodies.
fn parse_probe(set: &RequestSet, out: &mut Vec<(&'static str, f64)>) {
    let limits = Limits::default();
    let wire: Vec<Vec<u8>> = set.requests.iter().take(32).map(wire_bytes).collect();
    let mut i = 0;
    let ns = time_ns(wire.len() * 4, || {
        let request = mant_gateway::http::read_request(&mut &wire[i % wire.len()][..], &limits)
            .expect("well-formed request")
            .expect("one request");
        black_box(GenerateBody::parse(&request.body).expect("well-formed body"));
        i += 1;
    });
    out.push(("gateway.parse_us", ns / 1e3));
}

/// Every probe, as `(metric, value)`.
pub fn run(stack: &Stack, set: &RequestSet, stream_gbps: f64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    parse_probe(set, &mut out);
    model_probes(stack, &mut out);
    gemm_probes(stream_gbps, &mut out);
    kv_probes(&mut out);
    small_probes(&mut out);
    out
}
