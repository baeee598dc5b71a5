//! Calls into the program under test: build the model, run one round of
//! a workload over loopback sockets, or drive a `ServeEngine` in-process
//! with the same arrival discipline. Everything is measured from outside,
//! by timing calls into public functions.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mant_gateway::{GatewayConfig, GenerateBody, Limits};
use mant_model::{ActMode, KvMode, ModelConfig, PackedWeights, TransformerModel};
use mant_serve::{AdmissionPolicy, EngineEvent, GenRequest, ServeConfig, ServeEngine, ServeReport};
use mant_trace::Aggregate;

use crate::spans::Recorder;
use crate::sse::{self, End};
use crate::workload::{wire_bytes, Arrival, RequestSet, Spec, CLIENTS};

pub const ACT: ActMode = ActMode::None;
pub const KV: KvMode = KvMode::Mant4 { group: 64 };
pub const BLOCK_TOKENS: usize = 64;
const WEIGHT_GROUP: usize = 64;
const MODEL_SEED: u64 = 7;

/// The model every workload serves: the configuration every existing
/// bench, example and CHANGES.md figure of the repo uses.
pub struct Stack {
    pub model: TransformerModel,
    pub packed: PackedWeights,
}

impl Stack {
    pub fn build() -> Stack {
        let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), MODEL_SEED);
        let packed = model
            .pack_weights(WEIGHT_GROUP)
            .expect("64 divides every sim_llama layer width");
        Stack { model, packed }
    }

    pub fn serve_config(&self, spec: &Spec) -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            pool_blocks: spec.pool_blocks,
            block_tokens: BLOCK_TOKENS,
            act: ACT,
            kv: KV,
            admission: AdmissionPolicy::Watermark {
                watermark_blocks: 4,
            },
            prefix_sharing: spec.prefix_sharing,
            speculative: None,
        }
    }

    fn gateway_config(&self, spec: &Spec) -> GatewayConfig {
        GatewayConfig {
            workers: CLIENTS,
            // End-to-end numbers always come from untraced runs, whatever
            // MANT_TRACE says in the environment.
            trace: false,
            ..GatewayConfig::new(self.serve_config(spec))
        }
    }
}

/// What the load generator saw of one request.
#[derive(Clone, Debug)]
pub struct Observed {
    /// Latencies count from here: the scheduled send instant in an open
    /// loop (so a stall charges the requests queued behind it), the
    /// actual send or submit instant otherwise.
    pub reference: Instant,
    /// How far behind its schedule the generator sent this request.
    pub late: Duration,
    pub tokens: Vec<usize>,
    pub arrivals: Vec<Instant>,
    pub ended: Instant,
    /// Ended with the `done` event (exact token count is checked later).
    pub done: bool,
}

impl Observed {
    fn unsent(at: Instant) -> Observed {
        Observed {
            reference: at,
            late: Duration::ZERO,
            tokens: Vec::new(),
            arrivals: Vec::new(),
            ended: at,
            done: false,
        }
    }
}

/// Transport-level counts of one gateway lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayCounts {
    pub accepted: u64,
    pub rejected_busy: u64,
    pub rejected_other: u64,
}

/// One round of one workload, as measured.
pub struct Round {
    pub wall_s: f64,
    /// Indexed like the request set.
    pub observed: Vec<Observed>,
    pub report: ServeReport,
    pub gateway: Option<GatewayCounts>,
    /// `/healthz` round-trip times taken before the load starts.
    pub healthz_ms: Vec<f64>,
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        thread::sleep(at - now);
    }
}

/// Polls `/healthz` until it answers 200.
pub fn wait_healthy(addr: SocketAddr) -> io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match sse::get_status(addr, "/healthz") {
            Ok(200) => return Ok(()),
            _ if Instant::now() > give_up => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "gateway never became healthy",
                ))
            }
            _ => thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn send(addr: SocketAddr, body: &str, reference: Instant, late: Duration) -> Observed {
    match sse::generate(addr, body) {
        Ok(s) => Observed {
            reference,
            late,
            done: s.end == End::Done,
            tokens: s.tokens,
            arrivals: s.arrivals,
            ended: s.ended,
        },
        // A connection the gateway never answered is a failed request,
        // not a reason to abandon the round.
        Err(_) => Observed {
            late,
            ..Observed::unsent(reference)
        },
    }
}

/// Runs `set` once against a fresh gateway over loopback sockets with
/// [`CLIENTS`] blocking client threads inside this process.
pub fn socket_round(
    stack: &Stack,
    spec: &Spec,
    set: &RequestSet,
    healthz_probes: usize,
) -> io::Result<Round> {
    assert!(spec.via_gateway && set.arrival != Arrival::Batch);
    let n = set.requests.len();
    let ((wall_s, observed, healthz_ms), report) = mant_gateway::serve(
        &stack.model,
        &stack.packed,
        stack.gateway_config(spec),
        |gw| {
            let addr = gw.addr();
            wait_healthy(addr).expect("loopback gateway answers /healthz");
            let healthz_ms: Vec<f64> = (0..healthz_probes)
                .filter_map(|_| {
                    let t = Instant::now();
                    let ok = sse::get_status(addr, "/healthz").ok()? == 200;
                    ok.then(|| t.elapsed().as_secs_f64() * 1e3)
                })
                .collect();

            let t0 = Instant::now();
            let next = AtomicUsize::new(0);
            let per_client: Vec<Vec<(usize, Observed)>> = thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let next = &next;
                        scope.spawn(move || {
                            let mut seen = Vec::new();
                            match &set.arrival {
                                Arrival::Open { due_s } => loop {
                                    let i = next.fetch_add(1, Ordering::SeqCst);
                                    if i >= n {
                                        break;
                                    }
                                    let due = t0 + Duration::from_secs_f64(due_s[i]);
                                    sleep_until(due);
                                    let late = Instant::now().saturating_duration_since(due);
                                    seen.push((i, send(addr, &set.requests[i].body, due, late)));
                                },
                                Arrival::Closed { lanes } => {
                                    for &i in &lanes[c] {
                                        let at = Instant::now();
                                        let body = &set.requests[i].body;
                                        seen.push((i, send(addr, body, at, Duration::ZERO)));
                                    }
                                }
                                Arrival::Batch => unreachable!("checked above"),
                            }
                            seen
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let mut observed = vec![Observed::unsent(t0); n];
            for (i, o) in per_client.into_iter().flatten() {
                observed[i] = o;
            }
            (wall_s, observed, healthz_ms)
        },
    )?;
    Ok(Round {
        wall_s,
        observed,
        gateway: Some(GatewayCounts {
            accepted: report.accepted,
            rejected_busy: report.rejected_busy,
            rejected_other: report.rejected_shutdown
                + report.rejected_parse
                + report.rejected_submit,
        }),
        report: report.serve,
        healthz_ms,
    })
}

/// What an in-process drive measured beyond the round itself.
pub struct Drive {
    pub round: Round,
    /// Nanoseconds around each `try_submit` / `tick` call.
    pub submit_ns: Vec<u64>,
    pub tick_ns: Vec<u64>,
    /// The program's own recorder output, from the blocks it was on for.
    pub kernel: Option<Aggregate>,
}

/// A replay that reads the program's own recorder switches it on and off
/// in blocks of this many ticks, starting on, and drains the trace rings
/// at every switch. Draining only at the end overflows the rings and drops
/// most events, which makes the kernel shares meaningless; the off blocks,
/// next to the on blocks in time, are what the recorder's cost is read
/// against.
pub const RECORDER_BLOCK_TICKS: usize = 8;

/// Drives a `ServeEngine` through `set` with the benchmark's own loop —
/// parse (for gateway workloads), `try_submit`, `tick`, `drain_events` —
/// under the same arrival discipline as the socket round: the schedule
/// with at most [`CLIENTS`] in flight, one request per lane, or
/// everything at t=0. `rec` gets a span around every call; `kernel_trace`
/// also switches the program's existing recorder on for every other block
/// of [`RECORDER_BLOCK_TICKS`] ticks.
pub fn drive(
    stack: &Stack,
    spec: &Spec,
    set: &RequestSet,
    rec: &mut Recorder,
    kernel_trace: bool,
) -> Drive {
    let n = set.requests.len();
    // Built ahead, so the parse span times parsing alone.
    let wire: Vec<Vec<u8>> = set.requests.iter().map(wire_bytes).collect();
    let limits = Limits::default();
    let mut engine = ServeEngine::new(&stack.model, &stack.packed, stack.serve_config(spec));
    engine.enable_events();
    let mut kernel = kernel_trace.then(|| {
        mant_trace::drain(); // discard whatever earlier rounds left behind
        mant_trace::set_enabled(true);
        Aggregate::new()
    });

    let (mut submit_ns, mut tick_ns) = (Vec::with_capacity(n), Vec::new());
    let t0 = Instant::now();
    let mut observed = vec![Observed::unsent(t0); n];
    let mut in_flight = 0usize;
    let mut finished = 0usize;
    // Open loop: next schedule index. Closed loop: per-lane cursor and
    // whether the lane has a request in flight. Batch: submitted or not.
    let mut next_due = 0usize;
    let lanes: &[Vec<usize>] = match &set.arrival {
        Arrival::Closed { lanes } => lanes,
        _ => &[],
    };
    let mut cursor = vec![0usize; lanes.len()];
    let mut lane_of = vec![usize::MAX; n];
    let mut lane_busy = vec![false; lanes.len()];
    let mut submitted = 0usize;

    rec.enter("replay", None);
    loop {
        // Which requests arrive now, and from when their latency counts.
        let mut arriving: Vec<(usize, Instant)> = Vec::new();
        match &set.arrival {
            Arrival::Open { due_s } => {
                let now = Instant::now();
                while in_flight + arriving.len() < CLIENTS && next_due < n {
                    let due = t0 + Duration::from_secs_f64(due_s[next_due]);
                    if due > now {
                        break;
                    }
                    arriving.push((next_due, due));
                    next_due += 1;
                }
            }
            Arrival::Closed { .. } => {
                for (l, lane) in lanes.iter().enumerate() {
                    if !lane_busy[l] && cursor[l] < lane.len() {
                        let i = lane[cursor[l]];
                        cursor[l] += 1;
                        lane_busy[l] = true;
                        lane_of[i] = l;
                        arriving.push((i, Instant::now()));
                    }
                }
            }
            Arrival::Batch => {
                if submitted == 0 {
                    arriving.extend((0..n).map(|i| (i, t0)));
                }
            }
        }
        for (i, reference) in arriving {
            let id = i as u64;
            let (prompt, max_new_tokens) = if spec.via_gateway {
                rec.enter("parse", Some(id));
                let request = mant_gateway::http::read_request(&mut &wire[i][..], &limits)
                    .expect("well-formed request")
                    .expect("one request on the wire");
                let body = GenerateBody::parse(&request.body).expect("well-formed body");
                rec.exit();
                (body.prompt, body.max_new_tokens)
            } else {
                let r = &set.requests[i];
                (r.prompt.clone(), r.max_new_tokens)
            };
            let req = GenRequest {
                id,
                prompt,
                max_new_tokens,
                arrival_iter: engine.iterations(),
                deadline_iter: None,
            };
            rec.enter("submit", Some(id));
            let t = Instant::now();
            engine
                .try_submit(req)
                .expect("workload requests fit the pool");
            submit_ns.push(t.elapsed().as_nanos() as u64);
            rec.exit();
            observed[i].reference = reference;
            observed[i].late = Instant::now().saturating_duration_since(reference);
            in_flight += 1;
            submitted += 1;
        }

        if engine.pending() > 0 {
            rec.enter("tick", None);
            let t = Instant::now();
            engine.tick();
            tick_ns.push(t.elapsed().as_nanos() as u64);
            rec.exit();
            rec.enter("drain", None);
            let events = engine.drain_events();
            let stamp = Instant::now();
            for event in events {
                match event {
                    EngineEvent::Token { id, token } => {
                        let o = &mut observed[id as usize];
                        o.tokens.push(token);
                        o.arrivals.push(stamp);
                    }
                    EngineEvent::Finished { id }
                    | EngineEvent::Expired { id }
                    | EngineEvent::Cancelled { id }
                    | EngineEvent::Poisoned { id } => {
                        let o = &mut observed[id as usize];
                        o.ended = stamp;
                        o.done = matches!(event, EngineEvent::Finished { .. });
                        in_flight -= 1;
                        finished += 1;
                        if let Some(busy) = lane_busy.get_mut(lane_of[id as usize]) {
                            *busy = false;
                        }
                    }
                }
            }
            rec.exit();
            if let Some(agg) = kernel.as_mut() {
                if tick_ns.len() % RECORDER_BLOCK_TICKS == 0 {
                    agg.absorb(&mant_trace::drain());
                    let block = tick_ns.len() / RECORDER_BLOCK_TICKS;
                    mant_trace::set_enabled(block.is_multiple_of(2));
                }
            }
        } else if finished == n {
            break;
        } else if let Arrival::Open { due_s } = &set.arrival {
            // Nothing to run until the next scheduled arrival.
            rec.enter("idle", None);
            sleep_until(t0 + Duration::from_secs_f64(due_s[next_due]));
            rec.exit();
        }
    }
    rec.exit();
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(agg) = kernel.as_mut() {
        mant_trace::set_enabled(false);
        agg.absorb(&mant_trace::drain());
    }
    Drive {
        round: Round {
            wall_s,
            observed,
            report: engine.report(wall_s),
            gateway: None,
            healthz_ms: Vec::new(),
        },
        submit_ns,
        tick_ns,
        kernel,
    }
}

/// One set-up as a user of the stack pays it: synthesize and pack the
/// model, then bring the serving path to the point where it has served a
/// request — the gateway bound, `/healthz` answering 200 and a one-token
/// stream done (the engine, and with it the KV calibration, is built by
/// the ticker thread concurrently with `/healthz`); for the in-process
/// workload, the engine constructed and one token generated.
pub fn timed_setup(spec: &Spec) -> (Stack, f64) {
    let t0 = Instant::now();
    let stack = Stack::build();
    let secs = if spec.via_gateway {
        let cfg = stack.gateway_config(spec);
        let (secs, _) = mant_gateway::serve(&stack.model, &stack.packed, cfg, |gw| {
            wait_healthy(gw.addr()).expect("loopback gateway answers /healthz");
            let warm = sse::generate(gw.addr(), "{\"prompt\":[1],\"max_new_tokens\":1}");
            assert!(
                warm.is_ok_and(|s| s.end == End::Done),
                "the warm-up request must stream to done"
            );
            t0.elapsed().as_secs_f64()
        })
        .expect("loopback gateway binds");
        secs
    } else {
        let mut engine = ServeEngine::new(&stack.model, &stack.packed, stack.serve_config(spec));
        engine.submit(GenRequest {
            id: 0,
            prompt: vec![1],
            max_new_tokens: 1,
            arrival_iter: 0,
            deadline_iter: None,
        });
        engine.run_to_completion();
        t0.elapsed().as_secs_f64()
    };
    (stack, secs)
}
