//! One run of one workload: the rounds with the correctness gate folded
//! in, the end-to-end metrics of a finished session, and the traced pass
//! that produces the per-layer metrics.

use std::path::PathBuf;

use crate::host::{self, Canary};
use crate::measure::{self, Headline, Mismatch, RoundStats, Rounds};
use crate::report::{Metrics, Value, E2E, PER_LAYER};
use crate::spans::{self, Recorder};
use crate::stack::{self, GatewayCounts, Round, Stack, BLOCK_TOKENS, RECORDER_BLOCK_TICKS};
use crate::workload::{self, RequestSet, Spec};
use crate::{probes, stats};

/// Set-ups per run, back to back before the first round; `setup_s` is the
/// quickest of them. Back to back, because a set-up is quicker on memory
/// the process has just freed than on pages the host has to hand out
/// again (0.35 s against 0.55 s on the reference box), and which of the
/// two a set-up between rounds would meet depends on the workload.
pub const SETUPS: usize = 5;

/// One workload's rounds within one run, with what the correctness gate
/// has seen so far.
pub struct Session {
    pub spec: Spec,
    set: RequestSet,
    pub rounds: Rounds,
    /// What `sequential_generate` emits for the fixed sample of requests.
    oracle: Vec<(usize, Vec<usize>)>,
    /// The first round's streams; every later round must equal them.
    reference: Option<Vec<Vec<usize>>>,
    mismatches: Vec<Mismatch>,
    /// How many of the sampled streams differed from the oracle's.
    unmatched: usize,
    /// `ServeReport::block_bits` of the last round (a constant of the pool).
    block_bits: usize,
    gateway: GatewayCounts,
}

impl Session {
    /// Builds the request set and runs the oracle on its sample, so the
    /// oracle's cost is paid before the first round and a run's rounds can
    /// be counted against what is left of its time.
    pub fn new(stack: &Stack, spec: Spec, seed: u64, shrink: usize) -> Session {
        let set = workload::build(spec.kind, seed, shrink);
        Session {
            spec,
            oracle: measure::oracle_streams(stack, &set),
            set,
            rounds: Rounds::default(),
            reference: None,
            mismatches: Vec::new(),
            unmatched: 0,
            block_bits: 0,
            gateway: GatewayCounts::default(),
        }
    }

    /// The workload's end-to-end method: loopback sockets through the
    /// gateway, or the in-process engine for the offline batch; untraced.
    fn measure_round(&self, stack: &Stack, healthz_probes: usize) -> Round {
        if self.spec.via_gateway {
            stack::socket_round(stack, &self.spec, &self.set, healthz_probes)
                .expect("loopback gateway binds")
        } else {
            stack::drive(
                stack,
                &self.spec,
                &self.set,
                &mut Recorder::new(false),
                false,
            )
            .round
        }
    }

    /// Folds one measured round (from any method) into the session and
    /// checks its streams against the first round's.
    fn absorb(&mut self, round: &Round) -> RoundStats {
        let stats = measure::round_stats(&self.spec, &self.set, round);
        match &self.reference {
            None => {
                let streams: Vec<Vec<usize>> =
                    round.observed.iter().map(|o| o.tokens.clone()).collect();
                let unmatched = measure::check_against_oracle(&self.oracle, &streams);
                self.unmatched = unmatched.len();
                self.mismatches.extend(unmatched);
                self.reference = Some(streams);
            }
            Some(reference) => self
                .mismatches
                .extend(measure::check_against_reference(reference, &round.observed)),
        }
        if let Some(g) = round.gateway {
            self.gateway.accepted += g.accepted;
            self.gateway.rejected_busy += g.rejected_busy;
            self.gateway.rejected_other += g.rejected_other;
        }
        self.block_bits = round.report.block_bits;
        self.rounds.stats.push(stats.clone());
        stats
    }

    pub fn run_round(&mut self, stack: &Stack, canary: &mut Canary) {
        canary.sample();
        let round = self.measure_round(stack, 0);
        let stats = self.absorb(&round);
        eprintln!(
            "{} round {}: wall {:.3} s, ttft p50 {:.3} ms, gap p50 {:.4} ms, {} of {} finished, canary {:.3} ms",
            self.spec.name,
            self.rounds.stats.len(),
            stats.wall_s,
            stats::median(&stats.ttft_ms).unwrap_or(f64::NAN),
            stats::median(&stats.gaps_ms).unwrap_or(f64::NAN),
            stats.finished,
            stats.sent,
            canary.readings_ms.last().expect("sampled above"),
        );
    }
}

fn constant(value: f64) -> Headline {
    Headline {
        value,
        per_round: Vec::new(),
    }
}

/// What one run of one workload concluded.
pub struct Outcome {
    pub metrics: Metrics,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The end-to-end metrics of a finished session.
pub fn end_to_end(stack: &Stack, session: &Session, setup_s: &[f64]) -> Outcome {
    assert!(session.reference.is_some(), "at least one round ran");
    for m in &session.mismatches {
        eprintln!(
            "MISMATCH {}: request {} {}",
            session.spec.name, m.request, m.what
        );
    }
    let sampled = session.oracle.len();
    let matched = sampled - session.unmatched;
    let rounds = &session.rounds;
    let kv_dim = stack.model.config.kv_dim();
    let mut metrics = Metrics::new();
    let mut put = |name: &'static str, h: Headline| {
        let def = E2E.iter().find(|d| d.name == name).expect("registered");
        metrics.insert(
            name,
            Value {
                value: h.value,
                unit: def.unit,
                per_round: h.per_round,
            },
        );
    };
    put(
        "setup_s",
        Headline {
            value: stats::best_of_rounds(setup_s, stats::Better::Lower)
                .expect("at least one set-up"),
            per_round: setup_s.to_vec(),
        },
    );
    put("ttft_p50_ms", rounds.ttft_p50_ms());
    put("itl_p50_ms", rounds.itl_p50_ms());
    put("e2e_p50_ms", rounds.e2e_p50_ms());
    put("tok_per_s", rounds.tok_per_s());
    put("slo_share", rounds.slo_share());
    put("smooth_share", rounds.smooth_share());
    put("done_share", rounds.done_share());
    put("match_share", constant(matched as f64 / sampled as f64));
    put(
        "kv_bits_per_elem",
        constant(session.block_bits as f64 / (2 * BLOCK_TOKENS * kv_dim) as f64),
    );
    put(
        "weight_bits_per_param",
        constant(stack.packed.storage_bits() as f64 / stack.model.config.linear_params() as f64),
    );
    let failed = rounds.failed();
    Outcome {
        correct: session.mismatches.is_empty() && failed == 0,
        attempted: rounds.sent(),
        failed,
        metrics,
    }
}

/// Times [`SETUPS`] (or one, for the smoke run) full set-ups and keeps
/// the last stack, warmed, for the rounds.
pub fn setups(spec: &Spec, count: usize) -> (Stack, Vec<f64>) {
    let mut secs = Vec::with_capacity(count);
    let mut stack = None;
    for _ in 0..count {
        let (s, t) = stack::timed_setup(spec);
        secs.push(t);
        stack = Some(s);
    }
    (stack.expect("count > 0"), secs)
}

fn ns_quantile_ms(ns: &[u64], permille: usize) -> f64 {
    let xs: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    stats::quantile(&xs, permille).unwrap_or(0.0)
}

/// What the program's recorder costs a tick: a replay that reads it has
/// it on for every other block of ticks, and each block is compared with
/// the mean of its two neighbours, which ran within a few dozen
/// milliseconds of it on nearly the same batch. One ratio, mean tick on ÷
/// mean tick off, per such triple; the metric is the median over the
/// triples of every replay: a slow stretch of the host lands on all three
/// blocks, a hiccup spoils a triple or two, and a trend along the replay
/// (a growing context) cancels between the neighbours.
fn recorder_cost_ratios(tick_ns: &[u64]) -> Vec<f64> {
    let means: Vec<f64> = tick_ns
        .chunks_exact(RECORDER_BLOCK_TICKS)
        .map(|block| block.iter().sum::<u64>() as f64 / block.len() as f64)
        .collect();
    means
        .windows(3)
        .enumerate()
        .map(|(b, w)| {
            let around = (w[0] + w[2]) / 2.0;
            // Even blocks ran with the recorder on; `w[1]` is block b + 1.
            if b % 2 == 0 {
                around / w[1]
            } else {
                w[1] / around
            }
        })
        .collect()
}

/// Untraced rounds of a traced run, pooled for the `loadgen.*` tails.
const LOADGEN_ROUNDS: usize = 8;
/// Replays of a traced run that read the program's own recorder.
const KERNEL_REPLAYS: usize = 4;

/// The traced run of one workload: probes, a few untraced rounds by the
/// workload's end-to-end method, then in-process replays — one under the
/// benchmark's spans, the others reading the program's own recorder.
pub fn per_layer(stack: &Stack, spec: Spec, seed: u64, shrink: usize) -> Outcome {
    let mut session = Session::new(stack, spec, seed, shrink);
    let mut canary = Canary::default();
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64| {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        m.insert(
            name,
            Value {
                value,
                unit: def.unit,
                per_round: Vec::new(),
            },
        );
    };

    let stream_gbps = host::stream_gbps();
    put("host.nproc", host::nproc() as f64);
    put("host.stream_gbps", stream_gbps);
    for (name, value) in probes::run(stack, &session.set, stream_gbps) {
        put(name, value);
    }

    // S: what clients see, for the tails and the wire overhead.
    let mut seen = Rounds::default();
    let mut healthz_ms = 0.0;
    for round in 0..LOADGEN_ROUNDS {
        canary.sample();
        let probes = if spec.via_gateway && round == 0 {
            20
        } else {
            0
        };
        let measured = session.measure_round(stack, probes);
        if round == 0 {
            healthz_ms = stats::median(&measured.healthz_ms).unwrap_or(0.0);
        }
        seen.stats.push(session.absorb(&measured));
    }
    put("gateway.healthz_ms", healthz_ms);
    put("gateway.accepted", session.gateway.accepted as f64);
    put(
        "gateway.rejected_busy",
        session.gateway.rejected_busy as f64,
    );
    put(
        "gateway.rejected_other",
        session.gateway.rejected_other as f64,
    );
    put("loadgen.sent", seen.sent() as f64);
    put("loadgen.fail_share", 1.0 - seen.done_share().value);
    put(
        "loadgen.stall_share",
        seen.pooled(|s| (s.stalls, s.gaps_ms.len() as u64)).value,
    );
    put("loadgen.late_ms_p99", seen.tail(990, |s| &s.late_ms).1);
    let (req_q, ttft_tail) = seen.tail(900, |s| &s.ttft_ms);
    put("loadgen.ttft_p90_ms", ttft_tail);
    put("loadgen.e2e_p90_ms", seen.tail(900, |s| &s.e2e_ms).1);
    let (gap_q, gap_tail) = seen.tail(990, |s| &s.gaps_ms);
    put("loadgen.itl_p99_ms", gap_tail);
    put("loadgen.req_tail_q", req_q as f64 / 1e3);
    put("loadgen.gap_tail_q", gap_q as f64 / 1e3);
    put(
        "loadgen.max_gap_ms",
        seen.stats
            .iter()
            .flat_map(|s| &s.gaps_ms)
            .copied()
            .fold(0.0, f64::max),
    );
    put(
        "loadgen.mixed.stream_ttft_p50_ms",
        seen.pooled_median(|s| &s.stream_ttft_ms),
    );
    put(
        "loadgen.mixed.prompt_itl_p50_ms",
        seen.pooled_median(|s| &s.prompt_gaps_ms),
    );

    // R: the same requests and arrival discipline, in-process.
    let mut replay = |rec: &mut Recorder, kernel: bool, session: &mut Session| {
        canary.sample();
        let drive = stack::drive(stack, &spec, &session.set, rec, kernel);
        let stats = session.absorb(&drive.round);
        (drive, stats)
    };

    let mut rec = Recorder::new(true);
    let (spanned, spanned_stats) = replay(&mut rec, false, &mut session);
    let mut replayed = Rounds {
        stats: vec![spanned_stats],
    };
    let report = &spanned.round.report;
    let tick_total: u64 = spanned.tick_ns.iter().sum();
    put(
        "serve.submit_us",
        ns_quantile_ms(&spanned.submit_ns, 500) * 1e3,
    );
    put("serve.tick_ms_p50", ns_quantile_ms(&spanned.tick_ns, 500));
    put("serve.tick_ms_p99", ns_quantile_ms(&spanned.tick_ns, 990));
    put(
        "serve.overhead_share",
        1.0 - report.breakdown.step.sum as f64 / tick_total as f64,
    );
    put(
        "serve.queue_wait_ms_p50",
        report.breakdown.queue_wait.quantile(0.5).unwrap_or(0.0) / 1e6,
    );
    put("serve.batch_occupancy", report.mean_batch_occupancy);
    put("serve.iterations", report.iterations as f64);
    let ttft_iters: Vec<f64> = report
        .completions
        .iter()
        .map(|c| c.ttft_iters() as f64)
        .collect();
    put(
        "serve.ttft_iters_p50",
        stats::median(&ttft_iters).unwrap_or(0.0),
    );
    put("serve.prefix_hit_rate", report.prefix_hit_rate());
    put("serve.preemptions", report.preemptions as f64);
    put("serve.recomputed_tokens", report.recomputed_tokens as f64);
    put("serve.peak_used_blocks", report.peak_used_blocks as f64);
    put(
        "serve.ladder_shed_ticks",
        report.degradation.shed_ticks as f64,
    );
    // Rows stepped (prefill, decode and recompute alike) over rows that
    // produced a token a client keeps.
    let rows_stepped = report.mean_batch_occupancy * report.busy_iterations as f64;
    put(
        "serve.useful_row_share",
        report.generated_tokens as f64 / rows_stepped,
    );

    let spans = rec.spans();
    let root_ns = (spans[0].end_ns - spans[0].start_ns) as f64;
    let self_ns = spans::self_times(spans);
    let share = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / root_ns;
    put("replay.parse_share", share("parse"));
    put("replay.submit_share", share("submit"));
    put("replay.tick_share", share("tick"));
    put("replay.drain_share", share("drain"));
    put("replay.idle_share", share("idle"));
    put("replay.unattributed_share", share("replay"));
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    std::fs::write(
        dir.join(format!("trace_{}.json", spec.name)),
        spans::to_json(spans),
    )
    .expect("write the span trace");

    // K: the program's existing kernel and tick spans.
    const KERNELS: [(&str, &str); 4] = [
        ("model.kernel_gemm_share", "kernel.gemm"),
        ("model.kernel_attn_share", "kernel.attn"),
        ("model.kernel_kv_quant_share", "kernel.kv_quant"),
        ("model.kernel_gemv_share", "kernel.gemv"),
    ];
    let mut shares = vec![Vec::new(); KERNELS.len()];
    let mut ratios = Vec::new();
    let mut dropped = 0;
    for _ in 0..KERNEL_REPLAYS {
        let (traced, traced_stats) = replay(&mut Recorder::new(false), true, &mut session);
        replayed.stats.push(traced_stats);
        let agg = traced.kernel.as_ref().expect("recorder was on");
        let sum = |label: &str| agg.hists.get(label).map_or(0, |h| h.sum) as f64;
        for (share, (_, label)) in shares.iter_mut().zip(KERNELS) {
            share.push(sum(label) / sum("tick.step"));
        }
        ratios.extend(recorder_cost_ratios(&traced.tick_ns));
        dropped += agg.dropped;
    }
    let mut other = 1.0;
    for (share, (metric, _)) in shares.iter().zip(KERNELS) {
        let share = stats::median(share).expect("KERNEL_REPLAYS > 0");
        other -= share;
        put(metric, share);
    }
    put("model.kernel_other_share", other);
    put(
        "trace.replay_overhead_ratio",
        stats::median(&ratios).unwrap_or(f64::NAN),
    );
    put("trace.dropped_events", dropped as f64);
    // The same requests without sockets, worker threads or channel hops.
    // Pooled medians on both sides, not quietest readings: those would
    // also pick the luckiest phase of the gateway's polling loops.
    put(
        "gateway.wire_overhead_ms",
        if spec.via_gateway {
            seen.pooled_median(|s| &s.ttft_ms) - replayed.pooled_median(|s| &s.ttft_ms)
        } else {
            0.0
        },
    );

    put("host.probe_ms_min", canary.min_ms());
    put("host.probe_spread", canary.spread());
    put("host.peak_rss_mb", host::peak_rss_mb());
    if canary.noisy() {
        eprintln!("noisy: host canary spread {:.3}", canary.spread());
    }

    for mm in &session.mismatches {
        eprintln!("MISMATCH {}: request {} {}", spec.name, mm.request, mm.what);
    }
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| !m.contains_key(n))
        .collect();
    assert!(
        missing.is_empty(),
        "per-layer metrics not produced: {missing:?}"
    );
    let failed = session.rounds.failed();
    Outcome {
        correct: session.mismatches.is_empty() && failed == 0 && dropped == 0,
        attempted: session.rounds.sent(),
        failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_cost_survives_a_slow_stretch_a_hiccup_and_a_trend() {
        // 300 blocks; the recorder (even blocks) costs 4 %; ticks grow with
        // the context; the host is half again slower for a third of the
        // replay and stalls once for 5 ms.
        let n = 300 * RECORDER_BLOCK_TICKS;
        let ticks: Vec<u64> = (0..n)
            .map(|k| {
                let on = (k / RECORDER_BLOCK_TICKS).is_multiple_of(2);
                let mut ns = 400_000.0 + 400_000.0 * k as f64 / n as f64;
                if on {
                    ns *= 1.04;
                }
                if (n / 3..2 * n / 3).contains(&k) {
                    ns *= 1.5;
                }
                if k == n / 5 {
                    ns += 5e6;
                }
                ns as u64
            })
            .collect();
        let ratio = stats::median(&recorder_cost_ratios(&ticks)).unwrap();
        assert!((ratio - 1.04).abs() < 0.003, "{ratio}");
        // Too short a replay to tell: no block has two neighbours.
        assert!(recorder_cost_ratios(&ticks[..2 * RECORDER_BLOCK_TICKS]).is_empty());
    }
}
