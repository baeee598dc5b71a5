//! Serving metrics: throughput, latency percentiles, batch occupancy.

use mant_trace::Hist;

use crate::request::Completion;

/// Histogram-backed wall-clock latency breakdown, recorded by the engine
/// on every tick regardless of whether global tracing is enabled — the
/// per-tick cost is a handful of `Instant` reads against a multi-
/// millisecond model step. All histograms are log₂-bucketed
/// ([`mant_trace::Hist`]) over **nanoseconds**; idle ticks (nothing
/// runnable) are not recorded, so the tick-phase histograms describe real
/// work, not spin.
#[derive(Clone, Debug, Default)]
pub struct LatencyBreakdown {
    /// Submission → first generated token, per completed request.
    pub ttft: Hist,
    /// Submission → retirement, per completed request.
    pub e2e: Hist,
    /// Submission → *first* admission into the batch, per request
    /// (readmissions after preemption do not re-record).
    pub queue_wait: Hist,
    /// Whole busy tick (expire + admit + compose + step + advance).
    pub tick: Hist,
    /// Deadline-expiry sweep at the top of the tick.
    pub expire: Hist,
    /// Admission + pool-pressure relief.
    pub admit: Hist,
    /// Batch composition (one feed token per active sequence).
    pub compose: Hist,
    /// The model step ([`BatchRunner::step_runs`]; with speculation, the
    /// draft passes before it too).
    ///
    /// [`BatchRunner::step_runs`]: ../mant_model/batch/struct.BatchRunner.html#method.step_runs
    pub step: Hist,
    /// Argmax, retirement, prefix registration after the step.
    pub advance: Hist,
}

/// Speculative-decoding outcome counters ([`ServeReport::speculation`]),
/// accumulated over every draft-and-verify round the engine ran. The
/// time histograms hold one wall-clock sample, in nanoseconds, per tick
/// that stepped a verify run — log₂-bucketed like the rest of
/// [`LatencyBreakdown`], whose `step` phase holds the draft passes and the
/// target pass that verified them.
#[derive(Clone, Debug, Default)]
pub struct SpeculationStats {
    /// Draft-and-verify rounds executed.
    pub rounds: u64,
    /// Draft candidate tokens proposed across all rounds.
    pub drafted: u64,
    /// Candidates the batched verify pass confirmed.
    pub accepted: u64,
    /// Tokens the rounds appended to their streams
    /// ([`SpeculationStats::emitted_tokens`]).
    pub(crate) emitted: u64,
    /// Per-tick draft-phase time (the one-row draft passes, batched across
    /// every speculating sequence), ns.
    pub draft_ns: Hist,
    /// Per-tick rollback time (truncating the rejected tails on both
    /// runners), ns.
    pub rollback_ns: Hist,
}

impl SpeculationStats {
    /// Fraction of drafted candidates the verifier accepted (0 when no
    /// round ever ran).
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }

    /// Decode tokens emitted by speculative rounds: a round's confirmed
    /// candidates plus the target's own token at the first disagreement —
    /// a round whose every candidate was confirmed has no such token, its
    /// last candidate being the last row's.
    pub fn emitted_tokens(&self) -> u64 {
        self.emitted
    }
}

/// Graceful-degradation ladder counters ([`ServeReport::degradation`]).
///
/// Under sustained pool pressure the engine climbs a four-rung ladder —
/// halve `draft_k` → disable speculation → halve `max_batch` → shed new
/// admissions — and descends it with hysteresis once pressure clears.
/// None of the rungs changes *what* is computed (greedy outputs stay
/// byte-identical); they only trade throughput for headroom.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// The rung the engine ended the run on (0 = fully healthy).
    pub rung: u8,
    /// Times each rung was engaged (index 0 = rung 1, ... index 3 =
    /// rung 4/shed).
    pub engaged: [u64; 4],
    /// Times each rung was released (same indexing as `engaged`).
    pub released: [u64; 4],
    /// Ticks spent at the shed rung (admissions refused to the gateway).
    pub shed_ticks: u64,
}

impl DegradationStats {
    /// Whether the ladder ever left rung 0 during the run.
    pub fn ever_engaged(&self) -> bool {
        self.engaged.iter().any(|&n| n > 0)
    }
}

/// Latency percentile summary. Units are whatever the samples were in —
/// engine iterations for the in-process summaries on [`ServeReport`],
/// wall-clock seconds for the gateway's socket-measured latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed.
    pub max: f64,
}

impl Percentiles {
    /// Summarizes a sample set, or `None` when it is empty — the empty
    /// case is a *value*, not a panic, because report paths must survive
    /// runs where every request was rejected or expired before producing
    /// a completion.
    ///
    /// # Panics
    ///
    /// Panics if a sample is not finite (NaN latencies are measurement
    /// bugs, not data).
    pub fn from_samples(samples: &[f64]) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        Some(Percentiles {
            p50: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            // The largest sample, from the sort — not a NEG_INFINITY fold,
            // which would silently leak -inf into reports on a bad path.
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Linear-interpolation percentile of an unsorted sample set; `q` in
/// `[0, 1]`. Returns `None` for an empty sample set (there is no value to
/// report) and the sole sample for a singleton set at every `q` — the
/// degenerate cases are explicit instead of falling through the
/// interpolation arithmetic.
///
/// # Panics
///
/// Panics if `q` is NaN or outside `[0, 1]`, or if a sample is not finite.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Some(percentile_sorted(&sorted, q))
}

/// Interpolation core over an already-sorted, non-empty sample set.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if sorted.len() == 1 {
        // n = 1: rank interpolation degenerates to the sole sample; make
        // that explicit rather than trusting 0 * q index arithmetic.
        return sorted[0];
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    // `rank <= len - 1` by the `q` guard, but clamp so a float rounding
    // edge can never index out of bounds.
    let hi = (rank.ceil() as usize).min(sorted.len() - 1);
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The outcome of one serving run.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Every finished request, in completion order.
    pub completions: Vec<Completion>,
    /// Engine iterations executed (idle fast-forwards included).
    pub iterations: u64,
    /// Iterations that actually stepped the model.
    pub busy_iterations: u64,
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Decode tokens produced.
    pub generated_tokens: usize,
    /// Prompt tokens prefetched through the engine.
    pub prompt_tokens: usize,
    /// Mean sequences per busy iteration that took rows in it
    /// (continuous-batching occupancy; a prefilling sequence the tick's row
    /// budget left nothing for is not in the step).
    pub mean_batch_occupancy: f64,
    /// Rows the target model stepped: one per decode token, one per prompt
    /// or replayed token of every prefill run, one per candidate of every
    /// speculative verify pass.
    pub stepped_rows: usize,
    /// Stepped rows whose logits were computed (the LM head ran for them).
    pub logit_rows: usize,
    /// Stepped rows that were **KV-only**: prompt or replayed rows whose
    /// logits nobody reads, which the model caches in every layer but
    /// takes through the last layer only as far as their K/V projections.
    /// Always `stepped_rows - logit_rows`, and `prompt_tokens +
    /// recomputed_tokens` less one row per run that ended a sequence's
    /// known tokens.
    pub kv_only_rows: usize,
    /// Most sequences ever running at once (admitted concurrency peak).
    pub peak_running: usize,
    /// Most pool blocks ever in use at once.
    pub peak_used_blocks: usize,
    /// Times a running sequence was preempted (blocks evicted, request
    /// requeued for recompute) to relieve pool pressure.
    pub preemptions: usize,
    /// Tokens re-fed through the model when preempted requests were
    /// re-admitted (the recompute cost of preemption).
    pub recomputed_tokens: usize,
    /// Prefill tokens served straight from the prefix cache (shared
    /// blocks mapped instead of stepped), across all admissions.
    pub prefix_cached_tokens: usize,
    /// Prefill tokens all admissions needed in total (cached + stepped);
    /// the denominator of [`ServeReport::prefix_hit_rate`].
    pub prefill_tokens: usize,
    /// Requests cancelled because their deadline passed — queued ones
    /// removed without ever being ticked, running ones mid-generation.
    pub expired_requests: usize,
    /// Requests cancelled explicitly (client disconnect, shutdown), not
    /// by deadline.
    pub cancelled_requests: usize,
    /// Requests quarantined after a panic inside their step isolation
    /// boundary (sessions torn down, blocks released,
    /// [`EngineEvent::Poisoned`] emitted).
    ///
    /// [`EngineEvent::Poisoned`]: crate::engine::EngineEvent::Poisoned
    pub poisoned_requests: usize,
    /// Whole-batch rollbacks after a batched-step panic: every sequence
    /// in the batch was requeued with its progress carried and recomputed
    /// on readmission (byte-identical, like preemption recovery).
    pub step_rollbacks: usize,
    /// Requests refused before entering the engine. The engine itself
    /// never counts here (its submit rejections are errors returned to
    /// the caller); the gateway adds its 429 backpressure sheds when it
    /// builds the final report.
    pub rejected_requests: usize,
    /// Pool capacity in blocks.
    pub pool_blocks: usize,
    /// Packed bits per pool block (K + V codes and group metadata), from
    /// [`mant_quant::KvCachePool::block_bits`] — so reports account cache
    /// memory in real packed bits without re-deriving the layout.
    pub block_bits: usize,
    /// Wall-clock latency histograms (always recorded; see
    /// [`LatencyBreakdown`]). The iteration-clock percentiles above remain
    /// the deterministic, schedule-level view; this is the wall view.
    pub breakdown: LatencyBreakdown,
    /// Draft-and-verify outcome counters; `Some` exactly when the engine
    /// was built with [`new_with_draft`], even if no round ran yet.
    ///
    /// [`new_with_draft`]: crate::ServeEngine::new_with_draft
    pub speculation: Option<SpeculationStats>,
    /// Graceful-degradation ladder state and rung-transition counters.
    pub degradation: DegradationStats,
}

impl ServeReport {
    /// Aggregate decode throughput: generated tokens per wall second.
    pub fn tokens_per_sec(&self) -> f64 {
        self.generated_tokens as f64 / self.wall_seconds.max(1e-12)
    }

    /// Aggregate total throughput, prompt tokens included.
    pub fn total_tokens_per_sec(&self) -> f64 {
        (self.generated_tokens + self.prompt_tokens) as f64 / self.wall_seconds.max(1e-12)
    }

    /// Time-to-first-token percentiles across completions, in iterations;
    /// `None` when nothing completed.
    pub fn ttft_percentiles(&self) -> Option<Percentiles> {
        let samples: Vec<f64> = self
            .completions
            .iter()
            .map(|c| c.ttft_iters() as f64)
            .collect();
        Percentiles::from_samples(&samples)
    }

    /// End-to-end latency percentiles across completions, in iterations;
    /// `None` when nothing completed.
    pub fn e2e_percentiles(&self) -> Option<Percentiles> {
        let samples: Vec<f64> = self
            .completions
            .iter()
            .map(|c| c.e2e_iters() as f64)
            .collect();
        Percentiles::from_samples(&samples)
    }

    /// Queueing-delay (submit → first admission) percentiles across
    /// completions, in iterations — how long requests waited before the
    /// scheduler let them into the batch; `None` when nothing completed.
    pub fn queueing_percentiles(&self) -> Option<Percentiles> {
        let samples: Vec<f64> = self
            .completions
            .iter()
            .map(|c| c.queue_iters() as f64)
            .collect();
        Percentiles::from_samples(&samples)
    }

    /// Fraction of required prefill tokens served from the prefix cache
    /// (0 when no prefill was needed).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.prefill_tokens == 0 {
            0.0
        } else {
            self.prefix_cached_tokens as f64 / self.prefill_tokens as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(4.0));
        assert_eq!(percentile(&samples, 0.5), Some(2.5));
        assert!((percentile(&samples, 0.95).unwrap() - 3.85).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_set_is_a_value_not_a_panic() {
        // n = 0 feeds every bench assertion via ServeReport; it must be
        // representable (all requests rejected/expired), not a crash.
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[], 1.0), None);
        assert_eq!(Percentiles::from_samples(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        // n = 1: the interpolation rank is 0 at every q; the sole sample
        // must come back exactly, with no NaN and no out-of-bounds `hi`.
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[7.25], q), Some(7.25), "q = {q}");
        }
        let p = Percentiles::from_samples(&[7.25]).unwrap();
        assert_eq!((p.p50, p.p95, p.p99, p.max), (7.25, 7.25, 7.25, 7.25));
    }

    #[test]
    fn summary_max_comes_from_the_samples() {
        let p = Percentiles::from_samples(&[3.0, 9.0, 1.0]).unwrap();
        assert_eq!(p.max, 9.0);
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        let _ = percentile(&[1.0, 2.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn nan_quantile_panics() {
        let _ = percentile(&[1.0, 2.0], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite latencies")]
    fn nan_sample_panics() {
        let _ = percentile(&[1.0, f64::NAN], 0.5);
    }
}
