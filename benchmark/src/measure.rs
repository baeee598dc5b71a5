//! From what the load generator observed to metric values: per-round
//! statistics, the correctness gate, and the aggregation over rounds
//! (quietest reading for timings, pooled over all rounds for failures).

use mant_serve::{sequential_generate, GenRequest};

use crate::stack::{Observed, Round, Stack, ACT, KV};
use crate::stats::{
    best_of_rounds, best_per_position, median, pooled_share, quantile, supported_quantile, Better,
};
use crate::workload::{oracle_sample, Class, RequestSet, Spec, STALL_MS};

/// One round reduced to samples and counts.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    pub wall_s: f64,
    /// TTFT / E2E of the class the headline latencies are taken over.
    pub ttft_ms: Vec<f64>,
    pub e2e_ms: Vec<f64>,
    /// Inter-token gaps of the class the headline gaps are taken over.
    pub gaps_ms: Vec<f64>,
    /// Of each finished request of that class, in request order: when its
    /// first and its last token arrived, counted like TTFT, and how many
    /// gaps lie between them.
    pub first_token_ms: Vec<f64>,
    pub last_token_ms: Vec<f64>,
    pub gap_counts: Vec<f64>,
    /// The other class's view on `mixed_long` (elsewhere the same samples).
    pub stream_ttft_ms: Vec<f64>,
    pub prompt_gaps_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub sent: u64,
    /// Ended `done` with exactly `max_new_tokens` tokens.
    pub finished: u64,
    /// Finished within both latency limits.
    pub within_slo: u64,
    pub stalls: u64,
    /// Prompt plus generated tokens of finished requests.
    pub tokens: u64,
}

impl RoundStats {
    fn push_decode(&mut self, first_ms: f64, last_ms: f64, gaps: usize) {
        if gaps > 0 {
            self.first_token_ms.push(first_ms);
            self.last_token_ms.push(last_ms);
            self.gap_counts.push(gaps as f64);
        }
    }
}

/// Time per gap of each request, given when its first and last token came.
fn per_gap(first_ms: &[f64], last_ms: &[f64], gaps: &[f64]) -> Vec<f64> {
    first_ms
        .iter()
        .zip(last_ms)
        .zip(gaps)
        .map(|((f, l), g)| (l - f) / g)
        .collect()
}

fn ms(from: std::time::Instant, to: std::time::Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn gaps_of(o: &Observed) -> Vec<f64> {
    o.arrivals.windows(2).map(|w| ms(w[0], w[1])).collect()
}

pub fn round_stats(spec: &Spec, set: &RequestSet, round: &Round) -> RoundStats {
    stats_of(spec, set, round.wall_s, &round.observed)
}

fn stats_of(spec: &Spec, set: &RequestSet, wall_s: f64, observed: &[Observed]) -> RoundStats {
    let has_streams = set.requests.iter().any(|r| r.class == Class::Stream);
    let mut s = RoundStats {
        wall_s,
        sent: set.requests.len() as u64,
        ..RoundStats::default()
    };
    for (req, o) in set.requests.iter().zip(observed) {
        s.late_ms.push(o.late.as_secs_f64() * 1e3);
        let finished = o.done && o.tokens.len() == req.max_new_tokens;
        if !finished {
            continue; // a failed request has no latency; it misses every limit
        }
        s.finished += 1;
        s.tokens += (req.prompt.len() + o.tokens.len()) as u64;
        let ttft = ms(o.reference, o.arrivals[0]);
        let last = ms(o.reference, *o.arrivals.last().expect("checked above"));
        let gaps = gaps_of(o);
        let mean_gap = if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<f64>() / gaps.len() as f64
        };
        if ttft <= spec.slo_ttft_ms && mean_gap <= spec.slo_gap_ms {
            s.within_slo += 1;
        }
        match (has_streams, req.class) {
            (true, Class::Stream) => {
                s.stream_ttft_ms.push(ttft);
                s.push_decode(ttft, last, gaps.len());
                s.gaps_ms.extend(gaps);
            }
            (true, Class::Prompt) => {
                s.ttft_ms.push(ttft);
                s.e2e_ms.push(ms(o.reference, o.ended));
                s.prompt_gaps_ms.extend(gaps);
            }
            // One class: both views are the same requests.
            (false, _) => {
                s.ttft_ms.push(ttft);
                s.stream_ttft_ms.push(ttft);
                s.e2e_ms.push(ms(o.reference, o.ended));
                s.prompt_gaps_ms.extend(&gaps);
                s.push_decode(ttft, last, gaps.len());
                s.gaps_ms.extend(gaps);
            }
        }
    }
    s.stalls = s.gaps_ms.iter().filter(|&&g| g > STALL_MS).count() as u64;
    s
}

/// A stream that differs from what it must equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    pub request: usize,
    pub what: &'static str,
}

/// Round-to-round identity: greedy decoding is independent of the
/// batching schedule, so every round's finished streams must equal the
/// first round's token for token.
pub fn check_against_reference(reference: &[Vec<usize>], observed: &[Observed]) -> Vec<Mismatch> {
    reference
        .iter()
        .zip(observed)
        .enumerate()
        .filter(|(_, (want, o))| o.done && o.tokens != **want)
        .map(|(request, _)| Mismatch {
            request,
            what: "differs from the first round",
        })
        .collect()
}

/// The fixed sample of requests run through the program's own
/// one-request-at-a-time baseline: `(request index, expected stream)`.
pub fn oracle_streams(stack: &Stack, set: &RequestSet) -> Vec<(usize, Vec<usize>)> {
    let sample = oracle_sample(set.requests.len());
    let requests: Vec<GenRequest> = sample
        .iter()
        .map(|&i| GenRequest {
            id: i as u64,
            prompt: set.requests[i].prompt.clone(),
            max_new_tokens: set.requests[i].max_new_tokens,
            arrival_iter: 0,
            deadline_iter: None,
        })
        .collect();
    let (streams, _) = sequential_generate(&stack.model, &stack.packed, ACT, KV, &requests);
    sample.into_iter().zip(streams).collect()
}

/// The sampled requests whose first-round stream differs from the oracle's.
pub fn check_against_oracle(
    oracle: &[(usize, Vec<usize>)],
    reference: &[Vec<usize>],
) -> Vec<Mismatch> {
    oracle
        .iter()
        .filter(|(i, want)| reference[*i] != *want)
        .map(|(i, _)| Mismatch {
            request: *i,
            what: "differs from sequential_generate",
        })
        .collect()
}

/// All rounds of one workload in one run.
#[derive(Clone, Debug, Default)]
pub struct Rounds {
    pub stats: Vec<RoundStats>,
}

/// A headline value with the per-round values it was chosen from (empty
/// for pooled shares and constants).
#[derive(Clone, Debug)]
pub struct Headline {
    pub value: f64,
    pub per_round: Vec<f64>,
}

impl Rounds {
    fn timing(&self, better: Better, f: impl Fn(&RoundStats) -> Option<f64>) -> Headline {
        let per_round: Vec<f64> = self.stats.iter().filter_map(f).collect();
        Headline {
            // No finished request in any round leaves nothing to time; the
            // run is already failed by `done_share`, and NaN keeps the
            // metric from reading as a real latency.
            value: best_of_rounds(&per_round, better).unwrap_or(f64::NAN),
            per_round,
        }
    }

    /// A per-request latency: the median over requests of each request's
    /// quietest round (every round replays the same requests in the same
    /// order); the per-round medians are kept beside it.
    fn latency(&self, f: impl Fn(&RoundStats) -> &Vec<f64>) -> Headline {
        let samples: Vec<&[f64]> = self.stats.iter().map(|s| f(s).as_slice()).collect();
        Headline {
            value: median(&best_per_position(&samples, Better::Lower)).unwrap_or(f64::NAN),
            per_round: samples.iter().filter_map(|s| median(s)).collect(),
        }
    }

    /// A share that a slow host lowers: computed per round, the best round
    /// reported, like any other timing.
    fn timing_share(&self, f: impl Fn(&RoundStats) -> (u64, u64)) -> Headline {
        self.timing(Better::Higher, |s| pooled_share(&[f(s)]))
    }

    /// A share that counts failures pools every round, so a failure in one
    /// round is never hidden by picking another.
    pub fn pooled(&self, f: impl Fn(&RoundStats) -> (u64, u64)) -> Headline {
        let pairs: Vec<(u64, u64)> = self.stats.iter().map(f).collect();
        Headline {
            value: pooled_share(&pairs).unwrap_or(f64::NAN),
            per_round: Vec::new(),
        }
    }

    pub fn ttft_p50_ms(&self) -> Headline {
        self.latency(|s| &s.ttft_ms)
    }
    /// The median over requests of the request's mean gap: the time from
    /// its first token to its last, over the gaps between. Both ends are
    /// taken at their quietest round and counted from the send instant,
    /// like TTFT, because a delay can only lengthen such a time. A gap
    /// itself, or the time between two arrivals, can also come out short:
    /// over a socket a late read delivers several tokens together, and the
    /// quietest of many such readings is nobody's latency.
    pub fn itl_p50_ms(&self) -> Headline {
        let column = |f: fn(&RoundStats) -> &Vec<f64>| -> Vec<f64> {
            let rounds: Vec<&[f64]> = self.stats.iter().map(|s| f(s).as_slice()).collect();
            best_per_position(&rounds, Better::Lower)
        };
        let (first, last) = (column(|s| &s.first_token_ms), column(|s| &s.last_token_ms));
        let gaps = self
            .stats
            .iter()
            .map(|s| &s.gap_counts)
            .find(|g| g.len() == first.len());
        Headline {
            value: gaps
                .and_then(|g| median(&per_gap(&first, &last, g)))
                .unwrap_or(f64::NAN),
            per_round: self
                .stats
                .iter()
                .filter_map(|s| {
                    median(&per_gap(&s.first_token_ms, &s.last_token_ms, &s.gap_counts))
                })
                .collect(),
        }
    }
    pub fn e2e_p50_ms(&self) -> Headline {
        self.latency(|s| &s.e2e_ms)
    }
    pub fn tok_per_s(&self) -> Headline {
        self.timing(Better::Higher, |s| Some(s.tokens as f64 / s.wall_s))
    }
    pub fn slo_share(&self) -> Headline {
        self.timing_share(|s| (s.within_slo, s.sent))
    }
    /// Gaps no longer than [`STALL_MS`] over all gaps.
    pub fn smooth_share(&self) -> Headline {
        self.timing_share(|s| (s.gaps_ms.len() as u64 - s.stalls, s.gaps_ms.len() as u64))
    }
    pub fn done_share(&self) -> Headline {
        self.pooled(|s| (s.finished, s.sent))
    }

    pub fn sent(&self) -> u64 {
        self.stats.iter().map(|s| s.sent).sum()
    }
    pub fn failed(&self) -> u64 {
        self.stats.iter().map(|s| s.sent - s.finished).sum()
    }

    /// A tail read pooled over every round at the highest supported
    /// percentile (in thousandths) not above `wanted`; returns
    /// `(percentile, value)`.
    pub fn tail(&self, wanted: usize, f: impl Fn(&RoundStats) -> &Vec<f64>) -> (usize, f64) {
        let pooled: Vec<f64> = self
            .stats
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect();
        let q = supported_quantile(pooled.len(), wanted);
        (q, quantile(&pooled, q).unwrap_or(f64::NAN))
    }

    pub fn pooled_median(&self, f: impl Fn(&RoundStats) -> &Vec<f64>) -> f64 {
        let pooled: Vec<f64> = self
            .stats
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect();
        median(&pooled).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Observed;
    use crate::workload::{build, Kind, SPECS};
    use std::time::{Duration, Instant};

    fn observed(t0: Instant, ttft_ms: u64, gap_ms: u64, tokens: &[usize], done: bool) -> Observed {
        let arrivals: Vec<Instant> = (0..tokens.len() as u64)
            .map(|k| t0 + Duration::from_millis(ttft_ms + k * gap_ms))
            .collect();
        Observed {
            reference: t0,
            late: Duration::ZERO,
            tokens: tokens.to_vec(),
            ended: arrivals.last().copied().unwrap_or(t0),
            arrivals,
            done,
        }
    }

    fn fake_round(set: &RequestSet, edit: impl Fn(usize, &mut Observed)) -> Vec<Observed> {
        let t0 = Instant::now();
        set.requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let toks: Vec<usize> = (0..r.max_new_tokens).collect();
                let mut o = observed(t0, 20, 1, &toks, true);
                edit(i, &mut o);
                o
            })
            .collect()
    }

    #[test]
    fn a_truncated_or_refused_stream_fails_and_misses_the_limit() {
        let spec = SPECS[0];
        let set = build(Kind::ShortChat, 3, 8);
        let n = set.requests.len() as u64;
        let round = fake_round(&set, |i, o| match i {
            0 => o.done = false, // error / truncated terminal
            1 => {
                o.tokens.pop(); // done, but one token short
                o.arrivals.pop();
            }
            2 => *o = observed(o.reference, 500, 1, &o.tokens.clone(), true), // slow TTFT
            _ => {}
        });
        let s = stats_of(&spec, &set, 2.0, &round);
        assert_eq!((s.sent, s.finished), (n, n - 2));
        assert_eq!(s.within_slo, n - 3, "failures and the slow request miss");
        assert_eq!(s.ttft_ms.len() as u64, n - 2);
        assert_eq!(s.stalls, 0);
        let rounds = Rounds { stats: vec![s] };
        assert_eq!(rounds.failed(), 2);
        assert!((rounds.done_share().value - (n - 2) as f64 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn mixed_long_splits_statistics_by_class_and_counts_stalls() {
        let spec = SPECS[2];
        let set = build(Kind::MixedLong, 3, 8);
        // One stream (index 0), one prompt (index 1).
        let round = fake_round(&set, |i, o| {
            if i == 0 {
                let toks = o.tokens.clone();
                *o = observed(o.reference, 5, 12, &toks, true); // every gap a stall
            }
        });
        let s = stats_of(&spec, &set, 2.0, &round);
        assert_eq!(s.ttft_ms, vec![20.0], "TTFT over the prompt class");
        assert_eq!(s.stream_ttft_ms, vec![5.0]);
        assert_eq!(s.gaps_ms.len(), 735, "gaps over the stream class");
        assert_eq!(s.stalls, 735);
        assert_eq!(s.prompt_gaps_ms.len(), 7);
        assert_eq!(s.within_slo, 1, "a 12 ms mean gap misses the 5 ms limit");
    }

    #[test]
    fn the_gate_flags_a_stream_that_differs_between_rounds() {
        let set = build(Kind::LongPrompt, 3, 2);
        let first = fake_round(&set, |_, _| {});
        let reference: Vec<Vec<usize>> = first.iter().map(|o| o.tokens.clone()).collect();
        assert!(check_against_reference(&reference, &first).is_empty());
        let second = fake_round(&set, |i, o| {
            if i == 1 {
                o.tokens[3] ^= 1;
            }
        });
        assert_eq!(
            check_against_reference(&reference, &second),
            vec![Mismatch {
                request: 1,
                what: "differs from the first round"
            }]
        );
    }

    #[test]
    fn timings_take_the_best_round_and_failures_pool_all_rounds() {
        let quiet = RoundStats {
            wall_s: 1.0,
            ttft_ms: vec![10.0, 12.0, 14.0],
            gaps_ms: vec![1.0; 10],
            sent: 3,
            finished: 3,
            within_slo: 3,
            tokens: 300,
            ..RoundStats::default()
        };
        let noisy = RoundStats {
            wall_s: 2.0,
            ttft_ms: vec![30.0, 32.0],
            gaps_ms: vec![1.0; 9],
            stalls: 1,
            sent: 3,
            finished: 2,
            within_slo: 2,
            tokens: 200,
            ..RoundStats::default()
        };
        let rounds = Rounds {
            stats: vec![noisy, quiet],
        };
        // The noisy round lost a request, so it no longer lines up: the
        // latency is read off the quiet round alone.
        let ttft = rounds.ttft_p50_ms();
        assert_eq!((ttft.value, ttft.per_round), (12.0, vec![31.0, 12.0]));
        assert_eq!(rounds.tok_per_s().value, 300.0);
        assert!((rounds.done_share().value - 5.0 / 6.0).abs() < 1e-12);
        // A stall is a timing: the quiet round had none.
        assert_eq!(rounds.smooth_share().value, 1.0);
        assert_eq!(rounds.slo_share().per_round, vec![2.0 / 3.0, 1.0]);
        assert_eq!((rounds.sent(), rounds.failed()), (6, 1));
    }

    #[test]
    fn a_latency_is_each_requests_quietest_round() {
        // The host was slow for the second request of one round and the
        // first of the other.
        let round = |ttft_ms: [f64; 3], last_token_ms: [f64; 3]| RoundStats {
            ttft_ms: ttft_ms.to_vec(),
            first_token_ms: ttft_ms.to_vec(),
            last_token_ms: last_token_ms.to_vec(),
            gap_counts: vec![10.0; 3],
            ..RoundStats::default()
        };
        let rounds = Rounds {
            stats: vec![
                round([10.0, 30.0, 12.0], [20.0, 60.0, 24.0]),
                round([25.0, 11.0, 13.0], [50.0, 22.0, 26.0]),
            ],
        };
        let ttft = rounds.ttft_p50_ms();
        assert_eq!((ttft.value, ttft.per_round), (11.0, vec![12.0, 13.0]));
        // Each request's first and last token at their quietest: 10..20,
        // 11..22 and 12..24 ms over ten gaps.
        let gap = rounds.itl_p50_ms();
        assert_eq!((gap.value, gap.per_round), (1.1, vec![1.2, 1.3]));
    }
}
