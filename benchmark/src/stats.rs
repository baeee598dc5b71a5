//! Order statistics and the two ways per-round values become a headline.

/// Sorted copy; every caller's samples are finite measurements.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// ones the acceptance harness computes. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k(n+1)/4 in one-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; 0 for fewer than two
/// samples or a zero median.
pub fn spread(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest-rank quantile, the quantile given in thousandths so that the
/// rank is exact integer arithmetic (`0.9 * 100` is not 90 in floats).
pub fn quantile(xs: &[f64], permille: usize) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = (permille * v.len()).div_ceil(1000);
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The percentiles a tail metric may be read at, in thousandths.
const LADDER: [usize; 5] = [500, 750, 900, 950, 990];

/// The highest ladder percentile not above `wanted` that still has at
/// least ten samples beyond it — a tail read from fewer is one or two
/// host hiccups, not a property of the program. Falls back to the median.
pub fn supported_quantile(samples: usize, wanted: usize) -> usize {
    LADDER
        .iter()
        .copied()
        .filter(|&q| q <= wanted && samples - (q * samples).div_ceil(1000) >= 10)
        .fold(500, usize::max)
}

/// Which end of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A timing metric's headline is its quietest round: interference from
/// the host only ever slows a round, so the best round is the least
/// contaminated estimate of the program's own speed.
pub fn best_of_rounds(per_round: &[f64], better: Better) -> Option<f64> {
    per_round.iter().copied().reduce(|a, b| match better {
        Better::Lower => a.min(b),
        Better::Higher => a.max(b),
    })
}

/// The same idea one request at a time: position `k` of every round is the
/// same request, so its best reading over the rounds is its quietest. A
/// slow stretch of the host shorter than a round spoils every round's
/// median but rarely the same request in every round. Rounds that are
/// shorter than the longest (a request failed, which fails the run anyway)
/// no longer line up and are left out.
pub fn best_per_position(rounds: &[&[f64]], better: Better) -> Vec<f64> {
    let len = rounds.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .filter_map(|k| {
            let at_k: Vec<f64> = rounds
                .iter()
                .filter(|r| r.len() == len)
                .map(|r| r[k])
                .collect();
            best_of_rounds(&at_k, better)
        })
        .collect()
}

/// A share metric pools its numerator and denominator over every round,
/// so one failure in one round is never hidden by picking another round.
pub fn pooled_share(per_round: &[(u64, u64)]) -> Option<f64> {
    let (num, den) = per_round
        .iter()
        .fold((0u64, 0u64), |(n, d), &(rn, rd)| (n + rn, d + rd));
    (den > 0).then(|| num as f64 / den as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 24 requests: 12 beyond the median, 6 beyond p75.
        assert_eq!(supported_quantile(24, 900), 500);
        assert_eq!(supported_quantile(40, 900), 750);
        assert_eq!(supported_quantile(99, 900), 750);
        assert_eq!(supported_quantile(100, 900), 900);
        // Never above what was asked for, however many samples.
        assert_eq!(supported_quantile(100_000, 900), 900);
        assert_eq!(supported_quantile(999, 990), 950);
        assert_eq!(supported_quantile(1000, 990), 990);
        assert_eq!(supported_quantile(3, 990), 500);
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 900), Some(90.0));
        assert_eq!(quantile(&xs, 500), Some(50.0));
        assert_eq!(quantile(&[7.0], 990), Some(7.0));
        assert_eq!(quantile(&[], 500), None);
    }

    #[test]
    fn best_of_rounds_differs_from_pooling() {
        // One noisy round: the headline ignores it ...
        assert_eq!(
            best_of_rounds(&[14.0, 31.0, 15.0], Better::Lower),
            Some(14.0)
        );
        assert_eq!(
            best_of_rounds(&[900.0, 1400.0], Better::Higher),
            Some(1400.0)
        );
        assert_eq!(best_of_rounds(&[], Better::Lower), None);
        // Request by request, two half-noisy rounds still give a quiet read.
        let (a, b, short) = ([10.0, 30.0, 12.0], [25.0, 11.0, 13.0], [1.0]);
        assert_eq!(
            best_per_position(&[&a, &b, &short], Better::Lower),
            vec![10.0, 11.0, 12.0]
        );
        assert!(best_per_position(&[], Better::Lower).is_empty());
        // ... but a failure in that round still counts: 1 of 30, not 0 of 10.
        let share = pooled_share(&[(0, 10), (1, 10), (0, 10)]).unwrap();
        assert!((share - 1.0 / 30.0).abs() < 1e-12);
        assert_eq!(pooled_share(&[]), None);
    }
}
