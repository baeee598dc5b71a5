//! Streaming and batch statistics used by the quantization engines.

/// Largest absolute value in a slice (0 for empty input).
pub fn abs_max(data: &[f32]) -> f32 {
    data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Arithmetic mean (0 for empty input).
pub fn mean(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().map(|&v| f64::from(v)).sum::<f64>() / data.len() as f64
}

/// Population variance via the paper's streaming identity (Eq. (7)):
/// `σ² = E[x²] − E[x]²`. Returns 0 for empty input.
pub fn variance(data: &[f32]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let n = data.len() as f64;
    let sum: f64 = data.iter().map(|&v| f64::from(v)).sum();
    let sum_sq: f64 = data.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
    (sum_sq / n - (sum / n) * (sum / n)).max(0.0)
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Evaluates the empirical CDF of `data` at each of `grid_points`.
///
/// Used to reproduce the paper's Fig. 3 distribution-diversity analysis.
pub fn empirical_cdf(data: &[f32], grid_points: &[f32]) -> Vec<f64> {
    let mut sorted: Vec<f32> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite data"));
    grid_points
        .iter()
        .map(|&g| {
            let idx = sorted.partition_point(|&v| v <= g);
            if sorted.is_empty() {
                0.0
            } else {
                idx as f64 / sorted.len() as f64
            }
        })
        .collect()
}

/// The streaming accumulator the RQU hardware maintains per group:
/// running `Σx`, `Σx²`, and `max |x|` (Sec. V-C, Fig. 8).
///
/// # Example
///
/// ```
/// use mant_tensor::RunningGroupStats;
///
/// let mut s = RunningGroupStats::new();
/// for v in [1.0f32, -2.0, 3.0] {
///     s.push(v);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.abs_max(), 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningGroupStats {
    sum: f64,
    sum_sq: f64,
    abs_max: f32,
    count: usize,
}

impl RunningGroupStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningGroupStats::default()
    }

    /// An accumulator holding sums kept elsewhere — `Σx`, `Σx²` and
    /// `max |x|` over `count` elements, each accumulated the way
    /// [`RunningGroupStats::push`] does. For engines that keep many
    /// groups' sums as parallel arrays (one vector lane per group).
    pub fn from_parts(sum: f64, sum_sq: f64, abs_max: f32, count: usize) -> Self {
        RunningGroupStats {
            sum,
            sum_sq,
            abs_max,
            count,
        }
    }

    /// Absorbs one element.
    pub fn push(&mut self, x: f32) {
        self.sum += f64::from(x);
        self.sum_sq += f64::from(x) * f64::from(x);
        self.abs_max = self.abs_max.max(x.abs());
        self.count += 1;
    }

    /// Absorbs a slice of elements.
    pub fn extend_from_slice(&mut self, xs: &[f32]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of elements absorbed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Running maximum absolute value.
    pub fn abs_max(&self) -> f32 {
        self.abs_max
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance per Eq. (7) (0 when empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let m = self.sum / n;
        (self.sum_sq / n - m * m).max(0.0)
    }

    /// Variance of the group after normalizing by its max |x| (the paper
    /// normalizes each group to `[-1, 1]` before the variance→`a` lookup).
    pub fn normalized_variance(&self) -> f64 {
        let m = f64::from(self.abs_max);
        if m == 0.0 {
            return 0.0;
        }
        self.variance() / (m * m)
    }

    /// Resets the accumulator for the next group/window.
    pub fn reset(&mut self) {
        *self = RunningGroupStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stats() {
        let data = [1.0f32, -3.0, 2.0];
        assert_eq!(abs_max(&data), 3.0);
        assert!((mean(&data) - 0.0).abs() < 1e-12);
        // Var = (1 + 9 + 4)/3 − 0 = 14/3.
        assert!((variance(&data) - 14.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(abs_max(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((mse(&[0.0, 0.0], &[1.0, -1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn running_matches_batch() {
        let data = [0.5f32, -1.25, 3.75, 0.0, -2.0];
        let mut s = RunningGroupStats::new();
        s.extend_from_slice(&data);
        assert_eq!(s.count(), 5);
        assert_eq!(s.abs_max(), abs_max(&data));
        assert!((s.mean() - mean(&data)).abs() < 1e-12);
        assert!((s.variance() - variance(&data)).abs() < 1e-12);
    }

    #[test]
    fn normalized_variance_is_scale_invariant() {
        let base = [0.1f32, -0.5, 0.9, 0.3];
        let scaled: Vec<f32> = base.iter().map(|&v| v * 37.0).collect();
        let mut a = RunningGroupStats::new();
        a.extend_from_slice(&base);
        let mut b = RunningGroupStats::new();
        b.extend_from_slice(&scaled);
        assert!((a.normalized_variance() - b.normalized_variance()).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let mut s = RunningGroupStats::new();
        s.push(5.0);
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.abs_max(), 0.0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let data = [-1.0f32, -0.5, 0.0, 0.5, 1.0];
        let grid = [-2.0f32, -0.75, 0.0, 0.75, 2.0];
        let cdf = empirical_cdf(&data, &grid);
        assert_eq!(cdf[0], 0.0);
        assert_eq!(cdf[4], 1.0);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((cdf[2] - 0.6).abs() < 1e-12); // three of five ≤ 0
    }
}
