//! The benchmark's own seeded generator. Every request set and schedule
//! comes out of this file alone, so the measured program sees only
//! generated inputs and equal seeds give equal inputs.

/// splitmix64: tiny, stateless between streams, and good enough to pick
/// token ids and shuffle schedules.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one named purpose, so adding a draw to
    /// one request field never shifts another field's values.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// small ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| self.below(vocab)).collect()
    }
}

/// `n` lengths covering `lo..=hi` evenly, in the order `rng` shuffles them
/// into. Stratified, not independent, draws: the multiset of lengths is a
/// constant of the workload, so a median latency does not move with a
/// draw's luck.
pub fn stratified_lengths(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    let mut out: Vec<usize> = (0..n)
        .map(|i| lo + (((i as f64 + 0.5) / n as f64) * span) as usize)
        .collect();
    rng.shuffle(&mut out);
    out
}

/// The `n` inter-arrival gaps, in seconds, of a Poisson process at `rate`
/// per second: the `n` mid-quantiles of the exponential distribution, in
/// the order `rng` shuffles them into. Their sum is the same for every
/// order.
pub fn poisson_gaps(rng: &mut Rng, n: usize, rate: f64) -> Vec<f64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    rng.shuffle(&mut gaps);
    gaps
}

/// Arrival offsets from the start of a round: each one gap after the one
/// before.
pub fn arrivals(gaps: &[f64]) -> Vec<f64> {
    gaps.iter()
        .scan(0.0, |t, g| {
            *t += g;
            Some(*t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams_and_forks_differ() {
        let (mut a, mut b) = (Rng::new(5), Rng::new(5));
        assert_eq!(a.tokens(32, 512), b.tokens(32, 512));
        let (mut f1, mut f2) = (Rng::new(5).fork(1), Rng::new(5).fork(2));
        assert_ne!(f1.tokens(32, 512), f2.tokens(32, 512));
        assert_ne!(Rng::new(5).tokens(32, 512), Rng::new(6).tokens(32, 512));
    }

    #[test]
    fn stratified_lengths_hold_their_distribution_in_any_order() {
        let mut a = stratified_lengths(&mut Rng::new(1), 24, 384, 512);
        let mut b = stratified_lengths(&mut Rng::new(2), 24, 384, 512);
        assert_ne!(a, b, "the order is the generator's");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the multiset is not");
        assert!(a[0] >= 384 && *a.last().unwrap() <= 512);
        assert!(a[0] < 392 && *a.last().unwrap() > 504, "covers the range");
    }

    #[test]
    fn poisson_gaps_have_the_stated_rate_in_any_order() {
        let s = arrivals(&poisson_gaps(&mut Rng::new(3), 64, 8.0));
        assert!(s[0] > 0.0 && s.windows(2).all(|w| w[1] > w[0]));
        let rate = 64.0 / s[63];
        assert!((rate - 8.0).abs() < 0.5, "rate {rate}");
        let other = arrivals(&poisson_gaps(&mut Rng::new(4), 64, 8.0));
        assert_ne!(s, other);
        assert!((s[63] - other[63]).abs() < 1e-9, "same length in any order");
    }
}
