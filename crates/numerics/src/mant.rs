//! The MANT numeric type: `value = ±(a·|i| + 2^|i|)`, `i ∈ [0, 7]`.
//!
//! MANT (mathematically adaptive numerical type) is the paper's core
//! contribution (Sec. IV). A single 8-bit coefficient `a`, stored once per
//! quantization group, selects one member of a continuous family of 4-bit
//! grids:
//!
//! - `a = 0` is exactly PoT (power-of-two),
//! - `a ≈ 17` matches a 4-bit float (E2M1) distribution,
//! - `a ≈ 25` matches NormalFloat,
//! - large `a` approaches a uniform (INT-like) distribution.
//!
//! Crucially, decoding fuses into integer arithmetic: for an activation `x`,
//! `x · (a·i + 2^i) = a·(x·i) + (x << i)`, so a multiply-accumulate lane
//! (`psum1 = Σ x·i`) and a shift-accumulate lane (`psum2 = Σ x·2^i`) replace
//! any dequantization step (paper Eq. (5)).

use crate::error::NumericsError;
use crate::grid::Grid;

/// Magnitude codes span `i ∈ [0, 7]` (sign-magnitude INT4).
pub const MAG_CODES: u8 = 8;

/// Largest magnitude code (`|INT|` ranges over `[0, 7]`).
pub const MAX_MAG: u8 = MAG_CODES - 1;

/// Exclusive upper bound on the coefficient `a` (8-bit encoding, Sec. IV-A).
pub const MAX_COEFFICIENT: u32 = 128;

/// `LEVELS_F32[a][i] = (a·i + 2^i) as f32` for every coefficient — the
/// table the per-element encode scans and the group-encode kernel
/// (`crate::kernels::EncodeTable`) broadcasts. Levels stay below 2^10, so
/// the conversion is exact.
static LEVELS_F32: [[f32; MAG_CODES as usize]; MAX_COEFFICIENT as usize] = {
    let mut table = [[0.0f32; MAG_CODES as usize]; MAX_COEFFICIENT as usize];
    let mut a = 0;
    while a < MAX_COEFFICIENT as usize {
        let mut i = 0;
        while i < MAG_CODES as usize {
            table[a][i] = (a as u32 * i as u32 + (1u32 << i)) as f32;
            i += 1;
        }
        a += 1;
    }
    table
};

/// A sign-magnitude MANT code: 1 sign bit + 3 magnitude bits.
///
/// Unlike two's-complement INT4, the magnitude 0 code is *not* the value
/// zero: it decodes to `±(a·0 + 2^0) = ±1`, so all 16 codes are distinct
/// values (Fig. 6 counts 16 points for every 4-bit type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MantCode {
    /// True if the encoded value is negative.
    pub negative: bool,
    /// Magnitude code `i ∈ [0, 7]`.
    pub magnitude: u8,
}

impl MantCode {
    /// Creates a code, clamping `magnitude` to [`MAX_MAG`].
    pub fn new(negative: bool, magnitude: u8) -> Self {
        MantCode {
            negative,
            magnitude: magnitude.min(MAX_MAG),
        }
    }

    /// Packs the code into the low 4 bits of a byte (sign in bit 3).
    pub fn to_bits(self) -> u8 {
        ((self.negative as u8) << 3) | (self.magnitude & 0x7)
    }

    /// Unpacks a code from the low 4 bits of a byte.
    pub fn from_bits(bits: u8) -> Self {
        MantCode {
            negative: bits & 0x8 != 0,
            magnitude: bits & 0x7,
        }
    }

    /// The signed magnitude as an `i8` in `[-7, 7]` (loses the ±0 split).
    pub fn signed_magnitude(self) -> i8 {
        let m = self.magnitude as i8;
        if self.negative {
            -m
        } else {
            m
        }
    }
}

/// One member of the MANT family, identified by its coefficient `a`.
///
/// # Example
///
/// ```
/// use mant_numerics::Mant;
///
/// let pot = Mant::new(0)?; // a = 0 degenerates to PoT
/// assert_eq!(pot.levels(), [1, 2, 4, 8, 16, 32, 64, 128]);
/// # Ok::<(), mant_numerics::NumericsError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mant {
    a: u32,
}

impl Mant {
    /// Creates a MANT type with coefficient `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidCoefficient`] if `a >= 128`; the paper
    /// encodes `a` in 8 bits of per-group metadata and observes the grid
    /// shape saturates beyond 128 (Sec. IV-A).
    pub fn new(a: u32) -> Result<Self, NumericsError> {
        if a >= MAX_COEFFICIENT {
            return Err(NumericsError::InvalidCoefficient { a });
        }
        Ok(Mant { a })
    }

    /// The coefficient `a`.
    pub fn coefficient(&self) -> u32 {
        self.a
    }

    /// The integer level for magnitude code `i`: `a·i + 2^i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 7`.
    #[inline]
    pub fn level(&self, i: u8) -> u32 {
        assert!(i <= MAX_MAG, "MANT magnitude code {i} exceeds 7");
        self.a * u32::from(i) + (1u32 << i)
    }

    /// All eight positive levels in increasing order.
    pub fn levels(&self) -> [u32; 8] {
        let mut out = [0u32; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.level(i as u8);
        }
        out
    }

    /// All eight positive levels as f32, in increasing order — exactly
    /// `levels()` converted (a precomputed table, no range assert).
    #[inline]
    pub fn levels_f32(&self) -> &'static [f32; 8] {
        &LEVELS_F32[self.a as usize]
    }

    /// The largest positive level, `7a + 128`.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.level(MAX_MAG)
    }

    /// Encodes the magnitude code whose level is nearest to `m ≥ 0`.
    ///
    /// Ties round toward the smaller level. Negative or NaN input encodes to
    /// magnitude 0.
    pub fn encode_magnitude(&self, m: f32) -> u8 {
        if m.is_nan() || m <= 0.0 {
            return 0;
        }
        let levels = self.levels_f32();
        let mut best = 0u8;
        let mut best_err = (m - levels[0]).abs();
        for i in 1..MAG_CODES {
            let err = (m - levels[usize::from(i)]).abs();
            if err < best_err {
                best = i;
                best_err = err;
            }
        }
        best
    }

    /// Encodes `x` to the nearest MANT code (sign handled separately).
    pub fn encode(&self, x: f32) -> MantCode {
        MantCode {
            negative: x.is_sign_negative(),
            magnitude: self.encode_magnitude(x.abs()),
        }
    }

    /// Decodes a code to its signed integer value `±(a·i + 2^i)`.
    pub fn decode(&self, code: MantCode) -> i32 {
        let v = self.level(code.magnitude) as i32;
        if code.negative {
            -v
        } else {
            v
        }
    }

    /// Rounds `x` to the nearest representable MANT value (unscaled).
    pub fn quantize(&self, x: f32) -> f32 {
        let code = self.encode(x);
        let level = self.levels_f32()[usize::from(code.magnitude)];
        if code.negative {
            -level
        } else {
            level
        }
    }

    /// The signed contribution of `code` to the multiply lane:
    /// `psum1` accumulates `x · (±i)` (paper Eq. (5)).
    pub fn psum1_operand(code: MantCode) -> i32 {
        i32::from(code.signed_magnitude())
    }

    /// The signed contribution of `code` to the shift lane:
    /// `psum2` accumulates `x · (±2^i)` (paper Eq. (5)).
    pub fn psum2_operand(code: MantCode) -> i32 {
        let v = 1i32 << code.magnitude;
        if code.negative {
            -v
        } else {
            v
        }
    }

    /// Recombines the two partial sums: `a·psum1 + psum2` equals
    /// `Σ x·(±(a·i + 2^i))` exactly, in integer arithmetic.
    pub fn combine_psums(&self, psum1: i64, psum2: i64) -> i64 {
        i64::from(self.a) * psum1 + psum2
    }

    /// The full symmetric 16-point grid for this coefficient.
    pub fn grid(&self) -> Grid {
        let mags: Vec<f32> = self.levels().iter().map(|&l| l as f32).collect();
        Grid::symmetric(&mags).expect("MANT levels are finite and non-empty")
    }

    /// Variance of the normalized grid points (max scaled to 1).
    ///
    /// The KV-cache engine selects `a` by matching the variance of the
    /// normalized data group against per-`a` variance ranges (Sec. V-C);
    /// this is the grid-side statistic those ranges are anchored to.
    pub fn normalized_grid_variance(&self) -> f64 {
        let g = self.grid().normalized();
        let pts = g.points();
        let n = pts.len() as f64;
        let mean: f64 = pts.iter().map(|&p| p as f64).sum::<f64>() / n;
        pts.iter()
            .map(|&p| {
                let d = p as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n
    }

    /// Finds the coefficient whose normalized levels best approximate the
    /// given positive `target_levels` (max-normalized internally), in the
    /// least-squares sense. This reproduces the paper's Fig. 5 fits
    /// (`a ≈ 17` for 4-bit float, `a ≈ 25` for NormalFloat).
    ///
    /// # Panics
    ///
    /// Panics if `target_levels` is empty or its maximum is not positive.
    pub fn approximate(target_levels: &[f32]) -> Mant {
        assert!(!target_levels.is_empty(), "target levels must be non-empty");
        let tmax = target_levels.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(tmax > 0.0, "target levels must contain a positive value");
        let targets: Vec<f64> = target_levels
            .iter()
            .map(|&t| f64::from(t) / f64::from(tmax))
            .collect();
        let mut best = Mant { a: 0 };
        let mut best_err = f64::INFINITY;
        for a in 0..MAX_COEFFICIENT {
            let m = Mant { a };
            let max = f64::from(m.max_level());
            // Compare positionally over however many target levels exist,
            // sampling the MANT levels at matching normalized code positions.
            let mut err = 0.0f64;
            let n = targets.len();
            for (k, &t) in targets.iter().enumerate() {
                let i = if n == 1 {
                    MAX_MAG
                } else {
                    ((k * usize::from(MAX_MAG)) as f64 / (n - 1) as f64).round() as u8
                };
                let level = f64::from(m.level(i)) / max;
                let d = level - t;
                err += d * d;
            }
            if err < best_err {
                best_err = err;
                best = m;
            }
        }
        best
    }
}

impl Default for Mant {
    /// The default coefficient is 17, the paper's float-like running example.
    fn default() -> Self {
        Mant { a: 17 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_a17_levels() {
        // Fig. 7: a = 17 → {1, 19, 38, 59, 84, 117, 166, 247}.
        let m = Mant::new(17).unwrap();
        assert_eq!(m.levels(), [1, 19, 38, 59, 84, 117, 166, 247]);
        assert_eq!(m.max_level(), 247);
    }

    #[test]
    fn f32_level_table_is_the_integer_levels() {
        for a in 0..MAX_COEFFICIENT {
            let m = Mant::new(a).unwrap();
            assert_eq!(m.levels_f32().map(|l| l as u32), m.levels(), "a={a}");
            for x in [-300.0f32, -59.5, -0.0, 0.4, 19.0, 1e9] {
                assert_eq!(m.quantize(x), m.decode(m.encode(x)) as f32, "a={a} x={x}");
            }
        }
    }

    #[test]
    fn a0_is_pot() {
        let m = Mant::new(0).unwrap();
        assert_eq!(m.levels(), [1, 2, 4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn coefficient_bounds() {
        assert!(Mant::new(127).is_ok());
        assert_eq!(
            Mant::new(128),
            Err(NumericsError::InvalidCoefficient { a: 128 })
        );
    }

    #[test]
    fn levels_strictly_increasing() {
        for a in 0..MAX_COEFFICIENT {
            let m = Mant::new(a).unwrap();
            let l = m.levels();
            for i in 1..l.len() {
                assert!(l[i] > l[i - 1], "a={a} levels not increasing");
            }
        }
    }

    #[test]
    fn encode_decode_paper_weights() {
        // Fig. 7 rounding example: scaled weights {84.03, 137.51, -50.93, 247.01}
        // encode to levels {84, 117, -59, 247} under a = 17.
        let m = Mant::new(17).unwrap();
        let inputs = [84.03f32, 137.51, -50.93, 247.01];
        let expect = [84i32, 117, -59, 247];
        for (&x, &e) in inputs.iter().zip(expect.iter()) {
            assert_eq!(m.decode(m.encode(x)), e, "input {x}");
        }
    }

    #[test]
    fn encode_magnitude_clamps_and_handles_nan() {
        let m = Mant::new(17).unwrap();
        assert_eq!(m.encode_magnitude(10_000.0), 7);
        assert_eq!(m.encode_magnitude(0.0), 0);
        assert_eq!(m.encode_magnitude(-5.0), 0);
        assert_eq!(m.encode_magnitude(f32::NAN), 0);
    }

    #[test]
    fn code_bit_packing_roundtrip() {
        for bits in 0..16u8 {
            let c = MantCode::from_bits(bits);
            assert_eq!(c.to_bits(), bits);
        }
        assert_eq!(MantCode::new(true, 9).magnitude, MAX_MAG);
    }

    #[test]
    fn psum_decomposition_matches_decode() {
        for a in [0u32, 5, 17, 25, 60, 127] {
            let m = Mant::new(a).unwrap();
            for bits in 0..16u8 {
                let c = MantCode::from_bits(bits);
                let x = 13i64; // arbitrary activation value
                let fused = m.combine_psums(
                    x * i64::from(Mant::psum1_operand(c)),
                    x * i64::from(Mant::psum2_operand(c)),
                );
                assert_eq!(fused, x * i64::from(m.decode(c)), "a={a} bits={bits}");
            }
        }
    }

    #[test]
    fn grid_has_16_points() {
        for a in [0u32, 17, 25, 127] {
            assert_eq!(Mant::new(a).unwrap().grid().len(), 16);
        }
    }

    #[test]
    fn approximate_float_is_near_17() {
        // 4-bit float (E2M1) positive magnitudes.
        let float4 = [0.0f32, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0];
        let m = Mant::approximate(&float4);
        assert!(
            (14..=20).contains(&m.coefficient()),
            "expected a near 17, got {}",
            m.coefficient()
        );
    }

    #[test]
    fn approximate_nf_is_near_25() {
        let nf = crate::nf::nf4_paper_levels();
        let m = Mant::approximate(&nf);
        assert!(
            (21..=29).contains(&m.coefficient()),
            "expected a near 25, got {}",
            m.coefficient()
        );
    }

    #[test]
    fn normalized_variance_monotone_in_a() {
        // Larger a → more uniform grid → higher variance (Sec. V-C).
        let lo = Mant::new(5).unwrap().normalized_grid_variance();
        let mid = Mant::new(40).unwrap().normalized_grid_variance();
        let hi = Mant::new(120).unwrap().normalized_grid_variance();
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn default_is_float_like() {
        assert_eq!(Mant::default().coefficient(), 17);
    }
}
