//! Software IEEE 754 half precision (binary16).
//!
//! The paper's FP16 baseline and all scaling-factor metadata are
//! half-precision; this module provides bit-exact conversion with
//! round-to-nearest-even, without external crates.

/// Converts `f32` to binary16 bits with round-to-nearest-even.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let payload = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | payload | ((mant >> 13) as u16 & 0x3ff);
    }

    // Unbiased exponent, rebiased for f16 (bias 15).
    let unbiased = exp - 127;
    let f16_exp = unbiased + 15;

    if f16_exp >= 0x1f {
        // Overflow → infinity.
        return sign | 0x7c00;
    }
    if f16_exp <= 0 {
        // Subnormal or zero.
        if f16_exp < -10 {
            return sign; // underflows to zero
        }
        // Add the implicit leading one, then shift into subnormal position.
        let m = mant | 0x0080_0000;
        let shift = (14 - f16_exp) as u32;
        let rounded = round_shift_right_even(m, shift);
        return sign | rounded as u16;
    }

    let rounded_mant = round_shift_right_even(mant, 13);
    // Rounding may carry into the exponent; the layout makes the carry
    // propagate correctly by simple addition.
    let out = ((f16_exp as u32) << 10) + rounded_mant;
    if out >= 0x7c00 {
        return sign | 0x7c00;
    }
    sign | out as u16
}

/// Converts binary16 bits to `f32` exactly.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1f;
    let mant = u32::from(h & 0x3ff);

    let bits = match exp {
        0 => {
            if mant == 0 {
                sign
            } else {
                // Subnormal: value = mant × 2⁻²⁴, exact in f32 arithmetic.
                let v = mant as f32 * 2.0f32.powi(-24);
                return if sign != 0 { -v } else { v };
            }
        }
        0x1f => sign | 0x7f80_0000 | (mant << 13),
        _ => sign | ((u32::from(exp) + 127 - 15) << 23) | (mant << 13),
    };
    f32::from_bits(bits)
}

/// Rounds `x` through an FP16 representation (the paper's storage format for
/// scales and reference tensors).
///
/// # Example
///
/// ```
/// use mant_numerics::fp16::quantize_fp16;
///
/// assert_eq!(quantize_fp16(1.0), 1.0);
/// // 1/3 is not representable in 11 significand bits.
/// assert!((quantize_fp16(1.0 / 3.0) - 1.0 / 3.0).abs() > 0.0);
/// ```
#[inline]
pub fn quantize_fp16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Largest finite FP16 value.
pub const FP16_MAX: f32 = 65504.0;

fn round_shift_right_even(value: u32, shift: u32) -> u32 {
    if shift == 0 {
        return value;
    }
    if shift > 31 {
        return 0;
    }
    let truncated = value >> shift;
    let remainder = value & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    // Branch-free: which side of the half the remainder falls on is a coin
    // flip the predictor loses.
    truncated + u32::from(remainder > half) + (u32::from(remainder == half) & truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048i32 {
            let x = i as f32;
            assert_eq!(quantize_fp16(x), x, "{x}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(0.5), 0x3800);
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00); // overflow → inf
    }

    #[test]
    fn decode_known_patterns() {
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0xc000), -2.0);
        assert_eq!(f16_bits_to_f32(0x7bff), 65504.0);
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24)); // smallest subnormal
        assert_eq!(f16_bits_to_f32(0x0400), 2.0f32.powi(-14)); // smallest normal
        assert!(f16_bits_to_f32(0x7c00).is_infinite());
        assert!(f16_bits_to_f32(0x7e00).is_nan());
    }

    #[test]
    fn subnormal_roundtrip() {
        for bits in [0x0001u16, 0x0003, 0x03ff, 0x83ff, 0x0200] {
            let f = f16_bits_to_f32(bits);
            assert_eq!(f32_to_f16_bits(f), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn all_f16_values_roundtrip() {
        // Every finite half value must survive f16 → f32 → f16 exactly.
        for bits in 0..=0xffffu16 {
            let exp = (bits >> 10) & 0x1f;
            if exp == 0x1f {
                continue; // inf/NaN: NaN payloads may not roundtrip exactly
            }
            let f = f16_bits_to_f32(bits);
            assert_eq!(f32_to_f16_bits(f), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn rounding_shift_is_the_three_way_compare() {
        // The branch-free sum against the comparison it replaced, on every
        // 12-bit value at every shift that leaves a remainder.
        for shift in 1..=12u32 {
            for value in 0..(1u32 << 12) {
                let truncated = value >> shift;
                let remainder = value & ((1 << shift) - 1);
                let want = match remainder.cmp(&(1 << (shift - 1))) {
                    std::cmp::Ordering::Greater => truncated + 1,
                    std::cmp::Ordering::Equal => truncated + (truncated & 1),
                    std::cmp::Ordering::Less => truncated,
                };
                assert_eq!(
                    round_shift_right_even(value, shift),
                    want,
                    "{value} >> {shift}"
                );
            }
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 2049 is exactly between 2048 and 2050 in FP16 (11-bit significand);
        // ties go to even (2048).
        assert_eq!(quantize_fp16(2049.0), 2048.0);
        assert_eq!(quantize_fp16(2051.0), 2052.0);
    }

    #[test]
    fn relative_error_bounded() {
        // ULP for normal halves is 2^-11 relative; check a sweep.
        let mut x = 1e-3f32;
        while x < 6e4 {
            let q = quantize_fp16(x);
            assert!(((q - x) / x).abs() <= 2.0f32.powi(-11), "{x} -> {q}");
            x *= 1.37;
        }
    }
}
