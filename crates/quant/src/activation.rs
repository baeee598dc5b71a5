//! Group-wise INT8 activation quantization (paper Sec. V-B).
//!
//! Activations keep 8 bits: they are transient (<5% of memory), and INT8
//! keeps them compatible with the integer MAC units the fused MANT GEMM
//! uses. The hardware derives each group's max with a streaming comparator
//! pipelined into the systolic-array output (Sec. VI-C); functionally that
//! is a per-group `max |x|` → scale → round.

use mant_numerics::fp16::quantize_fp16;
use mant_numerics::kernels;
use mant_tensor::Matrix;

use crate::error::QuantError;

/// An INT8 group-quantized activation tensor.
///
/// Layout matches the weight side: `rows × cols`, with the accumulation
/// dimension contiguous and grouped.
#[derive(Clone, Debug)]
pub struct ActivationTensor {
    rows: usize,
    cols: usize,
    group_size: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

/// Quantizes `x` to group-wise INT8 along its inner dimension.
///
/// # Errors
///
/// Returns [`QuantError::BadGroupSize`] if `group_size` does not divide
/// `x.cols()`.
///
/// # Example
///
/// ```
/// use mant_quant::quantize_activations_int8;
/// use mant_tensor::Matrix;
///
/// let x = Matrix::from_vec(1, 4, vec![1.0, -2.0, 0.5, 127.0]);
/// let q = quantize_activations_int8(&x, 4)?;
/// assert_eq!(q.group_codes(0, 0)[3], 127);
/// # Ok::<(), mant_quant::QuantError>(())
/// ```
pub fn quantize_activations_int8(
    x: &Matrix,
    group_size: usize,
) -> Result<ActivationTensor, QuantError> {
    if group_size == 0 || !x.cols().is_multiple_of(group_size) {
        return Err(QuantError::BadGroupSize {
            group_size,
            inner_dim: x.cols(),
        });
    }
    let gpr = x.cols() / group_size;
    let mut codes = vec![0i8; x.rows() * x.cols()];
    let mut scales = Vec::with_capacity(x.rows() * gpr);
    // Per group: a vectorized max-|x| sweep, then a vectorized
    // divide-round-clamp pass through the process kernel tier —
    // bit-identical to the scalar fold + `quantize_symmetric_int` loop
    // (see `mant_numerics::simd` for the exactness argument).
    let d = kernels();
    for r in 0..x.rows() {
        let row = x.row(r);
        for g in 0..gpr {
            let lo = g * group_size;
            let group = &row[lo..lo + group_size];
            let amax = d.abs_max(group);
            let scale = if amax == 0.0 {
                1.0
            } else {
                quantize_fp16(amax / 127.0).max(f32::MIN_POSITIVE)
            };
            scales.push(scale);
            let base = r * x.cols() + lo;
            d.quantize_i8(group, scale, &mut codes[base..base + group_size]);
        }
    }
    Ok(ActivationTensor {
        rows: x.rows(),
        cols: x.cols(),
        group_size,
        codes,
        scales,
    })
}

impl ActivationTensor {
    /// Number of rows (tokens).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Accumulation-dimension length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Groups per row.
    pub fn groups_per_row(&self) -> usize {
        self.cols / self.group_size
    }

    /// INT8 codes of group `g` in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn group_codes(&self, r: usize, g: usize) -> &[i8] {
        let base = r * self.cols + g * self.group_size;
        &self.codes[base..base + self.group_size]
    }

    /// Scale of group `g` in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn scale(&self, r: usize, g: usize) -> f32 {
        self.scales[r * self.groups_per_row() + g]
    }

    /// All INT8 codes of row `r`, groups consecutive — the operand of the
    /// grouped row-tile kernel sweep.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row_codes(&self, r: usize) -> &[i8] {
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Dequantizes to f32.
    pub fn dequantize(&self) -> Matrix {
        let gpr = self.groups_per_row();
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            let g = c / self.group_size;
            f32::from(self.codes[r * self.cols + c]) * self.scales[r * gpr + g]
        })
    }

    /// Storage bits: 8 per element + 16 per group scale.
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * 8 + self.scales.len() * 16
    }
}

/// A single activation vector quantized to group-wise INT8 — the per-step
/// operand of the quantized execution backend's GEMV and of the fused
/// `Q·Kᵀ` attention path.
#[derive(Clone, Debug)]
pub struct QuantizedVector {
    group_size: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

/// Quantizes one activation vector to group-wise INT8 along its length,
/// with the same FP16-rounded scale rule as [`quantize_activations_int8`].
///
/// # Errors
///
/// Returns [`QuantError::BadGroupSize`] if `group_size` does not divide
/// `x.len()`.
///
/// # Example
///
/// ```
/// use mant_quant::quantize_vector_int8;
///
/// let q = quantize_vector_int8(&[1.0, -2.0, 0.5, 127.0], 4)?;
/// assert_eq!(q.group_codes(0)[3], 127);
/// # Ok::<(), mant_quant::QuantError>(())
/// ```
pub fn quantize_vector_int8(x: &[f32], group_size: usize) -> Result<QuantizedVector, QuantError> {
    if group_size == 0 || !x.len().is_multiple_of(group_size) {
        return Err(QuantError::BadGroupSize {
            group_size,
            inner_dim: x.len(),
        });
    }
    let mut codes = vec![0i8; x.len()];
    let mut scales = Vec::with_capacity(x.len() / group_size);
    // Same vectorized two-pass group quantization as the matrix path.
    let d = kernels();
    for (group, out) in x
        .chunks_exact(group_size)
        .zip(codes.chunks_exact_mut(group_size))
    {
        let amax = d.abs_max(group);
        let scale = if amax == 0.0 {
            1.0
        } else {
            quantize_fp16(amax / 127.0).max(f32::MIN_POSITIVE)
        };
        scales.push(scale);
        d.quantize_i8(group, scale, out);
    }
    Ok(QuantizedVector {
        group_size,
        codes,
        scales,
    })
}

/// The vector's INT8 codes, groups consecutive: how a batch of vectors
/// is handed to the row sweep
/// ([`KernelDispatch::dot_packed_rows_scaled`](mant_numerics::KernelDispatch::dot_packed_rows_scaled))
/// as its members, with no copy.
impl AsRef<[i8]> for QuantizedVector {
    fn as_ref(&self) -> &[i8] {
        &self.codes
    }
}

impl QuantizedVector {
    /// Vector length.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.codes.len() / self.group_size
    }

    /// INT8 codes of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn group_codes(&self, g: usize) -> &[i8] {
        let lo = g * self.group_size;
        &self.codes[lo..lo + self.group_size]
    }

    /// All INT8 codes, groups consecutive — the operand of the grouped
    /// row-tile kernel sweep.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Scale of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn scale(&self, g: usize) -> f32 {
        self.scales[g]
    }

    /// Dequantizes to f32.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .enumerate()
            .map(|(i, &c)| f32::from(c) * self.scales[i / self.group_size])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mant_tensor::{mse, TensorGenerator};

    #[test]
    fn roundtrip_error_small() {
        let mut g = TensorGenerator::new(51);
        let x = g.activation_matrix(8, 256, 1.0, 0.02, 30.0);
        let q = quantize_activations_int8(&x, 64).unwrap();
        let deq = q.dequantize();
        let err = mse(x.as_slice(), deq.as_slice());
        let power = mse(x.as_slice(), &vec![0.0; x.len()]);
        // INT8 group-wise is near-lossless even with outlier channels.
        assert!(err / power < 1e-3, "relative error {}", err / power);
    }

    #[test]
    fn codes_saturate_at_127() {
        let x = Matrix::from_vec(1, 4, vec![100.0, -100.0, 50.0, 0.0]);
        let q = quantize_activations_int8(&x, 4).unwrap();
        let codes = q.group_codes(0, 0);
        assert_eq!(codes[0], 127);
        assert_eq!(codes[1], -127);
        assert_eq!(codes[3], 0);
    }

    #[test]
    fn zero_group_unit_scale() {
        let x = Matrix::zeros(1, 8);
        let q = quantize_activations_int8(&x, 8).unwrap();
        assert_eq!(q.scale(0, 0), 1.0);
        assert!(q.group_codes(0, 0).iter().all(|&c| c == 0));
    }

    #[test]
    fn bad_group_size() {
        let x = Matrix::zeros(1, 10);
        assert!(quantize_activations_int8(&x, 4).is_err());
        assert!(quantize_activations_int8(&x, 0).is_err());
    }

    #[test]
    fn storage_accounting() {
        let x = Matrix::zeros(2, 128);
        let q = quantize_activations_int8(&x, 64).unwrap();
        assert_eq!(q.storage_bits(), 256 * 8 + 4 * 16);
    }

    #[test]
    fn vector_matches_matrix_quantization() {
        let mut g = TensorGenerator::new(52);
        let x = g.activation_matrix(1, 128, 1.0, 0.02, 30.0);
        let qm = quantize_activations_int8(&x, 32).unwrap();
        let qv = quantize_vector_int8(x.row(0), 32).unwrap();
        assert_eq!(qv.len(), 128);
        assert_eq!(qv.groups(), 4);
        for gi in 0..4 {
            assert_eq!(qv.group_codes(gi), qm.group_codes(0, gi));
            assert_eq!(qv.scale(gi), qm.scale(0, gi));
        }
        assert_eq!(qv.dequantize(), qm.dequantize().row(0));
    }

    #[test]
    fn vector_bad_group_size() {
        assert!(quantize_vector_int8(&[1.0; 10], 4).is_err());
        assert!(quantize_vector_int8(&[1.0; 10], 0).is_err());
    }
}
