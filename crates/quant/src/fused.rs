//! Decode-free integer GEMM (paper Eq. (5) and Fig. 7).
//!
//! The whole point of MANT's formulation: for INT8 activations `x` and a
//! MANT-encoded weight group with coefficient `a`,
//!
//! ```text
//! Σ x·(±(a·i + 2^i))  =  a · Σ x·(±i)   +   Σ x·(±2^i)
//!                          └── psum1 ──┘     └── psum2 ──┘
//!                            (MAC lane)       (SAC lane)
//! ```
//!
//! so the hardware runs a multiply-accumulate and a shift-accumulate in
//! parallel and multiplies `psum1` by `a` once per group — no per-element
//! dequantization, no data-type-specific decoder. Groups that selected the
//! INT option instead run a single plain MAC lane. The group scales
//! `s_X · s_W` multiply the integer result afterwards, outside the array.

use mant_numerics::{
    int4_group_mac, kernels, mant_group_psums, tile8_len, unpack_nibbles, KernelDispatch,
    KernelLut, TILE_ROWS,
};
use mant_tensor::{gemm, matvec, Matrix};

use crate::activation::{ActivationTensor, QuantizedVector};
use crate::error::QuantError;
use crate::mantq::{GroupDtype, GroupMeta, MantQuantizedMatrix};
use crate::plan::kernel_table;

/// Dispatches one group's integer dot product over **unpacked** (one code
/// per byte) weights to the matching lane kernel: two-psum MANT
/// recombination or the single-lane INT4 MAC. This is the scalar
/// reference twin of [`group_dot_packed`] — the pre-packing hot path,
/// kept as the bit-identity oracle and the bench baseline.
pub fn group_dot(meta: GroupMeta, xcodes: &[i8], wcodes: &[u8]) -> i64 {
    match meta.dtype {
        GroupDtype::Mant(mant) => mant_group_psums(xcodes, wcodes, mant),
        GroupDtype::Int4 => int4_group_mac(xcodes, wcodes),
    }
}

/// One group's integer dot product over **packed** nibble codes through
/// the process-wide kernel tier ([`fn@mant_numerics::kernels`]): a pair-LUT
/// walk on the scalar tier, `pshufb`-decoded `pmaddwd` lanes on the SIMD
/// tiers — bit-identical to [`group_dot`] on the unpacked codes either
/// way. One table lookup and one dispatch per group: the primitive of the
/// per-row references [`crate::PagedKvCache::fused_dot`] and
/// `attend_window`, which the decode-attention sweep
/// ([`mant_numerics::KernelDispatch::dot_packed_rows_scaled`], a block of
/// rows per call) is tested against. No serving path calls it per cached
/// row or V channel.
pub fn group_dot_packed(meta: GroupMeta, xcodes: &[i8], wpacked: &[u8]) -> i64 {
    kernels().dot_packed(xcodes, wpacked, kernel_table(meta.dtype))
}

/// Computes `X · Wᵀ` entirely in integer arithmetic plus one scale multiply
/// per (row, group): `x` is `M×K` INT8, `w` is `N×K` MANT-encoded (rows are
/// output channels), both grouped identically along K. Returns the `M×N`
/// f32 result; row `i` is **bit-identical** to [`mant_gemv`] of activation
/// row `i` — the rows of `x` are the members of one [`mant_gemv_batch`].
///
/// # Errors
///
/// Returns [`QuantError::ShapeMismatch`] if the inner dimensions or group
/// sizes disagree.
///
/// # Example
///
/// ```
/// use mant_quant::{mant_gemm, quantize_activations_int8, MantWeightQuantizer};
/// use mant_tensor::{Matrix, TensorGenerator, DistributionKind};
///
/// let mut g = TensorGenerator::new(1);
/// let x = g.matrix(2, 64, DistributionKind::Gaussian, 1.0);
/// let w = g.matrix(3, 64, DistributionKind::Gaussian, 0.02);
/// let xq = quantize_activations_int8(&x, 64)?;
/// let wq = MantWeightQuantizer::new(64).quantize(&w)?;
/// let y = mant_gemm(&xq, &wq)?;
/// assert_eq!(y.shape(), (2, 3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mant_gemm(x: &ActivationTensor, w: &MantQuantizedMatrix) -> Result<Matrix, QuantError> {
    mant_gemm_with(kernels(), x, w)
}

/// [`mant_gemm`] through an explicit kernel tier — bit-identical across
/// tiers; benches and differential tests use it to time or compare the
/// scalar oracle against the detected SIMD tier in one process.
///
/// # Errors
///
/// As [`mant_gemm`].
pub fn mant_gemm_with(
    d: KernelDispatch,
    x: &ActivationTensor,
    w: &MantQuantizedMatrix,
) -> Result<Matrix, QuantError> {
    check_operand(x.cols(), x.group_size(), w)?;
    let (m, n, groups) = (x.rows(), w.rows(), x.groups_per_row());
    let codes: Vec<&[i8]> = (0..m).map(|mi| x.row_codes(mi)).collect();
    let xscales: Vec<f64> = (0..m * groups)
        .map(|i| f64::from(x.scale(i / groups, i % groups)))
        .collect();
    let mut out = Matrix::zeros(m, n);
    if n > 0 {
        let mut rows: Vec<&mut [f32]> = out.as_mut_slice().chunks_exact_mut(n).collect();
        gemm_rows(d, &codes, &xscales, w, &mut rows);
    }
    Ok(out)
}

/// Batch size from which the GEMM driver decodes each weight tile once
/// into an i16 tile ([`mant_gemv_batch`]) instead of running the fused
/// sweep, whose in-register decode feeds at most a two-member register
/// block: the tile's decode and interleave start paying for themselves
/// once three or more members reuse them.
pub const DECODE_ONCE_MIN_BATCH: usize = 3;

/// Batched [`mant_gemv`]: one weight matrix against a whole batch of
/// independently quantized activation vectors (a continuous-batching
/// decode iteration's ragged batch, a prefill run, a speculative verify
/// pass). Output `[i][n]` is **bit-identical** to `mant_gemv(&xs[i], w)[n]`.
///
/// From [`DECODE_ONCE_MIN_BATCH`] members up, the weights are taken in
/// tiles of eight output rows ([`TILE_ROWS`]). A tile is **decoded once**
/// to i16 operands and interleaved to `[column pair][row 0..8][2]`
/// ([`KernelDispatch::interleave_tile8`]), so that one 256-bit vector is
/// the same column pair of all eight rows; the members' INT8 codes are
/// widened to i16 once per call. The sweep
/// ([`KernelDispatch::dot_tile8_scaled`]) then needs no per-member nibble
/// decode and **no horizontal reduction**: `pmaddwd(broadcast(x pair),
/// tile vector)` adds each row's two products into that row's own 32-bit
/// lane, so at the end of a group a member's register holds the eight
/// rows' group dots, and the scale epilogue (`i32 → f64`, `(xs · ws) ·
/// int`, `+=`) runs on it in place. A short last tile is zero-padded: the
/// spare rows decode to zeros under a zero scale and are never stored.
/// Below the threshold — the one or two rows of a decode-shaped step —
/// the batch takes [`mant_gemv`]'s fused sweep with all its members in
/// one call per 4-row tile: each 32-code block of a weight row is decoded
/// once in registers and multiplied against both members, with no i16
/// tile to write and re-read.
///
/// Both paths produce identical bits. The decoded operands are the same
/// integers the pair tables hold; an i32 lane holds exactly one (member,
/// row, group) sum, exact under
/// [`MAX_I32_GROUP`](mant_numerics::MAX_I32_GROUP); `i32 → f64` is exact;
/// and the epilogue is the GEMV's expression in the GEMV's association
/// and ascending group order, in per-lane IEEE `mulpd`/`addpd` with no
/// FMA.
///
/// # Errors
///
/// Returns [`QuantError::ShapeMismatch`] if any vector's length or group
/// size disagrees with the weights.
pub fn mant_gemv_batch(
    xs: &[QuantizedVector],
    w: &MantQuantizedMatrix,
) -> Result<Vec<Vec<f32>>, QuantError> {
    mant_gemv_batch_with(kernels(), xs, w)
}

/// [`mant_gemv_batch`] through an explicit kernel tier — bit-identical
/// across tiers (see [`mant_gemm_with`]).
///
/// # Errors
///
/// As [`mant_gemv_batch`].
pub fn mant_gemv_batch_with(
    d: KernelDispatch,
    xs: &[QuantizedVector],
    w: &MantQuantizedMatrix,
) -> Result<Vec<Vec<f32>>, QuantError> {
    for x in xs {
        check_operand(x.len(), x.group_size(), w)?;
    }
    let codes: Vec<&[i8]> = xs.iter().map(QuantizedVector::codes).collect();
    let xscales: Vec<f64> = xs
        .iter()
        .flat_map(|x| (0..x.groups()).map(|g| f64::from(x.scale(g))))
        .collect();
    let mut out = vec![vec![0.0f32; w.rows()]; xs.len()];
    let mut rows: Vec<&mut [f32]> = out.iter_mut().map(Vec::as_mut_slice).collect();
    gemm_rows(d, &codes, &xscales, w, &mut rows);
    Ok(out)
}

/// Computes `y = W · x` for one INT8-quantized activation vector against a
/// MANT-encoded weight matrix (`N×K`, rows are output channels), entirely
/// in integer arithmetic plus one scale multiply per group — the
/// per-token linear-projection primitive of the quantized execution
/// backend (decode-step GEMMs degenerate to GEMVs).
///
/// # Errors
///
/// Returns [`QuantError::ShapeMismatch`] if the inner dimensions or group
/// sizes disagree.
///
/// # Example
///
/// ```
/// use mant_quant::{mant_gemv, quantize_vector_int8, MantWeightQuantizer};
/// use mant_tensor::TensorGenerator;
///
/// let mut g = TensorGenerator::new(2);
/// let w = g.group_diverse_matrix(3, 64, 64, 0.02);
/// let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
/// let wq = MantWeightQuantizer::new(64).quantize(&w)?;
/// let xq = quantize_vector_int8(&x, 64)?;
/// assert_eq!(mant_gemv(&xq, &wq)?.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn mant_gemv(x: &QuantizedVector, w: &MantQuantizedMatrix) -> Result<Vec<f32>, QuantError> {
    mant_gemv_with(kernels(), x, w)
}

/// [`mant_gemv`] through an explicit kernel tier — bit-identical across
/// tiers (see [`mant_gemm_with`]); the bench's SIMD-vs-scalar GEMV
/// comparison runs both tiers through this entry in one process.
///
/// # Errors
///
/// As [`mant_gemv`].
pub fn mant_gemv_with(
    d: KernelDispatch,
    x: &QuantizedVector,
    w: &MantQuantizedMatrix,
) -> Result<Vec<f32>, QuantError> {
    check_operand(x.len(), x.group_size(), w)?;
    let xscales: Vec<f64> = (0..x.groups()).map(|g| f64::from(x.scale(g))).collect();
    let mut out = vec![0.0f32; w.rows()];
    gemm_rows(d, &[x.codes()], &xscales, w, &mut [&mut out]);
    Ok(out)
}

/// The shape contract every GEMM entry checks per activation row.
fn check_operand(len: usize, group_size: usize, w: &MantQuantizedMatrix) -> Result<(), QuantError> {
    if len != w.cols() {
        return Err(QuantError::ShapeMismatch {
            context: "activation length vs weight inner dim",
        });
    }
    if group_size != w.group_size() {
        return Err(QuantError::ShapeMismatch {
            context: "activation group size vs weight group size",
        });
    }
    Ok(())
}

/// The one driver behind [`mant_gemv`], [`mant_gemv_batch`] and
/// [`mant_gemm`], parameterised by member count (a GEMV is one): member
/// `i` is `codes[i]` with per-group f64 scales `xscales[i · groups..]`,
/// and `out[i][n]` receives row `n` of `W` against it. Picks the sweep by
/// member count alone.
fn gemm_rows(
    d: KernelDispatch,
    codes: &[&[i8]],
    xscales: &[f64],
    w: &MantQuantizedMatrix,
    out: &mut [&mut [f32]],
) {
    if w.cols() == 0 {
        // Empty sums: the zero-initialised outputs already hold them.
        return;
    }
    if codes.len() >= DECODE_ONCE_MIN_BATCH {
        tile8_sweep(d, codes, xscales, w, out);
    } else {
        fused_sweep(d, codes, xscales, w, out);
    }
}

/// The fused sweep ([`mant_gemv`], and batches too small to amortize a
/// tile decode): four output rows per tile, the nibble decode inside the
/// dot kernel, **one** [`KernelDispatch::dot_packed_x4_groups`] call per
/// tile for all members — so each weight block is decoded once and fed to
/// both members of a two-row step, not once per member. Per group, i32
/// accumulation inside the group, the decode plan's interned table per
/// group. Every output accumulates its groups in ascending order as `acc
/// += xs · ws · int as f64` from zero — the expression all other paths
/// reproduce.
fn fused_sweep(
    d: KernelDispatch,
    codes: &[&[i8]],
    xscales: &[f64],
    w: &MantQuantizedMatrix,
    out: &mut [&mut [f32]],
) {
    let (n, gs, groups) = (w.rows(), w.group_size(), w.groups_per_row());
    let gb = w.group_bytes();
    // The reused per-tile buffer of raw group dots, member-major.
    let mut gout = vec![[0i64; 4]; codes.len() * groups];
    for tile_lo in (0..n / 4 * 4).step_by(4) {
        let wrows = [0, 1, 2, 3].map(|lane| w.packed_row(tile_lo + lane));
        let lrows = [0, 1, 2, 3].map(|lane| w.plan_row(tile_lo + lane));
        let mrows = [0, 1, 2, 3].map(|lane| w.meta_row(tile_lo + lane));
        d.dot_packed_x4_groups(codes, wrows, gs, lrows, &mut gout);
        for ((ints, xsc), y) in gout
            .chunks(groups)
            .zip(xscales.chunks(groups))
            .zip(out.iter_mut())
        {
            let mut acc = [0.0f64; 4];
            for (g, (ints, &xs)) in ints.iter().zip(xsc).enumerate() {
                for lane in 0..4 {
                    acc[lane] += xs * f64::from(mrows[lane][g].scale) * ints[lane] as f64;
                }
            }
            for lane in 0..4 {
                y[tile_lo + lane] = acc[lane] as f32;
            }
        }
    }
    for ni in n / 4 * 4..n {
        let (wrow, lrow, mrow) = (w.packed_row(ni), w.plan_row(ni), w.meta_row(ni));
        for ((x, xsc), y) in codes.iter().zip(xscales.chunks(groups)).zip(out.iter_mut()) {
            let mut acc = 0.0f64;
            for (g, &xs) in xsc.iter().enumerate() {
                let int = d.dot_packed(
                    &x[g * gs..(g + 1) * gs],
                    &wrow[g * gb..(g + 1) * gb],
                    lrow[g],
                );
                acc += xs * f64::from(mrow[g].scale) * int as f64;
            }
            y[ni] = acc as f32;
        }
    }
}

/// The decode-once sweep (see [`mant_gemv_batch`]): per tile of
/// [`TILE_ROWS`] output rows, decode → interleave → one
/// [`KernelDispatch::dot_tile8_scaled`] call for the whole batch. The
/// scratch is one tile, reused across tiles — the weights stay 4-bit
/// resident.
fn tile8_sweep(
    d: KernelDispatch,
    codes: &[&[i8]],
    xscales: &[f64],
    w: &MantQuantizedMatrix,
    out: &mut [&mut [f32]],
) {
    let (n, k, gs, groups) = (w.rows(), w.cols(), w.group_size(), w.groups_per_row());
    let mut x16 = Vec::with_capacity(codes.len() * k);
    for x in codes {
        x16.extend(x.iter().map(|&c| i16::from(c)));
    }
    let mut dec = vec![0i16; TILE_ROWS * k];
    let mut tile = vec![0i16; tile8_len(k)];
    let mut wscales = vec![[0.0f64; TILE_ROWS]; groups];
    let mut accs = vec![[0.0f64; TILE_ROWS]; codes.len()];
    for tile_lo in (0..n).step_by(TILE_ROWS) {
        let rows = (n - tile_lo).min(TILE_ROWS);
        if rows < TILE_ROWS {
            // The short last tile: spare rows are zeros under zero scales.
            dec[rows * k..].fill(0);
            wscales.fill([0.0; TILE_ROWS]);
        }
        for (lane, row) in dec.chunks_exact_mut(k).take(rows).enumerate() {
            let ni = tile_lo + lane;
            let groups = w.plan_row(ni).iter().copied().zip(w.meta_row(ni));
            decode_tile_row(d, w.packed_row(ni), gs, groups, lane, row, &mut wscales);
        }
        d.interleave_tile8(&dec, k, &mut tile);
        accs.fill([0.0; TILE_ROWS]);
        d.dot_tile8_scaled(&tile, &wscales, gs, &x16, xscales, &mut accs);
        for (y, acc) in out.iter_mut().zip(&accs) {
            for (o, &a) in y[tile_lo..tile_lo + rows].iter_mut().zip(acc) {
                *o = a as f32;
            }
        }
    }
}

/// Decodes one row of an eight-row tile for
/// [`KernelDispatch::dot_tile8_scaled`]: `packed` holds the row's groups
/// back to back, `groups` yields each group's decode table and metadata,
/// the i16 operands land in `row` and the scales in lane `lane` of
/// `scales`. Shared by the GEMM driver (a weight row) and run attention
/// (a cached K row, a channel of a V window).
pub(crate) fn decode_tile_row<'a>(
    d: KernelDispatch,
    packed: &[u8],
    group_size: usize,
    groups: impl Iterator<Item = (&'a KernelLut, &'a GroupMeta)>,
    lane: usize,
    row: &mut [i16],
    scales: &mut [[f64; TILE_ROWS]],
) {
    let gb = group_size.div_ceil(2);
    for (g, (lut, meta)) in groups.enumerate() {
        d.decode_packed_i16(
            &packed[g * gb..(g + 1) * gb],
            group_size,
            lut,
            &mut row[g * group_size..(g + 1) * group_size],
        );
        scales[g][lane] = f64::from(meta.scale);
    }
}

/// The pre-packing storage layout of a quantized matrix — one 4-bit code
/// per byte — kept as the **scalar baseline**: what the hot path consumed
/// before the packed working representation (2× the memory traffic, a
/// masked 16-entry LUT walk per element, i64 accumulation). Benches
/// measure [`mant_gemv_scalar`] over this against [`mant_gemv`] over the
/// packed matrix; tests use it as a bit-identity oracle.
#[derive(Clone, Debug)]
pub struct UnpackedWeights {
    rows: usize,
    cols: usize,
    group_size: usize,
    /// One code per byte, `rows × cols`.
    codes: Vec<u8>,
    /// Per-group metadata, row-major.
    meta: Vec<GroupMeta>,
}

impl UnpackedWeights {
    /// Unpacks a packed matrix into the one-code-per-byte layout.
    pub fn from_packed(w: &MantQuantizedMatrix) -> Self {
        let gpr = w.groups_per_row();
        let mut codes = Vec::with_capacity(w.rows() * w.cols());
        let mut meta = Vec::with_capacity(w.rows() * gpr);
        for r in 0..w.rows() {
            for g in 0..gpr {
                codes.extend(unpack_nibbles(w.packed_group_codes(r, g), w.group_size()));
                meta.push(w.meta(r, g));
            }
        }
        UnpackedWeights {
            rows: w.rows(),
            cols: w.cols(),
            group_size: w.group_size(),
            codes,
            meta,
        }
    }

    /// Number of output channels.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Resident bytes of the code storage — 2× the packed layout's.
    pub fn code_bytes(&self) -> usize {
        self.codes.len()
    }

    fn group_codes(&self, r: usize, g: usize) -> &[u8] {
        let base = r * self.cols + g * self.group_size;
        &self.codes[base..base + self.group_size]
    }

    fn meta(&self, r: usize, g: usize) -> GroupMeta {
        self.meta[r * (self.cols / self.group_size) + g]
    }
}

/// The scalar GEMV over one-code-per-byte weights: per element, a masked
/// 16-entry two-lane LUT walk with i64 accumulation — exactly the hot
/// path before the packed working representation. **Bit-identical** to
/// [`mant_gemv`] on the packed twin of the same matrix (both are exact
/// integer accumulations of the same decoded operands); kept for the
/// scalar-vs-packed kernel bench and the equivalence tests.
///
/// # Panics
///
/// Panics if `x`'s length or group size disagrees with the weights.
pub fn mant_gemv_scalar(x: &QuantizedVector, w: &UnpackedWeights) -> Vec<f32> {
    assert_eq!(x.len(), w.cols, "activation length vs weight inner dim");
    assert_eq!(x.group_size(), w.group_size, "group size mismatch");
    let groups = x.groups();
    (0..w.rows)
        .map(|n| {
            let mut acc = 0.0f64;
            for g in 0..groups {
                let meta = w.meta(n, g);
                let int_result = group_dot(meta, x.group_codes(g), w.group_codes(n, g));
                acc += f64::from(x.scale(g)) * f64::from(meta.scale) * int_result as f64;
            }
            acc as f32
        })
        .collect()
}

/// Reference path for the GEMV: dequantize both operands and run the f32
/// matvec — what the fused path must match up to accumulation order.
pub fn dequant_then_gemv(x: &QuantizedVector, w: &MantQuantizedMatrix) -> Vec<f32> {
    matvec(&w.dequantize(), &x.dequantize())
}

/// Reference path: dequantize both operands to f32 and run a dense GEMM.
/// Used by tests to prove the fused path is exact, and by the ablation
/// bench to quantify what decode-free computation saves.
pub fn dequant_then_gemm(x: &ActivationTensor, w: &MantQuantizedMatrix) -> Matrix {
    let xf = x.dequantize();
    let wf = w.dequantize().transpose(); // N×K → K×N
    gemm(&xf, &wf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::quantize_activations_int8;
    use crate::mantq::MantWeightQuantizer;
    use crate::search::CandidateSet;
    use mant_tensor::{DistributionKind, TensorGenerator};

    fn setup(
        seed: u64,
        m: usize,
        n: usize,
        k: usize,
        g: usize,
    ) -> (ActivationTensor, MantQuantizedMatrix) {
        let mut gen = TensorGenerator::new(seed);
        let x = gen.activation_matrix(m, k, 1.0, 0.02, 20.0);
        let w = gen.group_diverse_matrix(n, k, g, 0.02);
        let xq = quantize_activations_int8(&x, g).unwrap();
        let wq = MantWeightQuantizer::new(g).quantize(&w).unwrap();
        (xq, wq)
    }

    #[test]
    fn fused_matches_dequantized_reference() {
        let (xq, wq) = setup(61, 4, 6, 128, 64);
        let fused = mant_gemm(&xq, &wq).unwrap();
        let reference = dequant_then_gemm(&xq, &wq);
        // Same math, different accumulation order → tiny fp differences.
        let denom = reference
            .as_slice()
            .iter()
            .map(|v| v.abs())
            .fold(0.0f32, f32::max)
            .max(1e-6);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() / denom < 1e-4, "fused {a} vs reference {b}");
        }
    }

    #[test]
    fn pure_int_groups_also_exact() {
        // Force the INT-only candidate set: the fused kernel must fall back
        // to the single-lane MAC and still match.
        let mut gen = TensorGenerator::new(62);
        let x = gen.matrix(3, 64, DistributionKind::Uniform, 1.0);
        let w = gen.matrix(2, 64, DistributionKind::Uniform, 0.1);
        let xq = quantize_activations_int8(&x, 64).unwrap();
        let set = CandidateSet::custom(&[], true).unwrap();
        let wq = MantWeightQuantizer::new(64)
            .with_candidates(set)
            .quantize(&w)
            .unwrap();
        let fused = mant_gemm(&xq, &wq).unwrap();
        let reference = dequant_then_gemm(&xq, &wq);
        for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn approximates_fp32_gemm() {
        // End-to-end W4A8 quantized GEMM should track the FP32 product.
        let mut gen = TensorGenerator::new(63);
        let x = gen.matrix(4, 256, DistributionKind::Gaussian, 1.0);
        let w = gen.group_diverse_matrix(8, 256, 64, 0.02);
        let exact = gemm(&x, &w.transpose());
        let xq = quantize_activations_int8(&x, 64).unwrap();
        let wq = MantWeightQuantizer::new(64).quantize(&w).unwrap();
        let approx = mant_gemm(&xq, &wq).unwrap();
        // RMS relative error (Frobenius) is the right global metric here;
        // single-element max error is noisy under 4-bit weights.
        let norm = exact
            .as_slice()
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        // ~7% is expected: it is dominated by the 4-bit weight error
        // (per-group relative RMS ≈ √(grid MSE) ≈ 5–8% on diverse groups).
        let rel = exact.distance(&approx) / norm;
        assert!(rel < 0.10, "relative Frobenius error {rel}");
    }

    #[test]
    fn shape_mismatches_rejected() {
        let (xq, _) = setup(64, 2, 2, 128, 64);
        let (_, wq_other) = setup(65, 2, 2, 256, 64);
        assert!(matches!(
            mant_gemm(&xq, &wq_other),
            Err(QuantError::ShapeMismatch { .. })
        ));
        let (xq32, _) = setup(66, 2, 2, 128, 32);
        let (_, wq64) = setup(67, 2, 2, 128, 64);
        assert!(mant_gemm(&xq32, &wq64).is_err());
    }

    #[test]
    fn group_dot_dispatch_is_integer_exact() {
        // `group_dot` must route each dtype to a kernel that matches the
        // scalar decode-multiply model exactly.
        use mant_numerics::{Mant, MantCode};
        let xcodes: Vec<i8> = vec![5, -3, 127, -128_i8, 0, 1];
        let wcodes: Vec<u8> = vec![0x0, 0x9, 0x7, 0xf, 0x3, 0x8];

        let mant = Mant::new(17).unwrap();
        let meta = GroupMeta {
            dtype: GroupDtype::Mant(mant),
            scale: 1.0,
        };
        let mut expect = 0i64;
        for (&x, &w) in xcodes.iter().zip(wcodes.iter()) {
            expect += i64::from(x) * i64::from(mant.decode(MantCode::from_bits(w)));
        }
        assert_eq!(group_dot(meta, &xcodes, &wcodes), expect);

        let meta_int = GroupMeta {
            dtype: GroupDtype::Int4,
            scale: 1.0,
        };
        let mut expect_int = 0i64;
        for (&x, &w) in xcodes.iter().zip(wcodes.iter()) {
            let wv = ((w << 4) as i8) >> 4;
            expect_int += i64::from(x) * i64::from(wv);
        }
        assert_eq!(group_dot(meta_int, &xcodes, &wcodes), expect_int);
    }

    #[test]
    fn fused_gemv_matches_dequantized_reference() {
        use crate::activation::quantize_vector_int8;
        let mut gen = TensorGenerator::new(68);
        let x = gen.activation_matrix(1, 256, 1.0, 0.02, 20.0);
        let w = gen.group_diverse_matrix(6, 256, 64, 0.02);
        let xq = quantize_vector_int8(x.row(0), 64).unwrap();
        let wq = MantWeightQuantizer::new(64).quantize(&w).unwrap();
        let fused = mant_gemv(&xq, &wq).unwrap();
        let reference = dequant_then_gemv(&xq, &wq);
        let denom = reference
            .iter()
            .map(|v| v.abs())
            .fold(0.0f32, f32::max)
            .max(1e-6);
        for (a, b) in fused.iter().zip(reference.iter()) {
            assert!((a - b).abs() / denom < 1e-4, "fused {a} vs reference {b}");
        }
    }

    #[test]
    fn gemv_agrees_with_gemm_row() {
        use crate::activation::quantize_vector_int8;
        let (xq_mat, wq) = setup(69, 3, 5, 128, 64);
        let via_gemm = mant_gemm(&xq_mat, &wq).unwrap();
        for r in 0..3 {
            // Rebuild the row as a QuantizedVector from the same f32 data.
            let row = xq_mat.dequantize();
            let xq = quantize_vector_int8(row.row(r), 64).unwrap();
            let via_gemv = mant_gemv(&xq, &wq).unwrap();
            for (a, b) in via_gemv.iter().zip(via_gemm.row(r).iter()) {
                // Requantizing dequantized INT8 is idempotent, so the two
                // paths see identical codes.
                assert!((a - b).abs() < 1e-5, "row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gemv_batch_bit_identical_to_gemv() {
        // The multi-query decode-pass GEMM must not change a single bit of
        // any sequence's result relative to the one-vector-at-a-time GEMV
        // — the invariant the batch-vs-sequential serving equivalence
        // rests on.
        use crate::activation::quantize_vector_int8;
        let mut gen = TensorGenerator::new(71);
        let w = gen.group_diverse_matrix(9, 192, 64, 0.02);
        let wq = MantWeightQuantizer::new(64).quantize(&w).unwrap();
        let xs: Vec<_> = (0..5)
            .map(|_| {
                let x: Vec<f32> = (0..192).map(|_| gen.standard_normal()).collect();
                quantize_vector_int8(&x, 64).unwrap()
            })
            .collect();
        let batched = mant_gemv_batch(&xs, &wq).unwrap();
        assert_eq!(batched.len(), 5);
        for (x, y) in xs.iter().zip(batched.iter()) {
            let single = mant_gemv(x, &wq).unwrap();
            let y_bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            let s_bits: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(y_bits, s_bits, "batched GEMV drifted from GEMV");
        }
        assert!(mant_gemv_batch(&[], &wq).unwrap().is_empty());
    }

    #[test]
    fn packed_gemv_bit_identical_to_scalar() {
        // The packed pair-LUT GEMV must match the pre-packing scalar path
        // bit for bit — including on an odd group size, where packed
        // groups carry a pad nibble.
        use crate::activation::quantize_vector_int8;
        let mut gen = TensorGenerator::new(73);
        for (k, g) in [(256usize, 64usize), (15, 5)] {
            let w = gen.group_diverse_matrix(7, k, g, 0.02);
            let wq = MantWeightQuantizer::new(g).quantize(&w).unwrap();
            let scalar_w = UnpackedWeights::from_packed(&wq);
            assert_eq!(scalar_w.code_bytes(), 7 * k);
            let x: Vec<f32> = (0..k).map(|_| gen.standard_normal()).collect();
            let xq = quantize_vector_int8(&x, g).unwrap();
            let packed = mant_gemv(&xq, &wq).unwrap();
            let scalar = mant_gemv_scalar(&xq, &scalar_w);
            let p_bits: Vec<u32> = packed.iter().map(|v| v.to_bits()).collect();
            let s_bits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(p_bits, s_bits, "k={k} g={g}");
        }
    }

    #[test]
    fn gemm_tile_remainders_bit_identical_to_gemv() {
        // Output-row counts on every side of the fused sweep's 4-row tile
        // (remainder rows 1, 3, 5, 9, 250) and the decode-once sweep's
        // 8-row tile — a lone full tile (8), a short last tile after full
        // ones (12, 250), none (256) — against batch sizes on every side of
        // the eight-member register block, and the fused sweep's one and
        // two members. Every batch row and every `mant_gemm` row (the same
        // driver, the members arriving as tensor rows) must match the
        // one-vector GEMV bit for bit.
        use crate::activation::quantize_vector_int8;
        let mut gen = TensorGenerator::new(74);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for n in [1usize, 3, 4, 5, 8, 9, 12, 250, 256] {
            let w = gen.group_diverse_matrix(n, 128, 32, 0.02);
            let wq = MantWeightQuantizer::new(32).quantize(&w).unwrap();
            for m in [1usize, 2, 3, 7, 8, 9, 33] {
                let x = gen.activation_matrix(m, 128, 1.0, 0.02, 20.0);
                let xs: Vec<_> = (0..m)
                    .map(|r| quantize_vector_int8(x.row(r), 32).unwrap())
                    .collect();
                let batched = mant_gemv_batch(&xs, &wq).unwrap();
                let gemm = mant_gemm(&quantize_activations_int8(&x, 32).unwrap(), &wq).unwrap();
                for (r, (xq, y)) in xs.iter().zip(batched.iter()).enumerate() {
                    let single = bits(&mant_gemv(xq, &wq).unwrap());
                    assert_eq!(bits(y), single, "batch n={n} m={m} row {r}");
                    assert_eq!(bits(gemm.row(r)), single, "gemm n={n} m={m} row {r}");
                }
            }
        }
    }

    #[test]
    fn gemv_batch_decode_once_threshold_bit_identical() {
        // Batch sizes straddling DECODE_ONCE_MIN_BATCH take different
        // paths (fused per-member kernels vs decode-once tile sweep); all
        // must match the one-vector GEMV bit for bit on every tier, and an
        // odd group size exercises the decode tail's pad-nibble handling.
        use crate::activation::quantize_vector_int8;
        let mut gen = TensorGenerator::new(76);
        for (k, g) in [(128usize, 64usize), (15, 5)] {
            let w = gen.group_diverse_matrix(9, k, g, 0.02);
            let wq = MantWeightQuantizer::new(g).quantize(&w).unwrap();
            for m in [1usize, 2, 3, 4, 8] {
                let xs: Vec<_> = (0..m)
                    .map(|_| {
                        let x: Vec<f32> = (0..k).map(|_| gen.standard_normal()).collect();
                        quantize_vector_int8(&x, g).unwrap()
                    })
                    .collect();
                for d in [KernelDispatch::Scalar, kernels()] {
                    let batched = mant_gemv_batch_with(d, &xs, &wq).unwrap();
                    for (x, y) in xs.iter().zip(batched.iter()) {
                        let single = mant_gemv_with(d, x, &wq).unwrap();
                        let y_bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                        let s_bits: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(y_bits, s_bits, "tier {} m={m} k={k} g={g}", d.name());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_inner_dimension_yields_zeros() {
        // A zero-column matrix is constructible; every entry point returns
        // the empty sums instead of tripping over zero-sized tiles.
        use crate::activation::quantize_vector_int8;
        let wq = MantWeightQuantizer::new(64)
            .quantize(&Matrix::zeros(5, 0))
            .unwrap();
        let x = quantize_vector_int8(&[], 64).unwrap();
        assert_eq!(mant_gemv(&x, &wq).unwrap(), vec![0.0; 5]);
        let xs = vec![x; 4];
        assert_eq!(mant_gemv_batch(&xs, &wq).unwrap(), vec![vec![0.0; 5]; 4]);
        let xq = quantize_activations_int8(&Matrix::zeros(4, 0), 64).unwrap();
        assert_eq!(mant_gemm(&xq, &wq).unwrap().as_slice(), &[0.0; 20]);
    }

    #[test]
    fn gemv_batch_shape_mismatches_rejected() {
        use crate::activation::quantize_vector_int8;
        let (_, wq) = setup(72, 2, 2, 128, 64);
        let bad_len = quantize_vector_int8(&vec![0.5; 256], 64).unwrap();
        assert!(matches!(
            mant_gemv_batch(&[bad_len], &wq),
            Err(QuantError::ShapeMismatch { .. })
        ));
        let bad_group = quantize_vector_int8(&vec![0.5; 128], 32).unwrap();
        assert!(mant_gemv_batch(&[bad_group], &wq).is_err());
    }

    #[test]
    fn gemv_shape_mismatches_rejected() {
        use crate::activation::quantize_vector_int8;
        let (_, wq) = setup(70, 2, 2, 128, 64);
        let xq = quantize_vector_int8(&vec![0.5; 256], 64).unwrap();
        assert!(matches!(
            mant_gemv(&xq, &wq),
            Err(QuantError::ShapeMismatch { .. })
        ));
        let xq32 = quantize_vector_int8(&vec![0.5; 128], 32).unwrap();
        assert!(mant_gemv(&xq32, &wq).is_err());
    }
}
