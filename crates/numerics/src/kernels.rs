//! Integer group-dot kernels — the innermost loops of the
//! dequantization-free execution backend (paper Eq. (5), Fig. 7).
//!
//! Every kernel consumes *codes* (INT8 activation codes and 4-bit weight
//! codes) and returns an exact integer accumulation; the group scales are
//! applied once per group by the caller, outside the integer loop. This is
//! precisely the hardware contract: a multiply-accumulate lane, a
//! shift-accumulate lane, and a single per-group recombination — no
//! per-element dequantization anywhere.
//!
//! The kernels live in `mant-numerics` (below the tensor and quant layers)
//! so that every higher layer — the fused GEMM/GEMV in `mant-quant`, the
//! incremental KV-cache attention, the benches — shares one implementation.

use crate::mant::Mant;

/// `psum1` operand per 4-bit code (sign bit 3, magnitude bits 0–2):
/// `±i`. Codes are data-independent of the coefficient `a`, so the lane
/// operands are a fixed 16-entry table — the software analogue of the
/// MAC lane's trivial decoder.
const PSUM1_LUT: [i32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 0, -1, -2, -3, -4, -5, -6, -7];

/// `psum2` operand per 4-bit code: `±2^i` (the SAC lane's shift network).
const PSUM2_LUT: [i32; 16] = [
    1, 2, 4, 8, 16, 32, 64, 128, -1, -2, -4, -8, -16, -32, -64, -128,
];

/// Sign-extended value per INT4 nibble (two's complement).
const INT4_LUT: [i32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, -8, -7, -6, -5, -4, -3, -2, -1];

/// The two-psum MANT group kernel: `Σ x·(±(a·i + 2^i))` computed as
/// `a · Σ x·(±i) + Σ x·(±2^i)` (MAC lane + SAC lane, paper Eq. (5)).
/// Bit-exact integer arithmetic; the per-code lane operands come from
/// fixed 16-entry tables, so the inner loop is branch-free.
///
/// # Panics
///
/// Debug-asserts that the slices have equal length; in release the shorter
/// slice bounds the accumulation.
pub fn mant_group_psums(xcodes: &[i8], wcodes: &[u8], mant: Mant) -> i64 {
    debug_assert_eq!(xcodes.len(), wcodes.len());
    let mut psum1 = 0i64;
    let mut psum2 = 0i64;
    for (&xc, &wc) in xcodes.iter().zip(wcodes.iter()) {
        let x = i64::from(xc);
        let idx = usize::from(wc & 0x0f);
        psum1 += x * i64::from(PSUM1_LUT[idx]);
        psum2 += x * i64::from(PSUM2_LUT[idx]);
    }
    mant.combine_psums(psum1, psum2)
}

/// The INT4 group kernel: a single plain MAC lane over sign-extended
/// nibbles (the "additional INT option" groups, Sec. V-A).
pub fn int4_group_mac(xcodes: &[i8], wcodes: &[u8]) -> i64 {
    debug_assert_eq!(xcodes.len(), wcodes.len());
    let mut acc = 0i64;
    for (&xc, &wc) in xcodes.iter().zip(wcodes.iter()) {
        acc += i64::from(xc) * i64::from(INT4_LUT[usize::from(wc & 0x0f)]);
    }
    acc
}

/// The 16-entry decoded-value table of a MANT coefficient: entry `b` is
/// `±(a·i + 2^i)` for code bits `b` — i.e. the MAC- and SAC-lane operands
/// already recombined. Built once per distinct dtype, this table seeds
/// both the [`PairLut`] the packed kernels walk and the byte-shuffle
/// tables of the SIMD tiers (`crate::simd`). Exact by integer
/// distributivity: `Σ x·(a·(±i) + (±2^i)) = a·Σ x·(±i) + Σ x·(±2^i)`,
/// so any kernel built on it is bit-identical to [`mant_group_psums`].
pub fn mant_decode_lut(mant: Mant) -> [i32; 16] {
    let mut lut = [0i32; 16];
    for (bits, entry) in lut.iter_mut().enumerate() {
        *entry = mant.decode(crate::mant::MantCode::from_bits(bits as u8));
    }
    lut
}

/// The 16-entry decoded-value table for INT4 groups (sign-extended
/// nibbles) — the single-lane counterpart of [`mant_decode_lut`].
pub fn int4_decode_lut() -> [i32; 16] {
    INT4_LUT
}

/// A 256-entry **pair-decode table**: entry `b` holds the two pre-decoded
/// integer operands of the packed byte `b` — `[decode(b & 0xf),
/// decode(b >> 4)]`. One load and one table hit replace the two masked
/// 16-entry lookups the one-code-per-byte kernels pay per element, which
/// is what lets the packed kernels consume the nibble-packed working
/// representation directly.
pub type PairLut = [[i32; 2]; 256];

/// Builds the [`PairLut`] of a 16-entry decoded-value table
/// ([`mant_decode_lut`] / [`int4_decode_lut`]). Built once per distinct
/// group dtype and reused across every token, batch row, and cached
/// vector that carries that dtype.
pub fn pair_decode_lut(lut16: &[i32; 16]) -> PairLut {
    let mut lut = [[0i32; 2]; 256];
    for (b, entry) in lut.iter_mut().enumerate() {
        *entry = [lut16[b & 0x0f], lut16[b >> 4]];
    }
    lut
}

/// The largest group length the packed kernels accept with their i32
/// accumulators. Worst case per element: `|x| ≤ 128` (INT8 code) times
/// `|decoded| ≤ 127·7 + 128 = 1017` (MANT at `a = 127`, top level,
/// negative sign) = 130 176; `16 384 × 130 176 = 2 132 803 584 <
/// i32::MAX = 2 147 483 647`, so any group up to 16 384 elements — two
/// orders of magnitude above the paper's group sizes — sums exactly in
/// i32, and the widening to i64 happens once at group recombination
/// instead of on every multiply.
pub const MAX_I32_GROUP: usize = 16_384;

/// Integer dot of INT8 activation codes against a **nibble-packed** weight
/// group through a [`PairLut`]: per code pair, one packed-byte load, one
/// table hit, and two multiply-accumulates into an i32 group accumulator
/// (see [`MAX_I32_GROUP`] for the overflow bound). An odd `xcodes` length
/// consumes only the final byte's low nibble. Bit-identical to
/// [`mant_group_psums`] / [`int4_group_mac`] on the unpacked codes:
/// integer arithmetic is exact and the pair table recombines the same
/// per-code decoded operands.
///
/// # Panics
///
/// Debug-asserts `wpacked` holds exactly `xcodes.len().div_ceil(2)` bytes
/// and the group is within [`MAX_I32_GROUP`].
pub fn dot_packed(xcodes: &[i8], wpacked: &[u8], lut: &PairLut) -> i64 {
    debug_assert_eq!(wpacked.len(), xcodes.len().div_ceil(2));
    debug_assert!(xcodes.len() <= MAX_I32_GROUP, "i32 group bound exceeded");
    let mut acc = 0i32;
    let mut pairs = xcodes.chunks_exact(2);
    for (xp, &b) in pairs.by_ref().zip(wpacked.iter()) {
        let ops = &lut[usize::from(b)];
        acc += i32::from(xp[0]) * ops[0] + i32::from(xp[1]) * ops[1];
    }
    if let [x] = pairs.remainder() {
        acc += i32::from(*x) * lut[usize::from(wpacked[xcodes.len() / 2])][0];
    }
    i64::from(acc)
}

/// Decodes a nibble-packed weight group into its integer operands in
/// natural code order — the amortization step of the scalar row sweep:
/// with several members, each (row, group) is decoded to i16 **once** and
/// every member then runs [`dot_i8_i16`] over the decoded operands in the
/// scalar arm of `KernelDispatch::dot_packed_rows_scaled`, instead of
/// paying the pair-table walk per member. Entry `i` of `out` is exactly `lut`'s decoded value for
/// code `i` (decoded MANT operands span ±1017, comfortably inside i16 —
/// see [`MAX_I32_GROUP`]'s derivation), so any dot over the decoded
/// operands is bit-identical to the fused packed kernels.
///
/// `len` is the number of codes; an odd `len` consumes only the final
/// byte's low nibble, mirroring [`dot_packed`].
///
/// # Panics
///
/// Debug-asserts `wpacked` holds `len.div_ceil(2)` bytes and `out` holds
/// exactly `len` entries.
pub fn decode_packed_i16(wpacked: &[u8], len: usize, lut: &PairLut, out: &mut [i16]) {
    debug_assert_eq!(wpacked.len(), len.div_ceil(2));
    debug_assert_eq!(out.len(), len);
    let mut pairs = out.chunks_exact_mut(2);
    for (op, &b) in pairs.by_ref().zip(wpacked.iter()) {
        let ops = &lut[usize::from(b)];
        op[0] = ops[0] as i16;
        op[1] = ops[1] as i16;
    }
    if let [o] = pairs.into_remainder() {
        *o = lut[usize::from(wpacked[len / 2])][0] as i16;
    }
}

/// Integer dot of INT8 activation codes against a group's **pre-decoded**
/// i16 operands ([`decode_packed_i16`]) — the per-member MAC of the scalar
/// row sweep with two or more members. Bit-identical to [`dot_packed`] on the packed
/// codes: the decoded operands are the identical integers and the i32
/// accumulation is exact under the [`MAX_I32_GROUP`] bound, so any
/// summation order gives the same total.
///
/// # Panics
///
/// Debug-asserts equal lengths within [`MAX_I32_GROUP`].
pub fn dot_i8_i16(xcodes: &[i8], w: &[i16]) -> i64 {
    debug_assert_eq!(xcodes.len(), w.len());
    debug_assert!(xcodes.len() <= MAX_I32_GROUP, "i32 group bound exceeded");
    let mut acc = 0i32;
    for (&x, &wv) in xcodes.iter().zip(w.iter()) {
        acc += i32::from(x) * i32::from(wv);
    }
    i64::from(acc)
}

/// `log2(e)` rounded to f32.
pub(crate) const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding it to `|v| < 2²²` rounds `v` to the nearest integer
/// (ties to even) and leaves that integer, as two's complement, in the low
/// mantissa bits of the sum.
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;
/// The high part of `ln 2`, `0.693359375`: nine significant bits, so its
/// product with an integer of at most fifteen bits is exact in f32.
pub(crate) const LN2_HI: f32 = 355.0 / 512.0;
/// `ln 2 − LN2_HI`, rounded to f32.
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes' `expf` polynomial, highest degree first: `e^r ≈ 1 + r +
/// r²·P(r)` on `|r| ≤ ½ ln 2`.
#[allow(clippy::excessive_precision)] // the digits as Cephes publishes them
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_150_0e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];
/// Below this [`exp_nonpositive`] returns `+0.0`. `e⁻⁸⁷ ≈ 1.6·10⁻³⁸` is
/// still above the smallest normal f32 (`2⁻¹²⁶ ≈ 1.18·10⁻³⁸`, which is
/// `e⁻⁸⁷·³³⁶`), so every result is a normal number or zero.
pub const EXP_FLOOR: f32 = -87.0;

/// `e^d` for `d ≤ 0` — the one exponential of the workspace's softmax.
/// Branch-free and written with plain f32 `*`, `+`, `−` only (no FMA, no
/// libm), so a vector lane that issues the same operations in the same
/// order gets the same bits:
///
/// ```text
/// t = d·log2e + 1.5·2²³        n = t − 1.5·2²³   (= round(d·log2e), exact)
/// r = (d − n·LN2_HI) − n·LN2_LO                   (n·LN2_HI is exact)
/// y = (P(r)·r² + r) + 1                           (Horner, EXP_POLY)
/// e = y · 2ⁿ                   2ⁿ from t's low mantissa bits, shifted
///                              into the exponent field
/// ```
///
/// Within one ulp of the true value and non-decreasing on all of
/// `[EXP_FLOOR, 0]`; `+0.0` below [`EXP_FLOOR`] (so `n ≥ −126` wherever the
/// result is kept, and no result is subnormal); a NaN stays that NaN. Not
/// meant for `d > 0`.
#[inline(always)]
pub fn exp_nonpositive(d: f32) -> f32 {
    let t = d * LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = (d - n * LN2_HI) - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = (p * (r * r) + r) + 1.0;
    // The shift drops everything but `n + 127`: a power of two, or for a
    // NaN or out-of-range `d` some other value with a zero mantissa —
    // never a NaN, so a NaN `y` keeps its payload.
    let two_n = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    if d < EXP_FLOOR {
        0.0
    } else {
        y * two_n
    }
}

/// Lanes of the softmax sum: element `j` of each whole chunk adds into lane
/// `j`, on every tier.
pub(crate) const SOFTMAX_LANES: usize = 8;

/// The total of the softmax sum lanes, in the one association every tier
/// uses.
#[inline(always)]
pub(crate) fn sum_softmax_lanes(l: &[f32; SOFTMAX_LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The scalar arm of [`crate::KernelDispatch::softmax`], which states the
/// contract: in-place softmax of a score row.
///
/// The maximum skips NaN scores; a row with no score above `-∞` (empty,
/// all `-∞`, all NaN) becomes all zeros. Otherwise `x_j ←
/// exp_nonpositive(x_j − max)` ([`exp_nonpositive`]), summed in one fixed
/// order — element `j` of each whole chunk of eight into lane `j` in
/// ascending chunk order, the lanes as
/// `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`, then the tail elements in order —
/// and each element is divided by the sum when it is `> 0`. A NaN score
/// (or a `+∞` maximum) makes the sum NaN, and the row is left as the
/// un-normalized exponentials.
pub fn softmax(x: &mut [f32]) {
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return;
    }
    let mut lanes = [0.0f32; SOFTMAX_LANES];
    let mut chunks = x.chunks_exact_mut(SOFTMAX_LANES);
    for chunk in chunks.by_ref() {
        for (v, lane) in chunk.iter_mut().zip(&mut lanes) {
            *v = exp_nonpositive(*v - max);
            *lane += *v;
        }
    }
    let mut sum = sum_softmax_lanes(&lanes);
    for v in chunks.into_remainder() {
        *v = exp_nonpositive(*v - max);
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// Channels per block of the staged `P·V` kernel's vector arm: two `i32x8`
/// accumulators.
pub(crate) const STAGED_LANES: usize = 16;

/// The scalar arm of [`crate::KernelDispatch::staged_pv`], which states
/// the contract: the INT8 staging window's share of `P·V`. For every
/// output channel `j`,
///
/// ```text
/// out[j] += ((pscale · max(vscales[j], MIN_POSITIVE)) · Σ_t pcodes[t] · window[t·stride + j]) as f32
/// ```
///
/// where `window` is the `[t][c]` staging window from the first output
/// channel on and `stride` its row length. The sum is an exact `i32` over
/// the `pcodes.len()` staged rows (a product is at most `2¹⁴`, so
/// [`MAX_I32_GROUP`] rows stay far inside `i32`); the scale product is
/// f64, associated as written.
///
/// # Panics
///
/// Panics if `vscales` and `out` differ in length, a row is shorter than
/// `out`, or the window does not hold `pcodes.len()` rows.
pub fn staged_pv(
    pcodes: &[i8],
    window: &[i8],
    stride: usize,
    pscale: f32,
    vscales: &[f32],
    out: &mut [f32],
) {
    check_staged_pv(pcodes, window, stride, vscales, out);
    /// Channels per pass: a head's worth, so a staged row is one long
    /// contiguous sweep and the sums still live on the stack.
    const BLOCK: usize = 64;
    let pscale = f64::from(pscale);
    for (block, (out, vscales)) in out.chunks_mut(BLOCK).zip(vscales.chunks(BLOCK)).enumerate() {
        let mut sums = [0i32; BLOCK];
        let sums = &mut sums[..out.len()];
        // Row-major sweep: each staged row adds `p_t · v_t[c]` into every
        // channel's sum, contiguous loads. (No rows, no window to slice.)
        let rows = window.get(block * BLOCK..).unwrap_or_default();
        for (&p, row) in pcodes.iter().zip(rows.chunks(stride)) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += i32::from(p) * i32::from(v);
            }
        }
        for ((o, &int), &scale) in out.iter_mut().zip(sums.iter()).zip(vscales) {
            let scale = f64::from(scale.max(f32::MIN_POSITIVE));
            *o += (pscale * scale * f64::from(int)) as f32;
        }
    }
}

/// The shape contract of [`staged_pv`], shared by every arm.
pub(crate) fn check_staged_pv(
    pcodes: &[i8],
    window: &[i8],
    stride: usize,
    vscales: &[f32],
    out: &[f32],
) {
    assert_eq!(vscales.len(), out.len(), "one scale per output channel");
    assert!(out.len() <= stride, "channel range exceeds a window row");
    assert!(
        pcodes.is_empty() || (pcodes.len() - 1) * stride + out.len() <= window.len(),
        "window holds fewer rows than probabilities"
    );
    debug_assert!(pcodes.len() <= MAX_I32_GROUP, "i32 window bound exceeded");
}

/// One candidate type as the group-encode kernel reads it: what a value
/// divided by the group scale is rounded to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EncodeTable {
    /// The eight ascending positive levels `a·i + 2^i` of a MANT
    /// coefficient ([`Mant::levels_f32`]); the nearest one wins, the first
    /// on a tie, and the code is sign-magnitude.
    Mant([f32; 8]),
    /// Symmetric INT4: round half away from zero, clamp to ±7, NaN → 0;
    /// the code is the two's-complement low nibble.
    Int4,
}

impl From<Mant> for EncodeTable {
    fn from(mant: Mant) -> Self {
        EncodeTable::Mant(*mant.levels_f32())
    }
}

/// Elements the group-encode kernel takes per step: one 256-bit vector of
/// f32. The scalar arm below runs the same eight-lane loop without
/// intrinsics, so every tier shares one shape.
pub(crate) const ENCODE_LANES: usize = 8;

type Lanes<T> = [T; ENCODE_LANES];

const SIGN_BIT: u32 = 0x8000_0000;

/// The MANT lanes of the encode kernel: for each quotient `v`, the strict
/// `<` scan of `|v|` against the ascending levels — the scan of
/// [`Mant::encode_magnitude`], whose early return for NaN and `m ≤ 0` the
/// scan reproduces by itself (a NaN error never compares below, and level
/// 0 is the nearest to zero). Returns the 4-bit codes and the signed
/// unscaled levels they decode to.
#[inline(always)]
fn mant_lanes(levels: &[f32; 8], v: &Lanes<f32>) -> (Lanes<u8>, Lanes<f32>) {
    let m: Lanes<f32> = std::array::from_fn(|l| v[l].abs());
    let mut best_err: Lanes<f32> = std::array::from_fn(|l| (m[l] - levels[0]).abs());
    let mut idx = [0u8; ENCODE_LANES];
    let mut level = [levels[0]; ENCODE_LANES];
    for (i, &candidate) in levels.iter().enumerate().skip(1) {
        for l in 0..ENCODE_LANES {
            let err = (m[l] - candidate).abs();
            let closer = err < best_err[l];
            idx[l] = if closer { i as u8 } else { idx[l] };
            level[l] = if closer { candidate } else { level[l] };
            best_err[l] = if closer { err } else { best_err[l] };
        }
    }
    (
        std::array::from_fn(|l| idx[l] | ((v[l].to_bits() >> 28) as u8 & 0x8)),
        std::array::from_fn(|l| f32::from_bits(level[l].to_bits() | (v[l].to_bits() & SIGN_BIT))),
    )
}

/// The INT4 lanes: `quantize_symmetric_int(v, 7)` without the libm
/// `round`. After the clamp to ±8 (which moves no result: everything from
/// ±7.5 out rounds to beyond ±7 and is clamped back) the truncation fits an
/// `i32`, the fraction `c − trunc(c)` is exact, and comparing it with ±0.5
/// is round-half-away. NaN survives the clamp, truncates to 0 and compares
/// false.
#[inline(always)]
fn int4_lanes(v: &Lanes<f32>) -> Lanes<i32> {
    std::array::from_fn(|l| {
        let c = v[l].clamp(-8.0, 8.0);
        let t = c as i32;
        let d = c - t as f32;
        (t + i32::from(d >= 0.5) - i32::from(d <= -0.5)).clamp(-7, 7)
    })
}

/// `e_j² · ω_j` of eight elements under one table and scale, as f64 — the
/// per-element oracle's operations per lane: `v = x / scale`, round to
/// the table, `q = ±level · scale`, `e = x − q` in f32, widened, `(e·e)·ω`.
#[inline(always)]
fn error_lanes(
    table: &EncodeTable,
    scale: f32,
    x: &Lanes<f32>,
    w: Option<&Lanes<f64>>,
) -> Lanes<f64> {
    let v: Lanes<f32> = std::array::from_fn(|l| x[l] / scale);
    let q = match table {
        EncodeTable::Mant(levels) => mant_lanes(levels, &v).1,
        EncodeTable::Int4 => int4_lanes(&v).map(|r| r as f32),
    };
    std::array::from_fn(|l| {
        let e = f64::from(x[l] - q[l] * scale);
        match w {
            Some(w) => e * e * w[l],
            None => e * e,
        }
    })
}

/// Copies up to [`ENCODE_LANES`] elements into a zero-padded lane array.
#[inline(always)]
fn padded(xs: &[f32]) -> Lanes<f32> {
    let mut lanes = [0.0; ENCODE_LANES];
    lanes[..xs.len()].copy_from_slice(xs);
    lanes
}

/// The scalar arm of [`crate::KernelDispatch::encode_errors`], which
/// states the contract: every candidate's `Σ_j e_j² · ω_j` over `group`,
/// added **onto** `sums` — each chain continues in element order from the
/// value already there, which is how the vector arm hands over its tail
/// elements (and `0.0` when this arm runs alone). The candidates' chains
/// are interleaved chunk by chunk, never reassociated.
pub(crate) fn encode_errors_onto(
    tables: &[EncodeTable],
    scales: &[f32],
    group: &[f32],
    weights: Option<&[f32]>,
    sums: &mut [f64],
) {
    debug_assert!(tables.len() == scales.len() && tables.len() == sums.len());
    debug_assert!(weights.is_none_or(|w| w.len() == group.len()));
    for (at, x) in group.chunks(ENCODE_LANES).enumerate() {
        let live = x.len();
        let x = padded(x);
        let w = weights.map(|w| padded(&w[at * ENCODE_LANES..][..live]).map(f64::from));
        for ((table, &scale), sum) in tables.iter().zip(scales).zip(sums.iter_mut()) {
            for term in &error_lanes(table, scale, &x, w.as_ref())[..live] {
                *sum += term;
            }
        }
    }
}

/// The scalar arm of [`crate::KernelDispatch::encode_packed`], which
/// states the contract: the packed nibbles of `group` under one table and
/// scale, the pad nibble of an odd length zero.
pub(crate) fn encode_packed(table: &EncodeTable, scale: f32, group: &[f32], out: &mut [u8]) {
    debug_assert_eq!(out.len(), group.len().div_ceil(2), "packed group length");
    for (x, out) in group
        .chunks(ENCODE_LANES)
        .zip(out.chunks_mut(ENCODE_LANES / 2))
    {
        let live = x.len();
        let x = padded(x);
        let v: Lanes<f32> = std::array::from_fn(|l| x[l] / scale);
        let mut codes = match table {
            EncodeTable::Mant(levels) => mant_lanes(levels, &v).0,
            EncodeTable::Int4 => int4_lanes(&v).map(|r| r as u8 & 0x0f),
        };
        codes[live..].fill(0);
        for (byte, pair) in out.iter_mut().zip(codes.chunks_exact(2)) {
            *byte = pair[0] | (pair[1] << 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::mant::MantCode;

    #[test]
    fn luts_match_the_code_model() {
        for bits in 0..16u8 {
            let c = MantCode::from_bits(bits);
            assert_eq!(
                PSUM1_LUT[bits as usize],
                Mant::psum1_operand(c),
                "psum1 {bits}"
            );
            assert_eq!(
                PSUM2_LUT[bits as usize],
                Mant::psum2_operand(c),
                "psum2 {bits}"
            );
            assert_eq!(INT4_LUT[bits as usize], i32::from(((bits << 4) as i8) >> 4));
        }
    }

    #[test]
    fn mant_psums_match_scalar_decode() {
        for a in [0u32, 5, 17, 25, 60, 127] {
            let mant = Mant::new(a).unwrap();
            let xcodes: Vec<i8> = vec![5, -3, 127, -128, 0, 1, 77, -77];
            let wcodes: Vec<u8> = vec![0x0, 0x9, 0x7, 0xf, 0x3, 0x8, 0x5, 0xc];
            let fused = mant_group_psums(&xcodes, &wcodes, mant);
            let mut expect = 0i64;
            for (&x, &w) in xcodes.iter().zip(wcodes.iter()) {
                expect += i64::from(x) * i64::from(mant.decode(MantCode::from_bits(w)));
            }
            assert_eq!(fused, expect, "a={a}");
        }
    }

    #[test]
    fn int4_mac_matches_scalar() {
        let xcodes: Vec<i8> = vec![5, -3, 127, -128, 0, 1];
        let wcodes: Vec<u8> = vec![0x1, 0xf, 0x7, 0x9, 0x0, 0x8];
        let mac = int4_group_mac(&xcodes, &wcodes);
        let mut expect = 0i64;
        for (&x, &w) in xcodes.iter().zip(wcodes.iter()) {
            let wv = ((w << 4) as i8) >> 4;
            expect += i64::from(x) * i64::from(wv);
        }
        assert_eq!(mac, expect);
    }

    /// The softmax every caller gets: the process tier's.
    fn tier_softmax(x: &mut [f32]) {
        crate::simd::kernels().softmax(x);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![1.0f32, 2.0, 3.0, -1.0];
        tier_softmax(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0] && x[0] > x[3]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let mut x = vec![1000.0f32, 1001.0];
        tier_softmax(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_degenerate() {
        let mut empty: Vec<f32> = vec![];
        tier_softmax(&mut empty);
        let mut ninf = vec![f32::NEG_INFINITY; 3];
        tier_softmax(&mut ninf);
        assert_eq!(ninf, vec![0.0, 0.0, 0.0]);
        // Scores below the floor are exactly zero, not subnormal.
        let mut far = vec![0.0f32, -87.0, -87.5, -1e30, f32::NEG_INFINITY];
        tier_softmax(&mut far);
        assert!(far[1] >= f32::MIN_POSITIVE);
        assert_eq!(far[2..], [0.0, 0.0, 0.0]);
        // A NaN score stays NaN and poisons the sum: the row is left as
        // the un-normalized exponentials.
        let mut nan = vec![1.0f32, f32::NAN, 0.0];
        tier_softmax(&mut nan);
        assert_eq!(nan[0], 1.0);
        assert!(nan[1].is_nan());
        assert!((nan[2] - (-1.0f32).exp()).abs() < 1e-7);
        let mut all_nan = vec![f32::NAN; 9];
        tier_softmax(&mut all_nan);
        assert_eq!(all_nan, vec![0.0; 9]);
    }

    #[test]
    fn exp_nonpositive_fixed_points() {
        assert_eq!(exp_nonpositive(0.0), 1.0);
        assert_eq!(exp_nonpositive(-0.0), 1.0);
        assert_eq!(
            exp_nonpositive(EXP_FLOOR).to_bits(),
            1.645_811_5e-38f32.to_bits()
        );
        let below = f32::from_bits(EXP_FLOOR.to_bits() + 1);
        assert_eq!(exp_nonpositive(below).to_bits(), 0);
        assert_eq!(exp_nonpositive(f32::NEG_INFINITY).to_bits(), 0);
        let nan = f32::from_bits(0x7fc1_2345);
        assert_eq!(exp_nonpositive(nan).to_bits(), nan.to_bits());
    }

    #[test]
    fn decode_lut_dot_matches_lane_kernels() {
        // Decode-once exactness (the invariant the retired `decode_group`
        // / `dot_decoded` pair carried, now owned by the LUT-seeded
        // kernels): a plain MAC over 16-entry-table-decoded operands is
        // bit-identical to the two-lane MANT kernel and the INT4 MAC.
        let xcodes: Vec<i8> = vec![5, -3, 127, -128, 0, 1, 77, -77];
        let wcodes: Vec<u8> = (0..8u8).map(|i| (i * 3) ^ 0x9).collect();
        let decoded_dot = |lut16: &[i32; 16]| -> i64 {
            xcodes
                .iter()
                .zip(wcodes.iter())
                .map(|(&x, &w)| i64::from(x) * i64::from(lut16[usize::from(w & 0x0f)]))
                .sum()
        };
        for a in [0u32, 5, 17, 25, 60, 127] {
            let mant = Mant::new(a).unwrap();
            assert_eq!(
                decoded_dot(&mant_decode_lut(mant)),
                mant_group_psums(&xcodes, &wcodes, mant),
                "a={a}"
            );
        }
        assert_eq!(
            decoded_dot(&int4_decode_lut()),
            int4_group_mac(&xcodes, &wcodes)
        );
    }

    #[test]
    fn no_overflow_at_extremes() {
        // 128-element group of worst-case magnitudes stays well inside i64.
        let xcodes = vec![-128i8; 128];
        let wcodes = vec![0xfu8; 128]; // -(127·7 + 128) at a = 127
        let v = mant_group_psums(&xcodes, &wcodes, Mant::new(127).unwrap());
        assert_eq!(v, 128i64 * 128 * (127 * 7 + 128));
    }

    #[test]
    fn packed_dot_matches_lane_kernels() {
        use crate::packing::pack_nibbles;
        // Even and odd group lengths: the packed pair-LUT kernel must be
        // bit-identical to the unpacked two-lane MANT kernel and the INT4
        // MAC (the invariant the packed working representation rests on).
        for len in [1usize, 2, 7, 8, 63, 64] {
            let xcodes: Vec<i8> = (0..len).map(|i| ((i * 37) % 255) as u8 as i8).collect();
            let wcodes: Vec<u8> = (0..len).map(|i| ((i * 7) % 16) as u8).collect();
            let packed = pack_nibbles(&wcodes);
            for a in [0u32, 5, 17, 25, 60, 127] {
                let mant = Mant::new(a).unwrap();
                assert_eq!(
                    dot_packed(&xcodes, &packed, &pair_decode_lut(&mant_decode_lut(mant))),
                    mant_group_psums(&xcodes, &wcodes, mant),
                    "a={a} len={len}"
                );
            }
            assert_eq!(
                dot_packed(&xcodes, &packed, &pair_decode_lut(&int4_decode_lut())),
                int4_group_mac(&xcodes, &wcodes),
                "len={len}"
            );
        }
    }

    #[test]
    fn packed_i32_group_bound_is_tight() {
        use crate::packing::pack_nibbles;
        // Worst-case magnitudes — x = -128, code 0xf at a = 127 decoding to
        // -(127·7 + 128) = -1017 — at the maximum admissible group length.
        // The per-group i32 sum reaches 2 132 803 584, within 0.7% of
        // i32::MAX: the bound in MAX_I32_GROUP's docs is tight, and the
        // packed kernel still sums it exactly.
        let mant = Mant::new(127).unwrap();
        let lut = pair_decode_lut(&mant_decode_lut(mant));
        let xcodes = vec![-128i8; MAX_I32_GROUP];
        let wcodes = vec![0xfu8; MAX_I32_GROUP];
        let packed = pack_nibbles(&wcodes);
        let expect = MAX_I32_GROUP as i64 * 128 * (127 * 7 + 128);
        assert!(expect <= i64::from(i32::MAX));
        assert!(expect > i64::from(i32::MAX) * 99 / 100, "bound is tight");
        assert_eq!(dot_packed(&xcodes, &packed, &lut), expect);
        assert_eq!(mant_group_psums(&xcodes, &wcodes, mant), expect);
    }

    #[test]
    fn decode_then_dot_matches_packed_dot() {
        use crate::packing::pack_nibbles;
        // The decode-once pair must be bit-identical to the fused packed
        // kernel on every length, including odd tails.
        for len in [1usize, 2, 7, 8, 63, 64, 65] {
            let xcodes: Vec<i8> = (0..len).map(|i| ((i * 53) % 255) as u8 as i8).collect();
            let wcodes: Vec<u8> = (0..len).map(|i| ((i * 11) % 16) as u8).collect();
            let packed = pack_nibbles(&wcodes);
            for a in [0u32, 5, 17, 60, 127] {
                let mant = Mant::new(a).unwrap();
                let lut = pair_decode_lut(&mant_decode_lut(mant));
                let mut dec = vec![0i16; len];
                decode_packed_i16(&packed, len, &lut, &mut dec);
                for (i, (&d, &w)) in dec.iter().zip(wcodes.iter()).enumerate() {
                    assert_eq!(i32::from(d), lut[usize::from(w)][0], "a={a} code {i}");
                }
                assert_eq!(
                    dot_i8_i16(&xcodes, &dec),
                    dot_packed(&xcodes, &packed, &lut),
                    "a={a} len={len}"
                );
            }
        }
    }

    #[test]
    fn dot_i8_i16_exact_at_i32_bound() {
        // Worst-case magnitudes at the maximum admissible group length —
        // the decoded-operand MAC must sum exactly like the packed kernel.
        let xcodes = vec![-128i8; MAX_I32_GROUP];
        let dec = vec![-(127i16 * 7 + 128); MAX_I32_GROUP];
        assert_eq!(
            dot_i8_i16(&xcodes, &dec),
            MAX_I32_GROUP as i64 * 128 * (127 * 7 + 128)
        );
    }

    #[test]
    fn pair_lut_agrees_with_scalar_lut() {
        let mant = Mant::new(17).unwrap();
        let l16 = mant_decode_lut(mant);
        let pair = pair_decode_lut(&l16);
        for b in 0..=255u8 {
            assert_eq!(pair[b as usize][0], l16[usize::from(b & 0x0f)]);
            assert_eq!(pair[b as usize][1], l16[usize::from(b >> 4)]);
        }
    }
}
