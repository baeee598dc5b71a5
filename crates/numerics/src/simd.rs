//! Runtime-dispatched SIMD kernels — the x86_64 fast paths of the packed
//! integer hot loop.
//!
//! The scalar kernels in [`mod@crate::kernels`] stay verbatim as the
//! **bit-identity oracle**: every function here must return exactly the
//! same bits on every input, and the differential proptests enforce it.
//! That equality is not approximate — it follows from the arithmetic
//! being exact:
//!
//! - The packed dot products are pure integer arithmetic whose per-group
//!   absolute sum is bounded by [`crate::kernels::MAX_I32_GROUP`] below `i32::MAX`, so
//!   *any* partial-sum arrangement (vector lanes, horizontal reductions,
//!   scalar tails) produces the identical total — integer addition is
//!   associative when nothing overflows.
//! - The decode-once tile sweep ([`KernelDispatch::dot_tile8_scaled`])
//!   carries its f64 scale epilogue: `i32 → f64` is exact, and vector
//!   `mulpd`/`addpd` round each lane exactly like the scalar `*`/`+`, in
//!   the scalar expression's association, with no FMA contraction.
//! - `abs_max` computes a maximum, which is order-independent, and the
//!   `maxps` operand order is chosen so NaN inputs are skipped exactly
//!   like the scalar fold.
//! - INT8 quantization divides by the scale with `divps` (IEEE-exact,
//!   identical to the scalar `/`), then reproduces `f32::round`'s
//!   ties-away-from-zero rule with an exact truncate-and-adjust
//!   construction instead of the (different) nearest-even `roundps` mode.
//! - The group-encode kernel ([`KernelDispatch::encode_errors`],
//!   [`KernelDispatch::encode_packed`]) is floating point throughout and
//!   nothing in it is associative, so it reorders nothing: a lane runs the
//!   per-element oracle's IEEE operations in the oracle's order, and each
//!   candidate's f64 error sum stays one in-order chain (several
//!   candidates' chains share a vector; none is split).
//! - The attention tail ([`KernelDispatch::softmax`],
//!   [`KernelDispatch::staged_pv`]) follows the same two rules: the
//!   softmax's exponential is one polynomial whose lanes issue the scalar
//!   function's IEEE operations one for one, and its sum has one lane
//!   order on every tier; the staged `P·V` sums are exact integers with the
//!   f64 scale epilogue per lane in the scalar association.
//!
//! Dispatch is a [`KernelDispatch`] tier selected **once per process** by
//! [`kernels()`] via `is_x86_feature_detected!`: AVX2 (32 codes per
//! iteration), SSSE3 (16 codes), or the scalar oracle. Setting
//! `MANT_FORCE_SCALAR=1` pins the scalar tier for differential testing.
//! Each tier method re-checks the cached CPU-feature flag before entering
//! an `unsafe` SIMD function, so constructing a tier value on hardware
//! without that feature safely falls back to scalar instead of being
//! undefined behavior.
//!
//! The nibble decode follows the classic `pshufb` scheme: a packed byte's
//! two 4-bit codes index a 16-entry decoded-operand table. Decoded MANT
//! operands span ±1017 — too wide for i8 — so each [`KernelLut`] carries
//! the 16 decoded values split into low-byte and high-byte shuffle
//! tables; two `pshufb` hits reassemble the i16 operand, and `pmaddwd`
//! widens the i16×i16 products straight into i32 lane accumulators.

use std::sync::OnceLock;

use crate::int::quantize_symmetric_int;
use crate::kernels::{self, pair_decode_lut, EncodeTable, PairLut};

/// A group dtype's decode tables in every shape the kernel tiers need:
/// the 256-entry pair table the scalar kernels walk, plus the 16-entry
/// low/high-byte shuffle tables the SIMD tiers feed to `pshufb`.
///
/// Built once per distinct dtype (see `mant-quant`'s interning plan) from
/// the same 16-entry decoded-value table, so every tier decodes the
/// identical operands.
#[derive(Clone, Debug)]
pub struct KernelLut {
    /// The 256-entry pair-decode table (scalar tier and tails).
    pub pair: PairLut,
    /// Low bytes of the 16 decoded operands, as i16 little-endian.
    pub lo8: [u8; 16],
    /// High bytes of the 16 decoded operands, as i16 little-endian.
    pub hi8: [u8; 16],
}

/// Builds a [`KernelLut`] from a 16-entry decoded-value table
/// ([`crate::kernels::mant_decode_lut`] / [`crate::kernels::int4_decode_lut`]).
///
/// # Panics
///
/// Debug-asserts every decoded operand fits in i16 (MANT's worst case is
/// ±1017, see [`crate::kernels::MAX_I32_GROUP`]'s derivation).
pub fn kernel_lut(lut16: &[i32; 16]) -> KernelLut {
    let mut lo8 = [0u8; 16];
    let mut hi8 = [0u8; 16];
    for (i, &v) in lut16.iter().enumerate() {
        debug_assert!(i32::from(v as i16) == v, "decoded operand {v} exceeds i16");
        let [lo, hi] = (v as i16).to_le_bytes();
        lo8[i] = lo;
        hi8[i] = hi;
    }
    KernelLut {
        pair: pair_decode_lut(lut16),
        lo8,
        hi8,
    }
}

/// Rows of the decoded tile the decode-once sweep works on
/// ([`KernelDispatch::dot_tile8_scaled`]): eight, one per 32-bit lane of a
/// 256-bit vector, so a group's eight dots fill one register.
pub const TILE_ROWS: usize = 8;

/// Entries of an interleaved [`TILE_ROWS`]-row tile of `k` operands per
/// row ([`KernelDispatch::interleave_tile8`]): `⌈k/2⌉` column pairs of
/// eight rows of two.
pub const fn tile8_len(k: usize) -> usize {
    k.div_ceil(2) * TILE_ROWS * 2
}

/// The kernel tier every packed-dot and INT8-quantization call routes
/// through — selected once per process by [`kernels()`].
///
/// Tier methods fall back to the scalar oracle whenever the tier's CPU
/// feature is not actually available, so any value of this enum is safe
/// to call on any machine; the results are bit-identical either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelDispatch {
    /// The scalar oracle kernels from [`mod@crate::kernels`].
    Scalar,
    /// 128-bit `pshufb`/`pmaddwd` kernels, 16 codes per iteration.
    Ssse3,
    /// 256-bit kernels, 32 codes per iteration.
    Avx2,
}

/// Whether `MANT_FORCE_SCALAR` pins the process to the scalar tier
/// (set and neither empty nor `"0"`).
pub fn scalar_forced() -> bool {
    std::env::var_os("MANT_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The process-wide kernel tier: [`KernelDispatch::detect`] on first use,
/// or [`KernelDispatch::Scalar`] when `MANT_FORCE_SCALAR=1`. Cached in a
/// `OnceLock`, so the environment is read exactly once.
pub fn kernels() -> KernelDispatch {
    static TIER: OnceLock<KernelDispatch> = OnceLock::new();
    *TIER.get_or_init(|| {
        if scalar_forced() {
            KernelDispatch::Scalar
        } else {
            KernelDispatch::detect()
        }
    })
}

impl KernelDispatch {
    /// Probes the CPU for the best available tier (AVX2 > SSSE3 >
    /// scalar). Ignores `MANT_FORCE_SCALAR`; use [`kernels()`] for the
    /// process-wide choice.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelDispatch::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return KernelDispatch::Ssse3;
            }
        }
        KernelDispatch::Scalar
    }

    /// The tier's name, as reported in bench artifacts and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Ssse3 => "ssse3",
            KernelDispatch::Avx2 => "avx2",
        }
    }

    /// Whether this tier runs vector code (i.e. is not the scalar oracle).
    pub fn is_simd(self) -> bool {
        self != KernelDispatch::Scalar
    }

    /// [`crate::kernels::dot_packed`] through this tier — bit-identical
    /// to the scalar oracle on every input (see the module docs for why).
    ///
    /// # Panics
    ///
    /// Debug-asserts the same contract as the scalar kernel.
    pub fn dot_packed(self, xcodes: &[i8], wpacked: &[u8], lut: &KernelLut) -> i64 {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::dot_packed_avx2(xcodes, wpacked, lut) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Ssse3 if std::arch::is_x86_feature_detected!("ssse3") => {
                // SAFETY: the match guard just confirmed SSSE3 on this CPU.
                unsafe { x86::dot_packed_ssse3(xcodes, wpacked, lut) }
            }
            _ => kernels::dot_packed(xcodes, wpacked, &lut.pair),
        }
    }

    /// A whole row-tile's group dots in one call: group `g` of the result
    /// equals [`crate::kernels::dot_packed_x4`] over the `g`-th
    /// `group_size`-code slice of `xcodes` and the `g`-th packed group of
    /// each row, through each row's `g`-th decode table. The activation
    /// codes are widened to vector operands once per iteration and swept
    /// across all four weight rows, and one call per 4-row tile pays the
    /// per-call setup (dispatch, masks, reduction plumbing) once instead
    /// of once per group — which dominates at serving group sizes.
    ///
    /// `w` holds each row's full packed codes (`groups · ⌈group_size/2⌉`
    /// bytes), `luts[lane][g]` the per-group decode tables, and `out`
    /// receives one `[i64; 4]` per group.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slice lengths agree and `group_size` respects
    /// [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP).
    pub fn dot_packed_x4_groups(
        self,
        xcodes: &[i8],
        w: [&[u8]; 4],
        group_size: usize,
        luts: [&[&KernelLut]; 4],
        out: &mut [[i64; 4]],
    ) {
        let groups = out.len();
        debug_assert_eq!(xcodes.len(), groups * group_size);
        debug_assert!(luts.iter().all(|l| l.len() == groups));
        let gb = group_size.div_ceil(2);
        debug_assert!(w.iter().all(|r| r.len() == groups * gb));
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::dot_packed_x4_groups_avx2(xcodes, w, group_size, luts, out) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Ssse3 if std::arch::is_x86_feature_detected!("ssse3") => {
                for (g, o) in out.iter_mut().enumerate() {
                    // SAFETY: the match guard just confirmed SSSE3.
                    *o = unsafe {
                        x86::dot_packed_x4_ssse3(
                            &xcodes[g * group_size..(g + 1) * group_size],
                            w.map(|r| &r[g * gb..(g + 1) * gb]),
                            [luts[0][g], luts[1][g], luts[2][g], luts[3][g]],
                        )
                    };
                }
            }
            _ => {
                for (g, o) in out.iter_mut().enumerate() {
                    *o = kernels::dot_packed_x4(
                        &xcodes[g * group_size..(g + 1) * group_size],
                        w.map(|r| &r[g * gb..(g + 1) * gb]),
                        [
                            &luts[0][g].pair,
                            &luts[1][g].pair,
                            &luts[2][g].pair,
                            &luts[3][g].pair,
                        ],
                    );
                }
            }
        }
    }

    /// [`crate::kernels::decode_packed_i16`] through this tier — decodes
    /// a nibble-packed weight group to its i16 integer operands in
    /// natural code order, the once-per-tile amortization step of the
    /// decode-once GEMM. Every tier emits the identical operand values
    /// (the SIMD path reassembles them from the same `lo8`/`hi8` shuffle
    /// tables the fused kernels use), so downstream dots are
    /// bit-identical regardless of tier.
    ///
    /// # Panics
    ///
    /// Debug-asserts the same contract as the scalar kernel.
    pub fn decode_packed_i16(self, wpacked: &[u8], len: usize, lut: &KernelLut, out: &mut [i16]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::decode_packed_i16_avx2(wpacked, len, lut, out) }
            }
            _ => kernels::decode_packed_i16(wpacked, len, &lut.pair, out),
        }
    }

    /// Interleaves a decoded row-major tile — [`TILE_ROWS`] rows of `k`
    /// i16 operands each, as [`KernelDispatch::decode_packed_i16`] wrote
    /// them — into the layout [`KernelDispatch::dot_tile8_scaled`] sweeps:
    /// `[k-pair][row 0..8][2]`, i.e. operand `i` of row `r` lands at
    /// `((i / 2) · 8 + r) · 2 + i % 2`. One 32-byte vector then holds the
    /// same column pair of all eight rows, which is what lets a vector
    /// lane be an output row. `out` holds [`tile8_len`]`(k)` entries; with
    /// an odd `k` the last pair's second slot is zero in every row. A pure
    /// permutation — every tier writes the identical bytes (the AVX2 arm
    /// is one 8×8 `u32` transpose per 16 columns).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != TILE_ROWS · k` or `out.len() !=
    /// tile8_len(k)`.
    pub fn interleave_tile8(self, rows: &[i16], k: usize, out: &mut [i16]) {
        assert_eq!(rows.len(), TILE_ROWS * k, "tile is eight rows of k");
        assert_eq!(out.len(), tile8_len(k), "interleaved tile length");
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU;
                // the lengths were asserted above.
                unsafe { x86::interleave_tile8_avx2(rows, k, out) }
            }
            _ => 0,
        };
        for (pair, o) in out
            .chunks_exact_mut(TILE_ROWS * 2)
            .enumerate()
            .skip(done / 2)
        {
            for (r, o) in o.chunks_exact_mut(2).enumerate() {
                let row = &rows[r * k..(r + 1) * k];
                o[0] = row[2 * pair];
                o[1] = row.get(2 * pair + 1).copied().unwrap_or(0);
            }
        }
    }

    /// The decode-once sweep, all of it: every member of a batch against
    /// one interleaved eight-row tile ([`KernelDispatch::interleave_tile8`]),
    /// group dots **and** the f64 scale epilogue. For member `j`, row `r`
    /// and every group `g` in ascending order,
    ///
    /// ```text
    /// accs[j][r] += (xscales[j·G + g] · wscales[g][r]) · Σ_i x_j[i] · w_r[i]   (i in group g)
    /// ```
    ///
    /// with `G = wscales.len()` groups of `group_size` operands — the
    /// exact expression and association of the one-vector GEMV, so a
    /// caller that starts `accs` at zero gets the GEMV's bits.
    ///
    /// `xcodes` is the members' INT8 codes **widened to i16** (values in
    /// `-128..=127`), `accs.len()` rows of `G · group_size`, row-major. On
    /// the AVX2 arm a vector lane is an output row: per column pair the
    /// tile's 32-byte vector is loaded once and each member of a register
    /// block of up to eight adds `pmaddwd(broadcast(x pair), w)` into its
    /// own `i32x8`. At the end of a group that register *is* the eight
    /// rows' dots — no horizontal reduction — and the epilogue converts it
    /// (`cvtdq2pd`) and applies `mulpd`, `mulpd`, `addpd` in place.
    /// Exactness: an i32 lane holds one (member, row, group) sum, exact
    /// under [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP); `i32 → f64`
    /// is exact and equals the scalar `i64 as f64`; vector `mulpd` /
    /// `addpd` round per lane exactly like the scalar operators, and no
    /// FMA is formed. The AVX2 arm needs an even `group_size` (a pair must
    /// not straddle two groups); odd group sizes, the SSSE3 tier and the
    /// scalar tier run the scalar arm on the same layout.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with `accs.len()` members,
    /// `wscales.len()` groups and `group_size`; debug-asserts the
    /// [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP) bound and the INT8
    /// range of `xcodes`.
    pub fn dot_tile8_scaled(
        self,
        tile: &[i16],
        wscales: &[[f64; TILE_ROWS]],
        group_size: usize,
        xcodes: &[i16],
        xscales: &[f64],
        accs: &mut [[f64; TILE_ROWS]],
    ) {
        let (m, groups) = (accs.len(), wscales.len());
        let k = groups * group_size;
        assert_eq!(tile.len(), tile8_len(k), "interleaved tile length");
        assert_eq!(xcodes.len(), m * k, "member codes");
        assert_eq!(xscales.len(), m * groups, "member scales");
        debug_assert!(group_size <= kernels::MAX_I32_GROUP, "i32 group bound");
        debug_assert!(
            xcodes.iter().all(|&x| i16::from(x as i8) == x),
            "INT8 codes"
        );
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2
                if group_size.is_multiple_of(2) && std::arch::is_x86_feature_detected!("avx2") =>
            {
                // SAFETY: the match guard just confirmed AVX2 on this CPU
                // and an even group size; the lengths were asserted above.
                unsafe {
                    x86::dot_tile8_scaled_avx2(tile, wscales, group_size, xcodes, xscales, accs);
                }
            }
            _ => {
                for (j, acc) in accs.iter_mut().enumerate() {
                    let x = &xcodes[j * k..(j + 1) * k];
                    for (g, ws) in wscales.iter().enumerate() {
                        let ints = scalar_tile8_group(tile, x, g * group_size, group_size);
                        let xs = xscales[j * groups + g];
                        for r in 0..TILE_ROWS {
                            acc[r] += xs * ws[r] * f64::from(ints[r]);
                        }
                    }
                }
            }
        }
    }

    /// [`crate::kernels::int8_dot`] through this tier. Unlike the group
    /// dots there is no length bound here (the scalar kernel accumulates
    /// in i64), so the vector tiers drain their i32 lane accumulators to
    /// i64 every `x86::INT8_CHUNK` elements.
    ///
    /// # Panics
    ///
    /// Debug-asserts `a.len() == b.len()`.
    pub fn int8_dot(self, a: &[i8], b: &[i8]) -> i64 {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::int8_dot_avx2(a, b) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Ssse3 if std::arch::is_x86_feature_detected!("ssse3") => {
                // SAFETY: the match guard just confirmed SSSE3 on this CPU.
                unsafe { x86::int8_dot_ssse3(a, b) }
            }
            _ => kernels::int8_dot(a, b),
        }
    }

    /// Peak-rate probe for the kernel bench's roofline row: `iters` rounds
    /// of six independent register-resident `pmaddwd` + `paddd` chains on
    /// this tier — the multiply-accumulate of
    /// [`KernelDispatch::dot_tile8_scaled`] with no loads, stores or
    /// epilogue. Returns the multiply-accumulates issued (16 per
    /// `pmaddwd`), or 0 when the tier has no 256-bit integer MAC to
    /// measure; the caller times the call.
    pub fn mac_peak_probe(self, iters: usize) -> u64 {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::mac_peak_probe_avx2(iters) }
            }
            _ => 0,
        }
    }

    /// `max |x|` over the slice with NaN entries skipped — bit-identical
    /// to the scalar fold `m.max(v.abs())` from 0.0 (a maximum is
    /// order-independent, and `maxps(x, acc)` keeps `acc` when `x` is
    /// NaN, exactly like `f32::max`). The SSSE3 tier uses the x86_64
    /// baseline SSE2 128-bit path; AVX2 uses 256-bit.
    pub fn abs_max(self, xs: &[f32]) -> f32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::abs_max_avx2(xs) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Ssse3 => {
                // SAFETY: SSE2 is unconditionally part of the x86_64
                // baseline target features.
                unsafe { x86::abs_max_sse2(xs) }
            }
            _ => scalar_abs_max(xs),
        }
    }

    /// Symmetric INT8 quantization of a slice against one scale:
    /// `out[i] = clamp(round(xs[i] / scale), ±127)` with NaN → 0 —
    /// bit-identical to [`quantize_symmetric_int`] per element. The AVX2
    /// tier reproduces `f32::round`'s ties-away rule exactly (truncate,
    /// then add ±1 where the exact fractional remainder reaches 0.5); the
    /// SSSE3 tier stays scalar (`roundps` needs SSE4.1, and rounding
    /// differences are not acceptable here).
    ///
    /// # Panics
    ///
    /// Debug-asserts `xs.len() == out.len()`.
    pub fn quantize_i8(self, xs: &[f32], scale: f32, out: &mut [i8]) {
        debug_assert_eq!(xs.len(), out.len());
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::quantize_i8_avx2(xs, scale, out) }
            }
            _ => scalar_quantize_i8(xs, scale, out),
        }
    }

    /// [`KernelDispatch::quantize_i8`] with one scale **per element**:
    /// `out[i] = clamp(round(xs[i] / max(scales[i], MIN_POSITIVE)), ±127)`,
    /// NaN → 0 — a V row staged across its channels, each at its own
    /// scale (a channel that has not seen a nonzero value yet still has
    /// scale 0, hence the floor). Same per-lane operations as the
    /// one-scale kernel, so bit-identical to [`quantize_symmetric_int`].
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn quantize_i8_lanes(self, xs: &[f32], scales: &[f32], out: &mut [i8]) {
        assert!(xs.len() == scales.len() && xs.len() == out.len());
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU;
                // the lengths were asserted above.
                unsafe { x86::quantize_i8_lanes_avx2(xs, scales, out) }
            }
            _ => 0,
        };
        for ((o, &x), &s) in out.iter_mut().zip(xs).zip(scales).skip(done) {
            *o = quantize_symmetric_int(x / s.max(f32::MIN_POSITIVE), 127) as i8;
        }
    }

    /// The *errors* entry of the group-encode kernel: for every candidate
    /// `c`, `sums[c] = Σ_j e_j² · ω_j` over `group` encoded with
    /// `tables[c]` at `scales[c]` (`weights = None` means `ω = 1`) — the
    /// per-element `quantize_value` loop of the offline search, for all
    /// candidates in one sweep. Each candidate's sum is the in-order f64
    /// chain over `j` starting from `0.0`, so every value has the bits the
    /// per-element loop produces.
    ///
    /// On the AVX2 arm a lane is an element: per eight elements and
    /// candidate, `divps` by the scale (never a reciprocal multiply),
    /// `|v|`, eight `|m − level|` with a strict `<` blend in ascending
    /// level order, the sign from `v`'s sign bit, `q = ±level · scale`,
    /// `e = x − q` in f32, `cvtps2pd`, `(e·e)·ω` — the oracle's IEEE
    /// operations in the oracle's order; INT4 rounds by
    /// truncate-and-compare. The terms of four candidates are then
    /// transposed so a lane is a *candidate*, and added element by
    /// element: four in-order chains per `addpd`, none reassociated.
    /// Elements past the last whole vector — and every element on the
    /// other tiers — go through the scalar arm
    /// (`kernels::encode_errors_onto`), the same eight-lane loop without
    /// intrinsics, which continues the same chains.
    ///
    /// # Panics
    ///
    /// Panics if `scales` or `sums` differs in length from `tables`, or
    /// `weights` from `group`.
    pub fn encode_errors(
        self,
        tables: &[EncodeTable],
        scales: &[f32],
        group: &[f32],
        weights: Option<&[f32]>,
        sums: &mut [f64],
    ) {
        assert!(tables.len() == scales.len() && tables.len() == sums.len());
        assert!(weights.is_none_or(|w| w.len() == group.len()));
        sums.fill(0.0);
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU;
                // the lengths were asserted above.
                unsafe { x86::encode_errors_avx2(tables, scales, group, weights, sums) }
            }
            _ => 0,
        };
        kernels::encode_errors_onto(
            tables,
            scales,
            &group[done..],
            weights.map(|w| &w[done..]),
            sums,
        );
    }

    /// The *encode* entry of the group-encode kernel: the packed nibbles of
    /// `group` under one table and scale — two codes per byte, first code
    /// in the low nibble, an odd tail in a final low nibble with a zero
    /// pad; code for code what the per-element `GroupDtype::encode`
    /// returns. The AVX2 arm runs the lanes of
    /// [`KernelDispatch::encode_errors`] up to the code and packs eight
    /// codes into four bytes; the tail, and the other tiers, go through
    /// the scalar arm (`kernels::encode_packed`).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold `group.len().div_ceil(2)` bytes.
    pub fn encode_packed(self, table: &EncodeTable, scale: f32, group: &[f32], out: &mut [u8]) {
        assert_eq!(out.len(), group.len().div_ceil(2), "packed group length");
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU;
                // the length was asserted above.
                unsafe { x86::encode_packed_avx2(table, scale, group, out) }
            }
            _ => 0,
        };
        kernels::encode_packed(table, scale, &group[done..], &mut out[done / 2..]);
    }

    /// In-place softmax of a score row — the one softmax of the workspace;
    /// [`kernels::softmax`] (the scalar arm) states the contract. Every
    /// step is either order-independent (the NaN-skipping maximum) or has
    /// one fixed order on every tier (the eight-lane sum), and an AVX2
    /// lane issues [`kernels::exp_nonpositive`]'s IEEE operations one for
    /// one — `mulps`/`addps`/`subps`, never an FMA, the rounding by the
    /// magic-number add, not `roundps` — so every tier returns the scalar
    /// arm's bits. The SSSE3 tier takes the scalar arm.
    pub fn softmax(self, x: &mut [f32]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::softmax_avx2(x) }
            }
            _ => kernels::softmax(x),
        }
    }

    /// The INT8 staging window's share of `P·V`, added into `out` —
    /// [`kernels::staged_pv`] (the scalar arm) states the contract. The
    /// AVX2 arm takes two staged rows per step over blocks of sixteen
    /// channels, up to four blocks abreast: the rows' bytes interleaved and
    /// widened, one `pmaddwd` against the broadcast probability pair per
    /// eight channels (an odd last row pairs with a zero probability). The
    /// `i32` sums are exact in any order; the epilogue converts them
    /// (`cvtdq2pd`, exact) and applies `mulpd`, `mulpd`, `cvtpd2ps`,
    /// `addps` per lane in the scalar expression's association. Channels
    /// past the last whole sixteen, and the other tiers, go through the
    /// scalar arm.
    ///
    /// # Panics
    ///
    /// As [`kernels::staged_pv`].
    pub fn staged_pv(
        self,
        pcodes: &[i8],
        window: &[i8],
        stride: usize,
        pscale: f32,
        vscales: &[f32],
        out: &mut [f32],
    ) {
        kernels::check_staged_pv(pcodes, window, stride, vscales, out);
        let done = match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU;
                // the shapes were checked above.
                unsafe { x86::staged_pv_avx2(pcodes, window, stride, pscale, vscales, out) }
            }
            _ => 0,
        };
        if done < out.len() {
            kernels::staged_pv(
                pcodes,
                &window[done..],
                stride,
                pscale,
                &vscales[done..],
                &mut out[done..],
            );
        }
    }
}

/// The scalar arm's group dots for [`KernelDispatch::dot_tile8_scaled`]:
/// member codes `x[lo..lo + len]` against the same columns of all eight
/// rows of an interleaved tile. Whole column pairs go two products at a
/// time (the `pmaddwd` shape, which the compiler vectorizes on the
/// baseline ISA); a group that starts or ends mid-pair — odd group sizes
/// only — takes that column alone. Summation order is free: the i32 sums
/// are exact under [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP).
fn scalar_tile8_group(tile: &[i16], x: &[i16], lo: usize, len: usize) -> [i32; TILE_ROWS] {
    let mut ints = [0i32; TILE_ROWS];
    let mut column = |i: usize| {
        let at = i / 2 * TILE_ROWS * 2 + i % 2;
        for (r, int) in ints.iter_mut().enumerate() {
            *int += i32::from(x[i]) * i32::from(tile[at + 2 * r]);
        }
    };
    let (first, last) = (lo.div_ceil(2), (lo + len) / 2);
    if lo % 2 == 1 {
        column(lo);
    }
    if (lo + len) % 2 == 1 {
        column(lo + len - 1);
    }
    for pair in first..last {
        let w = &tile[pair * TILE_ROWS * 2..(pair + 1) * TILE_ROWS * 2];
        let (x0, x1) = (i32::from(x[2 * pair]), i32::from(x[2 * pair + 1]));
        for (int, w) in ints.iter_mut().zip(w.chunks_exact(2)) {
            *int += x0 * i32::from(w[0]) + x1 * i32::from(w[1]);
        }
    }
    ints
}

/// The scalar oracle for [`KernelDispatch::abs_max`]: the NaN-skipping
/// fold from 0.0 (same expression as `mant-tensor`'s `abs_max`).
pub fn scalar_abs_max(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// The scalar oracle for [`KernelDispatch::quantize_i8`].
pub fn scalar_quantize_i8(xs: &[f32], scale: f32, out: &mut [i8]) {
    debug_assert_eq!(xs.len(), out.len());
    for (o, &v) in out.iter_mut().zip(xs.iter()) {
        *o = quantize_symmetric_int(v / scale, 127) as i8;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::{scalar_abs_max, tile8_len, KernelLut, TILE_ROWS};
    use crate::kernels::{self, EncodeTable, ENCODE_LANES, MAX_I32_GROUP, STAGED_LANES};

    /// Elements per i64 drain of the `int8_dot` i32 lane accumulators.
    /// Each `pmaddwd` adds at most `2 · 128 · 128 = 2^15` per lane; a
    /// chunk contributes at most `2^18 / 16` blocks × 2 madds × `2^15`
    /// = `2^30` per lane on the narrowest (SSSE3) tier — no overflow.
    pub(super) const INT8_CHUNK: usize = 1 << 18;

    /// Reassembles i16 decoded operands from two byte-shuffle hits:
    /// `idx` holds a 4-bit code in the low byte of each i16 lane (high
    /// byte zero), so `pshufb` pulls the operand's low byte from `tlo`
    /// (high byte of the lane gets table entry 0 — masked off) and its
    /// high byte from `thi` (shifted into place; the shift discards the
    /// lane's own stray high byte).
    #[target_feature(enable = "avx2")]
    fn decode16_avx2(idx: __m256i, tlo: __m256i, thi: __m256i, m00ff: __m256i) -> __m256i {
        let lo = _mm256_and_si256(_mm256_shuffle_epi8(tlo, idx), m00ff);
        let hi = _mm256_slli_epi16::<8>(_mm256_shuffle_epi8(thi, idx));
        _mm256_or_si256(lo, hi)
    }

    /// 128-bit twin of [`decode16_avx2`].
    #[target_feature(enable = "ssse3")]
    fn decode16_ssse3(idx: __m128i, tlo: __m128i, thi: __m128i, m00ff: __m128i) -> __m128i {
        let lo = _mm_and_si128(_mm_shuffle_epi8(tlo, idx), m00ff);
        let hi = _mm_slli_epi16::<8>(_mm_shuffle_epi8(thi, idx));
        _mm_or_si128(lo, hi)
    }

    /// Horizontal i32 lane sum of a group-dot accumulator, in registers.
    /// Runs once per group per output row, so it must not round-trip
    /// through memory. Exactness: the lanes partition the group's
    /// products, and under the [`MAX_I32_GROUP`] bound **any** subset of
    /// a group's products sums within i32 — so every intermediate
    /// `padd` here is overflow-free and i32 addition is associative,
    /// giving the scalar kernel's value bit for bit.
    #[target_feature(enable = "avx2")]
    fn hsum_i32x8(v: __m256i) -> i64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        hsum_i32x4(_mm_add_epi32(lo, hi))
    }

    /// 128-bit twin of [`hsum_i32x8`]; same exactness argument.
    #[target_feature(enable = "sse2")]
    fn hsum_i32x4(v: __m128i) -> i64 {
        let s2 = _mm_add_epi32(v, _mm_unpackhi_epi64(v, v));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<0b01>(s2));
        i64::from(_mm_cvtsi128_si32(s1))
    }

    /// Widening horizontal sum for the `int8_dot` chunk drains, where a
    /// lane can hold up to 2^30 and the cross-lane total can exceed i32 —
    /// each lane is widened to i64 before summing. Runs once per
    /// [`INT8_CHUNK`] elements, so the memory round-trip is free.
    #[target_feature(enable = "avx2")]
    fn hsum_i32x8_wide(v: __m256i) -> i64 {
        let mut tmp = [0i32; 8];
        // SAFETY: `tmp` is a writable 32-byte buffer; unaligned store.
        unsafe { _mm256_storeu_si256(tmp.as_mut_ptr().cast(), v) };
        tmp.iter().map(|&l| i64::from(l)).sum()
    }

    /// 128-bit twin of [`hsum_i32x8_wide`].
    fn hsum_i32x4_wide(v: __m128i) -> i64 {
        let mut tmp = [0i32; 4];
        // SAFETY: `tmp` is a writable 16-byte buffer; unaligned store.
        unsafe { _mm_storeu_si128(tmp.as_mut_ptr().cast(), v) };
        tmp.iter().map(|&l| i64::from(l)).sum()
    }

    /// AVX2 [`kernels::dot_packed`]: 16 packed weight bytes (32 codes)
    /// per iteration. The activation bytes are split into even/odd i16
    /// lanes by shift tricks; lane `k` of the zero-extended weight vector
    /// is packed byte `k`, whose low nibble is code `2k` (pairs with
    /// `x[2k]`) and high nibble code `2k+1` — so the natural lane order
    /// already pairs operands correctly and `pmaddwd` sums exact i32
    /// products (bounded by [`MAX_I32_GROUP`], no lane can overflow).
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_packed_avx2(xcodes: &[i8], wpacked: &[u8], lut: &KernelLut) -> i64 {
        debug_assert_eq!(wpacked.len(), xcodes.len().div_ceil(2));
        debug_assert!(xcodes.len() <= MAX_I32_GROUP, "i32 group bound exceeded");
        let blocks = xcodes.len() / 32;
        // SAFETY: `lo8`/`hi8` are 16-byte arrays; unaligned 16-byte loads.
        let (tlo, thi) = unsafe {
            (
                _mm_loadu_si128(lut.lo8.as_ptr().cast()),
                _mm_loadu_si128(lut.hi8.as_ptr().cast()),
            )
        };
        let tlo = _mm256_broadcastsi128_si256(tlo);
        let thi = _mm256_broadcastsi128_si256(thi);
        let m0f = _mm256_set1_epi16(0x0f);
        let m00ff = _mm256_set1_epi16(0x00ff);
        let mut acc = _mm256_setzero_si256();
        for i in 0..blocks {
            // SAFETY: `i < blocks = xcodes.len() / 32`, so bytes
            // `i*32 .. i*32+32` are in `xcodes` and bytes `i*16 .. i*16+16`
            // are within `wpacked`'s `ceil(len/2)` bytes.
            let (x, wb) = unsafe {
                (
                    _mm256_loadu_si256(xcodes.as_ptr().add(i * 32).cast()),
                    _mm_loadu_si128(wpacked.as_ptr().add(i * 16).cast()),
                )
            };
            let w16 = _mm256_cvtepu8_epi16(wb);
            let we = decode16_avx2(_mm256_and_si256(w16, m0f), tlo, thi, m00ff);
            let wo = decode16_avx2(_mm256_srli_epi16::<4>(w16), tlo, thi, m00ff);
            let xe = _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(x));
            let xo = _mm256_srai_epi16::<8>(x);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xe, we));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xo, wo));
        }
        let tail = if xcodes.len() == blocks * 32 {
            0
        } else {
            kernels::dot_packed(&xcodes[blocks * 32..], &wpacked[blocks * 16..], &lut.pair)
        };
        hsum_i32x8(acc) + tail
    }

    /// SSSE3 [`kernels::dot_packed`]: 8 packed weight bytes (16 codes)
    /// per iteration; same operand pairing argument as the AVX2 path.
    #[target_feature(enable = "ssse3")]
    pub(super) fn dot_packed_ssse3(xcodes: &[i8], wpacked: &[u8], lut: &KernelLut) -> i64 {
        debug_assert_eq!(wpacked.len(), xcodes.len().div_ceil(2));
        debug_assert!(xcodes.len() <= MAX_I32_GROUP, "i32 group bound exceeded");
        let blocks = xcodes.len() / 16;
        // SAFETY: `lo8`/`hi8` are 16-byte arrays; unaligned 16-byte loads.
        let (tlo, thi) = unsafe {
            (
                _mm_loadu_si128(lut.lo8.as_ptr().cast()),
                _mm_loadu_si128(lut.hi8.as_ptr().cast()),
            )
        };
        let m0f = _mm_set1_epi16(0x0f);
        let m00ff = _mm_set1_epi16(0x00ff);
        let zero = _mm_setzero_si128();
        let mut acc = _mm_setzero_si128();
        for i in 0..blocks {
            // SAFETY: `i < blocks = xcodes.len() / 16`, so bytes
            // `i*16 .. i*16+16` are in `xcodes` and the 8-byte load at
            // `i*8` is within `wpacked`'s `ceil(len/2)` bytes.
            let (x, wb) = unsafe {
                (
                    _mm_loadu_si128(xcodes.as_ptr().add(i * 16).cast()),
                    _mm_loadl_epi64(wpacked.as_ptr().add(i * 8).cast()),
                )
            };
            let w16 = _mm_unpacklo_epi8(wb, zero);
            let we = decode16_ssse3(_mm_and_si128(w16, m0f), tlo, thi, m00ff);
            let wo = decode16_ssse3(_mm_srli_epi16::<4>(w16), tlo, thi, m00ff);
            let xe = _mm_srai_epi16::<8>(_mm_slli_epi16::<8>(x));
            let xo = _mm_srai_epi16::<8>(x);
            acc = _mm_add_epi32(acc, _mm_madd_epi16(xe, we));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(xo, wo));
        }
        let tail = if xcodes.len() == blocks * 16 {
            0
        } else {
            kernels::dot_packed(&xcodes[blocks * 16..], &wpacked[blocks * 8..], &lut.pair)
        };
        hsum_i32x4(acc) + tail
    }

    /// AVX2 grouped row-tile sweep (see
    /// [`super::KernelDispatch::dot_packed_x4_groups`]): per group, the
    /// activation vector is widened to even/odd i16 lanes once per
    /// iteration and swept across all four weight rows' decode tables —
    /// the same amortization the scalar tile does, at 32 codes per step —
    /// with the masks, bounds plumbing, and dispatch paid once per tile.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_packed_x4_groups_avx2(
        xcodes: &[i8],
        w: [&[u8]; 4],
        group_size: usize,
        luts: [&[&KernelLut]; 4],
        out: &mut [[i64; 4]],
    ) {
        debug_assert!(group_size <= MAX_I32_GROUP, "i32 group bound exceeded");
        let gb = group_size.div_ceil(2);
        let blocks = group_size / 32;
        let m0f = _mm256_set1_epi16(0x0f);
        let m00ff = _mm256_set1_epi16(0x00ff);
        for (g, o) in out.iter_mut().enumerate() {
            let xg = &xcodes[g * group_size..(g + 1) * group_size];
            let tabs = [0, 1, 2, 3].map(|lane| {
                let l: &KernelLut = luts[lane][g];
                // SAFETY: `lo8`/`hi8` are 16-byte arrays; unaligned loads.
                let (tlo, thi) = unsafe {
                    (
                        _mm_loadu_si128(l.lo8.as_ptr().cast()),
                        _mm_loadu_si128(l.hi8.as_ptr().cast()),
                    )
                };
                (
                    _mm256_broadcastsi128_si256(tlo),
                    _mm256_broadcastsi128_si256(thi),
                )
            });
            let mut acc = [_mm256_setzero_si256(); 4];
            for i in 0..blocks {
                // SAFETY: `i < blocks = group_size / 32`, so the 32-byte
                // load at `g*group_size + i*32` stays inside this group's
                // slice of `xcodes`.
                let x = unsafe { _mm256_loadu_si256(xg.as_ptr().add(i * 32).cast()) };
                let xe = _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(x));
                let xo = _mm256_srai_epi16::<8>(x);
                for lane in 0..4 {
                    // SAFETY: `i*16 + 16 <= blocks*16 <= gb`, so the
                    // 16-byte load stays inside this group's `gb` bytes
                    // of row `lane`.
                    let wb =
                        unsafe { _mm_loadu_si128(w[lane].as_ptr().add(g * gb + i * 16).cast()) };
                    let w16 = _mm256_cvtepu8_epi16(wb);
                    let (tlo, thi) = tabs[lane];
                    let we = decode16_avx2(_mm256_and_si256(w16, m0f), tlo, thi, m00ff);
                    let wo = decode16_avx2(_mm256_srli_epi16::<4>(w16), tlo, thi, m00ff);
                    acc[lane] = _mm256_add_epi32(acc[lane], _mm256_madd_epi16(xe, we));
                    acc[lane] = _mm256_add_epi32(acc[lane], _mm256_madd_epi16(xo, wo));
                }
            }
            let tail = if group_size == blocks * 32 {
                [0i64; 4]
            } else {
                kernels::dot_packed_x4(
                    &xg[blocks * 32..],
                    w.map(|r| &r[g * gb + blocks * 16..(g + 1) * gb]),
                    [
                        &luts[0][g].pair,
                        &luts[1][g].pair,
                        &luts[2][g].pair,
                        &luts[3][g].pair,
                    ],
                )
            };
            // One hadd tree reduces all four lane accumulators together —
            // every intermediate is a subset sum of one group's products, so
            // the [`MAX_I32_GROUP`] bound keeps each `phaddd` overflow-free.
            let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let s = _mm256_hadd_epi32(s01, s23);
            let quad = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
            let mut sums = [0i32; 4];
            // SAFETY: `sums` is a writable 16-byte buffer.
            unsafe { _mm_storeu_si128(sums.as_mut_ptr().cast(), quad) };
            for lane in 0..4 {
                o[lane] = i64::from(sums[lane]) + tail[lane];
            }
        }
    }

    /// SSSE3 [`kernels::dot_packed_x4`], 16 codes per iteration.
    #[target_feature(enable = "ssse3")]
    pub(super) fn dot_packed_x4_ssse3(
        xcodes: &[i8],
        w: [&[u8]; 4],
        luts: [&KernelLut; 4],
    ) -> [i64; 4] {
        debug_assert!(w.iter().all(|r| r.len() == xcodes.len().div_ceil(2)));
        debug_assert!(xcodes.len() <= MAX_I32_GROUP, "i32 group bound exceeded");
        let blocks = xcodes.len() / 16;
        let tabs = luts.map(|l| {
            // SAFETY: `lo8`/`hi8` are 16-byte arrays; unaligned loads.
            unsafe {
                (
                    _mm_loadu_si128(l.lo8.as_ptr().cast()),
                    _mm_loadu_si128(l.hi8.as_ptr().cast()),
                )
            }
        });
        let m0f = _mm_set1_epi16(0x0f);
        let m00ff = _mm_set1_epi16(0x00ff);
        let zero = _mm_setzero_si128();
        let mut acc = [_mm_setzero_si128(); 4];
        for i in 0..blocks {
            // SAFETY: `i < blocks = xcodes.len() / 16`: the 16-byte load
            // is within `xcodes`.
            let x = unsafe { _mm_loadu_si128(xcodes.as_ptr().add(i * 16).cast()) };
            let xe = _mm_srai_epi16::<8>(_mm_slli_epi16::<8>(x));
            let xo = _mm_srai_epi16::<8>(x);
            for lane in 0..4 {
                // SAFETY: every row holds `ceil(len/2) >= blocks*8`
                // bytes, so the 8-byte load at `i*8` is in bounds.
                let wb = unsafe { _mm_loadl_epi64(w[lane].as_ptr().add(i * 8).cast()) };
                let w16 = _mm_unpacklo_epi8(wb, zero);
                let (tlo, thi) = tabs[lane];
                let we = decode16_ssse3(_mm_and_si128(w16, m0f), tlo, thi, m00ff);
                let wo = decode16_ssse3(_mm_srli_epi16::<4>(w16), tlo, thi, m00ff);
                acc[lane] = _mm_add_epi32(acc[lane], _mm_madd_epi16(xe, we));
                acc[lane] = _mm_add_epi32(acc[lane], _mm_madd_epi16(xo, wo));
            }
        }
        let tail = kernels::dot_packed_x4(
            &xcodes[blocks * 16..],
            w.map(|r| &r[blocks * 8..]),
            luts.map(|l| &l.pair),
        );
        let mut out = [0i64; 4];
        for lane in 0..4 {
            out[lane] = hsum_i32x4(acc[lane]) + tail[lane];
        }
        out
    }

    /// AVX2 [`kernels::decode_packed_i16`]: 16 packed bytes (32 codes)
    /// per iteration. The shuffle-table reassembly is the same
    /// [`decode16_avx2`] the fused dot kernels use — identical operand
    /// values — but here the even/odd lane vectors are re-interleaved
    /// into natural code order and stored, so a whole batch can sweep
    /// them afterwards without re-decoding. `punpcklwd`/`punpckhwd`
    /// interleave within 128-bit halves, so one `vperm2i128` pair
    /// restores cross-lane order.
    #[target_feature(enable = "avx2")]
    pub(super) fn decode_packed_i16_avx2(
        wpacked: &[u8],
        len: usize,
        lut: &KernelLut,
        out: &mut [i16],
    ) {
        debug_assert_eq!(wpacked.len(), len.div_ceil(2));
        debug_assert_eq!(out.len(), len);
        let blocks = len / 32;
        // SAFETY: `lo8`/`hi8` are 16-byte arrays; unaligned 16-byte loads.
        let (tlo, thi) = unsafe {
            (
                _mm_loadu_si128(lut.lo8.as_ptr().cast()),
                _mm_loadu_si128(lut.hi8.as_ptr().cast()),
            )
        };
        let tlo = _mm256_broadcastsi128_si256(tlo);
        let thi = _mm256_broadcastsi128_si256(thi);
        let m0f = _mm256_set1_epi16(0x0f);
        let m00ff = _mm256_set1_epi16(0x00ff);
        for i in 0..blocks {
            // SAFETY: `i < blocks = len / 32`, so the 16-byte load at
            // `i*16` is within `wpacked`'s `ceil(len/2)` bytes.
            let wb = unsafe { _mm_loadu_si128(wpacked.as_ptr().add(i * 16).cast()) };
            let w16 = _mm256_cvtepu8_epi16(wb);
            // Lane k holds packed byte k: low nibble = code 2k (even),
            // high nibble = code 2k+1 (odd).
            let we = decode16_avx2(_mm256_and_si256(w16, m0f), tlo, thi, m00ff);
            let wo = decode16_avx2(_mm256_srli_epi16::<4>(w16), tlo, thi, m00ff);
            let lo = _mm256_unpacklo_epi16(we, wo);
            let hi = _mm256_unpackhi_epi16(we, wo);
            let first = _mm256_permute2x128_si256::<0x20>(lo, hi);
            let second = _mm256_permute2x128_si256::<0x31>(lo, hi);
            // SAFETY: `i*32 + 32 <= blocks*32 <= len = out.len()`, so both
            // 32-byte stores stay inside `out`.
            unsafe {
                _mm256_storeu_si256(out.as_mut_ptr().add(i * 32).cast(), first);
                _mm256_storeu_si256(out.as_mut_ptr().add(i * 32 + 16).cast(), second);
            }
        }
        kernels::decode_packed_i16(
            &wpacked[blocks * 16..],
            len - blocks * 32,
            &lut.pair,
            &mut out[blocks * 32..],
        );
    }

    /// AVX2 body of [`super::KernelDispatch::interleave_tile8`]: per 16
    /// columns, the eight rows' vectors are eight rows of eight `u32`
    /// column pairs, and the tile wants them pair-major — an 8×8 `u32`
    /// transpose (`punpck{l,h}dq`, `punpck{l,h}qdq`, `vperm2i128`).
    /// Returns the number of leading columns written (a multiple of 16);
    /// the caller finishes the rest.
    #[target_feature(enable = "avx2")]
    pub(super) fn interleave_tile8_avx2(rows: &[i16], k: usize, out: &mut [i16]) -> usize {
        assert!(rows.len() == TILE_ROWS * k && out.len() == tile8_len(k));
        let blocks = k / 16;
        for b in 0..blocks {
            let mut v = [_mm256_setzero_si256(); TILE_ROWS];
            for (r, row) in v.iter_mut().enumerate() {
                // SAFETY: `b*16 + 16 <= k`, so row `r`'s 16 operands at
                // `r*k + b*16` lie inside `rows`' `8*k` entries.
                *row = unsafe { _mm256_loadu_si256(rows.as_ptr().add(r * k + b * 16).cast()) };
            }
            // `t[half][i]`: rows `2i, 2i+1` interleaved pair by pair —
            // pairs 0, 1 | 4, 5 in half 0 and 2, 3 | 6, 7 in half 1.
            let mut t = [[v[0]; 4]; 2];
            for (i, two) in v.chunks_exact(2).enumerate() {
                t[0][i] = _mm256_unpacklo_epi32(two[0], two[1]);
                t[1][i] = _mm256_unpackhi_epi32(two[0], two[1]);
            }
            for (half, th) in t.iter().enumerate() {
                // Four rows of pair `p` in the low 128 bits, of pair
                // `p + 4` in the high: rows 0..4 in `top`, 4..8 in `bottom`.
                let quads = [
                    (
                        _mm256_unpacklo_epi64(th[0], th[1]),
                        _mm256_unpacklo_epi64(th[2], th[3]),
                    ),
                    (
                        _mm256_unpackhi_epi64(th[0], th[1]),
                        _mm256_unpackhi_epi64(th[2], th[3]),
                    ),
                ];
                for (odd, (top, bottom)) in quads.into_iter().enumerate() {
                    let pair = b * 8 + half * 2 + odd;
                    // SAFETY: pairs `pair` and `pair + 4` are below
                    // `blocks*8 <= k/2`, so both 16-entry stores are
                    // inside `out`'s `ceil(k/2) * 16` entries.
                    unsafe {
                        _mm256_storeu_si256(
                            out.as_mut_ptr().add(pair * 16).cast(),
                            _mm256_permute2x128_si256::<0x20>(top, bottom),
                        );
                        _mm256_storeu_si256(
                            out.as_mut_ptr().add((pair + 4) * 16).cast(),
                            _mm256_permute2x128_si256::<0x31>(top, bottom),
                        );
                    }
                }
            }
        }
        blocks * 16
    }

    /// AVX2 body of [`super::KernelDispatch::dot_tile8_scaled`]: members
    /// in register blocks of eight, the remainder through the block of
    /// exactly its size, so no lane or register idles at any batch size.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_tile8_scaled_avx2(
        tile: &[i16],
        wscales: &[[f64; TILE_ROWS]],
        group_size: usize,
        xcodes: &[i16],
        xscales: &[f64],
        accs: &mut [[f64; TILE_ROWS]],
    ) {
        let groups = wscales.len();
        let k = groups * group_size;
        for (b, block) in accs.chunks_mut(8).enumerate() {
            let x = &xcodes[b * 8 * k..][..block.len() * k];
            let xs = &xscales[b * 8 * groups..][..block.len() * groups];
            match block.len() {
                1 => tile8_block_avx2::<1>(tile, wscales, group_size, x, xs, block),
                2 => tile8_block_avx2::<2>(tile, wscales, group_size, x, xs, block),
                3 => tile8_block_avx2::<3>(tile, wscales, group_size, x, xs, block),
                4 => tile8_block_avx2::<4>(tile, wscales, group_size, x, xs, block),
                5 => tile8_block_avx2::<5>(tile, wscales, group_size, x, xs, block),
                6 => tile8_block_avx2::<6>(tile, wscales, group_size, x, xs, block),
                7 => tile8_block_avx2::<7>(tile, wscales, group_size, x, xs, block),
                _ => tile8_block_avx2::<8>(tile, wscales, group_size, x, xs, block),
            }
        }
    }

    /// One register block of [`dot_tile8_scaled_avx2`]: `MB` members'
    /// `i32x8` accumulators (lane = output row) live in registers beside
    /// the tile vector and one broadcast — ten of sixteen at `MB = 8`.
    /// Per column pair: one tile load, then per member a 4-byte broadcast
    /// load, `pmaddwd`, `paddd`. Per group the accumulators are converted
    /// and scaled where they sit; see the dispatcher for why every step is
    /// exact.
    #[target_feature(enable = "avx2")]
    fn tile8_block_avx2<const MB: usize>(
        tile: &[i16],
        wscales: &[[f64; TILE_ROWS]],
        group_size: usize,
        xcodes: &[i16],
        xscales: &[f64],
        accs: &mut [[f64; TILE_ROWS]],
    ) {
        let groups = wscales.len();
        let k = groups * group_size;
        let pairs = group_size / 2;
        assert!(group_size.is_multiple_of(2) && tile.len() == k * TILE_ROWS);
        assert!(xcodes.len() == MB * k && xscales.len() == MB * groups && accs.len() == MB);
        for (g, ws) in wscales.iter().enumerate() {
            let mut acc = [_mm256_setzero_si256(); MB];
            for p in g * pairs..(g + 1) * pairs {
                // SAFETY: `p < groups * pairs = k / 2` and the tile holds
                // 16 entries per pair (asserted above).
                let w = unsafe { _mm256_loadu_si256(tile.as_ptr().add(p * 16).cast()) };
                for (j, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `j < MB` and `2p + 1 < k`, so the two codes
                    // at `j*k + 2p` are inside `xcodes`' `MB * k` entries
                    // (asserted above); the read is unaligned.
                    let x = unsafe {
                        xcodes
                            .as_ptr()
                            .add(j * k + 2 * p)
                            .cast::<i32>()
                            .read_unaligned()
                    };
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(_mm256_set1_epi32(x), w));
                }
            }
            // SAFETY: `ws` is eight f64s; two unaligned 4-lane loads.
            let (ws_lo, ws_hi) = unsafe {
                (
                    _mm256_loadu_pd(ws.as_ptr()),
                    _mm256_loadu_pd(ws.as_ptr().add(4)),
                )
            };
            for (j, (a, out)) in acc.iter().zip(accs.iter_mut()).enumerate() {
                let xs = _mm256_set1_pd(xscales[j * groups + g]);
                let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(*a));
                let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(*a));
                // `(xs · ws) · int`, then `+=` — the scalar association.
                let lo = _mm256_mul_pd(_mm256_mul_pd(xs, ws_lo), lo);
                let hi = _mm256_mul_pd(_mm256_mul_pd(xs, ws_hi), hi);
                // SAFETY: `out` is eight f64s; unaligned 4-lane accesses.
                unsafe {
                    let p = out.as_mut_ptr();
                    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), lo));
                    _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), hi));
                }
            }
        }
    }

    /// AVX2 body of [`super::KernelDispatch::mac_peak_probe`]. The
    /// multiplicand steps every round, so no `pmaddwd` is loop-invariant,
    /// and the six multipliers differ, so none is shared; fourteen live
    /// registers. Lanes wrap silently — the sums mean nothing and are only
    /// kept alive through `black_box`.
    #[target_feature(enable = "avx2")]
    pub(super) fn mac_peak_probe_avx2(iters: usize) -> u64 {
        use std::hint::black_box;
        let step = _mm256_set1_epi16(black_box(1));
        let mut x = _mm256_set1_epi16(black_box(3));
        let mut w = [_mm256_setzero_si256(); 6];
        for (j, wj) in w.iter_mut().enumerate() {
            *wj = _mm256_set1_epi16(black_box(j as i16 + 5));
        }
        let mut acc = [_mm256_setzero_si256(); 6];
        for _ in 0..iters {
            for (a, &wj) in acc.iter_mut().zip(&w) {
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(x, wj));
            }
            x = _mm256_add_epi16(x, step);
        }
        let mut sum = acc[0];
        for &a in &acc[1..] {
            sum = _mm256_add_epi32(sum, a);
        }
        black_box(hsum_i32x8_wide(sum));
        iters as u64 * 6 * 16
    }

    /// AVX2 [`kernels::int8_dot`]: 32 elements per iteration, i32 lanes
    /// drained to the i64 total every [`INT8_CHUNK`] elements (the scalar
    /// kernel has no length bound, so the vector path must chunk).
    #[target_feature(enable = "avx2")]
    pub(super) fn int8_dot_avx2(a: &[i8], b: &[i8]) -> i64 {
        debug_assert_eq!(a.len(), b.len());
        let mut total = 0i64;
        for (ca, cb) in a.chunks(INT8_CHUNK).zip(b.chunks(INT8_CHUNK)) {
            let blocks = ca.len() / 32;
            let mut acc = _mm256_setzero_si256();
            for i in 0..blocks {
                // SAFETY: `i < blocks = ca.len() / 32`, so both 32-byte
                // loads are within their chunks.
                let (va, vb) = unsafe {
                    (
                        _mm256_loadu_si256(ca.as_ptr().add(i * 32).cast()),
                        _mm256_loadu_si256(cb.as_ptr().add(i * 32).cast()),
                    )
                };
                let a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
                let a_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(va));
                let b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
                let b_hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(vb));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
            }
            total +=
                hsum_i32x8_wide(acc) + kernels::int8_dot(&ca[blocks * 32..], &cb[blocks * 32..]);
        }
        total
    }

    /// SSSE3 [`kernels::int8_dot`], 16 elements per iteration. Sign
    /// extension uses `unpack(0, v)` + arithmetic shift (no `pmovsx`
    /// before SSE4.1).
    #[target_feature(enable = "ssse3")]
    pub(super) fn int8_dot_ssse3(a: &[i8], b: &[i8]) -> i64 {
        debug_assert_eq!(a.len(), b.len());
        let zero = _mm_setzero_si128();
        let mut total = 0i64;
        for (ca, cb) in a.chunks(INT8_CHUNK).zip(b.chunks(INT8_CHUNK)) {
            let blocks = ca.len() / 16;
            let mut acc = _mm_setzero_si128();
            for i in 0..blocks {
                // SAFETY: `i < blocks = ca.len() / 16`, so both 16-byte
                // loads are within their chunks.
                let (va, vb) = unsafe {
                    (
                        _mm_loadu_si128(ca.as_ptr().add(i * 16).cast()),
                        _mm_loadu_si128(cb.as_ptr().add(i * 16).cast()),
                    )
                };
                let a_lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(zero, va));
                let a_hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(zero, va));
                let b_lo = _mm_srai_epi16::<8>(_mm_unpacklo_epi8(zero, vb));
                let b_hi = _mm_srai_epi16::<8>(_mm_unpackhi_epi8(zero, vb));
                acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
                acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
            }
            total +=
                hsum_i32x4_wide(acc) + kernels::int8_dot(&ca[blocks * 16..], &cb[blocks * 16..]);
        }
        total
    }

    /// AVX2 `max |x|` with NaN skipped: `maxps(|x|, acc)` returns `acc`
    /// when `|x|` is NaN — the same per-element semantics as the scalar
    /// fold's `f32::max`, and a maximum is order-independent, so the
    /// 8-lane split changes no bit.
    #[target_feature(enable = "avx2")]
    pub(super) fn abs_max_avx2(xs: &[f32]) -> f32 {
        let blocks = xs.len() / 8;
        let sign = _mm256_set1_ps(-0.0);
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            // SAFETY: `i < blocks = xs.len() / 8`: the 8-float load is
            // within `xs`.
            let v = unsafe { _mm256_loadu_ps(xs.as_ptr().add(i * 8)) };
            acc = _mm256_max_ps(_mm256_andnot_ps(sign, v), acc);
        }
        let mut tmp = [0.0f32; 8];
        // SAFETY: `tmp` is a writable 32-byte buffer; unaligned store.
        unsafe { _mm256_storeu_ps(tmp.as_mut_ptr(), acc) };
        let head = tmp.iter().fold(0.0f32, |m, &v| m.max(v));
        xs[blocks * 8..].iter().fold(head, |m, &v| m.max(v.abs()))
    }

    /// SSE2 `max |x|` — SSE2 is the x86_64 baseline, so this is callable
    /// on any CPU this module compiles for (no runtime check needed).
    #[target_feature(enable = "sse2")]
    pub(super) fn abs_max_sse2(xs: &[f32]) -> f32 {
        let blocks = xs.len() / 4;
        if blocks == 0 {
            return scalar_abs_max(xs);
        }
        let sign = _mm_set1_ps(-0.0);
        let mut acc = _mm_setzero_ps();
        for i in 0..blocks {
            // SAFETY: `i < blocks = xs.len() / 4`: the 4-float load is
            // within `xs`.
            let v = unsafe { _mm_loadu_ps(xs.as_ptr().add(i * 4)) };
            acc = _mm_max_ps(_mm_andnot_ps(sign, v), acc);
        }
        let mut tmp = [0.0f32; 4];
        // SAFETY: `tmp` is a writable 16-byte buffer; unaligned store.
        unsafe { _mm_storeu_ps(tmp.as_mut_ptr(), acc) };
        let head = tmp.iter().fold(0.0f32, |m, &v| m.max(v));
        xs[blocks * 4..].iter().fold(head, |m, &v| m.max(v.abs()))
    }

    /// Eight lanes of AVX2 symmetric INT8 quantization, bit-identical to
    /// `quantize_symmetric_int(x / scale, 127)` per lane; the eight codes
    /// come back as the low eight bytes.
    ///
    /// - `divps` is IEEE-exact — the identical quotient as scalar `/`;
    /// - `f32::round` (ties away from zero) is reproduced exactly as
    ///   `t = trunc(q)`, then `t ± 1` where `|q - t| >= 0.5`. The
    ///   remainder `q - t` is exact (`t = 0` when `|q| < 1`, else
    ///   Sterbenz' lemma applies since `t <= |q| <= 2t`), so the
    ///   comparison is exact — `roundps`' nearest-even mode would differ
    ///   at ties and must not be used;
    /// - the clamp happens in f32 before conversion (`r` is integral, so
    ///   the clamped value converts exactly; this also canonicalizes
    ///   ±inf the way the scalar path's saturating `as i64` does);
    /// - NaN lanes are zeroed by the ordered-compare mask, matching the
    ///   scalar NaN → 0 rule;
    /// - the saturating packs narrow values already inside ±127.
    #[target_feature(enable = "avx2")]
    fn quantize_i8x8_avx2(v: __m256, scale: __m256) -> __m128i {
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_set1_ps(-0.0);
        let hi = _mm256_set1_ps(127.0);
        let lo = _mm256_set1_ps(-127.0);
        let q = _mm256_div_ps(v, scale);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
        let d = _mm256_sub_ps(q, t);
        let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, d), half);
        let sign1 = _mm256_or_ps(_mm256_and_ps(q, sign), one);
        let r = _mm256_add_ps(t, _mm256_and_ps(away, sign1));
        let r = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
        let r = _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(q, q));
        let iv = _mm256_cvttps_epi32(r);
        let words = _mm_packs_epi32(
            _mm256_castsi256_si128(iv),
            _mm256_extracti128_si256::<1>(iv),
        );
        _mm_packs_epi16(words, words)
    }

    /// AVX2 [`super::KernelDispatch::quantize_i8`], eight elements per
    /// iteration through [`quantize_i8x8_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_i8_avx2(xs: &[f32], scale: f32, out: &mut [i8]) {
        assert_eq!(xs.len(), out.len(), "one code per element");
        let blocks = xs.len() / 8;
        let vs = _mm256_set1_ps(scale);
        for i in 0..blocks {
            // SAFETY: `i < blocks = xs.len() / 8`: the 8-float load is
            // within `xs` and the 8-byte store within `out` (same length).
            unsafe {
                let v = _mm256_loadu_ps(xs.as_ptr().add(i * 8));
                _mm_storel_epi64(
                    out.as_mut_ptr().add(i * 8).cast(),
                    quantize_i8x8_avx2(v, vs),
                );
            }
        }
        super::scalar_quantize_i8(&xs[blocks * 8..], scale, &mut out[blocks * 8..]);
    }

    /// AVX2 body of [`super::KernelDispatch::quantize_i8_lanes`]: as
    /// [`quantize_i8_avx2`] with the scale vector loaded beside the values
    /// and floored at `MIN_POSITIVE` (`maxps` keeps the floor for a NaN
    /// scale, like `f32::max`). Returns the number of leading elements
    /// written (a multiple of 8); the caller finishes the rest.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_i8_lanes_avx2(xs: &[f32], scales: &[f32], out: &mut [i8]) -> usize {
        assert!(xs.len() == scales.len() && xs.len() == out.len());
        let blocks = xs.len() / 8;
        let floor = _mm256_set1_ps(f32::MIN_POSITIVE);
        for i in 0..blocks {
            // SAFETY: `i < blocks = xs.len() / 8`: both 8-float loads and
            // the 8-byte store are within their slices (equal lengths,
            // asserted above).
            unsafe {
                let v = _mm256_loadu_ps(xs.as_ptr().add(i * 8));
                let s = _mm256_max_ps(_mm256_loadu_ps(scales.as_ptr().add(i * 8)), floor);
                _mm_storel_epi64(out.as_mut_ptr().add(i * 8).cast(), quantize_i8x8_avx2(v, s));
            }
        }
        blocks * 8
    }

    /// The MANT lanes of the group-encode kernel
    /// ([`super::KernelDispatch::encode_errors`]): the magnitude code of
    /// each quotient in `v` — the strict `<` scan of `|v|` against the
    /// ascending levels.
    /// `cmpltps` is false on NaN and `minps(err, best)` keeps `best` unless
    /// `err < best`, exactly the scalar `if err < best_err`.
    #[target_feature(enable = "avx2")]
    fn mant_index_avx2(levels: &[f32; 8], v: __m256) -> __m256i {
        let sign = _mm256_set1_ps(-0.0);
        let m = _mm256_andnot_ps(sign, v);
        let mut best_err = _mm256_andnot_ps(sign, _mm256_sub_ps(m, _mm256_set1_ps(levels[0])));
        let mut idx = _mm256_setzero_ps();
        for (i, &level) in levels.iter().enumerate().skip(1) {
            let err = _mm256_andnot_ps(sign, _mm256_sub_ps(m, _mm256_set1_ps(level)));
            let closer = _mm256_cmp_ps::<_CMP_LT_OQ>(err, best_err);
            let code = _mm256_castsi256_ps(_mm256_set1_epi32(i as i32));
            idx = _mm256_blendv_ps(idx, code, closer);
            best_err = _mm256_min_ps(err, best_err);
        }
        _mm256_castps_si256(idx)
    }

    /// The INT4 lanes of the group-encode kernel: `quantize_symmetric_int(v,
    /// 7)` per lane — clamp to ±8, truncate, compare the exact fraction
    /// with ±0.5, clamp to ±7, NaN → 0 (`kernels::int4_lanes`, the scalar
    /// lanes, operation for operation; `maxps`/`minps` turn a NaN into a
    /// bound, which the ordered-compare mask zeroes at the end).
    #[target_feature(enable = "avx2")]
    fn int4_round_avx2(v: __m256) -> __m256i {
        let c = _mm256_min_ps(_mm256_max_ps(v, _mm256_set1_ps(-8.0)), _mm256_set1_ps(8.0));
        let t = _mm256_cvttps_epi32(c);
        let d = _mm256_sub_ps(c, _mm256_cvtepi32_ps(t));
        // A true compare is all ones, i.e. -1.
        let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(d, _mm256_set1_ps(0.5)));
        let down = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(d, _mm256_set1_ps(-0.5)));
        let r = _mm256_add_epi32(_mm256_sub_epi32(t, up), down);
        let r = _mm256_max_epi32(
            _mm256_min_epi32(r, _mm256_set1_epi32(7)),
            _mm256_set1_epi32(-7),
        );
        _mm256_and_si256(r, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_ORD_Q>(v, v)))
    }

    /// `e · e` of eight elements under one table and scale, widened: the
    /// low and the high four lanes as f64 (see
    /// [`super::KernelDispatch::encode_errors`] for the operation list).
    #[target_feature(enable = "avx2")]
    fn squared_errors_avx2(table: &EncodeTable, scale: f32, x: __m256) -> [__m256d; 2] {
        let vs = _mm256_set1_ps(scale);
        let v = _mm256_div_ps(x, vs);
        let q = match table {
            EncodeTable::Mant(levels) => {
                // SAFETY: `levels` is eight f32s; unaligned 32-byte load.
                let all = unsafe { _mm256_loadu_ps(levels.as_ptr()) };
                let level = _mm256_permutevar8x32_ps(all, mant_index_avx2(levels, v));
                _mm256_or_ps(level, _mm256_and_ps(v, _mm256_set1_ps(-0.0)))
            }
            EncodeTable::Int4 => _mm256_cvtepi32_ps(int4_round_avx2(v)),
        };
        let e = _mm256_sub_ps(x, _mm256_mul_ps(q, vs));
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(e));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(e));
        [_mm256_mul_pd(lo, lo), _mm256_mul_pd(hi, hi)]
    }

    /// 4×4 f64 transpose: `rows[c]` holds four elements' terms of
    /// candidate `c`; lane `c` of result `j` is candidate `c`'s term of
    /// element `j`.
    #[target_feature(enable = "avx2")]
    fn transpose4_pd(rows: [__m256d; 4]) -> [__m256d; 4] {
        let t0 = _mm256_unpacklo_pd(rows[0], rows[1]);
        let t1 = _mm256_unpackhi_pd(rows[0], rows[1]);
        let t2 = _mm256_unpacklo_pd(rows[2], rows[3]);
        let t3 = _mm256_unpackhi_pd(rows[2], rows[3]);
        [
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ]
    }

    /// AVX2 body of [`super::KernelDispatch::encode_errors`] over the whole
    /// vectors of `group`: every chain starts at `0.0` and `sums[c]` is
    /// overwritten; returns the number of leading elements summed (a
    /// multiple of [`ENCODE_LANES`]). Candidates go four at
    /// a time — a last partial quad repeats its last candidate in the spare
    /// lanes, which are dropped — and each quad's accumulator is one
    /// `f64x4` whose lane `c` is candidate `c`'s chain.
    #[target_feature(enable = "avx2")]
    pub(super) fn encode_errors_avx2(
        tables: &[EncodeTable],
        scales: &[f32],
        group: &[f32],
        weights: Option<&[f32]>,
        sums: &mut [f64],
    ) -> usize {
        assert!(tables.len() == scales.len() && tables.len() == sums.len());
        assert!(weights.is_none_or(|w| w.len() == group.len()));
        let blocks = group.len() / ENCODE_LANES;
        if tables.is_empty() || blocks == 0 {
            return 0;
        }
        for (quad, sums) in sums.chunks_mut(4).enumerate() {
            let cand: [usize; 4] = std::array::from_fn(|k| (quad * 4 + k).min(tables.len() - 1));
            let mut acc = _mm256_setzero_pd();
            for b in 0..blocks {
                // SAFETY: `b < blocks = group.len() / 8`, so the 8-float
                // load is within `group`.
                let x = unsafe { _mm256_loadu_ps(group.as_ptr().add(b * ENCODE_LANES)) };
                let w = weights.map(|w| {
                    // SAFETY: `weights` is as long as `group` (asserted
                    // above), so the same 8-float load is within it.
                    let w = unsafe { _mm256_loadu_ps(w.as_ptr().add(b * ENCODE_LANES)) };
                    [
                        _mm256_cvtps_pd(_mm256_castps256_ps128(w)),
                        _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(w)),
                    ]
                });
                let terms = cand.map(|c| {
                    let [lo, hi] = squared_errors_avx2(&tables[c], scales[c], x);
                    match w {
                        Some([w_lo, w_hi]) => [_mm256_mul_pd(lo, w_lo), _mm256_mul_pd(hi, w_hi)],
                        None => [lo, hi],
                    }
                });
                for half in 0..2 {
                    for term in transpose4_pd(terms.map(|t| t[half])) {
                        acc = _mm256_add_pd(acc, term);
                    }
                }
            }
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` is a writable 32-byte buffer; unaligned store.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
            sums.copy_from_slice(&lanes[..sums.len()]);
        }
        blocks * ENCODE_LANES
    }

    /// AVX2 body of [`super::KernelDispatch::encode_packed`] over the whole
    /// vectors of `group`; returns the number of leading elements encoded
    /// (a multiple of [`ENCODE_LANES`], so the packed bytes end on a byte).
    /// Per vector: the eight codes as `i32` lanes, each odd lane shifted
    /// onto its even neighbour (`c_even | c_odd << 4` is the low byte of
    /// every 64-bit lane), the four bytes gathered and stored.
    #[target_feature(enable = "avx2")]
    pub(super) fn encode_packed_avx2(
        table: &EncodeTable,
        scale: f32,
        group: &[f32],
        out: &mut [u8],
    ) -> usize {
        assert_eq!(out.len(), group.len().div_ceil(2));
        let blocks = group.len() / ENCODE_LANES;
        let vs = _mm256_set1_ps(scale);
        // Byte 0 of each 64-bit lane to bytes 0 and 1; the rest zeroed.
        let gather = _mm_set_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 8, 0);
        for (b, out) in out
            .chunks_exact_mut(ENCODE_LANES / 2)
            .take(blocks)
            .enumerate()
        {
            // SAFETY: `b < blocks = group.len() / 8`, so the 8-float load
            // is within `group`.
            let x = unsafe { _mm256_loadu_ps(group.as_ptr().add(b * ENCODE_LANES)) };
            let v = _mm256_div_ps(x, vs);
            let codes = match table {
                EncodeTable::Mant(levels) => {
                    let negative = _mm256_srli_epi32::<28>(_mm256_castps_si256(v));
                    _mm256_or_si256(
                        mant_index_avx2(levels, v),
                        _mm256_and_si256(negative, _mm256_set1_epi32(0x8)),
                    )
                }
                EncodeTable::Int4 => _mm256_and_si256(int4_round_avx2(v), _mm256_set1_epi32(0x0f)),
            };
            let pairs = _mm256_or_si256(codes, _mm256_srli_epi64::<28>(codes));
            let lo = _mm_shuffle_epi8(_mm256_castsi256_si128(pairs), gather);
            let hi = _mm_shuffle_epi8(_mm256_extracti128_si256::<1>(pairs), gather);
            let bytes = _mm_cvtsi128_si32(_mm_unpacklo_epi16(lo, hi));
            out.copy_from_slice(&bytes.to_le_bytes());
        }
        blocks * ENCODE_LANES
    }

    /// Eight lanes of [`kernels::exp_nonpositive`], operation for
    /// operation: every `mulps`/`addps`/`subps` below is the scalar
    /// function's `*`/`+`/`−` at the same place, the power of two comes out
    /// of `t`'s bits by the same add and shift, and `cmpltps` is false on a
    /// NaN like the scalar `<`.
    #[target_feature(enable = "avx2")]
    fn exp_nonpositive_avx2(d: __m256) -> __m256 {
        let magic = _mm256_set1_ps(kernels::ROUND_MAGIC);
        let t = _mm256_add_ps(_mm256_mul_ps(d, _mm256_set1_ps(kernels::LOG2_E)), magic);
        let n = _mm256_sub_ps(t, magic);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(d, _mm256_mul_ps(n, _mm256_set1_ps(kernels::LN2_HI))),
            _mm256_mul_ps(n, _mm256_set1_ps(kernels::LN2_LO)),
        );
        let mut p = _mm256_set1_ps(kernels::EXP_POLY[0]);
        for &c in &kernels::EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            _mm256_set1_ps(1.0),
        );
        let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_castps_si256(t),
            _mm256_set1_epi32(127),
        )));
        let below = _mm256_cmp_ps::<_CMP_LT_OQ>(d, _mm256_set1_ps(kernels::EXP_FLOOR));
        _mm256_andnot_ps(below, _mm256_mul_ps(y, two_n))
    }

    /// AVX2 [`super::KernelDispatch::softmax`]: the whole chunks of eight in
    /// vectors, the tail through the scalar functions. `maxps(v, acc)`
    /// keeps `acc` when `v` is NaN, like the scalar fold's `f32::max` (the
    /// sign of a zero maximum may differ from the fold's, which changes no
    /// exponential); the sum accumulator's lane `j` is the scalar arm's
    /// lane `j`, and `divps` is the scalar `/`.
    #[target_feature(enable = "avx2")]
    pub(super) fn softmax_avx2(x: &mut [f32]) {
        let whole = x.len() / kernels::SOFTMAX_LANES * kernels::SOFTMAX_LANES;
        let (head, tail) = x.split_at_mut(whole);
        let mut lanes = [0.0f32; kernels::SOFTMAX_LANES];

        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        for chunk in head.chunks_exact(kernels::SOFTMAX_LANES) {
            // SAFETY: `chunk` is exactly eight floats; unaligned load.
            vmax = _mm256_max_ps(unsafe { _mm256_loadu_ps(chunk.as_ptr()) }, vmax);
        }
        // SAFETY: `lanes` is a writable 32-byte buffer; unaligned store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vmax) };
        let max = lanes
            .iter()
            .chain(tail.iter())
            .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        if max == f32::NEG_INFINITY {
            x.fill(0.0);
            return;
        }

        let vm = _mm256_set1_ps(max);
        let mut vsum = _mm256_setzero_ps();
        for chunk in head.chunks_exact_mut(kernels::SOFTMAX_LANES) {
            // SAFETY: `chunk` is exactly eight floats; unaligned accesses.
            unsafe {
                let e = exp_nonpositive_avx2(_mm256_sub_ps(_mm256_loadu_ps(chunk.as_ptr()), vm));
                _mm256_storeu_ps(chunk.as_mut_ptr(), e);
                vsum = _mm256_add_ps(vsum, e);
            }
        }
        // SAFETY: `lanes` is a writable 32-byte buffer; unaligned store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), vsum) };
        let mut sum = kernels::sum_softmax_lanes(&lanes);
        for v in tail.iter_mut() {
            *v = kernels::exp_nonpositive(*v - max);
            sum += *v;
        }

        if sum > 0.0 {
            let vs = _mm256_set1_ps(sum);
            for chunk in head.chunks_exact_mut(kernels::SOFTMAX_LANES) {
                // SAFETY: `chunk` is exactly eight floats; unaligned accesses.
                unsafe {
                    let q = _mm256_div_ps(_mm256_loadu_ps(chunk.as_ptr()), vs);
                    _mm256_storeu_ps(chunk.as_mut_ptr(), q);
                }
            }
            for v in tail.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// AVX2 body of [`super::KernelDispatch::staged_pv`] over the whole
    /// blocks of [`STAGED_LANES`] channels; returns the number of leading
    /// channels finished (the caller does the rest). Four blocks at a time
    /// while they last — a 64-channel head is one step — then one at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn staged_pv_avx2(
        pcodes: &[i8],
        window: &[i8],
        stride: usize,
        pscale: f32,
        vscales: &[f32],
        out: &mut [f32],
    ) -> usize {
        if pcodes.is_empty() {
            return 0;
        }
        let whole = out.len() / STAGED_LANES * STAGED_LANES;
        let mut lo = 0;
        while lo + 4 * STAGED_LANES <= whole {
            staged_pv_blocks_avx2::<4>(pcodes, window, stride, pscale, vscales, out, lo);
            lo += 4 * STAGED_LANES;
        }
        while lo < whole {
            staged_pv_blocks_avx2::<1>(pcodes, window, stride, pscale, vscales, out, lo);
            lo += STAGED_LANES;
        }
        whole
    }

    /// `N` adjacent blocks of [`staged_pv_avx2`], channels `lo..lo + 16·N`:
    /// their `2·N` accumulators stay in registers over the whole window, so
    /// a probability pair is built and broadcast once per `N` blocks. Per
    /// block and pair of staged rows, `punpck{l,h}bw` interleaves the two
    /// rows' sixteen bytes channel by channel, `pmovsxbw` widens eight
    /// channels' pairs, and `pmaddwd` against the broadcast `(p_t, p_t+1)`
    /// leaves `p_t·v_t[c] + p_t+1·v_t+1[c]` in channel `c`'s `i32` lane.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    fn staged_pv_blocks_avx2<const N: usize>(
        pcodes: &[i8],
        window: &[i8],
        stride: usize,
        pscale: f32,
        vscales: &[f32],
        out: &mut [f32],
        lo: usize,
    ) {
        kernels::check_staged_pv(pcodes, window, stride, vscales, out);
        assert!(lo + N * STAGED_LANES <= out.len());
        let mut acc = [[_mm256_setzero_si256(); 2]; N];
        for (pair, p) in pcodes.chunks(2).enumerate() {
            // An odd last row pairs with itself at probability zero.
            let (t0, t1, p1) = match p {
                [_, p1] => (2 * pair, 2 * pair + 1, *p1),
                _ => (2 * pair, 2 * pair, 0),
            };
            let both = u32::from(p[0] as i16 as u16) | u32::from(p1 as i16 as u16) << 16;
            let pp = _mm256_set1_epi32(both as i32);
            for (block, acc) in acc.iter_mut().enumerate() {
                let at = lo + block * STAGED_LANES;
                // SAFETY: `t0, t1 < pcodes.len()` and `at + 16 <=
                // out.len()` (asserted above), so both 16-byte loads end at
                // or before `(pcodes.len() - 1) * stride + out.len() <=
                // window.len()` (checked above).
                let (a, b) = unsafe {
                    (
                        _mm_loadu_si128(window.as_ptr().add(t0 * stride + at).cast()),
                        _mm_loadu_si128(window.as_ptr().add(t1 * stride + at).cast()),
                    )
                };
                let first = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(a, b));
                let second = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(a, b));
                acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(first, pp));
                acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(second, pp));
            }
        }
        let ps = _mm256_set1_pd(f64::from(pscale));
        let floor = _mm256_set1_ps(f32::MIN_POSITIVE);
        for (half, &int) in acc.iter().flatten().enumerate() {
            let at = lo + half * 8;
            // SAFETY: `at + 8 <= lo + 16·N <= out.len()` (asserted above),
            // and `vscales` is as long as `out` (checked above); unaligned
            // eight-float accesses.
            unsafe {
                let s = _mm256_max_ps(_mm256_loadu_ps(vscales.as_ptr().add(at)), floor);
                // `((pscale · scale) · int) as f32`, four lanes at a time.
                let term_lo = _mm256_cvtpd_ps(_mm256_mul_pd(
                    _mm256_mul_pd(ps, _mm256_cvtps_pd(_mm256_castps256_ps128(s))),
                    _mm256_cvtepi32_pd(_mm256_castsi256_si128(int)),
                ));
                let term_hi = _mm256_cvtpd_ps(_mm256_mul_pd(
                    _mm256_mul_pd(ps, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(s))),
                    _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(int)),
                ));
                let o = out.as_mut_ptr().add(at);
                let sum = _mm256_add_ps(_mm256_loadu_ps(o), _mm256_set_m128(term_hi, term_lo));
                _mm256_storeu_ps(o, sum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{int4_decode_lut, mant_decode_lut, MAX_I32_GROUP};
    use crate::mant::Mant;
    use crate::packing::pack_nibbles;

    fn tiers() -> Vec<KernelDispatch> {
        let mut t = vec![KernelDispatch::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                t.push(KernelDispatch::Ssse3);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                t.push(KernelDispatch::Avx2);
            }
        }
        t
    }

    fn luts_under_test() -> Vec<KernelLut> {
        let mut l: Vec<KernelLut> = [0u32, 5, 17, 60, 127]
            .iter()
            .map(|&a| kernel_lut(&mant_decode_lut(Mant::new(a).unwrap())))
            .collect();
        l.push(kernel_lut(&int4_decode_lut()));
        l
    }

    #[test]
    fn kernel_lut_split_reassembles_operands() {
        for lut in luts_under_test() {
            for b in 0..16usize {
                let v = i16::from_le_bytes([lut.lo8[b], lut.hi8[b]]);
                assert_eq!(i32::from(v), lut.pair[b][0], "code {b}");
            }
        }
    }

    #[test]
    fn dot_packed_matches_scalar_all_tiers() {
        // Lengths straddling both tiers' block sizes, including odd tails.
        for len in [
            0usize, 1, 2, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 200,
        ] {
            let xcodes: Vec<i8> = (0..len)
                .map(|i| ((i * 37 + 11) % 255) as u8 as i8)
                .collect();
            let wcodes: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 16) as u8).collect();
            let packed = pack_nibbles(&wcodes);
            for lut in luts_under_test() {
                let oracle = kernels::dot_packed(&xcodes, &packed, &lut.pair);
                for d in tiers() {
                    assert_eq!(
                        d.dot_packed(&xcodes, &packed, &lut),
                        oracle,
                        "tier {} len {len}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dot_packed_exact_at_i32_bound() {
        // Worst-case magnitudes at the maximum admissible group length:
        // every tier must still sum exactly (no lane overflow).
        let lut = kernel_lut(&mant_decode_lut(Mant::new(127).unwrap()));
        let xcodes = vec![-128i8; MAX_I32_GROUP];
        let packed = pack_nibbles(&vec![0xfu8; MAX_I32_GROUP]);
        let expect = MAX_I32_GROUP as i64 * 128 * (127 * 7 + 128);
        for d in tiers() {
            assert_eq!(d.dot_packed(&xcodes, &packed, &lut), expect, "{}", d.name());
        }
    }

    #[test]
    fn dot_packed_x4_matches_scalar_all_tiers() {
        // Three groups a tile, each byte-aligned and decoded through its
        // own table per row: every tier's grouped sweep must equal the
        // scalar tile kernel run group by group.
        const GROUPS: usize = 3;
        let luts: Vec<KernelLut> = [0u32, 17, 60, 127, 5, 99]
            .iter()
            .map(|&a| kernel_lut(&mant_decode_lut(Mant::new(a).unwrap())))
            .collect();
        for len in [3usize, 16, 33, 64, 65, 129] {
            let xcodes: Vec<i8> = (0..GROUPS * len)
                .map(|i| ((i * 91 + 5) % 255) as u8 as i8)
                .collect();
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|r| {
                    (0..GROUPS)
                        .flat_map(|g| {
                            pack_nibbles(
                                &(0..len)
                                    .map(|i| ((i * 3 + r * 5 + g * 7) % 16) as u8)
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect()
                })
                .collect();
            let w = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let row_luts: Vec<Vec<&KernelLut>> = (0..4)
                .map(|r| {
                    (0..GROUPS)
                        .map(|g| &luts[(r + 2 * g) % luts.len()])
                        .collect()
                })
                .collect();
            let lr = [
                &row_luts[0][..],
                &row_luts[1][..],
                &row_luts[2][..],
                &row_luts[3][..],
            ];
            let gb = len.div_ceil(2);
            let oracle: Vec<[i64; 4]> = (0..GROUPS)
                .map(|g| {
                    kernels::dot_packed_x4(
                        &xcodes[g * len..(g + 1) * len],
                        w.map(|r| &r[g * gb..(g + 1) * gb]),
                        lr.map(|l| &l[g].pair),
                    )
                })
                .collect();
            for d in tiers() {
                let mut got = vec![[0i64; 4]; GROUPS];
                d.dot_packed_x4_groups(&xcodes, w, len, lr, &mut got);
                assert_eq!(got, oracle, "{} len {len}", d.name());
            }
        }
    }

    #[test]
    fn decode_packed_i16_matches_scalar_all_tiers() {
        for len in [0usize, 1, 2, 15, 16, 31, 32, 33, 63, 64, 65, 129] {
            let wcodes: Vec<u8> = (0..len).map(|i| ((i * 7 + 5) % 16) as u8).collect();
            let packed = pack_nibbles(&wcodes);
            for lut in luts_under_test() {
                let mut oracle = vec![0i16; len];
                kernels::decode_packed_i16(&packed, len, &lut.pair, &mut oracle);
                for d in tiers() {
                    let mut got = vec![0i16; len];
                    d.decode_packed_i16(&packed, len, &lut, &mut got);
                    assert_eq!(got, oracle, "tier {} len {len}", d.name());
                }
            }
        }
    }

    #[test]
    fn interleave_tile8_equals_naive_gather_all_tiers() {
        // Lengths around the 16-column transpose block, odd ones included
        // (the last pair's second slot must be zero, never stale).
        for k in [0usize, 1, 2, 15, 16, 17, 31, 32, 33, 64, 130] {
            let rows: Vec<i16> = (0..TILE_ROWS * k)
                .map(|i| ((i * 29 + 7) % 2035) as i16 - 1017)
                .collect();
            let mut naive = vec![0i16; tile8_len(k)];
            for pair in 0..k.div_ceil(2) {
                for r in 0..TILE_ROWS {
                    for half in 0..2 {
                        let i = pair * 2 + half;
                        if i < k {
                            naive[(pair * TILE_ROWS + r) * 2 + half] = rows[r * k + i];
                        }
                    }
                }
            }
            for d in tiers() {
                let mut got = vec![-1i16; tile8_len(k)];
                d.interleave_tile8(&rows, k, &mut got);
                assert_eq!(got, naive, "tier {} k {k}", d.name());
            }
        }
    }

    /// Eight packed rows (row `r` through `luts[r]` in every group) taken
    /// through the decode-once pipeline on tier `d`: decode, interleave.
    fn decoded_tile(
        d: KernelDispatch,
        packed: &[Vec<u8>],
        luts: &[KernelLut],
        groups: usize,
        gs: usize,
    ) -> Vec<i16> {
        let (k, gb) = (groups * gs, gs.div_ceil(2));
        let mut dec = vec![0i16; TILE_ROWS * k];
        for r in 0..TILE_ROWS {
            for g in 0..groups {
                d.decode_packed_i16(
                    &packed[r][g * gb..(g + 1) * gb],
                    gs,
                    &luts[r],
                    &mut dec[r * k + g * gs..r * k + (g + 1) * gs],
                );
            }
        }
        let mut tile = vec![0i16; tile8_len(k)];
        d.interleave_tile8(&dec, k, &mut tile);
        tile
    }

    #[test]
    fn dot_tile8_scaled_matches_packed_kernels_all_tiers() {
        // The whole decode-once pipeline against the fused packed kernel
        // plus the GEMV's scalar epilogue, on every tier: member counts on
        // both sides of the eight-member register block (and an empty
        // batch), an odd group size that takes the scalar arm, and
        // accumulators that do not start at zero (the contract is `+=`).
        let luts: Vec<KernelLut> = [0u32, 17, 60, 127, 5, 99, 1, 64]
            .iter()
            .map(|&a| kernel_lut(&mant_decode_lut(Mant::new(a).unwrap())))
            .collect();
        for (groups, gs) in [(1usize, 16usize), (2, 32), (3, 64), (2, 33)] {
            let (k, gb) = (groups * gs, gs.div_ceil(2));
            let packed: Vec<Vec<u8>> = (0..TILE_ROWS)
                .map(|r| {
                    let codes: Vec<u8> = (0..k).map(|i| ((i * 5 + r * 3) % 16) as u8).collect();
                    codes.chunks(gs).flat_map(pack_nibbles).collect()
                })
                .collect();
            let wscales: Vec<[f64; TILE_ROWS]> = (0..groups)
                .map(|g| std::array::from_fn(|r| f64::from(0.013f32 * (1 + g * 8 + r) as f32)))
                .collect();
            for count in [0usize, 1, 2, 5, 8, 9] {
                let x8: Vec<i8> = (0..count * k)
                    .map(|i| ((i * 73 + 9) % 255) as u8 as i8)
                    .collect();
                let x16: Vec<i16> = x8.iter().map(|&x| i16::from(x)).collect();
                let xscales: Vec<f64> = (0..count * groups)
                    .map(|i| f64::from(0.37f32 / (1 + i) as f32))
                    .collect();
                let mut expect = vec![[0.5f64; TILE_ROWS]; count];
                for (j, acc) in expect.iter_mut().enumerate() {
                    for g in 0..groups {
                        for r in 0..TILE_ROWS {
                            let int = kernels::dot_packed(
                                &x8[j * k + g * gs..j * k + (g + 1) * gs],
                                &packed[r][g * gb..(g + 1) * gb],
                                &luts[r].pair,
                            );
                            acc[r] += xscales[j * groups + g] * wscales[g][r] * int as f64;
                        }
                    }
                }
                for d in tiers() {
                    let tile = decoded_tile(d, &packed, &luts, groups, gs);
                    let mut got = vec![[0.5f64; TILE_ROWS]; count];
                    d.dot_tile8_scaled(&tile, &wscales, gs, &x16, &xscales, &mut got);
                    let bits = |v: &[[f64; TILE_ROWS]]| -> Vec<u64> {
                        v.iter().flatten().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&expect),
                        "tier {} gs {gs} members {count}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dot_tile8_scaled_exact_at_i32_bound() {
        // One group of the maximum admissible length at worst-case
        // magnitudes: each i32 lane ends within 0.7% of i32::MAX and must
        // still convert to the exact f64 on every tier.
        let k = MAX_I32_GROUP;
        let tile = vec![-(127i16 * 7 + 128); tile8_len(k)];
        let x16 = vec![-128i16; 3 * k];
        let int = k as f64 * 128.0 * 1017.0;
        for d in tiers() {
            let mut got = vec![[0.0f64; TILE_ROWS]; 3];
            d.dot_tile8_scaled(&tile, &[[1.0; TILE_ROWS]], k, &x16, &[1.0; 3], &mut got);
            assert_eq!(got, vec![[int; TILE_ROWS]; 3], "{}", d.name());
        }
    }

    #[test]
    fn int8_dot_matches_scalar_all_tiers() {
        for len in [0usize, 1, 15, 16, 17, 32, 64, 100, 1000] {
            let a: Vec<i8> = (0..len).map(|i| ((i * 57 + 9) % 255) as u8 as i8).collect();
            let b: Vec<i8> = (0..len).map(|i| ((i * 23 + 1) % 255) as u8 as i8).collect();
            let oracle = kernels::int8_dot(&a, &b);
            for d in tiers() {
                assert_eq!(d.int8_dot(&a, &b), oracle, "{} len {len}", d.name());
            }
        }
        // Saturated inputs: worst-case products, length past one chunk
        // boundary would take too long here; the drain bound itself is
        // arithmetic (see INT8_CHUNK docs). 2^15 saturated elements
        // exercise multi-block accumulation at maximum magnitude.
        let a = vec![-128i8; 1 << 15];
        let b = vec![-128i8; 1 << 15];
        let expect = (1i64 << 15) * 128 * 128;
        for d in tiers() {
            assert_eq!(d.int8_dot(&a, &b), expect, "{}", d.name());
        }
    }

    #[test]
    fn abs_max_matches_scalar_all_tiers() {
        let cases: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.0],
            vec![-0.0, 0.0],
            vec![1.5, -2.5, 0.25],
            (0..100).map(|i| ((i * 17) % 31) as f32 - 15.0).collect(),
            vec![f32::NAN, 3.0, -7.5, f32::NAN],
            vec![f32::NAN; 9],
            vec![f32::INFINITY, -1.0, f32::NEG_INFINITY],
            vec![f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-38],
        ];
        for xs in &cases {
            let oracle = scalar_abs_max(xs);
            for d in tiers() {
                let got = d.abs_max(xs);
                assert_eq!(got.to_bits(), oracle.to_bits(), "{} {xs:?}", d.name());
            }
        }
    }

    #[test]
    fn quantize_i8_matches_scalar_all_tiers() {
        let mut xs: Vec<f32> = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            0.49999997,
            -0.49999997,
            1.5,
            2.5,
            -2.5,
            126.5,
            127.49,
            200.0,
            -200.0,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
        ];
        // Fill past several 8-lane blocks with a dense sweep around the
        // rounding boundaries.
        for i in 0..64 {
            xs.push((i as f32) * 0.25 - 8.0);
            xs.push((i as f32) * 0.499999 - 16.0);
        }
        for scale in [1.0f32, 0.0078125, 3.7e-3, 1.0e20, f32::MIN_POSITIVE] {
            let mut oracle = vec![0i8; xs.len()];
            scalar_quantize_i8(&xs, scale, &mut oracle);
            for d in tiers() {
                let mut got = vec![0i8; xs.len()];
                d.quantize_i8(&xs, scale, &mut got);
                assert_eq!(got, oracle, "{} scale {scale}", d.name());
            }
        }
    }

    #[test]
    fn kernels_global_honors_force_scalar() {
        // The global tier is cached once; in-process we can only check
        // consistency with the environment actually seen at first use.
        let k = kernels();
        if scalar_forced() {
            assert_eq!(k, KernelDispatch::Scalar);
        } else {
            assert_eq!(k, KernelDispatch::detect());
        }
    }
}
