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
//! - `abs_max` computes a maximum, which is order-independent, and the
//!   `maxps` operand order is chosen so NaN inputs are skipped exactly
//!   like the scalar fold.
//! - INT8 quantization divides by the scale with `divps` (IEEE-exact,
//!   identical to the scalar `/`), then reproduces `f32::round`'s
//!   ties-away-from-zero rule with an exact truncate-and-adjust
//!   construction instead of the (different) nearest-even `roundps` mode.
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
use crate::kernels::{self, pair_decode_lut, PairLut};

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

    /// [`crate::kernels::dot_packed_x4`] through this tier: the
    /// activation codes are widened to vector operands once per iteration
    /// and swept across all four weight rows.
    ///
    /// # Panics
    ///
    /// Debug-asserts the same contract as the scalar kernel.
    pub fn dot_packed_x4(self, xcodes: &[i8], w: [&[u8]; 4], luts: [&KernelLut; 4]) -> [i64; 4] {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::dot_packed_x4_avx2(xcodes, w, luts) }
            }
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Ssse3 if std::arch::is_x86_feature_detected!("ssse3") => {
                // SAFETY: the match guard just confirmed SSSE3 on this CPU.
                unsafe { x86::dot_packed_x4_ssse3(xcodes, w, luts) }
            }
            _ => kernels::dot_packed_x4(xcodes, w, luts.map(|l| &l.pair)),
        }
    }

    /// A whole row-tile's group dots in one call: group `g` of the result
    /// equals `dot_packed_x4` over the `g`-th `group_size`-code slice of
    /// `xcodes` and the `g`-th packed group of each row, through each
    /// row's `g`-th decode table. One call per 4-row tile amortizes the
    /// per-call setup (dispatch, masks, reduction plumbing) that
    /// dominates `dot_packed_x4` at serving group sizes — the per-group
    /// arithmetic and accumulation order are unchanged, so the results
    /// are bit-identical to the per-group calls.
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

    /// Grouped four-row sweep of [`crate::kernels::dot_i8_i16`]: group
    /// `g` of `out` holds the dots of the `g`-th `group_size`-code slice
    /// of `xcodes` against each row's `g`-th decoded-operand slice. The
    /// per-member inner loop of the decode-once GEMM — with the weight
    /// tile already decoded ([`KernelDispatch::decode_packed_i16`]), each
    /// batch member pays only sign-extended loads and `pmaddwd`
    /// multiply-accumulates, no per-member nibble decode. Bit-identical
    /// to the scalar kernel on every input: the products are exact i32s
    /// under the [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP) bound,
    /// so any lane arrangement sums to the same total.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slice lengths agree and `group_size` respects
    /// [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP).
    pub fn dot_i16_x4_groups(
        self,
        xcodes: &[i8],
        w16: [&[i16]; 4],
        group_size: usize,
        out: &mut [[i64; 4]],
    ) {
        let groups = out.len();
        debug_assert_eq!(xcodes.len(), groups * group_size);
        debug_assert!(w16.iter().all(|r| r.len() == groups * group_size));
        debug_assert!(group_size <= kernels::MAX_I32_GROUP, "i32 group bound");
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::dot_i16_x4_groups_avx2(xcodes, w16, group_size, out) }
            }
            _ => {
                for (g, o) in out.iter_mut().enumerate() {
                    let xg = &xcodes[g * group_size..(g + 1) * group_size];
                    for lane in 0..4 {
                        o[lane] = kernels::dot_i8_i16(
                            xg,
                            &w16[lane][g * group_size..(g + 1) * group_size],
                        );
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

    /// Every member of a batch through
    /// [`KernelDispatch::dot_i16_x4_groups`] against one decoded 4-row
    /// tile, in one dispatch: member `m`'s group dots land in
    /// `out[m · groups..(m + 1) · groups]`, where `groups = out.len() /
    /// members.len()`. The AVX2 tier takes the members two at a time: each
    /// 32-operand row block is loaded **once** and multiply-accumulated
    /// against both members' sign-extended activations. The sweep is
    /// load-bound, and weight loads dominate (eight per block against two
    /// activation loads), so pairing nearly halves the traffic that gates
    /// GEMM throughput. Each member's accumulation chain is
    /// instruction-for-instruction the chain of the single-member sweep,
    /// so every result stays bit-identical to the scalar kernel.
    ///
    /// The tile is whatever [`KernelDispatch::decode_packed_i16`] decoded
    /// — four weight rows for the decode-once GEMM, four cached K rows or
    /// four channels of a committed V window for run-batched attention —
    /// and a tile of a few dozen operands per row is why the dispatch is
    /// per tile, not per pair.
    ///
    /// # Panics
    ///
    /// Debug-asserts `out` divides evenly among the members, and the
    /// per-member contract of [`KernelDispatch::dot_i16_x4_groups`].
    pub fn dot_i16_x4_groups_batch(
        self,
        members: &[&[i8]],
        w16: [&[i16]; 4],
        group_size: usize,
        out: &mut [[i64; 4]],
    ) {
        if members.is_empty() || out.is_empty() {
            return;
        }
        let groups = out.len() / members.len();
        debug_assert_eq!(out.len(), groups * members.len());
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::dot_i16_x4_groups_batch_avx2(members, w16, group_size, groups, out) }
            }
            _ => {
                for (x, o) in members.iter().zip(out.chunks_exact_mut(groups)) {
                    self.dot_i16_x4_groups(x, w16, group_size, o);
                }
            }
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

    use super::{scalar_abs_max, KernelLut};
    use crate::kernels::{self, MAX_I32_GROUP};

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

    /// AVX2 [`kernels::dot_packed_x4`]: the activation vector is widened
    /// to even/odd i16 lanes once per iteration and swept across all four
    /// weight rows' decode tables — the same amortization the scalar tile
    /// does, at 32 codes per step.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_packed_x4_avx2(
        xcodes: &[i8],
        w: [&[u8]; 4],
        luts: [&KernelLut; 4],
    ) -> [i64; 4] {
        debug_assert!(w.iter().all(|r| r.len() == xcodes.len().div_ceil(2)));
        debug_assert!(xcodes.len() <= MAX_I32_GROUP, "i32 group bound exceeded");
        let blocks = xcodes.len() / 32;
        let tabs = luts.map(|l| {
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
        let m0f = _mm256_set1_epi16(0x0f);
        let m00ff = _mm256_set1_epi16(0x00ff);
        let mut acc = [_mm256_setzero_si256(); 4];
        for i in 0..blocks {
            // SAFETY: `i < blocks = xcodes.len() / 32`: the 32-byte load
            // is within `xcodes`.
            let x = unsafe { _mm256_loadu_si256(xcodes.as_ptr().add(i * 32).cast()) };
            let xe = _mm256_srai_epi16::<8>(_mm256_slli_epi16::<8>(x));
            let xo = _mm256_srai_epi16::<8>(x);
            for lane in 0..4 {
                // SAFETY: every row holds `ceil(len/2) >= blocks*16`
                // bytes, so the 16-byte load at `i*16` is in bounds.
                let wb = unsafe { _mm_loadu_si128(w[lane].as_ptr().add(i * 16).cast()) };
                let w16 = _mm256_cvtepu8_epi16(wb);
                let (tlo, thi) = tabs[lane];
                let we = decode16_avx2(_mm256_and_si256(w16, m0f), tlo, thi, m00ff);
                let wo = decode16_avx2(_mm256_srli_epi16::<4>(w16), tlo, thi, m00ff);
                acc[lane] = _mm256_add_epi32(acc[lane], _mm256_madd_epi16(xe, we));
                acc[lane] = _mm256_add_epi32(acc[lane], _mm256_madd_epi16(xo, wo));
            }
        }
        let tail = if xcodes.len() == blocks * 32 {
            [0i64; 4]
        } else {
            kernels::dot_packed_x4(
                &xcodes[blocks * 32..],
                w.map(|r| &r[blocks * 16..]),
                luts.map(|l| &l.pair),
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
        // SAFETY: `sums` is a writable 16-byte buffer; unaligned store.
        unsafe { _mm_storeu_si128(sums.as_mut_ptr().cast(), quad) };
        let mut out = [0i64; 4];
        for lane in 0..4 {
            out[lane] = i64::from(sums[lane]) + tail[lane];
        }
        out
    }

    /// AVX2 grouped row-tile sweep (see
    /// [`super::KernelDispatch::dot_packed_x4_groups`]): the per-group
    /// body of [`dot_packed_x4_avx2`] run back to back over consecutive
    /// groups with the masks, bounds plumbing, and dispatch paid once per
    /// tile instead of once per group.
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
            // Same hadd tree as [`dot_packed_x4_avx2`]; exact under the
            // group bound.
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

    /// AVX2 grouped four-row sweep over **pre-decoded** i16 weight
    /// operands (see [`super::KernelDispatch::dot_i16_x4_groups`]): per
    /// 32 codes, the activation is sign-extended once and swept across
    /// all four rows with plain loads and `pmaddwd` — the nibble decode
    /// the fused kernels pay per call was already hoisted into
    /// [`decode_packed_i16_avx2`]. Exactness: every `pmaddwd` lane sum
    /// is a subset of one group's products, bounded by
    /// [`MAX_I32_GROUP`], so i32 addition is associative and the hadd
    /// reduction matches the scalar kernel bit for bit.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_i16_x4_groups_avx2(
        xcodes: &[i8],
        w16: [&[i16]; 4],
        group_size: usize,
        out: &mut [[i64; 4]],
    ) {
        let blocks = group_size / 32;
        for (g, o) in out.iter_mut().enumerate() {
            let xg = &xcodes[g * group_size..(g + 1) * group_size];
            let mut acc = [_mm256_setzero_si256(); 4];
            for i in 0..blocks {
                // SAFETY: `i < blocks = group_size / 32`: the 32-byte load
                // stays inside this group's slice of `xcodes`.
                let x = unsafe { _mm256_loadu_si256(xg.as_ptr().add(i * 32).cast()) };
                let xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(x));
                let xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(x));
                for lane in 0..4 {
                    // SAFETY: every row holds `groups * group_size`
                    // operands, so the two 16-operand loads at
                    // `g*group_size + i*32` are in bounds.
                    let (wlo, whi) = unsafe {
                        let base = w16[lane].as_ptr().add(g * group_size + i * 32);
                        (
                            _mm256_loadu_si256(base.cast()),
                            _mm256_loadu_si256(base.add(16).cast()),
                        )
                    };
                    acc[lane] = _mm256_add_epi32(acc[lane], _mm256_madd_epi16(xlo, wlo));
                    acc[lane] = _mm256_add_epi32(acc[lane], _mm256_madd_epi16(xhi, whi));
                }
            }
            let mut tail = [0i64; 4];
            if blocks * 32 < group_size {
                for (lane, t) in tail.iter_mut().enumerate() {
                    *t = kernels::dot_i8_i16(
                        &xg[blocks * 32..],
                        &w16[lane][g * group_size + blocks * 32..(g + 1) * group_size],
                    );
                }
            }
            // Same hadd tree as [`dot_packed_x4_groups_avx2`]; exact under
            // the group bound.
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

    /// AVX2 paired sweep, the inner step of
    /// [`dot_i16_x4_groups_batch_avx2`]: per 32-code
    /// block each row's two operand vectors are loaded once and fed to
    /// `pmaddwd` against both members. Eight accumulators (four rows ×
    /// two members), four extended activations and two weight temporaries
    /// stay within the sixteen ymm registers. Per member the accumulator
    /// updates are exactly those of [`dot_i16_x4_groups_avx2`], so the
    /// reduction is bit-identical to running the single-member sweep
    /// twice.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::similar_names)]
    fn dot_i16_x4_groups_x2_avx2(
        xa: &[i8],
        xb: &[i8],
        w16: [&[i16]; 4],
        group_size: usize,
        out_a: &mut [[i64; 4]],
        out_b: &mut [[i64; 4]],
    ) {
        let blocks = group_size / 32;
        for (g, (oa, ob)) in out_a.iter_mut().zip(out_b.iter_mut()).enumerate() {
            let xga = &xa[g * group_size..(g + 1) * group_size];
            let xgb = &xb[g * group_size..(g + 1) * group_size];
            let mut acc_a = [_mm256_setzero_si256(); 4];
            let mut acc_b = [_mm256_setzero_si256(); 4];
            for i in 0..blocks {
                // SAFETY: `i < blocks = group_size / 32`: both 32-byte
                // loads stay inside this group's activation slices.
                let (va, vb) = unsafe {
                    (
                        _mm256_loadu_si256(xga.as_ptr().add(i * 32).cast()),
                        _mm256_loadu_si256(xgb.as_ptr().add(i * 32).cast()),
                    )
                };
                let alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
                let ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(va));
                let blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
                let bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(vb));
                for lane in 0..4 {
                    // SAFETY: every row holds `groups * group_size`
                    // operands, so the two 16-operand loads at
                    // `g*group_size + i*32` are in bounds.
                    let (wlo, whi) = unsafe {
                        let base = w16[lane].as_ptr().add(g * group_size + i * 32);
                        (
                            _mm256_loadu_si256(base.cast()),
                            _mm256_loadu_si256(base.add(16).cast()),
                        )
                    };
                    acc_a[lane] = _mm256_add_epi32(acc_a[lane], _mm256_madd_epi16(alo, wlo));
                    acc_a[lane] = _mm256_add_epi32(acc_a[lane], _mm256_madd_epi16(ahi, whi));
                    acc_b[lane] = _mm256_add_epi32(acc_b[lane], _mm256_madd_epi16(blo, wlo));
                    acc_b[lane] = _mm256_add_epi32(acc_b[lane], _mm256_madd_epi16(bhi, whi));
                }
            }
            for (acc, xg, o) in [(acc_a, xga, oa), (acc_b, xgb, ob)] {
                let mut tail = [0i64; 4];
                if blocks * 32 < group_size {
                    for (lane, t) in tail.iter_mut().enumerate() {
                        *t = kernels::dot_i8_i16(
                            &xg[blocks * 32..],
                            &w16[lane][g * group_size + blocks * 32..(g + 1) * group_size],
                        );
                    }
                }
                let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
                let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
                let s = _mm256_hadd_epi32(s01, s23);
                let quad =
                    _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
                let mut sums = [0i32; 4];
                // SAFETY: `sums` is a writable 16-byte buffer.
                unsafe { _mm_storeu_si128(sums.as_mut_ptr().cast(), quad) };
                for lane in 0..4 {
                    o[lane] = i64::from(sums[lane]) + tail[lane];
                }
            }
        }
    }

    /// AVX2 batch sweep (see
    /// [`super::KernelDispatch::dot_i16_x4_groups_batch`]): members in
    /// pairs through [`dot_i16_x4_groups_x2_avx2`], an odd last one
    /// through [`dot_i16_x4_groups_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_i16_x4_groups_batch_avx2(
        members: &[&[i8]],
        w16: [&[i16]; 4],
        group_size: usize,
        groups: usize,
        out: &mut [[i64; 4]],
    ) {
        let mut outs = out.chunks_exact_mut(groups);
        let mut next = || outs.next().expect("one output chunk per member");
        let mut pairs = members.chunks_exact(2);
        for pair in pairs.by_ref() {
            let (oa, ob) = (next(), next());
            dot_i16_x4_groups_x2_avx2(pair[0], pair[1], w16, group_size, oa, ob);
        }
        if let [last] = pairs.remainder() {
            dot_i16_x4_groups_avx2(last, w16, group_size, next());
        }
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

    /// AVX2 symmetric INT8 quantization, bit-identical to
    /// `quantize_symmetric_int(x / scale, 127)` per element:
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
    ///   scalar NaN → 0 rule.
    #[target_feature(enable = "avx2")]
    pub(super) fn quantize_i8_avx2(xs: &[f32], scale: f32, out: &mut [i8]) {
        debug_assert_eq!(xs.len(), out.len());
        let blocks = xs.len() / 8;
        let vs = _mm256_set1_ps(scale);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let sign = _mm256_set1_ps(-0.0);
        let hi = _mm256_set1_ps(127.0);
        let lo = _mm256_set1_ps(-127.0);
        for i in 0..blocks {
            // SAFETY: `i < blocks = xs.len() / 8`: the 8-float load is
            // within `xs`.
            let v = unsafe { _mm256_loadu_ps(xs.as_ptr().add(i * 8)) };
            let q = _mm256_div_ps(v, vs);
            let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
            let d = _mm256_sub_ps(q, t);
            let away = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_andnot_ps(sign, d), half);
            let sign1 = _mm256_or_ps(_mm256_and_ps(q, sign), one);
            let r = _mm256_add_ps(t, _mm256_and_ps(away, sign1));
            let r = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
            let r = _mm256_and_ps(r, _mm256_cmp_ps::<_CMP_ORD_Q>(q, q));
            let iv = _mm256_cvttps_epi32(r);
            let mut tmp = [0i32; 8];
            // SAFETY: `tmp` is a writable 32-byte buffer; unaligned store.
            unsafe { _mm256_storeu_si256(tmp.as_mut_ptr().cast(), iv) };
            for (o, &c) in out[i * 8..i * 8 + 8].iter_mut().zip(tmp.iter()) {
                *o = c as i8;
            }
        }
        super::scalar_quantize_i8(&xs[blocks * 8..], scale, &mut out[blocks * 8..]);
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
        for len in [3usize, 16, 33, 64, 65, 129] {
            let xcodes: Vec<i8> = (0..len).map(|i| ((i * 91 + 5) % 255) as u8 as i8).collect();
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|r| {
                    pack_nibbles(
                        &(0..len)
                            .map(|i| ((i * 3 + r * 5) % 16) as u8)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let luts: Vec<KernelLut> = [0u32, 17, 60, 127]
                .iter()
                .map(|&a| kernel_lut(&mant_decode_lut(Mant::new(a).unwrap())))
                .collect();
            let w = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let lr = [&luts[0], &luts[1], &luts[2], &luts[3]];
            let oracle = kernels::dot_packed_x4(&xcodes, w, lr.map(|l| &l.pair));
            for d in tiers() {
                assert_eq!(
                    d.dot_packed_x4(&xcodes, w, lr),
                    oracle,
                    "{} len {len}",
                    d.name()
                );
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
    fn dot_i16_x4_groups_matches_scalar_and_packed_all_tiers() {
        // Cross-check the whole decode-once pair against the fused packed
        // grouped kernel on every tier: decode each row, sweep the decoded
        // operands, and require bit-identity with dot_packed_x4_groups.
        for (groups, gs) in [(1usize, 16usize), (2, 32), (3, 64), (2, 33)] {
            let len = groups * gs;
            let xcodes: Vec<i8> = (0..len).map(|i| ((i * 73 + 9) % 255) as u8 as i8).collect();
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|r| (0..len).map(|i| ((i * 5 + r * 3) % 16) as u8).collect())
                .collect();
            let luts: Vec<KernelLut> = [0u32, 17, 60, 127]
                .iter()
                .map(|&a| kernel_lut(&mant_decode_lut(Mant::new(a).unwrap())))
                .collect();
            // Per-row packed codes (groups packed independently, as the
            // quantized matrix stores them) and per-group LUT slices.
            let gb = gs.div_ceil(2);
            let packed: Vec<Vec<u8>> = rows
                .iter()
                .map(|r| {
                    let mut p = Vec::with_capacity(groups * gb);
                    for g in 0..groups {
                        p.extend(pack_nibbles(&r[g * gs..(g + 1) * gs]));
                    }
                    p
                })
                .collect();
            let lut_rows: Vec<Vec<&KernelLut>> =
                (0..4).map(|lane| vec![&luts[lane]; groups]).collect();
            let mut expect = vec![[0i64; 4]; groups];
            KernelDispatch::Scalar.dot_packed_x4_groups(
                &xcodes,
                [&packed[0], &packed[1], &packed[2], &packed[3]],
                gs,
                [&lut_rows[0], &lut_rows[1], &lut_rows[2], &lut_rows[3]],
                &mut expect,
            );
            for d in tiers() {
                let mut dec: Vec<Vec<i16>> = vec![vec![0i16; len]; 4];
                for lane in 0..4 {
                    for g in 0..groups {
                        d.decode_packed_i16(
                            &packed[lane][g * gb..(g + 1) * gb],
                            gs,
                            &luts[lane],
                            &mut dec[lane][g * gs..(g + 1) * gs],
                        );
                    }
                }
                let mut got = vec![[0i64; 4]; groups];
                d.dot_i16_x4_groups(&xcodes, [&dec[0], &dec[1], &dec[2], &dec[3]], gs, &mut got);
                assert_eq!(got, expect, "tier {} groups {groups} gs {gs}", d.name());
            }
        }
    }

    #[test]
    fn dot_i16_x4_groups_batch_matches_single_member_all_tiers() {
        // The batch sweep must equal single-member sweeps bit for bit on
        // every tier: even and odd member counts (pairs plus a lone last
        // member), an empty batch, and an odd group size that forces the
        // scalar tail.
        for (groups, gs) in [(1usize, 16usize), (2, 32), (3, 64), (2, 33)] {
            let len = groups * gs;
            let dec: Vec<Vec<i16>> = (0..4)
                .map(|r| {
                    (0..len)
                        .map(|i| ((i * 29 + r * 13) % 2035) as i16 - 1017)
                        .collect()
                })
                .collect();
            let w16 = [&dec[0][..], &dec[1][..], &dec[2][..], &dec[3][..]];
            for count in [0usize, 1, 2, 5] {
                let xs: Vec<Vec<i8>> = (0..count)
                    .map(|m| {
                        (0..len)
                            .map(|i| ((i * 73 + m * 31 + 9) % 255) as u8 as i8)
                            .collect()
                    })
                    .collect();
                let members: Vec<&[i8]> = xs.iter().map(Vec::as_slice).collect();
                let mut expect = vec![[0i64; 4]; count * groups];
                for (x, o) in members.iter().zip(expect.chunks_exact_mut(groups)) {
                    KernelDispatch::Scalar.dot_i16_x4_groups(x, w16, gs, o);
                }
                for d in tiers() {
                    let mut got = vec![[0i64; 4]; count * groups];
                    d.dot_i16_x4_groups_batch(&members, w16, gs, &mut got);
                    assert_eq!(got, expect, "tier {} gs {gs} members {count}", d.name());
                }
            }
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
