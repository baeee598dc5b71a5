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
//! - The packed row sweep ([`KernelDispatch::dot_packed_rows_scaled`])
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
//! - The f32 row tile ([`KernelDispatch::matvec_tiled_f32`], the LM head)
//!   reorders nothing either: a lane is one output's chain, fed column by
//!   column with `mulps` then `addps` in ascending order from the scalar
//!   chain's starting value.
//!
//! Dispatch is a [`KernelDispatch`] tier selected **once per process** by
//! [`kernels()`] via `is_x86_feature_detected!`: AVX2 (32 codes per
//! iteration) or the scalar oracle. Every entry is one AVX2 arm beside
//! its scalar arm. Setting `MANT_FORCE_SCALAR=1` pins the scalar tier for
//! differential testing.
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

/// Rows of the packed row sweep's block
/// ([`KernelDispatch::dot_packed_rows_scaled`]): eight, one per 32-bit lane
/// of a 256-bit vector, so a group's eight dots fill one register.
pub const TILE_ROWS: usize = 8;

/// Codes of the longest group the scalar row sweep decodes once for all
/// its members; it walks the pair table per member past that.
const SWEEP_DECODE_STACK: usize = 512;

/// Appends the weight scales of `n` rows of `groups` groups to `out` in
/// the order [`KernelDispatch::dot_packed_rows_scaled`] reads them:
/// `[block][group][lane]`, a block being [`TILE_ROWS`] rows, so one
/// (block, group)'s eight scales are adjacent. A short last block repeats
/// its last row's scales in the spare lanes (the kernel reads those lanes
/// but never stores them, so a caller may leave any value there).
/// `scale(r, g)` is row `r`'s group `g`.
pub fn block_order_scales(
    n: usize,
    groups: usize,
    scale: impl Fn(usize, usize) -> f32,
    out: &mut Vec<f32>,
) {
    out.reserve(n.div_ceil(TILE_ROWS) * groups * TILE_ROWS);
    for r0 in (0..n).step_by(TILE_ROWS) {
        for g in 0..groups {
            out.extend((r0..r0 + TILE_ROWS).map(|r| scale(r.min(n - 1), g)));
        }
    }
}

/// An f32 matrix copied into [`TILE_ROWS`]-row tiles for
/// [`KernelDispatch::matvec_tiled_f32`]: tile `t` holds rows `8t..8t + 8`
/// column by column — entry `(t · cols + k) · 8 + r` is row `8t + r`,
/// column `k` — so one 256-bit vector is column `k` of eight rows. A short
/// last tile is zero-padded. Built once per weight matrix (the serving
/// runner's LM head), never per call.
#[derive(Clone, Debug)]
pub struct TiledF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl TiledF32 {
    /// Tiles a row-major `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows · cols`.
    pub fn from_row_major(data: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major matrix of rows × cols");
        let mut tiled = vec![0.0f32; rows.div_ceil(TILE_ROWS) * TILE_ROWS * cols];
        for (n, row) in data.chunks_exact(cols.max(1)).take(rows).enumerate() {
            let (t, r) = (n / TILE_ROWS, n % TILE_ROWS);
            for (k, &v) in row.iter().enumerate() {
                tiled[(t * cols + k) * TILE_ROWS + r] = v;
            }
        }
        TiledF32 {
            rows,
            cols,
            data: tiled,
        }
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Accumulation-dimension length.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile `t`: `cols` columns of [`TILE_ROWS`] entries.
    fn tile(&self, t: usize) -> &[f32] {
        let len = self.cols * TILE_ROWS;
        &self.data[t * len..(t + 1) * len]
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
    /// A former SSSE3 tier, kept only because the standalone `benchmark/`
    /// package names it. [`KernelDispatch::detect`] never returns it, and
    /// every entry runs its scalar arm under it. It goes when the
    /// benchmark contract is next revised.
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
    /// Probes the CPU for the best available tier: AVX2, else scalar.
    /// Ignores `MANT_FORCE_SCALAR`; use [`kernels()`] for the process-wide
    /// choice.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelDispatch::Avx2;
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
            _ => kernels::dot_packed(xcodes, wpacked, &lut.pair),
        }
    }

    /// The packed row sweep behind decode attention and every weight GEMM
    /// (`mant_quant`'s `mant_gemv`, `mant_gemv_batch` and `mant_gemm`): `n`
    /// rows of packed groups at a fixed byte stride against one or more
    /// INT8 vectors, group dots **and** the f64 scale epilogue. Row `r`'s
    /// `groups` packed groups start at `rows[r · stride]`, back to back
    /// (`⌈group_size/2⌉` bytes each); its decode tables are
    /// `luts[r · groups + g]`, and its scales `ws(r, g)` sit in `wscales`
    /// in the kernel's own order, eight rows a block
    /// ([`block_order_scales`]) — both laid out by the caller once, where
    /// the rows are written (a weight matrix at quantization, the KV pool
    /// as a K row is pushed or a V window commits). Member `j` is
    /// `xcodes[j]` (`groups · group_size` INT8 codes, read where they lie)
    /// with scales `xscales[j · groups..]`.
    /// For member `j`, row `r` and every group `g` in ascending order,
    ///
    /// ```text
    /// accs[j·n + r] += (xscales[j·groups + g] · f64(ws(r, g))) · Σ_i x_j[i] · w_r[i]   (i in group g)
    /// ```
    ///
    /// — one `fused_dot`-style chain per (member, row), so a caller that
    /// starts `accs` at `+0.0` gets a cached K row's score or a weight
    /// row's GEMV output, and one that starts it at `-0.0` with a single
    /// group gets a V channel's term exactly (`-0.0 + t` is `t` for every
    /// `t`). The weight scales are f32 (every caller's scales are: FP16
    /// group scales held as f32), so widening them to f64 is exact.
    ///
    /// Lanes are rows: on the AVX2 arm eight rows form a block, each row's
    /// 32-code runs are `pshufb`-decoded **once** in registers and
    /// `pmaddwd`-ed against every member of a register block of up to four
    /// (the other query heads of a GQA group, the other activation vectors
    /// of a step), one `phaddd` tree turns the eight rows'
    /// accumulators into one `i32x8` whose lane `r` is row `r`'s group
    /// dot, and the epilogue runs on it in place (`cvtdq2pd`, two
    /// `cvtps2pd` for the block's scales, `mulpd`, `mulpd`, `addpd`) into
    /// f64 accumulators that stay in registers across the block's groups.
    /// A short last block repeats its last row in the spare lanes, which
    /// are never stored. Group tails past the last whole 32-code run go
    /// through the scalar pair-table walk.
    /// Exactness: every `phaddd`
    /// intermediate is a subset sum of one (row, group) dot, exact under
    /// [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP); `i32 → f64` and
    /// `f32 → f64` are exact; the vector operators round per lane like the
    /// scalar ones, in the scalar association and group order, and no FMA
    /// is formed. Odd group sizes and every tier but AVX2 run the scalar
    /// arm and the same expression. With two or more members it decodes
    /// each (row, group) once to i16 into a stack buffer
    /// ([`crate::kernels::decode_packed_i16`]) and runs
    /// [`crate::kernels::dot_i8_i16`] for each member — the same integers.
    /// With one member, or a group longer than that buffer's 512 codes
    /// (none of the paper's sizes), it walks the pair table fused per
    /// member ([`crate::kernels::dot_packed`]).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or does not divide the table count, if
    /// `wscales`, `xcodes`, `xscales` or `accs` disagree with the row and
    /// member counts, or if `rows` is too short for `n` rows at `stride`;
    /// debug-asserts the [`MAX_I32_GROUP`](crate::kernels::MAX_I32_GROUP)
    /// bound.
    #[allow(clippy::too_many_arguments)] // one sweep's operands, each a distinct role
    pub fn dot_packed_rows_scaled<X: AsRef<[i8]>>(
        self,
        rows: &[u8],
        stride: usize,
        group_size: usize,
        groups: usize,
        luts: &[&KernelLut],
        wscales: &[f32],
        xcodes: &[X],
        xscales: &[f64],
        accs: &mut [f64],
    ) {
        assert!(groups > 0, "a row holds at least one group");
        assert!(
            luts.len().is_multiple_of(groups),
            "tables come in whole rows"
        );
        let (n, m) = (luts.len() / groups, xcodes.len());
        let (k, gb) = (groups * group_size, group_size.div_ceil(2));
        assert_eq!(
            wscales.len(),
            n.div_ceil(TILE_ROWS) * groups * TILE_ROWS,
            "one scale per lane of every block and group"
        );
        assert!(xcodes.iter().all(|x| x.as_ref().len() == k), "member codes");
        assert_eq!(xscales.len(), m * groups, "member scales");
        assert_eq!(accs.len(), m * n, "one accumulator per member and row");
        assert!(
            n == 0 || (n - 1) * stride + groups * gb <= rows.len(),
            "rows hold fewer than n strided rows"
        );
        debug_assert!(group_size <= kernels::MAX_I32_GROUP, "i32 group bound");
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2
                if group_size.is_multiple_of(2) && std::arch::is_x86_feature_detected!("avx2") =>
            {
                // SAFETY: the match guard just confirmed AVX2 on this CPU
                // and an even group size; the lengths were asserted above.
                unsafe {
                    x86::dot_packed_rows_scaled_avx2(
                        rows, stride, group_size, groups, luts, wscales, xcodes, xscales, accs,
                    );
                }
            }
            _ => {
                let mut dec = [0i16; SWEEP_DECODE_STACK];
                let dec = &mut dec[..group_size.min(SWEEP_DECODE_STACK)];
                let decode_once = m > 1 && group_size <= SWEEP_DECODE_STACK;
                for r in 0..n {
                    let row = &rows[r * stride..];
                    let block = r / TILE_ROWS * groups;
                    for g in 0..groups {
                        let w = &row[g * gb..(g + 1) * gb];
                        let ws = f64::from(wscales[(block + g) * TILE_ROWS + r % TILE_ROWS]);
                        let lut = &luts[r * groups + g].pair;
                        if decode_once {
                            kernels::decode_packed_i16(w, group_size, lut, dec);
                        }
                        for (j, x) in xcodes.iter().enumerate() {
                            let x = &x.as_ref()[g * group_size..][..group_size];
                            let int = if decode_once {
                                kernels::dot_i8_i16(x, dec)
                            } else {
                                kernels::dot_packed(x, w, lut)
                            };
                            accs[j * n + r] += xscales[j * groups + g] * ws * int as f64;
                        }
                    }
                }
            }
        }
    }

    /// `y_j = W · x_j` in f32 over a [`TiledF32`] copy of `W`, for every
    /// member `x_j` — the serving runner's LM head. Output `[j][n]` carries
    /// exactly the bits of `mant_tensor::matvec_batch`: one chain per
    /// output, started from the empty iterator sum's value (whose sign is
    /// observable) and fed `acc += w[n][k] · x_j[k]` in ascending `k`,
    /// IEEE `*` then `+`, never an FMA and never reassociated.
    ///
    /// A lane is an output row: on the AVX2 arm one `mulps` / `addps` pair
    /// per column advances eight rows' chains at once, four tiles abreast
    /// so the independent chains hide the add latency, each tile block
    /// swept by every member while it is hot. The scalar arm runs the same
    /// eight-lane loop without intrinsics.
    ///
    /// # Panics
    ///
    /// Panics if any `x` differs in length from `w.cols()`.
    pub fn matvec_tiled_f32(self, w: &TiledF32, xs: &[&[f32]]) -> Vec<Vec<f32>> {
        for x in xs {
            assert_eq!(x.len(), w.cols, "matvec inner dimension mismatch");
        }
        let mut out: Vec<Vec<f32>> = xs.iter().map(|_| vec![0.0f32; w.rows]).collect();
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU;
                // the member lengths were asserted above.
                unsafe { x86::matvec_tiled_f32_avx2(w, xs, &mut out) }
            }
            _ => {
                for t in 0..w.rows.div_ceil(TILE_ROWS) {
                    let (tile, lo) = (w.tile(t), t * TILE_ROWS);
                    let live = (w.rows - lo).min(TILE_ROWS);
                    for (y, x) in out.iter_mut().zip(xs) {
                        let acc = scalar_tile8_f32(tile, x);
                        y[lo..lo + live].copy_from_slice(&acc[..live]);
                    }
                }
            }
        }
        out
    }

    /// Peak-rate probe for the kernel bench's roofline row: `iters` rounds
    /// of six independent register-resident `pmaddwd` + `paddd` chains on
    /// this tier — the multiply-accumulate of
    /// [`KernelDispatch::dot_packed_rows_scaled`] with no loads, stores,
    /// decode or epilogue. Returns the multiply-accumulates issued (16 per
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
    /// NaN, exactly like `f32::max`). The AVX2 arm takes eight lanes at
    /// a time.
    pub fn abs_max(self, xs: &[f32]) -> f32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelDispatch::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
                // SAFETY: the match guard just confirmed AVX2 on this CPU.
                unsafe { x86::abs_max_avx2(xs) }
            }
            _ => scalar_abs_max(xs),
        }
    }

    /// Symmetric INT8 quantization of a slice against one scale:
    /// `out[i] = clamp(round(xs[i] / scale), ±127)` with NaN → 0 —
    /// bit-identical to [`quantize_symmetric_int`] per element. The AVX2
    /// tier reproduces `f32::round`'s ties-away rule exactly (truncate,
    /// then add ±1 where the exact fractional remainder reaches 0.5),
    /// never `roundps`, whose nearest-even ties would differ.
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
    /// arm's bits.
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

/// The value a chain of [`KernelDispatch::matvec_tiled_f32`] starts from:
/// the empty iterator sum's, whatever this toolchain uses for it (the
/// sign of zero is observable).
fn empty_f32_sum() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// The scalar arm of [`KernelDispatch::matvec_tiled_f32`] for one tile and
/// one member: eight chains, column `k` of every row added in ascending
/// `k`.
fn scalar_tile8_f32(tile: &[f32], x: &[f32]) -> [f32; TILE_ROWS] {
    let mut acc = [empty_f32_sum(); TILE_ROWS];
    for (column, &xv) in tile.chunks_exact(TILE_ROWS).zip(x) {
        for (a, &wv) in acc.iter_mut().zip(column) {
            *a += wv * xv;
        }
    }
    acc
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
    use std::mem::MaybeUninit;

    use super::{KernelLut, TiledF32, TILE_ROWS};
    use crate::kernels::{self, EncodeTable, ENCODE_LANES, MAX_I32_GROUP, STAGED_LANES};

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
        let v = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(v, _mm_unpackhi_epi64(v, v));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32::<0b01>(s2));
        i64::from(_mm_cvtsi128_si32(s1))
    }

    /// Widening horizontal sum: each lane is widened to i64 before
    /// summing, so the cross-lane total cannot overflow. Only the peak
    /// probe's `black_box` sink uses it, once per call.
    #[target_feature(enable = "avx2")]
    fn hsum_i32x8_wide(v: __m256i) -> i64 {
        let mut tmp = [0i32; 8];
        // SAFETY: `tmp` is a writable 32-byte buffer; unaligned store.
        unsafe { _mm256_storeu_si256(tmp.as_mut_ptr().cast(), v) };
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

    /// AVX2 body of [`super::KernelDispatch::dot_packed_rows_scaled`]:
    /// sweeps the rows for members in register blocks of four (the rows are
    /// decoded once per block), the remainder through the block of its
    /// size. Each member block's codes are first dealt into the decode's
    /// operand order, on the stack when they fit. Only this loop sees the
    /// callers' member type; the blocks take plain slices.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)] // the dispatcher's operands
    pub(super) fn dot_packed_rows_scaled_avx2<X: AsRef<[i8]>>(
        rows: &[u8],
        stride: usize,
        group_size: usize,
        groups: usize,
        luts: &[&KernelLut],
        wscales: &[f32],
        xcodes: &[X],
        xscales: &[f64],
        accs: &mut [f64],
    ) {
        let n = luts.len() / groups;
        let (whole64, half) = (group_size / 64, group_size % 64 >= 32);
        let per_group = (whole64 + usize::from(half)) * 64;
        let sweep = SweptRows {
            rows,
            stride,
            group_size,
            groups,
            whole64,
            half,
            per_group,
            luts,
            wscales,
        };
        // A member block's codes, widened and dealt per run of 64 (see
        // `run64_avx2`): `[member][group][run][slot]`, a short last run
        // zero-padded. Every block writes the same slots, so the pads stay
        // zero from block to block. The stack buffer holds four members of
        // a 512-wide row; only the part in use is zeroed, so a call that
        // sweeps a pool block for one member clears 128 bytes, not 4 KB.
        let per_member = groups * per_group;
        let mut on_stack = [MaybeUninit::<i16>::uninit(); 2048];
        let mut on_heap = Vec::new();
        let dealt = xcodes.len().min(4) * per_member;
        let xq: &mut [i16] = if dealt <= on_stack.len() {
            let xq = &mut on_stack[..dealt];
            xq.fill(MaybeUninit::new(0));
            // SAFETY: every element of `xq` was just initialized, and
            // `MaybeUninit<i16>` has the layout of `i16`.
            unsafe { &mut *(xq as *mut [MaybeUninit<i16>] as *mut [i16]) }
        } else {
            on_heap.resize(dealt, 0);
            &mut on_heap
        };
        for (b, accs) in accs.chunks_mut(4 * n.max(1)).enumerate() {
            let mb = accs.len() / n;
            let mut block: [&[i8]; 4] = [&[]; 4];
            for (m, x) in block.iter_mut().zip(&xcodes[4 * b..][..mb]) {
                *m = x.as_ref();
            }
            let members = &block[..mb];
            deal_run64(members, group_size, per_group, xq);
            let ops = (
                members,
                &xq[..mb * per_member],
                &xscales[4 * b * groups..][..mb * groups],
            );
            match (mb, group_size == 64) {
                (1, true) => packed_rows_block_avx2::<1, true>(&sweep, ops, accs),
                (1, false) => packed_rows_block_avx2::<1, false>(&sweep, ops, accs),
                (2, true) => packed_rows_block_avx2::<2, true>(&sweep, ops, accs),
                (2, false) => packed_rows_block_avx2::<2, false>(&sweep, ops, accs),
                (3, true) => packed_rows_block_avx2::<3, true>(&sweep, ops, accs),
                (3, false) => packed_rows_block_avx2::<3, false>(&sweep, ops, accs),
                (_, true) => packed_rows_block_avx2::<4, true>(&sweep, ops, accs),
                (_, false) => packed_rows_block_avx2::<4, false>(&sweep, ops, accs),
            }
        }
    }

    /// Deals `members`' codes into `xq` in [`run64_avx2`]'s operand order,
    /// `[member][group][run][slot]` at `per_group` slots a group: each
    /// whole 32-code run of a group widened to i16, per 16 codes the even
    /// ones at [`run64_slot`] and the odd ones sixteen further. The slots a
    /// short last run leaves are not written. Per 16 codes: one `pshufb`
    /// gathers the even codes before the odd ones, one `pmovsxbw` widens
    /// them, and two 16-byte stores place the halves.
    #[target_feature(enable = "avx2")]
    fn deal_run64(members: &[&[i8]], group_size: usize, per_group: usize, xq: &mut [i16]) {
        let evens_first = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
        let groups = members.iter().flat_map(|x| x.chunks_exact(group_size));
        for (x, xq) in groups.zip(xq.chunks_exact_mut(per_group.max(1))) {
            for (x, xq) in x[..group_size / 32 * 32]
                .chunks(64)
                .zip(xq.chunks_exact_mut(64))
            {
                // Codes `16h..16h + 16` are packed bytes `8h..8h + 8`.
                for (h, x) in x.chunks_exact(16).enumerate() {
                    let at = run64_slot(h);
                    let (evens, odds) = xq[at..at + 24].split_at_mut(16);
                    // SAFETY: `x` is 16 codes and `evens`, `odds` at least
                    // eight i16s each; unaligned loads and stores.
                    unsafe {
                        let v = _mm_loadu_si128(x.as_ptr().cast());
                        let w = _mm256_cvtepi8_epi16(_mm_shuffle_epi8(v, evens_first));
                        _mm_storeu_si128(evens.as_mut_ptr().cast(), _mm256_castsi256_si128(w));
                        _mm_storeu_si128(
                            odds.as_mut_ptr().cast(),
                            _mm256_extracti128_si256::<1>(w),
                        );
                    }
                }
            }
        }
    }

    /// Where the sixteen codes of packed bytes `8h..8h + 8` of a run of 64
    /// sit among the dealt member codes: the even ones from this slot on,
    /// the odd ones sixteen further — the operand order [`run64_avx2`]'s
    /// byte unpacks produce (`unpacklo` takes packed bytes `0..8` and
    /// `16..24`, `unpackhi` bytes `8..16` and `24..32`).
    fn run64_slot(h: usize) -> usize {
        (h % 2) * 32 + (h / 2) * 8
    }

    /// The row operands of one [`dot_packed_rows_scaled_avx2`] call, with
    /// the group's run structure: `whole64` runs of 64 codes, then a run
    /// of 32 if `half`, then (not here) a scalar tail.
    struct SweptRows<'a> {
        rows: &'a [u8],
        stride: usize,
        group_size: usize,
        groups: usize,
        whole64: usize,
        half: bool,
        /// Dealt codes per member and group.
        per_group: usize,
        luts: &'a [&'a KernelLut],
        /// `[block][group][lane]`, see [`super::block_order_scales`].
        wscales: &'a [f32],
    }

    /// One member block of [`dot_packed_rows_scaled_avx2`]: per block of
    /// eight rows (lane = row), each member's two `f64x4` accumulators are
    /// loaded once, carried in registers across the block's groups and
    /// stored once (a short last block loads and stores a copy of its live
    /// lanes). Per group: the rows' group dots for all `MB` members
    /// ([`rows8_group_dots_avx2`], plus the scalar pair-table walk over a
    /// group's codes past its last whole 32), then the epilogue on the
    /// block's eight scales, widened by two `cvtps2pd`. The operands are
    /// the block's INT8 codes, the same codes dealt for the decode, and the
    /// group scales. `ONE64` is the serving group size, 64: one run per
    /// group, and no run loop in the rows' inner code.
    #[target_feature(enable = "avx2")]
    fn packed_rows_block_avx2<const MB: usize, const ONE64: bool>(
        s: &SweptRows<'_>,
        (xcodes, xq, xscales): (&[&[i8]], &[i16], &[f64]),
        accs: &mut [f64],
    ) {
        let (groups, gs) = (s.groups, s.group_size);
        let n = s.luts.len() / groups;
        let gb = gs.div_ceil(2);
        let whole = gs / 32 * 32;
        assert!(xcodes.len() == MB && xscales.len() == MB * groups && accs.len() == MB * n);
        assert!(xcodes.iter().all(|x| x.len() == groups * gs));
        assert!(xq.len() == MB * groups * s.per_group && s.luts.len() == n * groups);
        assert_eq!(s.wscales.len(), n.div_ceil(TILE_ROWS) * groups * TILE_ROWS);
        assert!(n == 0 || (n - 1) * s.stride + groups * gb <= s.rows.len());
        assert!(!ONE64 || gs == 64);
        for (b, r0) in (0..n).step_by(TILE_ROWS).enumerate() {
            let live = (n - r0).min(TILE_ROWS);
            let mut lanes = [[0.0f64; TILE_ROWS]; MB];
            let mut acc = [[_mm256_setzero_pd(); 2]; MB];
            for (j, (acc, lanes)) in acc.iter_mut().zip(&mut lanes).enumerate() {
                let from = &accs[j * n + r0..][..live];
                let p = match from.first_chunk::<TILE_ROWS>() {
                    Some(full) => full.as_ptr(),
                    None => {
                        lanes[..live].copy_from_slice(from);
                        lanes.as_ptr()
                    }
                };
                // SAFETY: `p` points at eight f64s; unaligned 4-lane loads.
                *acc = unsafe { [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))] };
            }
            for g in 0..groups {
                // SAFETY: rows `r0..r0 + live` are rows of `s` and `g` one
                // of their groups, so the block's first row's group `g` and
                // its table are in bounds, as are the next `live - 1` rows'
                // a row stride on; member `MB - 1`'s dealt runs of group `g`
                // end inside `xq` (all asserted above).
                let mut ints = unsafe {
                    rows8_group_dots_avx2::<MB, ONE64>(
                        s,
                        s.rows.as_ptr().add(r0 * s.stride + g * gb),
                        s.luts.as_ptr().add(r0 * groups + g),
                        live,
                        xq.as_ptr().add(g * s.per_group),
                    )
                };
                if whole < gs {
                    for (x, ints) in xcodes.iter().zip(&mut ints) {
                        let x = &x[g * gs + whole..(g + 1) * gs];
                        let mut tail = [0i32; TILE_ROWS];
                        for (l, t) in tail.iter_mut().enumerate() {
                            let r = r0 + l.min(live - 1);
                            let row = &s.rows[r * s.stride + g * gb..];
                            let lut = &s.luts[r * groups + g].pair;
                            *t = kernels::dot_packed(x, &row[whole / 2..gb], lut) as i32;
                        }
                        // SAFETY: `tail` is eight i32s; unaligned load.
                        let tail = unsafe { _mm256_loadu_si256(tail.as_ptr().cast()) };
                        *ints = _mm256_add_epi32(*ints, tail);
                    }
                }
                // SAFETY: block `b` has `groups` runs of eight scales
                // (asserted above), and `g < groups`.
                let [ws_lo, ws_hi] = unsafe {
                    let ws = s.wscales.as_ptr().add((b * groups + g) * TILE_ROWS);
                    [
                        _mm256_cvtps_pd(_mm_loadu_ps(ws)),
                        _mm256_cvtps_pd(_mm_loadu_ps(ws.add(4))),
                    ]
                };
                for (j, (ints, acc)) in ints.iter().zip(&mut acc).enumerate() {
                    let xs = _mm256_set1_pd(xscales[j * groups + g]);
                    let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(*ints));
                    let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(*ints));
                    // `(xs · ws) · int`, then `+=` — the scalar association.
                    acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(_mm256_mul_pd(xs, ws_lo), lo));
                    acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(_mm256_mul_pd(xs, ws_hi), hi));
                }
            }
            for (j, (acc, lanes)) in acc.iter().zip(&mut lanes).enumerate() {
                let to = &mut accs[j * n + r0..][..live];
                let p = match to.first_chunk_mut::<TILE_ROWS>() {
                    Some(full) => full.as_mut_ptr(),
                    None => lanes.as_mut_ptr(),
                };
                // SAFETY: `p` points at eight writable f64s; unaligned
                // 4-lane stores.
                unsafe {
                    _mm256_storeu_pd(p, acc[0]);
                    _mm256_storeu_pd(p.add(4), acc[1]);
                }
                if live < TILE_ROWS {
                    to.copy_from_slice(&lanes[..live]);
                }
            }
        }
    }

    /// Group `g`'s dots of one block's eight rows against `MB` members,
    /// over the group's whole 32-code runs: lane `l` of member `j`'s result
    /// is row `l`'s sum, and the lanes past `live` repeat the last live
    /// row. `w` is the block's first row's group `g` and `t` its table; the
    /// rows are unrolled, both pointers stepping a row on (`stride` bytes,
    /// `groups` tables) while the next row is live. Rows 0–3 meet in the
    /// first half of the `phaddd` tree before rows 4–7 are decoded, so no
    /// more than two rows' accumulators are ever live beside it.
    ///
    /// This and its two helpers are `#[inline(always)]` functions without
    /// target features of their own (a `#[target_feature]` function cannot
    /// be forced inline): they must melt into
    /// [`packed_rows_block_avx2`], or its f64 accumulators would be spilled
    /// around every call.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2. For every `l < live`, `w + l · stride`
    /// must start group `g`'s packed bytes in a row of `s` and
    /// `t + l · groups` point at its table; `x` must be group `g`'s dealt
    /// codes of member 0, with `MB` members' in bounds at
    /// `s.groups · s.per_group` apart.
    #[inline(always)]
    unsafe fn rows8_group_dots_avx2<const MB: usize, const ONE64: bool>(
        s: &SweptRows<'_>,
        mut w: *const u8,
        mut t: *const &KernelLut,
        live: usize,
        x: *const i16,
    ) -> [__m256i; MB] {
        let mut rest = live;
        // SAFETY: the caller's contract, passed on row by row.
        unsafe {
            let q0 = rows4_dots_avx2::<MB, ONE64>(s, &mut w, &mut t, &mut rest, x);
            let q1 = rows4_dots_avx2::<MB, ONE64>(s, &mut w, &mut t, &mut rest, x);
            // Per 128-bit half, `q0` holds rows 0–3's half-sums in row
            // order and `q1` rows 4–7's; the cross-lane permutes put rows
            // 0–3 below rows 4–7 and add the halves. Every intermediate is
            // a subset sum of one row's products.
            std::array::from_fn(|j| {
                _mm256_add_epi32(
                    _mm256_permute2x128_si256::<0x20>(q0[j], q1[j]),
                    _mm256_permute2x128_si256::<0x31>(q0[j], q1[j]),
                )
            })
        }
    }

    /// Four rows of [`rows8_group_dots_avx2`], reduced as they come:
    /// `hadd(hadd(d0, d1), hadd(d2, d3))` per member, each pair folded as
    /// soon as its second row is done.
    ///
    /// # Safety
    ///
    /// As [`rows8_group_dots_avx2`], for the rows `*w` and `*t` point at
    /// with `*rest` live rows from there on.
    #[inline(always)]
    unsafe fn rows4_dots_avx2<const MB: usize, const ONE64: bool>(
        s: &SweptRows<'_>,
        w: &mut *const u8,
        t: &mut *const &KernelLut,
        rest: &mut usize,
        x: *const i16,
    ) -> [__m256i; MB] {
        // SAFETY: the caller's contract, one row at a time.
        unsafe {
            let d0 = row_dots_avx2::<MB, ONE64>(s, w, t, rest, x);
            let d1 = row_dots_avx2::<MB, ONE64>(s, w, t, rest, x);
            let h01: [__m256i; MB] = std::array::from_fn(|j| _mm256_hadd_epi32(d0[j], d1[j]));
            let d2 = row_dots_avx2::<MB, ONE64>(s, w, t, rest, x);
            let d3 = row_dots_avx2::<MB, ONE64>(s, w, t, rest, x);
            std::array::from_fn(|j| _mm256_hadd_epi32(h01[j], _mm256_hadd_epi32(d2[j], d3[j])))
        }
    }

    /// One row's group dots against `MB` members (lanes are partial sums),
    /// each run of 64 codes (32 packed bytes at `*w`), and a last 32
    /// zero-extended to one, through [`run64_avx2`]; then `*w` and `*t`
    /// step to the next row if one is still live (`*rest` counts them).
    ///
    /// # Safety
    ///
    /// As [`rows8_group_dots_avx2`], for the row `*w` and `*t` point at.
    #[inline(always)]
    unsafe fn row_dots_avx2<const MB: usize, const ONE64: bool>(
        s: &SweptRows<'_>,
        w: &mut *const u8,
        t: &mut *const &KernelLut,
        rest: &mut usize,
        x: *const i16,
    ) -> [__m256i; MB] {
        let member_stride = s.groups * s.per_group;
        // SAFETY: the CPU supports AVX2; `*t` points at this row's table
        // and `*w` at its group, which holds `32 · whole64 (+ 16 if half)`
        // bytes; member `MB - 1`'s dealt runs end inside the dealt codes.
        // The pointers step only onto a row the caller vouches for.
        unsafe {
            let mut d = [_mm256_setzero_si256(); MB];
            let lut: &KernelLut = **t;
            let tabs = [
                _mm256_broadcastsi128_si256(_mm_loadu_si128(lut.lo8.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(lut.hi8.as_ptr().cast())),
            ];
            if ONE64 {
                run64_avx2(_mm256_loadu_si256(w.cast()), tabs, x, member_stride, &mut d);
            } else {
                for i in 0..s.whole64 {
                    let run = _mm256_loadu_si256(w.add(32 * i).cast());
                    run64_avx2(run, tabs, x.add(64 * i), member_stride, &mut d);
                }
                if s.half {
                    let i = s.whole64;
                    let run = _mm256_zextsi128_si256(_mm_loadu_si128(w.add(32 * i).cast()));
                    run64_avx2(run, tabs, x.add(64 * i), member_stride, &mut d);
                }
            }
            if *rest > 1 {
                *rest -= 1;
                *w = w.add(s.stride);
                *t = t.add(s.groups);
            }
            d
        }
    }

    /// 64 codes of one row (32 packed bytes in `w`) against `MB` members,
    /// added into `acc`. The decode works on bytes: the low and the high
    /// nibbles each index the `lo8` and `hi8` shuffle tables in `tabs`
    /// (four `pshufb` for 64 codes), and `punpck{l,h}bw` of a low-byte and
    /// a high-byte result are the i16 operands themselves, two vectors of
    /// sixteen per nibble half — in an order [`run64_slot`] states, which
    /// the members' codes were dealt to match. Member `j`'s 64 dealt codes
    /// start at `x + j · member_stride`.
    ///
    /// # Safety
    ///
    /// `x + j · member_stride + 64` must be in bounds of the dealt codes
    /// for every `j < MB`.
    #[target_feature(enable = "avx2")]
    unsafe fn run64_avx2<const MB: usize>(
        w: __m256i,
        [tlo, thi]: [__m256i; 2],
        x: *const i16,
        member_stride: usize,
        acc: &mut [__m256i; MB],
    ) {
        let m0f = _mm256_set1_epi8(0x0f);
        let even = _mm256_and_si256(w, m0f);
        let odd = _mm256_and_si256(_mm256_srli_epi16::<4>(w), m0f);
        for (c, idx) in [even, odd].into_iter().enumerate() {
            let lo = _mm256_shuffle_epi8(tlo, idx);
            let hi = _mm256_shuffle_epi8(thi, idx);
            let ops = [_mm256_unpacklo_epi8(lo, hi), _mm256_unpackhi_epi8(lo, hi)];
            for (j, acc) in acc.iter_mut().enumerate() {
                for (h, op) in ops.iter().enumerate() {
                    // SAFETY: slot `16c + 32h` of member `j`'s run is in
                    // bounds (the caller's contract); unaligned load.
                    let xv = unsafe {
                        _mm256_loadu_si256(x.add(j * member_stride + 16 * c + 32 * h).cast())
                    };
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(xv, *op));
                }
            }
        }
    }

    /// AVX2 body of [`super::KernelDispatch::matvec_tiled_f32`]: the tiles
    /// in blocks of four (the last block takes what is left), each block
    /// swept by every member in turn while it is hot.
    #[target_feature(enable = "avx2")]
    pub(super) fn matvec_tiled_f32_avx2(w: &TiledF32, xs: &[&[f32]], out: &mut [Vec<f32>]) {
        let tiles = w.rows.div_ceil(TILE_ROWS);
        let mut t = 0;
        while t < tiles {
            let block = (tiles - t).min(4);
            match block {
                1 => tiled_f32_block_avx2::<1>(w, t, xs, out),
                2 => tiled_f32_block_avx2::<2>(w, t, xs, out),
                3 => tiled_f32_block_avx2::<3>(w, t, xs, out),
                _ => tiled_f32_block_avx2::<4>(w, t, xs, out),
            }
            t += block;
        }
    }

    /// Tiles `t0..t0 + T` of [`matvec_tiled_f32_avx2`] for every member:
    /// `T` independent `f32x8` chains (lane = output row), per column one
    /// broadcast of `x[k]`, then per tile one load, `mulps`, `addps` — the
    /// scalar `acc += w · x` of each lane, in the scalar order.
    #[target_feature(enable = "avx2")]
    fn tiled_f32_block_avx2<const T: usize>(
        w: &TiledF32,
        t0: usize,
        xs: &[&[f32]],
        out: &mut [Vec<f32>],
    ) {
        let tiles: [&[f32]; T] = std::array::from_fn(|i| w.tile(t0 + i));
        let start = _mm256_set1_ps(super::empty_f32_sum());
        for (x, y) in xs.iter().zip(out.iter_mut()) {
            assert!(x.len() == w.cols && y.len() == w.rows);
            let mut acc = [start; T];
            for (k, &xv) in x.iter().enumerate() {
                let xk = _mm256_set1_ps(xv);
                for (a, tile) in acc.iter_mut().zip(&tiles) {
                    // SAFETY: `k < x.len() = cols` (asserted above) and a
                    // tile holds `cols · 8` entries, so the eight floats at
                    // `k · 8` are inside it; unaligned load.
                    let wv = unsafe { _mm256_loadu_ps(tile.as_ptr().add(k * TILE_ROWS)) };
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xk));
                }
            }
            for (i, a) in acc.iter().enumerate() {
                let lo = (t0 + i) * TILE_ROWS;
                let live = (w.rows - lo).min(TILE_ROWS);
                let mut lanes = [0.0f32; TILE_ROWS];
                // SAFETY: `lanes` is a writable 32-byte buffer; unaligned store.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), *a) };
                y[lo..lo + live].copy_from_slice(&lanes[..live]);
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
        // The retained variant must run the scalar arms.
        let mut t = vec![KernelDispatch::Scalar, KernelDispatch::Ssse3];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            t.push(KernelDispatch::Avx2);
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
