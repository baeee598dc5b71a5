//! Real-time KV-cache quantization (paper Sec. V-C, Fig. 8).
//!
//! The K and V caches are "dynamic weights", but their inner (accumulation)
//! dimensions differ:
//!
//! - `Q·Kᵀ` accumulates over the **head dimension**, so each arriving key
//!   vector contains *whole* groups → the K cache quantizes **spatially**,
//!   immediately on arrival.
//! - `P·V` accumulates over the **sequence dimension**, so each arriving
//!   value vector contributes *one element per group* → the V cache
//!   quantizes **temporally**, in two phases: new vectors are staged in an
//!   INT8 process window (with channel scales from prefill) while the RQU
//!   accumulates `Σv`, `Σv²`, and `max|v|` per channel; when the window
//!   fills (one group size of iterations), variance selects `a` and the
//!   window is committed to 4-bit MANT.

use mant_numerics::fp16::quantize_fp16;
use mant_numerics::int::quantize_symmetric_int;
use mant_numerics::kernels;
use mant_tensor::{abs_max, Matrix, RunningGroupStats};

use crate::activation::{quantize_vector_int8, QuantizedVector};
use crate::error::QuantError;
use crate::fused::group_dot_packed;
use crate::mantq::{encode_group_packed, packed_code, GroupMeta};
use crate::variance::VarianceMap;

/// Spatial real-time quantizer for the K cache.
///
/// Keys are stored as rows of length `dim` (the head dimension), each row
/// grouped along `dim` and quantized the moment it arrives. Codes are
/// **nibble-packed** (two per byte, each group byte-aligned): the packed
/// buffer is the working representation `fused_dot` consumes through the
/// pair-LUT kernels, not an accounting fiction.
#[derive(Clone, Debug)]
pub struct KCacheQuantizer {
    dim: usize,
    group_size: usize,
    vmap: VarianceMap,
    /// Packed codes, `rows × groups_per_row × ⌈group_size/2⌉` bytes.
    codes: Vec<u8>,
    meta: Vec<GroupMeta>,
    rows: usize,
}

impl KCacheQuantizer {
    /// Creates a K-cache quantizer for key vectors of length `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` does not divide
    /// `dim`.
    pub fn new(dim: usize, group_size: usize, vmap: VarianceMap) -> Result<Self, QuantError> {
        if group_size == 0 || !dim.is_multiple_of(group_size) {
            return Err(QuantError::BadGroupSize {
                group_size,
                inner_dim: dim,
            });
        }
        Ok(KCacheQuantizer {
            dim,
            group_size,
            vmap,
            codes: Vec::new(),
            meta: Vec::new(),
            rows: 0,
        })
    }

    /// Number of cached key vectors.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The head dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Groups per cached key vector.
    pub fn groups_per_row(&self) -> usize {
        self.dim / self.group_size
    }

    /// Bytes one packed group occupies (`⌈group_size / 2⌉`).
    pub fn group_bytes(&self) -> usize {
        self.group_size.div_ceil(2)
    }

    /// Packed bytes one cached key row occupies.
    fn row_bytes(&self) -> usize {
        self.groups_per_row() * self.group_bytes()
    }

    /// The **packed** 4-bit codes of group `g` in cached key vector `t`
    /// (two codes per byte).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn packed_group_codes(&self, t: usize, g: usize) -> &[u8] {
        let gb = self.group_bytes();
        let base = t * self.row_bytes() + g * gb;
        &self.codes[base..base + gb]
    }

    /// Metadata of group `g` in cached key vector `t`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn group_meta(&self, t: usize, g: usize) -> GroupMeta {
        self.meta[t * self.groups_per_row() + g]
    }

    /// The fused `q · k_t` partial dot over `n_groups` consecutive groups,
    /// consuming the packed key codes directly (Eq. (5)): for each group,
    /// an integer psum kernel plus one `s_q · s_k` scale multiply. This is
    /// the incremental `Q·Kᵀ` primitive — no cache dequantization.
    ///
    /// `q_lo` indexes the query's groups, `k_lo` this cache's groups (they
    /// differ under GQA, where several query heads share one KV head).
    ///
    /// # Panics
    ///
    /// Panics if the query's group size differs from the cache's, or if
    /// any group index is out of bounds.
    pub fn fused_dot(
        &self,
        t: usize,
        q: &QuantizedVector,
        q_lo: usize,
        k_lo: usize,
        n_groups: usize,
    ) -> f32 {
        assert_eq!(q.group_size(), self.group_size, "query group size mismatch");
        let mut acc = 0.0f64;
        for j in 0..n_groups {
            let meta = self.group_meta(t, k_lo + j);
            let int_result = group_dot_packed(
                meta,
                q.group_codes(q_lo + j),
                self.packed_group_codes(t, k_lo + j),
            );
            acc += f64::from(q.scale(q_lo + j)) * f64::from(meta.scale) * int_result as f64;
        }
        acc as f32
    }

    /// Quantizes and appends one key vector (one decode step).
    ///
    /// # Panics
    ///
    /// Panics if `k.len() != dim`.
    pub fn push(&mut self, k: &[f32]) {
        assert_eq!(k.len(), self.dim, "key vector length mismatch");
        let c0 = self.codes.len();
        let m0 = self.meta.len();
        self.codes.resize(c0 + self.row_bytes(), 0);
        self.meta
            .resize(m0 + self.groups_per_row(), GroupMeta::ZERO);
        encode_k_row_into(
            &self.vmap,
            self.group_size,
            k,
            &mut self.codes[c0..],
            &mut self.meta[m0..],
        );
        self.rows += 1;
    }

    /// Clears the cache so a finished session's storage can be recycled by
    /// a new sequence, retaining the allocated capacity. A reset cache is
    /// **bit-identical** to a freshly constructed one: keys are encoded
    /// independently on arrival, so every later push produces the same
    /// codes and metadata a fresh cache would.
    pub fn reset(&mut self) {
        self.codes.clear();
        self.meta.clear();
        self.rows = 0;
    }

    /// Drops every cached key vector beyond the first `len` — the rollback
    /// primitive for speculative decode and prefix reuse. Keys are encoded
    /// row-independently, so the truncated cache is bit-identical to a
    /// fresh cache fed only the kept prefix.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            len <= self.rows,
            "truncate length {len} exceeds cached rows {}",
            self.rows
        );
        self.codes.truncate(len * self.row_bytes());
        self.meta.truncate(len * self.groups_per_row());
        self.rows = len;
    }

    /// Quantizes a whole prefill K matrix (`seq × dim`) row by row.
    ///
    /// # Panics
    ///
    /// Panics if `k.cols() != dim`.
    pub fn prefill(&mut self, k: &Matrix) {
        assert_eq!(k.cols(), self.dim, "prefill width mismatch");
        for r in 0..k.rows() {
            self.push(k.row(r));
        }
    }

    /// Dequantizes the cache to a `seq × dim` matrix.
    pub fn dequantize(&self) -> Matrix {
        let gpr = self.dim / self.group_size;
        Matrix::from_fn(self.rows, self.dim, |r, c| {
            let g = c / self.group_size;
            let m = self.meta[r * gpr + g];
            let code = packed_code(self.packed_group_codes(r, g), c % self.group_size);
            m.dtype.decode(code) * m.scale
        })
    }

    /// Storage bits: the packed code bytes (4 per element — genuinely
    /// packed) + 24 per group (scale + coefficient).
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * 8 + self.meta.len() * 24
    }
}

/// Encodes one key row's groups into pre-sized **packed** code/metadata
/// slices: per group, streaming stats → variance-selected dtype → FP16
/// scale → packed 4-bit codes (two per byte, byte-aligned groups). Shared
/// verbatim by the owned [`KCacheQuantizer`] and the paged pool's
/// per-sequence views (`crate::pool`), so the two storage engines produce
/// bit-identical cache contents.
pub(crate) fn encode_k_row_into(
    vmap: &VarianceMap,
    group_size: usize,
    k: &[f32],
    codes_out: &mut [u8],
    meta_out: &mut [GroupMeta],
) {
    /// Groups whose `Σv/Σv²/max` chains run side by side: each chain adds
    /// in its own element order, but four of them keep the adder busy
    /// where one waits out every addition's latency.
    const ABREAST: usize = 4;
    let group_bytes = group_size.div_ceil(2);
    debug_assert_eq!(codes_out.len(), (k.len() / group_size) * group_bytes);
    debug_assert_eq!(meta_out.len(), k.len() / group_size);
    let mut codes_out = codes_out.chunks_exact_mut(group_bytes);
    let mut meta_out = meta_out.iter_mut();
    for groups in k.chunks(ABREAST * group_size) {
        let mut stats = [RunningGroupStats::new(); ABREAST];
        for j in 0..group_size {
            for (stats, group) in stats.iter_mut().zip(groups.chunks_exact(group_size)) {
                stats.push(group[j]);
            }
        }
        for (stats, group) in stats.iter().zip(groups.chunks_exact(group_size)) {
            let dtype = vmap.select_for(stats);
            let scale = dtype.scale_for(stats.abs_max());
            *meta_out.next().expect("one entry per group") = GroupMeta { dtype, scale };
            let codes = codes_out.next().expect("one packed group per group");
            encode_group_packed(dtype, scale, group, codes);
        }
    }
}

/// One committed (fully quantized) V-cache window: `group_size` rows, each
/// channel with its own type/scale.
#[derive(Clone, Debug)]
pub(crate) struct CommittedWindow {
    /// Per-channel metadata (`dim` entries).
    pub(crate) meta: Vec<GroupMeta>,
    /// **Packed** codes in `[c][t]` channel-major order
    /// (`dim × ⌈group_size/2⌉` bytes): each channel's temporal group is a
    /// contiguous packed operand, so the `P·V` kernels consume it directly
    /// with no strided gather and no unpacking.
    pub(crate) codes: Vec<u8>,
}

/// `P·V` accumulation over one committed window: `meta`/`codes` are the
/// window's per-channel metadata and channel-major **packed** codes
/// (`dim × ⌈group_size/2⌉` bytes), `pcodes`/`pscale` the window's
/// INT8-quantized probabilities. Adds into `out` for channels `chan_lo..`.
/// Shared by the owned [`VCacheQuantizer`] and the paged pool so both
/// consume committed storage with bit-identical arithmetic.
pub(crate) fn attend_window(
    meta: &[GroupMeta],
    codes: &[u8],
    group_size: usize,
    pcodes: &[i8],
    pscale: f32,
    chan_lo: usize,
    out: &mut [f32],
) {
    let gb = group_size.div_ceil(2);
    for (o, c) in out.iter_mut().zip(chan_lo..) {
        let m = meta[c];
        // Channel-major packed storage: the temporal group is one
        // contiguous packed operand for the pair-LUT kernel.
        let group = &codes[c * gb..(c + 1) * gb];
        let int_result = group_dot_packed(m, pcodes, group);
        *o += (f64::from(pscale) * f64::from(m.scale) * int_result as f64) as f32;
    }
}

/// Phase-1 state of the temporal V-cache engine (Fig. 8): the INT8
/// process window, its per-channel RQU accumulators and scales, and the
/// original f32 rows of the window (retained — bounded by one group of
/// rows — so truncation can rebuild the accumulators exactly). Owns the
/// staging/commit logic; the owned [`VCacheQuantizer`] and the paged
/// pool's views differ only in where committed windows land.
///
/// Everything per channel is an array over channels, so a pushed row is
/// quantized and accumulated **across** channels — a vector lane is a
/// channel, and each channel's `Σv/Σv²/max` chain keeps its row order.
#[derive(Clone, Debug)]
pub(crate) struct VStaging {
    pub(crate) dim: usize,
    pub(crate) group_size: usize,
    vmap: VarianceMap,
    /// Per-channel INT8 scales for the staging window (from prefill, or
    /// bootstrapped from the first vectors seen).
    channel_scales: Vec<f32>,
    /// Snapshot of `channel_scales` as of the current window's first row —
    /// refreshed on construction, reset, prefill-scale derivation, and
    /// every commit. [`VStaging::truncate`] restores these before
    /// re-pushing the kept rows, so a widening triggered by a *dropped*
    /// row is undone and the rebuilt window is bit-identical to one that
    /// never staged the dropped rows.
    window_start_scales: Vec<f32>,
    /// Rows staged, at most `group_size`.
    rows: usize,
    /// Phase-1 staging buffer: the staged rows' INT8 codes, `[t][c]`.
    window: Vec<i8>,
    /// The staged rows' original f32 values, `[t][c]` — what
    /// [`VStaging::truncate`] re-pushes to rebuild the RQU stats
    /// bit-exactly. A software rollback convenience (the accelerator keeps
    /// the arriving vectors in SRAM for the window anyway); not packed
    /// storage and not counted in the bit accounting.
    window_f32: Vec<f32>,
    /// RQU accumulators over the current window, per channel: `Σv`, `Σv²`
    /// and `max |v|`, each the chain [`RunningGroupStats::push`] keeps.
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    abs_max: Vec<f32>,
}

impl VStaging {
    pub(crate) fn new(dim: usize, group_size: usize, vmap: VarianceMap) -> Self {
        VStaging {
            dim,
            group_size,
            vmap,
            channel_scales: vec![0.0; dim],
            window_start_scales: vec![0.0; dim],
            rows: 0,
            window: Vec::new(),
            window_f32: Vec::new(),
            sum: vec![0.0; dim],
            sum_sq: vec![0.0; dim],
            abs_max: vec![0.0; dim],
        }
    }

    /// Rows currently staged.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// The INT8 codes of staged row `t`.
    pub(crate) fn staged_row(&self, t: usize) -> &[i8] {
        &self.window[t * self.dim..(t + 1) * self.dim]
    }

    /// Channel `c`'s staging scale as the codes are read back: floored at
    /// the smallest positive f32 (a channel that only ever saw zeros still
    /// has scale 0).
    pub(crate) fn staging_scale(&self, c: usize) -> f32 {
        self.channel_scales[c].max(f32::MIN_POSITIVE)
    }

    /// Derives the staging window's per-channel INT8 scales from a prefill
    /// V matrix (Sec. V-C: "scales" in Fig. 8).
    pub(crate) fn set_scales_from_prefill(&mut self, v: &Matrix) {
        for c in 0..self.dim {
            let amax = abs_max(&v.col(c));
            self.channel_scales[c] = int8_scale(amax);
        }
        self.window_start_scales
            .copy_from_slice(&self.channel_scales);
    }

    /// Phase 1 of Fig. 8: quantizes one value vector to INT8 into the
    /// process window and updates the per-channel `Σv/Σv²/max`
    /// accumulators; when the window fills, runs phase 2 and returns the
    /// committed 4-bit window.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub(crate) fn push(&mut self, v: &[f32]) -> Option<CommittedWindow> {
        assert_eq!(v.len(), self.dim, "value vector length mismatch");
        // The rare channels first, one at a time: a scale that has to be
        // bootstrapped or widened before this row fits it.
        let outgrown = |x: f32, s: f32| (s == 0.0 && x != 0.0) || x.abs() > 127.0 * s;
        if v.iter()
            .zip(&self.channel_scales)
            .fold(false, |any, (&x, &s)| any | outgrown(x, s))
        {
            for (c, &x) in v.iter().enumerate() {
                if outgrown(x, self.channel_scales[c]) {
                    self.rescale_channel(c, x);
                }
            }
        }
        // Then every channel at its final scale, across the row.
        let at = self.window.len();
        self.window.resize(at + self.dim, 0);
        kernels().quantize_i8_lanes(v, &self.channel_scales, &mut self.window[at..]);
        self.window_f32.extend_from_slice(v);
        for ((sum, sum_sq), &x) in self.sum.iter_mut().zip(&mut self.sum_sq).zip(v) {
            let x = f64::from(x);
            *sum += x;
            *sum_sq += x * x;
        }
        for (abs_max, &x) in self.abs_max.iter_mut().zip(v) {
            *abs_max = abs_max.max(x.abs());
        }
        self.rows += 1;
        if self.rows == self.group_size {
            Some(self.commit())
        } else {
            None
        }
    }

    /// Gives channel `c` a scale that holds `x`, before `x` is staged.
    fn rescale_channel(&mut self, c: usize, x: f32) {
        if self.channel_scales[c] == 0.0 && x != 0.0 {
            // No prefill happened: bootstrap the channel scale from the
            // first nonzero observation.
            self.channel_scales[c] = int8_scale(x.abs());
        }
        if x.abs() > 127.0 * self.channel_scales[c] {
            // The channel outgrew its prefill range: widen the scale
            // and re-encode the staged codes for this channel (cheap —
            // the window holds at most one group of rows).
            let old = self.channel_scales[c].max(f32::MIN_POSITIVE);
            let new = int8_scale(x.abs());
            for staged in self.window.iter_mut().skip(c).step_by(self.dim) {
                let rescaled = f32::from(*staged) * old / new;
                *staged = quantize_symmetric_int(rescaled, 127) as i8;
            }
            self.channel_scales[c] = new;
        }
    }

    /// Phase 2 of Fig. 8: variance → `a`, then requantize the staged INT8
    /// window to packed 4-bit MANT, one group per channel.
    fn commit(&mut self) -> CommittedWindow {
        let (g, dim) = (self.group_size, self.dim);
        let gb = g.div_ceil(2);
        // One transpose of the window, `[t][c]` → `[c][t]`, makes every
        // channel's temporal group contiguous.
        let mut by_channel = vec![0i8; g * dim];
        for t in 0..g {
            for (c, &code) in self.staged_row(t).iter().enumerate() {
                by_channel[c * g + t] = code;
            }
        }
        let d = kernels();
        let mut meta = Vec::with_capacity(dim);
        let mut codes = vec![0u8; gb * dim];
        let mut group = vec![0.0f32; g];
        for c in 0..dim {
            let stats = RunningGroupStats::from_parts(
                self.sum[c],
                self.sum_sq[c],
                self.abs_max[c],
                self.rows,
            );
            let dtype = self.vmap.select_for(&stats);
            // The group contents are the *staged INT8* values (the paper
            // requantizes the stacked INT8 V cache), so the scale comes
            // from their dequantized max.
            let s8 = self.staging_scale(c);
            for (x, &code) in group.iter_mut().zip(&by_channel[c * g..(c + 1) * g]) {
                *x = f32::from(code) * s8;
            }
            let scale = dtype.scale_for(d.abs_max(&group));
            meta.push(GroupMeta { dtype, scale });
            encode_group_packed(dtype, scale, &group, &mut codes[c * gb..(c + 1) * gb]);
        }
        self.clear_window();
        self.window_start_scales
            .copy_from_slice(&self.channel_scales);
        CommittedWindow { meta, codes }
    }

    /// Empties the window and zeroes its accumulators; scales stay.
    fn clear_window(&mut self) {
        self.rows = 0;
        self.window.clear();
        self.window_f32.clear();
        self.sum.fill(0.0);
        self.sum_sq.fill(0.0);
        self.abs_max.fill(0.0);
    }

    /// The staged-rows lane of `P·V`: INT8 probabilities × INT8 staged
    /// codes per channel, scaled by the channel's staging scale
    /// ([`mant_numerics::KernelDispatch::staged_pv`]). Adds into `out` for
    /// channels `chan_lo..`. `p8` is scratch for the rows' probability
    /// codes, at least `probs_tail.len()` long.
    pub(crate) fn attend_staged_with(
        &self,
        probs_tail: &[f32],
        p8: &mut [i8],
        chan_lo: usize,
        out: &mut [f32],
    ) {
        if self.window.is_empty() {
            return;
        }
        let pcodes = &mut p8[..probs_tail.len()];
        let Some(pscale) = quantize_probs_int8_into(probs_tail, pcodes) else {
            return;
        };
        kernels().staged_pv(
            pcodes,
            &self.window[chan_lo..],
            self.dim,
            pscale,
            &self.channel_scales[chan_lo..chan_lo + out.len()],
            out,
        );
    }

    /// [`VStaging::attend_staged_with`] on a scratch buffer of its own.
    #[cfg(test)]
    pub(crate) fn attend_staged(&self, probs_tail: &[f32], chan_lo: usize, out: &mut [f32]) {
        self.attend_staged_with(probs_tail, &mut vec![0; probs_tail.len()], chan_lo, out);
    }

    /// Keeps only the first `keep` staged rows by **replaying** them:
    /// channel scales are restored to their window-start snapshot, the
    /// window and RQU accumulators are cleared, and the retained rows'
    /// original f32 values are re-pushed in arrival order through the
    /// normal [`VStaging::push`] path. Scale bootstraps and widenings
    /// caused by kept rows re-trigger identically; those caused only by
    /// dropped rows are undone — the result is bit-identical to a staging
    /// buffer that never saw the dropped rows.
    pub(crate) fn truncate(&mut self, keep: usize) {
        debug_assert!(keep <= self.rows);
        let kept = self.window_f32[..keep * self.dim].to_vec();
        self.clear_window();
        self.channel_scales
            .copy_from_slice(&self.window_start_scales);
        for t in 0..keep {
            let committed = self.push(&kept[t * self.dim..(t + 1) * self.dim]);
            debug_assert!(
                committed.is_none(),
                "re-staging fewer rows than a full window cannot commit"
            );
        }
    }

    /// Clears all staging state (window, stats, channel scales) so the
    /// storage can be recycled by a new sequence; bit-identical afterwards
    /// to a freshly constructed staging buffer.
    pub(crate) fn reset(&mut self) {
        self.clear_window();
        self.channel_scales.fill(0.0);
        self.window_start_scales.fill(0.0);
    }
}

/// Temporal two-phase real-time quantizer for the V cache (Fig. 8).
#[derive(Clone, Debug)]
pub struct VCacheQuantizer {
    staging: VStaging,
    committed: Vec<CommittedWindow>,
}

impl VCacheQuantizer {
    /// Creates a V-cache quantizer for value vectors of length `dim`; the
    /// process window spans `group_size` decode iterations.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` is zero.
    pub fn new(dim: usize, group_size: usize, vmap: VarianceMap) -> Result<Self, QuantError> {
        if group_size == 0 {
            return Err(QuantError::BadGroupSize {
                group_size,
                inner_dim: dim,
            });
        }
        Ok(VCacheQuantizer {
            staging: VStaging::new(dim, group_size, vmap),
            committed: Vec::new(),
        })
    }

    /// Number of cached value vectors (committed + staged).
    pub fn len(&self) -> usize {
        self.committed.len() * self.staging.group_size + self.staging.rows()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows currently staged in the INT8 process window.
    pub fn window_len(&self) -> usize {
        self.staging.rows()
    }

    /// Number of committed 4-bit windows.
    pub fn committed_windows(&self) -> usize {
        self.committed.len()
    }

    /// Ingests a whole prefill V matrix (`seq × dim`): derives channel
    /// scales, commits every full window spatially, stages the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `v.cols() != dim`.
    pub fn prefill(&mut self, v: &Matrix) {
        assert_eq!(v.cols(), self.staging.dim, "prefill width mismatch");
        // Channel-wise INT8 scales for the decode-stage staging window are
        // derived from the prefill statistics (Sec. V-C: "scales" in Fig. 8).
        self.staging.set_scales_from_prefill(v);
        for r in 0..v.rows() {
            self.push(v.row(r));
        }
    }

    /// Phase 1 of Fig. 8: quantizes one value vector to INT8 into the
    /// process window and updates the per-channel `Σv/Σv²/max`
    /// accumulators; when the window fills, runs phase 2 (commit to MANT4).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) {
        if let Some(window) = self.staging.push(v) {
            self.committed.push(window);
        }
    }

    /// Clears the cache (committed windows, staging window, channel
    /// scales, RQU accumulators) so a finished session's storage can be
    /// recycled, retaining allocated capacity. A reset cache is
    /// **bit-identical** to a freshly constructed one on every later
    /// operation.
    pub fn reset(&mut self) {
        self.committed.clear();
        self.staging.reset();
    }

    /// Drops every cached value vector beyond the first `len` — the
    /// rollback primitive for speculative decode and prefix reuse.
    ///
    /// A cut inside the staging window **replays** exactly: channel scales
    /// revert to their window-start snapshot and the kept rows' original
    /// f32 values are re-pushed, so the result is bit-identical to a cache
    /// that never saw the dropped rows (scale widenings triggered only by
    /// dropped rows are undone). A cut at a committed-window boundary
    /// keeps the committed prefix and empties the staging window; scales
    /// revert to the *latest* window-start snapshot, which still reflects
    /// widenings from dropped committed windows (their INT8 history is
    /// gone, so exact replay is impossible there — acceptable for prefix
    /// reuse, where scales only ever widen). A cut strictly inside a
    /// committed window is rejected: commitment discards the INT8 staging
    /// data, so such a cut cannot be represented — truncate at a window
    /// boundary instead.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`, or if `len` falls strictly inside a
    /// committed window.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            len <= self.len(),
            "truncate length {len} exceeds cached rows {}",
            self.len()
        );
        let g = self.staging.group_size;
        let committed_len = self.committed.len() * g;
        if len >= committed_len {
            self.staging.truncate(len - committed_len);
        } else {
            assert!(
                len.is_multiple_of(g),
                "cannot truncate inside a committed V window (len {len}, window {g})"
            );
            self.committed.truncate(len / g);
            self.staging.truncate(0);
        }
    }

    /// The temporal group size (process-window length in decode steps).
    pub fn group_size(&self) -> usize {
        self.staging.group_size
    }

    /// Incremental `P·V`: accumulates `Σ_t probs[t] · v_t[c]` into
    /// `out[c - chan_lo]` for channels `chan_lo..chan_lo + out.len()`,
    /// consuming the cache's packed storage directly — committed windows
    /// via the two-psum integer kernels (Eq. (5)), the INT8 process window
    /// via its staged codes and channel scales. The probabilities are
    /// quantized to INT8 per window (the paper's integer `P·V` datapath),
    /// so every lane is integer arithmetic with one scale multiply per
    /// (window, channel). No cache dequantization, no `seq × dim`
    /// materialization.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != self.len()` or the channel range exceeds
    /// `dim`.
    pub fn attend(&self, probs: &[f32], chan_lo: usize, out: &mut [f32]) {
        let mut p8 = vec![0i8; self.staging.group_size];
        self.attend_with(probs, &mut p8, chan_lo, out);
    }

    /// [`VCacheQuantizer::attend`] with the caller's scratch for one
    /// window's probability codes (`group_size` long), so a caller that
    /// attends head after head allocates nothing per head.
    pub(crate) fn attend_with(
        &self,
        probs: &[f32],
        p8: &mut [i8],
        chan_lo: usize,
        out: &mut [f32],
    ) {
        assert_eq!(probs.len(), self.len(), "probability length mismatch");
        assert!(
            chan_lo + out.len() <= self.staging.dim,
            "channel range out of bounds"
        );
        let g = self.staging.group_size;
        let mut t0 = 0usize;
        for w in &self.committed {
            let window_probs = &probs[t0..t0 + g];
            t0 += g;
            let Some(pscale) = quantize_probs_int8_into(window_probs, &mut p8[..g]) else {
                continue;
            };
            attend_window(&w.meta, &w.codes, g, &p8[..g], pscale, chan_lo, out);
        }
        // Staged rows: INT8 × INT8 per channel, scaled by the channel's
        // staging scale.
        self.staging
            .attend_staged_with(&probs[t0..], p8, chan_lo, out);
    }

    /// Dequantizes the full cache (committed 4-bit windows + INT8 staging
    /// rows) to a `seq × dim` matrix.
    pub fn dequantize(&self) -> Matrix {
        let dim = self.staging.dim;
        let g = self.staging.group_size;
        let gb = g.div_ceil(2);
        let mut out = Matrix::zeros(0, 0);
        for w in &self.committed {
            for t in 0..g {
                let row: Vec<f32> = (0..dim)
                    .map(|c| {
                        let m = w.meta[c];
                        m.dtype
                            .decode(packed_code(&w.codes[c * gb..(c + 1) * gb], t))
                            * m.scale
                    })
                    .collect();
                out.push_row(&row);
            }
        }
        for t in 0..self.staging.rows() {
            let row: Vec<f32> = self
                .staging
                .staged_row(t)
                .iter()
                .enumerate()
                .map(|(c, &q)| f32::from(q) * self.staging.staging_scale(c))
                .collect();
            out.push_row(&row);
        }
        if out.rows() == 0 {
            Matrix::zeros(0, dim)
        } else {
            out
        }
    }

    /// Storage bits: committed windows at their physical packed bytes
    /// (4 bits per element, plus a pad nibble per channel group when the
    /// group size is odd) + 24-bit group metadata; staged rows at 8 bits
    /// (the "marginal and tolerable" INT8 overhead).
    pub fn storage_bits(&self) -> usize {
        let dim = self.staging.dim;
        let gb = self.staging.group_size.div_ceil(2);
        let committed = self.committed.len() * (dim * gb * 8 + dim * 24);
        let staged = self.staging.rows() * dim * 8;
        committed + staged
    }
}

/// Multi-head attention of one query vector against the packed caches on
/// the **dequantize path**: both caches are materialized to `seq × dim`
/// matrices, then scored in f32 — the reference twin of
/// [`attention_incremental`], and the per-step cost the quantized
/// execution backend eliminates. With `kv_heads < heads`, query heads
/// share K/V heads (GQA).
///
/// # Panics
///
/// Panics if `q.len() != heads · head_dim`, if `kv_heads` is zero or does
/// not divide `heads`, or if the caches' width is not
/// `kv_heads · head_dim`.
pub fn attention_dequantize(
    q: &[f32],
    kc: &KCacheQuantizer,
    vc: &VCacheQuantizer,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> Vec<f32> {
    validate_attention_shapes(q, kc, vc, heads, kv_heads, head_dim);
    let k_all = kc.dequantize();
    let v_all = vc.dequantize();
    let seq = k_all.rows();
    let queries_per_kv = heads / kv_heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut out = vec![0.0f32; heads * head_dim];
    for h in 0..heads {
        let lo = h * head_dim;
        let hi = lo + head_dim;
        let kv_lo = (h / queries_per_kv) * head_dim;
        let kv_hi = kv_lo + head_dim;
        let qh = &q[lo..hi];
        let mut scores: Vec<f32> = (0..seq)
            .map(|t| {
                let kh = &k_all.row(t)[kv_lo..kv_hi];
                qh.iter().zip(kh.iter()).map(|(&a, &b)| a * b).sum::<f32>() * scale
            })
            .collect();
        kernels().softmax(&mut scores);
        let oh = &mut out[lo..hi];
        for (t, &s) in scores.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let vh = &v_all.row(t)[kv_lo..kv_hi];
            for (o, &v) in oh.iter_mut().zip(vh.iter()) {
                *o += s * v;
            }
        }
    }
    out
}

/// Multi-head attention of one query vector against the packed caches on
/// the **incremental path**: `Q·Kᵀ` runs the fused per-group integer dots
/// ([`KCacheQuantizer::fused_dot`]) against the query quantized to
/// group-wise INT8, and `P·V` consumes committed windows and INT8 staging
/// rows via [`VCacheQuantizer::attend`]. Nothing materializes a
/// `seq × dim` matrix — per-step work is proportional to the codes read,
/// which is what makes long-sequence decode cheap. GQA as in
/// [`attention_dequantize`].
///
/// # Panics
///
/// As [`attention_dequantize`], plus if the K-cache group size does not
/// divide `head_dim` (groups must not straddle heads).
pub fn attention_incremental(
    q: &[f32],
    kc: &KCacheQuantizer,
    vc: &VCacheQuantizer,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) -> Vec<f32> {
    validate_attention_shapes(q, kc, vc, heads, kv_heads, head_dim);
    let g = kc.group_size();
    assert!(
        head_dim.is_multiple_of(g),
        "fused attention needs the group size ({g}) to divide the head dimension ({head_dim})"
    );
    let queries_per_kv = heads / kv_heads;
    let groups_per_head = head_dim / g;
    let qv = quantize_vector_int8(q, g).expect("group divides head dim, hence q length");
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut out = vec![0.0f32; heads * head_dim];
    let mut scores = vec![0.0f32; kc.len()];
    let mut p8 = vec![0i8; vc.group_size()];
    for h in 0..heads {
        let lo = h * head_dim;
        let kv_head = h / queries_per_kv;
        let q_lo_group = lo / g;
        let k_lo_group = kv_head * head_dim / g;
        for (t, s) in scores.iter_mut().enumerate() {
            *s = kc.fused_dot(t, &qv, q_lo_group, k_lo_group, groups_per_head) * scale;
        }
        kernels().softmax(&mut scores);
        vc.attend_with(
            &scores,
            &mut p8,
            kv_head * head_dim,
            &mut out[lo..lo + head_dim],
        );
    }
    out
}

fn validate_attention_shapes(
    q: &[f32],
    kc: &KCacheQuantizer,
    vc: &VCacheQuantizer,
    heads: usize,
    kv_heads: usize,
    head_dim: usize,
) {
    assert_eq!(q.len(), heads * head_dim, "query length mismatch");
    assert!(
        kv_heads > 0 && heads.is_multiple_of(kv_heads),
        "kv_heads ({kv_heads}) must divide heads ({heads})"
    );
    assert_eq!(kc.dim(), kv_heads * head_dim, "K-cache width mismatch");
    assert_eq!(
        kc.len(),
        vc.len(),
        "K and V caches disagree on sequence length"
    );
}

/// Quantizes one window's attention probabilities to symmetric INT8 with a
/// single FP16-rounded scale into `codes` (as long as `probs`), returning
/// the scale; `None` when every probability is zero (the whole window then
/// contributes nothing, and `codes` is left as it was).
pub(crate) fn quantize_probs_int8_into(probs: &[f32], codes: &mut [i8]) -> Option<f32> {
    // Vectorized through the process kernel tier, bit-identical to the
    // scalar fold + per-element `quantize_symmetric_int` loop.
    let d = kernels();
    let amax = d.abs_max(probs);
    if amax == 0.0 {
        return None;
    }
    let scale = int8_scale(amax).max(f32::MIN_POSITIVE);
    d.quantize_i8(probs, scale, codes);
    Some(scale)
}

/// [`quantize_probs_int8_into`] into a fresh buffer.
#[cfg(test)]
pub(crate) fn quantize_probs_int8(probs: &[f32]) -> Option<(Vec<i8>, f32)> {
    let mut codes = vec![0i8; probs.len()];
    quantize_probs_int8_into(probs, &mut codes).map(|scale| (codes, scale))
}

/// FP16-rounded INT8 scale for a given max magnitude.
fn int8_scale(amax: f32) -> f32 {
    if amax == 0.0 {
        0.0
    } else {
        quantize_fp16(amax / 127.0).max(f32::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::CandidateSet;
    use mant_tensor::{mse, TensorGenerator};

    fn vmap() -> VarianceMap {
        VarianceMap::analytic(&CandidateSet::paper()).unwrap()
    }

    fn relative_error(orig: &Matrix, deq: &Matrix) -> f64 {
        let err = mse(orig.as_slice(), deq.as_slice());
        let power = mse(orig.as_slice(), &vec![0.0; orig.len()]);
        err / power.max(1e-30)
    }

    #[test]
    fn k_cache_spatial_roundtrip() {
        let mut gen = TensorGenerator::new(71);
        let mut kq = KCacheQuantizer::new(128, 64, vmap()).unwrap();
        let k = gen.group_diverse_matrix(40, 128, 64, 0.5);
        kq.prefill(&k);
        assert_eq!(kq.len(), 40);
        let deq = kq.dequantize();
        assert_eq!(deq.shape(), (40, 128));
        // Variance-based type selection is a fast surrogate for the MSE
        // search; its 4-bit error stays within a few percent.
        assert!(
            relative_error(&k, &deq) < 0.05,
            "{}",
            relative_error(&k, &deq)
        );
    }

    #[test]
    fn k_cache_incremental_matches_batch() {
        let mut gen = TensorGenerator::new(72);
        let k = gen.group_diverse_matrix(10, 128, 64, 0.5);
        let mut a = KCacheQuantizer::new(128, 64, vmap()).unwrap();
        a.prefill(&k);
        let mut b = KCacheQuantizer::new(128, 64, vmap()).unwrap();
        for r in 0..k.rows() {
            b.push(k.row(r));
        }
        assert_eq!(a.dequantize().as_slice(), b.dequantize().as_slice());
    }

    #[test]
    fn k_cache_bad_group_size() {
        assert!(KCacheQuantizer::new(100, 64, vmap()).is_err());
    }

    #[test]
    fn v_cache_two_phase_counts() {
        let mut gen = TensorGenerator::new(73);
        let mut vq = VCacheQuantizer::new(32, 8, vmap()).unwrap();
        let v = gen.group_diverse_matrix(20, 32, 32, 0.5);
        vq.prefill(&v);
        // 20 rows with window 8 → 2 committed windows + 4 staged rows.
        assert_eq!(vq.committed_windows(), 2);
        assert_eq!(vq.window_len(), 4);
        assert_eq!(vq.len(), 20);
    }

    #[test]
    fn v_cache_roundtrip_error_small() {
        let mut gen = TensorGenerator::new(74);
        let mut vq = VCacheQuantizer::new(64, 16, vmap()).unwrap();
        let v = gen.group_diverse_matrix(64, 64, 64, 0.5);
        vq.prefill(&v);
        let deq = vq.dequantize();
        assert_eq!(deq.shape(), (64, 64));
        // 4-bit committed + INT8 staged: overall error stays small.
        assert!(
            relative_error(&v, &deq) < 0.03,
            "{}",
            relative_error(&v, &deq)
        );
    }

    #[test]
    fn v_cache_window_commits_on_fill() {
        let mut gen = TensorGenerator::new(75);
        let mut vq = VCacheQuantizer::new(16, 4, vmap()).unwrap();
        for i in 0..4 {
            let row: Vec<f32> = (0..16).map(|_| gen.uniform(-1.0, 1.0)).collect();
            vq.push(&row);
            if i < 3 {
                assert_eq!(vq.committed_windows(), 0);
                assert_eq!(vq.window_len(), i + 1);
            }
        }
        assert_eq!(vq.committed_windows(), 1);
        assert_eq!(vq.window_len(), 0);
    }

    #[test]
    fn v_cache_decode_only_bootstraps_scales() {
        // No prefill at all: the engine must still work (scales bootstrap).
        let mut gen = TensorGenerator::new(76);
        let mut vq = VCacheQuantizer::new(8, 4, vmap()).unwrap();
        let mut rows = Matrix::zeros(0, 0);
        for _ in 0..8 {
            let row: Vec<f32> = (0..8).map(|_| gen.uniform(-2.0, 2.0)).collect();
            vq.push(&row);
            rows.push_row(&row);
        }
        let deq = vq.dequantize();
        assert_eq!(deq.shape(), (8, 8));
        // Bootstrapped scales may clip later larger values; error is
        // bounded but nonzero.
        assert!(relative_error(&rows, &deq) < 0.3);
    }

    #[test]
    fn v_cache_recent_tokens_kept_at_int8() {
        // The staging window holds the newest tokens in INT8 — the paper
        // argues this *helps* quality since recent tokens matter more. The
        // staged rows should be more accurate than committed 4-bit rows.
        let mut gen = TensorGenerator::new(77);
        let mut vq = VCacheQuantizer::new(32, 16, vmap()).unwrap();
        let v = gen.group_diverse_matrix(24, 32, 32, 0.5);
        vq.prefill(&v); // 1 window committed, 8 rows staged
        let deq = vq.dequantize();
        let committed_err = mse(&v.as_slice()[..16 * 32], &deq.as_slice()[..16 * 32]);
        let staged_err = mse(&v.as_slice()[16 * 32..], &deq.as_slice()[16 * 32..]);
        assert!(
            staged_err < committed_err,
            "{staged_err} vs {committed_err}"
        );
    }

    #[test]
    fn storage_accounting() {
        let mut vq = VCacheQuantizer::new(16, 4, vmap()).unwrap();
        for _ in 0..6 {
            vq.push(&[0.5; 16]);
        }
        // 1 committed window (4×16 codes + 16 metas) + 2 staged rows.
        assert_eq!(vq.storage_bits(), (4 * 16 * 4 + 16 * 24) + 2 * 16 * 8);
        let mut kq = KCacheQuantizer::new(16, 16, vmap()).unwrap();
        kq.push(&[0.5; 16]);
        assert_eq!(kq.storage_bits(), 16 * 4 + 24);
    }

    #[test]
    fn fused_dot_matches_dequantized_scores() {
        use crate::activation::quantize_vector_int8;
        let mut gen = TensorGenerator::new(78);
        let dim = 128;
        let g = 32;
        let mut kq = KCacheQuantizer::new(dim, g, vmap()).unwrap();
        let k = gen.group_diverse_matrix(24, dim, g, 0.5);
        kq.prefill(&k);
        let q_vec: Vec<f32> = (0..dim).map(|_| gen.standard_normal()).collect();
        let qv = quantize_vector_int8(&q_vec, g).unwrap();
        let q_deq = qv.dequantize();
        let k_deq = kq.dequantize();
        // Whole-row dots and per-head (2-group) partial dots both match
        // the dequantize-then-f32 reference on the same quantized query.
        for t in 0..24 {
            let full = kq.fused_dot(t, &qv, 0, 0, dim / g);
            let reference: f32 = q_deq
                .iter()
                .zip(k_deq.row(t).iter())
                .map(|(&a, &b)| a * b)
                .sum();
            assert!(
                (full - reference).abs() <= reference.abs().max(1.0) * 1e-4,
                "t={t}: {full} vs {reference}"
            );
            let partial = kq.fused_dot(t, &qv, 2, 2, 2);
            let reference_p: f32 = q_deq[2 * g..4 * g]
                .iter()
                .zip(k_deq.row(t)[2 * g..4 * g].iter())
                .map(|(&a, &b)| a * b)
                .sum();
            assert!((partial - reference_p).abs() <= reference_p.abs().max(1.0) * 1e-4);
        }
    }

    #[test]
    fn attend_matches_dequantized_weighted_sum() {
        let mut gen = TensorGenerator::new(79);
        let dim = 64;
        let g = 16;
        let mut vq = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        let v = gen.group_diverse_matrix(40, dim, dim, 0.5);
        vq.prefill(&v); // 2 committed windows + 8 staged rows
        assert_eq!(vq.committed_windows(), 2);
        assert_eq!(vq.window_len(), 8);
        // Softmax-like probabilities.
        let mut probs: Vec<f32> = (0..40).map(|i| (-(i as f32) * 0.1).exp()).collect();
        let z: f32 = probs.iter().sum();
        probs.iter_mut().for_each(|p| *p /= z);

        let mut fused = vec![0.0f32; dim];
        vq.attend(&probs, 0, &mut fused);
        // Reference: the same weighted sum over the dequantized cache with
        // probabilities quantized the same way per window (the only extra
        // error source the integer path introduces).
        let deq = vq.dequantize();
        for (c, &f) in fused.iter().enumerate() {
            let mut reference = 0.0f32;
            for t0 in (0..40).step_by(g) {
                let hi = (t0 + g).min(40);
                let (pcodes, pscale) = quantize_probs_int8(&probs[t0..hi]).unwrap();
                for (j, &pc) in pcodes.iter().enumerate() {
                    reference += f32::from(pc) * pscale * deq[(t0 + j, c)];
                }
            }
            assert!(
                (f - reference).abs() < 1e-4,
                "channel {c}: {f} vs {reference}"
            );
        }
        // And the INT8 prob quantization itself is near-lossless: the
        // fused result tracks the exact f32 weighted sum closely.
        for (c, &f) in fused.iter().enumerate() {
            let exact: f32 = (0..40).map(|t| probs[t] * deq[(t, c)]).sum();
            assert!(
                (f - exact).abs() < 2e-2,
                "channel {c}: fused {f} vs exact {exact}"
            );
        }
        // Channel sub-ranges accumulate (attend adds into `out`).
        let mut partial = vec![1.0f32; 8];
        vq.attend(&probs, 8, &mut partial);
        for (j, &p) in partial.iter().enumerate() {
            assert!((p - 1.0 - fused[8 + j]).abs() < 1e-6);
        }
    }

    #[test]
    fn staged_attend_bits_equal_the_per_channel_int8_dot() {
        // The row-major sweep must give every channel the bits of the
        // column formulation it replaced: one `int8_dot` of the window's
        // probability codes against the channel's staged codes, scaled in
        // f64 and added as one f32.
        let mut gen = TensorGenerator::new(83);
        let (dim, g) = (48usize, 16usize);
        let mut staging = VStaging::new(dim, g, vmap());
        let v = gen.group_diverse_matrix(11, dim, dim, 0.7);
        for t in 0..11 {
            assert!(staging.push(v.row(t)).is_none());
        }
        let probs: Vec<f32> = (0..11).map(|i| 0.3 / (1.0 + i as f32)).collect();
        let (chan_lo, width) = (16usize, 24usize);
        let mut got = vec![0.25f32; width];
        staging.attend_staged(&probs, chan_lo, &mut got);

        let (pcodes, pscale) = quantize_probs_int8(&probs).unwrap();
        for (j, &o) in got.iter().enumerate() {
            let c = chan_lo + j;
            let col: Vec<i8> = (0..staging.rows())
                .map(|t| staging.staged_row(t)[c])
                .collect();
            let s8 = staging.staging_scale(c);
            let int_result = kernels().int8_dot(&pcodes, &col);
            let want = 0.25f32 + (f64::from(pscale) * f64::from(s8) * int_result as f64) as f32;
            assert_eq!(o.to_bits(), want.to_bits(), "channel {c}");
        }
    }

    /// The staging engine as it was before rows were quantized across
    /// channels: one channel at a time, one element at a time, a
    /// `RunningGroupStats` per channel, per-element `GroupDtype::encode` at
    /// the commit. The oracle of [`VStaging`].
    struct ScalarStaging {
        group_size: usize,
        vmap: VarianceMap,
        scales: Vec<f32>,
        window: Vec<Vec<i8>>,
        stats: Vec<RunningGroupStats>,
    }

    impl ScalarStaging {
        fn new(dim: usize, group_size: usize, vmap: VarianceMap) -> Self {
            ScalarStaging {
                group_size,
                vmap,
                scales: vec![0.0; dim],
                window: Vec::new(),
                stats: vec![RunningGroupStats::new(); dim],
            }
        }

        fn push(&mut self, v: &[f32]) -> Option<CommittedWindow> {
            let mut row = Vec::new();
            for (c, &x) in v.iter().enumerate() {
                if self.scales[c] == 0.0 && x != 0.0 {
                    self.scales[c] = int8_scale(x.abs());
                }
                if x.abs() > 127.0 * self.scales[c] {
                    let old = self.scales[c].max(f32::MIN_POSITIVE);
                    let new = int8_scale(x.abs());
                    for staged in &mut self.window {
                        let rescaled = f32::from(staged[c]) * old / new;
                        staged[c] = quantize_symmetric_int(rescaled, 127) as i8;
                    }
                    self.scales[c] = new;
                }
                let s = self.scales[c].max(f32::MIN_POSITIVE);
                row.push(quantize_symmetric_int(x / s, 127) as i8);
                self.stats[c].push(x);
            }
            self.window.push(row);
            (self.window.len() == self.group_size).then(|| self.commit())
        }

        fn commit(&mut self) -> CommittedWindow {
            let gb = self.group_size.div_ceil(2);
            let mut meta = Vec::new();
            let mut codes = Vec::new();
            for c in 0..self.scales.len() {
                let dtype = self.vmap.select_for(&self.stats[c]);
                let s8 = self.scales[c].max(f32::MIN_POSITIVE);
                let group: Vec<f32> = self.window.iter().map(|r| f32::from(r[c]) * s8).collect();
                let scale = dtype.scale_for(abs_max(&group));
                meta.push(GroupMeta { dtype, scale });
                let nibbles: Vec<u8> = group.iter().map(|&x| dtype.encode(x, scale)).collect();
                let packed = mant_numerics::pack_nibbles(&nibbles);
                assert_eq!(packed.len(), gb);
                codes.extend(packed);
                self.stats[c].reset();
            }
            self.window.clear();
            CommittedWindow { meta, codes }
        }
    }

    fn assert_staging_equals_oracle(staging: &VStaging, oracle: &ScalarStaging) {
        assert_eq!(staging.rows(), oracle.window.len());
        for (t, row) in oracle.window.iter().enumerate() {
            assert_eq!(staging.staged_row(t), &row[..], "staged row {t}");
        }
        let bits = |s: &[f32]| -> Vec<u32> { s.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&staging.channel_scales), bits(&oracle.scales));
        for (c, stats) in oracle.stats.iter().enumerate() {
            let got = RunningGroupStats::from_parts(
                staging.sum[c],
                staging.sum_sq[c],
                staging.abs_max[c],
                staging.rows(),
            );
            // Through `Debug` (shortest round-trip digits), so a channel
            // that has absorbed a NaN still compares equal to itself.
            assert_eq!(format!("{got:?}"), format!("{stats:?}"), "channel {c}");
        }
    }

    #[test]
    fn staging_across_channels_equals_the_row_at_a_time_scalar_path() {
        // 24 channels = three eight-lane vectors, window of 8, no prefill:
        // every scale is bootstrapped, and late — channels 3 and 12 stay at
        // zero while their vector neighbours are live — then channels 9, 17
        // and 1 outgrow their scales (re-encoding what is staged) beside
        // lanes that do neither. A cut at three rows must undo channel 1's
        // widening, which only a dropped row caused.
        let (dim, g) = (24usize, 8usize);
        let mut gen = TensorGenerator::new(91);
        let mut rows: Vec<Vec<f32>> = (0..16)
            .map(|_| (0..dim).map(|_| gen.uniform(-1.0, 1.0)).collect())
            .collect();
        for row in rows.iter_mut().take(1) {
            row[3] = 0.0;
            row[12] = 0.0;
        }
        rows[1][9] = 55.0;
        rows[1][12] = -0.0;
        rows[2][17] = -31.0;
        rows[2][12] = 0.4;
        rows[4][1] = 900.0;
        rows[5][20] = f32::NAN;

        let mut staging = VStaging::new(dim, g, vmap());
        let mut oracle = ScalarStaging::new(dim, g, vmap());
        for row in &rows[..6] {
            assert!(staging.push(row).is_none() && oracle.push(row).is_none());
            assert_staging_equals_oracle(&staging, &oracle);
        }
        // Cut mid-window; the oracle is a twin that never saw rows 3..6.
        staging.truncate(3);
        let mut oracle = ScalarStaging::new(dim, g, vmap());
        for row in &rows[..3] {
            oracle.push(row);
        }
        assert_staging_equals_oracle(&staging, &oracle);
        // On through the commit and into the next window.
        for row in &rows[6..] {
            let (got, want) = (staging.push(row), oracle.push(row));
            assert_eq!(got.is_some(), want.is_some());
            if let (Some(got), Some(want)) = (got, want) {
                assert_eq!(got.meta, want.meta);
                assert_eq!(got.codes, want.codes);
            }
            assert_staging_equals_oracle(&staging, &oracle);
        }
        assert_eq!(staging.rows(), 16 - 3 - g);
    }

    #[test]
    fn attention_helpers_agree_incl_gqa() {
        // The shared incremental/dequantize attention pair must agree up
        // to the INT8 query/probability rounding, for MHA and GQA head
        // layouts alike.
        let mut gen = TensorGenerator::new(80);
        let (head_dim, g) = (32, 16);
        for (heads, kv_heads) in [(4usize, 4usize), (4, 2), (4, 1)] {
            let kv_dim = kv_heads * head_dim;
            let vmap = vmap();
            let mut kc = KCacheQuantizer::new(kv_dim, g, vmap.clone()).unwrap();
            let mut vc = VCacheQuantizer::new(kv_dim, g, vmap).unwrap();
            kc.prefill(&gen.group_diverse_matrix(40, kv_dim, g, 0.5));
            vc.prefill(&gen.group_diverse_matrix(40, kv_dim, kv_dim, 0.5));
            let q: Vec<f32> = (0..heads * head_dim)
                .map(|_| gen.standard_normal())
                .collect();
            let reference = attention_dequantize(&q, &kc, &vc, heads, kv_heads, head_dim);
            let fused = attention_incremental(&q, &kc, &vc, heads, kv_heads, head_dim);
            let norm: f32 = reference
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt()
                .max(1e-6);
            let dist: f32 = reference
                .iter()
                .zip(fused.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            assert!(
                dist / norm < 0.05,
                "heads={heads} kv_heads={kv_heads}: rel diff {}",
                dist / norm
            );
        }
    }

    #[test]
    fn reset_caches_reproduce_fresh_caches_bit_exactly() {
        // Recycling a finished session's cache via reset() must leave no
        // trace: the next sequence's codes, metadata, and fused results
        // must equal a freshly constructed cache's bit for bit.
        let mut gen = TensorGenerator::new(81);
        let (dim, g) = (64, 16);
        let first = gen.group_diverse_matrix(21, dim, g, 0.5);
        let second = gen.group_diverse_matrix(13, dim, g, 0.7);
        let q_vec: Vec<f32> = (0..dim).map(|_| gen.standard_normal()).collect();
        let qv = quantize_vector_int8(&q_vec, g).unwrap();
        let probs: Vec<f32> = (0..13).map(|i| 1.0 / (i as f32 + 2.0)).collect();

        let mut kq = KCacheQuantizer::new(dim, g, vmap()).unwrap();
        kq.prefill(&first);
        kq.reset();
        assert!(kq.is_empty());
        let mut vq = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        vq.prefill(&first);
        vq.reset();
        assert!(vq.is_empty());
        assert_eq!(vq.committed_windows(), 0);

        let mut kq_fresh = KCacheQuantizer::new(dim, g, vmap()).unwrap();
        let mut vq_fresh = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        for r in 0..second.rows() {
            kq.push(second.row(r));
            kq_fresh.push(second.row(r));
            vq.push(second.row(r));
            vq_fresh.push(second.row(r));
        }
        assert_eq!(kq.dequantize().as_slice(), kq_fresh.dequantize().as_slice());
        for t in 0..13 {
            assert_eq!(
                kq.fused_dot(t, &qv, 0, 0, dim / g).to_bits(),
                kq_fresh.fused_dot(t, &qv, 0, 0, dim / g).to_bits()
            );
        }
        assert_eq!(vq.dequantize().as_slice(), vq_fresh.dequantize().as_slice());
        let (mut a, mut b) = (vec![0.0f32; dim], vec![0.0f32; dim]);
        vq.attend(&probs, 0, &mut a);
        vq_fresh.attend(&probs, 0, &mut b);
        assert_eq!(a, b);
        assert_eq!(vq.storage_bits(), vq_fresh.storage_bits());
    }

    #[test]
    fn k_truncate_matches_fresh_prefix() {
        let mut gen = TensorGenerator::new(82);
        let k = gen.group_diverse_matrix(17, 64, 16, 0.5);
        let mut full = KCacheQuantizer::new(64, 16, vmap()).unwrap();
        full.prefill(&k);
        full.truncate(9);
        assert_eq!(full.len(), 9);
        let mut prefix = KCacheQuantizer::new(64, 16, vmap()).unwrap();
        prefix.prefill(&k.top_rows(9));
        assert_eq!(full.dequantize().as_slice(), prefix.dequantize().as_slice());
        // Continuing after the rollback behaves like a fresh cache too.
        full.push(k.row(16));
        prefix.push(k.row(16));
        assert_eq!(full.dequantize().as_slice(), prefix.dequantize().as_slice());
        full.truncate(0);
        assert!(full.is_empty());
    }

    #[test]
    fn v_truncate_in_staging_and_at_window_boundaries() {
        let mut gen = TensorGenerator::new(83);
        let (dim, g) = (32, 8);
        let v = gen.group_diverse_matrix(21, dim, dim, 0.5);
        let mut vq = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        vq.prefill(&v); // 2 committed windows + 5 staged rows
        assert_eq!((vq.committed_windows(), vq.window_len()), (2, 5));

        // Cut inside the staging window: staged suffix dropped, committed
        // windows untouched, and continuing re-commits identically to a
        // cache that never saw the dropped rows.
        let mut twin = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        twin.prefill(&v);
        vq.truncate(18);
        assert_eq!((vq.committed_windows(), vq.window_len()), (2, 2));
        let deq_full = twin.dequantize();
        let deq_cut = vq.dequantize();
        assert_eq!(&deq_full.as_slice()[..18 * dim], deq_cut.as_slice());
        // Refill the dropped rows: the rebuilt RQU stats must commit the
        // third window exactly as the uncut cache did.
        for r in 18..21 {
            vq.push(v.row(r));
        }
        for _ in 21..24 {
            let row: Vec<f32> = (0..dim).map(|_| gen.uniform(-1.0, 1.0)).collect();
            vq.push(&row);
            twin.push(&row);
        }
        assert_eq!(vq.committed_windows(), 3);
        assert_eq!(vq.dequantize().as_slice(), twin.dequantize().as_slice());

        // Window-boundary cut in the committed region.
        vq.truncate(8);
        assert_eq!((vq.committed_windows(), vq.window_len()), (1, 0));
        assert_eq!(vq.len(), 8);
    }

    #[test]
    fn v_truncate_undoes_widening_from_dropped_rows() {
        // A dropped staged row widened a channel scale; after truncation
        // the cache must be bit-identical to a twin that never saw it —
        // including the staged INT8 codes, whose widening-time re-encode
        // is lossy and must be undone by replay, not kept.
        let (dim, g) = (4usize, 8usize);
        let mut vq = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        let mut twin = VCacheQuantizer::new(dim, g, vmap()).unwrap();
        let quiet = vec![0.25f32, -0.5, 0.125, 0.75];
        for _ in 0..3 {
            vq.push(&quiet);
            twin.push(&quiet);
        }
        // The spike bootstraps channel 0 far wider than `quiet` needs.
        vq.push(&[100.0, -0.5, 0.125, 0.75]);
        vq.truncate(3);
        assert_eq!(vq.dequantize().as_slice(), twin.dequantize().as_slice());
        // Continuing after the rollback matches the twin bit for bit,
        // through the next commit and beyond.
        for i in 0..g {
            let row: Vec<f32> = (0..dim)
                .map(|c| 0.3 * (i as f32 + 1.0) - c as f32 * 0.1)
                .collect();
            vq.push(&row);
            twin.push(&row);
        }
        assert_eq!(vq.committed_windows(), twin.committed_windows());
        assert_eq!(vq.dequantize().as_slice(), twin.dequantize().as_slice());
    }

    #[test]
    #[should_panic(expected = "inside a committed V window")]
    fn v_truncate_inside_committed_window_rejected() {
        let mut gen = TensorGenerator::new(84);
        let mut vq = VCacheQuantizer::new(16, 8, vmap()).unwrap();
        vq.prefill(&gen.group_diverse_matrix(16, 16, 16, 0.5));
        vq.truncate(3);
    }

    #[test]
    #[should_panic(expected = "exceeds cached rows")]
    fn truncate_beyond_len_rejected() {
        let mut kq = KCacheQuantizer::new(16, 16, vmap()).unwrap();
        kq.push(&[0.5; 16]);
        kq.truncate(2);
    }

    #[test]
    fn empty_caches() {
        let kq = KCacheQuantizer::new(16, 16, vmap()).unwrap();
        assert!(kq.is_empty());
        let vq = VCacheQuantizer::new(16, 4, vmap()).unwrap();
        assert!(vq.is_empty());
        assert_eq!(vq.dequantize().shape(), (0, 16));
    }
}
