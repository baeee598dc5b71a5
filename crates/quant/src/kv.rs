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
//!
//! This module holds the **encode engines** only — `encode_k_row_into`,
//! `VStaging`, the probability quantizer, and `attend_window` (the
//! per-channel reference of committed-window `P·V`). Where the
//! bytes land, and every public cache operation over them, is
//! [`crate::pool`]'s [`crate::PagedKvCache`]: the one KV store.

use mant_numerics::fp16::quantize_fp16;
use mant_numerics::int::quantize_symmetric_int;
use mant_numerics::kernels;
use mant_tensor::{abs_max, Matrix, RunningGroupStats};

use crate::fused::group_dot_packed;
use crate::mantq::{encode_group_packed, GroupMeta};
use crate::variance::VarianceMap;

/// Encodes one key row's groups into pre-sized **packed** code/metadata
/// slices: per group, streaming stats → variance-selected dtype → FP16
/// scale → packed 4-bit codes (two per byte, byte-aligned groups). The
/// spatial K engine: [`crate::PagedKvCache::push`] points it at the
/// arriving row's slot in the pool.
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
///
/// The per-channel **reference** behind [`crate::PagedKvCache::attend`]:
/// one [`group_dot_packed`] per channel. Decode attention takes a head's
/// channels of a window in one `dot_packed_rows_scaled` call instead,
/// with the same term, rounded to f32 the same way, per channel.
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
/// staging/commit logic; a [`crate::PagedKvCache`] view owns one and
/// copies each committed window into its pool block.
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
    use crate::activation::quantize_vector_int8;
    use crate::pool::{
        attention_f32, attention_incremental_paged, KvCachePool, PagedKvCache, PoolConfig,
    };
    use crate::search::CandidateSet;
    use mant_tensor::{mse, TensorGenerator};

    fn vmap() -> VarianceMap {
        VarianceMap::analytic(&CandidateSet::paper()).unwrap()
    }

    /// An empty cache over a private one-block pool with room for `tokens`
    /// rows — the contiguous layout (`slot == t`), so these tests exercise
    /// the engines, not block arithmetic. Tests that only care about one
    /// side push the same row as key and value.
    fn cache(kv_dim: usize, group_size: usize, tokens: usize) -> (KvCachePool, PagedKvCache) {
        let pool = KvCachePool::new(PoolConfig {
            kv_dim,
            group_size,
            block_tokens: tokens.next_multiple_of(group_size),
            blocks: 1,
        })
        .unwrap();
        let cache = PagedKvCache::new(&pool, vmap(), vmap());
        (pool, cache)
    }

    fn relative_error(orig: &Matrix, deq: &Matrix) -> f64 {
        let err = mse(orig.as_slice(), deq.as_slice());
        let power = mse(orig.as_slice(), &vec![0.0; orig.len()]);
        err / power.max(1e-30)
    }

    #[test]
    fn k_cache_spatial_roundtrip() {
        let mut gen = TensorGenerator::new(71);
        let (mut pool, mut kv) = cache(128, 64, 40);
        let k = gen.group_diverse_matrix(40, 128, 64, 0.5);
        kv.prefill(&mut pool, &k, &k).unwrap();
        assert_eq!(kv.len(), 40);
        let deq = kv.dequantize_k(&pool);
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
        // Keys are encoded row-independently: a prefill (which also derives
        // V staging scales) and a push loop leave the same K rows.
        let mut gen = TensorGenerator::new(72);
        let k = gen.group_diverse_matrix(10, 128, 64, 0.5);
        let (mut pool_a, mut a) = cache(128, 64, 10);
        a.prefill(&mut pool_a, &k, &k).unwrap();
        let (mut pool_b, mut b) = cache(128, 64, 10);
        for r in 0..k.rows() {
            b.push(&mut pool_b, k.row(r), k.row(r)).unwrap();
        }
        assert_eq!(
            a.dequantize_k(&pool_a).as_slice(),
            b.dequantize_k(&pool_b).as_slice()
        );
    }

    #[test]
    fn k_cache_bad_group_size() {
        let bad = PoolConfig {
            kv_dim: 100,
            group_size: 64,
            block_tokens: 64,
            blocks: 1,
        };
        assert!(KvCachePool::new(bad).is_err());
    }

    #[test]
    fn v_cache_two_phase_counts() {
        let mut gen = TensorGenerator::new(73);
        let (mut pool, mut kv) = cache(32, 8, 20);
        let v = gen.group_diverse_matrix(20, 32, 32, 0.5);
        kv.prefill(&mut pool, &v, &v).unwrap();
        // 20 rows with window 8 → 2 committed windows + 4 staged rows.
        assert_eq!(kv.committed_windows(), 2);
        assert_eq!(kv.window_len(), 4);
        assert_eq!(kv.len(), 20);
    }

    #[test]
    fn v_cache_roundtrip_error_small() {
        let mut gen = TensorGenerator::new(74);
        let (mut pool, mut kv) = cache(64, 16, 64);
        let v = gen.group_diverse_matrix(64, 64, 64, 0.5);
        kv.prefill(&mut pool, &v, &v).unwrap();
        let deq = kv.dequantize_v(&pool);
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
        let (mut pool, mut kv) = cache(16, 4, 4);
        for i in 0..4 {
            let row: Vec<f32> = (0..16).map(|_| gen.uniform(-1.0, 1.0)).collect();
            kv.push(&mut pool, &row, &row).unwrap();
            if i < 3 {
                assert_eq!(kv.committed_windows(), 0);
                assert_eq!(kv.window_len(), i + 1);
            }
        }
        assert_eq!(kv.committed_windows(), 1);
        assert_eq!(kv.window_len(), 0);
    }

    #[test]
    fn v_cache_decode_only_bootstraps_scales() {
        // No prefill at all: the engine must still work (scales bootstrap).
        let mut gen = TensorGenerator::new(76);
        let (mut pool, mut kv) = cache(8, 4, 8);
        let mut rows = Matrix::zeros(0, 0);
        for _ in 0..8 {
            let row: Vec<f32> = (0..8).map(|_| gen.uniform(-2.0, 2.0)).collect();
            kv.push(&mut pool, &row, &row).unwrap();
            rows.push_row(&row);
        }
        let deq = kv.dequantize_v(&pool);
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
        let (mut pool, mut kv) = cache(32, 16, 24);
        let v = gen.group_diverse_matrix(24, 32, 32, 0.5);
        kv.prefill(&mut pool, &v, &v).unwrap(); // 1 window committed, 8 rows staged
        let deq = kv.dequantize_v(&pool);
        let committed_err = mse(&v.as_slice()[..16 * 32], &deq.as_slice()[..16 * 32]);
        let staged_err = mse(&v.as_slice()[16 * 32..], &deq.as_slice()[16 * 32..]);
        assert!(
            staged_err < committed_err,
            "{staged_err} vs {committed_err}"
        );
    }

    #[test]
    fn fused_dot_matches_dequantized_scores() {
        let mut gen = TensorGenerator::new(78);
        let dim = 128;
        let g = 32;
        let (mut pool, mut kv) = cache(dim, g, 24);
        let k = gen.group_diverse_matrix(24, dim, g, 0.5);
        kv.prefill(&mut pool, &k, &k).unwrap();
        let q_vec: Vec<f32> = (0..dim).map(|_| gen.standard_normal()).collect();
        let qv = quantize_vector_int8(&q_vec, g).unwrap();
        let q_deq = qv.dequantize();
        let k_deq = kv.dequantize_k(&pool);
        // Whole-row dots and per-head (2-group) partial dots both match
        // the dequantize-then-f32 reference on the same quantized query.
        for t in 0..24 {
            let full = kv.fused_dot(&pool, t, &qv, 0, 0, dim / g);
            let reference: f32 = q_deq
                .iter()
                .zip(k_deq.row(t).iter())
                .map(|(&a, &b)| a * b)
                .sum();
            assert!(
                (full - reference).abs() <= reference.abs().max(1.0) * 1e-4,
                "t={t}: {full} vs {reference}"
            );
            let partial = kv.fused_dot(&pool, t, &qv, 2, 2, 2);
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
        let (mut pool, mut kv) = cache(dim, g, 40);
        let v = gen.group_diverse_matrix(40, dim, dim, 0.5);
        kv.prefill(&mut pool, &v, &v).unwrap(); // 2 committed windows + 8 staged rows
        assert_eq!(kv.committed_windows(), 2);
        assert_eq!(kv.window_len(), 8);
        // Softmax-like probabilities.
        let mut probs: Vec<f32> = (0..40).map(|i| (-(i as f32) * 0.1).exp()).collect();
        let z: f32 = probs.iter().sum();
        probs.iter_mut().for_each(|p| *p /= z);

        let mut fused = vec![0.0f32; dim];
        kv.attend(&pool, &probs, 0, &mut fused);
        // Reference: the same weighted sum over the dequantized cache with
        // probabilities quantized the same way per window (the only extra
        // error source the integer path introduces).
        let deq = kv.dequantize_v(&pool);
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
        kv.attend(&pool, &probs, 8, &mut partial);
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
        staging.attend_staged_with(&probs, &mut [0; 11], chan_lo, &mut got);

        let (pcodes, pscale) = quantize_probs_int8(&probs).unwrap();
        for (j, &o) in got.iter().enumerate() {
            let c = chan_lo + j;
            let col: Vec<i8> = (0..staging.rows())
                .map(|t| staging.staged_row(t)[c])
                .collect();
            let s8 = staging.staging_scale(c);
            let int_result = kernels::int8_dot(&pcodes, &col);
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
        // The incremental path and the dequantize path (the shared f32
        // loop over the dequantized cache) must agree up to the INT8
        // query/probability rounding, for MHA and GQA head layouts alike.
        let mut gen = TensorGenerator::new(80);
        let (head_dim, g) = (32, 16);
        for (heads, kv_heads) in [(4usize, 4usize), (4, 2), (4, 1)] {
            let kv_dim = kv_heads * head_dim;
            let (mut pool, mut kv) = cache(kv_dim, g, 40);
            let k = gen.group_diverse_matrix(40, kv_dim, g, 0.5);
            let v = gen.group_diverse_matrix(40, kv_dim, kv_dim, 0.5);
            kv.prefill(&mut pool, &k, &v).unwrap();
            let q: Vec<f32> = (0..heads * head_dim)
                .map(|_| gen.standard_normal())
                .collect();
            let (k_all, v_all) = (kv.dequantize_k(&pool), kv.dequantize_v(&pool));
            let reference = attention_f32(&q, &k_all, &v_all, heads, kv_heads, head_dim);
            let fused = attention_incremental_paged(&q, &kv, &pool, heads, kv_heads, head_dim);
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
    fn k_truncate_matches_fresh_prefix() {
        // Keys are encoded row-independently, so a cut cache reads — rows
        // and fused dots — like a fresh cache fed only the kept prefix. The
        // V side is cut with it, so the cut lands in the staging region
        // (29 rows: one committed window, 13 staged).
        let mut gen = TensorGenerator::new(82);
        let k = gen.group_diverse_matrix(29, 64, 16, 0.5);
        let qv = quantize_vector_int8(k.row(28), 16).unwrap();
        let (mut pool, mut full) = cache(64, 16, 29);
        full.prefill(&mut pool, &k, &k).unwrap();
        full.truncate(&mut pool, 19);
        assert_eq!(full.len(), 19);
        let (mut prefix_pool, mut prefix) = cache(64, 16, 29);
        prefix
            .prefill(&mut prefix_pool, &k.top_rows(19), &k.top_rows(19))
            .unwrap();
        // Continuing after the rollback behaves like a fresh cache too.
        full.push(&mut pool, k.row(28), k.row(28)).unwrap();
        prefix.push(&mut prefix_pool, k.row(28), k.row(28)).unwrap();
        assert_eq!(
            full.dequantize_k(&pool).as_slice(),
            prefix.dequantize_k(&prefix_pool).as_slice()
        );
        for t in 0..20 {
            assert_eq!(
                full.fused_dot(&pool, t, &qv, 0, 0, 4).to_bits(),
                prefix.fused_dot(&prefix_pool, t, &qv, 0, 0, 4).to_bits()
            );
        }
        full.truncate(&mut pool, 0);
        assert!(full.is_empty());
        assert_eq!(pool.free_blocks(), 1);
    }

    #[test]
    fn v_truncate_in_staging_and_at_window_boundaries() {
        let mut gen = TensorGenerator::new(83);
        let (dim, g) = (32, 8);
        let v = gen.group_diverse_matrix(21, dim, dim, 0.5);
        let (mut pool, mut kv) = cache(dim, g, 24);
        kv.prefill(&mut pool, &v, &v).unwrap(); // 2 committed windows + 5 staged rows
        assert_eq!((kv.committed_windows(), kv.window_len()), (2, 5));

        // Cut inside the staging window: staged suffix dropped, committed
        // windows untouched, and continuing re-commits identically to a
        // cache that never saw the dropped rows.
        let (mut twin_pool, mut twin) = cache(dim, g, 24);
        twin.prefill(&mut twin_pool, &v, &v).unwrap();
        kv.truncate(&mut pool, 18);
        assert_eq!((kv.committed_windows(), kv.window_len()), (2, 2));
        let deq_full = twin.dequantize_v(&twin_pool);
        let deq_cut = kv.dequantize_v(&pool);
        assert_eq!(&deq_full.as_slice()[..18 * dim], deq_cut.as_slice());
        // Refill the dropped rows: the rebuilt RQU stats must commit the
        // third window exactly as the uncut cache did.
        for r in 18..21 {
            kv.push(&mut pool, v.row(r), v.row(r)).unwrap();
        }
        for _ in 21..24 {
            let row: Vec<f32> = (0..dim).map(|_| gen.uniform(-1.0, 1.0)).collect();
            kv.push(&mut pool, &row, &row).unwrap();
            twin.push(&mut twin_pool, &row, &row).unwrap();
        }
        assert_eq!(kv.committed_windows(), 3);
        assert_eq!(
            kv.dequantize_v(&pool).as_slice(),
            twin.dequantize_v(&twin_pool).as_slice()
        );

        // Window-boundary cut in the committed region.
        kv.truncate(&mut pool, 8);
        assert_eq!((kv.committed_windows(), kv.window_len()), (1, 0));
        assert_eq!(kv.len(), 8);
    }

    #[test]
    fn v_truncate_undoes_widening_from_dropped_rows() {
        // A dropped staged row widened a channel scale; after truncation
        // the cache must be bit-identical to a twin that never saw it —
        // including the staged INT8 codes, whose widening-time re-encode
        // is lossy and must be undone by replay, not kept.
        let (dim, g) = (8usize, 8usize);
        let (mut pool, mut kv) = cache(dim, g, 16);
        let (mut twin_pool, mut twin) = cache(dim, g, 16);
        let quiet = [0.25f32, -0.5, 0.125, 0.75, -0.25, 0.5, -0.125, -0.75];
        for _ in 0..3 {
            kv.push(&mut pool, &quiet, &quiet).unwrap();
            twin.push(&mut twin_pool, &quiet, &quiet).unwrap();
        }
        // The spike bootstraps channel 0 far wider than `quiet` needs.
        let mut spike = quiet;
        spike[0] = 100.0;
        kv.push(&mut pool, &quiet, &spike).unwrap();
        kv.truncate(&mut pool, 3);
        assert_eq!(
            kv.dequantize_v(&pool).as_slice(),
            twin.dequantize_v(&twin_pool).as_slice()
        );
        // Continuing after the rollback matches the twin bit for bit,
        // through the next commit and beyond.
        for i in 0..g {
            let row: Vec<f32> = (0..dim)
                .map(|c| 0.3 * (i as f32 + 1.0) - c as f32 * 0.1)
                .collect();
            kv.push(&mut pool, &row, &row).unwrap();
            twin.push(&mut twin_pool, &row, &row).unwrap();
        }
        assert_eq!(kv.committed_windows(), twin.committed_windows());
        assert_eq!(
            kv.dequantize_v(&pool).as_slice(),
            twin.dequantize_v(&twin_pool).as_slice()
        );
    }

    #[test]
    fn empty_caches() {
        let (pool, kv) = cache(16, 4, 4);
        assert!(kv.is_empty());
        assert_eq!(kv.dequantize_k(&pool).shape(), (0, 16));
        assert_eq!(kv.dequantize_v(&pool).shape(), (0, 16));
    }
}
