//! Per-group data-type selection (paper Secs. V-A and V-C).
//!
//! Weights are encoded offline: for every group the framework searches the
//! paper's candidate set — fifteen MANT coefficients plus plain INT4 — for
//! the type minimizing quantization error. The plain variant minimizes the
//! weight-space MSE; the weighted variant minimizes the *output* MSE of
//! Eq. (6) under a diagonal approximation, using per-position second
//! moments `E[x²]` gathered from a calibration set.

use mant_numerics::{kernels, EncodeTable, NumericsError};

use crate::error::QuantError;
use crate::mantq::GroupDtype;

/// The paper's weight/KV candidate coefficients (Sec. V-A):
/// `{0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}`.
pub const PAPER_A_SET: [u32; 15] = [0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120];

/// The set of per-group data-type candidates to search over.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    candidates: Vec<GroupDtype>,
    /// The candidates as the group-encode kernel reads them, built once,
    /// same order.
    tables: Vec<EncodeTable>,
}

/// Candidates [`CandidateSet::select`] hands the kernel per sweep — the
/// paper's set in one; a larger custom set goes in several.
const SWEEP: usize = 16;

impl CandidateSet {
    /// The paper's configuration: fifteen MANT coefficients and "an
    /// additional INT option".
    pub fn paper() -> Self {
        let mut candidates: Vec<GroupDtype> = PAPER_A_SET
            .iter()
            .map(|&a| GroupDtype::mant(a).expect("paper set is within range"))
            .collect();
        candidates.push(GroupDtype::Int4);
        Self::from_candidates(candidates)
    }

    fn from_candidates(candidates: Vec<GroupDtype>) -> Self {
        let tables = candidates.iter().map(GroupDtype::encode_table).collect();
        CandidateSet { candidates, tables }
    }

    /// A custom set of MANT coefficients, optionally with the INT fallback.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidCoefficient`] if any `a ≥ 128`.
    pub fn custom(coefficients: &[u32], include_int: bool) -> Result<Self, NumericsError> {
        let mut candidates = Vec::with_capacity(coefficients.len() + 1);
        for &a in coefficients {
            candidates.push(GroupDtype::mant(a)?);
        }
        if include_int {
            candidates.push(GroupDtype::Int4);
        }
        Ok(Self::from_candidates(candidates))
    }

    /// The candidate data types.
    pub fn candidates(&self) -> &[GroupDtype] {
        &self.candidates
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidates' kernel tables, in candidate order.
    pub(crate) fn tables(&self) -> &[EncodeTable] {
        &self.tables
    }

    /// The search itself: index, error and scale of the candidate
    /// minimizing the mean `e²·ω` over `group` — the first one on a tie,
    /// candidate 0 (at infinite error) when no error compares below
    /// infinity.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty, or `weights` differs from `group` in
    /// length.
    pub(crate) fn select(&self, group: &[f32], weights: Option<&[f32]>) -> (usize, f64, f32) {
        assert!(!self.is_empty(), "search over an empty candidate set");
        let amax = kernels().abs_max(group);
        let mut scales = [0.0f32; SWEEP];
        let mut errs = [0.0f64; SWEEP];
        let mut best = (0usize, f64::INFINITY, 0.0f32);
        for (sweep, (dtypes, tables)) in self
            .candidates
            .chunks(SWEEP)
            .zip(self.tables.chunks(SWEEP))
            .enumerate()
        {
            let (scales, errs) = (&mut scales[..dtypes.len()], &mut errs[..dtypes.len()]);
            candidate_errors(dtypes, tables, group, weights, amax, scales, errs);
            if sweep == 0 {
                best.2 = scales[0];
            }
            for (i, (&err, &scale)) in errs.iter().zip(scales.iter()).enumerate() {
                if err < best.1 {
                    best = (sweep * SWEEP + i, err, scale);
                }
            }
        }
        best
    }
}

/// One sweep of the group-encode kernel: the FP16 scale `scales[c]` each
/// of `dtypes` gives a group of max magnitude `amax`, and `errs[c]`, the
/// mean `e²·ω` of encoding `group` with it (`tables[c]` is `dtypes[c]`'s
/// kernel table; `weights = None` means `ω = 1`). An all-zero group costs
/// nothing under any type.
pub(crate) fn candidate_errors(
    dtypes: &[GroupDtype],
    tables: &[EncodeTable],
    group: &[f32],
    weights: Option<&[f32]>,
    amax: f32,
    scales: &mut [f32],
    errs: &mut [f64],
) {
    for (scale, dtype) in scales.iter_mut().zip(dtypes) {
        *scale = dtype.scale_for(amax);
    }
    if amax == 0.0 {
        errs.fill(0.0);
        return;
    }
    kernels().encode_errors(tables, scales, group, weights, errs);
    let n = group.len() as f64;
    for err in errs {
        *err /= n;
    }
}

impl Default for CandidateSet {
    fn default() -> Self {
        CandidateSet::paper()
    }
}

/// Selects the candidate minimizing plain weight MSE over `group`.
/// Returns the winning type and its MSE.
///
/// # Errors
///
/// Returns [`QuantError::EmptyCandidateSet`] if `set` has no candidates.
pub fn select_group_dtype(
    group: &[f32],
    set: &CandidateSet,
) -> Result<(GroupDtype, f64), QuantError> {
    select_group_dtype_weighted(group, None, set)
}

/// Selects the candidate minimizing `Σ e_j²·ω_j`, where `ω_j` is the
/// calibration second moment of the activation multiplying weight `j`
/// (`None` means uniform weights → plain MSE). This is the diagonal
/// surrogate of the paper's output-MSE objective (Eq. (6)).
///
/// # Errors
///
/// Returns [`QuantError::EmptyCandidateSet`] if `set` has no candidates, and
/// [`QuantError::ShapeMismatch`] if `weights` is present with a different
/// length than `group`.
pub fn select_group_dtype_weighted(
    group: &[f32],
    weights: Option<&[f32]>,
    set: &CandidateSet,
) -> Result<(GroupDtype, f64), QuantError> {
    if set.is_empty() {
        return Err(QuantError::EmptyCandidateSet);
    }
    if let Some(w) = weights {
        if w.len() != group.len() {
            return Err(QuantError::ShapeMismatch {
                context: "calibration weights vs group length",
            });
        }
    }
    let (best, err, _) = set.select(group, weights);
    Ok((set.candidates()[best], err))
}

/// Mean squared quantization error of encoding `group` with `dtype` at the
/// type's own symmetric scale — the quantity the per-group search minimizes.
/// Exposed for LUT calibration and benchmarking.
pub fn group_quantization_error(group: &[f32], dtype: GroupDtype) -> f64 {
    group_quantization_error_weighted(group, None, dtype)
}

/// Like [`group_quantization_error`], with optional per-position weights
/// `ω_j` (the diagonal output-MSE surrogate of Eq. (6)); `None` means
/// uniform weights.
pub fn group_quantization_error_weighted(
    group: &[f32],
    weights: Option<&[f32]>,
    dtype: GroupDtype,
) -> f64 {
    let mut err = [0.0f64];
    candidate_errors(
        &[dtype],
        &[dtype.encode_table()],
        group,
        weights,
        kernels().abs_max(group),
        &mut [0.0],
        &mut err,
    );
    err[0]
}

/// Runs the per-group search over a batch of groups, serially.
///
/// # Errors
///
/// Returns [`QuantError::EmptyCandidateSet`] if `set` has no candidates.
pub fn select_group_dtypes_batch(
    groups: &[&[f32]],
    set: &CandidateSet,
) -> Result<Vec<(GroupDtype, f64)>, QuantError> {
    groups.iter().map(|g| select_group_dtype(g, set)).collect()
}

/// Runs the per-group search over a batch of groups, fanned across
/// threads. Bit-identical to [`select_group_dtypes_batch`] (groups are
/// independent and results are reassembled in order); serial when the
/// `parallel` feature is disabled.
///
/// # Errors
///
/// Returns [`QuantError::EmptyCandidateSet`] if `set` has no candidates.
pub fn par_select_group_dtypes_batch(
    groups: &[&[f32]],
    set: &CandidateSet,
) -> Result<Vec<(GroupDtype, f64)>, QuantError> {
    mant_tensor::par::par_map_slice(groups, |g| select_group_dtype(g, set))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mant_tensor::{DistributionKind, TensorGenerator};

    #[test]
    fn paper_set_has_16_candidates() {
        let set = CandidateSet::paper();
        assert_eq!(set.len(), 16);
        assert!(set.candidates().contains(&GroupDtype::Int4));
    }

    #[test]
    fn custom_set_validates_coefficients() {
        assert!(CandidateSet::custom(&[0, 17, 200], true).is_err());
        let s = CandidateSet::custom(&[17], false).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_set_is_error() {
        let s = CandidateSet::custom(&[], false).unwrap();
        assert_eq!(
            select_group_dtype(&[1.0, 2.0], &s),
            Err(QuantError::EmptyCandidateSet)
        );
    }

    #[test]
    fn uniform_data_selects_int_like() {
        // Uniform distributions are INT's home turf (Sec. II-B).
        let mut g = TensorGenerator::new(21);
        let data: Vec<f32> = (0..128)
            .map(|_| g.sample(DistributionKind::Uniform, 1.0))
            .collect();
        let (dtype, _) = select_group_dtype(&data, &CandidateSet::paper()).unwrap();
        // INT4 or a large-a MANT (which approaches uniform).
        let ok = match dtype {
            GroupDtype::Int4 => true,
            GroupDtype::Mant(m) => m.coefficient() >= 60,
        };
        assert!(ok, "selected {dtype:?}");
    }

    #[test]
    fn peaked_data_selects_small_a() {
        // Laplace-like data wants PoT-like (small a) grids.
        let mut g = TensorGenerator::new(22);
        let data: Vec<f32> = (0..128)
            .map(|_| g.sample(DistributionKind::Laplace, 1.0))
            .collect();
        // Sharpen the peak further to make PoT clearly optimal.
        let data: Vec<f32> = data.iter().map(|&x| x * x * x.signum() * 0.1).collect();
        let (dtype, _) = select_group_dtype(&data, &CandidateSet::paper()).unwrap();
        match dtype {
            GroupDtype::Mant(m) => assert!(m.coefficient() <= 20, "a={}", m.coefficient()),
            GroupDtype::Int4 => panic!("INT selected for sharply peaked data"),
        }
    }

    #[test]
    fn selection_error_is_minimal() {
        let mut g = TensorGenerator::new(23);
        let data: Vec<f32> = (0..64)
            .map(|_| g.sample(DistributionKind::Gaussian, 0.3))
            .collect();
        let set = CandidateSet::paper();
        let (best, best_err) = select_group_dtype(&data, &set).unwrap();
        for &cand in set.candidates() {
            let err = group_quantization_error(&data, cand);
            assert!(best_err <= err + 1e-12, "{best:?} beaten by {cand:?}");
        }
    }

    #[test]
    fn weighted_selection_prioritizes_hot_positions() {
        // Group with one large-magnitude position; weighting that position
        // heavily must not increase its weighted error vs unweighted choice.
        let group = [0.01f32, 0.02, -0.015, 0.9, 0.02, -0.01, 0.015, 0.01];
        let mut weights = [1.0f32; 8];
        weights[3] = 100.0;
        let set = CandidateSet::paper();
        let (_, unweighted_err) =
            select_group_dtype_weighted(&group, Some(&weights), &set).unwrap();
        let (dt_plain, _) = select_group_dtype(&group, &set).unwrap();
        let plain_under_weights =
            group_quantization_error_weighted(&group, Some(&weights), dt_plain);
        assert!(unweighted_err <= plain_under_weights + 1e-12);
    }

    /// The search as it was before the group-encode kernel: one
    /// per-element `quantize_value` loop per candidate, first minimum wins.
    fn oracle_select(
        group: &[f32],
        weights: Option<&[f32]>,
        set: &CandidateSet,
    ) -> (usize, GroupDtype, f64) {
        let amax = mant_tensor::abs_max(group);
        let mut best = (0, set.candidates()[0], f64::INFINITY);
        for (i, &cand) in set.candidates().iter().enumerate() {
            let err = if amax == 0.0 {
                0.0
            } else {
                let scale = cand.scale_for(amax);
                let mut acc = 0.0f64;
                for (j, &x) in group.iter().enumerate() {
                    let e = f64::from(x - cand.quantize_value(x, scale));
                    acc += e * e * weights.map_or(1.0, |ws| f64::from(ws[j]));
                }
                acc / group.len() as f64
            };
            if err < best.2 {
                best = (i, cand, err);
            }
        }
        best
    }

    #[test]
    fn sweep_selection_equals_the_per_candidate_oracle_loop() {
        // The encode bench's corpus (first rows), plain and weighted: the
        // same type, the same error to the bit, the same scale.
        let mut g = TensorGenerator::new(1005);
        let w = g.group_diverse_matrix(8, 4096, 64, 0.02);
        let moments: Vec<f32> = (0..64).map(|i| 0.25 + (i % 9) as f32).collect();
        let set = CandidateSet::paper();
        for group in w.as_slice().chunks_exact(64) {
            for weights in [None, Some(moments.as_slice())] {
                let (index, dtype, err) = oracle_select(group, weights, &set);
                let (got, got_err) = select_group_dtype_weighted(group, weights, &set).unwrap();
                assert_eq!((got, got_err.to_bits()), (dtype, err.to_bits()));
                let (i, _, scale) = set.select(group, weights);
                assert_eq!(
                    (i, scale),
                    (index, dtype.scale_for(mant_tensor::abs_max(group)))
                );
                assert_eq!(
                    group_quantization_error_weighted(group, weights, dtype).to_bits(),
                    err.to_bits()
                );
            }
        }
    }

    #[test]
    fn ties_go_to_the_first_candidate_across_sweeps() {
        // Twenty candidates span two kernel sweeps; the two copies of each
        // coefficient tie exactly, and the earlier index must win — within
        // a sweep (1 before 3) and across sweeps (2 before 18).
        let mut g = TensorGenerator::new(24);
        let data: Vec<f32> = (0..64)
            .map(|_| g.sample(DistributionKind::Gaussian, 0.3))
            .collect();
        for (winner, at) in [(17u32, [1usize, 3]), (17, [2, 18])] {
            let mut coefficients = [120u32; 20];
            coefficients[at[0]] = winner;
            coefficients[at[1]] = winner;
            let set = CandidateSet::custom(&coefficients, false).unwrap();
            let (index, dtype, err) = oracle_select(&data, None, &set);
            assert_eq!(index, at[0]);
            let (i, e, _) = set.select(&data, None);
            assert_eq!((i, e.to_bits()), (index, err.to_bits()));
            assert_eq!(dtype, GroupDtype::mant(winner).unwrap());
        }
        // No error below infinity: candidate 0, at infinite error.
        let nan = [f32::NAN, 1.0, -2.0, 0.5];
        let set = CandidateSet::paper();
        let (index, _, err) = oracle_select(&nan, None, &set);
        let (i, e, _) = set.select(&nan, None);
        assert_eq!((i, e.to_bits()), (index, err.to_bits()));
        assert_eq!((i, e), (0, f64::INFINITY));
    }

    #[test]
    fn weight_length_mismatch_is_error() {
        let set = CandidateSet::paper();
        let err = select_group_dtype_weighted(&[1.0, 2.0], Some(&[1.0]), &set);
        assert!(matches!(err, Err(QuantError::ShapeMismatch { .. })));
    }

    #[test]
    fn zero_group_costs_nothing() {
        let set = CandidateSet::paper();
        let (_, err) = select_group_dtype(&[0.0; 16], &set).unwrap();
        assert_eq!(err, 0.0);
    }
}
