//! Variance-based real-time data-type selection (paper Sec. V-C).
//!
//! MSE search needs one trial quantization per candidate — fine offline,
//! "intolerable in a real-time scenario". Instead the KV engines compute
//! each group's variance in a streaming fashion (Eq. (7)) and look the
//! coefficient up in a precalibrated variance→type table.
//!
//! The table is a small LUT over log-spaced normalized-variance buckets:
//! per bucket, the type minimizing the total (scale-normalized, optionally
//! position-weighted) quantization error over the calibration groups in
//! that variance range. (A single contiguous range per type — the paper's
//! simplest description — cannot express that INT wins at *both* variance
//! extremes: near-constant bias channels and uniform groups. A bucketed
//! LUT is exactly as cheap in hardware and strictly more faithful to the
//! calibration data.)

use mant_tensor::par::par_map_slice;
use mant_tensor::{abs_max, variance, RunningGroupStats};

use crate::error::QuantError;
use crate::mantq::GroupDtype;
use crate::search::{candidate_errors, CandidateSet};

/// Number of log-spaced variance buckets in the LUT.
const BUCKETS: usize = 48;
/// Smallest distinguishable normalized variance.
const NVAR_FLOOR: f64 = 1e-6;

/// A calibrated mapping from normalized group variance to a data type.
#[derive(Clone, Debug)]
pub struct VarianceMap {
    /// Per-bucket selected type (log-spaced over `[NVAR_FLOOR, 1]`).
    buckets: Vec<GroupDtype>,
    /// `(representative_variance, dtype)` pairs for introspection, sorted
    /// ascending (one entry per candidate, anchored to calibration means
    /// or the grid variance when never selected).
    entries: Vec<(f64, GroupDtype)>,
}

impl VarianceMap {
    /// Builds the map from calibration groups (Sec. V-C: "sample the K and
    /// V tensors through a calibration dataset, and select a for each group
    /// to minimize quantization error; next, calculate the variance of the
    /// groups"). Every candidate's quantization error is accumulated per
    /// variance bucket, and each bucket records the candidate minimizing
    /// the *total* error over its calibration groups — the minimum-expected-
    /// error selector conditioned on the observable (the variance), which
    /// is strictly more faithful than majority voting when a bucket's
    /// per-group winners disagree but one type is near-optimal throughout.
    ///
    /// Buckets with no calibration coverage inherit from their nearest
    /// covered neighbor; with no data at all, every bucket falls back to
    /// the analytically nearest grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCandidateSet`] if `set` is empty.
    pub fn from_calibration<'a>(
        groups: impl IntoIterator<Item = &'a [f32]>,
        set: &CandidateSet,
    ) -> Result<Self, QuantError> {
        Self::from_calibration_weighted(groups.into_iter().map(|g| (g, None)), set)
    }

    /// Like [`VarianceMap::from_calibration`], with optional per-position
    /// error weights for each group (Eq. (6)'s diagonal surrogate — e.g.
    /// `E[q_j²]` for K-cache groups, so bucket winners minimize expected
    /// attention-*score* error rather than plain weight error). Bucketing
    /// still uses the unweighted normalized variance, since that is the
    /// statistic available to the runtime selector.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCandidateSet`] if `set` is empty, and
    /// [`QuantError::ShapeMismatch`] if a group's weights differ from it in
    /// length.
    pub fn from_calibration_weighted<'a>(
        groups: impl IntoIterator<Item = (&'a [f32], Option<&'a [f32]>)>,
        set: &CandidateSet,
    ) -> Result<Self, QuantError> {
        if set.is_empty() {
            return Err(QuantError::EmptyCandidateSet);
        }
        // errs[bucket][candidate]: accumulated quantization error of each
        // candidate over the groups landing in that bucket. Also track the
        // per-candidate variance sums (for the introspection entries),
        // attributed to each group's MSE winner.
        let items: Vec<(&[f32], Option<&[f32]>)> = groups.into_iter().collect();
        if items
            .iter()
            .any(|(group, weights)| weights.is_some_and(|w| w.len() != group.len()))
        {
            return Err(QuantError::ShapeMismatch {
                context: "calibration weights vs group length",
            });
        }
        // Fan the per-group error sweeps across threads (bit-identical:
        // per-group results are reduced in input order below, so no
        // accumulation is reordered).
        // (bucket, normalized variance, winning candidate, per-candidate errors)
        type GroupCalib = (usize, f64, usize, Vec<f64>);
        let per_group: Vec<Option<GroupCalib>> = par_map_slice(&items, |&(group, weights)| {
            let amax = abs_max(group);
            if amax == 0.0 {
                return None;
            }
            let nvar = variance(group) / (f64::from(amax) * f64::from(amax));
            // Normalize by max² (and the mean weight) so every
            // calibration group contributes at equal weight regardless
            // of its scale.
            let mean_w = weights.map_or(1.0, |ws| {
                let n = ws.len().max(1) as f64;
                ws.iter().map(|&w| f64::from(w)).sum::<f64>() / n
            });
            let norm = f64::from(amax) * f64::from(amax) * mean_w.max(1e-30);
            // One kernel sweep gives every candidate's error; the
            // winner is the first minimum, as in the weight search.
            let mut cand_errs = vec![0.0f64; set.len()];
            candidate_errors(
                set.candidates(),
                set.tables(),
                group,
                weights,
                amax,
                &mut vec![0.0; set.len()],
                &mut cand_errs,
            );
            let mut win_idx = 0usize;
            let mut win_err = f64::INFINITY;
            for (i, e) in cand_errs.iter_mut().enumerate() {
                *e /= norm;
                if *e < win_err {
                    win_err = *e;
                    win_idx = i;
                }
            }
            Some((bucket_of(nvar), nvar, win_idx, cand_errs))
        });

        let mut errs = vec![vec![0.0f64; set.len()]; BUCKETS];
        let mut populated = [false; BUCKETS];
        let mut sums: Vec<(f64, usize)> = vec![(0.0, 0); set.len()];
        for (bucket, nvar, win_idx, cand_errs) in per_group.into_iter().flatten() {
            populated[bucket] = true;
            for (acc, e) in errs[bucket].iter_mut().zip(cand_errs) {
                *acc += e;
            }
            sums[win_idx].0 += nvar;
            sums[win_idx].1 += 1;
        }

        // Bucket winners minimize total calibration error; empty buckets
        // inherit from the nearest covered.
        let mut winners: Vec<Option<usize>> = errs
            .iter()
            .zip(populated.iter())
            .map(|(es, &has_data)| {
                if !has_data {
                    return None;
                }
                es.iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite errors"))
                    .map(|(i, _)| i)
            })
            .collect();
        let covered: Vec<usize> = winners
            .iter()
            .enumerate()
            .filter_map(|(b, w)| w.map(|_| b))
            .collect();
        if covered.is_empty() {
            // No calibration data: anchor every bucket to the candidate
            // whose grid variance is nearest the bucket center.
            let anchors: Vec<(f64, usize)> = set
                .candidates()
                .iter()
                .enumerate()
                .map(|(i, &d)| (analytic_variance(d), i))
                .collect();
            for (b, w) in winners.iter_mut().enumerate() {
                let center = bucket_center(b);
                let best = anchors
                    .iter()
                    .min_by(|a, c| {
                        (a.0 - center)
                            .abs()
                            .partial_cmp(&(c.0 - center).abs())
                            .expect("finite variances")
                    })
                    .expect("non-empty set");
                *w = Some(best.1);
            }
        } else {
            for b in 0..BUCKETS {
                if winners[b].is_none() {
                    let nearest = covered
                        .iter()
                        .min_by_key(|&&c| c.abs_diff(b))
                        .expect("covered is non-empty");
                    winners[b] = winners[*nearest];
                }
            }
        }
        let buckets: Vec<GroupDtype> = winners
            .into_iter()
            .map(|w| set.candidates()[w.expect("all buckets filled")])
            .collect();

        let mut entries: Vec<(f64, GroupDtype)> = set
            .candidates()
            .iter()
            .zip(sums.iter())
            .map(|(&dtype, &(sum, n))| {
                let rep = if n > 0 {
                    sum / n as f64
                } else {
                    analytic_variance(dtype)
                };
                (rep, dtype)
            })
            .collect();
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("variances are finite"));
        Ok(VarianceMap { buckets, entries })
    }

    /// Builds the map without user calibration data by self-calibrating on
    /// a built-in corpus of synthetic groups spanning the distribution
    /// families LLM tensors exhibit (Gaussian/Laplace/uniform/heavy-tailed
    /// at several spreads, plus near-constant "outlier channel" groups —
    /// the V-cache case where INT beats every exponential grid).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCandidateSet`] if `set` is empty.
    pub fn analytic(set: &CandidateSet) -> Result<Self, QuantError> {
        if set.is_empty() {
            return Err(QuantError::EmptyCandidateSet);
        }
        let corpus = builtin_corpus();
        Self::from_calibration(corpus.iter().map(Vec::as_slice), set)
    }

    /// The `(representative_variance, dtype)` pairs, sorted ascending.
    pub fn entries(&self) -> &[(f64, GroupDtype)] {
        &self.entries
    }

    /// The LUT itself: the selected type of every log-spaced variance
    /// bucket, ascending — what [`VarianceMap::select`] indexes.
    pub fn buckets(&self) -> &[GroupDtype] {
        &self.buckets
    }

    /// Selects the type for a group with the given normalized variance.
    pub fn select(&self, normalized_variance: f64) -> GroupDtype {
        self.buckets[bucket_of(normalized_variance)]
    }

    /// Selects from a streaming accumulator (the RQU's Σx/Σx²/max state).
    pub fn select_for(&self, stats: &RunningGroupStats) -> GroupDtype {
        self.select(stats.normalized_variance())
    }
}

/// Log-spaced bucket index for a normalized variance.
fn bucket_of(nvar: f64) -> usize {
    let clamped = nvar.clamp(NVAR_FLOOR, 1.0);
    let t = (clamped / NVAR_FLOOR).ln() / (1.0 / NVAR_FLOOR).ln();
    ((t * BUCKETS as f64) as usize).min(BUCKETS - 1)
}

/// Geometric center of a bucket.
fn bucket_center(b: usize) -> f64 {
    let t = (b as f64 + 0.5) / BUCKETS as f64;
    NVAR_FLOOR * (1.0 / NVAR_FLOOR).powf(t)
}

/// The variance of a type's max-normalized grid points — the fallback
/// anchor when no calibration data exists.
fn analytic_variance(dtype: GroupDtype) -> f64 {
    match dtype {
        GroupDtype::Mant(m) => m.normalized_grid_variance(),
        GroupDtype::Int4 => {
            let pts: Vec<f64> = (-7..=7).map(|i| f64::from(i) / 7.0).collect();
            pts.iter().map(|p| p * p).sum::<f64>() / pts.len() as f64
        }
    }
}

/// Deterministic self-calibration corpus: 64-element groups across the
/// distribution families and spreads that occur in LLM weights, K vectors,
/// and V channels (including near-constant bias channels).
fn builtin_corpus() -> Vec<Vec<f32>> {
    use mant_tensor::{DistributionKind, TensorGenerator};
    let mut gen = TensorGenerator::new(0xca11_b7a7e);
    let mut corpus: Vec<Vec<f32>> = Vec::new();
    for kind in DistributionKind::ALL {
        for spread_exp in [-1.0f32, -0.5, 0.0, 0.5, 1.0] {
            for _ in 0..8 {
                let scale = 10.0f32.powf(spread_exp);
                corpus.push((0..64).map(|_| gen.sample(kind, scale)).collect());
            }
        }
    }
    // Mean-shifted groups (V-cache temporal channel windows): c ± jitter·c,
    // from near-constant bias channels through mean-dominated Gaussians to
    // sign-crossing mixtures.
    for jitter in [0.01f32, 0.03, 0.08, 0.15, 0.25, 0.4, 0.6, 1.0, 1.5] {
        for sign in [1.0f32, -1.0] {
            for _ in 0..6 {
                let c = sign * gen.uniform(0.5, 2.0);
                corpus.push(
                    (0..64)
                        .map(|_| c * (1.0 + jitter * gen.standard_normal()))
                        .collect(),
                );
            }
        }
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::select_group_dtype;
    use mant_tensor::{DistributionKind, TensorGenerator};

    #[test]
    fn analytic_map_is_total_and_entries_sorted() {
        let set = CandidateSet::paper();
        let map = VarianceMap::analytic(&set).unwrap();
        assert_eq!(map.entries().len(), set.len());
        for w in map.entries().windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        // Every variance value selects something.
        for nvar in [0.0, 1e-7, 1e-4, 0.01, 0.1, 0.3, 0.6, 1.0, 5.0] {
            let _ = map.select(nvar);
        }
    }

    #[test]
    fn near_constant_groups_get_uniform_like_grids() {
        // The V-cache case: tiny normalized variance must NOT map to PoT.
        let map = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
        let d = map.select(0.002);
        let uniform_like = match d {
            GroupDtype::Int4 => true,
            GroupDtype::Mant(m) => m.coefficient() >= 40,
        };
        assert!(uniform_like, "nvar 0.002 selected {d:?}");
    }

    #[test]
    fn gaussian_variance_selects_medium_a() {
        let map = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
        // Gaussian groups normalized by their max have nvar ≈ 0.1–0.15.
        let d = map.select(0.12);
        match d {
            GroupDtype::Mant(m) => {
                let a = m.coefficient();
                assert!((5..=80).contains(&a), "a = {a}");
            }
            GroupDtype::Int4 => panic!("INT selected for Gaussian variance"),
        }
    }

    #[test]
    fn calibrated_map_agrees_with_mse_often() {
        let set = CandidateSet::paper();
        let mut g = TensorGenerator::new(41);
        let calib = g.group_diverse_matrix(32, 512, 64, 0.02);
        let groups: Vec<&[f32]> = calib.as_slice().chunks_exact(64).collect();
        let map = VarianceMap::from_calibration(groups, &set).unwrap();

        let test = g.group_diverse_matrix(16, 512, 64, 0.02);
        let mut var_err = 0.0f64;
        let mut mse_err = 0.0f64;
        for group in test.as_slice().chunks_exact(64) {
            let amax = abs_max(group);
            if amax == 0.0 {
                continue;
            }
            let mut stats = RunningGroupStats::new();
            stats.extend_from_slice(group);
            let dv = map.select_for(&stats);
            let (_, best) = select_group_dtype(group, &set).unwrap();
            let sv = dv.scale_for(amax);
            let ev: f64 = group
                .iter()
                .map(|&x| {
                    let e = f64::from(x - dv.quantize_value(x, sv));
                    e * e
                })
                .sum::<f64>()
                / group.len() as f64;
            var_err += ev;
            mse_err += best;
        }
        assert!(
            var_err <= mse_err * 2.5,
            "variance-selected error {var_err} vs oracle {mse_err}"
        );
    }

    #[test]
    fn streaming_and_batch_selection_agree() {
        let map = VarianceMap::analytic(&CandidateSet::paper()).unwrap();
        let mut g = TensorGenerator::new(42);
        let data: Vec<f32> = (0..64)
            .map(|_| g.sample(DistributionKind::Gaussian, 0.1))
            .collect();
        let mut stats = RunningGroupStats::new();
        stats.extend_from_slice(&data);
        let amax = abs_max(&data);
        let nvar = variance(&data) / (f64::from(amax) * f64::from(amax));
        assert_eq!(map.select_for(&stats), map.select(nvar));
    }

    #[test]
    fn empty_set_rejected() {
        let empty = CandidateSet::custom(&[], false).unwrap();
        assert!(VarianceMap::analytic(&empty).is_err());
        assert!(VarianceMap::from_calibration(Vec::<&[f32]>::new(), &empty).is_err());
    }

    #[test]
    fn no_calibration_data_falls_back_to_grid_anchors() {
        let set = CandidateSet::paper();
        let map = VarianceMap::from_calibration(Vec::<&[f32]>::new(), &set).unwrap();
        // Still total: low variance → low-a grids under the fallback.
        let low = map.select(0.02);
        if let GroupDtype::Mant(m) = low {
            assert!(m.coefficient() <= 40, "a = {}", m.coefficient());
        }
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(2.0), BUCKETS - 1);
        let mut prev = 0usize;
        for e in [-5, -4, -3, -2, -1] {
            let b = bucket_of(10f64.powi(e));
            assert!(b >= prev);
            prev = b;
        }
        assert!(bucket_center(0) < bucket_center(BUCKETS - 1));
    }
}
