//! Ablations of the design choices DESIGN.md calls out: the V-cache
//! process-window size, the coefficient candidate-set size, and MSE-search
//! vs variance-mapping for real-time type selection.

use mant_quant::{
    select_group_dtype, CandidateSet, KvCachePool, PagedKvCache, PoolConfig, VarianceMap,
};
use mant_tensor::{abs_max, mse, RunningGroupStats, TensorGenerator};

/// One row of the V-cache window ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowAblationRow {
    /// Process-window size (decode iterations per committed group).
    pub window: usize,
    /// Relative reconstruction error of the full V cache.
    pub rel_err: f64,
    /// Fraction of tokens left in the INT8 staging tail at measurement.
    pub staged_fraction: f64,
}

/// Sweeps the V-cache process-window size on a 256-step decode trace.
pub fn v_window_sizes() -> Vec<WindowAblationRow> {
    let dim = 128;
    let steps = 256;
    let vmap = VarianceMap::analytic(&CandidateSet::paper()).expect("non-empty set");
    [8usize, 16, 32, 64, 128]
        .iter()
        .map(|&window| {
            let mut gen = TensorGenerator::new(7000 + window as u64);
            // One block holds the trace; the value row doubles as the key.
            let mut pool = KvCachePool::new(PoolConfig {
                kv_dim: dim,
                group_size: window,
                block_tokens: steps,
                blocks: 1,
            })
            .expect("window divides width and trace");
            let mut vq = PagedKvCache::new(&pool, vmap.clone(), vmap.clone());
            let mut rows = mant_tensor::Matrix::zeros(0, dim);
            for _ in 0..steps {
                let v: Vec<f32> = (0..dim).map(|_| gen.standard_normal() * 0.5).collect();
                vq.push(&mut pool, &v, &v)
                    .expect("the block holds the trace");
                rows.push_row(&v);
            }
            let deq = vq.dequantize_v(&pool);
            let rel_err = mse(rows.as_slice(), deq.as_slice())
                / mse(rows.as_slice(), &vec![0.0; rows.len()]).max(1e-30);
            WindowAblationRow {
                window,
                rel_err,
                staged_fraction: vq.window_len() as f64 / steps as f64,
            }
        })
        .collect()
}

/// One row of the candidate-set ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct CandidateAblationRow {
    /// Number of MANT coefficients in the search set.
    pub candidates: usize,
    /// Mean group quantization MSE over a diverse corpus.
    pub mean_group_mse: f64,
}

/// Sweeps the coefficient candidate count (the paper chose 15 + INT:
/// "slight modifications to a only slightly alter the data distribution").
pub fn candidate_set_sizes() -> Vec<CandidateAblationRow> {
    let mut gen = TensorGenerator::new(7100);
    let corpus = gen.group_diverse_matrix(64, 512, 64, 0.02);
    let subsets: [&[u32]; 5] = [
        &[17],
        &[0, 17, 60],
        &[0, 17, 40, 80],
        &[0, 10, 20, 40, 60, 80, 100, 120],
        &mant_quant::search::PAPER_A_SET,
    ];
    subsets
        .iter()
        .map(|coeffs| {
            let set = CandidateSet::custom(coeffs, true).expect("valid coefficients");
            let mut total = 0.0f64;
            let mut n = 0usize;
            for group in corpus.as_slice().chunks_exact(64) {
                let (_, err) = select_group_dtype(group, &set).expect("non-empty set");
                total += err;
                n += 1;
            }
            CandidateAblationRow {
                candidates: coeffs.len(),
                mean_group_mse: total / n as f64,
            }
        })
        .collect()
}

/// Comparison of the two selection policies on fresh KV-like groups.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectionPolicyReport {
    /// Mean group MSE under offline MSE search (the oracle policy).
    pub mse_search: f64,
    /// Mean group MSE under the real-time variance mapping.
    pub variance_map: f64,
    /// Fraction of groups where both policies pick the same type.
    pub agreement: f64,
}

/// Evaluates MSE-search vs variance-map selection (Sec. V-C's trade-off).
pub fn selection_policies() -> SelectionPolicyReport {
    let set = CandidateSet::paper();
    let mut gen = TensorGenerator::new(7200);
    let calib = gen.group_diverse_matrix(32, 512, 64, 0.5);
    let vmap = VarianceMap::from_calibration(calib.as_slice().chunks_exact(64), &set)
        .expect("non-empty set");

    let test = gen.group_diverse_matrix(32, 512, 64, 0.5);
    let mut mse_total = 0.0f64;
    let mut var_total = 0.0f64;
    let mut agree = 0usize;
    let mut n = 0usize;
    for group in test.as_slice().chunks_exact(64) {
        let amax = abs_max(group);
        if amax == 0.0 {
            continue;
        }
        let (d_mse, e_mse) = select_group_dtype(group, &set).expect("non-empty set");
        let mut stats = RunningGroupStats::new();
        stats.extend_from_slice(group);
        let d_var = vmap.select_for(&stats);
        let s = d_var.scale_for(amax);
        let e_var: f64 = group
            .iter()
            .map(|&x| {
                let e = f64::from(x - d_var.quantize_value(x, s));
                e * e
            })
            .sum::<f64>()
            / group.len() as f64;
        mse_total += e_mse;
        var_total += e_var;
        if d_mse == d_var {
            agree += 1;
        }
        n += 1;
    }
    SelectionPolicyReport {
        mse_search: mse_total / n as f64,
        variance_map: var_total / n as f64,
        agreement: agree as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_windows_keep_less_int8_tail() {
        let rows = v_window_sizes();
        // All windows give small error; the staged tail is bounded by
        // window/steps.
        for r in &rows {
            assert!(r.rel_err < 0.05, "{r:?}");
            assert!(r.staged_fraction <= r.window as f64 / 256.0 + 1e-9);
        }
    }

    #[test]
    fn more_candidates_monotonically_help() {
        let rows = candidate_set_sizes();
        for w in rows.windows(2) {
            assert!(
                w[1].mean_group_mse <= w[0].mean_group_mse * 1.0001,
                "{} candidates {} vs {} candidates {}",
                w[0].candidates,
                w[0].mean_group_mse,
                w[1].candidates,
                w[1].mean_group_mse
            );
        }
        // The paper-size set clearly beats a single coefficient.
        assert!(rows.last().unwrap().mean_group_mse < rows[0].mean_group_mse * 0.9);
    }

    #[test]
    fn variance_mapping_close_to_oracle() {
        let rep = selection_policies();
        assert!(rep.variance_map >= rep.mse_search * 0.999);
        assert!(
            rep.variance_map <= rep.mse_search * 2.0,
            "variance policy too lossy: {rep:?}"
        );
        // Exact type agreement is naturally modest: adjacent coefficients
        // produce near-identical grids, so picking a neighbor costs almost
        // nothing (the error ratio above is the meaningful check).
        assert!(rep.agreement > 0.1, "agreement {}", rep.agreement);
    }
}
