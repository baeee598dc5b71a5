//! Property-based tests of the tensor substrate.

use mant_tensor::ops::rmsnorm;
use mant_tensor::{gemm, gemv, variance, Matrix, RunningGroupStats};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-50.0f32..50.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GEMM distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn gemm_linearity(a in matrix(3, 4), b in matrix(4, 5), c in matrix(4, 5)) {
        let sum = Matrix::from_fn(4, 5, |r, k| b[(r, k)] + c[(r, k)]);
        let lhs = gemm(&a, &sum);
        let ab = gemm(&a, &b);
        let ac = gemm(&a, &c);
        for r in 0..3 {
            for k in 0..5 {
                let expect = ab[(r, k)] + ac[(r, k)];
                prop_assert!((lhs[(r, k)] - expect).abs() <= expect.abs().max(1.0) * 1e-4);
            }
        }
    }

    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn gemm_transpose_identity(a in matrix(3, 4), b in matrix(4, 2)) {
        let lhs = gemm(&a, &b).transpose();
        let rhs = gemm(&b.transpose(), &a.transpose());
        prop_assert!(lhs.distance(&rhs) < 1e-2);
    }

    /// gemv equals the first row of the equivalent gemm.
    #[test]
    fn gemv_matches_gemm(x in proptest::collection::vec(-10.0f32..10.0, 6), b in matrix(6, 3)) {
        let via_gemv = gemv(&x, &b);
        let via_gemm = gemm(&Matrix::from_vec(1, 6, x), &b);
        for (a, c) in via_gemv.iter().zip(via_gemm.as_slice()) {
            prop_assert!((a - c).abs() < 1e-4);
        }
    }

    /// RMSNorm with unit gain yields unit RMS (for non-tiny inputs).
    #[test]
    fn rmsnorm_unit_rms(x in proptest::collection::vec(0.1f32..10.0, 4..32)) {
        let gain = vec![1.0f32; x.len()];
        let y = rmsnorm(&x, &gain, 0.0);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / y.len() as f32).sqrt();
        prop_assert!((rms - 1.0).abs() < 1e-3);
    }

    /// Streaming stats equal batch stats for any data.
    #[test]
    fn streaming_equals_batch(data in proptest::collection::vec(-1e3f32..1e3, 1..128)) {
        let mut s = RunningGroupStats::new();
        s.extend_from_slice(&data);
        prop_assert!((s.variance() - variance(&data)).abs() < 1e-6 * (1.0 + variance(&data)));
        prop_assert_eq!(s.count(), data.len());
    }
}
