//! Dense matrix multiplication.

use crate::matrix::Matrix;

/// `C = A · B` for row-major matrices, with a cache-friendly ikj loop.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use mant_tensor::{gemm, Matrix};
///
/// let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
/// let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
/// assert_eq!(gemm(&a, &b).as_slice(), &[11.0]);
/// ```
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: {}×{} · {}×{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for (c_val, &b_val) in c_row.iter_mut().zip(b_row.iter()) {
                *c_val += a_ip * b_val;
            }
        }
    }
    c
}

/// `y = x · B` for a vector `x` of length `b.rows()`.
///
/// # Panics
///
/// Panics if `x.len() != b.rows()`.
pub fn gemv(x: &[f32], b: &Matrix) -> Vec<f32> {
    assert_eq!(x.len(), b.rows(), "vector length mismatch");
    let mut y = vec![0.0f32; b.cols()];
    for (p, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        for (yv, &bv) in y.iter_mut().zip(b.row(p).iter()) {
            *yv += xv * bv;
        }
    }
    y
}

/// Output rows [`matvec`] and [`matvec_batch`] compute together. One
/// output is a chain of dependent f32 adds, so a lone row runs at add
/// latency; eight independent chains keep the adder busy instead.
const ROW_TILE: usize = 8;

/// `W[n0..n0 + R] · x`: `R` output rows at once, each with its own
/// accumulator fed in ascending `k` — per output exactly the add chain of
/// `w.row(n).iter().zip(x).map(|(a, b)| a * b).sum::<f32>()`, so the bits
/// are the same.
fn dot_rows<const R: usize>(w: &Matrix, n0: usize, x: &[f32]) -> [f32; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &w.row(n0 + r)[..x.len()]);
    // The iterator sum's own starting value, whatever this toolchain
    // uses for it (the sign of zero is observable).
    let mut acc = [std::iter::empty::<f32>().sum::<f32>(); R];
    for (k, &xv) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(rows.iter()) {
            *a += row[k] * xv;
        }
    }
    acc
}

/// `y = W · x` for `W` stored `out × in` (rows are output channels, the
/// accumulation dimension contiguous) — the linear-projection primitive of
/// the f32 reference execution backend.
///
/// # Panics
///
/// Panics if `x.len() != w.cols()`.
pub fn matvec(w: &Matrix, x: &[f32]) -> Vec<f32> {
    matvec_batch(w, &[x]).pop().expect("one input, one output")
}

/// Batched [`matvec`]: `y_i = W · x_i` for a batch of activation vectors
/// against one `out × in` weight matrix. The weight rows are walked in the
/// outer loop, eight at a time, so each tile stays hot in cache
/// while every batch member consumes it — the f32 analogue of the packed
/// multi-query GEMM — and each output element sums its products in
/// ascending order whatever the batch or the tile, so results are
/// **bit-identical** to the per-vector calls.
///
/// # Panics
///
/// Panics if any `x` length differs from `w.cols()`.
pub fn matvec_batch(w: &Matrix, xs: &[&[f32]]) -> Vec<Vec<f32>> {
    for x in xs {
        assert_eq!(x.len(), w.cols(), "matvec inner dimension mismatch");
    }
    let mut out: Vec<Vec<f32>> = xs.iter().map(|_| vec![0.0f32; w.rows()]).collect();
    let tiled = w.rows() / ROW_TILE * ROW_TILE;
    for n0 in (0..tiled).step_by(ROW_TILE) {
        for (y, x) in out.iter_mut().zip(xs.iter()) {
            y[n0..n0 + ROW_TILE].copy_from_slice(&dot_rows::<ROW_TILE>(w, n0, x));
        }
    }
    for n in tiled..w.rows() {
        for (y, x) in out.iter_mut().zip(xs.iter()) {
            y[n] = dot_rows::<1>(w, n, x)[0];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn matches_naive() {
        let a = Matrix::from_fn(7, 5, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(5, 9, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let fast = gemm(&a, &b);
        let slow = naive(&a, &b);
        assert!(fast.distance(&slow) < 1e-5);
    }

    #[test]
    fn identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let id = Matrix::from_fn(4, 4, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(gemm(&a, &id), a);
        assert_eq!(gemm(&id, &a), a);
    }

    #[test]
    fn gemv_matches_gemm() {
        let b = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.5);
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.3 - 1.0).collect();
        let via_gemm = gemm(&Matrix::from_vec(1, 6, x.clone()), &b);
        let via_gemv = gemv(&x, &b);
        for (a, b) in via_gemm.as_slice().iter().zip(via_gemv.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn matvec_matches_transposed_gemv() {
        let w = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f32 * 0.1 - 1.0);
        let x: Vec<f32> = (0..6).map(|i| i as f32 * 0.7 - 2.0).collect();
        let y = matvec(&w, &x);
        let via_gemv = gemv(&x, &w.transpose());
        for (a, b) in y.iter().zip(via_gemv.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matvec inner dimension mismatch")]
    fn matvec_shape_mismatch_panics() {
        let _ = matvec(&Matrix::zeros(2, 3), &[1.0, 2.0]);
    }

    #[test]
    fn matvec_batch_bit_identical_to_matvec() {
        let w = Matrix::from_fn(9, 7, |r, c| ((r * 7 + c) as f32 * 0.37).sin());
        let xs: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..7).map(|j| ((i * 13 + j) as f32 * 0.11).cos()).collect())
            .collect();
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let batched = matvec_batch(&w, &refs);
        assert_eq!(batched.len(), 5);
        for (x, y) in xs.iter().zip(batched.iter()) {
            assert_eq!(y, &matvec(&w, x), "batched matvec drifted from matvec");
        }
    }

    #[test]
    fn matvec_bits_equal_the_one_chain_loop() {
        // Row counts on both sides of the tile, signed zeros and a
        // cancelling pair included: every output must carry the bits of
        // the plain in-order iterator sum.
        for rows in [1usize, 7, 8, 9, 19] {
            let w = Matrix::from_fn(rows, 37, |r, c| match (r + c) % 11 {
                0 => -0.0,
                1 => 0.0,
                _ => ((r * 37 + c) as f32 * 0.73).sin() * 3.0,
            });
            let x: Vec<f32> = (0..37)
                .map(|j| {
                    if j % 5 == 0 {
                        -0.0
                    } else {
                        (j as f32 * 0.29).cos()
                    }
                })
                .collect();
            let want: Vec<u32> = (0..rows)
                .map(|n| {
                    let chain: f32 = w.row(n).iter().zip(x.iter()).map(|(&a, &b)| a * b).sum();
                    chain.to_bits()
                })
                .collect();
            let got: Vec<u32> = matvec(&w, &x).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "rows = {rows}");
        }
        // No columns: the empty sum, sign included.
        let empty: f32 = std::iter::empty::<f32>().sum();
        assert_eq!(
            matvec(&Matrix::zeros(3, 0), &[])[0].to_bits(),
            empty.to_bits()
        );
    }

    #[test]
    fn matvec_batch_empty() {
        assert!(matvec_batch(&Matrix::zeros(2, 3), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "matvec inner dimension mismatch")]
    fn matvec_batch_shape_mismatch_panics() {
        let x = [1.0, 2.0];
        let _ = matvec_batch(&Matrix::zeros(2, 3), &[&x]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = gemm(&a, &b);
    }
}
