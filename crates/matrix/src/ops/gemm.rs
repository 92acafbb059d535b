use crate::{DenseMatrix, MatrixError, Result};

/// Dense matrix multiplication `A (n x k1) · B (k1 x k2) → n x k2`.
///
/// Parallelized over blocks of output rows with an `i-k-j` loop order so
/// each pass streams a row of `B` sequentially; the blocks run
/// register-tiled (see `DESIGN.md` §14), bitwise identical to the scalar
/// `i-k-j` loop.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `a.cols() != b.rows()`, and
/// [`MatrixError::AllocationTooLarge`] if the output exceeds the allocation
/// guard.
///
/// # Example
///
/// ```
/// use granii_matrix::{ops, DenseMatrix};
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let a = DenseMatrix::from_rows(&[[1.0, 2.0].as_slice()])?;
/// let b = DenseMatrix::from_rows(&[[3.0].as_slice(), [4.0].as_slice()])?;
/// assert_eq!(ops::gemm(&a, &b)?.get(0, 0), 11.0);
/// # Ok(())
/// # }
/// ```
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(a.rows(), b.cols())?;
    gemm_into(a, b, &mut out)?;
    Ok(out)
}

/// [`gemm`] writing into a caller-provided `a.rows() × b.cols()` buffer:
/// the batch-of-one case of [`gemm_rhs_blocks_into`](super::gemm_rhs_blocks_into).
///
/// Every output element is overwritten, so a buffer holding an earlier
/// result is safe. Blocks of consecutive output rows run register-tiled, with the tile
/// instance chosen once for the call: the vector loops drop the zero-aik
/// skip when every entry of B is finite, and run as AVX2 code when the host
/// has it. Accumulation order per element is unchanged (k ascending), so
/// results stay bitwise equal to the scalar row loop.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `a.cols() != b.rows()` or `out`
/// has the wrong shape.
pub fn gemm_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if out.shape() != (a.rows(), b.cols()) {
        return Err(MatrixError::ShapeMismatch {
            op: "gemm_into",
            lhs: (a.rows(), b.cols()),
            rhs: out.shape(),
        });
    }
    super::gemm_rhs_blocks_into(a, b, 1, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        DenseMatrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum()
        })
    }

    #[test]
    fn matches_naive_reference() {
        let a = DenseMatrix::random(17, 9, 1.0, 3);
        let b = DenseMatrix::random(9, 13, 1.0, 4);
        let fast = gemm(&a, &b).unwrap();
        let slow = naive(&a, &b);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn wide_output_matches_naive_reference() {
        // k2 = 41 exercises the full tile cascade: 2-vector strips, a
        // 1-vector strip, and a scalar tail; zeros in A exercise the skip.
        let a = DenseMatrix::random(11, 9, 1.0, 13).map(|v| if v.abs() < 0.2 { 0.0 } else { v });
        let b = DenseMatrix::random(9, 41, 1.0, 14);
        let fast = gemm(&a, &b).unwrap();
        let slow = naive(&a, &b);
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn rejects_mismatched_inner_dim() {
        let a = DenseMatrix::zeros(2, 3).unwrap();
        let b = DenseMatrix::zeros(4, 2).unwrap();
        assert!(matches!(
            gemm(&a, &b),
            Err(MatrixError::ShapeMismatch { op: "gemm", .. })
        ));
    }

    #[test]
    fn identity_multiplication() {
        let a = DenseMatrix::random(5, 5, 1.0, 7);
        let eye = DenseMatrix::from_fn(5, 5, |i, j| if i == j { 1.0 } else { 0.0 });
        assert!(gemm(&a, &eye).unwrap().max_abs_diff(&a).unwrap() < 1e-6);
        assert!(gemm(&eye, &a).unwrap().max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn empty_dimensions_are_ok() {
        let a = DenseMatrix::zeros(0, 3).unwrap();
        let b = DenseMatrix::zeros(3, 2).unwrap();
        assert_eq!(gemm(&a, &b).unwrap().shape(), (0, 2));
        let c = DenseMatrix::zeros(2, 0).unwrap();
        let d = DenseMatrix::zeros(0, 4).unwrap();
        assert_eq!(gemm(&c, &d).unwrap().shape(), (2, 4));
        // Zero inner dimension produces all zeros.
        assert!(gemm(&c, &d).unwrap().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn associativity_of_chain() {
        // (A·B)·C == A·(B·C) — the algebraic fact GRANII's re-association
        // relies on.
        let a = DenseMatrix::random(6, 4, 1.0, 10);
        let b = DenseMatrix::random(4, 7, 1.0, 11);
        let c = DenseMatrix::random(7, 3, 1.0, 12);
        let left = gemm(&gemm(&a, &b).unwrap(), &c).unwrap();
        let right = gemm(&a, &gemm(&b, &c).unwrap()).unwrap();
        assert!(left.max_abs_diff(&right).unwrap() < 1e-4);
    }
}
