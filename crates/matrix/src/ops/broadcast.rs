use serde::{Deserialize, Serialize};

use crate::{DenseMatrix, MatrixError, Result};

/// The element-wise combination used by a broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BroadcastOp {
    /// `out = d ⊙ m` (scaling; GCN's normalization uses this).
    Mul,
    /// `out = d + m` (bias addition).
    Add,
}

/// Row-broadcast (paper Eq. 1): combines `d[i]` with every element of row `i`.
///
/// This is the dense primitive GCN's dynamic normalization lowers to
/// (`D^{-1/2} ⊗ H`, §III-A). It is equivalent to `diag(d) · m` for
/// [`BroadcastOp::Mul`] — the algebraic identity GRANII's IR rewrite exploits
/// to turn broadcasts back into re-associable multiplications.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `d.len() != m.rows()`.
///
/// # Example
///
/// ```
/// use granii_matrix::{ops, ops::BroadcastOp, DenseMatrix};
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let m = DenseMatrix::from_rows(&[[1.0, 2.0].as_slice(), [3.0, 4.0].as_slice()])?;
/// let out = ops::row_broadcast(&[10.0, 100.0], &m, BroadcastOp::Mul)?;
/// assert_eq!(out.get(1, 1), 400.0);
/// # Ok(())
/// # }
/// ```
pub fn row_broadcast(d: &[f32], m: &DenseMatrix, op: BroadcastOp) -> Result<DenseMatrix> {
    if d.len() != m.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "row_broadcast",
            lhs: (d.len(), 1),
            rhs: m.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(m.rows(), m.cols())?;
    row_broadcast_into(d, m, op, &mut out)?;
    Ok(out)
}

/// [`row_broadcast`] writing into a caller-provided buffer of `m`'s shape:
/// [`row_broadcast_cols_into`](super::row_broadcast_cols_into) over every
/// column.
///
/// Reads straight from `m`, so no clone happens and a buffer holding an
/// earlier result is safe; results are bitwise equal to [`row_broadcast`]'s.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `d.len() != m.rows()` or `out`
/// has the wrong shape.
pub fn row_broadcast_into(
    d: &[f32],
    m: &DenseMatrix,
    op: BroadcastOp,
    out: &mut DenseMatrix,
) -> Result<()> {
    if d.len() != m.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "row_broadcast",
            lhs: (d.len(), 1),
            rhs: m.shape(),
        });
    }
    if out.shape() != m.shape() {
        return Err(MatrixError::ShapeMismatch {
            op: "row_broadcast_into",
            lhs: m.shape(),
            rhs: out.shape(),
        });
    }
    super::row_broadcast_cols_into(d, m, m.cols(), op, out)
}

/// Column-broadcast: combines `d[j]` with every element of column `j`
/// (equivalent to `m · diag(d)` for [`BroadcastOp::Mul`]).
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `d.len() != m.cols()`.
pub fn col_broadcast(m: &DenseMatrix, d: &[f32], op: BroadcastOp) -> Result<DenseMatrix> {
    if d.len() != m.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "col_broadcast",
            lhs: m.shape(),
            rhs: (d.len(), 1),
        });
    }
    let mut out = DenseMatrix::zeros(m.rows(), m.cols())?;
    col_broadcast_into(m, d, op, &mut out)?;
    Ok(out)
}

/// [`col_broadcast`] writing into a caller-provided buffer of `m`'s shape:
/// the batch-of-one case of
/// [`col_broadcast_blocks_into`](super::col_broadcast_blocks_into).
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `d.len() != m.cols()` or `out`
/// has the wrong shape.
pub fn col_broadcast_into(
    m: &DenseMatrix,
    d: &[f32],
    op: BroadcastOp,
    out: &mut DenseMatrix,
) -> Result<()> {
    if d.len() != m.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "col_broadcast",
            lhs: m.shape(),
            rhs: (d.len(), 1),
        });
    }
    if out.shape() != m.shape() {
        return Err(MatrixError::ShapeMismatch {
            op: "col_broadcast_into",
            lhs: m.shape(),
            rhs: out.shape(),
        });
    }
    super::col_broadcast_blocks_into(m, d, 1, op, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm;
    use crate::DiagMatrix;

    #[test]
    fn row_broadcast_equals_diag_gemm() {
        let m = DenseMatrix::random(5, 3, 1.0, 20);
        let d = vec![0.5, 1.0, 2.0, -1.0, 0.0];
        let fast = row_broadcast(&d, &m, BroadcastOp::Mul).unwrap();
        let diag = DiagMatrix::from_vec(d).to_csr().to_dense().unwrap();
        let slow = gemm(&diag, &m).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-6);
    }

    #[test]
    fn col_broadcast_equals_gemm_diag() {
        let m = DenseMatrix::random(4, 3, 1.0, 21);
        let d = vec![2.0, 0.0, -3.0];
        let fast = col_broadcast(&m, &d, BroadcastOp::Mul).unwrap();
        let diag = DiagMatrix::from_vec(d).to_csr().to_dense().unwrap();
        let slow = gemm(&m, &diag).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-6);
    }

    #[test]
    fn add_broadcast_adds() {
        let m = DenseMatrix::zeros(2, 2).unwrap();
        let out = row_broadcast(&[1.0, 2.0], &m, BroadcastOp::Add).unwrap();
        assert_eq!(out.row(0), &[1.0, 1.0]);
        assert_eq!(out.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let m = DenseMatrix::zeros(2, 2).unwrap();
        assert!(row_broadcast(&[1.0], &m, BroadcastOp::Mul).is_err());
        assert!(col_broadcast(&m, &[1.0, 2.0, 3.0], BroadcastOp::Mul).is_err());
    }
}
