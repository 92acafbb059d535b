use crate::{CsrMatrix, DenseMatrix, MatrixError, Result, Semiring};

/// Generalized sparse-dense matrix multiplication (g-SpMM, paper §II-B).
///
/// Computes, for every row `i` of the sparse matrix `adj` and every feature
/// column `c`:
///
/// ```text
/// out[i, c] = ⊕_{(i,j) ∈ adj} ( adj[i, j] ⊗ feats[j, c] )
/// ```
///
/// where `⊕`/`⊗` come from `semiring`. With [`Semiring::plus_mul`] this is the
/// standard weighted SpMM; with [`Semiring::plus_copy_rhs`] it is the cheaper
/// unweighted aggregation that never loads edge values. Unweighted matrices
/// (no value array) use an implicit edge value of `1.0` when `⊗` reads it.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `adj.cols() != feats.rows()`, and
/// [`MatrixError::AllocationTooLarge`] if the output exceeds the guard.
///
/// # Example
///
/// ```
/// use granii_matrix::{ops, CooMatrix, DenseMatrix, Semiring};
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let adj = CooMatrix::from_entries(2, 2, &[(0, 1, 2.0)])?.to_csr();
/// let x = DenseMatrix::from_rows(&[[1.0].as_slice(), [3.0].as_slice()])?;
/// let y = ops::spmm(&adj, &x, Semiring::plus_mul())?;
/// assert_eq!(y.get(0, 0), 6.0); // 2.0 * 3.0
/// # Ok(())
/// # }
/// ```
pub fn spmm(adj: &CsrMatrix, feats: &DenseMatrix, semiring: Semiring) -> Result<DenseMatrix> {
    if adj.cols() != feats.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "spmm",
            lhs: adj.shape(),
            rhs: feats.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(adj.rows(), feats.cols())?;
    spmm_into(adj, feats, semiring, &mut out)?;
    Ok(out)
}

/// [`spmm`] writing into a caller-provided `adj.rows() × feats.cols()`
/// buffer: [`spmm_cols_into`](super::spmm_cols_into) over every column.
///
/// Every output element is written (empty rows get the reduce identity), so
/// a buffer holding an earlier result is safe; results are bitwise equal to
/// [`spmm`]'s.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `adj.cols() != feats.rows()` or
/// `out` has the wrong shape.
pub fn spmm_into(
    adj: &CsrMatrix,
    feats: &DenseMatrix,
    semiring: Semiring,
    out: &mut DenseMatrix,
) -> Result<()> {
    if adj.cols() != feats.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "spmm",
            lhs: adj.shape(),
            rhs: feats.shape(),
        });
    }
    if out.shape() != (adj.rows(), feats.cols()) {
        return Err(MatrixError::ShapeMismatch {
            op: "spmm_into",
            lhs: (adj.rows(), feats.cols()),
            rhs: out.shape(),
        });
    }
    super::spmm_cols_into(adj, feats, feats.cols(), semiring, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops::gemm, CooMatrix, MulOp, ReduceOp};

    fn sample_adj() -> CsrMatrix {
        CooMatrix::from_entries(3, 3, &[(0, 1, 2.0), (0, 2, 3.0), (1, 0, 1.0), (2, 2, 4.0)])
            .unwrap()
            .to_csr()
    }

    #[test]
    fn weighted_spmm_matches_dense_gemm() {
        let adj = sample_adj();
        let x = DenseMatrix::random(3, 4, 1.0, 5);
        let sparse = spmm(&adj, &x, Semiring::plus_mul()).unwrap();
        let dense = gemm(&adj.to_dense().unwrap(), &x).unwrap();
        assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-5);
    }

    #[test]
    fn unweighted_spmm_ignores_values() {
        let adj = sample_adj();
        let x = DenseMatrix::random(3, 2, 1.0, 6);
        let copy = spmm(&adj, &x, Semiring::plus_copy_rhs()).unwrap();
        let ones = spmm(&adj.clone().drop_values(), &x, Semiring::plus_mul()).unwrap();
        assert!(copy.max_abs_diff(&ones).unwrap() < 1e-6);
    }

    #[test]
    fn max_reduce_takes_row_max() {
        let adj = sample_adj().drop_values();
        let x = DenseMatrix::from_rows(&[[5.0].as_slice(), [-1.0].as_slice(), [2.0].as_slice()])
            .unwrap();
        let y = spmm(&adj, &x, Semiring::max_copy_rhs()).unwrap();
        assert_eq!(y.get(0, 0), 2.0); // max of rows 1, 2
        assert_eq!(y.get(1, 0), 5.0);
    }

    #[test]
    fn mean_reduce_divides_by_degree() {
        let adj = sample_adj().drop_values();
        let x = DenseMatrix::from_rows(&[[4.0].as_slice(), [2.0].as_slice(), [6.0].as_slice()])
            .unwrap();
        let y = spmm(&adj, &x, Semiring::mean_copy_rhs()).unwrap();
        assert_eq!(y.get(0, 0), 4.0); // (2 + 6) / 2
    }

    #[test]
    fn empty_rows_yield_zero() {
        let adj = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0)])
            .unwrap()
            .to_csr();
        let x = DenseMatrix::from_rows(&[[7.0].as_slice(), [9.0].as_slice()]).unwrap();
        for s in [
            Semiring::plus_mul(),
            Semiring::max_copy_rhs(),
            Semiring::mean_copy_rhs(),
        ] {
            let y = spmm(&adj, &x, s).unwrap();
            assert_eq!(y.get(1, 0), 0.0, "empty row must be 0 for {s:?}");
        }
    }

    /// Pins the Mean denominator semantics: `finish` divides by the
    /// *stored-edge count*, explicit zero-weight edges included. This is the
    /// GNN convention (degree = number of stored neighbors, whatever their
    /// weight), not "count of edges that contributed a nonzero message".
    #[test]
    fn mean_counts_explicit_zero_weight_edges() {
        let adj = CooMatrix::from_entries(1, 2, &[(0, 0, 0.0), (0, 1, 2.0)])
            .unwrap()
            .to_csr();
        let x = DenseMatrix::from_rows(&[[3.0].as_slice(), [5.0].as_slice()]).unwrap();
        let y = spmm(
            &adj,
            &x,
            Semiring {
                reduce: ReduceOp::Mean,
                mul: MulOp::Mul,
            },
        )
        .unwrap();
        // (0.0*3.0 + 2.0*5.0) / 2 stored edges — NOT / 1 contributing edge.
        assert_eq!(y.get(0, 0), 5.0);
    }

    /// Pins the Max/Min empty-row semantics: the `-inf`/`+inf` fold identity
    /// must never leak into the output — empty rows finish to 0.0 (DGL's
    /// masked-max convention, documented on [`ReduceOp::Max`]) — while
    /// non-empty rows keep their true extremum even when it is negative
    /// (i.e. the finish clamp applies only to degree-0 rows).
    #[test]
    fn max_min_identity_never_leaks_and_negatives_survive() {
        // Row 0 has one neighbor with a negative feature; row 1 is empty.
        let adj = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0)])
            .unwrap()
            .to_csr()
            .drop_values();
        let x = DenseMatrix::from_rows(&[[9.0].as_slice(), [-4.5].as_slice()]).unwrap();
        for reduce in [ReduceOp::Max, ReduceOp::Min] {
            let y = spmm(
                &adj,
                &x,
                Semiring {
                    reduce,
                    mul: MulOp::CopyRhs,
                },
            )
            .unwrap();
            assert_eq!(y.get(0, 0), -4.5, "{reduce:?}: true extremum kept");
            assert_eq!(y.get(1, 0), 0.0, "{reduce:?}: empty row is 0, not inf");
            assert!(y.get(1, 0).is_finite());
        }
    }

    /// Pins the Mean empty-row semantics: 0.0, not `0/0 = NaN`.
    #[test]
    fn mean_empty_row_is_zero_not_nan() {
        let adj = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0)])
            .unwrap()
            .to_csr();
        let x = DenseMatrix::from_rows(&[[1.0].as_slice(), [2.0].as_slice()]).unwrap();
        let y = spmm(&adj, &x, Semiring::mean_copy_rhs()).unwrap();
        assert_eq!(y.get(1, 0), 0.0);
    }

    #[test]
    fn min_reduce_and_empty_rows() {
        let adj = CooMatrix::from_entries(2, 3, &[(0, 0, 1.0), (0, 2, 1.0)])
            .unwrap()
            .to_csr()
            .drop_values();
        let x = DenseMatrix::from_rows(&[[5.0].as_slice(), [1.0].as_slice(), [3.0].as_slice()])
            .unwrap();
        let y = spmm(
            &adj,
            &x,
            Semiring {
                reduce: ReduceOp::Min,
                mul: MulOp::CopyRhs,
            },
        )
        .unwrap();
        assert_eq!(y.get(0, 0), 3.0); // min of neighbors 0, 2
        assert_eq!(y.get(1, 0), 0.0); // empty row
    }

    /// A structurally skewed graph (hub + short + empty rows) exercising
    /// both kernel bands and the weighted scheduler must agree with the
    /// dense reference.
    #[test]
    fn skewed_degree_distribution_matches_dense() {
        let n = 64;
        let mut entries = Vec::new();
        for j in 0..n {
            entries.push((0usize, j, 1.0 + j as f32 / n as f32)); // hub row
        }
        for i in (2..n).step_by(3) {
            entries.push((i, (i * 7) % n, 0.5)); // sparse short rows
        }
        let adj = CooMatrix::from_entries(n, n, &entries).unwrap().to_csr();
        let x = DenseMatrix::random(n, 40, 1.0, 77);
        let sparse = spmm(&adj, &x, Semiring::plus_mul()).unwrap();
        let dense = gemm(&adj.to_dense().unwrap(), &x).unwrap();
        assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-4);
    }

    #[test]
    fn copy_edge_broadcasts_edge_value() {
        let adj = sample_adj();
        let x = DenseMatrix::zeros(3, 2).unwrap();
        let y = spmm(
            &adj,
            &x,
            Semiring {
                reduce: ReduceOp::Sum,
                mul: MulOp::CopyEdge,
            },
        )
        .unwrap();
        assert_eq!(y.get(0, 0), 5.0); // 2.0 + 3.0
        assert_eq!(y.get(0, 1), 5.0);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let adj = sample_adj();
        let x = DenseMatrix::zeros(4, 2).unwrap();
        assert!(matches!(
            spmm(&adj, &x, Semiring::plus_mul()),
            Err(MatrixError::ShapeMismatch { op: "spmm", .. })
        ));
    }
}
