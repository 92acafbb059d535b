use super::rowkernel::dot;
use crate::parallel::par_sparse_rows;
use crate::{CsrMatrix, DenseMatrix, MatrixError, Result};

/// Generalized sampled dense-dense matrix multiplication (g-SDDMM, §II-B).
///
/// For every stored position `(i, j)` of `mask`, computes
///
/// ```text
/// out[i, j] = mask[i, j] * ( u[i, :] · v[j, :] )
/// ```
///
/// i.e. the dense product `U · Vᵀ` *sampled* at the sparsity pattern of `mask`
/// and scaled by the mask's values (implicitly `1.0` when the mask is
/// unweighted). The result is a weighted CSR matrix with the same pattern.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `u.cols() != v.cols()`,
/// `u.rows() != mask.rows()`, or `v.rows() != mask.cols()`.
///
/// # Example
///
/// ```
/// use granii_matrix::{ops, CooMatrix, DenseMatrix};
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let mask = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0)])?.to_csr();
/// let u = DenseMatrix::from_rows(&[[1.0, 2.0].as_slice(), [0.0, 0.0].as_slice()])?;
/// let v = DenseMatrix::from_rows(&[[0.0, 0.0].as_slice(), [3.0, 4.0].as_slice()])?;
/// let out = ops::sddmm(&mask, &u, &v)?;
/// assert_eq!(out.get(0, 1), 11.0); // 1*3 + 2*4
/// # Ok(())
/// # }
/// ```
pub fn sddmm(mask: &CsrMatrix, u: &DenseMatrix, v: &DenseMatrix) -> Result<CsrMatrix> {
    if u.cols() != v.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm",
            lhs: u.shape(),
            rhs: v.shape(),
        });
    }
    if u.rows() != mask.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm",
            lhs: mask.shape(),
            rhs: u.shape(),
        });
    }
    if v.rows() != mask.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm",
            lhs: mask.shape(),
            rhs: v.shape(),
        });
    }
    let mut out = mask.zeros_like();
    sddmm_into(mask, u, v, &mut out)?;
    Ok(out)
}

/// [`sddmm`] writing into a caller-provided weighted CSR buffer sharing
/// `mask`'s pattern. Every stored position is written, so a buffer holding an
/// earlier result (a bound plan's shared slot) is safe; results are bitwise
/// equal to [`sddmm`]'s.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on operand mismatches or if `out`
/// does not match `mask`'s shape/nnz, and [`MatrixError::MissingValues`] if
/// `out` is unweighted.
pub fn sddmm_into(
    mask: &CsrMatrix,
    u: &DenseMatrix,
    v: &DenseMatrix,
    out: &mut CsrMatrix,
) -> Result<()> {
    if u.cols() != v.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm",
            lhs: u.shape(),
            rhs: v.shape(),
        });
    }
    if u.rows() != mask.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm",
            lhs: mask.shape(),
            rhs: u.shape(),
        });
    }
    if v.rows() != mask.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm",
            lhs: mask.shape(),
            rhs: v.shape(),
        });
    }
    check_out_pattern("sddmm_into", mask, out)?;
    let k = u.cols();
    let indptr = mask.indptr();
    let indices = mask.indices();
    let mvals = mask.values();
    let out_vals = out.values_mut().expect("checked weighted");
    // Rows own disjoint value slices, so the kernel parallelizes with the
    // same nnz-weighted scheduling as SpMM; the mask's weighted/unweighted
    // Option is tested once per matrix, not once per edge, and the dot
    // product is vectorized (within a few ulp of the scalar fold — see
    // `ops::rowkernel::dot`).
    par_sparse_rows(out_vals, indptr, k, |i, orow| {
        let s = indptr[i] as usize;
        let urow = u.row(i);
        let cols = &indices[s..s + orow.len()];
        match mvals {
            Some(ms) => {
                let mrow = &ms[s..s + orow.len()];
                for ((o, &j), &m) in orow.iter_mut().zip(cols).zip(mrow) {
                    *o = m * dot(urow, v.row(j as usize));
                }
            }
            None => {
                for (o, &j) in orow.iter_mut().zip(cols) {
                    *o = dot(urow, v.row(j as usize));
                }
            }
        }
    });
    Ok(())
}

/// Validates that `out` is a weighted CSR matching `pattern`'s shape and nnz.
pub(crate) fn check_out_pattern(
    op: &'static str,
    pattern: &CsrMatrix,
    out: &CsrMatrix,
) -> Result<()> {
    if out.shape() != pattern.shape() || out.nnz() != pattern.nnz() {
        return Err(MatrixError::ShapeMismatch {
            op,
            lhs: pattern.shape(),
            rhs: out.shape(),
        });
    }
    if !out.is_weighted() {
        return Err(MatrixError::MissingValues(op));
    }
    Ok(())
}

/// SDDMM with the `u_add_v` operator on per-node scalars (GAT's raw attention
/// logits): `out[i, j] = ul[i] + vr[j]` at every stored position of `mask`.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `ul.len() != mask.rows()` or
/// `vr.len() != mask.cols()`.
pub fn sddmm_u_add_v(mask: &CsrMatrix, ul: &[f32], vr: &[f32]) -> Result<CsrMatrix> {
    if ul.len() != mask.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm_u_add_v",
            lhs: mask.shape(),
            rhs: (ul.len(), 1),
        });
    }
    if vr.len() != mask.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm_u_add_v",
            lhs: mask.shape(),
            rhs: (vr.len(), 1),
        });
    }
    let mut out = mask.zeros_like();
    sddmm_u_add_v_into(mask, ul, vr, &mut out)?;
    Ok(out)
}

/// [`sddmm_u_add_v`] writing into a caller-provided weighted CSR buffer
/// sharing `mask`'s pattern. Every stored position is written, so a buffer
/// holding an earlier result (a bound plan's shared slot) is safe.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on operand mismatches or if `out`
/// does not match `mask`'s shape/nnz, and [`MatrixError::MissingValues`] if
/// `out` is unweighted.
pub fn sddmm_u_add_v_into(
    mask: &CsrMatrix,
    ul: &[f32],
    vr: &[f32],
    out: &mut CsrMatrix,
) -> Result<()> {
    if ul.len() != mask.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm_u_add_v",
            lhs: mask.shape(),
            rhs: (ul.len(), 1),
        });
    }
    if vr.len() != mask.cols() {
        return Err(MatrixError::ShapeMismatch {
            op: "sddmm_u_add_v",
            lhs: mask.shape(),
            rhs: (vr.len(), 1),
        });
    }
    check_out_pattern("sddmm_u_add_v_into", mask, out)?;
    let indptr = mask.indptr();
    let indices = mask.indices();
    let out_vals = out.values_mut().expect("checked weighted");
    par_sparse_rows(out_vals, indptr, 1, |i, orow| {
        let s = indptr[i] as usize;
        let e = s + orow.len();
        let ui = ul[i];
        for (v, &j) in orow.iter_mut().zip(&indices[s..e]) {
            *v = ui + vr[j as usize];
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops::gemm, CooMatrix};

    #[test]
    fn sddmm_matches_masked_dense_product() {
        let mask = CooMatrix::from_entries(3, 3, &[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 0.5)])
            .unwrap()
            .to_csr();
        let u = DenseMatrix::random(3, 4, 1.0, 8);
        let v = DenseMatrix::random(3, 4, 1.0, 9);
        let out = sddmm(&mask, &u, &v).unwrap();
        let full = gemm(&u, &v.transpose()).unwrap();
        for (i, j, m) in [(0usize, 1usize, 2.0f32), (1, 2, 1.0), (2, 0, 0.5)] {
            assert!((out.get(i, j) - m * full.get(i, j)).abs() < 1e-5);
        }
        // Pattern is preserved: unsampled entries stay zero.
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.nnz(), mask.nnz());
    }

    #[test]
    fn unweighted_mask_uses_implicit_one() {
        let mask = CooMatrix::from_entries(2, 2, &[(0, 1, 7.0)])
            .unwrap()
            .to_csr_unweighted();
        let u = DenseMatrix::from_rows(&[[2.0].as_slice(), [0.0].as_slice()]).unwrap();
        let v = DenseMatrix::from_rows(&[[0.0].as_slice(), [5.0].as_slice()]).unwrap();
        let out = sddmm(&mask, &u, &v).unwrap();
        assert_eq!(out.get(0, 1), 10.0);
    }

    #[test]
    fn shape_mismatches_rejected() {
        let mask = CsrMatrix::identity(2);
        let u = DenseMatrix::zeros(2, 3).unwrap();
        let v = DenseMatrix::zeros(2, 4).unwrap();
        assert!(sddmm(&mask, &u, &v).is_err());
        let w = DenseMatrix::zeros(3, 3).unwrap();
        assert!(sddmm(&mask, &w, &u).is_err());
    }

    #[test]
    fn u_add_v_adds_endpoint_scalars() {
        let mask = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)])
            .unwrap()
            .to_csr_unweighted();
        let out = sddmm_u_add_v(&mask, &[1.0, 2.0], &[10.0, 20.0]).unwrap();
        assert_eq!(out.get(0, 1), 21.0);
        assert_eq!(out.get(1, 0), 12.0);
        assert!(sddmm_u_add_v(&mask, &[1.0], &[10.0, 20.0]).is_err());
        assert!(sddmm_u_add_v(&mask, &[1.0, 2.0], &[10.0]).is_err());
    }
}
