use crate::ops::sddmm::check_out_pattern;
use crate::{CsrMatrix, MatrixError, Result};

/// Scales a sparse matrix by diagonal matrices on both sides:
/// `out = diag(dl) · a · diag(dr)`, i.e. `out[i,j] = dl[i] * a[i,j] * dr[j]`.
///
/// This is the SDDMM-style lowering of GCN's *pre-computed* normalization
/// `Ñ = D^{-1/2} · Ã · D^{-1/2}` (paper Eq. 3): the dense-dense product of the
/// two rank-1 degree vectors is sampled at the adjacency's pattern. Either
/// side may be `None` to scale on one side only.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if a scaling vector's length does
/// not match the corresponding dimension.
///
/// # Example
///
/// ```
/// use granii_matrix::{ops, CooMatrix};
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let a = CooMatrix::from_entries(2, 2, &[(0, 1, 4.0)])?.to_csr();
/// let out = ops::scale_csr(Some(&[0.5, 1.0]), &a, Some(&[1.0, 0.25]))?;
/// assert_eq!(out.get(0, 1), 0.5);
/// # Ok(())
/// # }
/// ```
pub fn scale_csr(dl: Option<&[f32]>, a: &CsrMatrix, dr: Option<&[f32]>) -> Result<CsrMatrix> {
    if let Some(dl) = dl {
        if dl.len() != a.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "scale_csr",
                lhs: (dl.len(), 1),
                rhs: a.shape(),
            });
        }
    }
    if let Some(dr) = dr {
        if dr.len() != a.cols() {
            return Err(MatrixError::ShapeMismatch {
                op: "scale_csr",
                lhs: a.shape(),
                rhs: (dr.len(), 1),
            });
        }
    }
    let mut out = a.zeros_like();
    scale_csr_into(dl, a, dr, &mut out)?;
    Ok(out)
}

/// [`scale_csr`] writing into a caller-provided weighted CSR buffer sharing
/// `a`'s pattern. Every stored position is written, so a buffer holding an
/// earlier result (a bound plan's shared slot) is safe.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on vector-length mismatches or if
/// `out` does not match `a`'s shape/nnz, and [`MatrixError::MissingValues`]
/// if `out` is unweighted.
pub fn scale_csr_into(
    dl: Option<&[f32]>,
    a: &CsrMatrix,
    dr: Option<&[f32]>,
    out: &mut CsrMatrix,
) -> Result<()> {
    if let Some(dl) = dl {
        if dl.len() != a.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "scale_csr",
                lhs: (dl.len(), 1),
                rhs: a.shape(),
            });
        }
    }
    if let Some(dr) = dr {
        if dr.len() != a.cols() {
            return Err(MatrixError::ShapeMismatch {
                op: "scale_csr",
                lhs: a.shape(),
                rhs: (dr.len(), 1),
            });
        }
    }
    check_out_pattern("scale_csr_into", a, out)?;
    let vals = out.values_mut().expect("checked weighted");
    for i in 0..a.rows() {
        let (s, e) = (a.indptr()[i] as usize, a.indptr()[i + 1] as usize);
        let li = dl.map_or(1.0, |d| d[i]);
        let avals = a.row_values(i);
        for (off, k) in (s..e).enumerate() {
            let j = a.indices()[k] as usize;
            let av = avals.map_or(1.0, |v| v[off]);
            let rj = dr.map_or(1.0, |d| d[j]);
            vals[k] = li * av * rj;
        }
    }
    Ok(())
}

/// Softmax over each row's stored values (GAT's attention normalization).
///
/// Uses the numerically stable max-subtraction formulation. Empty rows are
/// left empty.
///
/// # Errors
///
/// Returns [`MatrixError::MissingValues`] if `a` is unweighted — softmax over
/// implicit ones is a uniform distribution the caller should construct
/// explicitly if intended.
pub fn edge_softmax(a: &CsrMatrix) -> Result<CsrMatrix> {
    let mut out = a.zeros_like();
    edge_softmax_into(a, &mut out)?;
    Ok(out)
}

/// [`edge_softmax`] writing into a caller-provided weighted CSR buffer
/// sharing `a`'s pattern. Empty rows store no positions, so every element of
/// the value array is overwritten and a buffer holding an earlier result (a
/// bound plan's shared slot) is safe.
///
/// # Errors
///
/// Returns [`MatrixError::MissingValues`] if `a` or `out` is unweighted, and
/// [`MatrixError::ShapeMismatch`] if `out` does not match `a`'s shape/nnz.
pub fn edge_softmax_into(a: &CsrMatrix, out: &mut CsrMatrix) -> Result<()> {
    let vals_in = a
        .values()
        .ok_or(MatrixError::MissingValues("edge_softmax"))?;
    check_out_pattern("edge_softmax_into", a, out)?;
    let vals = out.values_mut().expect("checked weighted");
    for i in 0..a.rows() {
        let (s, e) = (a.indptr()[i] as usize, a.indptr()[i + 1] as usize);
        if s == e {
            continue;
        }
        let row = &vals_in[s..e];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0f32;
        for (off, &v) in row.iter().enumerate() {
            let ev = (v - max).exp();
            vals[s + off] = ev;
            sum += ev;
        }
        for v in &mut vals[s..e] {
            *v /= sum;
        }
    }
    Ok(())
}

/// Computes in-degrees by scatter-add "binning" of edges onto their target
/// node, reproducing WiseGraph's normalization path (paper §VI-C1).
///
/// The *result* equals [`CsrMatrix::in_degrees`]; the difference is the
/// execution shape: every edge issues one atomic increment on its destination
/// bin, so on dense graphs (few bins, many edges) the contention makes this
/// primitive far slower than a row scan. The device models charge it as
/// [`crate::WorkStats::binning`]; GRANII's speedups on dense graphs come from
/// selecting compositions that avoid it.
pub fn degrees_by_binning(a: &CsrMatrix) -> Vec<f32> {
    use std::sync::atomic::{AtomicU32, Ordering};
    let bins: Vec<AtomicU32> = (0..a.cols()).map(|_| AtomicU32::new(0)).collect();
    // The scatter loop: one atomic RMW per edge, matching the GPU kernel shape.
    for &c in a.indices() {
        bins[c as usize].fetch_add(1, Ordering::Relaxed);
    }
    bins.into_iter().map(|b| b.into_inner() as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn adj() -> CsrMatrix {
        CooMatrix::from_entries(3, 3, &[(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0)])
            .unwrap()
            .to_csr()
    }

    #[test]
    fn scale_csr_scales_both_sides() {
        let a = adj();
        let dl = [2.0, 3.0, 5.0];
        let dr = [7.0, 11.0, 13.0];
        let out = scale_csr(Some(&dl), &a, Some(&dr)).unwrap();
        assert_eq!(out.get(0, 1), 2.0 * 1.0 * 11.0);
        assert_eq!(out.get(2, 0), 5.0 * 4.0 * 7.0);
    }

    #[test]
    fn scale_csr_one_sided_and_unweighted() {
        let a = adj().drop_values();
        let out = scale_csr(Some(&[2.0, 2.0, 2.0]), &a, None).unwrap();
        assert_eq!(out.get(0, 2), 2.0);
        let out2 = scale_csr(None, &a, Some(&[3.0, 3.0, 3.0])).unwrap();
        assert_eq!(out2.get(1, 2), 3.0);
    }

    #[test]
    fn scale_csr_validates_lengths() {
        let a = adj();
        assert!(scale_csr(Some(&[1.0]), &a, None).is_err());
        assert!(scale_csr(None, &a, Some(&[1.0])).is_err());
    }

    #[test]
    fn edge_softmax_rows_sum_to_one() {
        let a = adj();
        let sm = edge_softmax(&a).unwrap();
        for i in 0..3 {
            let sum: f32 = sm.row_values(i).unwrap().iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {i} sums to {sum}");
        }
        // Larger logits get larger probabilities.
        assert!(sm.get(0, 2) > sm.get(0, 1));
    }

    #[test]
    fn edge_softmax_is_shift_invariant() {
        let a = adj();
        let shifted = scale_csr(None, &a, None).unwrap(); // copy
        let shifted = shifted
            .clone()
            .with_values(
                shifted
                    .values()
                    .unwrap()
                    .iter()
                    .map(|v| v + 100.0)
                    .collect(),
            )
            .unwrap();
        let s1 = edge_softmax(&a).unwrap();
        let s2 = edge_softmax(&shifted).unwrap();
        for (a, b) in s1.values().unwrap().iter().zip(s2.values().unwrap()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn edge_softmax_requires_values() {
        assert!(matches!(
            edge_softmax(&adj().drop_values()),
            Err(MatrixError::MissingValues("edge_softmax"))
        ));
    }

    #[test]
    fn binning_matches_in_degrees() {
        let a = adj();
        assert_eq!(degrees_by_binning(&a), a.in_degrees());
    }
}
