use serde::{Deserialize, Serialize};

use crate::{DenseMatrix, MatrixError, Result};

/// A sparse matrix in compressed sparse row (CSR) form.
///
/// `values` is optional: `None` represents an *unweighted* sparse matrix whose
/// stored entries are implicitly `1.0`. This distinction matters to GRANII —
/// the paper's Table I tracks `weighted` vs `unweighted` as sparse
/// sub-attributes because unweighted aggregation admits a cheaper g-SpMM that
/// never reads edge values (§III-A).
///
/// # Example
///
/// ```
/// use granii_matrix::CsrMatrix;
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let csr = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], None)?;
/// assert_eq!(csr.nnz(), 2);
/// assert!(!csr.is_weighted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<u64>,
    indices: Vec<u32>,
    values: Option<Vec<f32>>,
}

/// Summary statistics of the row-length (degree) distribution of a CSR matrix.
///
/// These are the structural inputs to GRANII's input featurizer and to the
/// device models' irregularity penalty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RowStats {
    /// Mean nonzeros per row.
    pub mean: f64,
    /// Maximum nonzeros in any row.
    pub max: u64,
    /// Minimum nonzeros in any row.
    pub min: u64,
    /// Standard deviation of nonzeros per row.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`, 0 for empty matrices).
    pub cv: f64,
    /// Fraction of rows with zero nonzeros.
    pub empty_row_fraction: f64,
}

impl RowStats {
    /// The statistics of a matrix with these row lengths, one per row —
    /// what [`CsrMatrix::row_stats`] computes, for a caller that knows the
    /// row lengths of a matrix it has not built.
    pub fn of_row_lengths(lengths: impl ExactSizeIterator<Item = u64>) -> RowStats {
        let rows = lengths.len();
        if rows == 0 {
            return RowStats {
                mean: 0.0,
                max: 0,
                min: 0,
                std_dev: 0.0,
                cv: 0.0,
                empty_row_fraction: 0.0,
            };
        }
        let mut max = 0u64;
        let mut min = u64::MAX;
        let mut sum = 0u64;
        let mut sum_sq = 0f64;
        let mut empty = 0usize;
        for d in lengths {
            max = max.max(d);
            min = min.min(d);
            sum += d;
            sum_sq += (d as f64) * (d as f64);
            if d == 0 {
                empty += 1;
            }
        }
        let n = rows as f64;
        let mean = sum as f64 / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        let std_dev = var.sqrt();
        let cv = if mean > 0.0 { std_dev / mean } else { 0.0 };
        RowStats {
            mean,
            max,
            min,
            std_dev,
            cv,
            empty_row_fraction: empty as f64 / n,
        }
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidCsr`] if `indptr` has the wrong length, is
    /// not monotone, does not end at `indices.len()`, if any column index is
    /// out of range, if columns within a row are not strictly increasing, or if
    /// `values` is present with a length different from `indices`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Option<Vec<f32>>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(MatrixError::InvalidCsr(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indptr.first() != Some(&0) {
            return Err(MatrixError::InvalidCsr("indptr must start at 0".into()));
        }
        if *indptr.last().expect("indptr nonempty") != indices.len() as u64 {
            return Err(MatrixError::InvalidCsr(format!(
                "indptr must end at nnz = {}, got {}",
                indices.len(),
                indptr.last().unwrap()
            )));
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(MatrixError::InvalidCsr(
                    "indptr must be nondecreasing".into(),
                ));
            }
        }
        for r in 0..rows {
            let (s, e) = (indptr[r] as usize, indptr[r + 1] as usize);
            let row = &indices[s..e];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::InvalidCsr(format!(
                        "columns in row {r} must be strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= cols {
                    return Err(MatrixError::InvalidCsr(format!(
                        "column {last} out of range in row {r} (cols = {cols})"
                    )));
                }
            }
        }
        if let Some(v) = &values {
            if v.len() != indices.len() {
                return Err(MatrixError::InvalidCsr(format!(
                    "values length {} != nnz {}",
                    v.len(),
                    indices.len()
                )));
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix without validation. Used by trusted in-crate
    /// conversions (e.g. COO sorting) that construct valid arrays by design.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Option<Vec<f32>>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// An identity matrix of size `n` (weighted, all ones on the diagonal).
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n as u64).collect(),
            indices: (0..n as u32).collect(),
            values: Some(vec![1.0; n]),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Density (`nnz / (rows * cols)`), 0 for degenerate shapes.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Whether edge values are stored.
    pub fn is_weighted(&self) -> bool {
        self.values.is_some()
    }

    /// The row-pointer array.
    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    /// The column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value array, if the matrix is weighted.
    pub fn values(&self) -> Option<&[f32]> {
        self.values.as_deref()
    }

    /// Mutable access to the value array, if the matrix is weighted. The
    /// `_into` kernels write results through this without reallocating.
    pub fn values_mut(&mut self) -> Option<&mut [f32]> {
        self.values.as_deref_mut()
    }

    /// Column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_indices(&self, r: usize) -> &[u32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.indices[self.indptr[r] as usize..self.indptr[r + 1] as usize]
    }

    /// Values of row `r`, if weighted.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_values(&self, r: usize) -> Option<&[f32]> {
        assert!(r < self.rows, "row index out of bounds");
        self.values
            .as_ref()
            .map(|v| &v[self.indptr[r] as usize..self.indptr[r + 1] as usize])
    }

    /// Number of nonzeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.rows, "row index out of bounds");
        (self.indptr[r + 1] - self.indptr[r]) as usize
    }

    /// Returns a copy of this matrix without values (unweighted).
    pub fn drop_values(mut self) -> CsrMatrix {
        self.values = None;
        self
    }

    /// Returns a copy of this matrix with the given values attached.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidCsr`] if `values.len() != nnz`.
    pub fn with_values(mut self, values: Vec<f32>) -> Result<CsrMatrix> {
        if values.len() != self.nnz() {
            return Err(MatrixError::InvalidCsr(format!(
                "values length {} != nnz {}",
                values.len(),
                self.nnz()
            )));
        }
        self.values = Some(values);
        Ok(self)
    }

    /// A weighted matrix with this matrix's pattern and every value zero: a
    /// fresh output buffer for a kernel that writes over the pattern. Copies
    /// `indptr` and `indices`, never the values.
    pub fn zeros_like(&self) -> CsrMatrix {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: Some(crate::fresh_vals(self.nnz())),
        }
    }

    /// Out-degrees (row lengths) as `f32`.
    pub fn out_degrees(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row_nnz(r) as f32).collect()
    }

    /// In-degrees (column counts) computed by a scatter pass.
    pub fn in_degrees(&self) -> Vec<f32> {
        let mut deg = vec![0.0f32; self.cols];
        for &c in &self.indices {
            deg[c as usize] += 1.0;
        }
        deg
    }

    /// Row-length distribution statistics.
    pub fn row_stats(&self) -> RowStats {
        RowStats::of_row_lengths(self.indptr.windows(2).map(|w| w[1] - w[0]))
    }

    /// Transposes the matrix (CSR → CSR of the transpose).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0u64; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut slots = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = self.values.as_ref().map(|_| vec![0f32; self.nnz()]);
        for r in 0..self.rows {
            let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            for k in s..e {
                let c = self.indices[k] as usize;
                let slot = slots[c] as usize;
                indices[slot] = r as u32;
                if let (Some(out), Some(vin)) = (&mut values, &self.values) {
                    out[slot] = vin[k];
                }
                slots[c] += 1;
            }
        }
        // Rows of the transpose come out sorted because we scan source rows in
        // increasing order.
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Whether the sparsity pattern is symmetric (values ignored).
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        self.indptr == t.indptr && self.indices == t.indices
    }

    /// Materializes the matrix as dense; intended for tests and tiny inputs.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::AllocationTooLarge`] if the dense form exceeds
    /// the allocation guard.
    pub fn to_dense(&self) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols)?;
        for r in 0..self.rows {
            let (s, e) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
            for k in s..e {
                let c = self.indices[k] as usize;
                let v = self.values.as_ref().map_or(1.0, |v| v[k]);
                out.set(r, c, v);
            }
        }
        Ok(out)
    }

    /// Value at `(row, col)`, treating missing entries as 0 and unweighted
    /// stored entries as 1.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "sparse index out of bounds"
        );
        let cols = self.row_indices(row);
        match cols.binary_search(&(col as u32)) {
            Ok(k) => self.row_values(row).map_or(1.0, |v| v[k]),
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[0 1 0], [2 0 3]]
        CsrMatrix::from_parts(
            2,
            3,
            vec![0, 1, 3],
            vec![1, 0, 2],
            Some(vec![1.0, 2.0, 3.0]),
        )
        .unwrap()
    }

    #[test]
    fn from_parts_validates_indptr_len() {
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], None).is_err());
    }

    #[test]
    fn from_parts_validates_monotonicity() {
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], None).is_err());
    }

    #[test]
    fn from_parts_validates_column_order_and_range() {
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 1], None).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], None).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![1, 1], None).is_err());
    }

    #[test]
    fn from_parts_validates_values_len() {
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![0], Some(vec![1.0, 2.0])).is_err());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.to_dense().unwrap(), m.to_dense().unwrap().transpose());
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn degrees_are_consistent() {
        let m = sample();
        assert_eq!(m.out_degrees(), vec![1.0, 2.0]);
        assert_eq!(m.in_degrees(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn row_stats_on_sample() {
        let m = sample();
        let s = m.row_stats();
        assert_eq!(s.max, 2);
        assert_eq!(s.min, 1);
        assert!((s.mean - 1.5).abs() < 1e-12);
        assert_eq!(s.empty_row_fraction, 0.0);
    }

    #[test]
    fn get_reads_stored_and_missing_entries() {
        let m = sample();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 2), 3.0);
        let u = m.clone().drop_values();
        assert_eq!(u.get(1, 2), 1.0);
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert!(i.is_pattern_symmetric());
    }

    #[test]
    fn pattern_symmetry_detects_asymmetry() {
        let m = sample();
        assert!(!m.is_pattern_symmetric());
        let sym = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], None).unwrap();
        assert!(sym.is_pattern_symmetric());
    }
}
