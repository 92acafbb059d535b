use serde::{Deserialize, Serialize};

use crate::{MatrixError, Result};

/// Guard limit on single dense allocations (in `f32` elements, = 4 GiB).
///
/// The paper's evaluation hits out-of-memory and illegal-memory-access failures
/// for some baseline configurations (Fig 8, Table IV); this guard turns the
/// equivalent situations into a typed error instead of aborting the process.
pub const DENSE_ALLOC_LIMIT: usize = 1 << 30;

/// A row-major dense `f32` matrix.
///
/// This is the dense operand type for every dense primitive in the crate
/// (GEMM, row-broadcast, element-wise maps) and the embedding/feature storage
/// for the GNN stack built on top.
///
/// # Example
///
/// ```
/// use granii_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let m = DenseMatrix::from_rows(&[[1.0, 2.0].as_slice(), [3.0, 4.0].as_slice()])?;
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m.get(1, 0), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::AllocationTooLarge`] if `rows * cols` exceeds the
    /// allocation guard ([`DENSE_ALLOC_LIMIT`]).
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        let elements = rows
            .checked_mul(cols)
            .ok_or(MatrixError::AllocationTooLarge {
                elements: usize::MAX,
                limit: DENSE_ALLOC_LIMIT,
            })?;
        if elements > DENSE_ALLOC_LIMIT {
            return Err(MatrixError::AllocationTooLarge {
                elements,
                limit: DENSE_ALLOC_LIMIT,
            });
        }
        // Every fresh dense buffer passes through here; the count lets the
        // allocation-regression tests prove the steady-state path stays off it.
        Ok(Self {
            rows,
            cols,
            data: crate::fresh_vals(elements),
        })
    }

    /// Creates a matrix from a raw row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidDenseLength`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidDenseLength {
                len: data.len(),
                expected: rows * cols,
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidDenseLength`] if the rows are ragged.
    pub fn from_rows<R: AsRef<[f32]>>(rows: &[R]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            let r = r.as_ref();
            if r.len() != ncols {
                return Err(MatrixError::InvalidDenseLength {
                    len: r.len(),
                    expected: ncols,
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix by calling `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with pseudo-random entries in `[-scale, scale)`.
    ///
    /// Uses a deterministic xorshift stream seeded by `seed`, so model
    /// initializations are reproducible without pulling a RNG dependency into
    /// the kernel crate.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map the top 24 bits to [-1, 1).
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let data = (0..rows * cols).map(|_| next() * scale).collect();
        Self { rows, cols, data }
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

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "dense index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "dense index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = vec![0.0f32; self.data.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        DenseMatrix {
            rows: self.cols,
            cols: self.rows,
            data: out,
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combination of two equally-shaped matrices.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if shapes differ.
    pub fn zip_with(
        &self,
        other: &DenseMatrix,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<DenseMatrix> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "zip_with",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> DenseMatrix {
        self.map(|v| v * s)
    }

    /// Rectified linear unit applied element-wise.
    pub fn relu(&self) -> DenseMatrix {
        self.map(|v| v.max(0.0))
    }

    /// Leaky ReLU with the given negative slope, applied element-wise.
    pub fn leaky_relu(&self, slope: f32) -> DenseMatrix {
        self.map(move |v| if v >= 0.0 { v } else { slope * v })
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute difference against another matrix, used by tests.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(MatrixError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = DenseMatrix::zeros(3, 4).unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = DenseMatrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(
            err,
            MatrixError::InvalidDenseLength {
                len: 3,
                expected: 4
            }
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(DenseMatrix::from_rows(&rows).is_err());
    }

    #[test]
    fn transpose_round_trips() {
        let m = DenseMatrix::from_fn(3, 5, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(4, 2), m.get(2, 4));
    }

    #[test]
    fn add_and_sub_are_inverses() {
        let a = DenseMatrix::random(4, 4, 1.0, 1);
        let b = DenseMatrix::random(4, 4, 1.0, 2);
        let s = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(s.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn relu_clamps_negatives() {
        let m = DenseMatrix::from_rows(&[[-1.0, 2.0].as_slice()]).unwrap();
        assert_eq!(m.relu().as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let m = DenseMatrix::from_rows(&[[-2.0, 4.0].as_slice()]).unwrap();
        assert_eq!(m.leaky_relu(0.5).as_slice(), &[-1.0, 4.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = DenseMatrix::random(3, 3, 1.0, 42);
        let b = DenseMatrix::random(3, 3, 1.0, 42);
        let c = DenseMatrix::random(3, 3, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn allocation_guard_trips() {
        let err = DenseMatrix::zeros(usize::MAX / 2, 3).unwrap_err();
        assert!(matches!(err, MatrixError::AllocationTooLarge { .. }));
    }
}
