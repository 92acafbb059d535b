//! A buffer arena for allocation-free steady-state execution.
//!
//! GRANII's premise (paper §IV-D, §VI-C) is that selection overhead is paid
//! once while the chosen composition runs for ~100 iterations. That only pays
//! off if the per-iteration path is allocation-free: a [`Workspace`] hands out
//! dense/sparse/vector buffers sized at plan time and recycles them, so after
//! a warm-up iteration every `take_*` call is satisfied from the pool.
//!
//! Every pool miss (a fresh heap allocation) increments the workspace's
//! local counter and allocates through the counted constructors, so it also
//! moves [`crate::buffer_allocations`], which is what the
//! allocation-regression smoke tests assert on: after warm-up, steady-state
//! iterations must not move it.

use crate::{fresh_vals, CsrMatrix, DenseMatrix, Result};

/// A recycling pool of kernel output buffers.
///
/// Buffers are keyed by exact shape (dense: `rows × cols`; vectors: length;
/// sparse: `rows × cols` + `nnz`), so a `take_*` either reuses a returned
/// buffer of the same shape or allocates a fresh one and counts it.
///
/// Sparse buffers are pooled by shape and nonzero count only — a workspace is
/// meant to serve one graph, where every sparse intermediate shares the
/// adjacency's pattern. [`Workspace::take_csr_like`] always (re)stamps the
/// requested pattern's indices when handing a buffer out, so cross-pattern
/// reuse is correct, just not free.
///
/// # Example
///
/// ```
/// use granii_matrix::workspace::Workspace;
///
/// # fn main() -> Result<(), granii_matrix::MatrixError> {
/// let mut ws = Workspace::new();
/// let a = ws.take_dense(4, 3)?;
/// ws.give_dense(a);
/// let _b = ws.take_dense(4, 3)?; // recycled, not reallocated
/// assert_eq!(ws.fresh_allocations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    dense: Vec<DenseMatrix>,
    vals: Vec<Vec<f32>>,
    csr: Vec<CsrMatrix>,
    fresh: u64,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fresh heap allocations performed so far (pool misses).
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.dense.len() + self.vals.len() + self.csr.len()
    }

    /// Hands out a `rows × cols` dense buffer. Contents are unspecified — the
    /// `_into` kernels overwrite every element.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MatrixError::AllocationTooLarge`] if a fresh buffer
    /// would exceed the allocation guard.
    pub fn take_dense(&mut self, rows: usize, cols: usize) -> Result<DenseMatrix> {
        if let Some(i) = self.dense.iter().position(|m| m.shape() == (rows, cols)) {
            return Ok(self.dense.swap_remove(i));
        }
        self.fresh += 1;
        DenseMatrix::zeros(rows, cols)
    }

    /// Returns a dense buffer to the pool.
    pub fn give_dense(&mut self, m: DenseMatrix) {
        self.dense.push(m);
    }

    /// Hands out an `f32` buffer of exactly `len` elements (per-node vectors,
    /// CSR value arrays). Contents are unspecified.
    pub fn take_vals(&mut self, len: usize) -> Vec<f32> {
        if let Some(i) = self.vals.iter().position(|v| v.len() == len) {
            return self.vals.swap_remove(i);
        }
        self.fresh += 1;
        fresh_vals(len)
    }

    /// Returns an `f32` buffer to the pool.
    pub fn give_vals(&mut self, v: Vec<f32>) {
        self.vals.push(v);
    }

    /// Hands out a weighted CSR buffer with `pattern`'s sparsity structure
    /// (values unspecified). Pooled buffers are matched by shape and nonzero
    /// count; the pattern is restamped on reuse only if it differs.
    ///
    /// # Errors
    ///
    /// Propagates CSR construction errors on a pool miss.
    pub fn take_csr_like(&mut self, pattern: &CsrMatrix) -> Result<CsrMatrix> {
        if let Some(i) = self.csr.iter().position(|m| {
            m.shape() == pattern.shape() && m.nnz() == pattern.nnz() && m.is_weighted()
        }) {
            let mut m = self.csr.swap_remove(i);
            if m.indptr() != pattern.indptr() || m.indices() != pattern.indices() {
                // Different pattern with the same counts: restamp (no alloc).
                let vals = m.values().map(<[f32]>::to_vec).unwrap_or_default();
                m = pattern.clone().drop_values().with_values(vals)?;
            }
            return Ok(m);
        }
        self.fresh += 1;
        Ok(pattern.zeros_like())
    }

    /// Returns a CSR buffer to the pool. Unweighted buffers are dropped —
    /// only value-carrying buffers are worth recycling.
    pub fn give_csr(&mut self, m: CsrMatrix) {
        if m.is_weighted() {
            self.csr.push(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn dense_reuse_is_shape_exact() {
        let mut ws = Workspace::new();
        let a = ws.take_dense(3, 4).unwrap();
        ws.give_dense(a);
        let _wrong = ws.take_dense(4, 3).unwrap(); // different shape: miss
        let _right = ws.take_dense(3, 4).unwrap(); // hit
        assert_eq!(ws.fresh_allocations(), 2);
    }

    #[test]
    fn vals_reuse_is_length_exact() {
        let mut ws = Workspace::new();
        let v = ws.take_vals(7);
        ws.give_vals(v);
        assert_eq!(ws.take_vals(7).len(), 7);
        assert_eq!(ws.fresh_allocations(), 1);
    }

    #[test]
    fn csr_reuse_keeps_pattern() {
        let pat = CooMatrix::from_entries(3, 3, &[(0, 1, 1.0), (2, 0, 1.0)])
            .unwrap()
            .to_csr();
        let mut ws = Workspace::new();
        let m = ws.take_csr_like(&pat).unwrap();
        assert_eq!(m.nnz(), 2);
        ws.give_csr(m);
        let m2 = ws.take_csr_like(&pat).unwrap();
        assert_eq!(m2.indices(), pat.indices());
        assert_eq!(ws.fresh_allocations(), 1);
    }

    #[test]
    fn csr_restamps_on_pattern_change() {
        let a = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0)])
            .unwrap()
            .to_csr();
        let b = CooMatrix::from_entries(2, 2, &[(1, 0, 1.0)])
            .unwrap()
            .to_csr();
        let mut ws = Workspace::new();
        let m = ws.take_csr_like(&a).unwrap();
        ws.give_csr(m);
        let m2 = ws.take_csr_like(&b).unwrap();
        assert_eq!(m2.indices(), b.indices());
        assert_eq!(m2.indptr(), b.indptr());
    }

    #[test]
    fn steady_state_cycle_stops_allocating() {
        let mut ws = Workspace::new();
        for _ in 0..10 {
            let a = ws.take_dense(8, 8).unwrap();
            let b = ws.take_dense(8, 4).unwrap();
            ws.give_dense(a);
            ws.give_dense(b);
        }
        assert_eq!(ws.fresh_allocations(), 2);
    }
}
