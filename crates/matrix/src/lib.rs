//! Sparse and dense matrix primitives for GNN computations.
//!
//! This crate is the kernel substrate of the GRANII reproduction. It provides:
//!
//! - [`DenseMatrix`]: row-major dense `f32` matrices and element-wise operations,
//! - [`CsrMatrix`] / [`CooMatrix`]: sparse matrices in CSR/COO form,
//! - [`DiagMatrix`]: diagonal matrices (e.g. degree normalizers),
//! - the generalized matrix primitives used by GNN frameworks (see the paper's
//!   §II): [`ops::gemm`], [`ops::spmm`] (g-SpMM), [`ops::sddmm`] (g-SDDMM),
//!   row/column broadcasts, and edge softmax,
//! - [`stats::WorkStats`]: per-primitive work accounting (flops, bytes, atomics),
//! - [`device`]: analytical device performance models (CPU / A100 / H100) and the
//!   [`device::Engine`] that either measures wall-clock time or converts work
//!   statistics into modeled latencies. The device models substitute for the
//!   GPUs used in the paper's evaluation (see `DESIGN.md` §2).
//!
//! # Example
//!
//! ```
//! use granii_matrix::{CooMatrix, DenseMatrix, ops, Semiring};
//!
//! # fn main() -> Result<(), granii_matrix::MatrixError> {
//! // A tiny 3-node path graph: 0 - 1 - 2 (undirected).
//! let adj = CooMatrix::from_entries(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])?
//!     .to_csr();
//! let feats = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], [2.0, 2.0].as_slice()])?;
//! // Aggregate neighbor features: g-SpMM with the (+, copy-rhs) semiring.
//! let agg = ops::spmm(&adj, &feats, Semiring::plus_copy_rhs())?;
//! assert_eq!(agg.get(0, 1), 1.0); // node 0 sees node 1's features
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};

mod coo;
mod csr;
mod dense;
pub mod device;
mod diag;
mod error;
pub mod ops;
pub mod parallel;
mod semiring;
mod simd;
pub mod stats;

pub use coo::CooMatrix;
pub use csr::{CsrMatrix, RowStats};
pub use dense::{DenseMatrix, DENSE_ALLOC_LIMIT};
pub use diag::DiagMatrix;
pub use error::MatrixError;
pub use semiring::{MulOp, ReduceOp, Semiring};
pub use stats::{PrimitiveKind, WorkStats};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

static BUFFER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Fresh kernel buffers allocated in this process so far: one per
/// [`DenseMatrix::zeros`] and one per fresh sparse-value array
/// ([`CsrMatrix::zeros_like`]). The compile-once contract is that a bound plan's steady-state
/// iterations leave it unchanged. The count is always on (one relaxed add
/// per fresh buffer, none on a reused one) and process-wide, so a difference
/// of two readings is exact only while no other thread allocates kernel
/// buffers.
pub fn buffer_allocations() -> u64 {
    BUFFER_ALLOCATIONS.load(Ordering::Relaxed)
}

/// A fresh, zeroed `f32` buffer of `len` elements, counted in
/// [`buffer_allocations`]. Every fresh dense and sparse-value buffer is made
/// here.
pub(crate) fn fresh_vals(len: usize) -> Vec<f32> {
    BUFFER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    vec![0.0; len]
}
