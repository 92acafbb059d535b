//! GNN models, message passing, autodiff, and baseline-system emulation.
//!
//! This crate is the "GNN framework" substrate of the GRANII reproduction. It
//! plays the role WiseGraph and DGL play in the paper:
//!
//! - [`exec::Exec`] routes every primitive invocation through a
//!   [`granii_matrix::device::Engine`] so runs are profiled (measured on CPU,
//!   modeled for the GPU presets), with a *virtual* mode that propagates
//!   shapes/patterns without computing values — how the benchmark harness
//!   sweeps large configuration grids quickly,
//! - [`ctx::GraphCtx`] caches per-graph state (degrees, normalizers,
//!   irregularity, and the self-loop form, built on first use),
//! - [`models`] implements **GCN, GIN, SGC, TAGCN, GAT, and GraphSAGE**, each
//!   with every primitive composition the paper's case study describes
//!   (§III: dynamic-normalization vs precompute for GCN, reuse vs recompute
//!   for GAT, update-first vs aggregate-first orderings),
//! - [`autodiff`] is a reverse-mode tape over the same primitives (gradients
//!   of SpMM/SDDMM/softmax are themselves primitive compositions, as in DGL),
//!   used for the training-mode evaluation (§VI-C),
//! - [`system`] emulates the *default* composition choices of DGL and
//!   WiseGraph, including WiseGraph's binning-based normalization whose atomic
//!   contention makes dense graphs pathological (§VI-C1),
//! - [`train`] runs SGD steps over tape-built models.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autodiff;
pub mod ctx;
mod error;
pub mod exec;
pub mod models;
pub mod spec;
pub mod system;
pub mod train;

pub use ctx::GraphCtx;
pub use error::GnnError;
pub use exec::Exec;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, GnnError>;
