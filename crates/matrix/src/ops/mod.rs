//! The sparse and dense matrix primitives GNN computations decompose into.
//!
//! Following the paper's §II, every GNN stage lowers to a composition of:
//!
//! - [`gemm`] — dense matrix multiplication (update stage),
//! - [`spmm`] — generalized SpMM (node-wise aggregation),
//! - [`sddmm`] / [`sddmm_u_add_v`] — generalized SDDMM (edge-wise computation),
//! - [`row_broadcast`] / [`col_broadcast`] — per-node scaling (normalization),
//! - [`edge_softmax`] — attention-score normalization,
//! - [`scale_csr`] — `diag · sparse · diag` edge scaling (the SDDMM lowering
//!   of GCN's pre-computed normalization, Eq. 3),
//! - [`degrees_by_binning`] — WiseGraph's scatter-add degree computation.
//!
//! All kernels are deterministic: parallelism is over disjoint output rows.
//!
//! Every hot kernel also has a `*_into` variant writing into a caller-provided
//! buffer, which may hold an earlier result (the compile-once engine's bound
//! plans rewrite shared slots every iterate); the allocating form delegates
//! to it, so the two are bitwise identical. The dense `_into` forms are in
//! turn the batch-of-one case of their multi-RHS twins ([`gemm_rhs_blocks_into`],
//! [`spmm_cols_into`], [`row_broadcast_cols_into`],
//! [`col_broadcast_blocks_into`]), which the compile-once execution engine
//! drives at every batch size: each primitive has one kernel body.

mod batched;
mod broadcast;
mod edge;
mod gemm;
mod rowkernel;
mod sddmm;
mod spmm;

pub use batched::{
    col_broadcast_blocks_into, copy_cols_into, gemm_rhs_blocks_into, map_cols_into,
    row_broadcast_cols_into, spmm_cols_into, tile_cols_into, zip_cols_assign,
};
pub use broadcast::{
    col_broadcast, col_broadcast_into, row_broadcast, row_broadcast_into, BroadcastOp,
};
pub use edge::{degrees_by_binning, edge_softmax, edge_softmax_into, scale_csr, scale_csr_into};
pub use gemm::{gemm, gemm_into};
pub use sddmm::{sddmm, sddmm_into, sddmm_u_add_v, sddmm_u_add_v_into};
pub use spmm::{spmm, spmm_into};

/// The compiled kernel configuration: the vector width and the
/// tile/banding/scheduling constants the hot `_into` kernels use. Surfaced by
/// the CLI's `kernels` command so a bench or serve run can record exactly
/// which kernel build produced its numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// `f32` lanes per SIMD vector.
    pub lanes: usize,
    /// Hub-band SpMM column tile, in vectors.
    pub spmm_col_tile: usize,
    /// Stored-edge count at or below which a row takes the short-row band.
    pub short_row_edges: usize,
    /// Output rows per register-tiled GEMM block.
    pub gemm_row_block: usize,
    /// GEMM column tile, in vectors.
    pub gemm_col_tile: usize,
    /// Instruction set of the GEMM tile this host dispatches to at run
    /// time: `avx2` or `baseline` (the build's target features).
    pub gemm_instance: &'static str,
    /// nnz-equivalents per weighted scheduler chunk.
    pub chunk_weight: u64,
    /// Flat per-row cost the weighted schedulers add on top of nnz.
    pub row_base_cost: u64,
    /// Work threshold (elements) below which kernels stay serial.
    pub parallel_threshold: usize,
    /// Resolved worker-thread count (after `GRANII_THREADS` and the cap).
    pub threads: usize,
}

impl std::fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "kernels: f32x{}", self.lanes)?;
        writeln!(
            f,
            "  spmm   : col tile {} vec, short-row band <= {} edges",
            self.spmm_col_tile, self.short_row_edges
        )?;
        writeln!(
            f,
            "  gemm   : {} x {}-vec register tile, {}",
            self.gemm_row_block, self.gemm_col_tile, self.gemm_instance
        )?;
        writeln!(
            f,
            "  sched  : nnz-weighted chunks of {} (+{}/row), serial under {} elems",
            self.chunk_weight, self.row_base_cost, self.parallel_threshold
        )?;
        write!(f, "  threads: {}", self.threads)
    }
}

/// Returns the kernel configuration compiled into this build (plus the
/// runtime-resolved GEMM instance and thread count).
pub fn kernel_config() -> KernelConfig {
    KernelConfig {
        lanes: crate::simd::LANES,
        spmm_col_tile: rowkernel::SPMM_COL_TILE,
        short_row_edges: rowkernel::SHORT_ROW_EDGES,
        gemm_row_block: rowkernel::GEMM_ROW_BLOCK,
        gemm_col_tile: rowkernel::GEMM_COL_TILE,
        gemm_instance: rowkernel::gemm_instance(),
        chunk_weight: crate::parallel::CHUNK_WEIGHT,
        row_base_cost: crate::parallel::ROW_BASE_COST,
        parallel_threshold: crate::parallel::PARALLEL_THRESHOLD,
        threads: crate::parallel::num_threads(),
    }
}
