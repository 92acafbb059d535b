//! The profiled primitive executor.
//!
//! Every primitive a model runs goes through [`Exec`], which (1) validates
//! shapes, (2) builds the [`WorkStats`] record for the invocation, and
//! (3) charges it to the underlying [`Engine`] — measuring wall time or
//! modeling device latency depending on the engine's policy.
//!
//! Each dense primitive — GEMM, SpMM, row and column broadcast, the
//! element-wise map and the add-assign — does those three steps in exactly
//! one method, its multi-RHS form (`gemm_rhs_blocks_into`, `spmm_cols_into`,
//! …). Its allocating method (`gemm`, `spmm`, …) checks the operands,
//! allocates the output and calls that form at batch one, so both charge
//! alike by construction. The sparse-output primitives a bound plan runs
//! have one buffer-writing method each (`sddmm_u_add_v_into`,
//! `scale_csr_into`, `edge_softmax_into`, `map_csr_assign`); their
//! allocating forms call it on a fresh [`CsrMatrix::zeros_like`] buffer (the
//! sparse map, on a copy of its input).
//!
//! A bound plan (`granii_core::execplan`) calls only those buffer-writing
//! methods, into buffers it owns; everything else (the hand-written
//! compositions, autodiff, the baseline systems) calls the allocating ones.
//!
//! `Exec` has two value modes:
//!
//! - **real**: kernels compute actual values (correctness tests, examples,
//!   small-scale runs),
//! - **virtual**: kernels are skipped; outputs are zero-filled with the right
//!   shape/pattern. Latency charges are identical (they depend only on shapes
//!   and sparsity structure), which is what lets the evaluation harness sweep
//!   the paper's full configuration grid in seconds. Shapes are checked in
//!   both modes.

use granii_matrix::device::{ChargeSummary, Engine};
use granii_matrix::ops::{self, BroadcastOp};
use granii_matrix::{CsrMatrix, DenseMatrix, MatrixError, Semiring, WorkStats};

use crate::Result;

/// Primitive executor bound to a device engine.
#[derive(Debug, Clone, Copy)]
pub struct Exec<'e> {
    engine: &'e Engine,
    compute: bool,
}

impl<'e> Exec<'e> {
    /// An executor that computes real values.
    pub fn real(engine: &'e Engine) -> Self {
        Self {
            engine,
            compute: true,
        }
    }

    /// An executor that only propagates shapes/patterns (zero values) but
    /// charges the same latencies.
    pub fn virtual_only(engine: &'e Engine) -> Self {
        Self {
            engine,
            compute: false,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Whether kernels compute real values.
    pub fn computes_values(&self) -> bool {
        self.compute
    }

    /// Marks the current position in the engine's charge log. Pair with
    /// [`Exec::charged_since`] to attribute the kernels a region dispatched
    /// (e.g. one ExecPlan instruction) without draining the profile.
    pub fn profile_mark(&self) -> usize {
        self.engine.profile_len()
    }

    /// Aggregated charges (kernel count, charged/predicted seconds, flops,
    /// bytes) since `mark`, leaving the engine profile intact.
    pub fn charged_since(&self, mark: usize) -> ChargeSummary {
        self.engine.summarize_since(mark)
    }

    /// Dense matrix multiplication.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn gemm(&self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        if a.cols() != b.rows() {
            return Err(mismatch("gemm", a.shape(), b.shape()));
        }
        let mut out = DenseMatrix::zeros(a.rows(), b.cols())?;
        self.gemm_rhs_blocks_into(a, b, 1, &mut out)?;
        Ok(out)
    }

    /// Generalized SpMM; `irregularity` is the adjacency's degree CV.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn spmm(
        &self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
        semiring: Semiring,
        irregularity: f64,
    ) -> Result<DenseMatrix> {
        if adj.cols() != x.rows() {
            return Err(mismatch("spmm", adj.shape(), x.shape()));
        }
        let mut out = DenseMatrix::zeros(adj.rows(), x.cols())?;
        self.spmm_cols_into(adj, x, x.cols(), 1, semiring, irregularity, &mut out)?;
        Ok(out)
    }

    /// Generalized SDDMM (`mask ∘ (U · Vᵀ)`).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn sddmm(
        &self,
        mask: &CsrMatrix,
        u: &DenseMatrix,
        v: &DenseMatrix,
        irregularity: f64,
    ) -> Result<CsrMatrix> {
        if u.cols() != v.cols() || u.rows() != mask.rows() || v.rows() != mask.cols() {
            return Err(mismatch("sddmm", u.shape(), v.shape()));
        }
        let mut out = mask.zeros_like();
        let stats = WorkStats::sddmm(mask.rows(), mask.nnz(), u.cols(), irregularity);
        if self.compute {
            self.engine
                .run(stats, || ops::sddmm_into(mask, u, v, &mut out))?;
        } else {
            self.engine.charge(stats);
        }
        Ok(out)
    }

    /// SDDMM with `u_add_v` on per-node scalars (GAT logits).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn sddmm_u_add_v(
        &self,
        mask: &CsrMatrix,
        ul: &[f32],
        vr: &[f32],
        irregularity: f64,
    ) -> Result<CsrMatrix> {
        let mut out = mask.zeros_like();
        self.sddmm_u_add_v_into(mask, ul, vr, irregularity, &mut out)?;
        Ok(out)
    }

    /// `diag(dl) · a · diag(dr)` edge scaling, charged as an SDDMM with k = 1
    /// (it is the sampled product of two rank-1 factors).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn scale_csr(
        &self,
        dl: Option<&[f32]>,
        a: &CsrMatrix,
        dr: Option<&[f32]>,
        irregularity: f64,
    ) -> Result<CsrMatrix> {
        let mut out = a.zeros_like();
        self.scale_csr_into(dl, a, dr, irregularity, &mut out)?;
        Ok(out)
    }

    /// Row-broadcast (`d[i] ⊙ row i`).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn row_broadcast(
        &self,
        d: &[f32],
        m: &DenseMatrix,
        op: BroadcastOp,
    ) -> Result<DenseMatrix> {
        if d.len() != m.rows() {
            return Err(mismatch("row_broadcast", (d.len(), 1), m.shape()));
        }
        let mut out = DenseMatrix::zeros(m.rows(), m.cols())?;
        self.row_broadcast_cols_into(d, m, m.cols(), 1, op, &mut out)?;
        Ok(out)
    }

    /// Column-broadcast (`d[j] ⊙ column j`).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn col_broadcast(
        &self,
        m: &DenseMatrix,
        d: &[f32],
        op: BroadcastOp,
    ) -> Result<DenseMatrix> {
        if d.len() != m.cols() {
            return Err(mismatch("col_broadcast", m.shape(), (d.len(), 1)));
        }
        let mut out = DenseMatrix::zeros(m.rows(), m.cols())?;
        self.col_broadcast_blocks_into(m, d, 1, op, &mut out)?;
        Ok(out)
    }

    /// Element-wise map over a dense matrix (ReLU and friends).
    ///
    /// # Errors
    ///
    /// Propagates the allocation guard's error.
    pub fn map(
        &self,
        m: &DenseMatrix,
        flops_per_elem: u32,
        f: impl Fn(f32) -> f32 + Sync,
    ) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(m.rows(), m.cols())?;
        self.map_cols_into(m, m.cols(), 1, flops_per_elem, f, &mut out)?;
        Ok(out)
    }

    /// Element-wise combination of two dense matrices: an uncharged copy of
    /// `a`, then the charged `f(copy, b)` in place.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn zip(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        flops_per_elem: u32,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<DenseMatrix> {
        if a.shape() != b.shape() {
            return Err(mismatch("zip_with", a.shape(), b.shape()));
        }
        let mut out = DenseMatrix::zeros(a.rows(), a.cols())?;
        out.as_mut_slice().copy_from_slice(a.as_slice());
        self.zip_cols_assign(&mut out, b, a.cols(), 1, flops_per_elem, f)?;
        Ok(out)
    }

    /// Element-wise map over sparse values (leaky-ReLU on attention logits).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is unweighted.
    pub fn map_csr_values(&self, a: &CsrMatrix, f: impl Fn(f32) -> f32) -> Result<CsrMatrix> {
        let mut out = a.clone();
        self.map_csr_assign(&mut out, f)?;
        Ok(out)
    }

    /// Edge softmax (attention normalization).
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is unweighted.
    pub fn edge_softmax(&self, a: &CsrMatrix, irregularity: f64) -> Result<CsrMatrix> {
        let mut out = a.zeros_like();
        self.edge_softmax_into(a, irregularity, &mut out)?;
        Ok(out)
    }

    /// Degree computation by scatter-add binning (WiseGraph's normalization
    /// path; pays atomic contention on dense graphs).
    pub fn degrees_by_binning(&self, a: &CsrMatrix) -> Vec<f32> {
        let stats = WorkStats::binning(a.nnz(), a.cols());
        if self.compute {
            self.engine.run(stats, || ops::degrees_by_binning(a))
        } else {
            self.engine.charge(stats);
            vec![0.0; a.cols()]
        }
    }

    /// Degree computation by a row-pointer scan (the cheap path), charged as
    /// an element-wise pass over the rows.
    pub fn degrees_by_scan(&self, a: &CsrMatrix) -> Vec<f32> {
        let stats = WorkStats::elementwise(a.rows(), 1);
        self.engine.run(stats, || a.out_degrees())
    }

    // --- Sparse buffer-writing methods ----------------------------------
    //
    // Same charge as the allocating form, no allocation: results land in a
    // caller's buffer (a bound plan's slot, rewritten every iterate). Each
    // method checks its operands and `out`'s pattern in both value modes;
    // virtual mode zero-fills `out`'s values.

    /// [`Exec::sddmm_u_add_v`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mismatched `out` pattern).
    pub fn sddmm_u_add_v_into(
        &self,
        mask: &CsrMatrix,
        ul: &[f32],
        vr: &[f32],
        irregularity: f64,
        out: &mut CsrMatrix,
    ) -> Result<()> {
        let stats = WorkStats::sddmm(mask.rows(), mask.nnz(), 1, irregularity);
        if self.compute {
            self.engine
                .run(stats, || ops::sddmm_u_add_v_into(mask, ul, vr, out))?;
        } else {
            if ul.len() != mask.rows() || vr.len() != mask.cols() {
                return Err(mismatch(
                    "sddmm_u_add_v",
                    mask.shape(),
                    (ul.len(), vr.len()),
                ));
            }
            check_csr_out("sddmm_u_add_v_into", mask, out)?;
            self.engine.charge(stats);
            zero_csr(out);
        }
        Ok(())
    }

    /// [`Exec::scale_csr`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including a mismatched `out` pattern).
    pub fn scale_csr_into(
        &self,
        dl: Option<&[f32]>,
        a: &CsrMatrix,
        dr: Option<&[f32]>,
        irregularity: f64,
        out: &mut CsrMatrix,
    ) -> Result<()> {
        let stats = WorkStats::sddmm(a.rows(), a.nnz(), 1, irregularity);
        if self.compute {
            self.engine
                .run(stats, || ops::scale_csr_into(dl, a, dr, out))?;
        } else {
            if dl.is_some_and(|d| d.len() != a.rows()) || dr.is_some_and(|d| d.len() != a.cols()) {
                return Err(mismatch(
                    "scale_csr",
                    a.shape(),
                    (dl.map_or(0, <[f32]>::len), dr.map_or(0, <[f32]>::len)),
                ));
            }
            check_csr_out("scale_csr_into", a, out)?;
            self.engine.charge(stats);
            zero_csr(out);
        }
        Ok(())
    }

    /// [`Exec::edge_softmax`] writing into `out`; same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is unweighted or `out`'s pattern mismatches.
    pub fn edge_softmax_into(
        &self,
        a: &CsrMatrix,
        irregularity: f64,
        out: &mut CsrMatrix,
    ) -> Result<()> {
        let stats = WorkStats::edge_softmax(a.rows(), a.nnz(), irregularity);
        if self.compute {
            self.engine.run(stats, || ops::edge_softmax_into(a, out))?;
        } else {
            if !a.is_weighted() {
                return Err(MatrixError::MissingValues("edge_softmax").into());
            }
            check_csr_out("edge_softmax_into", a, out)?;
            self.engine.charge(stats);
            zero_csr(out);
        }
        Ok(())
    }

    /// [`Exec::map_csr_values`] applied in place over `a`'s stored values;
    /// same charge, no allocation.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is unweighted.
    pub fn map_csr_assign(&self, a: &mut CsrMatrix, f: impl Fn(f32) -> f32) -> Result<()> {
        let stats = WorkStats::elementwise(a.nnz(), 1);
        let vals = a
            .values_mut()
            .ok_or(MatrixError::MissingValues("map_csr_values"))?;
        if self.compute {
            self.engine.run(stats, || {
                for v in vals.iter_mut() {
                    *v = f(*v);
                }
            });
        } else {
            self.engine.charge(stats);
            vals.fill(0.0);
        }
        Ok(())
    }

    // --- Multi-RHS methods: the one charge path of each dense primitive --
    //
    // One kernel invocation serves `batch` column-stacked requests. The
    // charge contract is "unchanged per-column semantics": the stacked
    // kernel runs under the *single-request* WorkStats, then the same stats
    // are charged `batch - 1` more times — so the total charge equals
    // exactly `batch` serial executions and a per-request share (total /
    // batch) is bitwise the serial per-request charge on the modeled
    // engine. Every method checks its shapes in both value modes; virtual
    // mode zero-fills the active columns of `out`.

    /// Runs `kernel` on `out` under one request's `stats` (virtual mode:
    /// charges them and zero-fills `out`'s leading `active` columns), then
    /// charges the same stats for the `batch - 1` requests that rode along.
    fn run_blocks(
        &self,
        stats: WorkStats,
        batch: usize,
        active: usize,
        out: &mut DenseMatrix,
        kernel: impl FnOnce(&mut DenseMatrix) -> std::result::Result<(), MatrixError>,
    ) -> Result<()> {
        if self.compute {
            self.engine.run(stats, || kernel(out))?;
        } else {
            self.engine.charge(stats);
            let width = out.cols().max(1);
            for row in out.as_mut_slice().chunks_exact_mut(width) {
                row[..active].fill(0.0);
            }
        }
        for _ in 1..batch {
            self.engine.charge(stats);
        }
        Ok(())
    }

    /// Batched [`Exec::gemm`]: per block `t < batch`,
    /// `out[:, t·k2..) = a[:, t·k1..) · b` (shared `b`), charged as `batch`
    /// serial GEMMs.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn gemm_rhs_blocks_into(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        batch: usize,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let (k1, k2) = b.shape();
        check_wide("gemm_rhs_blocks", a.rows(), batch * k1, a)?;
        check_wide("gemm_rhs_blocks_into", a.rows(), batch * k2, out)?;
        let stats = WorkStats::gemm(a.rows(), k1, k2);
        self.run_blocks(stats, batch, batch * k2, out, |out| {
            ops::gemm_rhs_blocks_into(a, b, batch, out)
        })
    }

    /// Batched [`Exec::spmm`]: one adjacency pass over the leading
    /// `batch · block_cols` columns, charged as `batch` serial
    /// `block_cols`-column SpMMs.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    #[allow(clippy::too_many_arguments)]
    pub fn spmm_cols_into(
        &self,
        adj: &CsrMatrix,
        x: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        semiring: Semiring,
        irregularity: f64,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let active = batch * block_cols;
        if adj.cols() != x.rows() {
            return Err(mismatch("spmm_cols", adj.shape(), x.shape()));
        }
        check_wide("spmm_cols", x.rows(), active, x)?;
        check_wide("spmm_cols_into", adj.rows(), active, out)?;
        let weighted = semiring.mul.reads_edge() && adj.is_weighted();
        let stats = WorkStats::spmm(adj.rows(), adj.nnz(), block_cols, weighted, irregularity);
        self.run_blocks(stats, batch, active, out, |out| {
            ops::spmm_cols_into(adj, x, active, semiring, out)
        })
    }

    /// Batched [`Exec::row_broadcast`] over the leading `batch ·
    /// block_cols` columns, charged as `batch` serial broadcasts.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn row_broadcast_cols_into(
        &self,
        d: &[f32],
        m: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        op: BroadcastOp,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let active = batch * block_cols;
        if d.len() != m.rows() {
            return Err(mismatch("row_broadcast_cols", (d.len(), 1), m.shape()));
        }
        check_wide("row_broadcast_cols", m.rows(), active, m)?;
        check_wide("row_broadcast_cols_into", m.rows(), active, out)?;
        let stats = WorkStats::row_broadcast(m.rows(), block_cols);
        self.run_blocks(stats, batch, active, out, |out| {
            ops::row_broadcast_cols_into(d, m, active, op, out)
        })
    }

    /// Batched [`Exec::col_broadcast`]: applies the shared per-column
    /// vector `d` to each of the `batch` blocks, charged as `batch` serial
    /// broadcasts.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn col_broadcast_blocks_into(
        &self,
        m: &DenseMatrix,
        d: &[f32],
        batch: usize,
        op: BroadcastOp,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let active = batch * d.len();
        check_wide("col_broadcast_blocks", m.rows(), active, m)?;
        check_wide("col_broadcast_blocks_into", m.rows(), active, out)?;
        let stats = WorkStats::col_broadcast(m.rows(), d.len());
        self.run_blocks(stats, batch, active, out, |out| {
            ops::col_broadcast_blocks_into(m, d, batch, op, out)
        })
    }

    /// Batched [`Exec::map`] over the leading `batch · block_cols`
    /// columns, charged as `batch` serial maps.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn map_cols_into(
        &self,
        m: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        flops_per_elem: u32,
        f: impl Fn(f32) -> f32 + Sync,
        out: &mut DenseMatrix,
    ) -> Result<()> {
        let active = batch * block_cols;
        check_wide("map_cols", m.rows(), active, m)?;
        check_wide("map_cols_into", m.rows(), active, out)?;
        let stats = WorkStats::elementwise(m.rows() * block_cols, flops_per_elem);
        self.run_blocks(stats, batch, active, out, |out| {
            ops::map_cols_into(m, active, f, out)
        })
    }

    /// `acc = f(acc, b)` element-wise ([`Exec::zip`] in place) over the
    /// leading `batch · block_cols` columns, charged as `batch` serial
    /// accumulations.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (including narrow buffers).
    pub fn zip_cols_assign(
        &self,
        acc: &mut DenseMatrix,
        b: &DenseMatrix,
        block_cols: usize,
        batch: usize,
        flops_per_elem: u32,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<()> {
        let active = batch * block_cols;
        check_wide("zip_cols_src", acc.rows(), active, b)?;
        check_wide("zip_cols_dst", b.rows(), active, acc)?;
        let stats = WorkStats::elementwise(acc.rows() * block_cols, flops_per_elem);
        self.run_blocks(stats, batch, active, acc, |acc| {
            ops::zip_cols_assign(acc, b, active, f)
        })
    }
}

/// The shape-mismatch error `op` reports for operands `lhs` and `rhs`.
fn mismatch(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> crate::GnnError {
    MatrixError::ShapeMismatch { op, lhs, rhs }.into()
}

/// Validates a multi-RHS operand or output: `rows` rows and at least `cols`
/// columns (the active blocks of a wider buffer).
fn check_wide(op: &'static str, rows: usize, cols: usize, m: &DenseMatrix) -> Result<()> {
    if m.rows() != rows || m.cols() < cols {
        return Err(mismatch(op, (rows, cols), m.shape()));
    }
    Ok(())
}

/// Validates a CSR output buffer against the pattern source for the
/// virtual-mode sparse `_into` paths.
fn check_csr_out(
    op: &'static str,
    pattern: &CsrMatrix,
    out: &CsrMatrix,
) -> std::result::Result<(), MatrixError> {
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

/// Zero-fills a weighted CSR's values (virtual-mode output).
fn zero_csr(out: &mut CsrMatrix) {
    if let Some(vals) = out.values_mut() {
        vals.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::CooMatrix;

    fn adj() -> CsrMatrix {
        CooMatrix::from_entries(3, 3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
            .unwrap()
            .to_csr()
    }

    #[test]
    fn real_and_virtual_charge_identical_stats() {
        let e1 = Engine::modeled(DeviceKind::H100);
        let e2 = Engine::modeled(DeviceKind::H100);
        let a = adj();
        let x = DenseMatrix::random(3, 4, 1.0, 1);
        let w = DenseMatrix::random(4, 2, 1.0, 2);

        let run = |exec: Exec| {
            let agg = exec.spmm(&a, &x, Semiring::plus_mul(), 0.0).unwrap();
            let up = exec.gemm(&agg, &w).unwrap();
            exec.map(&up, 1, |v| v.max(0.0)).unwrap()
        };
        let real_out = run(Exec::real(&e1));
        let virt_out = run(Exec::virtual_only(&e2));

        assert_eq!(real_out.shape(), virt_out.shape());
        let p1 = e1.take_profile();
        let p2 = e2.take_profile();
        assert_eq!(p1.entries.len(), p2.entries.len());
        for (a, b) in p1.entries.iter().zip(&p2.entries) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.seconds, b.seconds);
        }
    }

    #[test]
    fn virtual_mode_still_validates_shapes() {
        let e = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::virtual_only(&e);
        let a = DenseMatrix::zeros(2, 3).unwrap();
        let b = DenseMatrix::zeros(4, 2).unwrap();
        assert!(exec.gemm(&a, &b).is_err());
        assert!(exec.spmm(&adj(), &b, Semiring::plus_mul(), 0.0).is_err());
        assert!(exec.row_broadcast(&[1.0], &a, BroadcastOp::Mul).is_err());
        // The multi-RHS methods check too: an `out` one block short of the
        // batch is rejected before anything is charged.
        let w = DenseMatrix::zeros(2, 2).unwrap();
        let x = DenseMatrix::zeros(3, 2 * 3).unwrap();
        let mut narrow = DenseMatrix::zeros(3, 2).unwrap();
        assert!(exec.gemm_rhs_blocks_into(&x, &w, 3, &mut narrow).is_err());
        assert!(exec
            .spmm_cols_into(&adj(), &x, 2, 3, Semiring::plus_mul(), 0.0, &mut narrow)
            .is_err());
        assert_eq!(e.profile_len(), 0, "a rejected call charges nothing");
    }

    #[test]
    fn unweighted_spmm_charged_as_unweighted() {
        use granii_matrix::PrimitiveKind;
        let e = Engine::modeled(DeviceKind::H100);
        let exec = Exec::virtual_only(&e);
        let x = DenseMatrix::zeros(3, 4).unwrap();
        let unweighted = adj().drop_values();
        exec.spmm(&unweighted, &x, Semiring::plus_copy_rhs(), 0.0)
            .unwrap();
        exec.spmm(&adj(), &x, Semiring::plus_mul(), 0.0).unwrap();
        let p = e.take_profile();
        assert_eq!(p.entries[0].kind, PrimitiveKind::SpmmUnweighted);
        assert_eq!(p.entries[1].kind, PrimitiveKind::SpmmWeighted);
    }

    #[test]
    fn binning_is_costlier_than_scan_on_dense_inputs() {
        let e = Engine::modeled(DeviceKind::A100);
        let exec = Exec::virtual_only(&e);
        let dense_adj = granii_graph::generators::mycielskian(10).unwrap();
        exec.degrees_by_scan(dense_adj.adj());
        let scan_time = e.take_profile().total_seconds();
        exec.degrees_by_binning(dense_adj.adj());
        let bin_time = e.take_profile().total_seconds();
        assert!(
            bin_time > 10.0 * scan_time,
            "binning {bin_time} vs scan {scan_time}"
        );
    }
}
