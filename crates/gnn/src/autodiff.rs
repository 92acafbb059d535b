//! Reverse-mode autodiff over the GNN primitive set.
//!
//! The paper's training measurements (§VI-C) include the backward pass, which
//! GRANII deliberately does *not* optimize ("GRANII does not perform operator
//! selection for the backward pass"). This module reproduces that situation
//! faithfully: a small tape records the forward primitives, and each op's
//! gradient is itself a composition of the same primitives — the gradient of
//! SpMM is an SpMM over the transposed adjacency (plus an SDDMM for edge-value
//! gradients), exactly as in DGL's implementation. Every forward *and*
//! backward primitive is charged through the [`Exec`], so training latencies
//! include both passes.

use std::sync::Arc;

use granii_matrix::ops::BroadcastOp;
use granii_matrix::{CsrMatrix, DenseMatrix, MatrixError, Semiring, WorkStats};

use crate::{Exec, GnnError, Result};

/// Handle to a tape value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// A tape value: dense matrix or the value vector of a fixed sparse pattern.
#[derive(Debug, Clone)]
enum Value {
    Dense(DenseMatrix),
    /// Values attached to `pattern` (attention scores, etc.).
    Sparse {
        pattern: Arc<CsrMatrix>,
        values: Vec<f32>,
    },
}

/// Gradient accumulated for a tape value.
#[derive(Debug, Clone)]
pub enum Grad {
    /// Gradient of a dense value.
    Dense(DenseMatrix),
    /// Gradient of a sparse value's entries.
    Sparse(Vec<f32>),
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Gemm {
        a: usize,
        b: usize,
    },
    /// `adj · x` with a constant (non-differentiable) adjacency.
    SpmmConst {
        adj: Arc<CsrMatrix>,
        x: usize,
        semiring: Semiring,
        irr: f64,
    },
    /// `A(s) · x` where the adjacency *values* are the sparse var `s`.
    SpmmVar {
        s: usize,
        x: usize,
        irr: f64,
    },
    RowBroadcast {
        d: Arc<Vec<f32>>,
        x: usize,
    },
    Relu {
        x: usize,
    },
    Scale {
        x: usize,
        c: f32,
    },
    Add {
        a: usize,
        b: usize,
    },
    /// Per-edge `ul_i + vr_j` over a constant mask (GAT logits).
    SddmmUAddV {
        mask: Arc<CsrMatrix>,
        ul: usize,
        vr: usize,
        irr: f64,
    },
    /// Leaky ReLU over sparse values.
    SparseLeakyRelu {
        x: usize,
        slope: f32,
    },
    /// Row-wise softmax over sparse values.
    EdgeSoftmax {
        x: usize,
        irr: f64,
    },
}

struct Node {
    value: Value,
    op: Op,
    needs_grad: bool,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("op", &self.op)
            .field("needs_grad", &self.needs_grad)
            .finish()
    }
}

/// The autodiff tape. Build the forward computation through its methods, then
/// call [`Tape::backward_mse`] to get gradients for every parameter.
///
/// # Example
///
/// ```
/// use granii_gnn::autodiff::Tape;
/// use granii_gnn::Exec;
/// use granii_matrix::device::{DeviceKind, Engine};
/// use granii_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), granii_gnn::GnnError> {
/// let engine = Engine::modeled(DeviceKind::Cpu);
/// let exec = Exec::real(&engine);
/// let mut tape = Tape::new(exec);
/// let x = tape.input(DenseMatrix::from_rows(&[[1.0, 2.0].as_slice()])?);
/// let w = tape.param(DenseMatrix::from_rows(&[[1.0].as_slice(), [1.0].as_slice()])?);
/// let y = tape.gemm(x, w)?;
/// let target = DenseMatrix::from_rows(&[[5.0].as_slice()])?;
/// let (loss, grads) = tape.backward_mse(y, &target)?;
/// assert!((loss - 4.0).abs() < 1e-6); // (3 - 5)^2
/// assert!(grads[&w].is_some());
/// # Ok(())
/// # }
/// ```
pub struct Tape<'e> {
    exec: Exec<'e>,
    nodes: Vec<Node>,
}

impl std::fmt::Debug for Tape<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// Map from parameter [`Var`]s to their gradients after a backward pass.
#[derive(Debug, Default)]
pub struct Grads {
    by_node: Vec<Option<Grad>>,
}

impl std::ops::Index<&Var> for Grads {
    type Output = Option<Grad>;
    fn index(&self, v: &Var) -> &Self::Output {
        &self.by_node[v.0]
    }
}

impl Grads {
    /// Dense gradient of a parameter, if one was accumulated.
    pub fn dense(&self, v: Var) -> Option<&DenseMatrix> {
        match self.by_node.get(v.0)?.as_ref()? {
            Grad::Dense(m) => Some(m),
            Grad::Sparse(_) => None,
        }
    }
}

impl<'e> Tape<'e> {
    /// Creates an empty tape over the given executor.
    pub fn new(exec: Exec<'e>) -> Self {
        Self {
            exec,
            nodes: Vec::new(),
        }
    }

    /// Registers a non-differentiable input.
    pub fn input(&mut self, m: DenseMatrix) -> Var {
        self.push(Value::Dense(m), Op::Leaf, false)
    }

    /// Registers a trainable parameter (gradient will be produced).
    pub fn param(&mut self, m: DenseMatrix) -> Var {
        self.push(Value::Dense(m), Op::Leaf, true)
    }

    fn push(&mut self, value: Value, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn dense(&self, v: Var) -> Result<&DenseMatrix> {
        match &self.nodes[v.0].value {
            Value::Dense(m) => Ok(m),
            Value::Sparse { .. } => Err(GnnError::InvalidConfig(
                "expected a dense tape value".into(),
            )),
        }
    }

    fn sparse(&self, v: Var) -> Result<(&Arc<CsrMatrix>, &[f32])> {
        match &self.nodes[v.0].value {
            Value::Sparse { pattern, values } => Ok((pattern, values)),
            Value::Dense(_) => Err(GnnError::InvalidConfig(
                "expected a sparse tape value".into(),
            )),
        }
    }

    /// The dense value of a var (e.g. the final prediction).
    ///
    /// # Errors
    ///
    /// Returns an error if the var is sparse.
    pub fn value(&self, v: Var) -> Result<&DenseMatrix> {
        self.dense(v)
    }

    /// Dense matrix multiplication.
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors.
    pub fn gemm(&mut self, a: Var, b: Var) -> Result<Var> {
        let out = self.exec.gemm(self.dense(a)?, self.dense(b)?)?;
        let needs = self.nodes[a.0].needs_grad || self.nodes[b.0].needs_grad;
        Ok(self.push(Value::Dense(out), Op::Gemm { a: a.0, b: b.0 }, needs))
    }

    /// `adj · x` with a constant adjacency.
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors. Max/min semirings are rejected (their
    /// subgradients are not implemented; no evaluated model trains with them).
    pub fn spmm(
        &mut self,
        adj: Arc<CsrMatrix>,
        x: Var,
        semiring: Semiring,
        irr: f64,
    ) -> Result<Var> {
        use granii_matrix::ReduceOp;
        if matches!(semiring.reduce, ReduceOp::Max | ReduceOp::Min) {
            return Err(GnnError::InvalidConfig(
                "max/min aggregation is not differentiable on the tape".into(),
            ));
        }
        let out = self.exec.spmm(&adj, self.dense(x)?, semiring, irr)?;
        let needs = self.nodes[x.0].needs_grad;
        Ok(self.push(
            Value::Dense(out),
            Op::SpmmConst {
                adj,
                x: x.0,
                semiring,
                irr,
            },
            needs,
        ))
    }

    /// `A(s) · x` where `s` is a sparse var carrying the edge values
    /// (GAT's `α · Θ`).
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors.
    pub fn spmm_var(&mut self, s: Var, x: Var, irr: f64) -> Result<Var> {
        let (pattern, values) = self.sparse(s)?;
        let weighted = pattern
            .clone()
            .as_ref()
            .clone()
            .with_values(values.to_vec())?;
        let out = self
            .exec
            .spmm(&weighted, self.dense(x)?, Semiring::plus_mul(), irr)?;
        let needs = self.nodes[s.0].needs_grad || self.nodes[x.0].needs_grad;
        Ok(self.push(
            Value::Dense(out),
            Op::SpmmVar {
                s: s.0,
                x: x.0,
                irr,
            },
            needs,
        ))
    }

    /// Row-broadcast by a constant vector.
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors.
    pub fn row_broadcast(&mut self, d: Arc<Vec<f32>>, x: Var) -> Result<Var> {
        let out = self
            .exec
            .row_broadcast(&d, self.dense(x)?, BroadcastOp::Mul)?;
        let needs = self.nodes[x.0].needs_grad;
        Ok(self.push(Value::Dense(out), Op::RowBroadcast { d, x: x.0 }, needs))
    }

    /// Element-wise ReLU.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn relu(&mut self, x: Var) -> Result<Var> {
        let out = self.exec.map(self.dense(x)?, 1, |v| v.max(0.0))?;
        let needs = self.nodes[x.0].needs_grad;
        Ok(self.push(Value::Dense(out), Op::Relu { x: x.0 }, needs))
    }

    /// Element-wise scaling by a constant.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn scale(&mut self, x: Var, c: f32) -> Result<Var> {
        let out = self.exec.map(self.dense(x)?, 1, move |v| c * v)?;
        let needs = self.nodes[x.0].needs_grad;
        Ok(self.push(Value::Dense(out), Op::Scale { x: x.0, c }, needs))
    }

    /// Element-wise sum of two dense vars.
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let out = self
            .exec
            .zip(self.dense(a)?, self.dense(b)?, 1, |x, y| x + y)?;
        let needs = self.nodes[a.0].needs_grad || self.nodes[b.0].needs_grad;
        Ok(self.push(Value::Dense(out), Op::Add { a: a.0, b: b.0 }, needs))
    }

    /// GAT logits: per-edge `ul_i + vr_j` over a constant mask. `ul` and `vr`
    /// are `n x 1` dense vars.
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors.
    pub fn sddmm_u_add_v(
        &mut self,
        mask: Arc<CsrMatrix>,
        ul: Var,
        vr: Var,
        irr: f64,
    ) -> Result<Var> {
        let ul_m = self.dense(ul)?;
        let vr_m = self.dense(vr)?;
        if ul_m.cols() != 1 || vr_m.cols() != 1 {
            return Err(GnnError::Matrix(MatrixError::ShapeMismatch {
                op: "sddmm_u_add_v",
                lhs: ul_m.shape(),
                rhs: vr_m.shape(),
            }));
        }
        let out = self
            .exec
            .sddmm_u_add_v(&mask, ul_m.as_slice(), vr_m.as_slice(), irr)?;
        let values = out.values().expect("sddmm output is weighted").to_vec();
        let needs = self.nodes[ul.0].needs_grad || self.nodes[vr.0].needs_grad;
        Ok(self.push(
            Value::Sparse {
                pattern: mask.clone(),
                values,
            },
            Op::SddmmUAddV {
                mask,
                ul: ul.0,
                vr: vr.0,
                irr,
            },
            needs,
        ))
    }

    /// Leaky ReLU over a sparse var's values.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn sparse_leaky_relu(&mut self, x: Var, slope: f32) -> Result<Var> {
        let (pattern, values) = self.sparse(x)?;
        let pattern = pattern.clone();
        let weighted = pattern.as_ref().clone().with_values(values.to_vec())?;
        let out = self
            .exec
            .map_csr_values(&weighted, move |v| if v >= 0.0 { v } else { slope * v })?;
        let values = out.values().expect("weighted").to_vec();
        let needs = self.nodes[x.0].needs_grad;
        Ok(self.push(
            Value::Sparse { pattern, values },
            Op::SparseLeakyRelu { x: x.0, slope },
            needs,
        ))
    }

    /// Edge softmax over a sparse var's values.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn edge_softmax(&mut self, x: Var, irr: f64) -> Result<Var> {
        let (pattern, values) = self.sparse(x)?;
        let pattern = pattern.clone();
        let weighted = pattern.as_ref().clone().with_values(values.to_vec())?;
        let out = self.exec.edge_softmax(&weighted, irr)?;
        let values = out.values().expect("weighted").to_vec();
        let needs = self.nodes[x.0].needs_grad;
        Ok(self.push(
            Value::Sparse { pattern, values },
            Op::EdgeSoftmax { x: x.0, irr },
            needs,
        ))
    }

    /// Mean-squared-error loss against `target`, followed by a full backward
    /// pass. Returns the loss and the accumulated gradients.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn backward_mse(&mut self, pred: Var, target: &DenseMatrix) -> Result<(f64, Grads)> {
        let p = self.dense(pred)?;
        if p.shape() != target.shape() {
            return Err(GnnError::Matrix(MatrixError::ShapeMismatch {
                op: "mse_loss",
                lhs: p.shape(),
                rhs: target.shape(),
            }));
        }
        let n = (p.rows() * p.cols()).max(1) as f32;
        // Loss + seed gradient, charged as one elementwise pass.
        let diff = self.exec.zip(p, target, 2, |a, b| a - b)?;
        let loss = if self.exec.computes_values() {
            diff.as_slice().iter().map(|v| (v * v) as f64).sum::<f64>() / n as f64
        } else {
            0.0
        };
        let seed = self.exec.map(&diff, 1, move |v| 2.0 * v / n)?;
        let grads = self.backward(pred, Grad::Dense(seed))?;
        Ok((loss, grads))
    }

    /// Backward pass from `output` with an explicit seed gradient.
    ///
    /// # Errors
    ///
    /// Propagates kernel/shape errors encountered while building gradient
    /// computations.
    pub fn backward(&mut self, output: Var, seed: Grad) -> Result<Grads> {
        let mut grads: Vec<Option<Grad>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[output.0] = Some(seed);

        for idx in (0..=output.0).rev() {
            let Some(grad) = grads[idx].take() else {
                continue;
            };
            // Re-store for the caller before propagating (params read it back).
            let op = self.nodes[idx].op.clone();
            match (&op, &grad) {
                (Op::Leaf, _) => {
                    grads[idx] = Some(grad);
                    continue;
                }
                (Op::Gemm { a, b }, Grad::Dense(g)) => {
                    let (av, bv) = (self.dense(Var(*a))?.clone(), self.dense(Var(*b))?.clone());
                    if self.nodes[*a].needs_grad || grad_needed(&self.nodes, *a) {
                        let bt = self.transpose(&bv);
                        let ga = self.exec.gemm(g, &bt)?;
                        accumulate(&self.exec, &mut grads[*a], Grad::Dense(ga))?;
                    }
                    if self.nodes[*b].needs_grad || grad_needed(&self.nodes, *b) {
                        let at = self.transpose(&av);
                        let gb = self.exec.gemm(&at, g)?;
                        accumulate(&self.exec, &mut grads[*b], Grad::Dense(gb))?;
                    }
                }
                (
                    Op::SpmmConst {
                        adj,
                        x,
                        semiring,
                        irr,
                    },
                    Grad::Dense(g),
                ) => {
                    if grad_needed(&self.nodes, *x) {
                        let back_adj = self.backward_adjacency(adj, *semiring);
                        let gx =
                            self.exec
                                .spmm(&back_adj, g, backward_semiring(*semiring), *irr)?;
                        accumulate(&self.exec, &mut grads[*x], Grad::Dense(gx))?;
                    }
                }
                (Op::SpmmVar { s, x, irr }, Grad::Dense(g)) => {
                    let (pattern, values) = {
                        let (p, v) = self.sparse(Var(*s))?;
                        (p.clone(), v.to_vec())
                    };
                    if grad_needed(&self.nodes, *x) {
                        let weighted = pattern.as_ref().clone().with_values(values)?;
                        let t = self.transpose_csr(&weighted);
                        let gx = self.exec.spmm(&t, g, Semiring::plus_mul(), *irr)?;
                        accumulate(&self.exec, &mut grads[*x], Grad::Dense(gx))?;
                    }
                    if grad_needed(&self.nodes, *s) {
                        // dL/ds_ij = g_i · x_j : an SDDMM of (g, x).
                        let xv = self.dense(Var(*x))?.clone();
                        let gs = self.exec.sddmm(
                            &pattern.clone().as_ref().clone().drop_values(),
                            g,
                            &xv,
                            *irr,
                        )?;
                        let gvals = gs.values().expect("weighted").to_vec();
                        accumulate(&self.exec, &mut grads[*s], Grad::Sparse(gvals))?;
                    }
                }
                (Op::RowBroadcast { d, x }, Grad::Dense(g)) => {
                    if grad_needed(&self.nodes, *x) {
                        let gx = self.exec.row_broadcast(d, g, BroadcastOp::Mul)?;
                        accumulate(&self.exec, &mut grads[*x], Grad::Dense(gx))?;
                    }
                }
                (Op::Relu { x }, Grad::Dense(g)) => {
                    if grad_needed(&self.nodes, *x) {
                        let xv = self.dense(Var(*x))?.clone();
                        let gx =
                            self.exec
                                .zip(g, &xv, 1, |gv, v| if v > 0.0 { gv } else { 0.0 })?;
                        accumulate(&self.exec, &mut grads[*x], Grad::Dense(gx))?;
                    }
                }
                (Op::Scale { x, c }, Grad::Dense(g)) => {
                    if grad_needed(&self.nodes, *x) {
                        let c = *c;
                        let gx = self.exec.map(g, 1, move |v| c * v)?;
                        accumulate(&self.exec, &mut grads[*x], Grad::Dense(gx))?;
                    }
                }
                (Op::Add { a, b }, Grad::Dense(g)) => {
                    if grad_needed(&self.nodes, *a) {
                        accumulate(&self.exec, &mut grads[*a], Grad::Dense(g.clone()))?;
                    }
                    if grad_needed(&self.nodes, *b) {
                        accumulate(&self.exec, &mut grads[*b], Grad::Dense(g.clone()))?;
                    }
                }
                (Op::SddmmUAddV { mask, ul, vr, irr }, Grad::Sparse(g)) => {
                    let gcsr = mask.as_ref().clone().drop_values().with_values(g.clone())?;
                    let n = mask.rows();
                    let ones = DenseMatrix::from_vec(mask.cols(), 1, vec![1.0; mask.cols()])?;
                    if grad_needed(&self.nodes, *ul) {
                        // Row sums of the sparse gradient.
                        let gul = self.exec.spmm(&gcsr, &ones, Semiring::plus_mul(), *irr)?;
                        accumulate(&self.exec, &mut grads[*ul], Grad::Dense(gul))?;
                    }
                    if grad_needed(&self.nodes, *vr) {
                        let t = self.transpose_csr(&gcsr);
                        let ones_n = DenseMatrix::from_vec(n, 1, vec![1.0; n])?;
                        let gvr = self.exec.spmm(&t, &ones_n, Semiring::plus_mul(), *irr)?;
                        accumulate(&self.exec, &mut grads[*vr], Grad::Dense(gvr))?;
                    }
                }
                (Op::SparseLeakyRelu { x, slope }, Grad::Sparse(g)) => {
                    if grad_needed(&self.nodes, *x) {
                        let (_, xv) = self.sparse(Var(*x))?;
                        let slope = *slope;
                        let stats = WorkStats::elementwise(g.len(), 1);
                        let gx: Vec<f32> = if self.exec.computes_values() {
                            self.exec.engine().run(stats, || {
                                g.iter()
                                    .zip(xv)
                                    .map(|(&gv, &v)| if v >= 0.0 { gv } else { slope * gv })
                                    .collect()
                            })
                        } else {
                            self.exec.engine().charge(stats);
                            vec![0.0; g.len()]
                        };
                        accumulate(&self.exec, &mut grads[*x], Grad::Sparse(gx))?;
                    }
                }
                (Op::EdgeSoftmax { x, irr }, Grad::Sparse(g)) => {
                    if grad_needed(&self.nodes, *x) {
                        let (pattern, alpha) = {
                            let (p, v) = self.sparse(Var(idx))?;
                            (p.clone(), v.to_vec())
                        };
                        let stats = WorkStats::edge_softmax(pattern.rows(), pattern.nnz(), *irr);
                        let gx: Vec<f32> = if self.exec.computes_values() {
                            self.exec.engine().run(stats, || {
                                // d logit_e = α_e (g_e − Σ_{e'∈row} g_{e'} α_{e'})
                                let mut out = vec![0f32; g.len()];
                                for r in 0..pattern.rows() {
                                    let (s, e) = (
                                        pattern.indptr()[r] as usize,
                                        pattern.indptr()[r + 1] as usize,
                                    );
                                    let dot: f32 = (s..e).map(|k| g[k] * alpha[k]).sum();
                                    for k in s..e {
                                        out[k] = alpha[k] * (g[k] - dot);
                                    }
                                }
                                out
                            })
                        } else {
                            self.exec.engine().charge(stats);
                            vec![0.0; g.len()]
                        };
                        accumulate(&self.exec, &mut grads[*x], Grad::Sparse(gx))?;
                    }
                }
                (op, grad) => {
                    // Grad kind mismatch is an internal invariant violation.
                    unreachable!("gradient kind mismatch for {op:?} with {grad:?}");
                }
            }
        }
        Ok(Grads { by_node: grads })
    }

    /// Dense transpose, charged as an elementwise pass.
    fn transpose(&self, m: &DenseMatrix) -> DenseMatrix {
        let stats = WorkStats::elementwise(m.rows() * m.cols(), 0);
        if self.exec.computes_values() {
            self.exec.engine().run(stats, || m.transpose())
        } else {
            self.exec.engine().charge(stats);
            DenseMatrix::zeros(m.cols(), m.rows()).expect("transpose shape")
        }
    }

    /// Sparse transpose, charged as an elementwise pass over the nonzeros.
    fn transpose_csr(&self, m: &CsrMatrix) -> CsrMatrix {
        let stats = WorkStats::elementwise(m.nnz().max(1), 0);
        if self.exec.computes_values() {
            self.exec.engine().run(stats, || m.transpose())
        } else {
            self.exec.engine().charge(stats);
            m.transpose()
        }
    }

    /// The adjacency to aggregate with in the backward direction, including
    /// mean-degree rescaling for the mean semiring.
    fn backward_adjacency(&self, adj: &CsrMatrix, semiring: Semiring) -> CsrMatrix {
        use granii_matrix::ReduceOp;
        match semiring.reduce {
            ReduceOp::Mean => {
                // out_i = (1/d_i) Σ_j x_j ⇒ backward edge weight 1/d_src.
                let deg = adj.out_degrees();
                let inv: Vec<f32> = deg
                    .iter()
                    .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
                    .collect();
                let scaled = granii_matrix::ops::scale_csr(Some(&inv), adj, None)
                    .expect("degree vector matches adjacency");
                self.transpose_csr(&scaled)
            }
            _ => self.transpose_csr(adj),
        }
    }
}

/// Backward aggregation keeps the forward's weighting (mean handled by
/// pre-scaling the transposed adjacency).
fn backward_semiring(forward: Semiring) -> Semiring {
    use granii_matrix::{MulOp, ReduceOp};
    match (forward.reduce, forward.mul) {
        (ReduceOp::Mean, _) => Semiring::plus_mul(),
        (_, MulOp::CopyRhs) => Semiring::plus_copy_rhs(),
        _ => Semiring::plus_mul(),
    }
}

/// Whether node `i` or anything upstream of it needs a gradient. A node on
/// the tape needs a gradient if it is a parameter or was marked as needing
/// one when created (transitively from parameters).
fn grad_needed(nodes: &[Node], i: usize) -> bool {
    nodes[i].needs_grad
}

/// Accumulates `incoming` into `slot`, charging the addition.
fn accumulate(exec: &Exec, slot: &mut Option<Grad>, incoming: Grad) -> Result<()> {
    match (slot.take(), incoming) {
        (None, g) => *slot = Some(g),
        (Some(Grad::Dense(a)), Grad::Dense(b)) => {
            *slot = Some(Grad::Dense(exec.zip(&a, &b, 1, |x, y| x + y)?));
        }
        (Some(Grad::Sparse(a)), Grad::Sparse(b)) => {
            let stats = WorkStats::elementwise(a.len(), 1);
            let sum: Vec<f32> = if exec.computes_values() {
                exec.engine()
                    .run(stats, || a.iter().zip(&b).map(|(x, y)| x + y).collect())
            } else {
                exec.engine().charge(stats);
                vec![0.0; a.len()]
            };
            *slot = Some(Grad::Sparse(sum));
        }
        _ => {
            return Err(GnnError::InvalidConfig(
                "mixed dense/sparse gradient accumulation".into(),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_matrix::device::{DeviceKind, Engine};

    fn engine() -> Engine {
        Engine::modeled(DeviceKind::Cpu)
    }

    /// Finite-difference check of a scalar-valued function of one parameter.
    fn finite_diff_check(
        build: impl Fn(&mut Tape, Var) -> Var,
        w0: DenseMatrix,
        target: DenseMatrix,
    ) {
        let e = engine();
        // Analytic gradient.
        let (_, grads, w_var) = {
            let exec = Exec::real(&e);
            let mut tape = Tape::new(exec);
            let w = tape.param(w0.clone());
            let out = build(&mut tape, w);
            let (loss, grads) = tape.backward_mse(out, &target).unwrap();
            (loss, grads, w)
        };
        let analytic = grads.dense(w_var).expect("param grad").clone();

        // Numeric gradient, entry by entry.
        let eps = 1e-3f32;
        let loss_at = |w: &DenseMatrix| -> f64 {
            let exec = Exec::real(&e);
            let mut tape = Tape::new(exec);
            let wv = tape.param(w.clone());
            let out = build(&mut tape, wv);
            let p = tape.value(out).unwrap();
            let n = (p.rows() * p.cols()) as f64;
            p.as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(a, b)| ((a - b) * (a - b)) as f64)
                .sum::<f64>()
                / n
        };
        for i in 0..w0.rows() {
            for j in 0..w0.cols() {
                let mut wp = w0.clone();
                wp.set(i, j, w0.get(i, j) + eps);
                let mut wm = w0.clone();
                wm.set(i, j, w0.get(i, j) - eps);
                let numeric = (loss_at(&wp) - loss_at(&wm)) / (2.0 * eps as f64);
                let got = analytic.get(i, j) as f64;
                assert!(
                    (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "grad[{i},{j}]: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn gemm_gradient_matches_finite_differences() {
        let g = granii_graph::generators::ring(4).unwrap();
        let adj = Arc::new(g.adj().clone());
        let x0 = DenseMatrix::random(4, 3, 1.0, 1);
        let w0 = DenseMatrix::random(3, 2, 0.7, 2);
        let target = DenseMatrix::random(4, 2, 1.0, 3);
        finite_diff_check(
            move |tape, w| {
                let x = tape.input(x0.clone());
                let z = tape.gemm(x, w).unwrap();
                tape.spmm(adj.clone(), z, Semiring::plus_copy_rhs(), 0.0)
                    .unwrap()
            },
            w0,
            target,
        );
    }

    #[test]
    fn relu_and_broadcast_gradients_match_finite_differences() {
        let d = Arc::new(vec![0.5f32, 2.0, 1.0, 0.25]);
        let x0 = DenseMatrix::random(4, 3, 1.0, 5);
        let w0 = DenseMatrix::random(3, 2, 0.8, 6);
        let target = DenseMatrix::random(4, 2, 1.0, 7);
        finite_diff_check(
            move |tape, w| {
                let x = tape.input(x0.clone());
                let z = tape.gemm(x, w).unwrap();
                let z = tape.row_broadcast(d.clone(), z).unwrap();
                tape.relu(z).unwrap()
            },
            w0,
            target,
        );
    }

    #[test]
    fn gat_attention_gradient_matches_finite_differences() {
        let g = granii_graph::generators::ring(5).unwrap();
        let ctx = crate::GraphCtx::new(&g).unwrap();
        let adj = Arc::new(ctx.adj().clone());
        let h0 = DenseMatrix::random(5, 3, 1.0, 8);
        let al0 = DenseMatrix::random(2, 1, 0.6, 9);
        let ar0 = DenseMatrix::random(2, 1, 0.6, 10);
        let w0 = DenseMatrix::random(3, 2, 0.8, 11);
        let target = DenseMatrix::random(5, 2, 1.0, 12);
        finite_diff_check(
            move |tape, w| {
                let h = tape.input(h0.clone());
                let al = tape.input(al0.clone());
                let ar = tape.input(ar0.clone());
                let theta = tape.gemm(h, w).unwrap();
                let ul = tape.gemm(theta, al).unwrap();
                let vr = tape.gemm(theta, ar).unwrap();
                let logits = tape.sddmm_u_add_v(adj.clone(), ul, vr, 0.0).unwrap();
                let scored = tape.sparse_leaky_relu(logits, 0.2).unwrap();
                let alpha = tape.edge_softmax(scored, 0.0).unwrap();
                tape.spmm_var(alpha, theta, 0.0).unwrap()
            },
            w0,
            target,
        );
    }

    #[test]
    fn mean_aggregation_gradient_matches_finite_differences() {
        let g = granii_graph::generators::power_law(6, 2, 13).unwrap();
        let adj = Arc::new(g.adj().clone());
        let x0 = DenseMatrix::random(6, 3, 1.0, 14);
        let w0 = DenseMatrix::random(3, 2, 0.7, 15);
        let target = DenseMatrix::random(6, 2, 1.0, 16);
        finite_diff_check(
            move |tape, w| {
                let x = tape.input(x0.clone());
                let z = tape.gemm(x, w).unwrap();
                tape.spmm(adj.clone(), z, Semiring::mean_copy_rhs(), 0.0)
                    .unwrap()
            },
            w0,
            target,
        );
    }

    #[test]
    fn backward_charges_primitives() {
        let e = engine();
        let exec = Exec::real(&e);
        let mut tape = Tape::new(exec);
        let x = tape.input(DenseMatrix::random(4, 3, 1.0, 1));
        let w = tape.param(DenseMatrix::random(3, 2, 1.0, 2));
        let z = tape.gemm(x, w).unwrap();
        let forward_entries = e.take_profile().entries.len();
        let target = DenseMatrix::zeros(4, 2).unwrap();
        tape.backward_mse(z, &target).unwrap();
        let backward_entries = e.take_profile().entries.len();
        assert!(forward_entries >= 1);
        assert!(
            backward_entries > forward_entries,
            "backward must charge more work"
        );
    }

    #[test]
    fn max_aggregation_rejected_on_tape() {
        let e = engine();
        let exec = Exec::real(&e);
        let mut tape = Tape::new(exec);
        let g = granii_graph::generators::ring(4).unwrap();
        let x = tape.input(DenseMatrix::random(4, 2, 1.0, 1));
        assert!(tape
            .spmm(Arc::new(g.adj().clone()), x, Semiring::max_copy_rhs(), 0.0)
            .is_err());
    }

    #[test]
    fn virtual_tape_charges_without_values() {
        let e = engine();
        let exec = Exec::virtual_only(&e);
        let mut tape = Tape::new(exec);
        let x = tape.input(DenseMatrix::zeros(4, 3).unwrap());
        let w = tape.param(DenseMatrix::zeros(3, 2).unwrap());
        let z = tape.gemm(x, w).unwrap();
        let (loss, grads) = tape
            .backward_mse(z, &DenseMatrix::zeros(4, 2).unwrap())
            .unwrap();
        assert_eq!(loss, 0.0);
        assert!(grads.dense(w).is_some());
        assert!(e.elapsed_seconds() > 0.0);
    }
}
