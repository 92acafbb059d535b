//! An interpreter for candidate programs — the execution side of GRANII's
//! code generation (paper §IV-D).
//!
//! The paper's back end emits Python calling the framework's kernels; this
//! reproduction's equivalent is executing a [`CandidateProgram`]'s typed
//! operations directly. The interpreter evaluates the steps in order into a
//! `Vec`, one value per step, reading operands from the program's leaves
//! and from earlier steps, and returns the last step's value. Every
//! intermediate is allocated afresh on every call.
//!
//! It is the reference the compile-once [`crate::execplan`] engine is
//! checked against: `crates/core/tests/execplan_differential.rs` and
//! [`crate::audit::verify`] require the plan's outputs to match it bit for
//! bit and its charges to match it exactly. Integration tests also assert
//! that every promoted tree's interpreted output equals the lowered
//! composition's kernel-sequence output.

use std::collections::BTreeMap;

use granii_gnn::Exec;
use granii_matrix::ops::BroadcastOp;
use granii_matrix::{CsrMatrix, DenseMatrix, Semiring, WorkStats};

use crate::assoc::{CandidateProgram, Leaf, Op, Operand};
use crate::{CoreError, Result};

/// The operand bindings a program executes against.
#[derive(Debug)]
pub struct ProgramInputs<'a> {
    /// The aggregation mask bound to the leaf `A` (GCN-family programs expect
    /// the self-loop form `Ã`; GIN/SAGE expect the raw adjacency).
    pub adj: &'a CsrMatrix,
    /// `D̃^{-1/2}` bound to the leaf `D`.
    pub deg_inv_sqrt: &'a [f32],
    /// `D^{-1}` bound to the leaf `D^{-1}` (GraphSAGE's mean normalizer).
    pub deg_inv: &'a [f32],
    /// Node features bound to the leaf `H`.
    pub h: &'a DenseMatrix,
    /// Dense weights by leaf name (`W`, `W0`.., `W1`, `W2`, `W_self`,
    /// `W_neigh`, `a_l`, `a_r`).
    pub weights: &'a BTreeMap<String, DenseMatrix>,
    /// GIN's `ε` (the leaf `(1+ε)I` is the constant diagonal `1 + eps`).
    pub eps: f32,
    /// Degree coefficient of variation for the device model.
    pub irregularity: f64,
}

impl ProgramInputs<'_> {
    /// The weight bound to the leaf `name`.
    pub(crate) fn weight(&self, name: &str) -> Result<&DenseMatrix> {
        self.weights
            .get(name)
            .ok_or_else(|| CoreError::InvalidIr(format!("unbound operand {name}")))
    }
}

/// A value in the interpreter environment.
#[derive(Debug, Clone)]
enum Value {
    Dense(DenseMatrix),
    Sparse(CsrMatrix),
    Diag(Vec<f32>),
}

/// Executes a candidate program and returns its (dense) result.
///
/// # Errors
///
/// Returns [`CoreError::InvalidIr`] if the program is malformed (a step
/// reading itself or a later step, an operand of the wrong kind, no steps,
/// or a non-dense result) or references a weight the inputs do not provide,
/// and propagates kernel errors.
pub fn execute(
    exec: &Exec,
    program: &CandidateProgram,
    inputs: &ProgramInputs,
) -> Result<DenseMatrix> {
    program.check()?;
    let mut leaves: Vec<(&Leaf, Value)> = Vec::new();
    for op in &program.ops {
        for (v, _) in op.operands() {
            if let Operand::Leaf(leaf) = v {
                if !leaves.iter().any(|(l, _)| *l == leaf) {
                    leaves.push((leaf, load(leaf, inputs)?));
                }
            }
        }
    }
    let mut values: Vec<Value> = Vec::with_capacity(program.ops.len());
    for op in &program.ops {
        let args = op.map(|v| match v {
            Operand::Step(j) => &values[*j],
            Operand::Leaf(leaf) => {
                let (_, value) = leaves
                    .iter()
                    .find(|(l, _)| *l == leaf)
                    .expect("every leaf operand is loaded above");
                value
            }
        });
        let value = eval(exec, &args, inputs.irregularity)?;
        values.push(value);
    }
    match values.pop() {
        Some(Value::Dense(m)) => Ok(m),
        _ => Err(CoreError::InvalidIr(format!(
            "program result {} is not dense",
            program.expr
        ))),
    }
}

/// A leaf's value, copied from the inputs.
fn load(leaf: &Leaf, inputs: &ProgramInputs) -> Result<Value> {
    Ok(match leaf {
        Leaf::Adj => Value::Sparse(inputs.adj.clone()),
        Leaf::DegInvSqrt => Value::Diag(inputs.deg_inv_sqrt.to_vec()),
        Leaf::DegInv => Value::Diag(inputs.deg_inv.to_vec()),
        Leaf::Features => Value::Dense(inputs.h.clone()),
        Leaf::EpsIdentity => Value::Diag(vec![1.0 + inputs.eps; inputs.adj.rows()]),
        Leaf::Weight(name) => Value::Dense(inputs.weight(name)?.clone()),
    })
}

fn eval(exec: &Exec, op: &Op<&Value>, irr: f64) -> Result<Value> {
    Ok(match op {
        Op::Gemm { a, b } => Value::Dense(exec.gemm(as_dense(a)?, as_dense(b)?)?),
        Op::Spmm { adj, x, weighted } => {
            let semiring = if *weighted {
                Semiring::plus_mul()
            } else {
                Semiring::plus_copy_rhs()
            };
            Value::Dense(exec.spmm(as_sparse(adj)?, as_dense(x)?, semiring, irr)?)
        }
        Op::AttLogits { mask, ul, vr } => Value::Sparse(exec.sddmm_u_add_v(
            as_sparse(mask)?,
            as_dense(ul)?.as_slice(),
            as_dense(vr)?.as_slice(),
            irr,
        )?),
        Op::ScaleCsr { dl, sparse, dr } => Value::Sparse(exec.scale_csr(
            merge(dl)?.as_deref(),
            as_sparse(sparse)?,
            merge(dr)?.as_deref(),
            irr,
        )?),
        Op::RowBroadcast { d, x } => {
            Value::Dense(exec.row_broadcast(as_diag(d)?, as_dense(x)?, BroadcastOp::Mul)?)
        }
        Op::ColBroadcast { x, d } => {
            Value::Dense(exec.col_broadcast(as_dense(x)?, as_diag(d)?, BroadcastOp::Mul)?)
        }
        Op::LeakyRelu { logits } => {
            let slope = granii_gnn::models::GAT_SLOPE;
            Value::Sparse(exec.map_csr_values(as_sparse(logits)?, move |v| {
                if v >= 0.0 {
                    v
                } else {
                    slope * v
                }
            })?)
        }
        Op::EdgeSoftmax { scored } => Value::Sparse(exec.edge_softmax(as_sparse(scored)?, irr)?),
        Op::Relu { x } => Value::Dense(exec.map(as_dense(x)?, 1, |v| v.max(0.0))),
        Op::Add { a, b } => Value::Dense(exec.zip(as_dense(a)?, as_dense(b)?, 1, |a, b| a + b)?),
        Op::DiagMerge { a, b } => {
            let (a, b) = (as_diag(a)?, as_diag(b)?);
            exec.engine().charge(WorkStats::elementwise(b.len(), 1));
            Value::Diag(a.iter().zip(b).map(|(a, b)| a * b).collect())
        }
    })
}

/// Multiplies the diagonals on one side of an edge scaling, uncharged.
fn merge(diags: &[&Value]) -> Result<Option<Vec<f32>>> {
    let mut acc: Option<Vec<f32>> = None;
    for d in diags {
        let d = as_diag(d)?;
        acc = Some(match acc {
            None => d.to_vec(),
            Some(prev) => prev.iter().zip(d).map(|(a, b)| a * b).collect(),
        });
    }
    Ok(acc)
}

fn as_dense(v: &Value) -> Result<&DenseMatrix> {
    match v {
        Value::Dense(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "expected dense, got {other:?}"
        ))),
    }
}

fn as_sparse(v: &Value) -> Result<&CsrMatrix> {
    match v {
        Value::Sparse(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "expected sparse, got {other:?}"
        ))),
    }
}

fn as_diag(v: &Value) -> Result<&[f32]> {
    match v {
        Value::Diag(d) => Ok(d),
        other => Err(CoreError::InvalidIr(format!(
            "expected diagonal, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CompiledModel;
    use granii_gnn::spec::{LayerConfig, ModelKind};
    use granii_gnn::GraphCtx;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::ops;

    /// Weight names are model-specific (GIN's `W2` is its second MLP layer,
    /// TAGCN's `W2` is a per-hop weight), so fixtures are built per model.
    fn weights(model: ModelKind, cfg: LayerConfig) -> BTreeMap<String, DenseMatrix> {
        let mut w = BTreeMap::new();
        let scale = 0.5;
        match model {
            ModelKind::Gin => {
                w.insert(
                    "W1".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 2),
                );
                w.insert(
                    "W2".into(),
                    DenseMatrix::random(cfg.k_out, cfg.k_out, scale, 3),
                );
            }
            ModelKind::Tagcn => {
                for k in 0..=cfg.hops {
                    w.insert(
                        format!("W{k}"),
                        DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 4 + k as u64),
                    );
                }
            }
            ModelKind::Sage => {
                w.insert(
                    "W_self".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 10),
                );
                w.insert(
                    "W_neigh".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 11),
                );
            }
            _ => {
                w.insert(
                    "W".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, 1),
                );
                w.insert("a_l".into(), DenseMatrix::random(cfg.k_out, 1, scale, 12));
                w.insert("a_r".into(), DenseMatrix::random(cfg.k_out, 1, scale, 13));
            }
        }
        w
    }

    /// Every promoted candidate of every model interprets to the same value —
    /// the numerical form of "all association trees compute the same
    /// function".
    #[test]
    fn all_promoted_programs_agree_under_interpretation() {
        let g = generators::power_law(25, 3, 7).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(6, 4);
        let h = DenseMatrix::random(25, 6, 1.0, 8);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let deg_inv: Vec<f32> = ctx
            .graph()
            .out_degrees()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();

        for model in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            // GIN and SAGE aggregate over the raw adjacency.
            let raw = matches!(model, ModelKind::Gin | ModelKind::Sage);
            let adj = if raw {
                ctx.graph().adj().clone()
            } else {
                ctx.adj().clone()
            };
            let w = weights(model, cfg);
            let inputs = ProgramInputs {
                adj: &adj,
                deg_inv_sqrt: ctx.deg_inv_sqrt(),
                deg_inv: &deg_inv,
                h: &h,
                weights: &w,
                eps: granii_gnn::models::GIN_EPS,
                irregularity: ctx.irregularity(),
            };
            let plan = CompiledModel::compile(model, cfg).unwrap();
            let mut reference: Option<DenseMatrix> = None;
            for cand in &plan.candidates {
                let out = execute(&exec, &cand.program, &inputs)
                    .unwrap_or_else(|e| panic!("{model}/{}: {e}", cand.program.expr));
                match &reference {
                    None => reference = Some(out),
                    Some(r) => {
                        let diff = out.max_abs_diff(r).unwrap();
                        assert!(diff < 1e-3, "{model}/{}: diff {diff}", cand.program.expr);
                    }
                }
            }
        }
    }

    /// The interpreted GCN program equals the closed-form reference
    /// `relu(D A D H W)` computed with raw kernels.
    #[test]
    fn gcn_interpretation_matches_closed_form() {
        let g = generators::power_law(20, 3, 9).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(5, 3);
        let h = DenseMatrix::random(20, 5, 1.0, 10);
        let w = weights(ModelKind::Gcn, cfg);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);

        let d = ctx.deg_inv_sqrt();
        let norm = ops::scale_csr(Some(d), ctx.adj(), Some(d)).unwrap();
        let reference = ops::gemm(
            &ops::spmm(&norm, &h, Semiring::plus_mul()).unwrap(),
            &w["W"],
        )
        .unwrap()
        .relu();

        let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
        let deg_inv = vec![0.0f32; 20];
        let inputs = ProgramInputs {
            adj: ctx.adj(),
            deg_inv_sqrt: d,
            deg_inv: &deg_inv,
            h: &h,
            weights: &w,
            eps: 0.0,
            irregularity: 0.0,
        };
        for cand in &plan.candidates {
            let out = execute(&exec, &cand.program, &inputs).unwrap();
            let diff = out.max_abs_diff(&reference).unwrap();
            assert!(diff < 1e-4, "{}: diff {diff}", cand.program.expr);
        }
    }

    /// Lowering soundness: the interpreted program and the executable
    /// composition it lowers to compute the same function (checked for GCN,
    /// whose layer exposes its weight).
    #[test]
    fn interpretation_matches_lowered_composition() {
        use granii_gnn::models::GnnLayer;
        let g = generators::power_law(22, 3, 11).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(5, 4);
        let h = DenseMatrix::random(22, 5, 1.0, 12);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);

        let layer = GnnLayer::new(ModelKind::Gcn, cfg, 33).unwrap();
        let weight = match &layer {
            GnnLayer::Gcn(gcn) => gcn.weight().clone(),
            _ => unreachable!(),
        };
        let mut w = BTreeMap::new();
        w.insert("W".to_string(), weight);
        let deg_inv = vec![0.0f32; 22];
        let inputs = ProgramInputs {
            adj: ctx.adj(),
            deg_inv_sqrt: ctx.deg_inv_sqrt(),
            deg_inv: &deg_inv,
            h: &h,
            weights: &w,
            eps: 0.0,
            irregularity: ctx.irregularity(),
        };
        let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
        for cand in &plan.candidates {
            let interpreted = execute(&exec, &cand.program, &inputs).unwrap();
            let prepared = layer.prepare(&exec, &ctx, cand.composition).unwrap();
            let lowered = layer
                .forward(&exec, &ctx, &prepared, &h, cand.composition)
                .unwrap();
            let diff = interpreted.max_abs_diff(&lowered).unwrap();
            assert!(
                diff < 1e-4,
                "{}: interp vs {} diff {diff}",
                cand.program.expr,
                cand.composition
            );
        }
    }

    /// Unbound operands are reported, not panicked on.
    #[test]
    fn missing_weights_are_typed_errors() {
        let g = generators::ring(6).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let cfg = LayerConfig::new(4, 4);
        let h = DenseMatrix::zeros(6, 4).unwrap();
        let empty = BTreeMap::new();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
        let deg_inv = vec![0.0f32; 6];
        let inputs = ProgramInputs {
            adj: ctx.adj(),
            deg_inv_sqrt: ctx.deg_inv_sqrt(),
            deg_inv: &deg_inv,
            h: &h,
            weights: &empty,
            eps: 0.0,
            irregularity: 0.0,
        };
        let err = execute(&exec, &plan.candidates[0].program, &inputs).unwrap_err();
        assert!(matches!(err, CoreError::InvalidIr(_)), "{err}");
    }
}
