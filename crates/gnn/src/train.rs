//! Training (forward + backward + SGD) for every model and composition.
//!
//! The paper's training evaluation (§VI-C) runs full training iterations where
//! only the forward pass uses GRANII's selected composition; the backward pass
//! runs whatever gradient program the tape derives. [`Trainer::step`] builds
//! the tape for the requested composition, computes an MSE loss against a
//! regression target, backpropagates, and applies an SGD update — charging
//! every primitive of all three phases to the executor's engine.

use std::sync::Arc;

use granii_matrix::{DenseMatrix, Semiring};

use crate::autodiff::{Tape, Var};
use crate::models::GIN_EPS;
use crate::spec::{Composition, GatStrategy, LayerConfig, ModelKind, NormStrategy, OpOrder};
use crate::{Exec, GnnError, GraphCtx, Result};

/// Trainable parameters of one layer, by model kind.
#[derive(Debug, Clone)]
enum Params {
    Gcn {
        w: DenseMatrix,
    },
    Gin {
        w1: DenseMatrix,
        w2: DenseMatrix,
    },
    Sgc {
        w: DenseMatrix,
    },
    Tagcn {
        ws: Vec<DenseMatrix>,
    },
    Gat {
        w: DenseMatrix,
        a_l: DenseMatrix,
        a_r: DenseMatrix,
    },
    Sage {
        w_self: DenseMatrix,
        w_neigh: DenseMatrix,
    },
}

/// Gradient-descent optimizers for [`Trainer`].
///
/// `Sgd` is the paper-era default; `Adam` is provided as the common
/// alternative (extension feature). All state updates are charged through the
/// executor like any other element-wise primitive.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    /// Per-parameter (first moment, second moment), lazily initialized.
    state: Vec<Option<(DenseMatrix, DenseMatrix)>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptimizerKind {
    Sgd,
    Adam,
}

impl Optimizer {
    /// Plain stochastic gradient descent.
    pub fn sgd(lr: f32) -> Self {
        Self {
            kind: OptimizerKind::Sgd,
            lr,
            beta1: 0.0,
            beta2: 0.0,
            eps: 0.0,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Adam with the standard moment coefficients (0.9, 0.999).
    pub fn adam(lr: f32) -> Self {
        Self {
            kind: OptimizerKind::Adam,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: Vec::new(),
        }
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Advances the step counter (once per training step, before updates).
    fn begin_step(&mut self, num_params: usize) {
        self.t += 1;
        if self.state.len() < num_params {
            self.state.resize(num_params, None);
        }
    }

    /// Applies the update rule for parameter `idx`, returning the new value.
    fn update(
        &mut self,
        exec: &Exec,
        idx: usize,
        w: &DenseMatrix,
        g: &DenseMatrix,
    ) -> Result<DenseMatrix> {
        match self.kind {
            OptimizerKind::Sgd => {
                let lr = self.lr;
                exec.zip(w, g, 2, move |wv, gv| wv - lr * gv)
            }
            OptimizerKind::Adam => {
                let (m_prev, v_prev) = match self.state[idx].take() {
                    Some(s) => s,
                    None => (
                        DenseMatrix::zeros(w.rows(), w.cols())?,
                        DenseMatrix::zeros(w.rows(), w.cols())?,
                    ),
                };
                let (b1, b2) = (self.beta1, self.beta2);
                let m = exec.zip(&m_prev, g, 2, move |mv, gv| b1 * mv + (1.0 - b1) * gv)?;
                let v = exec.zip(&v_prev, g, 3, move |vv, gv| b2 * vv + (1.0 - b2) * gv * gv)?;
                let bc1 = 1.0 - b1.powi(self.t);
                let bc2 = 1.0 - b2.powi(self.t);
                let (lr, eps) = (self.lr, self.eps);
                let step = exec.zip(&m, &v, 4, move |mv, vv| {
                    lr * (mv / bc1) / ((vv / bc2).sqrt() + eps)
                })?;
                let new_w = exec.zip(w, &step, 1, |wv, sv| wv - sv)?;
                self.state[idx] = Some((m, v));
                Ok(new_w)
            }
        }
    }
}

/// A single-layer trainer with a pluggable optimizer (SGD by default).
///
/// # Example
///
/// ```
/// use granii_gnn::train::Trainer;
/// use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
/// use granii_gnn::{Exec, GraphCtx};
/// use granii_graph::generators;
/// use granii_matrix::device::{DeviceKind, Engine};
/// use granii_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), granii_gnn::GnnError> {
/// let graph = generators::ring(10)?;
/// let ctx = GraphCtx::new(&graph)?;
/// let engine = Engine::modeled(DeviceKind::Cpu);
/// let exec = Exec::real(&engine);
/// let mut trainer = Trainer::new(ModelKind::Gcn, LayerConfig::new(4, 2), 7, 0.05)?;
/// let h = DenseMatrix::random(10, 4, 1.0, 1);
/// let y = DenseMatrix::random(10, 2, 1.0, 2);
/// let comp = Composition::all_for(ModelKind::Gcn)[0];
/// let first = trainer.step(&exec, &ctx, &h, &y, comp)?;
/// let mut last = first;
/// for _ in 0..10 { last = trainer.step(&exec, &ctx, &h, &y, comp)?; }
/// assert!(last < first); // SGD reduces the loss
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    kind: ModelKind,
    cfg: LayerConfig,
    params: Params,
    optimizer: Optimizer,
}

impl Trainer {
    /// Creates an SGD trainer with deterministic random parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for invalid configurations.
    pub fn new(kind: ModelKind, cfg: LayerConfig, seed: u64, lr: f32) -> Result<Self> {
        if lr <= 0.0 {
            return Err(GnnError::InvalidConfig("learning rate must be > 0".into()));
        }
        Self::with_optimizer(kind, cfg, seed, Optimizer::sgd(lr))
    }

    /// Creates a trainer with an explicit optimizer.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for invalid configurations.
    pub fn with_optimizer(
        kind: ModelKind,
        cfg: LayerConfig,
        seed: u64,
        optimizer: Optimizer,
    ) -> Result<Self> {
        cfg.validate()?;
        if optimizer.learning_rate() <= 0.0 {
            return Err(GnnError::InvalidConfig("learning rate must be > 0".into()));
        }
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        let params = match kind {
            ModelKind::Gcn => Params::Gcn {
                w: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
            },
            ModelKind::Gin => Params::Gin {
                w1: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
                w2: DenseMatrix::random(cfg.k_out, cfg.k_out, scale, seed + 1),
            },
            ModelKind::Sgc => Params::Sgc {
                w: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
            },
            ModelKind::Tagcn => Params::Tagcn {
                ws: (0..=cfg.hops)
                    .map(|k| DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + k as u64))
                    .collect(),
            },
            ModelKind::Gat => Params::Gat {
                w: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
                a_l: DenseMatrix::random(cfg.k_out, 1, scale, seed + 1),
                a_r: DenseMatrix::random(cfg.k_out, 1, scale, seed + 2),
            },
            ModelKind::Sage => Params::Sage {
                w_self: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
                w_neigh: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + 1),
            },
        };
        Ok(Self {
            kind,
            cfg,
            params,
            optimizer,
        })
    }

    /// The model kind being trained.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// One training step (forward under `comp`, MSE loss, backward, SGD).
    /// Returns the loss before the update.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `comp` belongs to another model,
    /// and propagates kernel errors.
    pub fn step(
        &mut self,
        exec: &Exec,
        ctx: &GraphCtx,
        h: &DenseMatrix,
        target: &DenseMatrix,
        comp: Composition,
    ) -> Result<f64> {
        if comp.model() != self.kind {
            return Err(GnnError::InvalidConfig(format!(
                "composition {comp} does not belong to model {}",
                self.kind
            )));
        }
        crate::models::check_input(ctx, h, self.cfg)?;
        let _span = granii_telemetry::span!(
            "train.step",
            model = self.kind.name(),
            nodes = ctx.graph().num_nodes(),
            k_in = self.cfg.k_in,
            k_out = self.cfg.k_out,
        );
        let mut tape = Tape::new(*exec);
        let (pred, param_vars) = self.build_forward(&mut tape, ctx, h, comp)?;
        let (loss, grads) = tape.backward_mse(pred, target)?;

        // Parameter updates via the configured optimizer, charged like any
        // other element-wise primitives.
        self.optimizer.begin_step(param_vars.len());
        let mut updated = Vec::with_capacity(param_vars.len());
        for (idx, &v) in param_vars.iter().enumerate() {
            let g = grads
                .dense(v)
                .ok_or_else(|| GnnError::InvalidConfig("missing parameter gradient".into()))?;
            let w = tape.value(v)?;
            updated.push(self.optimizer.update(exec, idx, w, g)?);
        }
        self.store_params(updated);
        Ok(loss)
    }

    /// Builds the forward tape for `comp`; returns the prediction var and the
    /// parameter vars in declaration order.
    fn build_forward(
        &self,
        tape: &mut Tape,
        ctx: &GraphCtx,
        h: &DenseMatrix,
        comp: Composition,
    ) -> Result<(Var, Vec<Var>)> {
        let irr = ctx.irregularity();
        let adj = Arc::new(ctx.adj().clone());
        let raw_adj = Arc::new(ctx.graph().adj().clone());
        let d = Arc::new(ctx.deg_inv_sqrt().to_vec());
        // The layer input carries gradients (in a multi-layer network every
        // layer input except the first is an intermediate), so the backward
        // pass propagates through the aggregation regardless of operator
        // order — matching framework behavior. It is not SGD-updated.
        let hv = tape.param(h.clone());

        // Normalized propagation step shared by the GCN family. The dynamic
        // strategy differentiates through broadcasts; the precompute strategy
        // aggregates over the pre-scaled adjacency (built once outside the
        // per-iteration tape, mirroring `models::Prepared`).
        let norm_adj = |norm: NormStrategy| -> Arc<granii_matrix::CsrMatrix> {
            match norm {
                NormStrategy::Precompute => Arc::new(
                    granii_matrix::ops::scale_csr(Some(&d), ctx.adj(), Some(&d))
                        .expect("degree vectors match"),
                ),
                NormStrategy::Dynamic => adj.clone(),
            }
        };

        match (comp, &self.params) {
            (Composition::Gcn(norm, order), Params::Gcn { w }) => {
                let wv = tape.param(w.clone());
                let prop = |tape: &mut Tape, x: Var| -> Result<Var> {
                    match norm {
                        NormStrategy::Dynamic => {
                            let t = tape.row_broadcast(d.clone(), x)?;
                            let t = tape.spmm(adj.clone(), t, ctx.sum_semiring(), irr)?;
                            tape.row_broadcast(d.clone(), t)
                        }
                        NormStrategy::Precompute => {
                            tape.spmm(norm_adj(norm), x, Semiring::plus_mul(), irr)
                        }
                    }
                };
                let z = match order {
                    OpOrder::AggregateFirst => {
                        let a = prop(tape, hv)?;
                        tape.gemm(a, wv)?
                    }
                    OpOrder::UpdateFirst => {
                        let u = tape.gemm(hv, wv)?;
                        prop(tape, u)?
                    }
                };
                let out = tape.relu(z)?;
                Ok((out, vec![wv]))
            }
            (Composition::Gin(order), Params::Gin { w1, w2 }) => {
                let w1v = tape.param(w1.clone());
                let w2v = tape.param(w2.clone());
                let hidden = match order {
                    OpOrder::AggregateFirst => {
                        let agg = tape.spmm(raw_adj, hv, ctx.raw_sum_semiring(), irr)?;
                        let selfed = tape.scale(hv, 1.0 + GIN_EPS)?;
                        let sum = tape.add(selfed, agg)?;
                        tape.gemm(sum, w1v)?
                    }
                    OpOrder::UpdateFirst => {
                        let z = tape.gemm(hv, w1v)?;
                        let agg = tape.spmm(raw_adj, z, ctx.raw_sum_semiring(), irr)?;
                        let selfed = tape.scale(z, 1.0 + GIN_EPS)?;
                        tape.add(selfed, agg)?
                    }
                };
                let r = tape.relu(hidden)?;
                let out = tape.gemm(r, w2v)?;
                Ok((out, vec![w1v, w2v]))
            }
            (Composition::Sgc(norm, order), Params::Sgc { w }) => {
                let wv = tape.param(w.clone());
                let nadj = norm_adj(norm);
                let prop = |tape: &mut Tape, mut x: Var| -> Result<Var> {
                    for _ in 0..self.cfg.hops {
                        x = match norm {
                            NormStrategy::Dynamic => {
                                let t = tape.row_broadcast(d.clone(), x)?;
                                let t = tape.spmm(adj.clone(), t, ctx.sum_semiring(), irr)?;
                                tape.row_broadcast(d.clone(), t)?
                            }
                            NormStrategy::Precompute => {
                                tape.spmm(nadj.clone(), x, Semiring::plus_mul(), irr)?
                            }
                        };
                    }
                    Ok(x)
                };
                let out = match order {
                    OpOrder::AggregateFirst => {
                        let a = prop(tape, hv)?;
                        tape.gemm(a, wv)?
                    }
                    OpOrder::UpdateFirst => {
                        let u = tape.gemm(hv, wv)?;
                        prop(tape, u)?
                    }
                };
                Ok((out, vec![wv]))
            }
            (Composition::Tagcn(norm, order), Params::Tagcn { ws }) => {
                let wvs: Vec<Var> = ws.iter().map(|w| tape.param(w.clone())).collect();
                let nadj = norm_adj(norm);
                let hop = |tape: &mut Tape, x: Var| -> Result<Var> {
                    match norm {
                        NormStrategy::Dynamic => {
                            let t = tape.row_broadcast(d.clone(), x)?;
                            let t = tape.spmm(adj.clone(), t, ctx.sum_semiring(), irr)?;
                            tape.row_broadcast(d.clone(), t)
                        }
                        NormStrategy::Precompute => {
                            tape.spmm(nadj.clone(), x, Semiring::plus_mul(), irr)
                        }
                    }
                };
                let z = match order {
                    OpOrder::AggregateFirst => {
                        let mut acc = tape.gemm(hv, wvs[0])?;
                        let mut x = hv;
                        for wv in &wvs[1..] {
                            x = hop(tape, x)?;
                            let term = tape.gemm(x, *wv)?;
                            acc = tape.add(acc, term)?;
                        }
                        acc
                    }
                    OpOrder::UpdateFirst => {
                        let mut acc = tape.gemm(hv, wvs[self.cfg.hops])?;
                        for k in (0..self.cfg.hops).rev() {
                            let prop = hop(tape, acc)?;
                            let term = tape.gemm(hv, wvs[k])?;
                            acc = tape.add(prop, term)?;
                        }
                        acc
                    }
                };
                let out = tape.relu(z)?;
                Ok((out, wvs))
            }
            (Composition::Gat(strategy), Params::Gat { w, a_l, a_r }) => {
                let wv = tape.param(w.clone());
                let alv = tape.param(a_l.clone());
                let arv = tape.param(a_r.clone());
                let theta = tape.gemm(hv, wv)?;
                let ul = tape.gemm(theta, alv)?;
                let vr = tape.gemm(theta, arv)?;
                let logits = tape.sddmm_u_add_v(adj.clone(), ul, vr, irr)?;
                let scored = tape.sparse_leaky_relu(logits, crate::models::GAT_SLOPE)?;
                let alpha = tape.edge_softmax(scored, irr)?;
                let z = match strategy {
                    GatStrategy::Reuse => tape.spmm_var(alpha, theta, irr)?,
                    GatStrategy::Recompute => {
                        let agg = tape.spmm_var(alpha, hv, irr)?;
                        tape.gemm(agg, wv)?
                    }
                };
                let out = tape.relu(z)?;
                Ok((out, vec![wv, alv, arv]))
            }
            (Composition::Sage(order), Params::Sage { w_self, w_neigh }) => {
                let wsv = tape.param(w_self.clone());
                let wnv = tape.param(w_neigh.clone());
                let self_term = tape.gemm(hv, wsv)?;
                let neigh = match order {
                    OpOrder::AggregateFirst => {
                        let agg = tape.spmm(raw_adj, hv, Semiring::mean_copy_rhs(), irr)?;
                        tape.gemm(agg, wnv)?
                    }
                    OpOrder::UpdateFirst => {
                        let z = tape.gemm(hv, wnv)?;
                        tape.spmm(raw_adj, z, Semiring::mean_copy_rhs(), irr)?
                    }
                };
                let sum = tape.add(self_term, neigh)?;
                let out = tape.relu(sum)?;
                Ok((out, vec![wsv, wnv]))
            }
            _ => unreachable!("composition/kind pairing validated in step()"),
        }
    }

    fn store_params(&mut self, updated: Vec<DenseMatrix>) {
        let mut it = updated.into_iter();
        match &mut self.params {
            Params::Gcn { w } | Params::Sgc { w } => *w = it.next().expect("one param"),
            Params::Gin { w1, w2 } => {
                *w1 = it.next().expect("w1");
                *w2 = it.next().expect("w2");
            }
            Params::Tagcn { ws } => {
                for w in ws.iter_mut() {
                    *w = it.next().expect("per-hop weight");
                }
            }
            Params::Gat { w, a_l, a_r } => {
                *w = it.next().expect("w");
                *a_l = it.next().expect("a_l");
                *a_r = it.next().expect("a_r");
            }
            Params::Sage { w_self, w_neigh } => {
                *w_self = it.next().expect("w_self");
                *w_neigh = it.next().expect("w_neigh");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};

    fn setup() -> (GraphCtx, Engine, DenseMatrix, DenseMatrix) {
        let g = generators::power_law(20, 3, 30).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let h = DenseMatrix::random(20, 6, 1.0, 31);
        let y = DenseMatrix::random(20, 4, 1.0, 32);
        (ctx, engine, h, y)
    }

    #[test]
    fn training_reduces_loss_for_every_model_and_composition() {
        let (ctx, engine, h, y) = setup();
        let exec = Exec::real(&engine);
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            for comp in Composition::all_for(kind) {
                let mut trainer = Trainer::new(kind, LayerConfig::new(6, 4), 33, 0.05).unwrap();
                let first = trainer.step(&exec, &ctx, &h, &y, comp).unwrap();
                let mut last = first;
                for _ in 0..15 {
                    last = trainer.step(&exec, &ctx, &h, &y, comp).unwrap();
                }
                assert!(last < first, "{comp}: loss {first} -> {last}");
            }
        }
    }

    #[test]
    fn training_charges_more_than_inference() {
        let (ctx, engine, h, y) = setup();
        let exec = Exec::real(&engine);
        let comp = Composition::all_for(ModelKind::Gcn)[0];

        let layer =
            crate::models::GnnLayer::new(ModelKind::Gcn, LayerConfig::new(6, 4), 1).unwrap();
        let p = layer.prepare(&exec, &ctx, comp).unwrap();
        engine.take_profile();
        layer.forward(&exec, &ctx, &p, &h, comp).unwrap();
        let fwd = engine.take_profile().total_seconds();

        let mut trainer = Trainer::new(ModelKind::Gcn, LayerConfig::new(6, 4), 1, 0.01).unwrap();
        trainer.step(&exec, &ctx, &h, &y, comp).unwrap();
        let train = engine.take_profile().total_seconds();
        assert!(train > fwd, "training {train} must exceed inference {fwd}");
    }

    #[test]
    fn wrong_composition_rejected() {
        let (ctx, engine, h, y) = setup();
        let exec = Exec::real(&engine);
        let mut trainer = Trainer::new(ModelKind::Gcn, LayerConfig::new(6, 4), 1, 0.01).unwrap();
        let gat = Composition::all_for(ModelKind::Gat)[0];
        assert!(trainer.step(&exec, &ctx, &h, &y, gat).is_err());
    }

    #[test]
    fn invalid_learning_rate_rejected() {
        assert!(Trainer::new(ModelKind::Gcn, LayerConfig::new(4, 4), 1, 0.0).is_err());
        assert!(Trainer::new(ModelKind::Gcn, LayerConfig::new(4, 4), 1, -1.0).is_err());
        assert!(Trainer::with_optimizer(
            ModelKind::Gcn,
            LayerConfig::new(4, 4),
            1,
            Optimizer::adam(0.0)
        )
        .is_err());
    }

    #[test]
    fn adam_converges_and_differs_from_sgd() {
        let (ctx, engine, h, y) = setup();
        let exec = Exec::real(&engine);
        let comp = Composition::all_for(ModelKind::Gcn)[0];

        let run = |optimizer: Optimizer| {
            let mut t =
                Trainer::with_optimizer(ModelKind::Gcn, LayerConfig::new(6, 4), 33, optimizer)
                    .unwrap();
            let first = t.step(&exec, &ctx, &h, &y, comp).unwrap();
            let mut last = first;
            for _ in 0..20 {
                last = t.step(&exec, &ctx, &h, &y, comp).unwrap();
            }
            (first, last)
        };
        let (s0, s_last) = run(Optimizer::sgd(0.02));
        let (a0, a_last) = run(Optimizer::adam(0.02));
        assert_eq!(s0, a0, "same init, same first loss");
        assert!(s_last < s0, "sgd converges");
        assert!(a_last < a0, "adam converges");
        assert!((s_last - a_last).abs() > 1e-9, "trajectories differ");
    }

    #[test]
    fn adam_charges_more_update_work_than_sgd() {
        let (ctx, engine, h, y) = setup();
        let exec = Exec::real(&engine);
        let comp = Composition::all_for(ModelKind::Gcn)[0];
        let charge = |optimizer: Optimizer| {
            let mut t =
                Trainer::with_optimizer(ModelKind::Gcn, LayerConfig::new(6, 4), 1, optimizer)
                    .unwrap();
            engine.take_profile();
            t.step(&exec, &ctx, &h, &y, comp).unwrap();
            engine.take_profile().entries.len()
        };
        assert!(charge(Optimizer::adam(0.01)) > charge(Optimizer::sgd(0.01)));
    }
}
