//! GraphSAGE with mean aggregation (Hamilton et al.).
//!
//! `H' = σ( H·W_self + mean_{neighbors}(H)·W_neigh )`. The paper evaluates
//! GraphSAGE through neighborhood sampling (§VI-E: "through sampling, we can
//! support GraphSAGE with GCN aggregation"); here the layer runs on whatever
//! (possibly sampled) graph the context holds. Mean aggregation commutes with
//! the linear update, giving the two operator orders.

use granii_matrix::{DenseMatrix, Semiring};

use crate::models::relu;
use crate::spec::{LayerConfig, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// A single GraphSAGE (mean) layer.
#[derive(Debug, Clone)]
pub struct Sage {
    cfg: LayerConfig,
    w_self: DenseMatrix,
    w_neigh: DenseMatrix,
}

impl Sage {
    /// Creates a layer with deterministic random weights.
    pub fn new(cfg: LayerConfig, seed: u64) -> Self {
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        Self {
            cfg,
            w_self: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
            w_neigh: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + 1),
        }
    }

    /// Layer configuration.
    pub fn config(&self) -> LayerConfig {
        self.cfg
    }

    /// One forward pass.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn forward(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        h: &DenseMatrix,
        order: OpOrder,
    ) -> Result<DenseMatrix> {
        let adj = ctx.graph().adj();
        let irr = ctx.irregularity();
        let mean = Semiring::mean_copy_rhs();
        let self_term = exec.gemm(h, &self.w_self)?;
        let neigh_term = match order {
            OpOrder::AggregateFirst => exec.gemm(&exec.spmm(adj, h, mean, irr)?, &self.w_neigh)?,
            OpOrder::UpdateFirst => exec.spmm(adj, &exec.gemm(h, &self.w_neigh)?, mean, irr)?,
        };
        relu(exec, &exec.zip(&self_term, &neigh_term, 1, |a, b| a + b)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::{generators, sampling};
    use granii_matrix::device::{DeviceKind, Engine};

    #[test]
    fn orders_agree_numerically() {
        let g = generators::power_law(30, 4, 20).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(30, 5, 1.0, 21);
        let layer = Sage::new(LayerConfig::new(5, 3), 22);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let a = layer
            .forward(&exec, &ctx, &h, OpOrder::AggregateFirst)
            .unwrap();
        let b = layer
            .forward(&exec, &ctx, &h, OpOrder::UpdateFirst)
            .unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn runs_on_sampled_graphs() {
        let g = generators::power_law(100, 8, 23).unwrap();
        let sampled = sampling::sample_neighbors(&g, 3, 7).unwrap();
        let ctx = GraphCtx::new(&sampled).unwrap();
        let h = DenseMatrix::random(100, 4, 1.0, 24);
        let layer = Sage::new(LayerConfig::new(4, 4), 25);
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        let out = layer
            .forward(&exec, &ctx, &h, OpOrder::AggregateFirst)
            .unwrap();
        assert_eq!(out.shape(), (100, 4));
    }

    #[test]
    fn isolated_node_keeps_only_self_term() {
        let g = granii_graph::Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let layer = Sage::new(LayerConfig::new(2, 2), 1);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let h = DenseMatrix::from_rows(&[[1.0, 2.0].as_slice(), [3.0, 4.0].as_slice()]).unwrap();
        let out = layer
            .forward(&exec, &ctx, &h, OpOrder::AggregateFirst)
            .unwrap();
        // Node 1 has no out-neighbors: output = relu(h1 · w_self).
        let expected = granii_matrix::ops::gemm(&h, &layer.w_self).unwrap().relu();
        for j in 0..2 {
            assert!((out.get(1, j) - expected.get(1, j)).abs() < 1e-5);
        }
    }
}
