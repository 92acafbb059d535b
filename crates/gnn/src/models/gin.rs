//! Graph Isomorphism Network.
//!
//! `H' = MLP( (1 + ε)·H + A·H )` with a two-layer MLP. Because the first MLP
//! layer is linear and sum-aggregation commutes with it,
//! `((1+ε)H + A·H)·W₁ = (1+ε)(H·W₁) + A·(H·W₁)` — the update-first reordering
//! GRANII discovers for GIN on DGL (paper §VI-C1: "the default implementation
//! for these models does not reorder the placement of the update operation").

use granii_matrix::DenseMatrix;

use crate::models::relu;
use crate::spec::{LayerConfig, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// Fixed epsilon of the `(1 + ε)` self-term (DGL's default is 0; we use a
/// small nonzero value so the term is exercised).
pub const GIN_EPS: f32 = 0.1;

/// A single GIN layer with a 2-layer MLP (`k_in → k_out → k_out`).
#[derive(Debug, Clone)]
pub struct Gin {
    cfg: LayerConfig,
    w1: DenseMatrix,
    w2: DenseMatrix,
}

impl Gin {
    /// Creates a layer with deterministic random MLP weights.
    pub fn new(cfg: LayerConfig, seed: u64) -> Self {
        let s1 = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        let s2 = (1.0 / cfg.k_out as f32).sqrt();
        Self {
            cfg,
            w1: DenseMatrix::random(cfg.k_in, cfg.k_out, s1, seed),
            w2: DenseMatrix::random(cfg.k_out, cfg.k_out, s2, seed + 1),
        }
    }

    /// Layer configuration.
    pub fn config(&self) -> LayerConfig {
        self.cfg
    }

    /// One forward pass. GIN aggregates over the raw adjacency (no
    /// self-loops — the `(1+ε)H` term plays that role).
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
        let semiring = ctx.raw_sum_semiring();
        let self_term = |v: f32| (1.0 + GIN_EPS) * v;
        let add = |a: f32, b: f32| a + b;
        let hidden = match order {
            OpOrder::AggregateFirst => {
                // ((1+ε)H + A·H) · W₁
                let agg = exec.spmm(adj, h, semiring, irr)?;
                let selfed = exec.map(h, 1, self_term)?;
                exec.gemm(&exec.zip(&selfed, &agg, 1, add)?, &self.w1)?
            }
            OpOrder::UpdateFirst => {
                // (1+ε)(H·W₁) + A·(H·W₁)
                let z = exec.gemm(h, &self.w1)?;
                let agg = exec.spmm(adj, &z, semiring, irr)?;
                exec.zip(&exec.map(&z, 1, self_term)?, &agg, 1, add)?
            }
        };
        exec.gemm(&relu(exec, &hidden)?, &self.w2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::PrimitiveKind;

    #[test]
    fn orders_agree_numerically() {
        let g = generators::power_law(25, 3, 9).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(25, 6, 1.0, 4);
        let layer = Gin::new(LayerConfig::new(6, 3), 8);
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
    fn update_first_aggregates_at_output_width() {
        let g = generators::ring(12).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(12, 8, 1.0, 4);
        let layer = Gin::new(LayerConfig::new(8, 2), 8);
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        layer
            .forward(&exec, &ctx, &h, OpOrder::UpdateFirst)
            .unwrap();
        let spmm = engine
            .take_profile()
            .entries
            .into_iter()
            .find(|e| e.kind == PrimitiveKind::SpmmUnweighted)
            .unwrap();
        assert_eq!(spmm.stats.bytes_written, (12 * 2 * 4) as u64);
    }

    #[test]
    fn gin_ignores_self_loops_graph() {
        // GIN aggregates over the raw adjacency: an isolated node's output
        // depends only on its own features.
        let g = granii_graph::Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let layer = Gin::new(LayerConfig::new(2, 2), 1);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let h1 = DenseMatrix::from_rows(&[
            [1.0, 0.0].as_slice(),
            [0.0, 1.0].as_slice(),
            [5.0, 5.0].as_slice(),
        ])
        .unwrap();
        let mut h2 = h1.clone();
        h2.set(0, 0, 9.0); // change node 0; node 2 must be unaffected
        let o1 = layer
            .forward(&exec, &ctx, &h1, OpOrder::AggregateFirst)
            .unwrap();
        let o2 = layer
            .forward(&exec, &ctx, &h2, OpOrder::AggregateFirst)
            .unwrap();
        assert_eq!(o1.row(2), o2.row(2));
        assert_ne!(o1.row(1), o2.row(1));
    }
}
