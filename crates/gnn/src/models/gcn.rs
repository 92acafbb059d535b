//! Graph Convolutional Network (paper §III-A).
//!
//! `H' = σ( D̃^{-1/2} Ã D̃^{-1/2} · H · W )`, with two normalization strategies
//! (Eq. 2 dynamic broadcasts vs Eq. 3 precomputed edge scaling) and two
//! operator orders (update before or after aggregation), giving the four
//! promoted compositions GRANII selects among.

use granii_matrix::DenseMatrix;

use crate::models::{propagate, relu, Prepared};
use crate::spec::{LayerConfig, NormStrategy, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// A single GCN layer.
#[derive(Debug, Clone)]
pub struct Gcn {
    cfg: LayerConfig,
    w: DenseMatrix,
}

impl Gcn {
    /// Creates a layer with Xavier-style random weights.
    pub fn new(cfg: LayerConfig, seed: u64) -> Self {
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        Self {
            cfg,
            w: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
        }
    }

    /// Layer configuration.
    pub fn config(&self) -> LayerConfig {
        self.cfg
    }

    /// The weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.w
    }

    /// One forward pass.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; `prepared` must come from
    /// [`crate::models::prepare_norm`] with the same `norm`.
    pub fn forward(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        prepared: &Prepared,
        h: &DenseMatrix,
        norm: NormStrategy,
        order: OpOrder,
    ) -> Result<DenseMatrix> {
        let z = match order {
            OpOrder::AggregateFirst => {
                exec.gemm(&propagate(exec, ctx, prepared, norm, h)?, &self.w)?
            }
            OpOrder::UpdateFirst => propagate(exec, ctx, prepared, norm, &exec.gemm(h, &self.w)?)?,
        };
        relu(exec, &z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::prepare_norm;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::PrimitiveKind;

    #[test]
    fn dynamic_avoids_sddmm_and_precompute_avoids_broadcasts() {
        let g = generators::power_law(30, 3, 1).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(30, 4, 1.0, 2);
        let layer = Gcn::new(LayerConfig::new(4, 4), 3);

        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        let p = prepare_norm(&exec, &ctx, NormStrategy::Dynamic).unwrap();
        layer
            .forward(
                &exec,
                &ctx,
                &p,
                &h,
                NormStrategy::Dynamic,
                OpOrder::AggregateFirst,
            )
            .unwrap();
        let kinds: Vec<_> = engine
            .take_profile()
            .entries
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&PrimitiveKind::RowBroadcast));
        assert!(!kinds.contains(&PrimitiveKind::Sddmm));
        assert!(kinds.contains(&PrimitiveKind::SpmmUnweighted));

        let p = prepare_norm(&exec, &ctx, NormStrategy::Precompute).unwrap();
        layer
            .forward(
                &exec,
                &ctx,
                &p,
                &h,
                NormStrategy::Precompute,
                OpOrder::UpdateFirst,
            )
            .unwrap();
        let kinds: Vec<_> = engine
            .take_profile()
            .entries
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&PrimitiveKind::Sddmm)); // prepare's edge scaling
        assert!(!kinds.contains(&PrimitiveKind::RowBroadcast));
        assert!(kinds.contains(&PrimitiveKind::SpmmWeighted));
    }

    /// Weighted input graphs must use the edge values: the dynamic
    /// composition's aggregation switches to the weighted semiring and the
    /// result matches a dense reference.
    #[test]
    fn weighted_graphs_respect_edge_values() {
        use granii_matrix::{ops, CooMatrix};
        // A weighted triangle with asymmetric weights.
        let coo = CooMatrix::from_entries(
            3,
            3,
            &[
                (0, 1, 2.0),
                (1, 0, 2.0),
                (1, 2, 0.5),
                (2, 1, 0.5),
                (0, 2, 3.0),
                (2, 0, 3.0),
            ],
        )
        .unwrap();
        let g = granii_graph::Graph::from_csr(coo.to_csr()).unwrap();
        assert!(g.is_weighted());
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(3, 2, 1.0, 5);
        let layer = Gcn::new(LayerConfig::new(2, 2), 6);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);

        // Dense reference: relu(D^-1/2 Ã D^-1/2 H W) with real edge values.
        let d = ctx.deg_inv_sqrt().to_vec();
        let norm = ops::scale_csr(Some(&d), ctx.adj(), Some(&d)).unwrap();
        let reference = ops::gemm(
            &norm.to_dense().unwrap(),
            &ops::gemm(&h, layer.weight()).unwrap(),
        )
        .unwrap()
        .relu();

        for norm_s in [NormStrategy::Dynamic, NormStrategy::Precompute] {
            let p = prepare_norm(&exec, &ctx, norm_s).unwrap();
            let out = layer
                .forward(&exec, &ctx, &p, &h, norm_s, OpOrder::AggregateFirst)
                .unwrap();
            assert!(
                out.max_abs_diff(&reference).unwrap() < 1e-4,
                "{norm_s:?} ignores edge weights"
            );
        }
    }

    #[test]
    fn update_first_runs_gemm_before_aggregation() {
        let g = generators::ring(10).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(10, 6, 1.0, 2);
        let layer = Gcn::new(LayerConfig::new(6, 2), 3);
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        let p = prepare_norm(&exec, &ctx, NormStrategy::Precompute).unwrap();
        engine.take_profile();
        layer
            .forward(
                &exec,
                &ctx,
                &p,
                &h,
                NormStrategy::Precompute,
                OpOrder::UpdateFirst,
            )
            .unwrap();
        let entries = engine.take_profile().entries;
        let gemm_pos = entries
            .iter()
            .position(|e| e.kind == PrimitiveKind::Gemm)
            .unwrap();
        let spmm_pos = entries
            .iter()
            .position(|e| e.kind == PrimitiveKind::SpmmWeighted)
            .unwrap();
        assert!(gemm_pos < spmm_pos);
        // Aggregation runs at the *output* width 2 under update-first.
        assert_eq!(entries[spmm_pos].stats.bytes_written, (10 * 2 * 4) as u64);
    }
}
