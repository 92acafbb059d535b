//! Topology-Adaptive Graph Convolutional Network (Du et al.).
//!
//! `H' = σ( Σ_{k=0}^{K} Ñ^k · H · W_k )` with per-hop weight matrices. The
//! aggregate-first composition propagates at input width `K1` and pays one
//! GEMM per hop; the update-first composition uses a Horner-style evaluation
//! `Ñ·(…Ñ·(H·W_K) + H·W_{K-1}…) + H·W_0` that propagates at output width `K2`
//! — cheaper exactly when `K2 < K1`.

use std::borrow::Cow;

use granii_matrix::DenseMatrix;

use crate::models::{propagate, relu, Prepared};
use crate::spec::{LayerConfig, NormStrategy, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// A single TAGCN layer with `cfg.hops + 1` weight matrices.
#[derive(Debug, Clone)]
pub struct Tagcn {
    cfg: LayerConfig,
    weights: Vec<DenseMatrix>,
}

impl Tagcn {
    /// Creates a layer with deterministic random per-hop weights.
    pub fn new(cfg: LayerConfig, seed: u64) -> Self {
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        let weights = (0..=cfg.hops)
            .map(|k| DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + k as u64))
            .collect();
        Self { cfg, weights }
    }

    /// Layer configuration.
    pub fn config(&self) -> LayerConfig {
        self.cfg
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
        let add = |a: f32, b: f32| a + b;
        let acc = match order {
            OpOrder::AggregateFirst => {
                // acc = Σ_k (Ñ^k H) W_k, propagating at width K1.
                let mut acc = exec.gemm(h, &self.weights[0])?;
                let mut x = Cow::Borrowed(h);
                for wk in &self.weights[1..] {
                    x = Cow::Owned(propagate(exec, ctx, prepared, norm, &x)?);
                    acc = exec.zip(&acc, &exec.gemm(&x, wk)?, 1, add)?;
                }
                acc
            }
            OpOrder::UpdateFirst => {
                // Horner: acc = H·W_K; for k = K-1..0: acc = Ñ·acc + H·W_k.
                let (last, rest) = self.weights.split_last().expect("hops + 1 weights");
                let mut acc = exec.gemm(h, last)?;
                for wk in rest.iter().rev() {
                    let prop = propagate(exec, ctx, prepared, norm, &acc)?;
                    acc = exec.zip(&prop, &exec.gemm(h, wk)?, 1, add)?;
                }
                acc
            }
        };
        relu(exec, &acc)
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
    fn all_four_compositions_agree() {
        let g = generators::power_law(25, 3, 10).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(25, 5, 1.0, 11);
        let layer = Tagcn::new(
            LayerConfig {
                k_in: 5,
                k_out: 4,
                hops: 2,
            },
            12,
        );
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let mut outs = Vec::new();
        for norm in [NormStrategy::Dynamic, NormStrategy::Precompute] {
            for order in [OpOrder::AggregateFirst, OpOrder::UpdateFirst] {
                let p = prepare_norm(&exec, &ctx, norm).unwrap();
                outs.push(layer.forward(&exec, &ctx, &p, &h, norm, order).unwrap());
            }
        }
        for o in &outs[1..] {
            assert!(o.max_abs_diff(&outs[0]).unwrap() < 1e-3);
        }
    }

    #[test]
    fn update_first_propagates_at_output_width() {
        let g = generators::ring(16).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(16, 8, 1.0, 1);
        let layer = Tagcn::new(
            LayerConfig {
                k_in: 8,
                k_out: 2,
                hops: 2,
            },
            2,
        );
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
        for e in engine.take_profile().entries {
            if e.kind == PrimitiveKind::SpmmWeighted {
                assert_eq!(e.stats.bytes_written, (16 * 2 * 4) as u64);
            }
        }
    }

    #[test]
    fn hops_zero_is_a_pure_update() {
        let g = generators::ring(8).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(8, 3, 1.0, 1);
        let layer = Tagcn::new(
            LayerConfig {
                k_in: 3,
                k_out: 3,
                hops: 1,
            },
            2,
        );
        // hops = 1 still aggregates once; verify the weight count.
        assert_eq!(layer.weights.len(), 2);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let p = prepare_norm(&exec, &ctx, NormStrategy::Dynamic).unwrap();
        let out = layer
            .forward(
                &exec,
                &ctx,
                &p,
                &h,
                NormStrategy::Dynamic,
                OpOrder::AggregateFirst,
            )
            .unwrap();
        assert_eq!(out.shape(), (8, 3));
    }
}
