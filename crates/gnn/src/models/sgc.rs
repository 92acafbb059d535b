//! Simple Graph Convolution (Wu et al.).
//!
//! `H' = Ñ^k · H · W` with no intermediate nonlinearity. SGC inherits GCN's
//! normalization choice and, because every factor is linear, the single GEMM
//! can move to either end of the `k`-hop propagation chain.

use std::borrow::Cow;

use granii_matrix::DenseMatrix;

use crate::models::{propagate, Prepared};
use crate::spec::{LayerConfig, NormStrategy, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// A single SGC layer (`cfg.hops` propagation steps, one weight).
#[derive(Debug, Clone)]
pub struct Sgc {
    cfg: LayerConfig,
    w: DenseMatrix,
}

impl Sgc {
    /// Creates a layer with deterministic random weights.
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
        match order {
            OpOrder::AggregateFirst => {
                let mut x = Cow::Borrowed(h);
                for _ in 0..self.cfg.hops {
                    x = Cow::Owned(propagate(exec, ctx, prepared, norm, &x)?);
                }
                exec.gemm(&x, &self.w)
            }
            OpOrder::UpdateFirst => {
                let mut x = exec.gemm(h, &self.w)?;
                for _ in 0..self.cfg.hops {
                    x = propagate(exec, ctx, prepared, norm, &x)?;
                }
                Ok(x)
            }
        }
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
    fn hop_count_controls_spmm_count() {
        let g = generators::ring(10).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(10, 4, 1.0, 1);
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        for hops in [1usize, 2, 3] {
            let layer = Sgc::new(
                LayerConfig {
                    k_in: 4,
                    k_out: 4,
                    hops,
                },
                2,
            );
            let p = prepare_norm(&exec, &ctx, NormStrategy::Precompute).unwrap();
            engine.take_profile();
            layer
                .forward(
                    &exec,
                    &ctx,
                    &p,
                    &h,
                    NormStrategy::Precompute,
                    OpOrder::AggregateFirst,
                )
                .unwrap();
            let spmms = engine
                .take_profile()
                .entries
                .iter()
                .filter(|e| e.kind == PrimitiveKind::SpmmWeighted)
                .count();
            assert_eq!(spmms, hops);
        }
    }

    #[test]
    fn all_four_compositions_agree() {
        let g = generators::power_law(30, 3, 4).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(30, 5, 1.0, 6);
        let layer = Sgc::new(
            LayerConfig {
                k_in: 5,
                k_out: 3,
                hops: 2,
            },
            7,
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
            assert!(o.max_abs_diff(&outs[0]).unwrap() < 1e-4);
        }
    }
}
