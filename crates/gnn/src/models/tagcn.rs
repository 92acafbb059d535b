//! Topology-Adaptive Graph Convolutional Network (Du et al.).
//!
//! `H' = σ( Σ_{k=0}^{K} Ñ^k · H · W_k )` with per-hop weight matrices. The
//! aggregate-first composition propagates at input width `K1` and pays one
//! GEMM per hop; the update-first composition uses a Horner-style evaluation
//! `Ñ·(…Ñ·(H·W_K) + H·W_{K-1}…) + H·W_0` that propagates at output width `K2`
//! — cheaper exactly when `K2 < K1`.

use granii_matrix::ops::BroadcastOp;
use granii_matrix::{DenseMatrix, Semiring, Workspace};

use crate::models::{relu_ws, Prepared};
use crate::spec::{LayerConfig, NormStrategy, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// A single TAGCN layer with `cfg.hops + 1` weight matrices.
#[derive(Debug, Clone)]
pub struct Tagcn {
    cfg: LayerConfig,
    ws: Vec<DenseMatrix>,
}

impl Tagcn {
    /// Creates a layer with deterministic random per-hop weights.
    pub fn new(cfg: LayerConfig, seed: u64) -> Self {
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        let ws = (0..=cfg.hops)
            .map(|k| DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + k as u64))
            .collect();
        Self { cfg, ws }
    }

    /// Layer configuration.
    pub fn config(&self) -> LayerConfig {
        self.cfg
    }

    /// One-time preprocessing (precompute strategy builds `Ñ`).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn prepare(&self, exec: &Exec, ctx: &GraphCtx, norm: NormStrategy) -> Result<Prepared> {
        match norm {
            NormStrategy::Dynamic => Ok(Prepared::default()),
            NormStrategy::Precompute => {
                let d = ctx.deg_inv_sqrt();
                let norm_adj = exec.scale_csr(Some(d), ctx.adj(), Some(d), ctx.irregularity())?;
                Ok(Prepared {
                    norm_adj: Some(norm_adj),
                })
            }
        }
    }

    /// One `Ñ · x` propagation step into a workspace buffer.
    fn hop_ws(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        prepared: &Prepared,
        norm: NormStrategy,
        x: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix> {
        let n = x.rows();
        match norm {
            NormStrategy::Dynamic => {
                let d = ctx.deg_inv_sqrt();
                let mut t = ws.take_dense(n, x.cols())?;
                exec.row_broadcast_into(d, x, BroadcastOp::Mul, &mut t)?;
                let mut u = ws.take_dense(n, x.cols())?;
                exec.spmm_into(
                    ctx.adj(),
                    &t,
                    ctx.sum_semiring(),
                    ctx.irregularity(),
                    &mut u,
                )?;
                exec.row_broadcast_into(d, &u, BroadcastOp::Mul, &mut t)?;
                ws.give_dense(u);
                Ok(t)
            }
            NormStrategy::Precompute => {
                let norm_adj = prepared
                    .norm_adj
                    .as_ref()
                    .expect("precompute composition requires prepared adjacency");
                let mut t = ws.take_dense(n, x.cols())?;
                exec.spmm_into(
                    norm_adj,
                    x,
                    Semiring::plus_mul(),
                    ctx.irregularity(),
                    &mut t,
                )?;
                Ok(t)
            }
        }
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
        prepared: &Prepared,
        h: &DenseMatrix,
        norm: NormStrategy,
        order: OpOrder,
    ) -> Result<DenseMatrix> {
        let mut ws = Workspace::new();
        self.forward_ws(exec, ctx, prepared, h, norm, order, &mut ws)
    }

    /// [`Tagcn::forward`] with all intermediates drawn from (and recycled
    /// into) the caller's workspace; identical charges, bitwise-identical
    /// output.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_ws(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        prepared: &Prepared,
        h: &DenseMatrix,
        norm: NormStrategy,
        order: OpOrder,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix> {
        let n = h.rows();
        let acc = match order {
            OpOrder::AggregateFirst => {
                // acc = Σ_k (Ñ^k H) W_k, propagating at width K1.
                let mut acc = ws.take_dense(n, self.cfg.k_out)?;
                exec.gemm_into(h, &self.ws[0], &mut acc)?;
                let mut cur: Option<DenseMatrix> = None;
                for wk in &self.ws[1..] {
                    let next =
                        self.hop_ws(exec, ctx, prepared, norm, cur.as_ref().unwrap_or(h), ws)?;
                    if let Some(old) = cur.replace(next) {
                        ws.give_dense(old);
                    }
                    let mut term = ws.take_dense(n, self.cfg.k_out)?;
                    exec.gemm_into(cur.as_ref().expect("just propagated"), wk, &mut term)?;
                    exec.zip_assign(&mut acc, &term, 1, |a, b| a + b)?;
                    ws.give_dense(term);
                }
                if let Some(old) = cur {
                    ws.give_dense(old);
                }
                acc
            }
            OpOrder::UpdateFirst => {
                // Horner: acc = H·W_K; for k = K-1..0: acc = Ñ·acc + H·W_k.
                let mut acc = ws.take_dense(n, self.cfg.k_out)?;
                exec.gemm_into(h, &self.ws[self.cfg.hops], &mut acc)?;
                for k in (0..self.cfg.hops).rev() {
                    let prop = self.hop_ws(exec, ctx, prepared, norm, &acc, ws)?;
                    let mut term = ws.take_dense(n, self.cfg.k_out)?;
                    exec.gemm_into(h, &self.ws[k], &mut term)?;
                    exec.zip_into(&prop, &term, 1, |a, b| a + b, &mut acc)?;
                    ws.give_dense(prop);
                    ws.give_dense(term);
                }
                acc
            }
        };
        relu_ws(exec, acc, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let p = layer.prepare(&exec, &ctx, norm).unwrap();
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
        let p = layer
            .prepare(&exec, &ctx, NormStrategy::Precompute)
            .unwrap();
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
        assert_eq!(layer.ws.len(), 2);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let p = layer.prepare(&exec, &ctx, NormStrategy::Dynamic).unwrap();
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
