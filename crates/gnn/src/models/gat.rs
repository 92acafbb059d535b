//! Graph Attention Network (paper §III-B), single head.
//!
//! Attention stage (Eq. 4): `Θ = H·W`, per-node logits `ul = Θ·a_l`,
//! `vr = Θ·a_r`, per-edge score `e_ij = LeakyReLU(ul_i + vr_j)` (an SDDMM),
//! normalized by edge softmax into `α`.
//!
//! Aggregation stage: either **reuse** the already-computed `Θ` (Eq. 5,
//! aggregation at width `K2`) or **recompute** the update after aggregating
//! the raw features (Eq. 6, aggregation at width `K1` plus an extra GEMM) —
//! the two compositions whose crossover the paper analyzes.

use granii_matrix::{CsrMatrix, DenseMatrix, Semiring};

use crate::models::relu;
use crate::spec::{GatStrategy, LayerConfig};
use crate::{Exec, GraphCtx, Result};

/// Negative slope of the attention LeakyReLU (GAT's standard 0.2).
pub const GAT_SLOPE: f32 = 0.2;

/// A single-head GAT layer.
#[derive(Debug, Clone)]
pub struct Gat {
    cfg: LayerConfig,
    w: DenseMatrix,
    a_l: DenseMatrix,
    a_r: DenseMatrix,
}

impl Gat {
    /// Creates a layer with deterministic random weights.
    pub fn new(cfg: LayerConfig, seed: u64) -> Self {
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        let a_scale = (1.0 / cfg.k_out as f32).sqrt();
        Self {
            cfg,
            w: DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
            a_l: DenseMatrix::random(cfg.k_out, 1, a_scale, seed + 1),
            a_r: DenseMatrix::random(cfg.k_out, 1, a_scale, seed + 2),
        }
    }

    /// Layer configuration.
    pub fn config(&self) -> LayerConfig {
        self.cfg
    }

    /// The attention stage: returns `(Θ, α)` (Eq. 4).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn attention(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        h: &DenseMatrix,
    ) -> Result<(DenseMatrix, CsrMatrix)> {
        let irr = ctx.irregularity();
        let theta = exec.gemm(h, &self.w)?;
        let ul = exec.gemm(&theta, &self.a_l)?;
        let vr = exec.gemm(&theta, &self.a_r)?;
        let mut logits = exec.sddmm_u_add_v(ctx.adj(), ul.as_slice(), vr.as_slice(), irr)?;
        exec.map_csr_assign(&mut logits, |v| if v >= 0.0 { v } else { GAT_SLOPE * v })?;
        let alpha = exec.edge_softmax(&logits, irr)?;
        Ok((theta, alpha))
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
        strategy: GatStrategy,
    ) -> Result<DenseMatrix> {
        let irr = ctx.irregularity();
        let (theta, alpha) = self.attention(exec, ctx, h)?;
        let z = match strategy {
            // Eq. 5: α · Θ, width K2.
            GatStrategy::Reuse => exec.spmm(&alpha, &theta, Semiring::plus_mul(), irr)?,
            // Eq. 6: (α · H) · W, width K1 + one extra GEMM.
            GatStrategy::Recompute => {
                exec.gemm(&exec.spmm(&alpha, h, Semiring::plus_mul(), irr)?, &self.w)?
            }
        };
        relu(exec, &z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::PrimitiveKind;

    #[test]
    fn reuse_and_recompute_agree() {
        let g = generators::power_law(30, 3, 15).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(30, 4, 1.0, 16);
        let layer = Gat::new(LayerConfig::new(4, 6), 17);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let a = layer.forward(&exec, &ctx, &h, GatStrategy::Reuse).unwrap();
        let b = layer
            .forward(&exec, &ctx, &h, GatStrategy::Recompute)
            .unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn attention_rows_are_stochastic() {
        let g = generators::ring(10).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(10, 4, 1.0, 3);
        let layer = Gat::new(LayerConfig::new(4, 4), 5);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let (_, alpha) = layer.attention(&exec, &ctx, &h).unwrap();
        for i in 0..10 {
            let sum: f32 = alpha.row_values(i).unwrap().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn recompute_pays_extra_gemm_but_narrow_aggregation() {
        let g = generators::ring(20).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(20, 2, 1.0, 3);
        let layer = Gat::new(LayerConfig::new(2, 16), 5);
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);

        let count = |strategy| {
            layer.forward(&exec, &ctx, &h, strategy).unwrap();
            let p = engine.take_profile();
            let gemms = p
                .entries
                .iter()
                .filter(|e| e.kind == PrimitiveKind::Gemm)
                .count();
            let spmm_width = p
                .entries
                .iter()
                .find(|e| e.kind == PrimitiveKind::SpmmWeighted)
                .map(|e| e.stats.bytes_written / (20 * 4))
                .unwrap();
            (gemms, spmm_width)
        };
        let (reuse_gemms, reuse_width) = count(GatStrategy::Reuse);
        let (rec_gemms, rec_width) = count(GatStrategy::Recompute);
        assert_eq!(rec_gemms, reuse_gemms + 1);
        assert_eq!(reuse_width, 16);
        assert_eq!(rec_width, 2);
    }
}
