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

use granii_matrix::{CsrMatrix, DenseMatrix, Semiring, Workspace};

use crate::models::relu_ws;
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
        let mut ws = Workspace::new();
        self.attention_ws(exec, ctx, h, &mut ws)
    }

    /// [`Gat::attention`] with all intermediates drawn from (and recycled
    /// into) the caller's workspace. The returned `(Θ, α)` buffers are owned
    /// by the caller; hand them back with [`Workspace::give_dense`] /
    /// [`Workspace::give_csr`] to keep the steady state allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn attention_ws(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        h: &DenseMatrix,
        ws: &mut Workspace,
    ) -> Result<(DenseMatrix, CsrMatrix)> {
        let irr = ctx.irregularity();
        let n = h.rows();
        let mut theta = ws.take_dense(n, self.cfg.k_out)?;
        exec.gemm_into(h, &self.w, &mut theta)?;
        let mut ul = ws.take_dense(n, 1)?;
        exec.gemm_into(&theta, &self.a_l, &mut ul)?;
        let mut vr = ws.take_dense(n, 1)?;
        exec.gemm_into(&theta, &self.a_r, &mut vr)?;
        let mut logits = ws.take_csr_like(ctx.adj())?;
        exec.sddmm_u_add_v_into(ctx.adj(), ul.as_slice(), vr.as_slice(), irr, &mut logits)?;
        ws.give_dense(ul);
        ws.give_dense(vr);
        exec.map_csr_assign(&mut logits, |v| if v >= 0.0 { v } else { GAT_SLOPE * v })?;
        let mut alpha = ws.take_csr_like(ctx.adj())?;
        exec.edge_softmax_into(&logits, irr, &mut alpha)?;
        ws.give_csr(logits);
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
        let mut ws = Workspace::new();
        self.forward_ws(exec, ctx, h, strategy, &mut ws)
    }

    /// [`Gat::forward`] with all intermediates drawn from (and recycled into)
    /// the caller's workspace; identical charges, bitwise-identical output.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn forward_ws(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        h: &DenseMatrix,
        strategy: GatStrategy,
        ws: &mut Workspace,
    ) -> Result<DenseMatrix> {
        let irr = ctx.irregularity();
        let n = h.rows();
        let (theta, alpha) = self.attention_ws(exec, ctx, h, ws)?;
        let z = match strategy {
            GatStrategy::Reuse => {
                // Eq. 5: α · Θ, width K2.
                let mut z = ws.take_dense(n, self.cfg.k_out)?;
                exec.spmm_into(&alpha, &theta, Semiring::plus_mul(), irr, &mut z)?;
                z
            }
            GatStrategy::Recompute => {
                // Eq. 6: (α · H) · W, width K1 + one extra GEMM.
                let mut agg = ws.take_dense(n, h.cols())?;
                exec.spmm_into(&alpha, h, Semiring::plus_mul(), irr, &mut agg)?;
                let mut z = ws.take_dense(n, self.cfg.k_out)?;
                exec.gemm_into(&agg, &self.w, &mut z)?;
                ws.give_dense(agg);
                z
            }
        };
        ws.give_dense(theta);
        ws.give_csr(alpha);
        relu_ws(exec, z, ws)
    }
}

/// A multi-head GAT layer (the standard GAT formulation; the paper's
/// evaluation uses a single head, so this is an extension feature). Each head
/// runs the full attention + aggregation pipeline at width
/// `k_out / num_heads`; head outputs are concatenated.
#[derive(Debug, Clone)]
pub struct MultiHeadGat {
    cfg: LayerConfig,
    heads: Vec<Gat>,
}

impl MultiHeadGat {
    /// Creates a layer with `num_heads` independent heads.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GnnError::InvalidConfig`] if `num_heads` is zero or
    /// does not divide `k_out`.
    pub fn new(cfg: LayerConfig, num_heads: usize, seed: u64) -> Result<Self> {
        if num_heads == 0 || !cfg.k_out.is_multiple_of(num_heads) {
            return Err(crate::GnnError::InvalidConfig(format!(
                "num_heads {num_heads} must divide k_out {}",
                cfg.k_out
            )));
        }
        let head_cfg = LayerConfig {
            k_out: cfg.k_out / num_heads,
            ..cfg
        };
        let heads = (0..num_heads)
            .map(|i| Gat::new(head_cfg, seed + 101 * i as u64))
            .collect();
        Ok(Self { cfg, heads })
    }

    /// Layer configuration (full concatenated output width).
    pub fn config(&self) -> LayerConfig {
        self.cfg
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// One forward pass; every head uses the same aggregation strategy (a
    /// per-head strategy choice would be a straightforward extension of the
    /// plan compiler).
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
        let mut out: Option<DenseMatrix> = None;
        for head in &self.heads {
            let part = head.forward(exec, ctx, h, strategy)?;
            out = Some(match out {
                None => part,
                Some(acc) => acc.hstack(&part)?,
            });
        }
        Ok(out.expect("at least one head"))
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
    fn multi_head_concatenates_heads() {
        let g = generators::power_law(20, 3, 1).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(20, 6, 1.0, 2);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let layer = MultiHeadGat::new(LayerConfig::new(6, 8), 4, 3).unwrap();
        assert_eq!(layer.num_heads(), 4);
        let out = layer.forward(&exec, &ctx, &h, GatStrategy::Reuse).unwrap();
        assert_eq!(out.shape(), (20, 8));
        // Strategies agree for multi-head too.
        let out2 = layer
            .forward(&exec, &ctx, &h, GatStrategy::Recompute)
            .unwrap();
        assert!(out.max_abs_diff(&out2).unwrap() < 1e-4);
    }

    #[test]
    fn single_head_matches_plain_gat() {
        let g = generators::ring(15).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(15, 4, 1.0, 2);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let multi = MultiHeadGat::new(LayerConfig::new(4, 6), 1, 9).unwrap();
        let single = Gat::new(LayerConfig::new(4, 6), 9);
        let a = multi.forward(&exec, &ctx, &h, GatStrategy::Reuse).unwrap();
        let b = single.forward(&exec, &ctx, &h, GatStrategy::Reuse).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn multi_head_validates_divisibility() {
        assert!(MultiHeadGat::new(LayerConfig::new(4, 7), 2, 1).is_err());
        assert!(MultiHeadGat::new(LayerConfig::new(4, 8), 0, 1).is_err());
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
