//! Executable GNN layers, one module per model, each implementing every
//! primitive composition of the paper's case study (§III).
//!
//! All compositions of a model compute the same function (up to fp rounding);
//! the integration tests assert this equivalence. The cost differences between
//! them — which GRANII's runtime selects on — come entirely from which
//! primitives run and at which widths.

mod gat;
mod gcn;
mod gin;
mod model;
mod sage;
mod sgc;
mod tagcn;

pub use gat::{Gat, GAT_SLOPE};
pub use gcn::Gcn;
pub use gin::{Gin, GIN_EPS};
pub use model::Model;
pub use sage::Sage;
pub use sgc::Sgc;
pub use tagcn::Tagcn;

use granii_matrix::ops::BroadcastOp;
use granii_matrix::{CsrMatrix, DenseMatrix, Semiring};

use crate::spec::{Composition, LayerConfig, ModelKind, NormStrategy};
use crate::{Exec, GnnError, GraphCtx, Result};

/// Composition-specific preprocessing artifacts, produced once per
/// (graph, composition) and reused across iterations.
///
/// The paper's precompute composition (Eq. 3) pays an SDDMM once to build the
/// normalized adjacency; that artifact lives here so the per-iteration loop
/// does not re-pay it.
#[derive(Debug, Clone, Default)]
pub struct Prepared {
    /// Precomputed normalized adjacency `Ñ = D^{-1/2} Ã D^{-1/2}`, when the
    /// composition uses [`crate::spec::NormStrategy::Precompute`].
    pub norm_adj: Option<CsrMatrix>,
}

/// A single-layer GNN model with its learned parameters.
///
/// The same parameters serve every composition of the model, so outputs are
/// comparable across compositions.
///
/// # Example
///
/// ```
/// use granii_gnn::models::GnnLayer;
/// use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
/// use granii_gnn::{Exec, GraphCtx};
/// use granii_matrix::device::{DeviceKind, Engine};
/// use granii_matrix::DenseMatrix;
/// use granii_graph::generators;
///
/// # fn main() -> Result<(), granii_gnn::GnnError> {
/// let graph = generators::ring(12)?;
/// let ctx = GraphCtx::new(&graph)?;
/// let engine = Engine::modeled(DeviceKind::H100);
/// let exec = Exec::real(&engine);
/// let layer = GnnLayer::new(ModelKind::Gcn, LayerConfig::new(8, 4), 42)?;
/// let h = DenseMatrix::random(12, 8, 1.0, 7);
/// let comp = Composition::all_for(ModelKind::Gcn)[0];
/// let prepared = layer.prepare(&exec, &ctx, comp)?;
/// let out = layer.forward(&exec, &ctx, &prepared, &h, comp)?;
/// assert_eq!(out.shape(), (12, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum GnnLayer {
    /// Graph Convolutional Network layer.
    Gcn(Gcn),
    /// Graph Isomorphism Network layer.
    Gin(Gin),
    /// Simple Graph Convolution layer.
    Sgc(Sgc),
    /// Topology-Adaptive GCN layer.
    Tagcn(Tagcn),
    /// Graph Attention Network layer.
    Gat(Gat),
    /// GraphSAGE (mean) layer.
    Sage(Sage),
}

impl GnnLayer {
    /// Creates a layer of the given kind with deterministic random parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for invalid layer configurations.
    pub fn new(kind: ModelKind, cfg: LayerConfig, seed: u64) -> Result<Self> {
        cfg.validate()?;
        Ok(match kind {
            ModelKind::Gcn => GnnLayer::Gcn(Gcn::new(cfg, seed)),
            ModelKind::Gin => GnnLayer::Gin(Gin::new(cfg, seed)),
            ModelKind::Sgc => GnnLayer::Sgc(Sgc::new(cfg, seed)),
            ModelKind::Tagcn => GnnLayer::Tagcn(Tagcn::new(cfg, seed)),
            ModelKind::Gat => GnnLayer::Gat(Gat::new(cfg, seed)),
            ModelKind::Sage => GnnLayer::Sage(Sage::new(cfg, seed)),
        })
    }

    /// The model kind.
    pub fn kind(&self) -> ModelKind {
        match self {
            GnnLayer::Gcn(_) => ModelKind::Gcn,
            GnnLayer::Gin(_) => ModelKind::Gin,
            GnnLayer::Sgc(_) => ModelKind::Sgc,
            GnnLayer::Tagcn(_) => ModelKind::Tagcn,
            GnnLayer::Gat(_) => ModelKind::Gat,
            GnnLayer::Sage(_) => ModelKind::Sage,
        }
    }

    /// The layer configuration.
    pub fn config(&self) -> LayerConfig {
        match self {
            GnnLayer::Gcn(m) => m.config(),
            GnnLayer::Gin(m) => m.config(),
            GnnLayer::Sgc(m) => m.config(),
            GnnLayer::Tagcn(m) => m.config(),
            GnnLayer::Gat(m) => m.config(),
            GnnLayer::Sage(m) => m.config(),
        }
    }

    /// Runs composition-specific one-time preprocessing (charged to the
    /// executor's engine).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `comp` belongs to a different
    /// model, and propagates kernel errors.
    pub fn prepare(&self, exec: &Exec, ctx: &GraphCtx, comp: Composition) -> Result<Prepared> {
        self.check_composition(comp)?;
        match comp {
            Composition::Gcn(norm, _) | Composition::Sgc(norm, _) | Composition::Tagcn(norm, _) => {
                prepare_norm(exec, ctx, norm)
            }
            _ => Ok(Prepared::default()),
        }
    }

    /// Runs one forward pass under the given composition.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::FeatureMismatch`] / [`GnnError::DimensionMismatch`]
    /// for shape problems, [`GnnError::InvalidConfig`] for a composition of
    /// the wrong model, and propagates kernel errors.
    pub fn forward(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        prepared: &Prepared,
        h: &DenseMatrix,
        comp: Composition,
    ) -> Result<DenseMatrix> {
        self.check_composition(comp)?;
        check_input(ctx, h, self.config())?;
        match (self, comp) {
            (GnnLayer::Gcn(m), Composition::Gcn(norm, order)) => {
                m.forward(exec, ctx, prepared, h, norm, order)
            }
            (GnnLayer::Gin(m), Composition::Gin(order)) => m.forward(exec, ctx, h, order),
            (GnnLayer::Sgc(m), Composition::Sgc(norm, order)) => {
                m.forward(exec, ctx, prepared, h, norm, order)
            }
            (GnnLayer::Tagcn(m), Composition::Tagcn(norm, order)) => {
                m.forward(exec, ctx, prepared, h, norm, order)
            }
            (GnnLayer::Gat(m), Composition::Gat(strategy)) => m.forward(exec, ctx, h, strategy),
            (GnnLayer::Sage(m), Composition::Sage(order)) => m.forward(exec, ctx, h, order),
            _ => unreachable!("check_composition validated the pairing"),
        }
    }

    fn check_composition(&self, comp: Composition) -> Result<()> {
        if comp.model() != self.kind() {
            return Err(GnnError::InvalidConfig(format!(
                "composition {comp} does not belong to model {}",
                self.kind()
            )));
        }
        Ok(())
    }
}

/// Validates the feature matrix against the graph and layer config.
pub(crate) fn check_input(ctx: &GraphCtx, h: &DenseMatrix, cfg: LayerConfig) -> Result<()> {
    if h.rows() != ctx.num_nodes() {
        return Err(GnnError::FeatureMismatch {
            nodes: ctx.num_nodes(),
            rows: h.rows(),
        });
    }
    if h.cols() != cfg.k_in {
        return Err(GnnError::DimensionMismatch {
            expected: cfg.k_in,
            got: h.cols(),
        });
    }
    Ok(())
}

/// One-time preprocessing of the GCN family's normalization: the
/// precompute strategy (Eq. 3) builds `Ñ = D^{-1/2} Ã D^{-1/2}` with an
/// SDDMM-style edge scaling; the dynamic strategy (Eq. 2) needs nothing.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn prepare_norm(exec: &Exec, ctx: &GraphCtx, norm: NormStrategy) -> Result<Prepared> {
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

/// One propagation step `Ñ · x` of the GCN family: two row broadcasts
/// around an SpMM over `Ã` (Eq. 2), or one SpMM over the `Ñ` that
/// [`prepare_norm`] built (Eq. 3).
///
/// # Panics
///
/// Under [`NormStrategy::Precompute`] if `prepared` holds no `Ñ`.
pub(crate) fn propagate(
    exec: &Exec,
    ctx: &GraphCtx,
    prepared: &Prepared,
    norm: NormStrategy,
    x: &DenseMatrix,
) -> Result<DenseMatrix> {
    let irr = ctx.irregularity();
    match norm {
        NormStrategy::Dynamic => {
            let d = ctx.deg_inv_sqrt();
            let scaled = exec.row_broadcast(d, x, BroadcastOp::Mul)?;
            // Unweighted graphs use the cheap copy_u aggregation; weighted
            // graphs must read edge values.
            let agg = exec.spmm(ctx.adj(), &scaled, ctx.sum_semiring(), irr)?;
            exec.row_broadcast(d, &agg, BroadcastOp::Mul)
        }
        NormStrategy::Precompute => {
            let norm_adj = prepared
                .norm_adj
                .as_ref()
                .expect("precompute composition requires prepared normalized adjacency");
            exec.spmm(norm_adj, x, Semiring::plus_mul(), irr)
        }
    }
}

/// A layer's ReLU epilogue.
pub(crate) fn relu(exec: &Exec, z: &DenseMatrix) -> Result<DenseMatrix> {
    exec.map(z, 1, |v| v.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};

    fn setup() -> (GraphCtx, Engine, DenseMatrix) {
        let g = generators::power_law(40, 3, 5).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::H100);
        let h = DenseMatrix::random(40, 8, 1.0, 3);
        (ctx, engine, h)
    }

    #[test]
    fn every_model_and_composition_runs() {
        let (ctx, engine, h) = setup();
        let exec = Exec::real(&engine);
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let layer = GnnLayer::new(kind, LayerConfig::new(8, 6), 1).unwrap();
            for comp in Composition::all_for(kind) {
                let prepared = layer.prepare(&exec, &ctx, comp).unwrap();
                let out = layer.forward(&exec, &ctx, &prepared, &h, comp).unwrap();
                assert_eq!(out.shape(), (40, 6), "{comp}");
                assert!(out.as_slice().iter().all(|v| v.is_finite()), "{comp}");
            }
        }
    }

    /// The core correctness property GRANII relies on: every composition of a
    /// model computes the same function.
    #[test]
    fn compositions_are_numerically_equivalent() {
        let (ctx, engine, h) = setup();
        let exec = Exec::real(&engine);
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Tagcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let layer = GnnLayer::new(kind, LayerConfig::new(8, 6), 2).unwrap();
            let comps = Composition::all_for(kind);
            let reference = {
                let p = layer.prepare(&exec, &ctx, comps[0]).unwrap();
                layer.forward(&exec, &ctx, &p, &h, comps[0]).unwrap()
            };
            for &comp in &comps[1..] {
                let p = layer.prepare(&exec, &ctx, comp).unwrap();
                let out = layer.forward(&exec, &ctx, &p, &h, comp).unwrap();
                let diff = out.max_abs_diff(&reference).unwrap();
                assert!(diff < 1e-3, "{comp} differs from {} by {diff}", comps[0]);
            }
        }
    }

    #[test]
    fn wrong_composition_is_rejected() {
        let (ctx, engine, h) = setup();
        let exec = Exec::real(&engine);
        let layer = GnnLayer::new(ModelKind::Gcn, LayerConfig::new(8, 6), 1).unwrap();
        let gat_comp = Composition::all_for(ModelKind::Gat)[0];
        assert!(layer.prepare(&exec, &ctx, gat_comp).is_err());
        assert!(layer
            .forward(&exec, &ctx, &Prepared::default(), &h, gat_comp)
            .is_err());
    }

    #[test]
    fn input_shape_is_validated() {
        let (ctx, engine, _) = setup();
        let exec = Exec::real(&engine);
        let layer = GnnLayer::new(ModelKind::Gcn, LayerConfig::new(8, 6), 1).unwrap();
        let comp = Composition::all_for(ModelKind::Gcn)[0];
        let p = layer.prepare(&exec, &ctx, comp).unwrap();
        let wrong_nodes = DenseMatrix::zeros(10, 8).unwrap();
        assert!(matches!(
            layer.forward(&exec, &ctx, &p, &wrong_nodes, comp),
            Err(GnnError::FeatureMismatch { .. })
        ));
        let wrong_width = DenseMatrix::zeros(40, 5).unwrap();
        assert!(matches!(
            layer.forward(&exec, &ctx, &p, &wrong_width, comp),
            Err(GnnError::DimensionMismatch {
                expected: 8,
                got: 5
            })
        ));
    }

    #[test]
    fn virtual_execution_produces_shapes_without_values() {
        let (ctx, engine, h) = setup();
        let exec = Exec::virtual_only(&engine);
        for kind in ModelKind::EVAL {
            let layer = GnnLayer::new(kind, LayerConfig::new(8, 6), 1).unwrap();
            for comp in Composition::all_for(kind) {
                let p = layer.prepare(&exec, &ctx, comp).unwrap();
                let out = layer.forward(&exec, &ctx, &p, &h, comp).unwrap();
                assert_eq!(out.shape(), (40, 6));
            }
        }
        assert!(engine.elapsed_seconds() > 0.0);
    }
}
