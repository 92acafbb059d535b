//! Multi-layer GNN models (paper §VI-F).
//!
//! "For a multi-layer GNN, GRANII can simply select the best composition for
//! each layer using its lightweight cost models" — a [`Model`] is a stack of
//! same-kind layers, each forwarded under its own composition.

use granii_matrix::DenseMatrix;

use crate::models::{GnnLayer, Prepared};
use crate::spec::{Composition, LayerConfig, ModelKind};
use crate::{Exec, GnnError, GraphCtx, Result};

/// A stack of [`GnnLayer`]s of one model kind.
///
/// # Example
///
/// ```
/// use granii_gnn::models::Model;
/// use granii_gnn::spec::{Composition, ModelKind};
/// use granii_gnn::{Exec, GraphCtx};
/// use granii_graph::generators;
/// use granii_matrix::device::{DeviceKind, Engine};
/// use granii_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), granii_gnn::GnnError> {
/// let graph = generators::ring(16)?;
/// let ctx = GraphCtx::new(&graph)?;
/// let engine = Engine::modeled(DeviceKind::H100);
/// let exec = Exec::real(&engine);
/// // 2-layer GCN: 8 -> 16 -> 4.
/// let model = Model::new(ModelKind::Gcn, &[8, 16, 4], 42)?;
/// let comps: Vec<_> = model
///     .layer_configs()
///     .iter()
///     .map(|_| Composition::all_for(ModelKind::Gcn)[0])
///     .collect();
/// let h = DenseMatrix::random(16, 8, 1.0, 1);
/// let out = model.forward(&exec, &ctx, &h, &comps)?;
/// assert_eq!(out.shape(), (16, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    kind: ModelKind,
    layers: Vec<GnnLayer>,
}

impl Model {
    /// Builds a model from the embedding-size chain `dims` (`dims.len() - 1`
    /// layers; `dims[0]` is the input feature width).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if fewer than two dims are given or
    /// any layer configuration is invalid.
    pub fn new(kind: ModelKind, dims: &[usize], seed: u64) -> Result<Self> {
        if dims.len() < 2 {
            return Err(GnnError::InvalidConfig(
                "a model needs at least one layer".into(),
            ));
        }
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| GnnLayer::new(kind, LayerConfig::new(w[0], w[1]), seed + i as u64))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { kind, layers })
    }

    /// The model kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Per-layer configurations, in forward order.
    pub fn layer_configs(&self) -> Vec<LayerConfig> {
        self.layers.iter().map(GnnLayer::config).collect()
    }

    /// The layers themselves.
    pub fn layers(&self) -> &[GnnLayer] {
        &self.layers
    }

    /// Runs the per-layer preparation for a composition assignment.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `comps.len() != num_layers()` or
    /// a composition belongs to a different model kind.
    pub fn prepare(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        comps: &[Composition],
    ) -> Result<Vec<Prepared>> {
        self.check_assignment(comps)?;
        self.layers
            .iter()
            .zip(comps)
            .map(|(layer, &comp)| layer.prepare(exec, ctx, comp))
            .collect()
    }

    /// Full forward pass: each layer under its assigned composition (layers
    /// are prepared internally; use [`Model::forward_prepared`] to amortize
    /// preparation across iterations).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        h: &DenseMatrix,
        comps: &[Composition],
    ) -> Result<DenseMatrix> {
        let prepared = self.prepare(exec, ctx, comps)?;
        self.forward_prepared(exec, ctx, &prepared, h, comps)
    }

    /// Forward pass with preparation artifacts from [`Model::prepare`].
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward_prepared(
        &self,
        exec: &Exec,
        ctx: &GraphCtx,
        prepared: &[Prepared],
        h: &DenseMatrix,
        comps: &[Composition],
    ) -> Result<DenseMatrix> {
        self.check_assignment(comps)?;
        let mut cur: Option<DenseMatrix> = None;
        for ((layer, prep), &comp) in self.layers.iter().zip(prepared).zip(comps) {
            cur = Some(layer.forward(exec, ctx, prep, cur.as_ref().unwrap_or(h), comp)?);
        }
        Ok(cur.expect("a model has at least one layer"))
    }

    fn check_assignment(&self, comps: &[Composition]) -> Result<()> {
        if comps.len() != self.layers.len() {
            return Err(GnnError::InvalidConfig(format!(
                "{} compositions for {} layers",
                comps.len(),
                self.layers.len()
            )));
        }
        for &c in comps {
            if c.model() != self.kind {
                return Err(GnnError::InvalidConfig(format!(
                    "composition {c} does not belong to model {}",
                    self.kind
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};

    #[test]
    fn multi_layer_forward_chains_shapes() {
        let g = generators::power_law(30, 3, 1).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        let model = Model::new(ModelKind::Gcn, &[6, 12, 8, 3], 9).unwrap();
        assert_eq!(model.num_layers(), 3);
        let comps: Vec<_> = model
            .layer_configs()
            .iter()
            .map(|_| Composition::all_for(ModelKind::Gcn)[2])
            .collect();
        let h = DenseMatrix::random(30, 6, 1.0, 2);
        let out = model.forward(&exec, &ctx, &h, &comps).unwrap();
        assert_eq!(out.shape(), (30, 3));
    }

    #[test]
    fn per_layer_compositions_can_differ_without_changing_output() {
        let g = generators::power_law(25, 4, 2).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let model = Model::new(ModelKind::Gcn, &[5, 7, 4], 3).unwrap();
        let all = Composition::all_for(ModelKind::Gcn);
        let h = DenseMatrix::random(25, 5, 1.0, 4);
        let a = model.forward(&exec, &ctx, &h, &[all[0], all[3]]).unwrap();
        let b = model.forward(&exec, &ctx, &h, &[all[2], all[1]]).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
    }

    #[test]
    fn assignment_validation() {
        let g = generators::ring(10).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let model = Model::new(ModelKind::Gcn, &[4, 4], 1).unwrap();
        let h = DenseMatrix::zeros(10, 4).unwrap();
        // Wrong count.
        assert!(model.forward(&exec, &ctx, &h, &[]).is_err());
        // Wrong model.
        let gat = Composition::all_for(ModelKind::Gat)[0];
        assert!(model.forward(&exec, &ctx, &h, &[gat]).is_err());
        // Too few dims.
        assert!(Model::new(ModelKind::Gcn, &[4], 1).is_err());
    }
}
