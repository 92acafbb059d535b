//! Baseline-system emulation: the *default* primitive compositions of
//! WiseGraph and DGL (paper §VI-B "Baseline Systems").
//!
//! The baselines matter to the evaluation only through which composition they
//! run and what per-iteration bookkeeping they pay:
//!
//! - **WiseGraph** applies the config-based (embedding-size) reordering of
//!   ref.\[17\] to every model, always recomputes GAT's update for increasing
//!   embedding sizes, and computes normalization degrees with a *binning*
//!   scatter-add whose atomic contention is pathological on dense graphs
//!   (§VI-C1) — every iteration.
//! - **DGL** uses dynamic normalization for the GCN family (recomputing
//!   degrees by a cheap scan every forward call, as `dgl.nn.GraphConv` really
//!   does), applies config-based reordering only to GCN, keeps GIN/SGC/TAGCN
//!   at aggregate-first, and always reuses GAT's updated embeddings.

use serde::{Deserialize, Serialize};

use granii_matrix::DenseMatrix;

use crate::models::{GnnLayer, Prepared};
use crate::spec::{Composition, GatStrategy, LayerConfig, ModelKind, NormStrategy, OpOrder};
use crate::{Exec, GraphCtx, Result};

/// The baseline GNN systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum System {
    /// WiseGraph (EuroSys '24) — the state-of-the-art baseline.
    WiseGraph,
    /// DGL v2.4 (PyTorch backend).
    Dgl,
}

impl System {
    /// Both systems, in the paper's presentation order.
    pub const ALL: [System; 2] = [System::WiseGraph, System::Dgl];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            System::WiseGraph => "wisegraph",
            System::Dgl => "dgl",
        }
    }

    /// The composition this system's available implementation runs by default
    /// for a model and layer configuration.
    pub fn default_composition(self, kind: ModelKind, cfg: LayerConfig) -> Composition {
        let config_order = if cfg.k_in > cfg.k_out {
            OpOrder::UpdateFirst
        } else {
            OpOrder::AggregateFirst
        };
        match (self, kind) {
            (System::WiseGraph, ModelKind::Gcn) => {
                Composition::Gcn(NormStrategy::Dynamic, config_order)
            }
            (System::WiseGraph, ModelKind::Sgc) => {
                Composition::Sgc(NormStrategy::Dynamic, config_order)
            }
            (System::WiseGraph, ModelKind::Tagcn) => {
                Composition::Tagcn(NormStrategy::Dynamic, config_order)
            }
            (System::WiseGraph, ModelKind::Gin) => Composition::Gin(config_order),
            (System::WiseGraph, ModelKind::Gat) => Composition::Gat(if cfg.k_in < cfg.k_out {
                GatStrategy::Recompute
            } else {
                GatStrategy::Reuse
            }),
            (System::WiseGraph, ModelKind::Sage) => Composition::Sage(config_order),
            (System::Dgl, ModelKind::Gcn) => Composition::Gcn(NormStrategy::Dynamic, config_order),
            (System::Dgl, ModelKind::Gin) => Composition::Gin(OpOrder::AggregateFirst),
            (System::Dgl, ModelKind::Sgc) => {
                Composition::Sgc(NormStrategy::Dynamic, OpOrder::AggregateFirst)
            }
            (System::Dgl, ModelKind::Tagcn) => {
                Composition::Tagcn(NormStrategy::Dynamic, OpOrder::AggregateFirst)
            }
            (System::Dgl, ModelKind::Gat) => Composition::Gat(GatStrategy::Reuse),
            (System::Dgl, ModelKind::Sage) => Composition::Sage(OpOrder::AggregateFirst),
        }
    }

    /// Whether the model's implementation in this system recomputes degree
    /// normalization every forward call, and how.
    fn normalization_path(self, kind: ModelKind) -> Option<NormPath> {
        let uses_norm = matches!(kind, ModelKind::Gcn | ModelKind::Sgc | ModelKind::Tagcn);
        if !uses_norm {
            return None;
        }
        Some(match self {
            System::WiseGraph => NormPath::Binning,
            System::Dgl => NormPath::Scan,
        })
    }
}

impl std::fmt::Display for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a baseline computes normalization degrees each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NormPath {
    /// WiseGraph's scatter-add binning (atomics; §VI-C1).
    Binning,
    /// DGL's row-pointer scan.
    Scan,
}

/// A model running under a baseline system's default choices.
///
/// # Example
///
/// ```
/// use granii_gnn::system::{BaselineRunner, System};
/// use granii_gnn::spec::{LayerConfig, ModelKind};
/// use granii_gnn::{Exec, GraphCtx};
/// use granii_graph::generators;
/// use granii_matrix::device::{DeviceKind, Engine};
/// use granii_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), granii_gnn::GnnError> {
/// let graph = generators::ring(10)?;
/// let ctx = GraphCtx::new(&graph)?;
/// let engine = Engine::modeled(DeviceKind::H100);
/// let exec = Exec::real(&engine);
/// let runner = BaselineRunner::new(System::Dgl, ModelKind::Gcn, LayerConfig::new(8, 4), 1, &exec, &ctx)?;
/// let h = DenseMatrix::random(10, 8, 1.0, 2);
/// let out = runner.iterate(&exec, &ctx, &h)?;
/// assert_eq!(out.shape(), (10, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BaselineRunner {
    system: System,
    layer: GnnLayer,
    comp: Composition,
    prepared: Prepared,
}

impl BaselineRunner {
    /// Builds the baseline: instantiates the layer, picks the system's default
    /// composition, and runs its preparation.
    ///
    /// # Errors
    ///
    /// Propagates layer construction/preparation errors.
    pub fn new(
        system: System,
        kind: ModelKind,
        cfg: LayerConfig,
        seed: u64,
        exec: &Exec,
        ctx: &GraphCtx,
    ) -> Result<Self> {
        let layer = GnnLayer::new(kind, cfg, seed)?;
        let comp = system.default_composition(kind, cfg);
        let prepared = layer.prepare(exec, ctx, comp)?;
        Ok(Self {
            system,
            layer,
            comp,
            prepared,
        })
    }

    /// The composition the baseline runs.
    pub fn composition(&self) -> Composition {
        self.comp
    }

    /// The wrapped layer (same parameters GRANII's runner uses, for output
    /// comparison).
    pub fn layer(&self) -> &GnnLayer {
        &self.layer
    }

    /// One baseline iteration: per-iteration normalization bookkeeping (the
    /// binning/scan degree computation plus the `d^{-1/2}` map) followed by
    /// the forward pass under the default composition.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn iterate(&self, exec: &Exec, ctx: &GraphCtx, h: &DenseMatrix) -> Result<DenseMatrix> {
        let _span = granii_telemetry::span!(
            "baseline.iterate",
            system = self.system.name(),
            model = self.layer.kind().name(),
            nodes = ctx.graph().num_nodes(),
        );
        self.charge_normalization(exec, ctx)?;
        self.layer.forward(exec, ctx, &self.prepared, h, self.comp)
    }

    /// Charges the per-iteration normalization work without running a forward
    /// (used by the training harness, which forwards through the tape).
    ///
    /// # Errors
    ///
    /// Propagates the allocation guard's error.
    pub fn charge_normalization(&self, exec: &Exec, ctx: &GraphCtx) -> Result<()> {
        if let Some(path) = self.system.normalization_path(self.layer.kind()) {
            let degs = match path {
                NormPath::Binning => exec.degrees_by_binning(ctx.adj()),
                NormPath::Scan => exec.degrees_by_scan(ctx.adj()),
            };
            // d^{-1/2} map over the nodes.
            let dm = DenseMatrix::from_vec(degs.len(), 1, degs).expect("length matches");
            exec.map(&dm, 2, |v| if v > 0.0 { 1.0 / v.sqrt() } else { 0.0 })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::{datasets::Dataset, datasets::Scale, generators};
    use granii_matrix::device::{DeviceKind, Engine};
    use granii_matrix::PrimitiveKind;

    #[test]
    fn config_based_reordering_follows_embedding_sizes() {
        let shrink = LayerConfig::new(256, 32);
        let grow = LayerConfig::new(32, 256);
        assert_eq!(
            System::WiseGraph.default_composition(ModelKind::Gcn, shrink),
            Composition::Gcn(NormStrategy::Dynamic, OpOrder::UpdateFirst)
        );
        assert_eq!(
            System::WiseGraph.default_composition(ModelKind::Gcn, grow),
            Composition::Gcn(NormStrategy::Dynamic, OpOrder::AggregateFirst)
        );
        // DGL does not reorder GIN/SGC.
        assert_eq!(
            System::Dgl.default_composition(ModelKind::Gin, shrink),
            Composition::Gin(OpOrder::AggregateFirst)
        );
        assert_eq!(
            System::Dgl.default_composition(ModelKind::Sgc, shrink),
            Composition::Sgc(NormStrategy::Dynamic, OpOrder::AggregateFirst)
        );
    }

    #[test]
    fn gat_defaults_differ_between_systems() {
        let grow = LayerConfig::new(32, 256);
        assert_eq!(
            System::WiseGraph.default_composition(ModelKind::Gat, grow),
            Composition::Gat(GatStrategy::Recompute)
        );
        assert_eq!(
            System::Dgl.default_composition(ModelKind::Gat, grow),
            Composition::Gat(GatStrategy::Reuse)
        );
    }

    #[test]
    fn wisegraph_charges_binning_every_iteration() {
        let g = generators::power_law(50, 4, 1).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::A100);
        let exec = Exec::real(&engine);
        let runner = BaselineRunner::new(
            System::WiseGraph,
            ModelKind::Gcn,
            LayerConfig::new(8, 8),
            1,
            &exec,
            &ctx,
        )
        .unwrap();
        engine.take_profile();
        let h = DenseMatrix::random(50, 8, 1.0, 2);
        runner.iterate(&exec, &ctx, &h).unwrap();
        runner.iterate(&exec, &ctx, &h).unwrap();
        let binnings = engine
            .take_profile()
            .entries
            .iter()
            .filter(|e| e.kind == PrimitiveKind::Binning)
            .count();
        assert_eq!(binnings, 2);
    }

    #[test]
    fn dgl_scans_instead_of_binning() {
        let g = generators::power_law(50, 4, 1).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::A100);
        let exec = Exec::real(&engine);
        let runner = BaselineRunner::new(
            System::Dgl,
            ModelKind::Gcn,
            LayerConfig::new(8, 8),
            1,
            &exec,
            &ctx,
        )
        .unwrap();
        engine.take_profile();
        let h = DenseMatrix::random(50, 8, 1.0, 2);
        runner.iterate(&exec, &ctx, &h).unwrap();
        let kinds: Vec<_> = engine
            .take_profile()
            .entries
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(!kinds.contains(&PrimitiveKind::Binning));
    }

    #[test]
    fn gin_pays_no_normalization() {
        let g = generators::ring(20).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::H100);
        let exec = Exec::real(&engine);
        let runner = BaselineRunner::new(
            System::WiseGraph,
            ModelKind::Gin,
            LayerConfig::new(4, 4),
            1,
            &exec,
            &ctx,
        )
        .unwrap();
        engine.take_profile();
        let h = DenseMatrix::random(20, 4, 1.0, 2);
        runner.iterate(&exec, &ctx, &h).unwrap();
        let kinds: Vec<_> = engine
            .take_profile()
            .entries
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(!kinds.contains(&PrimitiveKind::Binning));
    }

    /// The §VI-C1 observation end-to-end: on a dense graph, WiseGraph's GCN
    /// iteration is dominated by binning on the A100, and a precompute
    /// composition that avoids it is much faster.
    #[test]
    fn binning_dominates_on_dense_graphs_a100() {
        let g = Dataset::Mycielskian17.load(Scale::Tiny).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::A100);
        let exec = Exec::virtual_only(&engine);
        let cfg = LayerConfig::new(32, 32);
        let h = DenseMatrix::zeros(ctx.num_nodes(), 32).unwrap();

        let runner =
            BaselineRunner::new(System::WiseGraph, ModelKind::Gcn, cfg, 1, &exec, &ctx).unwrap();
        engine.take_profile();
        runner.iterate(&exec, &ctx, &h).unwrap();
        let baseline = engine.take_profile().total_seconds();

        let layer = GnnLayer::new(ModelKind::Gcn, cfg, 1).unwrap();
        let comp = Composition::Gcn(NormStrategy::Precompute, OpOrder::AggregateFirst);
        let p = layer.prepare(&exec, &ctx, comp).unwrap();
        engine.take_profile();
        layer.forward(&exec, &ctx, &p, &h, comp).unwrap();
        let granii = engine.take_profile().total_seconds();
        assert!(
            baseline > 2.0 * granii,
            "baseline {baseline} vs granii {granii}"
        );
    }
}
