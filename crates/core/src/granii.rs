//! The top-level GRANII entry point (paper Fig 4: "Using GRANII").

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;

use crate::cost::training::{self, TrainingConfig};
use crate::cost::CostModelSet;
use crate::plan::CompiledModel;
use crate::runtime::{self, Selection};
use crate::Result;

/// Options controlling the one-time offline initialization (the paper's
/// "initialization script that gathers profiling data and trains its cost
/// models").
#[derive(Debug, Clone, Default)]
pub struct GraniiOptions {
    /// Profiling/training configuration.
    pub training: TrainingConfig,
}

impl GraniiOptions {
    /// Reduced profiling corpus for tests, examples, and quick starts.
    pub fn fast() -> Self {
        Self {
            training: TrainingConfig::fast(),
        }
    }
}

/// The GRANII compiler + runtime for one target device.
///
/// Construction runs the offline stage (profiling + cost-model training);
/// [`Granii::select`] runs the online stage per input. Compiled plans are
/// cached per (model, hops).
///
/// # Example
///
/// ```
/// use granii_core::{Granii, GraniiOptions};
/// use granii_gnn::spec::ModelKind;
/// use granii_graph::generators;
/// use granii_matrix::device::DeviceKind;
///
/// # fn main() -> Result<(), granii_core::CoreError> {
/// let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())?;
/// let graph = generators::power_law(500, 8, 42)?;
/// let decision = granii.select(ModelKind::Gcn, &graph, 64, 32)?;
/// println!("{}", decision.composition_name());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Granii {
    device: DeviceKind,
    cost_models: CostModelSet,
    plans: RwLock<BTreeMap<(ModelKind, usize), Arc<CompiledModel>>>,
}

impl Granii {
    /// Runs the offline stage for a device: builds the profiling corpus,
    /// trains the per-primitive cost models, and prepares the plan cache.
    ///
    /// # Errors
    ///
    /// Propagates profiling/training errors.
    pub fn train_for_device(device: DeviceKind, options: GraniiOptions) -> Result<Self> {
        let cost_models = training::train(device, &options.training)?;
        Ok(Self::with_cost_models(cost_models))
    }

    /// Builds a GRANII instance from already-trained cost models (e.g. loaded
    /// from the JSON the offline stage persisted).
    pub fn with_cost_models(cost_models: CostModelSet) -> Self {
        Self {
            device: cost_models.device(),
            cost_models,
            plans: RwLock::new(BTreeMap::new()),
        }
    }

    /// The target device.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// The trained cost models.
    pub fn cost_models(&self) -> &CostModelSet {
        &self.cost_models
    }

    /// The compiled plan for a model (offline compilation, cached per model
    /// and hop count).
    ///
    /// # Errors
    ///
    /// Returns an invalid-config error for zero sizes or hops — on every
    /// call, whether or not the plan is already cached — and propagates
    /// compilation errors.
    pub fn compiled(&self, model: ModelKind, cfg: LayerConfig) -> Result<Arc<CompiledModel>> {
        cfg.validate()?;
        let key = (model, cfg.hops);
        if let Some(plan) = self.plans.read().get(&key) {
            return Ok(plan.clone());
        }
        let plan = Arc::new(CompiledModel::compile(model, cfg)?);
        self.plans.write().insert(key, plan.clone());
        Ok(plan)
    }

    /// Online selection with the default hop count, amortizing hoisted work
    /// over [`runtime::DEFAULT_ITERATIONS`] iterations (the paper's run
    /// length).
    ///
    /// # Errors
    ///
    /// Propagates compilation/selection errors.
    pub fn select(
        &self,
        model: ModelKind,
        graph: &Graph,
        k1: usize,
        k2: usize,
    ) -> Result<Selection> {
        self.select_with_config(
            model,
            graph,
            LayerConfig::new(k1, k2),
            runtime::DEFAULT_ITERATIONS,
        )
    }

    /// Per-layer selection for a multi-layer model (§VI-F: "GRANII can simply
    /// select the best composition for each layer"). `dims` is the embedding
    /// chain (`dims.len() - 1` layers).
    ///
    /// # Errors
    ///
    /// Propagates compilation/selection errors; `dims` must describe at least
    /// one layer.
    pub fn select_model(
        &self,
        model: ModelKind,
        graph: &Graph,
        dims: &[usize],
        iterations: usize,
    ) -> Result<Vec<Selection>> {
        if dims.len() < 2 {
            return Err(crate::CoreError::InvalidIr(
                "a model needs at least one layer (two dims)".into(),
            ));
        }
        dims.windows(2)
            .map(|w| {
                self.select_with_config(model, graph, LayerConfig::new(w[0], w[1]), iterations)
            })
            .collect()
    }

    /// Audited selection: selects as [`Granii::select_with_config`] would,
    /// then deterministically re-measures every eligible candidate on this
    /// device's model, reporting per-decision regret (chosen vs.
    /// oracle-best) and the cost model's ln-latency error.
    ///
    /// # Errors
    ///
    /// Propagates compilation/selection/measurement errors.
    pub fn verify(
        &self,
        model: ModelKind,
        graph: &Graph,
        cfg: LayerConfig,
        iterations: usize,
    ) -> Result<crate::audit::VerifyReport> {
        let plan = self.compiled(model, cfg)?;
        crate::audit::verify(&plan, graph, cfg, &self.cost_models, iterations)
    }

    /// Online selection with an explicit layer configuration and expected
    /// iteration count.
    ///
    /// # Errors
    ///
    /// Propagates compilation/selection errors.
    pub fn select_with_config(
        &self,
        model: ModelKind,
        graph: &Graph,
        cfg: LayerConfig,
        iterations: usize,
    ) -> Result<Selection> {
        let plan = self.compiled(model, cfg)?;
        runtime::select(
            &plan,
            graph,
            cfg.k_in,
            cfg.k_out,
            &self.cost_models,
            iterations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::datasets::{Dataset, Scale};

    #[test]
    fn end_to_end_selection_for_every_model() {
        let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast()).unwrap();
        let g = Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap();
        for kind in ModelKind::EVAL {
            let sel = granii.select(kind, &g, 64, 128).unwrap();
            assert_eq!(sel.composition.model(), kind);
        }
    }

    #[test]
    fn plan_cache_returns_same_instance() {
        let granii = Granii::train_for_device(DeviceKind::Cpu, GraniiOptions::fast()).unwrap();
        let a = granii
            .compiled(ModelKind::Gcn, LayerConfig::new(8, 8))
            .unwrap();
        let b = granii
            .compiled(ModelKind::Gcn, LayerConfig::new(128, 2048))
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "same hops must share the compiled plan"
        );
        assert!(
            granii
                .compiled(ModelKind::Gcn, LayerConfig::new(8, 0))
                .is_err(),
            "a cached plan must not let an invalid config through"
        );
    }

    #[test]
    fn cost_models_round_trip_through_json() {
        let granii = Granii::train_for_device(DeviceKind::A100, GraniiOptions::fast()).unwrap();
        let json = granii.cost_models().to_json().unwrap();
        let restored = CostModelSet::from_json(&json).unwrap();
        let again = Granii::with_cost_models(restored);
        let g = Dataset::ComAmazon.load(Scale::Tiny).unwrap();
        let a = granii.select(ModelKind::Gcn, &g, 32, 32).unwrap();
        let b = again.select(ModelKind::Gcn, &g, 32, 32).unwrap();
        assert_eq!(a.composition, b.composition);
    }
}
