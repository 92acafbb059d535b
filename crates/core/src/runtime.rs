//! The online runtime stage (paper §IV, Fig 5 right half).
//!
//! Given the compiled plan, the concrete input graph, and the embedding
//! sizes, the runtime featurizes the input, evaluates the eligible
//! candidates' costs with the per-primitive models, and selects the cheapest
//! composition. Featurization and selection wall times are recorded — the
//! overheads reported in §VI-C1 ("at most 7 ms on GPU, 0.42 s on CPU,
//! incurred only once during runtime").

use std::time::Instant;

use granii_gnn::spec::Composition;
use granii_gnn::Exec;
use granii_graph::Graph;
use serde::{Deserialize, Serialize};

use crate::cost::{CostModelSet, FeaturizedInput};
use crate::execplan::{ExecPlan, PlanInputs};
use crate::plan::CompiledModel;
use crate::{CoreError, Result};

/// The outcome of one online selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// The chosen composition.
    pub composition: Composition,
    /// Predicted cost (seconds) per eligible candidate, cheapest first.
    pub predicted: Vec<(Composition, f64)>,
    /// Wall time of input featurization.
    pub featurize_seconds: f64,
    /// Wall time of candidate cost evaluation + argmin.
    pub select_seconds: f64,
    /// Whether the decision needed the cost models (false when a pure
    /// embedding-size condition resolved it — Fig 7's cheap branch).
    pub used_cost_models: bool,
}

impl Selection {
    /// The selected composition's short name.
    pub fn composition_name(&self) -> String {
        self.composition.name()
    }

    /// Total one-time selection overhead.
    pub fn overhead_seconds(&self) -> f64 {
        self.featurize_seconds + self.select_seconds
    }
}

/// The iteration count GRANII amortizes hoisted precomputation over by
/// default — the paper evaluates 100-iteration runs (§VI-C).
pub const DEFAULT_ITERATIONS: usize = 100;

/// Runs the online stage for one (graph, embedding-size) input. `iterations`
/// is the expected run length hoisted steps amortize over.
///
/// # Errors
///
/// Returns [`CoreError::NoCandidates`] if no candidate is eligible for the
/// sizes (cannot happen for plans compiled by this crate) and propagates
/// missing-cost-model errors.
pub fn select(
    plan: &CompiledModel,
    graph: &Graph,
    k1: usize,
    k2: usize,
    models: &CostModelSet,
    iterations: usize,
) -> Result<Selection> {
    let _span = granii_telemetry::span!(
        "select",
        model = plan.model.name(),
        nodes = graph.num_nodes(),
        k1 = k1,
        k2 = k2,
    );
    // Eligibility filtering is part of the one-time selection overhead
    // (§VI-C1), even when it resolves the choice outright.
    let t_eligible = Instant::now();
    let eligible = plan.eligible(k1, k2);
    let eligible_seconds = t_eligible.elapsed().as_secs_f64();
    if eligible.is_empty() {
        return Err(CoreError::NoCandidates {
            model: plan.model.name().into(),
        });
    }
    if eligible.len() == 1 {
        // Pure embedding-size condition: no featurization, no cost models.
        return Ok(Selection {
            composition: eligible[0].composition,
            predicted: vec![(eligible[0].composition, 0.0)],
            featurize_seconds: 0.0,
            select_seconds: eligible_seconds,
            used_cost_models: false,
        });
    }

    let t0 = Instant::now();
    let featurize_span = granii_telemetry::span!("select.featurize");
    let input = FeaturizedInput::extract(graph, k1, k2);
    drop(featurize_span);
    let featurize_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut predicted: Vec<(Composition, f64)> = Vec::with_capacity(eligible.len());
    {
        let _cost_span = granii_telemetry::span!("select.cost_eval", candidates = eligible.len());
        for cand in &eligible {
            let cost = models.predict_program(&cand.program, &input, iterations)?;
            predicted.push((cand.composition, cost));
        }
    }
    {
        let _argmin_span = granii_telemetry::span!("select.argmin");
        predicted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"));
    }
    let select_seconds = eligible_seconds + t1.elapsed().as_secs_f64();

    Ok(Selection {
        composition: predicted[0].0,
        predicted,
        featurize_seconds,
        select_seconds,
        used_cost_models: true,
    })
}

/// Phase breakdown of running a selected composition through the
/// compile-once engine: one-time plan build + bind (including the hoisted
/// precompute), then steady-state iterations that must not allocate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteadyStateReport {
    /// The composition that was run.
    pub composition: Composition,
    /// Canonical expression of its program.
    pub expr: String,
    /// Wall time of [`ExecPlan::build`] (lowering each step to an
    /// instruction).
    pub build_seconds: f64,
    /// Wall time of [`ExecPlan::bind`] (shape inference, slot assignment,
    /// buffer allocation, and the hoisted setup run).
    pub bind_seconds: f64,
    /// Wall time of the first (warm-up) iteration.
    pub warmup_seconds: f64,
    /// Wall time of all steady-state iterations after warm-up.
    pub steady_seconds: f64,
    /// Number of steady-state iterations timed.
    pub steady_iterations: usize,
    /// Fresh kernel buffers ([`granii_matrix::buffer_allocations`])
    /// allocated across the steady-state iterations; the compile-once
    /// contract keeps it at 0. The count is process-wide, so it also
    /// includes buffers other threads allocate meanwhile.
    pub steady_allocations: u64,
}

impl SteadyStateReport {
    /// One-time cost paid before the first steady-state iteration.
    pub fn setup_seconds(&self) -> f64 {
        self.build_seconds + self.bind_seconds + self.warmup_seconds
    }

    /// Mean steady-state iteration wall time.
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.steady_iterations == 0 {
            0.0
        } else {
            self.steady_seconds / self.steady_iterations as f64
        }
    }
}

/// Runs `composition`'s program through the compile-once engine: builds and
/// binds its [`ExecPlan`], runs one warm-up iteration, then times
/// `iterations - 1` steady-state iterations, reporting the phase split and
/// the fresh kernel buffers allocated across the steady phase.
///
/// # Errors
///
/// Returns [`CoreError::InvalidIr`] if `composition` is not one of `plan`'s
/// candidates and propagates build/bind/kernel errors.
pub fn run_steady_state(
    exec: &Exec,
    plan: &CompiledModel,
    composition: Composition,
    inputs: &PlanInputs,
    iterations: usize,
) -> Result<SteadyStateReport> {
    let candidate = plan
        .candidates
        .iter()
        .find(|c| c.composition == composition)
        .ok_or_else(|| {
            CoreError::InvalidIr(format!(
                "composition {composition} is not a candidate of {}",
                plan.model.name()
            ))
        })?;
    let t_build = Instant::now();
    let exec_plan = ExecPlan::build(&candidate.program)?;
    let build_seconds = t_build.elapsed().as_secs_f64();

    let t_bind = Instant::now();
    let mut bound = exec_plan.bind(exec, &inputs.as_program_inputs())?;
    let bind_seconds = t_bind.elapsed().as_secs_f64();

    let t_warmup = Instant::now();
    bound.iterate(exec)?;
    let warmup_seconds = t_warmup.elapsed().as_secs_f64();

    let allocs_before = granii_matrix::buffer_allocations();
    let steady_iterations = iterations.saturating_sub(1);
    let t_steady = Instant::now();
    for _ in 0..steady_iterations {
        bound.iterate(exec)?;
    }
    let steady_seconds = t_steady.elapsed().as_secs_f64();
    let steady_allocations = granii_matrix::buffer_allocations() - allocs_before;

    Ok(SteadyStateReport {
        composition,
        expr: exec_plan.expr().to_string(),
        build_seconds,
        bind_seconds,
        warmup_seconds,
        steady_seconds,
        steady_iterations,
        steady_allocations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::training::{self, TrainingConfig};
    use crate::plan::CompiledModel;
    use granii_gnn::spec::{Composition, GatStrategy, LayerConfig, ModelKind, NormStrategy};
    use granii_graph::datasets::{Dataset, Scale};
    use granii_matrix::device::DeviceKind;

    fn models(device: DeviceKind) -> CostModelSet {
        training::train(device, &TrainingConfig::fast()).unwrap()
    }

    #[test]
    fn selection_reports_costs_and_overheads() {
        let set = models(DeviceKind::H100);
        let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(64, 64)).unwrap();
        let g = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let sel = select(&plan, &g, 64, 64, &set, DEFAULT_ITERATIONS).unwrap();
        assert!(sel.used_cost_models);
        assert_eq!(sel.predicted.len(), 2);
        assert!(sel.predicted[0].1 <= sel.predicted[1].1);
        assert!(sel.overhead_seconds() >= 0.0);
    }

    #[test]
    fn single_candidate_scenarios_skip_cost_models() {
        let set = models(DeviceKind::H100);
        let plan = CompiledModel::compile(ModelKind::Gat, LayerConfig::new(256, 32)).unwrap();
        let g = Dataset::BelgiumOsm.load(Scale::Tiny).unwrap();
        let sel = select(&plan, &g, 256, 32, &set, DEFAULT_ITERATIONS).unwrap();
        assert!(!sel.used_cost_models);
        assert_eq!(sel.composition, Composition::Gat(GatStrategy::Reuse));
        // No featurization happens, but the eligibility filter itself is
        // timed and charged to the selection overhead.
        assert_eq!(sel.featurize_seconds, 0.0);
        assert!(sel.select_seconds > 0.0, "{sel:?}");
    }

    #[test]
    fn steady_state_report_splits_phases() {
        use granii_gnn::GraphCtx;
        use granii_graph::generators;
        use granii_matrix::device::Engine;
        use granii_matrix::DenseMatrix;

        let cfg = LayerConfig::new(8, 4);
        let plan = CompiledModel::compile(ModelKind::Gcn, cfg).unwrap();
        let g = generators::power_law(40, 4, 11).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(40, 8, 1.0, 12);
        let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h, 13);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let comp = plan.candidates[0].composition;
        let report = run_steady_state(&exec, &plan, comp, &inputs, 10).unwrap();
        assert_eq!(report.composition, comp);
        assert_eq!(report.steady_iterations, 9);
        assert!(report.setup_seconds() > 0.0);
        assert!(report.seconds_per_iteration() > 0.0);
        // Missing composition is a typed error.
        let gat = CompiledModel::compile(ModelKind::Gat, cfg).unwrap();
        let err = run_steady_state(&exec, &gat, comp, &inputs, 2).unwrap_err();
        assert!(matches!(err, CoreError::InvalidIr(_)), "{err}");
    }

    /// The paper's §III-A intuition must emerge from the learned models:
    /// dense graphs pick the dynamic normalization, sparse graphs pick the
    /// precompute composition (at widths where per-iteration work dominates
    /// kernel-launch overhead).
    #[test]
    fn gcn_choice_is_graph_dependent() {
        let set = models(DeviceKind::H100);
        let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(1024, 1024)).unwrap();
        let dense = Dataset::Mycielskian17.load(Scale::Small).unwrap();
        let sparse = Dataset::BelgiumOsm.load(Scale::Small).unwrap();
        let dense_sel = select(&plan, &dense, 1024, 1024, &set, DEFAULT_ITERATIONS).unwrap();
        let sparse_sel = select(&plan, &sparse, 1024, 1024, &set, DEFAULT_ITERATIONS).unwrap();
        let norm = |c: Composition| match c {
            Composition::Gcn(n, _) => n,
            other => panic!("unexpected {other}"),
        };
        assert_eq!(
            norm(sparse_sel.composition),
            NormStrategy::Precompute,
            "{sparse_sel:?}"
        );
        assert_eq!(
            norm(dense_sel.composition),
            NormStrategy::Dynamic,
            "{dense_sel:?}"
        );
    }
}
