//! Measurement core: baseline runs, per-composition ground truth, and GRANII
//! runs for one grid cell.

use granii_core::execplan::PlanInputs;
use granii_core::plan::CompiledModel;
use granii_core::runtime::{run_steady_state, SteadyStateReport};
use granii_core::{CoreError, Granii};
use granii_gnn::models::GnnLayer;
use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::system::BaselineRunner;
use granii_gnn::train::Trainer;
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::{DeviceKind, Engine, Profile};
use granii_matrix::DenseMatrix;

use crate::grid::{EvalConfig, Mode, Record};

/// Run length of the paper's main evaluation (§VI-C: 100 iterations).
pub const ITERATIONS: usize = 100;

/// Deterministic seed for layer parameters across all runs.
const SEED: u64 = 7;

/// Measures one grid cell. `graph` must be the dataset of `cfg` (the caller
/// caches loaded graphs), and `granii` must be trained for `cfg.device`.
///
/// # Errors
///
/// Propagates layer, selection, and kernel errors.
pub fn evaluate_config(
    cfg: &EvalConfig,
    graph: &Graph,
    granii: &Granii,
) -> Result<Record, CoreError> {
    assert_eq!(
        granii.device(),
        cfg.device,
        "cost models must match the device"
    );
    let _span = granii_telemetry::span!(
        "bench.evaluate_config",
        system = cfg.system.name(),
        model = cfg.model.name(),
        device = cfg.device.name(),
        k1 = cfg.k1,
        k2 = cfg.k2,
    );
    let ctx = GraphCtx::new(graph)?;
    let layer_cfg = LayerConfig::new(cfg.k1, cfg.k2);
    let engine = Engine::modeled(cfg.device);
    let exec = Exec::virtual_only(&engine);
    let h = DenseMatrix::zeros(ctx.num_nodes(), cfg.k1)?;
    let target = DenseMatrix::zeros(ctx.num_nodes(), cfg.k2)?;

    // Baseline: the system's default composition plus its per-iteration
    // normalization path.
    let baseline = BaselineRunner::new(cfg.system, cfg.model, layer_cfg, SEED, &exec, &ctx)?;
    let baseline_prepare = engine.take_profile().total_seconds();
    let per_iter = match cfg.mode {
        Mode::Inference => {
            baseline.iterate(&exec, &ctx, &h)?;
            engine.take_profile().total_seconds()
        }
        Mode::Training => {
            let mut trainer = Trainer::new(cfg.model, layer_cfg, SEED, 0.01)?;
            baseline.charge_normalization(&exec, &ctx)?;
            trainer.step(&exec, &ctx, &h, &target, baseline.composition())?;
            engine.take_profile().total_seconds()
        }
    };
    let baseline_seconds = baseline_prepare + ITERATIONS as f64 * per_iter;

    // Ground truth per composition, under GRANII's generated code (degree
    // normalization hoisted, preparation charged once).
    let mut composition_seconds = Vec::new();
    for comp in Composition::all_for(cfg.model) {
        let seconds = time_composition(cfg, &ctx, &engine, comp, &h, &target)?;
        composition_seconds.push((comp, seconds));
    }
    composition_seconds.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));

    // GRANII: one online selection, then the chosen composition.
    let selection = granii.select_with_config(cfg.model, graph, layer_cfg, ITERATIONS)?;
    let chosen_seconds = composition_seconds
        .iter()
        .find(|(c, _)| *c == selection.composition)
        .map(|(_, s)| *s)
        .expect("selected composition was timed");
    let overhead_seconds = selection.overhead_seconds();

    Ok(Record {
        config: *cfg,
        baseline_composition: baseline.composition(),
        baseline_seconds,
        composition_seconds,
        granii_composition: selection.composition,
        granii_seconds: chosen_seconds + overhead_seconds,
        overhead_seconds,
        used_cost_models: selection.used_cost_models,
    })
}

/// Times one composition for a full run (preparation once + scaled
/// iterations).
fn time_composition(
    cfg: &EvalConfig,
    ctx: &GraphCtx,
    engine: &Engine,
    comp: Composition,
    h: &DenseMatrix,
    target: &DenseMatrix,
) -> Result<f64, CoreError> {
    let exec = Exec::virtual_only(engine);
    let layer_cfg = LayerConfig::new(cfg.k1, cfg.k2);
    engine.take_profile();
    match cfg.mode {
        Mode::Inference => {
            let layer = GnnLayer::new(cfg.model, layer_cfg, SEED)?;
            let prepared = layer.prepare(&exec, ctx, comp)?;
            let prep = engine.take_profile().total_seconds();
            layer.forward(&exec, ctx, &prepared, h, comp)?;
            let per_iter = engine.take_profile().total_seconds();
            Ok(prep + ITERATIONS as f64 * per_iter)
        }
        Mode::Training => {
            let mut trainer = Trainer::new(cfg.model, layer_cfg, SEED, 0.01)?;
            trainer.step(&exec, ctx, h, target, comp)?;
            let per_iter = engine.take_profile().total_seconds();
            Ok(ITERATIONS as f64 * per_iter)
        }
    }
}

/// Runs `composition` for one grid cell through the compile-once engine and
/// reports the plan-build / bind / warm-up / steady-state phase split
/// (real-arithmetic kernels on the modeled device; wall times are host
/// times, charges follow the device model).
///
/// # Errors
///
/// Propagates compile, plan-build, and kernel errors.
pub fn steady_state_report(
    cfg: &EvalConfig,
    graph: &Graph,
    composition: Composition,
) -> Result<SteadyStateReport, CoreError> {
    let ctx = GraphCtx::new(graph)?;
    let layer_cfg = LayerConfig::new(cfg.k1, cfg.k2);
    let plan = CompiledModel::compile(cfg.model, layer_cfg)?;
    let h = DenseMatrix::random(ctx.num_nodes(), cfg.k1, 1.0, SEED);
    let inputs = PlanInputs::for_model(cfg.model, layer_cfg, &ctx, h, SEED);
    let engine = Engine::modeled(cfg.device);
    let exec = Exec::real(&engine);
    run_steady_state(&exec, &plan, composition, &inputs, ITERATIONS)
}

/// Profiles one baseline GCN iteration and returns the sparse/dense runtime
/// split (Figure 2's breakdown).
///
/// # Errors
///
/// Propagates layer errors.
pub fn sparse_dense_breakdown(
    graph: &Graph,
    k1: usize,
    k2: usize,
    device: DeviceKind,
) -> Result<Profile, CoreError> {
    let ctx = GraphCtx::new(graph)?;
    let engine = Engine::modeled(device);
    let exec = Exec::virtual_only(&engine);
    let runner = BaselineRunner::new(
        granii_gnn::system::System::Dgl,
        ModelKind::Gcn,
        LayerConfig::new(k1, k2),
        SEED,
        &exec,
        &ctx,
    )?;
    engine.take_profile();
    let h = DenseMatrix::zeros(ctx.num_nodes(), k1)?;
    runner.iterate(&exec, &ctx, &h)?;
    Ok(engine.take_profile())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Mode;
    use granii_core::GraniiOptions;
    use granii_gnn::system::System;
    use granii_graph::datasets::{Dataset, Scale};

    fn granii(device: DeviceKind) -> Granii {
        Granii::train_for_device(device, GraniiOptions::fast()).unwrap()
    }

    #[test]
    fn record_is_internally_consistent() {
        let g = granii(DeviceKind::H100);
        let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let cfg = EvalConfig {
            system: System::WiseGraph,
            device: DeviceKind::H100,
            model: ModelKind::Gcn,
            dataset: Dataset::Reddit,
            k1: 64,
            k2: 64,
            mode: Mode::Inference,
        };
        let rec = evaluate_config(&cfg, &graph, &g).unwrap();
        assert_eq!(rec.composition_seconds.len(), 4);
        assert!(rec.baseline_seconds > 0.0);
        assert!(rec.granii_seconds > 0.0);
        // The chosen composition's time is among the recorded ones.
        assert!(rec.seconds_of(rec.granii_composition).is_some());
        // Optimal is at least as good as GRANII.
        assert!(rec.optimal_speedup() >= rec.speedup() * 0.999);
    }

    #[test]
    fn training_costs_more_than_inference() {
        let g = granii(DeviceKind::H100);
        let graph = Dataset::ComAmazon.load(Scale::Tiny).unwrap();
        let base = EvalConfig {
            system: System::Dgl,
            device: DeviceKind::H100,
            model: ModelKind::Gcn,
            dataset: Dataset::ComAmazon,
            k1: 32,
            k2: 32,
            mode: Mode::Inference,
        };
        let inf = evaluate_config(&base, &graph, &g).unwrap();
        let tr = evaluate_config(
            &EvalConfig {
                mode: Mode::Training,
                ..base
            },
            &graph,
            &g,
        )
        .unwrap();
        assert!(tr.baseline_seconds > inf.baseline_seconds);
        assert!(tr.granii_seconds > inf.granii_seconds);
    }

    #[test]
    fn wisegraph_dense_graph_gets_large_speedup_on_a100() {
        // The §VI-C1 headline: avoiding the binning normalization on dense
        // graphs yields large A100 speedups.
        let g = granii(DeviceKind::A100);
        let graph = Dataset::Mycielskian17.load(Scale::Tiny).unwrap();
        let cfg = EvalConfig {
            system: System::WiseGraph,
            device: DeviceKind::A100,
            model: ModelKind::Gcn,
            dataset: Dataset::Mycielskian17,
            k1: 32,
            k2: 32,
            mode: Mode::Inference,
        };
        let rec = evaluate_config(&cfg, &graph, &g).unwrap();
        assert!(rec.speedup() > 3.0, "speedup {}", rec.speedup());
    }

    #[test]
    fn steady_state_report_covers_all_compositions() {
        let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let cfg = EvalConfig {
            system: System::Dgl,
            device: DeviceKind::Cpu,
            model: ModelKind::Gcn,
            dataset: Dataset::Reddit,
            k1: 16,
            k2: 8,
            mode: Mode::Inference,
        };
        for comp in Composition::all_for(ModelKind::Gcn) {
            let report = steady_state_report(&cfg, &graph, comp).unwrap();
            assert_eq!(report.composition, comp);
            assert_eq!(report.steady_iterations, ITERATIONS - 1);
            assert!(report.setup_seconds() > 0.0, "{report:?}");
            assert!(report.steady_seconds > 0.0, "{report:?}");
        }
    }

    #[test]
    fn breakdown_has_sparse_and_dense_time() {
        let graph = Dataset::Reddit.load(Scale::Tiny).unwrap();
        let p = sparse_dense_breakdown(&graph, 32, 32, DeviceKind::H100).unwrap();
        let f = p.sparse_fraction();
        assert!(f > 0.0 && f < 1.0, "sparse fraction {f}");
    }
}
