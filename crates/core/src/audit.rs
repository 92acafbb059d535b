//! Selection-quality auditing: a verify mode that measures what a
//! selection decision cost.
//!
//! GRANII's value proposition is that the learned cost models pick the
//! cheapest candidate per input (§IV-E, §VI-C). [`crate::runtime::select`]
//! returns every eligible candidate's prediction in its
//! [`Selection`]; [`verify`] re-measures each of those candidates through
//! the compile-once ExecPlan engine on a modeled device (charges depend only
//! on shapes and sparsity, so the result is deterministic) and — reusing
//! the interpreter-vs-ExecPlan differential machinery — through the
//! reference interpreter as a cross-check. From the measurements it reports
//! per-decision **regret** (chosen vs. oracle-best) and the cost model's
//! **MAPE on ln-latency**.

use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

use crate::cost::CostModelSet;
use crate::execplan::{ExecPlan, PlanInputs};
use crate::interp;
use crate::plan::CompiledModel;
use crate::runtime::Selection;
use crate::Result;

/// Seed for the synthetic feature/weight matrices `verify` binds candidate
/// plans to. Values never influence modeled charges (those depend only on
/// shapes), but a fixed seed keeps verification runs bit-identical.
const VERIFY_SEED: u64 = 17;

/// One candidate's predicted-vs-measured comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifiedCandidate {
    /// The measured composition.
    pub composition: Composition,
    /// Canonical expression of its program.
    pub expr: String,
    /// The cost model's predicted amortized per-iteration latency, in
    /// seconds (None when a fast path skipped prediction).
    pub predicted_seconds: Option<f64>,
    /// Deterministically measured amortized per-iteration latency through
    /// the ExecPlan engine: bind-time (hoisted) charges divided by the
    /// iteration count, plus one steady-state iteration's charges.
    pub measured_seconds: f64,
    /// The ExecPlan charges before amortization (hoisted + one iteration).
    pub execplan_seconds: f64,
    /// The same program measured through the reference interpreter
    /// (the differential oracle); one full execution charges hoisted +
    /// per-iteration work, so this must equal [`Self::execplan_seconds`].
    pub interp_seconds: f64,
}

/// The outcome of verifying one selection decision against measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifyReport {
    /// The GNN model verified.
    pub model: ModelKind,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// Iteration count hoisted work amortized over.
    pub iterations: usize,
    /// What the selector chose.
    pub chosen: Composition,
    /// The measured-cheapest candidate.
    pub oracle: Composition,
    /// Measured amortized latency of the chosen candidate.
    pub chosen_seconds: f64,
    /// Measured amortized latency of the oracle candidate.
    pub oracle_seconds: f64,
    /// Mean absolute percentage error of the model's ln-latency predictions
    /// against measured ln-latency (None when no candidate was predicted).
    pub ln_mape: Option<f64>,
    /// Every eligible candidate, measured, cheapest first.
    pub candidates: Vec<VerifiedCandidate>,
    /// The selection this verification re-measured.
    pub selection: Selection,
}

impl VerifyReport {
    /// Per-decision regret: how much slower the chosen candidate is than
    /// the oracle-best, in seconds per (amortized) iteration. Zero when the
    /// selector picked the measured-cheapest candidate.
    pub fn regret_seconds(&self) -> f64 {
        self.chosen_seconds - self.oracle_seconds
    }

    /// Regret as a fraction of the oracle latency (0 = perfect choice).
    pub fn relative_regret(&self) -> f64 {
        if self.oracle_seconds > 0.0 {
            self.regret_seconds() / self.oracle_seconds
        } else {
            0.0
        }
    }

    /// Largest relative disagreement between the ExecPlan and interpreter
    /// charge totals across candidates — the differential check. Should be
    /// ~0 (both paths charge identical work).
    pub fn differential_rel_error(&self) -> f64 {
        self.candidates
            .iter()
            .map(|c| {
                if c.interp_seconds > 0.0 {
                    (c.execplan_seconds - c.interp_seconds).abs() / c.interp_seconds
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }
}

/// Deterministically measures one candidate program: builds and binds its
/// [`ExecPlan`] against a virtual executor (charges only — no values), then
/// runs one steady-state iteration. Returns `(amortized, unamortized)`
/// seconds, where amortized = bind charges / `iterations` + one iteration's
/// charges, matching [`CostModelSet::predict_program`]'s semantics.
fn measure_candidate(
    exec: &Exec,
    engine: &Engine,
    program: &crate::assoc::CandidateProgram,
    inputs: &PlanInputs,
    iterations: usize,
) -> Result<(f64, f64)> {
    let iters = iterations.max(1) as f64;
    engine.take_profile(); // isolate this candidate's charges
    let exec_plan = ExecPlan::build(program)?;
    let mut bound = exec_plan.bind(exec, &inputs.as_program_inputs())?;
    let once_seconds = engine.take_profile().total_seconds();
    bound.iterate(exec)?;
    let iter_seconds = engine.take_profile().total_seconds();
    Ok((
        once_seconds / iters + iter_seconds,
        once_seconds + iter_seconds,
    ))
}

/// Verifies one selection decision: selects as [`crate::runtime::select`]
/// would, then measures every eligible candidate on a modeled engine for
/// `models`' device and reports regret (chosen vs. oracle-best), the cost
/// model's ln-latency MAPE, and the interpreter differential cross-check.
///
/// Modeled charges depend only on shapes and sparsity structure, so the
/// report is deterministic for a given (plan, graph, config, device).
///
/// # Errors
///
/// Propagates selection, build/bind, and kernel errors.
pub fn verify(
    plan: &CompiledModel,
    graph: &Graph,
    cfg: LayerConfig,
    models: &CostModelSet,
    iterations: usize,
) -> Result<VerifyReport> {
    let _span = granii_telemetry::span!(
        "audit.verify",
        model = plan.model.name(),
        nodes = graph.num_nodes(),
    );
    let selection = crate::runtime::select(plan, graph, cfg.k_in, cfg.k_out, models, iterations)?;

    let ctx = GraphCtx::new(graph)?;
    let h = DenseMatrix::random(graph.num_nodes(), cfg.k_in, 1.0, VERIFY_SEED);
    let inputs = PlanInputs::for_model(plan.model, cfg, &ctx, h, VERIFY_SEED + 1);
    let engine = Engine::modeled(models.device());
    let exec = Exec::virtual_only(&engine);

    let mut candidates = Vec::new();
    for cand in plan.eligible(cfg.k_in, cfg.k_out) {
        let (measured, execplan_seconds) =
            measure_candidate(&exec, &engine, &cand.program, &inputs, iterations)?;
        // Differential cross-check: one interpreter execution of the same
        // program must charge the same work the ExecPlan charged.
        engine.take_profile();
        interp::execute(&exec, &cand.program, &inputs.as_program_inputs())?;
        let interp_seconds = engine.take_profile().total_seconds();
        let predicted = if selection.used_cost_models {
            selection
                .predicted
                .iter()
                .find(|(comp, _)| *comp == cand.composition)
                .map(|&(_, cost)| cost)
        } else {
            None
        };
        candidates.push(VerifiedCandidate {
            composition: cand.composition,
            expr: cand.program.expr.clone(),
            predicted_seconds: predicted,
            measured_seconds: measured,
            execplan_seconds,
            interp_seconds,
        });
    }
    candidates.sort_by(|a, b| {
        a.measured_seconds
            .partial_cmp(&b.measured_seconds)
            .expect("finite charges")
    });

    let oracle = &candidates[0];
    let chosen_seconds = candidates
        .iter()
        .find(|c| c.composition == selection.composition)
        .map(|c| c.measured_seconds)
        .expect("chosen candidate was measured");
    let ln_errors: Vec<f64> = candidates
        .iter()
        .filter_map(|c| {
            let pred = c.predicted_seconds?;
            if pred > 0.0 && c.measured_seconds > 0.0 {
                let ln_meas = c.measured_seconds.ln();
                if ln_meas.abs() > f64::EPSILON {
                    return Some((pred.ln() - ln_meas).abs() / ln_meas.abs());
                }
            }
            None
        })
        .collect();
    let ln_mape = if ln_errors.is_empty() {
        None
    } else {
        Some(ln_errors.iter().sum::<f64>() / ln_errors.len() as f64)
    };

    Ok(VerifyReport {
        model: plan.model,
        k1: cfg.k_in,
        k2: cfg.k_out,
        iterations,
        chosen: selection.composition,
        oracle: oracle.composition,
        chosen_seconds,
        oracle_seconds: oracle.measured_seconds,
        ln_mape,
        candidates,
        selection,
    })
}
