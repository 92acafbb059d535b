//! Selection-quality auditing: structured records of every selection
//! decision, plus a verify mode that measures what each decision cost.
//!
//! GRANII's value proposition is that the learned cost models pick the
//! cheapest candidate per input (§IV-E, §VI-C) — but [`crate::runtime::select`]
//! consumes the per-candidate predictions and discards them. This module
//! keeps them:
//!
//! - **Audit log**: when enabled ([`enable`]), every selection emits a
//!   [`SelectionAudit`] — the featurized input, every candidate's
//!   eligibility and predicted ln-latency, and the chosen composition —
//!   into a global sink drained by [`take_audits`]. The sink mirrors the
//!   telemetry crate's span buffer: off by default, one atomic load when
//!   disabled.
//! - **Verify mode**: [`verify`] re-measures every eligible candidate
//!   through the compile-once ExecPlan engine on a modeled device (charges
//!   depend only on shapes and sparsity, so the result is deterministic)
//!   and — reusing the interpreter-vs-ExecPlan differential machinery —
//!   through the reference interpreter as a cross-check. From the
//!   measurements it reports per-decision **regret** (chosen vs.
//!   oracle-best) and the cost model's **MAPE on ln-latency**.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

use crate::cost::{CostModelSet, FeaturizedInput};
use crate::execplan::{ExecPlan, PlanInputs};
use crate::interp;
use crate::plan::CompiledModel;
use crate::runtime::Selection;
use crate::Result;

/// Seed for the synthetic feature/weight matrices `verify` binds candidate
/// plans to. Values never influence modeled charges (those depend only on
/// shapes), but a fixed seed keeps verification runs bit-identical.
const VERIFY_SEED: u64 = 17;

// ---------------------------------------------------------------- audit log

/// One candidate's view of a selection decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateAudit {
    /// The composition the candidate lowers to.
    pub composition: Composition,
    /// Canonical expression of its primitive program.
    pub expr: String,
    /// Whether the embedding-size condition admitted it.
    pub eligible: bool,
    /// Predicted latency in seconds (None when the candidate was pruned by
    /// eligibility, or when a single-candidate fast path skipped the cost
    /// models).
    pub predicted_seconds: Option<f64>,
    /// Predicted ln-latency — the quantity the per-primitive GBT models
    /// actually regress (None under the same conditions).
    pub predicted_ln_latency: Option<f64>,
}

/// Structured record of one `select` call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionAudit {
    /// The GNN model selected for.
    pub model: ModelKind,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// Iteration count hoisted work amortized over.
    pub iterations: usize,
    /// The featurized input the cost models saw (None when the decision was
    /// resolved by a pure embedding-size condition without featurizing).
    pub input: Option<FeaturizedInput>,
    /// Every candidate of the compiled plan, in plan order.
    pub candidates: Vec<CandidateAudit>,
    /// The chosen composition.
    pub chosen: Composition,
    /// Whether the cost models were consulted.
    pub used_cost_models: bool,
    /// Wall time of featurization.
    pub featurize_seconds: f64,
    /// Wall time of eligibility + cost evaluation + argmin.
    pub select_seconds: f64,
}

static AUDIT_ENABLED: AtomicBool = AtomicBool::new(false);

/// Default maximum number of retained audits. Each record carries full
/// per-candidate vectors, so an unbounded sink leaks memory in a
/// long-running serving process that audits but never drains; a few
/// thousand records is hours of selection history at serving rates.
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

/// The bounded audit store: a ring of the most recent audits plus a count
/// of records evicted since the last drain.
struct Sink {
    audits: VecDeque<SelectionAudit>,
    capacity: usize,
    dropped: u64,
}

impl Sink {
    fn push(&mut self, audit: SelectionAudit) {
        while self.audits.len() >= self.capacity {
            self.audits.pop_front();
            self.dropped += 1;
        }
        self.audits.push_back(audit);
    }

    fn take(&mut self) -> AuditDrain {
        AuditDrain {
            audits: std::mem::take(&mut self.audits).into(),
            dropped: std::mem::take(&mut self.dropped),
        }
    }
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            audits: VecDeque::new(),
            capacity: DEFAULT_AUDIT_CAPACITY,
            dropped: 0,
        })
    })
}

fn with_sink<T>(f: impl FnOnce(&mut Sink) -> T) -> T {
    f(&mut sink().lock().unwrap_or_else(PoisonError::into_inner))
}

/// Turns the audit log on: subsequent selections record a [`SelectionAudit`].
pub fn enable() {
    AUDIT_ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the audit log off. Already-recorded audits are kept until
/// [`take_audits`].
pub fn disable() {
    AUDIT_ENABLED.store(false, Ordering::SeqCst);
}

/// Whether selections are currently audited.
#[inline(always)]
pub fn is_enabled() -> bool {
    AUDIT_ENABLED.load(Ordering::Relaxed)
}

/// Sets the sink capacity (clamped to at least 1). When the new capacity is
/// below the current backlog, the oldest records are evicted immediately and
/// counted as dropped.
pub fn set_capacity(capacity: usize) {
    with_sink(|s| {
        s.capacity = capacity.max(1);
        while s.audits.len() > s.capacity {
            s.audits.pop_front();
            s.dropped += 1;
        }
    });
}

/// The result of draining the audit sink: the retained records (recording
/// order) plus how many older records were evicted to stay under capacity
/// since the previous drain. Derefs to the audit vector, so existing
/// `take_audits().iter()` call sites keep working.
#[derive(Debug, Clone)]
pub struct AuditDrain {
    /// The retained audits, oldest first.
    pub audits: Vec<SelectionAudit>,
    /// Records evicted (drop-oldest) since the last drain.
    pub dropped: u64,
}

impl std::ops::Deref for AuditDrain {
    type Target = Vec<SelectionAudit>;

    fn deref(&self) -> &Self::Target {
        &self.audits
    }
}

impl IntoIterator for AuditDrain {
    type Item = SelectionAudit;
    type IntoIter = std::vec::IntoIter<SelectionAudit>;

    fn into_iter(self) -> Self::IntoIter {
        self.audits.into_iter()
    }
}

/// Drains and returns every retained audit, in recording order, along with
/// the number of records dropped since the last drain.
pub fn take_audits() -> AuditDrain {
    with_sink(Sink::take)
}

/// Records an audit into the sink (called by [`crate::runtime::select`]).
/// When the sink is at capacity the oldest record is evicted — recent
/// decisions are the interesting ones in a long-running process.
pub(crate) fn record(audit: SelectionAudit) {
    with_sink(|s| s.push(audit));
}

/// Builds the audit record for one selection outcome. `input` is the
/// featurized input when the cost models ran.
pub(crate) fn audit_of_selection(
    plan: &CompiledModel,
    k1: usize,
    k2: usize,
    iterations: usize,
    input: Option<&FeaturizedInput>,
    selection: &Selection,
) -> SelectionAudit {
    let eligible = plan.eligible(k1, k2);
    let candidates = plan
        .candidates
        .iter()
        .map(|cand| {
            let predicted = if selection.used_cost_models {
                selection
                    .predicted
                    .iter()
                    .find(|(comp, _)| *comp == cand.composition)
                    .map(|&(_, cost)| cost)
            } else {
                None
            };
            CandidateAudit {
                composition: cand.composition,
                expr: cand.program.expr.clone(),
                eligible: eligible.iter().any(|e| e.composition == cand.composition),
                predicted_seconds: predicted,
                predicted_ln_latency: predicted.map(f64::ln),
            }
        })
        .collect();
    SelectionAudit {
        model: plan.model,
        k1,
        k2,
        iterations,
        input: input.cloned(),
        candidates,
        chosen: selection.composition,
        used_cost_models: selection.used_cost_models,
        featurize_seconds: selection.featurize_seconds,
        select_seconds: selection.select_seconds,
    }
}

// ---------------------------------------------------------------- verify

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

    granii_telemetry::counter_add("audit.verifications", 1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use granii_gnn::spec::{NormStrategy, OpOrder};

    fn tiny_audit(k1: usize) -> SelectionAudit {
        SelectionAudit {
            model: ModelKind::Gcn,
            k1,
            k2: 1,
            iterations: 1,
            input: None,
            candidates: Vec::new(),
            chosen: Composition::Gcn(NormStrategy::Dynamic, OpOrder::AggregateFirst),
            used_cost_models: false,
            featurize_seconds: 0.0,
            select_seconds: 0.0,
        }
    }

    #[test]
    fn sink_caps_a_million_records_and_counts_drops() {
        let mut sink = Sink {
            audits: VecDeque::new(),
            capacity: DEFAULT_AUDIT_CAPACITY,
            dropped: 0,
        };
        const TOTAL: usize = 1_000_000;
        for i in 0..TOTAL {
            sink.push(tiny_audit(i));
            assert!(sink.audits.len() <= DEFAULT_AUDIT_CAPACITY);
        }
        let drain = sink.take();
        assert_eq!(drain.audits.len(), DEFAULT_AUDIT_CAPACITY);
        assert_eq!(drain.dropped, (TOTAL - DEFAULT_AUDIT_CAPACITY) as u64);
        // Drop-oldest: the survivors are exactly the most recent records.
        assert_eq!(drain.audits[0].k1, TOTAL - DEFAULT_AUDIT_CAPACITY);
        assert_eq!(drain.audits.last().unwrap().k1, TOTAL - 1);
        // The drain resets the counter.
        let empty = sink.take();
        assert!(empty.audits.is_empty());
        assert_eq!(empty.dropped, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut sink = Sink {
            audits: VecDeque::new(),
            capacity: 8,
            dropped: 0,
        };
        for i in 0..8 {
            sink.push(tiny_audit(i));
        }
        // Mirror set_capacity's shrink path on a local sink.
        sink.capacity = 3;
        while sink.audits.len() > sink.capacity {
            sink.audits.pop_front();
            sink.dropped += 1;
        }
        let drain = sink.take();
        assert_eq!(drain.dropped, 5);
        assert_eq!(
            drain.audits.iter().map(|a| a.k1).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
    }
}
