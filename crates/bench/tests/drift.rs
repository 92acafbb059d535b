//! End-to-end drift detection: serve a signature, hot-swap in a cost model
//! corrupted to flip the selection onto a plan whose steady-state prediction
//! is wildly wrong, and assert the online detector flags the signature,
//! invalidates its cached plan, and that restoring the clean model recovers
//! zero regret (cross-checked against `granii.verify`'s oracle).
//!
//! Runs as a single `#[test]` in its own binary: the scenario reads the
//! global telemetry event stream, which parallel tests would race. Its
//! counters come from the server's own metrics snapshot.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use granii_bench::serve_load::run_drift_scenario;
use granii_boost::{Dataset as BoostDataset, GbtParams, GbtRegressor};
use granii_core::cost::{CostModelSet, FeaturizedInput};
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_matrix::PrimitiveKind;
use granii_serve::{ServeConfig, ServeRequest};

/// Rebuilds the model set with the `deflate`d primitives retrained on the
/// clean model's own predictions shifted by `-ln(10^6)` — those primitives
/// now look a million times *cheaper*. Deflating the per-iteration kinds
/// only a rival uses makes the selector flip to that rival, whose
/// steady-state prediction is then a ~1e6x underestimate of reality:
/// exactly the measured-vs-predicted mismatch the drift detector watches.
/// (The audit test inflates the chosen plan's kinds instead — that drives
/// selection *away* from a plan; it never produces a served plan with a
/// broken prediction, so it cannot trigger drift.)
fn corrupt_deflate(
    clean: &CostModelSet,
    feature_rows: &BTreeMap<PrimitiveKind, Vec<Vec<f64>>>,
    deflate: &[PrimitiveKind],
) -> CostModelSet {
    let params = GbtParams {
        num_rounds: 60,
        ..GbtParams::default()
    };
    let shift = -(1e6f64.ln());
    let mut corrupted = BTreeMap::new();
    for (&kind, model) in clean.models() {
        if !deflate.contains(&kind) {
            corrupted.insert(kind, model.clone());
            continue;
        }
        let rows = &feature_rows[&kind];
        let labels: Vec<f64> = rows.iter().map(|r| model.predict(r) + shift).collect();
        let train = BoostDataset::from_rows(rows, &labels).unwrap();
        corrupted.insert(kind, GbtRegressor::fit(&train, &params).unwrap());
    }
    CostModelSet::new(clean.device(), corrupted, clean.validation.clone())
}

#[test]
fn corrupted_model_is_flagged_invalidated_and_recovers() {
    let clean = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::Mycielskian17.load(Scale::Tiny).unwrap());
    // The audit suite's known shrink cell: the clean choice equals the
    // oracle with zero regret, and the two eligible orderings have distinct
    // measured costs, so a selection flip is observable as regret.
    let cfg = LayerConfig::new(2048, 256);
    let iterations = 100;

    let clean_report = clean
        .verify(ModelKind::Gcn, &graph, cfg, iterations)
        .unwrap();
    assert_eq!(clean_report.chosen, clean_report.oracle);
    assert!(clean_report.regret_seconds().abs() < 1e-15);
    let oracle_name = clean_report.oracle.name();

    // Featurize every step of every GCN candidate across the Table II tiny
    // graphs (same corpus the audit test retrains on).
    let plan = clean.compiled(ModelKind::Gcn, cfg).unwrap();
    let mut feature_rows: BTreeMap<PrimitiveKind, Vec<Vec<f64>>> = BTreeMap::new();
    for dataset in Dataset::ALL {
        let g = dataset.load(Scale::Tiny).unwrap();
        for (k1, k2) in [(32, 32), (256, 64), (64, 512), (1024, 1024), (2048, 256)] {
            let input = FeaturizedInput::extract(&g, k1, k2);
            for cand in &plan.candidates {
                for step in &cand.program.steps {
                    feature_rows
                        .entry(step.kind)
                        .or_default()
                        .push(input.step_features(step));
                }
            }
        }
    }

    // Deflate *every* per-iteration kind the rivals run. That collapses a
    // rival's whole steady-state prediction to ~1e-6 of reality, so (a) the
    // selector flips to it, and (b) the served plan's residual is ~ln(1e6).
    // Deflating only rival-unique kinds is not enough: the shared Gemm
    // dominates this cell's cost, and a prediction that keeps the dominant
    // term stays within the 2x drift threshold.
    let eligible = plan.eligible(cfg.k_in, cfg.k_out);
    let chosen_prog = &eligible
        .iter()
        .find(|c| c.composition == clean_report.chosen)
        .expect("chosen candidate is eligible")
        .program;
    let deflate: Vec<_> = eligible
        .iter()
        .filter(|c| c.composition != clean_report.chosen)
        .flat_map(|c| c.program.steps.iter().filter(|s| !s.once).map(|s| s.kind))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(!deflate.is_empty(), "rivals must have per-iteration steps");
    // The flip is only guaranteed if the chosen plan keeps at least one
    // full-scale per-iteration term (here: SpmmWeighted, which no rival
    // uses) to lose the deflated argmin against.
    assert!(
        chosen_prog
            .steps
            .iter()
            .any(|s| !s.once && !deflate.contains(&s.kind)),
        "chosen plan must iterate a primitive no rival uses"
    );
    let corrupted = Arc::new(Granii::with_cost_models(corrupt_deflate(
        clean.cost_models(),
        &feature_rows,
        &deflate,
    )));

    granii_telemetry::reset();
    granii_telemetry::enable();
    let report = run_drift_scenario(
        clean.clone(),
        corrupted,
        &ServeRequest::new(ModelKind::Gcn, graph.clone(), cfg.k_in, cfg.k_out)
            .with_iterations(iterations),
        12,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    granii_telemetry::disable();
    let events = granii_telemetry::take_events();
    granii_telemetry::reset();
    let snapshot = &report.metrics;

    eprintln!(
        "phases: clean={:?} corrupted={:?} recovered={:?}",
        report.clean_before.compositions,
        report.corrupted.compositions,
        report.clean_after.compositions
    );

    // Phase 1: clean model, stable oracle selection, no flags.
    assert_eq!(report.clean_before.failed, 0);
    assert_eq!(report.clean_before.compositions, vec![oracle_name.clone()]);
    assert_eq!(
        report.clean_before.drift_flagged, 0,
        "clean model must not flag"
    );

    // Phase 2: the deflated rival wins selection (regret), and the detector
    // flags the signature within min_samples + k_consecutive requests,
    // invalidating its plan-cache entry. The cooldown keeps 12 hammered
    // requests at exactly one flag — no re-flag storm.
    assert_eq!(report.corrupted.failed, 0);
    assert_ne!(
        report.corrupted.compositions.first(),
        Some(&oracle_name),
        "deflated rival predictions must flip the selection"
    );
    assert_eq!(
        report.corrupted.drift_flagged, 1,
        "flag within K requests, then cooldown-suppressed"
    );
    assert!(
        report.corrupted.cache_invalidations > report.clean_before.cache_invalidations,
        "the flagged signature's cached plan must be invalidated"
    );

    // Phase 3: clean model restored; re-selection recovers the oracle
    // composition — zero regret by the clean verify above — with no new
    // flags.
    assert_eq!(report.clean_after.failed, 0);
    assert_eq!(report.clean_after.compositions, vec![oracle_name.clone()]);
    assert_eq!(
        report.clean_after.drift_flagged,
        report.corrupted.drift_flagged
    );

    // The flag surfaces everywhere: the server's status, its metrics
    // counter, and the structured event stream.
    assert_eq!(report.status.drift_flagged, 1);
    assert!(
        report.status.drift.iter().any(|row| row.model == "gcn"),
        "status drift table must track the served signature"
    );
    let drift_counter = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "serve.drift_flagged")
        .map(|(_, v)| *v);
    assert_eq!(
        drift_counter,
        Some(1),
        "serve.drift_flagged in metrics_json"
    );
    assert!(
        granii_telemetry::export::metrics_json(snapshot).contains("serve.drift_flagged"),
        "metrics export must carry the drift counter"
    );
    let drift_events: Vec<_> = events.iter().filter(|e| e.name == "serve.drift").collect();
    assert_eq!(drift_events.len(), 1, "one structured drift event");
    let jsonl = granii_telemetry::export::events_jsonl(&events);
    assert!(
        jsonl.contains("serve.drift"),
        "drift event in the JSONL log"
    );
}
