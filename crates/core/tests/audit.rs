//! Selection-quality audit tests: a selection must expose per-candidate
//! predictions, `audit::verify` must report regret ≈ 0 for
//! healthy cost models on the Table II synthetic graphs, and a deliberately
//! corrupted cost model must produce non-zero regret while the report still
//! identifies the true oracle candidate.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use granii_boost::{Dataset as BoostDataset, GbtParams, GbtRegressor};
use granii_core::cost::{CostModelSet, FeaturizedInput};
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;

/// The §VI embedding-size grid the non-GAT tables sweep.
const GCN_GRID: [(usize, usize); 5] = [(32, 32), (256, 64), (64, 512), (1024, 1024), (2048, 256)];

/// One fast-trained H100 instance shared by every test in this binary —
/// training is the expensive part and the models are deterministic.
fn granii() -> &'static Granii {
    static GRANII: OnceLock<Granii> = OnceLock::new();
    GRANII.get_or_init(|| {
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training")
    })
}

#[test]
fn selection_records_per_candidate_predictions() {
    let granii = granii();
    let g = Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap();
    let selection = granii.select(ModelKind::Gcn, &g, 48, 96).unwrap();

    assert!(
        selection.used_cost_models,
        "GCN at 48x96 has rival candidates"
    );
    let plan = granii
        .compiled(ModelKind::Gcn, LayerConfig::new(48, 96))
        .unwrap();
    let eligible = plan.eligible(48, 96);
    assert!(eligible.len() >= 2);
    assert_eq!(selection.predicted.len(), eligible.len());
    for cand in &eligible {
        let secs = selection
            .predicted
            .iter()
            .find(|(comp, _)| *comp == cand.composition)
            .map(|&(_, secs)| secs)
            .expect("every eligible candidate must carry a prediction");
        assert!(
            secs > 0.0 && secs.is_finite(),
            "{}: {secs}",
            cand.composition
        );
    }
    // The chosen candidate is the predicted-cheapest among eligible ones.
    let chosen_pred = selection
        .predicted
        .iter()
        .find(|(comp, _)| *comp == selection.composition)
        .expect("chosen candidate must carry a prediction")
        .1;
    for &(_, secs) in &selection.predicted {
        assert!(chosen_pred <= secs + 1e-15);
    }
}

/// Rebuilds the model set with the `inflate`d primitives retrained on the
/// clean model's own predictions shifted by `+ln(10^6)` — those primitives
/// now look a million times slower, so any candidate relying on them loses
/// the argmin it deserved to win. Every other primitive keeps its clean
/// model.
fn corrupt(
    clean: &CostModelSet,
    feature_rows: &BTreeMap<granii_matrix::PrimitiveKind, Vec<Vec<f64>>>,
    inflate: &[granii_matrix::PrimitiveKind],
) -> CostModelSet {
    let params = GbtParams {
        num_rounds: 60,
        ..GbtParams::default()
    };
    let shift = 1e6f64.ln();
    let mut corrupted = BTreeMap::new();
    for (&kind, model) in clean.models() {
        if !inflate.contains(&kind) {
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
fn corrupted_cost_model_reports_regret_and_identifies_oracle() {
    let clean = granii();
    let g = Dataset::Mycielskian17.load(Scale::Tiny).unwrap();
    // A shrink cell (k1 > k2): projecting before aggregating is genuinely
    // cheaper, so the two orderings have distinct measured costs — a flip is
    // observable (at k1 == k2 both orders cost the same and regret is
    // structurally zero).
    let cfg = LayerConfig::new(2048, 256);

    let clean_report = clean.verify(ModelKind::Gcn, &g, cfg, 100).unwrap();
    assert_eq!(
        clean_report.chosen, clean_report.oracle,
        "healthy models must pick the measured-best candidate here"
    );
    assert!(clean_report.regret_seconds().abs() < 1e-15);

    // Build the corrupted set from features the audited plan actually uses:
    // every step of every GCN candidate, featurized on all six Table II
    // graphs under a few embedding configurations.
    let plan = clean.compiled(ModelKind::Gcn, cfg).unwrap();
    let mut feature_rows: BTreeMap<granii_matrix::PrimitiveKind, Vec<Vec<f64>>> = BTreeMap::new();
    for dataset in Dataset::ALL {
        let graph = dataset.load(Scale::Tiny).unwrap();
        for (k1, k2) in GCN_GRID {
            let input = FeaturizedInput::extract(&graph, k1, k2);
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
    // Corrupt exactly the primitives the measured-best candidate relies on
    // and its rivals do not — the most surgical way to make the selector
    // walk away from the right answer.
    let eligible = plan.eligible(cfg.k_in, cfg.k_out);
    let chosen_prog = eligible
        .iter()
        .find(|c| c.composition == clean_report.chosen)
        .expect("chosen candidate is eligible");
    let rival_kinds: std::collections::BTreeSet<_> = eligible
        .iter()
        .filter(|c| c.composition != clean_report.chosen)
        .flat_map(|c| c.program.steps.iter().map(|s| s.kind))
        .collect();
    let inflate: Vec<_> = chosen_prog
        .program
        .steps
        .iter()
        .map(|s| s.kind)
        .filter(|k| !rival_kinds.contains(k))
        .collect();
    assert!(
        !inflate.is_empty(),
        "the chosen candidate must use at least one primitive its rivals do not"
    );
    let corrupted = Granii::with_cost_models(corrupt(clean.cost_models(), &feature_rows, &inflate));

    let report = corrupted.verify(ModelKind::Gcn, &g, cfg, 100).unwrap();
    eprintln!(
        "corrupted: chosen={:?} oracle={:?} regret={:.3e}s rel={:.3}",
        report.chosen,
        report.oracle,
        report.regret_seconds(),
        report.relative_regret()
    );
    assert!(
        report.regret_seconds() > 0.0,
        "inverted cost models must regret their choice (chosen {:?}, oracle {:?})",
        report.chosen,
        report.oracle
    );
    // Measurement is model-independent: the corrupted report must still
    // point at the same oracle the healthy models chose.
    assert_eq!(report.oracle, clean_report.chosen);
}

#[test]
fn clean_models_have_near_zero_regret_on_gcn_grid() {
    let granii = granii();
    let mut chosen_total = 0.0;
    let mut oracle_total = 0.0;
    let mut cells = 0u32;
    let mut zero_regret = 0u32;
    for dataset in Dataset::ALL {
        let g = dataset.load(Scale::Tiny).unwrap();
        for (k1, k2) in GCN_GRID {
            let report = granii
                .verify(ModelKind::Gcn, &g, LayerConfig::new(k1, k2), 100)
                .unwrap();
            assert!(
                report.differential_rel_error() < 1e-9,
                "{dataset:?} {k1}x{k2}: ExecPlan and interpreter disagree"
            );
            eprintln!(
                "{dataset:?} {k1}x{k2}: chosen={:?} oracle={:?} rel_regret={:.4} ln_mape={:?}",
                report.chosen,
                report.oracle,
                report.relative_regret(),
                report.ln_mape
            );
            chosen_total += report.chosen_seconds;
            oracle_total += report.oracle_seconds;
            cells += 1;
            if report.regret_seconds() <= f64::EPSILON {
                zero_regret += 1;
            }
        }
    }
    let aggregate_regret = chosen_total / oracle_total - 1.0;
    eprintln!(
        "grid: {zero_regret}/{cells} cells at zero regret, aggregate relative regret {aggregate_regret:.4}"
    );
    assert!(
        aggregate_regret < 0.05,
        "aggregate relative regret {aggregate_regret:.4} across the GCN grid must stay ~0"
    );
    assert!(
        zero_regret * 10 >= cells * 8,
        "at least 80% of grid cells must be exact oracle matches ({zero_regret}/{cells})"
    );
}
