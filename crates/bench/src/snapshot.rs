//! Baseline/regression harness: steady-state performance snapshots and
//! snapshot diffing (ISSUE 3's `bench_snapshot` / `bench_compare` pair).
//!
//! A [`BenchSnapshot`] captures, for a fixed (model × graph × embedding-size)
//! grid, the host-measured steady-state ns/iter of the GRANII-selected
//! composition through the compile-once engine, the selection's regret
//! against the measured oracle (via [`granii_core::audit::verify`]), and the
//! kernel buffers its steady state allocates — stamped with the git SHA and
//! host name so regressions can be traced to a commit and a machine.
//!
//! [`compare`] diffs two snapshots cell by cell and flags any cell whose
//! steady-state ns/iter regressed by more than a threshold. Host timings are
//! noisy — CI treats the comparison as a *soft* gate (a non-blocking job),
//! while the committed `BENCH_baseline.json` documents the expected shape.

use granii_core::runtime::run_steady_state;
use granii_core::{CoreError, Granii};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::Exec;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};

/// The fixed snapshot grid: small enough for CI, wide enough to cover dense
/// and sparse graphs and both GNN families the selector distinguishes.
pub const MODELS: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gin, ModelKind::Gat];
/// Datasets of the grid (Tiny stand-ins; see [`MODELS`]).
pub const DATASETS: [Dataset; 3] = [Dataset::Reddit, Dataset::Mycielskian17, Dataset::BelgiumOsm];
/// Embedding-size pairs of the grid.
pub const EMBEDS: [(usize, usize); 2] = [(32, 32), (256, 64)];

/// Deterministic seed for the feature matrices each cell binds.
const SEED: u64 = 23;

/// One grid cell's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// GNN model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// The composition GRANII selected for the cell.
    pub composition: String,
    /// Host-measured steady-state nanoseconds per iteration of the selected
    /// composition through the compile-once engine.
    pub steady_ns_per_iter: f64,
    /// One-time build + bind + warm-up cost, nanoseconds.
    pub setup_ns: f64,
    /// Selection regret vs. the measured oracle (seconds per amortized
    /// iteration on the modeled device; 0 = the selector picked the best).
    pub regret_seconds: f64,
    /// Regret as a fraction of the oracle latency.
    pub relative_regret: f64,
    /// Fresh kernel buffers ([`granii_matrix::buffer_allocations`])
    /// allocated across the steady-state iterations (the compile-once
    /// contract keeps this at 0).
    pub steady_allocations: u64,
}

impl SnapshotEntry {
    /// Stable identity of the cell across snapshots.
    pub fn key(&self) -> String {
        format!("{}/{}/{}x{}", self.model, self.dataset, self.k1, self.k2)
    }
}

/// A full performance snapshot: the grid plus provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Commit the snapshot was taken at (`unknown` outside a git checkout).
    pub git_sha: String,
    /// Host the snapshot was taken on.
    pub host: String,
    /// Device model the cells ran against.
    pub device: String,
    /// Iteration count per cell.
    pub iterations: usize,
    /// One entry per grid cell.
    pub entries: Vec<SnapshotEntry>,
}

impl BenchSnapshot {
    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serde`] on serialization failure.
    pub fn to_json(&self) -> Result<String, CoreError> {
        serde_json::to_string(self).map_err(|e| CoreError::Serde(e.to_string()))
    }

    /// Parses a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serde`] on parse failure.
    pub fn from_json(json: &str) -> Result<Self, CoreError> {
        serde_json::from_str(json).map_err(|e| CoreError::Serde(e.to_string()))
    }
}

/// Host name: `$HOSTNAME`, then `/etc/hostname`, then `unknown`.
pub fn host_name() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    if let Ok(h) = std::fs::read_to_string("/etc/hostname") {
        if !h.trim().is_empty() {
            return h.trim().to_string();
        }
    }
    "unknown".to_string()
}

/// Current commit SHA (short), or `unknown` outside a git checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Measures the full snapshot grid. `granii` must be trained for the device
/// the snapshot should represent.
///
/// # Errors
///
/// Propagates selection, verification, and kernel errors.
pub fn collect(granii: &Granii, iterations: usize) -> Result<BenchSnapshot, CoreError> {
    let mut entries = Vec::new();
    for model in MODELS {
        for dataset in DATASETS {
            let graph = dataset.load(Scale::Tiny)?;
            for (k1, k2) in EMBEDS {
                let cfg = LayerConfig::new(k1, k2);
                let report = granii.verify(model, &graph, cfg, iterations)?;
                let plan = granii.compiled(model, cfg)?;
                let ctx = granii_gnn::GraphCtx::new(&graph)?;
                let h = DenseMatrix::random(ctx.num_nodes(), k1, 1.0, SEED);
                let inputs =
                    granii_core::execplan::PlanInputs::for_model(model, cfg, &ctx, h, SEED);
                let engine = Engine::modeled(granii.device());
                let exec = Exec::real(&engine);
                let steady = run_steady_state(&exec, &plan, report.chosen, &inputs, iterations)?;
                entries.push(SnapshotEntry {
                    model: model.name().to_string(),
                    dataset: dataset.to_string(),
                    k1,
                    k2,
                    composition: report.chosen.to_string(),
                    steady_ns_per_iter: steady.seconds_per_iteration() * 1e9,
                    setup_ns: steady.setup_seconds() * 1e9,
                    regret_seconds: report.regret_seconds(),
                    relative_regret: report.relative_regret(),
                    steady_allocations: steady.steady_allocations,
                });
            }
        }
    }
    Ok(BenchSnapshot {
        git_sha: git_sha(),
        host: host_name(),
        device: granii.device().to_string(),
        iterations,
        entries,
    })
}

/// Dataset of the serving-path snapshot cell.
pub const SERVE_DATASET: Dataset = Dataset::Mycielskian17;
/// Embedding pair of the serving-path snapshot cell.
pub const SERVE_EMBED: (usize, usize) = (32, 32);

/// Appends a serving-path cell (`serve/<dataset>/<k1>x<k2>`) to `snap`:
/// end-to-end request latency through the `granii-serve` runtime, with the
/// cache-cold first request recorded as `setup_ns` and the median cache-hot
/// request latency as `steady_ns_per_iter` (for this cell: ns per *request*,
/// a full selection-cached execution). The cell rides the same
/// `bench_compare` gate as the kernel grid; against an older baseline it
/// shows up as coverage growth (`added`), which the gate reports without
/// failing.
///
/// # Errors
///
/// Propagates dataset-loading and serving errors.
pub fn append_serving_cell(
    snap: &mut BenchSnapshot,
    granii: std::sync::Arc<Granii>,
    requests: usize,
) -> Result<(), granii_serve::ServeError> {
    use granii_serve::{ServeConfig, ServeRequest, Server};

    let (k1, k2) = SERVE_EMBED;
    let model = ModelKind::Gcn;
    let graph = std::sync::Arc::new(SERVE_DATASET.load(Scale::Tiny).map_err(CoreError::from)?);
    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let cold = server.process(ServeRequest::new(model, graph.clone(), k1, k2))?;
    let mut hot = Vec::with_capacity(requests.max(1));
    for _ in 0..requests.max(1) {
        let response = server.process(ServeRequest::new(model, graph.clone(), k1, k2))?;
        hot.push(response.timing.total_seconds);
    }
    server.shutdown();
    hot.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50_seconds = crate::serve_load::percentile(&hot, 0.50);
    snap.entries.push(SnapshotEntry {
        model: "serve".to_string(),
        dataset: SERVE_DATASET.to_string(),
        k1,
        k2,
        composition: cold.composition.to_string(),
        steady_ns_per_iter: p50_seconds * 1e9,
        setup_ns: cold.timing.total_seconds * 1e9,
        regret_seconds: 0.0,
        relative_regret: 0.0,
        steady_allocations: 0,
    });
    Ok(())
}

/// One cell's baseline-vs-current delta.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryDelta {
    /// Cell identity ([`SnapshotEntry::key`]).
    pub key: String,
    /// Baseline steady-state ns/iter.
    pub baseline_ns: f64,
    /// Current steady-state ns/iter.
    pub current_ns: f64,
    /// Relative change in percent (positive = slower).
    pub delta_pct: f64,
    /// Whether the cell exceeded the regression threshold.
    pub regression: bool,
}

/// The outcome of diffing two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Regression threshold, percent.
    pub threshold_pct: f64,
    /// Per-cell deltas for cells present in both snapshots.
    pub deltas: Vec<EntryDelta>,
    /// Cells only in the baseline (coverage shrank).
    pub missing: Vec<String>,
    /// Cells only in the current snapshot (coverage grew).
    pub added: Vec<String>,
}

impl Comparison {
    /// Cells that regressed beyond the threshold.
    pub fn regressions(&self) -> Vec<&EntryDelta> {
        self.deltas.iter().filter(|d| d.regression).collect()
    }

    /// Whether any cell regressed beyond the threshold.
    pub fn is_regression(&self) -> bool {
        self.deltas.iter().any(|d| d.regression)
    }

    /// The worst (most positive) delta, if any cells matched.
    pub fn worst(&self) -> Option<&EntryDelta> {
        self.deltas
            .iter()
            .max_by(|a, b| a.delta_pct.partial_cmp(&b.delta_pct).expect("finite"))
    }

    /// One-line verdict for CI logs.
    pub fn summary_line(&self) -> String {
        let worst = self
            .worst()
            .map(|d| format!("worst {:+.1}% ({})", d.delta_pct, d.key))
            .unwrap_or_else(|| "no matching cells".to_string());
        if self.is_regression() {
            format!(
                "bench_compare: REGRESSION — {}/{} cells exceed +{:.0}%: {}",
                self.regressions().len(),
                self.deltas.len(),
                self.threshold_pct,
                worst
            )
        } else {
            format!(
                "bench_compare: OK — {} cells within +{:.0}%, {}",
                self.deltas.len(),
                self.threshold_pct,
                worst
            )
        }
    }

    /// Full per-cell table for human inspection.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<40} {:>14} {:>14} {:>9}\n",
            "cell", "baseline ns/it", "current ns/it", "delta"
        );
        for d in &self.deltas {
            let mark = if d.regression { "  << REGRESSION" } else { "" };
            out.push_str(&format!(
                "{:<40} {:>14.0} {:>14.0} {:>8.1}%{mark}\n",
                d.key, d.baseline_ns, d.current_ns, d.delta_pct
            ));
        }
        for key in &self.missing {
            out.push_str(&format!("{key:<40} (missing from current snapshot)\n"));
        }
        for key in &self.added {
            out.push_str(&format!("{key:<40} (new in current snapshot)\n"));
        }
        out
    }
}

/// Diffs `current` against `baseline`: a cell regresses when its
/// steady-state ns/iter grew by more than `threshold_pct` percent.
pub fn compare(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    threshold_pct: f64,
) -> Comparison {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.entries {
        let key = base.key();
        match current.entries.iter().find(|e| e.key() == key) {
            Some(cur) => {
                let delta_pct = if base.steady_ns_per_iter > 0.0 {
                    (cur.steady_ns_per_iter / base.steady_ns_per_iter - 1.0) * 100.0
                } else {
                    0.0
                };
                deltas.push(EntryDelta {
                    key,
                    baseline_ns: base.steady_ns_per_iter,
                    current_ns: cur.steady_ns_per_iter,
                    delta_pct,
                    regression: delta_pct > threshold_pct,
                });
            }
            None => missing.push(key),
        }
    }
    let added = current
        .entries
        .iter()
        .map(SnapshotEntry::key)
        .filter(|k| !baseline.entries.iter().any(|b| &b.key() == k))
        .collect();
    Comparison {
        threshold_pct,
        deltas,
        missing,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(model: &str, ns: f64) -> SnapshotEntry {
        SnapshotEntry {
            model: model.to_string(),
            dataset: "reddit".into(),
            k1: 32,
            k2: 32,
            composition: "gcn-precompute-update-first".into(),
            steady_ns_per_iter: ns,
            setup_ns: 10.0 * ns,
            regret_seconds: 0.0,
            relative_regret: 0.0,
            steady_allocations: 0,
        }
    }

    fn snapshot(entries: Vec<SnapshotEntry>) -> BenchSnapshot {
        BenchSnapshot {
            git_sha: "deadbeef".into(),
            host: "test".into(),
            device: "h100".into(),
            iterations: 100,
            entries,
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snapshot(vec![entry("gcn", 1000.0), entry("gin", 2000.0)]);
        let cmp = compare(&base, &base.clone(), 10.0);
        assert!(!cmp.is_regression(), "{}", cmp.summary_line());
        assert_eq!(cmp.deltas.len(), 2);
        assert!(cmp.missing.is_empty() && cmp.added.is_empty());
        assert!(cmp.summary_line().starts_with("bench_compare: OK"));
    }

    #[test]
    fn injected_two_x_slowdown_is_detected() {
        let base = snapshot(vec![entry("gcn", 1000.0), entry("gin", 2000.0)]);
        let mut cur = base.clone();
        cur.entries[0].steady_ns_per_iter *= 2.0; // the injected regression
        let cmp = compare(&base, &cur, 10.0);
        assert!(cmp.is_regression());
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "gcn/reddit/32x32");
        assert!((regs[0].delta_pct - 100.0).abs() < 1e-9);
        assert!(cmp.summary_line().contains("REGRESSION"));
        assert!(cmp.render().contains("<< REGRESSION"));
    }

    #[test]
    fn speedups_and_small_noise_do_not_trip_the_gate() {
        let base = snapshot(vec![entry("gcn", 1000.0), entry("gin", 2000.0)]);
        let mut cur = base.clone();
        cur.entries[0].steady_ns_per_iter *= 0.5; // got faster
        cur.entries[1].steady_ns_per_iter *= 1.05; // within noise
        assert!(!compare(&base, &cur, 10.0).is_regression());
        // ...but a tighter threshold flags the noise.
        assert!(compare(&base, &cur, 3.0).is_regression());
    }

    #[test]
    fn coverage_changes_are_reported_not_failed() {
        let base = snapshot(vec![entry("gcn", 1000.0), entry("gin", 2000.0)]);
        let cur = snapshot(vec![entry("gcn", 1000.0), entry("gat", 3000.0)]);
        let cmp = compare(&base, &cur, 10.0);
        assert!(!cmp.is_regression());
        assert_eq!(cmp.missing, vec!["gin/reddit/32x32".to_string()]);
        assert_eq!(cmp.added, vec!["gat/reddit/32x32".to_string()]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let base = snapshot(vec![entry("gcn", 1234.5)]);
        let json = base.to_json().unwrap();
        assert_eq!(BenchSnapshot::from_json(&json).unwrap(), base);
    }
}
