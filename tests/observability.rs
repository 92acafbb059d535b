//! End-to-end checks of the telemetry layer: a traced CLI run producing a
//! valid Chrome trace, and span coverage of every matrix primitive.
//!
//! Telemetry state is process-global, so the tests serialize on `TEST_LOCK`.

use std::collections::BTreeSet;
use std::sync::Mutex;

use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::{PrimitiveKind, WorkStats};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn cli(args: &[&str]) -> Result<String, String> {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    granii_cli::run(&granii_cli::Args::parse(&raw)?)
}

/// The acceptance check for `--trace-out`: a traced `bench` run (kernels +
/// selection + a training step) must emit a Chrome trace-event JSON array of
/// objects with `name`/`ph`/`ts` keys and at least four distinct span names
/// spanning the matrix-kernel, selection, and training layers.
#[test]
fn traced_cli_bench_writes_valid_chrome_trace() {
    let _g = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join("granii-observability-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let models = dir.join("models.json");
    let trace = dir.join("trace.json");
    let models_s = models.to_str().expect("utf8");
    let trace_s = trace.to_str().expect("utf8");

    cli(&[
        "train", "--device", "h100", "--out", models_s, "--fast", "true",
    ])
    .expect("train");
    let out = cli(&[
        "bench",
        "--models",
        models_s,
        "--model",
        "gcn",
        "--k1",
        "8",
        "--k2",
        "8",
        "--iters",
        "2",
        "--dataset",
        "RD",
        "--trace-out",
        trace_s,
        "--trace-summary",
    ])
    .expect("bench");
    assert!(out.contains("GRANII's choice"), "{out}");
    assert!(out.contains("training step"), "{out}");
    assert!(out.contains("trace:"), "{out}");

    let json = std::fs::read_to_string(&trace).expect("trace file");
    let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = value.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty());
    let mut names = BTreeSet::new();
    for event in events {
        let obj = event.as_object().expect("event is an object");
        let name = obj.get("name").and_then(|v| v.as_str()).expect("name key");
        assert_eq!(obj.get("ph").and_then(|v| v.as_str()), Some("X"), "ph key");
        assert!(obj.get("ts").and_then(|v| v.as_f64()).is_some(), "ts key");
        assert!(obj.get("dur").and_then(|v| v.as_f64()).is_some(), "dur key");
        assert!(obj.get("tid").and_then(|v| v.as_f64()).is_some(), "tid key");
        names.insert(name.to_string());
    }
    assert!(
        names.len() >= 4,
        "expected >= 4 distinct span names, got {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("kernel.")),
        "matrix layer missing: {names:?}"
    );
    assert!(
        names.contains("select"),
        "selection layer missing: {names:?}"
    );
    assert!(
        names.contains("train.step"),
        "training layer missing: {names:?}"
    );

    std::fs::remove_file(&models).ok();
    std::fs::remove_file(&trace).ok();
}

/// The acceptance check for `select --audit`: per-candidate predicted cost,
/// chosen-vs-oracle regret, and the cost model's ln-latency MAPE must all be
/// reported.
#[test]
fn audited_cli_select_reports_regret_and_oracle() {
    let dir = std::env::temp_dir().join("granii-audit-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let models = dir.join("models.json");
    let models_s = models.to_str().expect("utf8");

    cli(&[
        "train", "--device", "h100", "--out", models_s, "--fast", "true",
    ])
    .expect("train");
    let out = cli(&[
        "select",
        "--models",
        models_s,
        "--model",
        "gcn",
        "--k1",
        "256",
        "--k2",
        "64",
        "--dataset",
        "MC",
        "--audit",
    ])
    .expect("select");
    assert!(out.contains("selected:"), "{out}");
    assert!(out.contains("audit: oracle"), "{out}");
    assert!(out.contains("regret"), "{out}");
    assert!(out.contains("ln-latency MAPE"), "{out}");
    assert!(out.contains("<- chosen"), "{out}");
    // Eligible candidates each carry a measured and a predicted column.
    let rows = out
        .lines()
        .filter(|l| l.contains(" ms ") && l.contains("gcn/"))
        .count();
    assert!(rows >= 2, "expected >= 2 measured candidates: {out}");

    std::fs::remove_file(&models).ok();
}

/// Every primitive the engine executes must surface as a span named after its
/// kind, carrying the `WorkStats`-derived attributes.
#[test]
fn every_primitive_kind_emits_a_span() {
    let _g = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    granii_telemetry::reset();
    granii_telemetry::enable();
    let engine = Engine::modeled(DeviceKind::A100);
    engine.run(WorkStats::gemm(16, 16, 16), || ());
    engine.run(WorkStats::spmm(16, 64, 8, true, 0.5), || ());
    engine.run(WorkStats::spmm(16, 64, 8, false, 0.5), || ());
    engine.charge(WorkStats::sddmm(16, 64, 8, 0.5));
    engine.charge(WorkStats::row_broadcast(16, 8));
    engine.charge(WorkStats::col_broadcast(16, 8));
    engine.charge(WorkStats::elementwise(128, 1));
    engine.charge(WorkStats::edge_softmax(16, 64, 0.5));
    engine.charge(WorkStats::binning(64, 16));
    granii_telemetry::disable();

    let spans = granii_telemetry::take_spans();
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for kind in PrimitiveKind::ALL {
        assert!(
            names.contains(kind.span_name()),
            "missing span for {kind}: {names:?}"
        );
    }
    // WorkStats attributes ride along on every kernel span.
    for span in &spans {
        assert!(span.attrs.iter().any(|(k, _)| *k == "flops"), "{span:?}");
        assert!(span.attrs.iter().any(|(k, _)| *k == "bytes"), "{span:?}");
    }

    // The engine's own profile holds the numbers: one entry per dispatch,
    // covering every kind.
    let profile = engine.take_profile();
    assert_eq!(profile.entries.len(), 9);
    let kinds: BTreeSet<PrimitiveKind> = profile.entries.iter().map(|e| e.kind).collect();
    assert_eq!(kinds.len(), PrimitiveKind::ALL.len(), "{kinds:?}");
    assert_eq!(profile.by_kind().len(), PrimitiveKind::ALL.len());
    granii_telemetry::reset();
}
