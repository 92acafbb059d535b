//! Schema validation of the hand-written exporters: every JSON exporter is
//! round-tripped through the (vendored) serde_json parser and checked
//! against its documented shape — valid JSON, required keys, monotonic
//! timestamps, non-negative durations — including output produced under
//! concurrent span recording.
//!
//! Telemetry state is process-global, so every test takes `TEST_LOCK`.

use std::sync::Mutex;

use granii_telemetry::{
    export, span, MetricsSnapshot, ProfileReport, ProfileRow, Sketch, DEFAULT_SKETCH_ALPHA,
};
use serde_json::Value;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    let g = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    granii_telemetry::reset();
    granii_telemetry::enable();
    g
}

/// Field access helper: the vendored `Value` exposes `as_object()` rather
/// than `Index`, and parses every number as `f64`.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .unwrap_or_else(|| panic!("not an object: {v:?}"))
        .get(key)
        .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}"))
}

fn num(v: &Value, key: &str) -> f64 {
    field(v, key)
        .as_f64()
        .unwrap_or_else(|| panic!("{key:?} is not a number"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string"))
}

fn sample_report() -> ProfileReport {
    ProfileReport {
        expr: "AX(XW) \"quoted\"".to_owned(),
        device: "cpu".to_owned(),
        iterations: 5,
        rows: vec![
            ProfileRow {
                index: 0,
                name: "gemm".to_owned(),
                phase: "setup".to_owned(),
                calls: 1,
                host_ns: 12_000,
                charged_ns: 10_000,
                predicted_ns: 9_000,
                flops: 2_048,
                bytes: 4_096,
            },
            ProfileRow {
                index: 0,
                name: "spmm".to_owned(),
                phase: "iter".to_owned(),
                calls: 5,
                host_ns: 55_000,
                charged_ns: 50_000,
                predicted_ns: 0,
                flops: 10_240,
                bytes: 20_480,
            },
        ],
    }
}

/// Asserts the chrome-trace invariants shared by both exporters: an array
/// of objects with name/cat/ph/pid keys, `"X"` events carrying non-negative
/// ts + dur, `"C"` events carrying ts only, and monotone non-decreasing
/// timestamps per thread (spans) and per counter timeline.
fn assert_chrome_schema(json: &str) -> Vec<Value> {
    let value: Value = serde_json::from_str(json).expect("valid JSON");
    let events = value.as_array().expect("trace is an array").clone();
    let mut last_span_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut last_counter_ts = 0.0f64;
    for event in &events {
        assert!(!text(event, "name").is_empty());
        assert_eq!(text(event, "cat"), "granii");
        assert!(num(event, "pid") >= 0.0);
        let ts = num(event, "ts");
        assert!(ts >= 0.0, "negative ts: {event:?}");
        match text(event, "ph") {
            "X" => {
                assert!(num(event, "dur") >= 0.0, "negative dur: {event:?}");
                let tid = num(event, "tid") as u64;
                // Spans are emitted in (tid, seq) = open order, so start
                // timestamps are non-decreasing per thread.
                let prev = last_span_ts.entry(tid).or_insert(0.0);
                assert!(ts >= *prev, "ts regressed on tid {tid}: {ts} < {prev}");
                *prev = ts;
            }
            "C" => {
                assert!(
                    ts >= last_counter_ts,
                    "counter ts regressed: {ts} < {last_counter_ts}"
                );
                last_counter_ts = ts;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    events
}

#[test]
fn chrome_trace_parses_with_monotonic_timestamps() {
    let _g = guard();
    {
        let _a = span!("outer", label = "a\"b\nc");
        for _ in 0..3 {
            let _b = span!("inner", edges = 42u64);
        }
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    let events = assert_chrome_schema(&export::chrome_trace(&spans));
    assert_eq!(events.len(), 4);
    // The escaped attribute survives the round trip intact.
    let outer = events
        .iter()
        .find(|e| text(e, "name") == "outer")
        .expect("outer span");
    assert_eq!(text(field(outer, "args"), "label"), "a\"b\nc");
}

#[test]
fn chrome_trace_is_valid_under_concurrent_recording() {
    let _g = guard();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let _outer = span!("worker", index = t as u64);
                for i in 0..50 {
                    let _inner = span!("unit", step = i as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    assert_eq!(spans.len(), 8 * 51);
    let events = assert_chrome_schema(&export::chrome_trace(&spans));
    assert_eq!(events.len(), 8 * 51);
    let tids: std::collections::BTreeSet<u64> =
        events.iter().map(|e| num(e, "tid") as u64).collect();
    assert_eq!(tids.len(), 8);
}

/// A snapshot as an owner (a server, say) fills it: one counter and one
/// latency sketch over five samples.
fn sample_metrics() -> MetricsSnapshot {
    let lat = Sketch::new(DEFAULT_SKETCH_ALPHA);
    for ns in [100u64, 200, 300, 400, 50_000] {
        lat.record_ns(ns);
    }
    MetricsSnapshot {
        counters: vec![("kernels".to_owned(), 3)],
        sketches: vec![lat.snapshot("lat")],
        ..MetricsSnapshot::default()
    }
}

#[test]
fn metrics_json_parses_and_orders_quantiles() {
    let json = export::metrics_json(&sample_metrics());
    let value: Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(num(field(&value, "counters"), "kernels"), 3.0);
    let h = field(field(&value, "sketches"), "lat");
    assert_eq!(num(h, "count"), 5.0);
    assert_eq!(num(h, "min_ns"), 100.0);
    assert_eq!(num(h, "max_ns"), 50_000.0);
    let (p50, p95, p99) = (num(h, "p50_ns"), num(h, "p95_ns"), num(h, "p99_ns"));
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    assert!((100.0..=50_000.0).contains(&p50));
    assert!((32_768.0..=50_000.0).contains(&p99), "p99 = {p99}");
    // Sparse buckets decode as [index, count] pairs summing to the count.
    let total: f64 = field(h, "buckets")
        .as_array()
        .expect("buckets array")
        .iter()
        .map(|pair| pair.as_array().expect("pair")[1].as_f64().expect("count"))
        .sum();
    assert_eq!(total, 5.0);
}

#[test]
fn profile_json_parses_with_consistent_totals() {
    let report = sample_report();
    let json = export::profile_json(&report);
    let value: Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(text(&value, "expr"), "AX(XW) \"quoted\"");
    assert_eq!(text(&value, "device"), "cpu");
    assert_eq!(num(&value, "iterations"), 5.0);
    let rows = field(&value, "rows").as_array().expect("rows array");
    assert_eq!(rows.len(), 2);
    let mut host_total = 0.0;
    let mut predicted_total = 0.0;
    for row in rows {
        for key in [
            "calls",
            "host_ns",
            "charged_ns",
            "predicted_ns",
            "flops",
            "bytes",
        ] {
            assert!(num(row, key) >= 0.0, "negative {key}: {row:?}");
        }
        assert!(num(row, "host_ns_per_call") >= 0.0);
        host_total += num(row, "host_ns");
        predicted_total += num(row, "predicted_ns");
    }
    assert_eq!(num(&value, "total_host_ns"), host_total);
    assert_eq!(num(&value, "total_predicted_ns"), predicted_total);
    // A zero prediction yields a null ratio, not NaN/Inf.
    assert!(field(&rows[1], "roofline_ratio").is_null());
    assert!(num(&rows[0], "roofline_ratio") > 1.0);
}

#[test]
fn chrome_trace_with_counters_emits_counter_tracks() {
    let _g = guard();
    {
        let _a = span!("iterate");
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    let events = assert_chrome_schema(&export::chrome_trace_with_counters(
        &spans,
        &sample_report(),
    ));
    let counters: Vec<&Value> = events.iter().filter(|e| text(e, "ph") == "C").collect();
    // Two tracks (flops + bytes) sampled once per row.
    assert_eq!(counters.len(), 4);
    assert!(counters.iter().any(|e| text(e, "name") == "profile.flops"));
    assert!(counters.iter().any(|e| text(e, "name") == "profile.bytes"));
    let spmm_flops = counters
        .iter()
        .find(|e| {
            text(e, "name") == "profile.flops"
                && field(e, "args")
                    .as_object()
                    .expect("args")
                    .contains_key("spmm")
        })
        .expect("spmm flops sample");
    assert_eq!(num(field(spmm_flops, "args"), "spmm"), (10_240 / 5) as f64);
    assert_eq!(events.iter().filter(|e| text(e, "ph") == "X").count(), 1);
}

#[test]
fn profile_table_lists_every_instruction() {
    let report = sample_report();
    let table = export::profile_table(&report);
    assert!(table.contains("gemm"), "{table}");
    assert!(table.contains("spmm"), "{table}");
    assert!(table.contains("setup"), "{table}");
    assert!(table.contains("iter"), "{table}");
    // The zero-prediction row renders a dash, not a division artifact.
    assert!(table.contains('-'), "{table}");
}

#[test]
fn metrics_json_round_trips_capture_timestamps() {
    let snap = MetricsSnapshot {
        captured_at_ns: 1_250_000_042,
        uptime_ns: 1_000_000_007,
        ..sample_metrics()
    };
    // The clock fields survive the JSON round trip at top level.
    let value: Value = serde_json::from_str(&export::metrics_json(&snap)).expect("valid JSON");
    assert_eq!(num(&value, "captured_at_ns"), snap.captured_at_ns as f64);
    assert_eq!(num(&value, "uptime_ns"), snap.uptime_ns as f64);
}
