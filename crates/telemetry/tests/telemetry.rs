//! Behavioral tests for spans and exporters.
//!
//! Telemetry state is global (one enabled flag, shared buffers), so every
//! test takes `TEST_LOCK` and starts from `reset()` — the default test
//! harness runs tests on concurrent threads.

use std::sync::Mutex;

use granii_telemetry::{export, span, AttrValue, MetricsSnapshot, Sketch, DEFAULT_SKETCH_ALPHA};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    let g = TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    granii_telemetry::reset();
    granii_telemetry::enable();
    g
}

#[test]
fn nesting_depth_and_order_are_recorded() {
    let _g = guard();
    {
        let _a = span!("outer");
        {
            let _b = span!("mid");
            let _c = span!("inner");
        }
        let _d = span!("mid2");
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    let view: Vec<(&str, u16)> = spans.iter().map(|s| (s.name, s.depth)).collect();
    // take_spans orders by (tid, seq) = span-open order.
    assert_eq!(view, [("outer", 0), ("mid", 1), ("inner", 2), ("mid2", 1)]);
}

#[test]
fn spans_from_parallel_threads_keep_per_thread_order() {
    let _g = guard();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let _outer = span!("worker", index = t as u64);
                for _ in 0..3 {
                    let _inner = span!("unit");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    assert_eq!(spans.len(), 16);
    // Per thread: three depth-1 "unit" spans then the depth-0 "worker" root,
    // in increasing seq order with no interleaving from other threads.
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.dedup();
    assert_eq!(
        tids.len(),
        4,
        "each thread's spans are contiguous: {tids:?}"
    );
    for tid in tids {
        let per: Vec<_> = spans.iter().filter(|s| s.tid == tid).collect();
        assert_eq!(per.len(), 4);
        assert!(per.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(
            per.iter()
                .filter(|s| s.name == "worker" && s.depth == 0)
                .count(),
            1
        );
        assert_eq!(
            per.iter()
                .filter(|s| s.name == "unit" && s.depth == 1)
                .count(),
            3
        );
    }
}

#[test]
fn attributes_capture_values() {
    let _g = guard();
    {
        let _s = span!("attrs", edges = 42u64, frac = 0.25, label = "x");
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    assert_eq!(spans.len(), 1);
    assert_eq!(
        spans[0].attrs,
        vec![
            ("edges", AttrValue::U64(42)),
            ("frac", AttrValue::F64(0.25)),
            ("label", AttrValue::Str("x".into())),
        ]
    );
}

#[test]
fn disabled_telemetry_records_nothing_and_is_cheap() {
    let _g = guard();
    granii_telemetry::disable();
    let start = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        // Attribute expressions must not be evaluated when disabled.
        let _s = span!(
            "noop",
            expensive = {
                assert!(i < u64::MAX, "attr evaluated while disabled");
                i
            }
        );
    }
    let elapsed = start.elapsed();
    // Generous bound: 1M disabled instrumentation points in a debug build.
    // Each is one relaxed atomic load; even un-optimized this is far under a
    // second on any host.
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "disabled path took {elapsed:?}"
    );
    assert!(granii_telemetry::take_spans().is_empty());
}

#[test]
fn chrome_trace_has_required_event_fields() {
    let _g = guard();
    {
        let _a = span!("root", n = 7u64);
        let _b = span!("leaf");
    }
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    let json = export::chrome_trace(&spans);
    // Schema: a JSON array of complete events with name/ph/ts/dur/pid/tid.
    assert!(json.trim_start().starts_with('['));
    assert!(json.trim_end().ends_with(']'));
    for field in [
        "\"name\":",
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":",
        "\"tid\":",
    ] {
        assert_eq!(json.matches(field).count(), 2, "missing {field} in {json}");
    }
    assert!(json.contains("\"n\":7"));
}

#[test]
fn metrics_json_lists_counters_and_sketches() {
    let latency = Sketch::new(DEFAULT_SKETCH_ALPHA);
    latency.record_ns(1_000_000);
    let snap = MetricsSnapshot {
        counters: vec![("kernels".to_owned(), 9)],
        sketches: vec![latency.snapshot("latency")],
        ..MetricsSnapshot::default()
    };
    let json = export::metrics_json(&snap);
    assert!(json.contains("\"kernels\":9"));
    assert!(json.contains("\"latency\""));
    assert!(json.contains("\"count\":1"));
    assert!(json.contains("\"min_ns\":1000000"), "{json}");
}

#[test]
fn metrics_json_exports_gauges() {
    let snap = MetricsSnapshot {
        gauges: vec![
            ("serve.cache_hit_rate".to_owned(), 0.9375),
            ("serve.queue_depth".to_owned(), 7.0),
        ],
        ..MetricsSnapshot::default()
    };
    let json = export::metrics_json(&snap);
    assert!(json.contains("\"gauges\":{"), "{json}");
    assert!(json.contains("\"serve.queue_depth\":7"), "{json}");
    assert!(json.contains("\"serve.cache_hit_rate\":0.9375"), "{json}");
}

#[test]
fn summary_indents_children_under_parents() {
    let _g = guard();
    {
        let _a = span!("phase");
        let _b = span!("step");
    }
    granii_telemetry::disable();
    let text = export::summary(&granii_telemetry::take_spans());
    assert!(text.contains("\nphase"), "{text}");
    assert!(text.contains("\n  step"), "{text}");
}
