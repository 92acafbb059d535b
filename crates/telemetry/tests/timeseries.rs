//! Time-series ring invariants under wraparound and concurrent sampling
//! (ISSUE 10 satellite): the ring must keep exactly the newest frames in
//! time order, read-time deltas must match the true counter increments
//! across the wrap seam, and a reader snapshotting *while* a sampler thread
//! writes must only ever observe internally consistent frames.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use granii_telemetry::{SampleKind, TimeSeriesRing};

#[test]
fn wraparound_preserves_order_and_exact_deltas() {
    let ring = TimeSeriesRing::new(16);
    let c = ring.column("events", SampleKind::Counter);
    // 100 frames of a counter stepping by its frame index: after wrapping
    // 6+ times the retained window must be frames 84..=99 with deltas that
    // reconstruct the original increments exactly.
    let mut cumulative = 0u64;
    for i in 0..100u64 {
        cumulative += i;
        ring.push(i * 1_000_000, &[(c, cumulative as f64)]);
    }
    assert_eq!(ring.written(), 100);
    let snap = ring.snapshot();
    assert_eq!(snap.frames(), 16);
    assert!(
        snap.at_ns.windows(2).all(|w| w[1] > w[0]),
        "timestamps strictly increase across the wrap seam"
    );
    assert_eq!(snap.at_ns[0], 84 * 1_000_000);
    let deltas = snap.deltas(0);
    assert!(
        deltas[0].is_nan(),
        "first retained frame has no predecessor"
    );
    for (offset, delta) in deltas.iter().enumerate().skip(1) {
        assert_eq!(*delta, (84 + offset) as f64, "delta at offset {offset}");
    }
}

#[test]
fn concurrent_sampling_yields_consistent_snapshots() {
    let ring = Arc::new(TimeSeriesRing::new(8));
    let completed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    // Writer thread: bump the "completed" source counter and sample it.
    let writer = {
        let ring = Arc::clone(&ring);
        let completed = Arc::clone(&completed);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let col = ring.column("completed", SampleKind::Counter);
            let mut tick = 0u64;
            while !stop.load(Ordering::Acquire) {
                completed.fetch_add(3, Ordering::Relaxed);
                tick += 1;
                ring.push(
                    tick * 1_000,
                    &[(col, completed.load(Ordering::Relaxed) as f64)],
                );
                std::thread::yield_now();
            }
        })
    };

    // Wait for the writer's first frame: otherwise the reader can take all
    // 200 snapshots and stop the writer before it is ever scheduled.
    while ring.written() == 0 {
        std::thread::yield_now();
    }

    // Reader: every concurrent snapshot must be frame-consistent — bounded
    // size, nondecreasing timestamps, nondecreasing counter, and every
    // delta a multiple of the increment (no torn frames).
    let mut snapshots = 0u64;
    while snapshots < 200 {
        let snap = ring.snapshot();
        assert!(snap.frames() <= 8);
        assert!(
            snap.at_ns.windows(2).all(|w| w[1] >= w[0]),
            "{:?}",
            snap.at_ns
        );
        if let Some(series) = snap.column("completed") {
            assert!(
                series.values.windows(2).all(|w| w[1] >= w[0]),
                "counter column never decreases: {:?}",
                series.values
            );
            for delta in snap.deltas(0).iter().skip(1) {
                assert!(
                    delta.is_nan() || (*delta >= 0.0 && *delta % 3.0 == 0.0),
                    "torn frame: delta {delta}"
                );
            }
        }
        snapshots += 1;
    }
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
    assert!(ring.written() > 0);
}

#[test]
fn sampler_thread_drives_the_ring_and_json_round_trips() {
    let ring = Arc::new(TimeSeriesRing::new(32));
    let source = Arc::new(AtomicU64::new(0));
    let col = ring.column("bench.ops", SampleKind::Counter);
    let gauge = ring.column("bench.depth", SampleKind::Gauge);
    let handle = {
        let ring = Arc::clone(&ring);
        let source = Arc::clone(&source);
        granii_telemetry::start_sampler(Duration::from_millis(2), move || {
            let v = source.fetch_add(7, Ordering::Relaxed) + 7;
            ring.push_now(&[(col, v as f64), (gauge, 1.5)]);
        })
    };
    while ring.written() < 4 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();

    let snap = ring.snapshot();
    let json = granii_telemetry::timeseries_json(&snap);
    // The vendored Value exposes `as_object()` rather than `Index`.
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("timeline JSON parses");
    let root = parsed.as_object().expect("timeline JSON is an object");
    assert_eq!(
        root.get("frames").and_then(|v| v.as_f64()).unwrap() as usize,
        snap.frames()
    );
    let columns = root
        .get("columns")
        .and_then(|v| v.as_array())
        .expect("columns array");
    let by_name = |name: &str| {
        columns
            .iter()
            .map(|c| c.as_object().expect("column object"))
            .find(|c| c.get("name").and_then(|v| v.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("column {name} exported"))
    };
    let ops = by_name("bench.ops");
    assert_eq!(ops.get("kind").and_then(|v| v.as_str()), Some("counter"));
    let delta = ops
        .get("delta")
        .and_then(|v| v.as_array())
        .expect("counter delta series");
    assert_eq!(delta.len(), snap.frames());
    assert!(delta[0].is_null(), "first delta is null");
    assert_eq!(delta[1].as_f64(), Some(7.0));
    let depth = by_name("bench.depth");
    assert_eq!(depth.get("kind").and_then(|v| v.as_str()), Some("gauge"));
    assert!(depth.get("delta").is_none(), "gauges carry no delta series");
}
