//! Time-series ring invariants under wraparound and concurrent sampling:
//! the ring must keep exactly the newest frames in time order, consecutive
//! counter samples must difference to the true increments across the wrap
//! seam, and a reader snapshotting *while* a sampler thread writes must
//! only ever observe internally consistent frames.

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
    let values = &snap.columns[0].values;
    assert_eq!(values[0], (0..=84u64).sum::<u64>() as f64);
    for (offset, pair) in values.windows(2).enumerate() {
        let delta = pair[1] - pair[0];
        assert_eq!(delta, (85 + offset) as f64, "delta at offset {offset}");
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
            for pair in series.values.windows(2) {
                let delta = pair[1] - pair[0];
                assert!(
                    delta.is_nan() || (delta >= 0.0 && delta % 3.0 == 0.0),
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
fn sampler_thread_drives_the_ring() {
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
    assert!(
        ring.written() >= 1,
        "first frame taken before start returns"
    );
    while ring.written() < 4 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();

    let snap = ring.snapshot();
    let ops = snap.column("bench.ops").expect("counter column");
    assert_eq!(ops.kind, SampleKind::Counter);
    assert_eq!(ops.values.len(), snap.frames());
    assert_eq!(ops.values[0], 7.0, "the caller-thread sample is the first");
    assert!(ops.values.windows(2).all(|w| w[1] - w[0] == 7.0));
    let depth = snap.column("bench.depth").expect("gauge column");
    assert_eq!(depth.kind, SampleKind::Gauge);
    assert!(depth.values.iter().all(|&v| v == 1.5));
}
