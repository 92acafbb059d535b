//! Flight-recorder ring under fire: concurrent writers wrapping the ring
//! many times over must never produce a torn or duplicated record, the
//! drop counter must stay monotone, and snapshots taken mid-write must
//! only ever contain fully-published records.
//!
//! The protocol under test (see `serve::recorder`): slot stamps encode
//! never-written / mid-copy / published-for-index; writers claim via CAS
//! and drop on collision instead of blocking; readers double-check the
//! stamp around a volatile copy and discard torn reads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use granii_serve::{FlightRecorder, RecordKind};

/// A payload whose fields are all derived from the sequence-unique `probe`
/// value: any torn read (fields from two different records) breaks the
/// relationships and the asserts below catch it.
fn probe_kind(probe: u64) -> RecordKind {
    RecordKind::Complete {
        outcome: "hit",
        latency_us: probe.wrapping_mul(3),
        batch: (probe % 7) as u32 + 1,
        degraded: probe.is_multiple_of(2),
    }
}

fn assert_untorn(id: u64, fingerprint: u64, kind: &RecordKind) {
    assert_eq!(
        fingerprint,
        id.wrapping_mul(0x9e37_79b9),
        "torn fingerprint"
    );
    match *kind {
        RecordKind::Complete {
            latency_us,
            batch,
            degraded,
            ..
        } => {
            assert_eq!(latency_us, id.wrapping_mul(3), "torn latency payload");
            assert_eq!(batch, (id % 7) as u32 + 1, "torn batch payload");
            assert_eq!(degraded, id.is_multiple_of(2), "torn degraded payload");
        }
        ref other => panic!("unexpected record kind {other:?}"),
    }
}

#[test]
fn eight_writers_wrap_the_ring_without_tearing_or_duplicates() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 20_000;
    // Small ring so the writers lap it thousands of times.
    let recorder = Arc::new(FlightRecorder::new(64));

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let recorder = recorder.clone();
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let probe = (w as u64) * PER_WRITER + i;
                    recorder.record(
                        probe,
                        probe.wrapping_mul(0x9e37_79b9),
                        "gcn",
                        probe_kind(probe),
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(recorder.written(), total, "every record claimed an index");
    let dropped = recorder.dropped();
    assert!(
        dropped < total,
        "collisions may drop some records, never all ({dropped}/{total})"
    );

    let snapshot = recorder.snapshot();
    assert!(!snapshot.is_empty(), "quiesced ring has published records");
    assert!(snapshot.len() <= recorder.capacity());
    let mut prev_seq = None;
    for record in &snapshot {
        // snapshot() sorts by seq; strict inequality also proves no
        // duplicated slot survived.
        if let Some(prev) = prev_seq {
            assert!(record.seq > prev, "duplicate or unsorted seq");
        }
        prev_seq = Some(record.seq);
        assert_eq!(record.model, "gcn");
        assert_untorn(record.id, record.fingerprint, &record.kind);
    }
    // After the dust settles, the survivors are all from the newest laps.
    let oldest = snapshot.first().unwrap().seq;
    assert!(
        oldest >= total - 2 * recorder.capacity() as u64,
        "survivors must come from the final laps (oldest seq {oldest})"
    );
}

#[test]
fn drop_counter_is_monotone_while_writers_run() {
    let recorder = Arc::new(FlightRecorder::new(16));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let recorder = recorder.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let probe = (w as u64) << 32 | i;
                    recorder.record(
                        probe,
                        probe.wrapping_mul(0x9e37_79b9),
                        "gcn",
                        probe_kind(probe),
                    );
                    i += 1;
                }
            })
        })
        .collect();

    let mut last_dropped = 0;
    let mut last_written = 0;
    for _ in 0..200 {
        let dropped = recorder.dropped();
        let written = recorder.written();
        assert!(dropped >= last_dropped, "drop counter went backwards");
        assert!(written >= last_written, "write counter went backwards");
        last_dropped = dropped;
        last_written = written;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for handle in writers {
        handle.join().unwrap();
    }
}

#[test]
fn snapshots_taken_while_writing_never_observe_torn_records() {
    let recorder = Arc::new(FlightRecorder::new(32));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let recorder = recorder.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let probe = (w as u64) << 32 | i;
                    recorder.record(
                        probe,
                        probe.wrapping_mul(0x9e37_79b9),
                        "gcn",
                        probe_kind(probe),
                    );
                    i += 1;
                }
            })
        })
        .collect();

    for _ in 0..500 {
        let snapshot = recorder.snapshot();
        let mut prev_seq = None;
        for record in &snapshot {
            if let Some(prev) = prev_seq {
                assert!(record.seq > prev, "duplicate seq in live snapshot");
            }
            prev_seq = Some(record.seq);
            assert_untorn(record.id, record.fingerprint, &record.kind);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for handle in writers {
        handle.join().unwrap();
    }
}
