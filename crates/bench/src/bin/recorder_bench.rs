//! Hot-path cost of the serving flight recorder (`granii_serve::FlightRecorder`).
//!
//! ```text
//! recorder_bench [--records N] [--threads N] [--capacity N]
//! ```
//!
//! The recorder rides EVERY request — admission, batch formation, cache
//! traffic, completion — so its per-record cost is a direct tax on serve
//! throughput. This bench measures `record()` in the two regimes that
//! matter:
//!
//! - **single writer**: the uncontended fast path (one fetch_add, one CAS,
//!   a fixed-size copy, one release store),
//! - **N concurrent writers** on one shared ring: the worst case, where
//!   writers race for slots and collisions resolve by dropping (never
//!   blocking), plus a concurrent reader taking continuous non-destructive
//!   snapshots to price the seqlock validation traffic.
//!
//! Reports ns/record for each regime and the drop rate under contention.
//! Every line is machine-greppable (`key value` pairs) so CI and
//! EXPERIMENTS.md can quote it directly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use granii_serve::{FlightRecorder, RecordKind, RECORDER_CAPACITY};

const USAGE: &str = "usage: recorder_bench [--records N] [--threads N] [--capacity N]";

fn parse_count(args: &[String], i: usize, flag: &str) -> usize {
    match args.get(i).and_then(|s| s.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer");
            std::process::exit(2);
        }
    }
}

/// The record a cache hit writes — representative of the steady-state mix.
fn payload(i: u64) -> RecordKind {
    RecordKind::Complete {
        outcome: "hit",
        latency_us: i,
        queue_us: 0,
        batch: 1,
        degraded: false,
    }
}

fn single_writer(records: u64, capacity: usize) -> f64 {
    let recorder = FlightRecorder::new(capacity);
    let start = Instant::now();
    for i in 0..records {
        recorder.record(i, i.wrapping_mul(0x9e37_79b9), "gcn", payload(i));
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    assert_eq!(recorder.written(), records);
    elapsed / records as f64
}

fn contended(records_per_thread: u64, threads: usize, capacity: usize) -> (f64, f64, usize) {
    let recorder = Arc::new(FlightRecorder::new(capacity));
    let stop = Arc::new(AtomicBool::new(false));
    // A continuous snapshotter prices the reader side of the seqlock while
    // writers publish: its validation loads are the traffic record() must
    // absorb without blocking.
    let reader = {
        let recorder = recorder.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut snapshots = 0usize;
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(recorder.snapshot());
                snapshots += 1;
            }
            snapshots
        })
    };
    let start = Instant::now();
    let writers: Vec<_> = (0..threads)
        .map(|t| {
            let recorder = recorder.clone();
            std::thread::spawn(move || {
                for i in 0..records_per_thread {
                    let probe = (t as u64) << 40 | i;
                    recorder.record(
                        probe,
                        probe.wrapping_mul(0x9e37_79b9),
                        "gcn",
                        payload(probe),
                    );
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().unwrap();
    let total = records_per_thread * threads as u64;
    assert_eq!(recorder.written(), total);
    let drop_rate = recorder.dropped() as f64 / total as f64;
    (elapsed / total as f64, drop_rate, snapshots)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut records = 2_000_000u64;
    let mut threads = 8usize;
    let mut capacity = RECORDER_CAPACITY;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                records = parse_count(&args, i, "--records") as u64;
            }
            "--threads" => {
                i += 1;
                threads = parse_count(&args, i, "--threads");
            }
            "--capacity" => {
                i += 1;
                capacity = parse_count(&args, i, "--capacity");
            }
            other => {
                eprintln!("unexpected argument {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Warm-up pass so the ring's pages are faulted in before timing.
    let _ = single_writer(records.min(100_000), capacity);

    let single_ns = single_writer(records, capacity);
    let (contended_ns, drop_rate, snapshots) =
        contended(records / threads as u64, threads, capacity);

    println!("recorder_bench: capacity {capacity}, {records} records");
    println!("  single_writer_ns_per_record {single_ns:.1}");
    println!(
        "  contended_ns_per_record {contended_ns:.1} threads {threads} \
         drop_rate {drop_rate:.4} reader_snapshots {snapshots}"
    );
}
