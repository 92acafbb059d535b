//! Takes a steady-state performance snapshot of the fixed bench grid.
//!
//! ```text
//! bench_snapshot [--out FILE] [--iterations N] [--device cpu|a100|h100]
//! ```
//!
//! Writes `BENCH_<host>.json` (or `--out`) with per-cell steady-state
//! ns/iter, selection regret, steady-state kernel-buffer allocations, the
//! git SHA, and the host name. Diff two snapshots with `bench_compare`.

use granii_bench::snapshot;
use granii_core::{Granii, GraniiOptions};
use granii_matrix::device::DeviceKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut iterations = 100usize;
    let mut device = DeviceKind::H100;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
                if out.is_none() {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            }
            "--iterations" => {
                i += 1;
                iterations = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--iterations needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--device" => {
                i += 1;
                device = match args.get(i).map(String::as_str) {
                    Some("cpu") => DeviceKind::Cpu,
                    Some("a100") => DeviceKind::A100,
                    Some("h100") => DeviceKind::H100,
                    other => {
                        eprintln!("unknown device {other:?} (expected cpu|a100|h100)");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!("unexpected argument {other}");
                eprintln!(
                    "usage: bench_snapshot [--out FILE] [--iterations N] [--device cpu|a100|h100]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let out = out.unwrap_or_else(|| format!("BENCH_{}.json", snapshot::host_name()));

    eprintln!("[offline] training cost models for {device}...");
    let granii = std::sync::Arc::new(
        Granii::train_for_device(device, GraniiOptions::fast()).expect("cost-model training"),
    );
    eprintln!(
        "[snapshot] measuring {} cells x {iterations} iterations...",
        snapshot::MODELS.len() * snapshot::DATASETS.len() * snapshot::EMBEDS.len()
    );
    let mut snap = snapshot::collect(&granii, iterations).expect("snapshot collection");
    eprintln!("[snapshot] measuring the serving-path cell...");
    snapshot::append_serving_cell(&mut snap, granii.clone(), 32).expect("serving cell");

    println!(
        "{:<40} {:>14} {:>9} {:>7}",
        "cell", "steady ns/it", "regret", "allocs"
    );
    for e in &snap.entries {
        println!(
            "{:<40} {:>14.0} {:>8.1}% {:>7}",
            e.key(),
            e.steady_ns_per_iter,
            e.relative_regret * 100.0,
            e.steady_allocations
        );
    }
    let json = snap.to_json().expect("serialize snapshot");
    std::fs::write(&out, json).expect("write snapshot");
    println!(
        "bench_snapshot: {} cells @ {} on {} ({}) -> {out}",
        snap.entries.len(),
        snap.git_sha,
        snap.host,
        snap.device
    );
}
