//! Load test of the serving runtime (`granii-serve`).
//!
//! ```text
//! serve_bench [--clients N] [--requests N] [--workers N] [--queue-depth N]
//!             [--cache N] [--max-batch N] [--fairness-share F]
//!             [--device cpu|a100|h100]
//!             [--open-loop] [--rps F] [--duration-secs F] [--skew F]
//!             [--same-signature] [--seed N]
//! ```
//!
//! Trains a fast cost-model set offline, starts one shared [`Server`], and
//! drives it under one of two load models:
//!
//! - **Closed loop** (default): `--clients` clients issue `--requests`
//!   requests back-to-back, round-robin over a 12-signature mixed workload
//!   (3 models x 2 datasets x 2 embedding pairs). Offered load adapts to
//!   service rate — sustainable-throughput numbers.
//! - **Open loop** (`--open-loop`): Poisson arrivals at `--rps` for
//!   `--duration-secs`, zipf-skewed over the signatures by `--skew` — the
//!   regime that exercises continuous batching. `--same-signature` collapses
//!   the workload to one signature (the pure signature-coalescing ceiling).
//!
//! Reports sustained throughput, p50/p95/p99/max end-to-end latency (exact,
//! from the client samples), the deep tail (p99/p999) from the server's
//! per-outcome latency sketches merged into one distribution, the server's
//! cache / shed / degradation counters, and (open loop) the batch-size
//! distribution plus the per-tenant metering table (who consumed what under
//! the skewed tenant mix, ranked by charged engine time).
//!
//! [`Server`]: granii_serve::Server

use std::sync::Arc;

use granii_bench::serve_load::{self, LoadConfig, OpenLoopConfig};
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, ServerStatus};

const USAGE: &str = "usage: serve_bench [--clients N] [--requests N] [--workers N] \
                     [--queue-depth N] [--cache N] [--max-batch N] [--fairness-share F] \
                     [--device cpu|a100|h100] \
                     [--open-loop] [--rps F] [--duration-secs F] [--skew F] \
                     [--same-signature] [--seed N]";

fn parse_count(args: &[String], i: usize, flag: &str) -> usize {
    match args.get(i).and_then(|s| s.parse().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer");
            std::process::exit(2);
        }
    }
}

fn parse_f64(args: &[String], i: usize, flag: &str) -> f64 {
    match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
        Some(v) if v.is_finite() && v >= 0.0 => v,
        _ => {
            eprintln!("{flag} needs a non-negative number");
            std::process::exit(2);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut serve = ServeConfig::default();
    let mut clients = 8usize;
    let mut requests_per_client = 50usize;
    let mut device = DeviceKind::H100;
    let mut open_loop = false;
    let mut rps = 800.0f64;
    let mut duration_secs = 4.0f64;
    let mut skew = 1.0f64;
    let mut same_signature = false;
    let mut seed = 7u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                i += 1;
                clients = parse_count(&args, i, "--clients");
            }
            "--requests" => {
                i += 1;
                requests_per_client = parse_count(&args, i, "--requests");
            }
            "--workers" => {
                i += 1;
                serve.workers = parse_count(&args, i, "--workers");
            }
            "--queue-depth" => {
                i += 1;
                serve.queue_depth = parse_count(&args, i, "--queue-depth");
            }
            "--cache" => {
                i += 1;
                serve.cache_capacity = parse_count(&args, i, "--cache");
            }
            "--max-batch" => {
                i += 1;
                serve.max_batch = parse_count(&args, i, "--max-batch");
            }
            "--fairness-share" => {
                i += 1;
                serve.fairness_share = parse_f64(&args, i, "--fairness-share");
            }
            "--open-loop" => open_loop = true,
            "--rps" => {
                i += 1;
                rps = parse_f64(&args, i, "--rps");
            }
            "--duration-secs" => {
                i += 1;
                duration_secs = parse_f64(&args, i, "--duration-secs");
            }
            "--skew" => {
                i += 1;
                skew = parse_f64(&args, i, "--skew");
            }
            "--same-signature" => same_signature = true,
            "--seed" => {
                i += 1;
                seed = parse_count(&args, i, "--seed") as u64;
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
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!("[offline] training cost models for {device}...");
    let granii = Arc::new(
        Granii::train_for_device(device, GraniiOptions::fast()).expect("cost-model training"),
    );

    // A mixed 12-signature workload: every (model, dataset, embed) pair the
    // cache must distinguish. `--same-signature` keeps just the first — the
    // pure signature-coalescing regime.
    let models = [ModelKind::Gcn, ModelKind::Gin, ModelKind::Sgc];
    let datasets = [Dataset::CoAuthorsCiteseer, Dataset::Mycielskian17];
    let embeds = [(64usize, 128usize), (128, 64)];
    let mut workload = Vec::new();
    for dataset in datasets {
        let graph = Arc::new(dataset.load(Scale::Tiny).expect("tiny dataset"));
        for model in models {
            for (k1, k2) in embeds {
                workload.push(ServeRequest::new(model, graph.clone(), k1, k2));
            }
        }
    }
    if same_signature {
        workload.truncate(1);
        // One tenant on purpose: the fairness bound must not throttle it.
        serve.fairness_share = 1.0;
    }

    if open_loop {
        let cfg = OpenLoopConfig {
            rps,
            duration_secs,
            skew,
            seed,
            serve,
            ..OpenLoopConfig::default()
        };
        eprintln!(
            "[load] open loop: {rps} req/s offered for {duration_secs}s over {} signatures \
             (skew {skew}, {} workers, queue depth {}, max batch {})...",
            workload.len(),
            cfg.serve.workers,
            cfg.serve.queue_depth,
            cfg.serve.max_batch
        );
        let report = serve_load::run_open_loop(granii, &workload, &cfg);
        let load = &report.load;
        println!(
            "serve_bench: open loop, {} offered ({:.1} req/s realized) in {:.2}s on {device}",
            report.offered, report.offered_rps, load.wall_seconds
        );
        println!("  throughput      {:>10.1} req/s", load.throughput_rps);
        println!(
            "  latency (ms)    p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}  mean {:.3}",
            load.latency.p50_ms,
            load.latency.p95_ms,
            load.latency.p99_ms,
            load.latency.max_ms,
            load.latency.mean_ms
        );
        let batching = &load.status.batching;
        println!(
            "  batch           groups {}  batches {}  batched reqs {}  size mean {:.2} p50 {:.0} p95 {:.0}",
            batching.groups,
            batching.batches,
            batching.batched_requests,
            batching.mean_size,
            batching.p50_size,
            batching.p95_size
        );
        println!(
            "  outcomes        completed {}  shed {} (tenant {})  failed {}  degraded {}",
            load.completed, load.shed, load.status.fairness.tenant_shed, load.failed, load.degraded
        );
        print_sketches(&load.latency_sketches);
        print_cache(&load.status);
        // The ledger's totals line and ranked tenant table: who actually
        // consumed the engine under the zipf-skewed mix.
        print!("{}", load.status.metering);
        if load.failed > 0 {
            eprintln!("serve_bench: FAILED — {} requests errored", load.failed);
            std::process::exit(1);
        }
        return;
    }

    let cfg = LoadConfig {
        clients,
        requests_per_client,
        serve,
    };
    eprintln!(
        "[load] {} clients x {} requests over {} signatures ({} workers, queue depth {}, cache {})...",
        cfg.clients,
        cfg.requests_per_client,
        workload.len(),
        cfg.serve.workers,
        cfg.serve.queue_depth,
        cfg.serve.cache_capacity
    );
    let report = serve_load::run_load(granii, &workload, &cfg);

    let total = cfg.clients * cfg.requests_per_client;
    println!(
        "serve_bench: {} requests in {:.2}s on {device}",
        total, report.wall_seconds
    );
    println!("  throughput      {:>10.1} req/s", report.throughput_rps);
    println!(
        "  latency (ms)    p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}  mean {:.3}",
        report.latency.p50_ms,
        report.latency.p95_ms,
        report.latency.p99_ms,
        report.latency.max_ms,
        report.latency.mean_ms
    );
    print_sketches(&report.latency_sketches);
    println!(
        "  outcomes        completed {}  shed {}  failed {}  degraded {}",
        report.completed, report.shed, report.failed, report.degraded
    );
    print_cache(&report.status);
    if report.failed > 0 {
        eprintln!("serve_bench: FAILED — {} requests errored", report.failed);
        std::process::exit(1);
    }
}

/// The client-side sample is exact but shallow: at a few hundred requests
/// its "p99" is one observation. The server's sketches see every request at
/// bounded relative error — merge the per-outcome distributions for the
/// whole-server deep tail.
fn print_sketches(sketches: &[granii_telemetry::SketchSnapshot]) {
    if let Some(merged) = serve_load::merged_latency_sketch(sketches) {
        println!(
            "  sketch (ms)     p50 {:.3}  p95 {:.3}  p99 {:.3}  p999 {:.3}  (α={:.0}%, merged over outcomes)",
            merged.p50_ns() / 1e6,
            merged.p95_ns() / 1e6,
            merged.p99_ns() / 1e6,
            merged.p999_ns() / 1e6,
            merged.alpha * 100.0
        );
        for snap in sketches {
            if snap.count == 0 {
                continue;
            }
            let outcome = snap.name.rsplit('.').next().unwrap_or(&snap.name);
            println!(
                "    {outcome:<10}    {:>6} reqs  p50 {:.3}  p99 {:.3}  p999 {:.3}",
                snap.count,
                snap.p50_ns() / 1e6,
                snap.p99_ns() / 1e6,
                snap.p999_ns() / 1e6
            );
        }
    }
}

fn print_cache(status: &ServerStatus) {
    println!(
        "  cache           hits {}  misses {}  evictions {}  hit rate {:.1}%",
        status.cache.hits,
        status.cache.misses,
        status.cache.evictions,
        status.cache.hit_rate * 100.0
    );
}
