//! Load harnesses for the serving runtime (`granii-serve`), shared by the
//! `serve_bench` binary and the bench-snapshot serving cell.
//!
//! Two load models:
//!
//! - **Closed loop** ([`run_load`]): each client issues its next request
//!   only after the previous one replied — offered load adapts to service
//!   rate, so the harness measures sustainable throughput and tail latency
//!   rather than queue explosion.
//! - **Open loop** ([`run_open_loop`]): arrivals follow a Poisson process
//!   at a fixed offered rate, independent of completions — the model that
//!   actually exercises continuous batching (requests pile up while a
//!   worker is busy and get coalesced), with a configurable zipf-style
//!   tenant skew over the workload signatures.
//!
//! In both, shed requests ([`granii_serve::ServeError::Overloaded`]) are
//! counted and the harness moves on; any other error is a harness failure.

use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use granii_core::Granii;
use granii_serve::{ServeConfig, ServeError, ServeRequest, Server, ServerStatus, Ticket};
use granii_telemetry::{MetricsSnapshot, SketchSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Load-test shape: how many clients, how many requests each.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Serving runtime configuration under test.
    pub serve: ServeConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            requests_per_client: 50,
            serve: ServeConfig::default(),
        }
    }
}

/// Exact (sorted-sample) latency quantiles in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Completed-request count the quantiles are over.
    pub count: usize,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Slowest request.
    pub max_ms: f64,
}

/// The outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall time of the whole run.
    pub wall_seconds: f64,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Requests that failed with any other error (must be 0 in a healthy run).
    pub failed: u64,
    /// Responses served via the degradation fallback.
    pub degraded: u64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// End-to-end (submit-to-reply) latency distribution.
    pub latency: LatencySummary,
    /// The server's status at the end of the run.
    pub status: ServerStatus,
    /// The server's per-outcome latency sketches (`serve.latency.hit` /
    /// `.miss` / `.degraded`), captured before shutdown. Mergeable into one
    /// whole-server distribution for deep-tail (p99/p999) quantiles the
    /// exact per-client sample cannot resolve at small request counts.
    pub latency_sketches: Vec<SketchSnapshot>,
}

/// Folds the per-outcome sketches into one whole-server latency
/// distribution (the merge is exact: sketches are a commutative monoid).
/// `None` when no sketch recorded anything.
pub fn merged_latency_sketch(sketches: &[SketchSnapshot]) -> Option<SketchSnapshot> {
    let mut merged: Option<SketchSnapshot> = None;
    for snap in sketches.iter().filter(|s| s.count > 0) {
        match merged.as_mut() {
            Some(m) => m.merge(snap),
            None => {
                let mut m = snap.clone();
                m.name = "serve.latency".to_owned();
                merged = Some(m);
            }
        }
    }
    merged
}

/// Exact percentile of a sorted sample (nearest-rank interpolation-free);
/// 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// Summarizes a latency sample given in seconds.
pub fn summarize_latencies(seconds: &[f64]) -> LatencySummary {
    if seconds.is_empty() {
        return LatencySummary::default();
    }
    let mut ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LatencySummary {
        count: ms.len(),
        mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
        p50_ms: percentile(&ms, 0.50),
        p95_ms: percentile(&ms, 0.95),
        p99_ms: percentile(&ms, 0.99),
        max_ms: *ms.last().expect("non-empty"),
    }
}

/// Runs the closed-loop load test: `clients` threads round-robin over
/// `workload` (each client starts at a different offset so signatures mix),
/// issuing requests back-to-back against one server.
///
/// # Panics
///
/// Panics if `workload` is empty.
pub fn run_load(granii: Arc<Granii>, workload: &[ServeRequest], cfg: &LoadConfig) -> LoadReport {
    assert!(!workload.is_empty(), "load test needs at least one request");
    let server = Server::start(granii, cfg.serve.clone());
    let t0 = Instant::now();
    let per_client: Vec<Outcomes> = std::thread::scope(|s| {
        let server = &server;
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|c| {
                s.spawn(move || {
                    let mut latencies = Vec::with_capacity(cfg.requests_per_client);
                    let (mut shed, mut failed, mut degraded) = (0u64, 0u64, 0u64);
                    for i in 0..cfg.requests_per_client {
                        let request = workload[(c + i) % workload.len()].clone();
                        match server.process(request) {
                            Ok(response) => {
                                latencies.push(response.timing.total_seconds);
                                if response.degraded {
                                    degraded += 1;
                                }
                            }
                            Err(ServeError::Overloaded { .. }) => shed += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    (latencies, shed, failed, degraded)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    finish(server, t0, per_client)
}

/// One client's outcomes: reply latencies in seconds, then its shed,
/// failed and degraded counts.
type Outcomes = (Vec<f64>, u64, u64, u64);

/// Reads the server's final status and sketches, shuts it down, and folds
/// every client's outcomes into one report.
fn finish(server: Server, t0: Instant, outcomes: Vec<Outcomes>) -> LoadReport {
    let wall_seconds = t0.elapsed().as_secs_f64();
    let status = server.status();
    let latency_sketches = server.latency_sketches();
    server.shutdown();
    let mut latencies = Vec::new();
    let (mut shed, mut failed, mut degraded) = (0u64, 0u64, 0u64);
    for (lat, s, f, d) in outcomes {
        latencies.extend(lat);
        shed += s;
        failed += f;
        degraded += d;
    }
    let completed = latencies.len() as u64;
    LoadReport {
        wall_seconds,
        completed,
        shed,
        failed,
        degraded,
        throughput_rps: per_second(completed, wall_seconds),
        latency: summarize_latencies(&latencies),
        status,
        latency_sketches,
    }
}

/// `n / seconds`, 0 for an empty interval.
fn per_second(n: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        n as f64 / seconds
    } else {
        0.0
    }
}

/// Open-loop load shape: offered rate, duration, and tenant skew.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered arrival rate in requests per second (Poisson process).
    pub rps: f64,
    /// How long arrivals are generated for, in seconds.
    pub duration_secs: f64,
    /// Zipf-style tenant skew over the workload: signature `i` gets weight
    /// `1 / (i + 1)^skew`. `0` is uniform; larger values concentrate
    /// traffic on the first signatures (the regime where signature
    /// coalescing pays).
    pub skew: f64,
    /// Reply-waiter threads draining tickets (the submitter never blocks on
    /// a reply — that would close the loop).
    pub waiters: usize,
    /// Arrival-schedule RNG seed: the same seed offers the same arrival
    /// times and signature picks.
    pub seed: u64,
    /// Serving runtime configuration under test.
    pub serve: ServeConfig,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            rps: 500.0,
            duration_secs: 2.0,
            skew: 1.0,
            waiters: 4,
            seed: 7,
            serve: ServeConfig::default(),
        }
    }
}

/// The outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Arrivals the schedule offered.
    pub offered: u64,
    /// Offered rate actually realized (`offered / wall`).
    pub offered_rps: f64,
    /// Completions, latencies, and the server's final status: its counters
    /// and the per-tenant metering ledger (`status.metering`), so the
    /// harness can report who consumed what under the skewed tenant mix.
    pub load: LoadReport,
}

/// Pre-generates the Poisson arrival schedule: cumulative exponential gaps
/// (`−ln(U)/λ`) paired with a skew-weighted signature index per arrival.
fn arrival_schedule(cfg: &OpenLoopConfig, signatures: usize) -> Vec<(Duration, usize)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Cumulative zipf-ish weights over the signatures.
    let mut cumulative = Vec::with_capacity(signatures);
    let mut total = 0.0f64;
    for i in 0..signatures {
        total += 1.0 / ((i + 1) as f64).powf(cfg.skew);
        cumulative.push(total);
    }
    let mut schedule = Vec::new();
    let mut at = 0.0f64;
    loop {
        // Exponential inter-arrival gap; 1 − U keeps ln away from 0.
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / cfg.rps;
        if at >= cfg.duration_secs {
            return schedule;
        }
        let pick: f64 = rng.gen_range(0.0..total);
        let index = cumulative
            .partition_point(|c| *c <= pick)
            .min(signatures - 1);
        schedule.push((Duration::from_secs_f64(at), index));
    }
}

/// Runs the open-loop load test: arrivals are submitted on schedule whether
/// or not earlier requests finished (tickets are drained by a waiter pool),
/// so queueing — and therefore batching — emerges whenever the offered rate
/// exceeds the service rate.
///
/// # Panics
///
/// Panics if `workload` is empty, or the rate/duration are not positive.
pub fn run_open_loop(
    granii: Arc<Granii>,
    workload: &[ServeRequest],
    cfg: &OpenLoopConfig,
) -> OpenLoopReport {
    assert!(!workload.is_empty(), "load test needs at least one request");
    assert!(
        cfg.rps > 0.0 && cfg.duration_secs > 0.0,
        "open loop needs a positive rate and duration"
    );
    let schedule = arrival_schedule(cfg, workload.len());
    let offered = schedule.len() as u64;
    let server = Server::start(granii, cfg.serve.clone());
    let (tx, rx) = mpsc::channel::<Ticket>();
    let rx = Arc::new(Mutex::new(rx));

    let t0 = Instant::now();
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.waiters.max(1))
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let (mut failed, mut degraded) = (0u64, 0u64);
                    loop {
                        // Holding the lock across `recv` is fine: whoever
                        // holds it takes the next ticket and releases before
                        // the (long) reply wait.
                        let ticket = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv()
                        {
                            Ok(ticket) => ticket,
                            Err(_) => break, // submitter hung up, queue drained
                        };
                        match ticket.wait() {
                            Ok(response) => {
                                latencies.push(response.timing.total_seconds);
                                if response.degraded {
                                    degraded += 1;
                                }
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    (latencies, 0, failed, degraded)
                })
            })
            .collect();

        // The submitter: fire every arrival at its scheduled offset.
        let (mut shed, mut submit_failed) = (0u64, 0u64);
        for (at, index) in &schedule {
            if let Some(gap) = at.checked_sub(t0.elapsed()) {
                std::thread::sleep(gap);
            }
            match server.submit(workload[*index].clone()) {
                Ok(ticket) => {
                    let _ = tx.send(ticket);
                }
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(_) => submit_failed += 1,
            }
        }
        drop(tx); // waiters exit once the in-flight tickets drain
        let mut outcomes: Vec<Outcomes> = handles
            .into_iter()
            .map(|h| h.join().expect("open-loop waiter panicked"))
            .collect();
        outcomes.push((Vec::new(), shed, submit_failed, 0));
        outcomes
    });
    let load = finish(server, t0, outcomes);
    OpenLoopReport {
        offered,
        offered_rps: per_second(offered, load.wall_seconds),
        load,
    }
}

/// Per-phase outcome of a [`run_drift_scenario`] run.
#[derive(Debug, Clone)]
pub struct DriftPhaseReport {
    /// Requests completed in this phase.
    pub completed: u64,
    /// Requests failed in this phase (must be 0 in a healthy run).
    pub failed: u64,
    /// Distinct composition names served, in first-seen order. One entry
    /// means the phase was stable on a single plan.
    pub compositions: Vec<String>,
    /// Server-cumulative drift flags at phase end.
    pub drift_flagged: u64,
    /// Server-cumulative plan-cache invalidations at phase end (includes
    /// model-swap flushes).
    pub cache_invalidations: u64,
}

/// Outcome of the three-phase drift-injection scenario.
#[derive(Debug, Clone)]
pub struct DriftScenarioReport {
    /// Phase 1: serving under the clean cost models.
    pub clean_before: DriftPhaseReport,
    /// Phase 2: serving after the corrupted models were hot-swapped in.
    pub corrupted: DriftPhaseReport,
    /// Phase 3: serving after the clean models were restored.
    pub clean_after: DriftPhaseReport,
    /// Final live status snapshot (drift table included).
    pub status: ServerStatus,
    /// The server's metrics snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
}

fn run_drift_phase(server: &Server, request: &ServeRequest, requests: usize) -> DriftPhaseReport {
    let (mut completed, mut failed) = (0u64, 0u64);
    let mut compositions: Vec<String> = Vec::new();
    for _ in 0..requests {
        match server.process(request.clone()) {
            Ok(response) => {
                completed += 1;
                let name = response.composition.name();
                if compositions.last() != Some(&name) && !compositions.contains(&name) {
                    compositions.push(name);
                }
            }
            Err(_) => failed += 1,
        }
    }
    let status = server.status();
    DriftPhaseReport {
        completed,
        failed,
        compositions,
        drift_flagged: status.drift_flagged,
        cache_invalidations: status.cache.invalidations,
    }
}

/// Drift-injection load scenario: serve one fixed request signature through
/// three model regimes on a single long-lived server.
///
/// 1. **Clean**: `requests_per_phase` requests under `clean` — establishes
///    the baseline selection; no drift flags expected.
/// 2. **Corrupted**: `corrupted` is hot-swapped in (cache flushed), and the
///    same signature is hammered again. A model set corrupted so that
///    selection picks a plan whose steady-state prediction is wildly off
///    should be flagged by the online detector within
///    `min_samples + k_consecutive` requests, invalidating the cached plan.
/// 3. **Recovered**: `clean` is restored; re-selection should return to the
///    original composition with zero regret.
///
/// The harness is deliberately serial (one client): drift detection on the
/// modeled engine is deterministic per signature, and serial phases keep the
/// per-phase counters exact for the e2e assertions in
/// `crates/bench/tests/drift.rs`.
pub fn run_drift_scenario(
    clean: Arc<Granii>,
    corrupted: Arc<Granii>,
    request: &ServeRequest,
    requests_per_phase: usize,
    serve: ServeConfig,
) -> DriftScenarioReport {
    let server = Server::start(clean.clone(), serve);
    let clean_before = run_drift_phase(&server, request, requests_per_phase);
    server.replace_granii(corrupted);
    let corrupted_phase = run_drift_phase(&server, request, requests_per_phase);
    server.replace_granii(clean);
    let clean_after = run_drift_phase(&server, request, requests_per_phase);
    let status = server.status();
    let metrics = server.metrics_snapshot();
    server.shutdown();
    DriftScenarioReport {
        clean_before,
        corrupted: corrupted_phase,
        clean_after,
        status,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_known_samples() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.50), 51.0); // nearest rank on 0..=99
        assert_eq!(percentile(&[], 0.5), 0.0);
        let summary = summarize_latencies(&[0.001, 0.002, 0.003]);
        assert_eq!(summary.count, 3);
        assert_eq!(summary.p50_ms, 2.0);
        assert_eq!(summary.max_ms, 3.0);
    }

    #[test]
    fn arrival_schedule_is_deterministic_skewed_and_rate_matched() {
        let cfg = OpenLoopConfig {
            rps: 1000.0,
            duration_secs: 2.0,
            skew: 1.5,
            ..OpenLoopConfig::default()
        };
        let a = arrival_schedule(&cfg, 6);
        let b = arrival_schedule(&cfg, 6);
        assert_eq!(a.len(), b.len(), "same seed, same schedule");
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        // ~2000 expected arrivals; Poisson keeps it within a loose band.
        assert!(a.len() > 1500 && a.len() < 2500, "got {}", a.len());
        // Arrival times are sorted and inside the window.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.last().unwrap().0.as_secs_f64() < cfg.duration_secs);
        // Skew concentrates on signature 0 and still reaches the tail.
        let head = a.iter().filter(|(_, i)| *i == 0).count();
        let tail = a.iter().filter(|(_, i)| *i == 5).count();
        assert!(
            head > tail,
            "skew must favor signature 0 ({head} vs {tail})"
        );
        assert!(tail > 0, "tail signatures still receive traffic");
        assert!(a.iter().all(|(_, i)| *i < 6));
        // Uniform skew (0) spreads the load roughly evenly.
        let uniform = arrival_schedule(
            &OpenLoopConfig {
                skew: 0.0,
                ..cfg.clone()
            },
            4,
        );
        for sig in 0..4usize {
            let n = uniform.iter().filter(|(_, i)| *i == sig).count();
            assert!(
                n > uniform.len() / 8,
                "uniform skew starved signature {sig} ({n}/{})",
                uniform.len()
            );
        }
    }

    #[test]
    fn merged_sketch_folds_outcomes_and_skips_empty() {
        use granii_telemetry::Sketch;
        let hit = Sketch::new(0.01);
        let miss = Sketch::new(0.01);
        for ns in [1_000_000u64, 2_000_000, 3_000_000] {
            hit.record_ns(ns);
        }
        miss.record_ns(50_000_000);
        let degraded = Sketch::new(0.01); // never recorded
        let snaps = vec![
            hit.snapshot("serve.latency.hit"),
            miss.snapshot("serve.latency.miss"),
            degraded.snapshot("serve.latency.degraded"),
        ];
        let merged = merged_latency_sketch(&snaps).expect("non-empty merge");
        assert_eq!(merged.name, "serve.latency");
        assert_eq!(merged.count, 4);
        assert_eq!(merged.max_ns, 50_000_000);
        assert_eq!(merged.min_ns, 1_000_000);
        assert!(merged_latency_sketch(&[]).is_none());
    }
}
