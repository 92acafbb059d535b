//! Per-tenant metering attribution invariants (ISSUE 10): the ledger's
//! per-tenant rows must sum to its server-wide totals row *bitwise* — for
//! every counter, under any mix of batched, serial, and degraded traffic —
//! because the ledger attributes exact integer shares, never averages.
//! Property-tested over batch bounds {1, 3, 8, 17} and randomized
//! multi-tenant traffic plans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{
    LatencyObjective, MeterRow, Outcome, ServeConfig, ServeRequest, Server, SloConfig, Ticket,
};
use proptest::prelude::*;

/// One fast-trained H100 instance shared by every test in this binary.
fn granii() -> Arc<Granii> {
    static GRANII: OnceLock<Arc<Granii>> = OnceLock::new();
    GRANII
        .get_or_init(|| {
            Arc::new(
                Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
                    .expect("fast offline training"),
            )
        })
        .clone()
}

fn graph() -> Arc<Graph> {
    static GRAPH: OnceLock<Arc<Graph>> = OnceLock::new();
    GRAPH
        .get_or_init(|| {
            Arc::new(
                Dataset::Mycielskian17
                    .load(Scale::Tiny)
                    .expect("tiny graph"),
            )
        })
        .clone()
}

/// Pinned tenant signatures (distinct fingerprints, all nonzero).
const TENANTS: [u64; 3] = [0xacc0_0001, 0xacc0_0002, 0xacc0_0003];

/// Asserts every ledger counter sums across tenants to the totals row
/// exactly (u64 addition — bitwise equality, no tolerance).
fn assert_rows_sum_to_totals(rows: &[MeterRow], totals: &MeterRow) {
    macro_rules! check {
        ($field:ident) => {
            assert_eq!(
                rows.iter().map(|r| r.$field).sum::<u64>(),
                totals.$field,
                concat!(
                    "per-tenant ",
                    stringify!($field),
                    " must sum to the totals bitwise"
                ),
            );
        };
    }
    check!(requests);
    check!(batched_requests);
    check!(charged_ns);
    check!(flops);
    check!(bytes);
    check!(queue_wait_ns);
    check!(batch_share_ppm);
    check!(cache_hits);
    check!(cache_misses);
    check!(sheds);
    check!(degraded);
    check!(slo_violations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: under a randomized multi-tenant plan of
    /// bursts (which coalesce into batches when the bound allows), with
    /// some requests forced down the degraded path via a pre-expired
    /// deadline, the sum of per-tenant charges equals the server totals
    /// for every counter — and the ledger metered exactly the requests
    /// the server completed.
    #[test]
    fn tenant_charges_sum_to_totals_exactly(
        batch_index in 0usize..4,
        plan in proptest::collection::vec((0usize..3, 1usize..10, 0usize..4), 1..6),
    ) {
        let max_batch = [1usize, 3, 8, 17][batch_index];
        let server = Server::start(
            granii(),
            ServeConfig {
                workers: 2,
                max_batch,
                trace_sample_every: 0,
                ..ServeConfig::default()
            },
        );
        let mut expected = 0u64;
        // A reader assembles status (which walks the ledger) while the
        // bursts write it: reads must not perturb the attribution.
        let done = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| loop {
                server.status();
                reads.fetch_add(1, Ordering::Relaxed);
                if done.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            });
            for &(tenant, burst, flavor) in &plan {
                let request = ServeRequest::new(ModelKind::Gcn, graph(), 64, 128)
                    .with_signature(TENANTS[tenant]);
                // Flavor 3: a pre-expired deadline — a cache miss under it
                // is served degraded (default composition), a hit stays
                // full quality. Either way the charge must be attributed
                // exactly.
                let request = if flavor == 3 {
                    request.with_timeout(Duration::from_nanos(1))
                } else {
                    request
                };
                let tickets: Vec<Ticket> = (0..burst)
                    .map(|_| server.submit(request.clone()).expect("admitted"))
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("request completes");
                    expected += 1;
                }
            }
            done.store(true, Ordering::Release);
        });
        prop_assert!(reads.load(Ordering::Relaxed) > 0, "status was read during the bursts");
        let rows = server.metering_rows();
        let totals = server.metering_totals();
        prop_assert_eq!(totals.requests, expected, "ledger metered every completed request");
        prop_assert_eq!(totals.requests, server.status().completed);
        assert_rows_sum_to_totals(&rows, &totals);
        prop_assert!(totals.charged_ns > 0, "engine charges attributed");
        prop_assert!(totals.flops > 0, "flops attributed");
        prop_assert!(totals.bytes > 0, "bytes attributed");
        // Every tenant that sent traffic has a row, ranked by charge.
        let active: std::collections::BTreeSet<u64> =
            plan.iter().map(|&(t, _, _)| TENANTS[t]).collect();
        for fp in active {
            prop_assert!(
                rows.iter().any(|r| r.fingerprint == fp && r.requests > 0),
                "tenant {:016x} has a ledger row", fp
            );
        }
        prop_assert!(
            rows.windows(2).all(|w| w[0].charged_ns >= w[1].charged_ns),
            "rows ranked by charged time descending"
        );
        server.shutdown();
    }
}

/// Deterministic mixed-path check: force real coalesced batches (one busy
/// worker, a burst behind it), confirm batched + serial traffic both
/// landed, and the invariant still holds down to the batch-share meter.
#[test]
fn batched_and_serial_paths_attribute_exactly() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            trace_sample_every: 0,
            ..ServeConfig::default()
        },
    );
    let request = ServeRequest::new(ModelKind::Gcn, graph(), 64, 128).with_signature(TENANTS[0]);
    // Warm the plan, then burst until a real batch (>= 2) forms.
    server.process(request.clone()).expect("warm-up completes");
    let mut batched_seen = false;
    for _ in 0..50 {
        let tickets: Vec<Ticket> = (0..10)
            .map(|_| server.submit(request.clone()).expect("admitted"))
            .collect();
        for ticket in tickets {
            batched_seen |= ticket.wait().expect("completes").batch_size >= 2;
        }
        if batched_seen {
            break;
        }
    }
    assert!(batched_seen, "no batch of two or more ever formed");
    let rows = server.metering_rows();
    let totals = server.metering_totals();
    assert_rows_sum_to_totals(&rows, &totals);
    assert_eq!(totals.requests, server.status().completed);
    assert!(totals.batched_requests > 0, "batched traffic metered");
    assert!(
        totals.batched_requests < totals.requests,
        "serial traffic metered too (warm-up at minimum)"
    );
    let row = rows
        .iter()
        .find(|r| r.fingerprint == TENANTS[0])
        .expect("tenant row");
    assert!(
        row.mean_batch_share() > 0.0 && row.mean_batch_share() <= 1.0,
        "batch share is a fraction of an execute: {}",
        row.mean_batch_share()
    );
    server.shutdown();
}

/// Sheds and SLO violations are attributed per tenant and agree with the
/// server-wide counters.
#[test]
fn sheds_and_slo_violations_are_attributed() {
    // Zero-threshold objectives: every completed request violates its
    // outcome's objective, so the ledger's violation meter must equal the
    // completion counter.
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            max_batch: 1,
            slo: SloConfig {
                objectives: vec![
                    LatencyObjective::new(Outcome::Hit, 0.0, 0.99),
                    LatencyObjective::new(Outcome::Miss, 0.0, 0.99),
                    LatencyObjective::new(Outcome::Degraded, 0.0, 0.99),
                ],
                ..SloConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let request = ServeRequest::new(ModelKind::Gcn, graph(), 64, 128).with_signature(TENANTS[1]);
    server.process(request.clone()).expect("warm-up completes");
    // Flood a depth-2 queue to force sheds; completed requests all violate
    // the zero-threshold SLO.
    let tickets: Vec<Ticket> = (0..64)
        .filter_map(|_| server.submit(request.clone()).ok())
        .collect();
    for ticket in tickets {
        let _ = ticket.wait();
    }
    let stats = server.status();
    let totals = server.metering_totals();
    assert!(stats.shed > 0, "flood must shed against a depth-2 queue");
    assert_eq!(
        totals.sheds, stats.shed,
        "every shed attributed to its tenant"
    );
    assert_eq!(
        totals.slo_violations, stats.completed,
        "zero-threshold objectives make every completion a violation"
    );
    assert_rows_sum_to_totals(&server.metering_rows(), &totals);
    // The status surface carries the same story.
    let status = server.status();
    assert_eq!(status.metering.total_requests, stats.completed);
    assert_eq!(status.metering.total_sheds, stats.shed);
    // One ledger: the lifecycle counts, the fairness table, and the SLO
    // table are all read from the same books, so they agree exactly.
    assert_eq!(status.completed, status.metering.total_requests);
    assert_eq!(status.shed, status.metering.total_sheds);
    assert_eq!(
        status.fairness.tenant_shed,
        status.fairness.tenants.iter().map(|t| t.shed).sum::<u64>(),
        "tenant_shed is the sum of the per-tenant bound sheds"
    );
    assert_eq!(
        status.slo.iter().map(|row| row.violations).sum::<u64>(),
        status.metering.total_slo_violations,
        "the ledger meters exactly the SLO monitor's verdicts"
    );
    let top = status.metering.tenants.first().expect("top tenant row");
    assert_eq!(top.fingerprint, format!("{:016x}", TENANTS[1]));
    server.shutdown();
}

/// An SLO monitor with no objectives judges no request, so the ledger
/// meters no violations.
#[test]
fn disabled_slo_monitor_meters_no_violations() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            slo: SloConfig {
                objectives: Vec::new(),
                ..SloConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let request = ServeRequest::new(ModelKind::Gcn, graph(), 64, 128).with_signature(TENANTS[2]);
    for _ in 0..4 {
        server.process(request.clone()).expect("request completes");
    }
    assert_eq!(server.metering_totals().requests, 4);
    assert_eq!(server.metering_totals().slo_violations, 0);
    server.shutdown();
}
