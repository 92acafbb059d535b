//! End-to-end input-drift detection: a pinned-signature tenant serves a
//! stable graph, then mutates it mid-stream (hub edges injected). The
//! cached plan keeps serving — the plan key is pinned, so the cache cannot
//! see the mutation — and the cost-residual lane stays silent because a
//! stale bound plan executes its *bound* graph, whose charged cost still
//! matches its prediction. Only the input-drift lane, which inspects every
//! request's live degree statistics, can catch this: the test asserts it
//! flags within a bounded number of requests, invalidates the cached plan,
//! and that re-selection on the mutated graph recovers the selector's
//! composition — proving the two lanes detect disjoint failure modes.
//!
//! Every assertion reads this server's own books: status, metrics snapshot
//! and flight recorder.

use std::collections::BTreeSet;
use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{InputProfile, RecordKind, ServeConfig, ServeRequest, ServeResponse, Server};

/// Tenant-pinned plan-cache signature: "this is the same logical graph"
/// across mutations. Without it the mutated graph's content fingerprint
/// would simply miss the cache and re-select — hiding the staleness this
/// test exists to expose.
const SIGNATURE: u64 = 0x5eed_f00d_0000_0001;

/// Deterministic Erdős–Rényi-style edge set (LCG pair sampling, no dups,
/// no self-loops): in-distribution degree statistics so the cost models'
/// predictions stay honest and the residual lane has no reason to fire.
fn base_edges(n: usize, edges_wanted: usize) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    while edges.len() < edges_wanted {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (state >> 33) as usize % n;
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (state >> 33) as usize % n;
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    }
    edges
}

/// The mid-stream mutation: a handful of hub nodes each gain an edge to
/// every other node. Degree mass shifts up a band and the degree CV
/// explodes — the dual signal the input-drift lane watches.
fn inject_hubs(mut edges: BTreeSet<(usize, usize)>, n: usize, hubs: usize) -> Graph {
    for hub in 0..hubs {
        for v in 0..n {
            if v != hub {
                edges.insert((hub.min(v), hub.max(v)));
            }
        }
    }
    let list: Vec<_> = edges.into_iter().collect();
    Graph::undirected_from_edges(n, &list).unwrap()
}

fn serve(server: &Server, graph: &Arc<Graph>, iterations: usize) -> ServeResponse {
    server
        .process(
            ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128)
                .with_iterations(iterations)
                .with_signature(SIGNATURE),
        )
        .expect("request completes")
}

#[test]
fn mutated_graph_is_flagged_invalidated_and_reselected() {
    let n = 1024;
    let edges = base_edges(n, 4 * n);
    let base_list: Vec<_> = edges.iter().copied().collect();
    let base = Arc::new(Graph::undirected_from_edges(n, &base_list).unwrap());
    let mutated = Arc::new(inject_hubs(edges, n, 4));
    assert_eq!(base.num_nodes(), mutated.num_nodes());
    assert!(
        mutated.avg_degree() > base.avg_degree() + 3.0,
        "hub injection must add real degree mass"
    );

    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let cfg = LayerConfig::new(64, 128);
    let iterations = 100;
    // What a fresh selection sees for each graph: the stale phase must keep
    // serving the base composition, and post-flag re-selection must land on
    // the mutated graph's own choice.
    let base_choice = granii
        .select_with_config(ModelKind::Gcn, &base, cfg, iterations)
        .unwrap()
        .composition;
    let mutated_choice = granii
        .select_with_config(ModelKind::Gcn, &mutated, cfg, iterations)
        .unwrap()
        .composition;

    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );

    // Phase 1: stable graph. One selection, then steady-state hits; neither
    // lane has anything to say.
    let warm = serve(&server, &base, iterations);
    assert!(!warm.cache_hit);
    assert_eq!(warm.composition, base_choice);
    for _ in 0..5 {
        let r = serve(&server, &base, iterations);
        assert!(r.cache_hit, "pinned signature must hit");
        assert_eq!(r.composition, base_choice);
    }
    let phase1 = server.status();
    assert_eq!(phase1.input_drift_flagged, 0, "stable input must not flag");
    assert_eq!(phase1.drift_flagged, 0, "cost lane silent on clean serving");
    assert_eq!(phase1.cache.invalidations, 0);

    // Phase 2: the tenant's graph mutates under the pinned signature. The
    // stale plan keeps hitting (and keeps executing its bound base graph),
    // until the live EWMA crosses the inspector's thresholds at the third
    // mutated request — bounded by k_consecutive — which invalidates the
    // entry. The fourth request misses, re-selects on the mutated graph,
    // and re-pins the input reference; the fifth hits quietly again.
    let mut phase2 = Vec::new();
    for _ in 0..5 {
        phase2.push(serve(&server, &mutated, iterations));
    }
    for r in &phase2[..3] {
        assert!(r.cache_hit, "stale plan serves the mutated graph");
        assert_eq!(r.composition, base_choice, "stale composition until flag");
    }
    assert!(
        !phase2[3].cache_hit,
        "flag must invalidate the cached plan (request 4 re-selects)"
    );
    assert_eq!(
        phase2[3].composition, mutated_choice,
        "re-selection recovers the selector's choice for the mutated graph"
    );
    assert!(phase2[4].cache_hit, "re-pinned signature hits again");
    assert_eq!(phase2[4].composition, mutated_choice);

    let stats = server.status();
    assert_eq!(
        stats.input_drift_flagged, 1,
        "flag within k_consecutive mutated requests, then cooldown-suppressed"
    );
    assert_eq!(stats.cache.invalidations, 1, "exactly the flagged entry");
    assert_eq!(
        stats.drift_flagged, 0,
        "cost-residual lane must stay silent: the stale plan executes its \
         bound graph, so measured cost still tracks the prediction"
    );
    assert_eq!(stats.completed, 11);
    assert_eq!(stats.failed, 0);

    // The flag surfaces in every view of the server's books: status (input
    // table + SLO + latency columns), the metrics counter, the sketches
    // section of the metrics export, and the flight recorder.
    let status = server.status();
    assert_eq!(status.input_drift_flagged, 1);
    let row = status
        .input
        .iter()
        .find(|row| row.fingerprint == format!("{SIGNATURE:016x}"))
        .expect("status input table tracks the pinned signature");
    assert_eq!(row.flags, 1);
    assert!(row.cooldown > 0, "cooldown active after the flag");
    assert_eq!(row.model, "gcn");
    // The flag's flight record carries the profiles the lane flagged on:
    // the reference selection saw on the base graph (re-selection has since
    // re-pinned the status row's reference to the mutated graph).
    let (live_cv, reference_cv) = server
        .flight_records()
        .into_iter()
        .find_map(|record| match record.kind {
            RecordKind::InputDriftFlag {
                live_cv,
                reference_cv,
                ..
            } => Some((live_cv, reference_cv)),
            _ => None,
        })
        .expect("the input-drift flag is in the flight recorder");
    assert_eq!(reference_cv, InputProfile::extract(&base).degree_cv);
    assert!(live_cv > reference_cv, "hub injection raised the live CV");
    assert_eq!(status.slo.len(), 3, "one SLO row per outcome class");
    let hit_latency = status
        .latency
        .iter()
        .find(|l| l.outcome == "hit")
        .expect("latency table has the hit sketch");
    assert_eq!(hit_latency.count, 9, "5 base hits + 3 stale + 1 re-pinned");
    assert!(hit_latency.p999_ms >= hit_latency.p50_ms);
    assert!(
        status.distinct_signatures > 0.5 && status.distinct_signatures < 1.5,
        "one pinned signature, estimate {}",
        status.distinct_signatures
    );
    let json = serde_json::to_string(&status).unwrap();
    let back: granii_serve::ServerStatus = serde_json::from_str(&json).unwrap();
    assert_eq!(back.input_drift_flagged, 1);
    assert_eq!(back.input.len(), status.input.len());

    // The server's own metrics (what `--metrics-out` writes) and its event
    // log (what `--events-out` writes).
    let snapshot = server.metrics_snapshot();
    let records = server.flight_records();
    server.shutdown();

    let counter = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "serve.input_drift_flagged")
        .map(|(_, v)| *v);
    assert_eq!(counter, Some(1), "serve.input_drift_flagged in metrics");
    let cost_lane = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "serve.drift_flagged")
        .map(|(_, v)| *v);
    assert_eq!(
        cost_lane,
        Some(0),
        "cost lane must not even increment its counter"
    );
    assert!(
        snapshot
            .sketches
            .iter()
            .any(|s| s.name == "serve.latency.hit" && s.count == 9),
        "the metrics snapshot carries the server's own sketch"
    );
    let metrics = granii_telemetry::export::metrics_json(&snapshot);
    assert!(
        metrics.contains("\"sketches\""),
        "sketches section exported"
    );
    assert!(metrics.contains("serve.input_drift_flagged"));

    let count = |kind: &str| records.iter().filter(|r| r.kind.name() == kind).count();
    assert_eq!(count("input_drift_flag"), 1, "one input-drift flag record");
    assert_eq!(count("drift_flag"), 0, "no cost-drift flag record");
}
