//! Gauge acceptance on the server's own books: the `serve.queue_depth`
//! gauge reads 0 once every queued request was served, a shed is counted
//! even when the queue never accepted anything, and the outcome-split
//! latency sketches partition the completed requests exactly.
//!
//! Gauges are read from the server when the snapshot is taken, so they
//! cannot go stale between updates.

use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeError, ServeRequest, Server};
use granii_telemetry::MetricsSnapshot;

fn gauge(snapshot: &MetricsSnapshot, name: &str) -> Option<f64> {
    snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> Option<u64> {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

fn sketch_count(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .sketches
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.count)
}

#[test]
fn queue_depth_gauge_drains_to_zero_and_latency_splits_partition() {
    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap());
    let request = || ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128);

    // Burst 8 requests at a single worker so the queue observably builds,
    // then wait for every reply: the gauge must read its true value — zero.
    let server = Server::start(
        granii.clone(),
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..8)
        .map(|_| server.submit(request()).expect("queue has room"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("queued request completes");
    }

    let snapshot = server.metrics_snapshot();
    server.shutdown();
    assert_eq!(
        gauge(&snapshot, "serve.queue_depth"),
        Some(0.0),
        "queue-depth gauge must read 0 once the queue is served"
    );
    assert_eq!(
        gauge(&snapshot, "serve.cache_hit_rate").map(|v| v > 0.0),
        Some(true),
        "hit-rate gauge tracks the warmed cache"
    );

    // One signature, 8 requests: exactly 1 miss, 7 hits, 0 degraded — the
    // outcome-split sketches must partition the completed requests.
    assert_eq!(sketch_count(&snapshot, "serve.latency.miss"), 1);
    assert_eq!(sketch_count(&snapshot, "serve.latency.hit"), 7);
    assert_eq!(sketch_count(&snapshot, "serve.latency.degraded"), 0);
    assert_eq!(counter(&snapshot, "serve.completed"), Some(8));

    // Shed path: a zero-depth queue sheds every submit.
    let full = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    match full.submit(request()) {
        Err(ServeError::Overloaded { .. }) => {}
        other => panic!("expected Overloaded, got {other:?}", other = other.err()),
    }
    let snapshot = full.metrics_snapshot();
    full.shutdown();
    assert_eq!(counter(&snapshot, "serve.shed"), Some(1));
    assert_eq!(
        gauge(&snapshot, "serve.queue_depth"),
        Some(0.0),
        "the shed request never reached the queue"
    );
}
