//! A server is the only home of its numbers: two servers in one process
//! keep separate books, the process-global telemetry registry holds no
//! `serve.*` metric even with telemetry enabled, and every view (status,
//! metrics snapshot, `/metrics`) reads the same books.

use std::sync::{Arc, OnceLock};

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{render_prometheus, IncidentConfig, ServeConfig, ServeRequest, Server};
use granii_telemetry::MetricsSnapshot;

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
        .get_or_init(|| Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap()))
        .clone()
}

fn request() -> ServeRequest {
    ServeRequest::new(ModelKind::Gcn, graph(), 64, 128)
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> Option<u64> {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
}

#[test]
fn two_servers_in_one_process_keep_separate_books() {
    let config = || ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    granii_telemetry::reset();
    granii_telemetry::enable();
    let a = Server::start(granii(), config());
    let b = Server::start(granii(), config());
    for _ in 0..3 {
        a.process(request()).expect("server A serves");
    }
    for _ in 0..5 {
        b.process(request()).expect("server B serves");
    }
    let (books_a, books_b) = (a.metrics_snapshot(), b.metrics_snapshot());
    let (status_a, status_b) = (a.status(), b.status());
    a.shutdown();
    b.shutdown();
    let global = granii_telemetry::metrics_snapshot();
    granii_telemetry::disable();
    granii_telemetry::reset();

    for (books, status, n) in [(&books_a, &status_a, 3), (&books_b, &status_b, 5)] {
        assert_eq!(counter(books, "serve.submitted"), Some(n));
        assert_eq!(counter(books, "serve.completed"), Some(n));
        // Each server has its own plan cache: one miss, then hits.
        assert_eq!(counter(books, "serve.cache_misses"), Some(1));
        assert_eq!(counter(books, "serve.cache_hits"), Some(n - 1));
        let latencies: u64 = books
            .sketches
            .iter()
            .filter(|s| s.name.starts_with("serve.latency."))
            .map(|s| s.count)
            .sum();
        assert_eq!(latencies, n, "the latency sketches hold only own requests");
        // The metrics snapshot and the status read the same books.
        assert_eq!(counter(books, "serve.completed"), Some(status.completed));
        assert_eq!(counter(books, "serve.cache_hits"), Some(status.cache.hits));
    }
    let serve_names: Vec<&str> = global
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(global.gauges.iter().map(|(n, _)| n.as_str()))
        .chain(global.histograms.iter().map(|h| h.name.as_str()))
        .chain(global.sketches.iter().map(|s| s.name.as_str()))
        .chain(global.distincts.iter().map(|d| d.name.as_str()))
        .filter(|n| n.starts_with("serve."))
        .collect();
    assert!(
        serve_names.is_empty(),
        "the process-global registry holds serve metrics: {serve_names:?}"
    );
}

#[test]
fn a_failed_incident_write_is_counted_in_every_view() {
    // A directory under a regular file can never be created.
    let file = std::env::temp_dir().join(format!("granii-instance-books-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    // A zero-depth queue sheds every submit; the second shed is a storm.
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            incident: IncidentConfig {
                dir: Some(file.join("incidents")),
                shed_threshold: 2,
                cooldown: std::time::Duration::ZERO,
                ..IncidentConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    for _ in 0..2 {
        assert!(server.submit(request()).is_err(), "zero-depth queue sheds");
    }
    let status = server.status();
    let books = server.metrics_snapshot();
    server.shutdown();
    std::fs::remove_file(&file).ok();

    assert_eq!(status.recorder.incidents, 1, "the shed storm was captured");
    assert_eq!(status.recorder.incident_io_errors, 1);
    assert_eq!(counter(&books, "serve.incident.io_error"), Some(1));
    assert!(render_prometheus(&status).contains("granii_serve_incident_io_errors_total 1\n"));
}
