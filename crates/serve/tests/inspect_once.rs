//! Input inspection is paid once per graph: a graph's fingerprint (the
//! plan key) and its features (the input profile and the miss's
//! selection) are memoized on the `Graph`, so a stream of requests over one
//! graph hashes and featurizes it on the first request only, and a cache
//! hit makes neither pass.
//!
//! Single `#[test]` binary: spans are process-global, so no other test may
//! record beside it.

use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, Server};

const REQUESTS: usize = 50;

#[test]
fn a_graph_is_hashed_and_featurized_once_across_a_miss_and_its_hits() {
    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::Mycielskian17.load(Scale::Tiny).unwrap());
    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // Only the serving below records: training and loading ran untraced.
    granii_telemetry::reset();
    granii_telemetry::enable();
    let mut hits = 0;
    for _ in 0..REQUESTS {
        let response = server
            .process(ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128))
            .expect("request completes");
        hits += usize::from(response.cache_hit);
    }
    server.shutdown();
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();

    assert_eq!(hits, REQUESTS - 1, "one miss, then hits");
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert!(
        count("select.featurize") >= 1,
        "the miss selected with the cost models"
    );
    assert_eq!(count("graph.fingerprint"), 1, "one hash per graph");
    assert_eq!(count("graph.featurize"), 1, "one featurization per graph");
}
