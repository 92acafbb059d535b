//! A miss builds `Ã = A + I` only for a program that reads it: GIN and
//! GraphSAGE aggregate over the raw adjacency, so their misses take `Ã`'s
//! degrees and statistics from `A`'s row lengths and never build `Ã`; a GCN
//! miss builds it once.
//!
//! Single `#[test]` binary: spans are process-global, so no other test may
//! record beside it.

use std::collections::BTreeMap;
use std::sync::Arc;

use granii_core::cost::CostModelSet;
use granii_core::Granii;
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, Server};

#[test]
fn only_a_program_over_the_self_loop_graph_builds_it() {
    // No cost models: every miss binds the degraded composition, which
    // reads the same inputs a selected one does, without training first.
    let granii = Granii::with_cost_models(CostModelSet::new(
        DeviceKind::H100,
        BTreeMap::new(),
        BTreeMap::new(),
    ));
    let server = Server::start(
        Arc::new(granii),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let graph = Arc::new(Dataset::Mycielskian17.load(Scale::Tiny).unwrap());
    granii_telemetry::reset();
    granii_telemetry::enable();
    let serve = |model| {
        let response = server
            .process(ServeRequest::new(model, graph.clone(), 32, 16))
            .expect("request completes");
        assert!(!response.cache_hit, "{model} misses");
        granii_telemetry::take_spans()
            .iter()
            .filter(|s| s.name == "graph.add_self_loops")
            .count()
    };
    assert_eq!(serve(ModelKind::Gin), 0, "a GIN miss never builds Ã");
    assert_eq!(serve(ModelKind::Sage), 0, "a SAGE miss never builds Ã");
    assert_eq!(serve(ModelKind::Gcn), 1, "a GCN miss builds Ã once");
    granii_telemetry::disable();
    server.shutdown();
}
