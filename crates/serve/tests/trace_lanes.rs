//! Request-scoped tracing acceptance: 1-in-N sampled requests render as
//! per-request lanes (virtual tids at `TRACE_LANE_BASE + id`) through the
//! existing Chrome-trace exporter, unsampled requests emit no lane, every
//! batch group — a group of one included — emits a `serve.batch` span its
//! sampled members link to, and the server's flight recorder logs every
//! request's lifecycle, sampled or not.
//!
//! Single `#[test]` binary: the span buffers are process-global, so no
//! other test may record serve spans concurrently.

use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, Server, BATCH_TRACE_LANE, TRACE_LANE_BASE};
use granii_telemetry::{AttrValue, SpanRecord};

/// The string attribute `key` of `span`, if present.
fn str_attr<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(s) if *k == key => Some(s.as_str()),
        _ => None,
    })
}

#[test]
fn sampled_requests_become_chrome_trace_lanes() {
    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap());
    let request = || ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128);

    granii_telemetry::reset();
    granii_telemetry::enable();
    // Sample every 2nd request: ids 1 and 3 trace, ids 2 and 4 do not.
    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            trace_sample_every: 2,
            ..ServeConfig::default()
        },
    );
    for _ in 0..4 {
        server.process(request()).expect("request completes");
    }
    let records = server.flight_records();
    server.shutdown();
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    granii_telemetry::reset();

    // Exactly the sampled ids own a lane.
    let lane_tids: Vec<u64> = {
        let mut tids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "serve.req")
            .map(|s| s.tid)
            .collect();
        tids.sort_unstable();
        tids
    };
    assert_eq!(
        lane_tids,
        vec![TRACE_LANE_BASE + 1, TRACE_LANE_BASE + 3],
        "one lane root per sampled request id"
    );

    // Request 1 missed (queue + select + execute children); request 3 hit
    // (no select stage — the cache made selection free).
    let children = |tid: u64| -> Vec<&str> {
        spans
            .iter()
            .filter(|s| s.tid == tid && s.depth == 1)
            .map(|s| s.name)
            .collect()
    };
    assert_eq!(
        children(TRACE_LANE_BASE + 1),
        vec!["serve.req.queue", "serve.req.select", "serve.req.execute"]
    );
    assert_eq!(
        children(TRACE_LANE_BASE + 3),
        vec!["serve.req.queue", "serve.req.execute"]
    );
    // Stage children nest inside their lane's root span.
    let root = spans
        .iter()
        .find(|s| s.name == "serve.req" && s.tid == TRACE_LANE_BASE + 1)
        .expect("lane root");
    for child in spans.iter().filter(|s| s.tid == root.tid && s.depth == 1) {
        assert!(child.start_us >= root.start_us);
        assert!(child.start_us + child.dur_us <= root.start_us + root.dur_us);
    }

    // Sequential requests each form a group of one, and every group emits
    // one `serve.batch` span on the batch lane naming its member.
    let batch_spans: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "serve.batch" && s.tid == BATCH_TRACE_LANE)
        .collect();
    assert_eq!(
        batch_spans.len(),
        4,
        "one batch span per sequential request"
    );
    for id in [1u64, 3] {
        let batch = batch_spans
            .iter()
            .find(|s| {
                s.attrs
                    .iter()
                    .any(|(k, v)| *k == "member" && matches!(v, AttrValue::U64(m) if *m == id))
            })
            .expect("the request's group emitted a batch span");
        let execute = spans
            .iter()
            .find(|s| s.name == "serve.req.execute" && s.tid == TRACE_LANE_BASE + id)
            .expect("execute child");
        assert!(execute
            .attrs
            .iter()
            .any(|(k, v)| *k == "batch_size" && matches!(v, AttrValue::U64(1))));
        assert_eq!(
            str_attr(execute, "batch_group"),
            str_attr(batch, "group"),
            "the execute child links to its group's batch span"
        );
        assert!(str_attr(batch, "group").is_some());
    }

    // The existing exporter renders the lanes with no changes: the lane tid
    // appears as a regular Chrome-trace thread.
    let chrome = granii_telemetry::export::chrome_trace(&spans);
    assert!(chrome.contains("serve.req"));
    assert!(chrome.contains(&(TRACE_LANE_BASE + 1).to_string()));

    // The flight recorder logs every request's lifecycle, sampled or not:
    // four sequential requests are four groups of one.
    for kind in ["enqueue", "batch_formed", "complete"] {
        let ids: Vec<u64> = records
            .iter()
            .filter(|r| r.kind.name() == kind)
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4], "one {kind} record per request");
    }
}
