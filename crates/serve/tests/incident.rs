//! End-to-end incident capture: the input-drift anomaly from the
//! `input_drift` scenario (hub edges injected under a pinned signature)
//! must *automatically* produce an incident bundle — no operator action —
//! whose ring excerpt contains the flagging record, the batch group that
//! carried the triggering request, and the selection audit (chosen
//! composition, per-candidate predicted costs, and the input statistics
//! that keyed the choice). The bundle must land on disk as valid JSON,
//! round-trip through the parser, and render a timeline that names the
//! triggering signature.
//!
//! Runs as a single `#[test]` in its own binary: it reads global telemetry
//! and writes a scratch incident directory.

use std::collections::BTreeSet;
use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{
    IncidentBundle, IncidentConfig, ServeConfig, ServeRequest, ServeResponse, Server,
};

/// Tenant-pinned plan-cache signature (same rationale as the input-drift
/// test: the mutation must hide behind a cache hit, not miss honestly).
const SIGNATURE: u64 = 0x5eed_f00d_0000_0002;

fn base_edges(n: usize, edges_wanted: usize) -> BTreeSet<(usize, usize)> {
    let mut edges = BTreeSet::new();
    let mut state = 0x243f_6a88_85a3_08d3u64;
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

fn serve(server: &Server, graph: &Arc<Graph>) -> ServeResponse {
    server
        .process(
            ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128)
                .with_iterations(100)
                .with_signature(SIGNATURE),
        )
        .expect("request completes")
}

#[test]
fn input_drift_anomaly_automatically_produces_a_correlated_bundle() {
    let n = 1024;
    let edges = base_edges(n, 4 * n);
    let base_list: Vec<_> = edges.iter().copied().collect();
    let base = Arc::new(Graph::undirected_from_edges(n, &base_list).unwrap());
    let mutated = Arc::new(inject_hubs(edges, n, 4));
    assert!(mutated.avg_degree() > base.avg_degree() + 3.0);

    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );

    let incident_dir =
        std::env::temp_dir().join(format!("granii-incident-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&incident_dir);

    granii_telemetry::reset();
    granii_telemetry::enable();
    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            incident: IncidentConfig {
                dir: Some(incident_dir.clone()),
                ..IncidentConfig::default()
            },
            ..ServeConfig::default()
        },
    );

    // Phase 1: stable serving — one selection, then steady hits. Nothing
    // may trip the capturer.
    serve(&server, &base);
    for _ in 0..5 {
        assert!(serve(&server, &base).cache_hit);
    }
    assert!(
        server.incidents().is_empty(),
        "clean serving captures nothing"
    );

    // Phase 2: the graph mutates under the pinned signature; the inspector
    // flags within k_consecutive requests and the flag trips the capturer.
    for _ in 0..5 {
        serve(&server, &mutated);
    }
    let stats = server.status();
    assert_eq!(stats.input_drift_flagged, 1);
    assert_eq!(stats.completed, 11);

    let bundles = server.incidents();
    assert_eq!(bundles.len(), 1, "one flag, one bundle (cooldown holds)");
    let bundle = &bundles[0];

    // Trigger names the offending signature and carries the drift deltas.
    assert_eq!(bundle.trigger.kind, "input_drift");
    assert_eq!(bundle.trigger.fingerprint, format!("{SIGNATURE:016x}"));
    assert_eq!(bundle.trigger.model, "gcn");
    assert!(bundle.trigger.value > 0.0, "band-L1 delta recorded");

    // Recorder health: always-on, nothing dropped at this load.
    assert!(bundle.recorder.written > 0);
    assert_eq!(bundle.recorder.dropped, 0);

    // Ring excerpt: the flagging record itself...
    let flag = bundle
        .ring
        .iter()
        .find(|e| e.kind == "input_drift_flag")
        .expect("ring excerpt contains the flagging record");
    assert_eq!(flag.fingerprint, format!("{SIGNATURE:016x}"));
    // ...and the batch group that carried the triggering request.
    let carrying_group = bundle
        .ring
        .iter()
        .find(|e| e.kind == "batch_formed" && e.members.contains(&flag.id))
        .expect("ring excerpt contains the batch group that executed the triggering request");
    assert_eq!(carrying_group.fingerprint, format!("{SIGNATURE:016x}"));
    assert!(carrying_group.batch >= 1);
    let mut prev = None;
    for entry in &bundle.ring {
        if let Some(p) = prev {
            assert!(entry.seq > p, "ring excerpt sorted and duplicate-free");
        }
        prev = Some(entry.seq);
    }

    // Selection audit: the composition the cache was serving, every
    // candidate's predicted cost, and the input statistics that keyed it.
    let selection = bundle
        .selection
        .as_ref()
        .expect("audit table retained the triggering signature's selection");
    assert_eq!(selection.fingerprint, format!("{SIGNATURE:016x}"));
    assert!(!selection.composition.is_empty());
    assert!(!selection.degraded);
    assert!(
        !selection.predicted.is_empty(),
        "per-candidate predicted costs captured"
    );
    assert!(selection
        .predicted
        .iter()
        .any(|c| c.composition == selection.composition));
    assert!(selection
        .predicted
        .iter()
        .all(|c| c.predicted_seconds > 0.0));
    let input = selection
        .input
        .as_ref()
        .expect("input statistics that keyed the selection");
    assert!(!input.bands.is_empty());
    let band_mass: f64 = input.bands.iter().sum();
    assert!(
        band_mass > 0.5 && band_mass < 1.5,
        "degree-band distribution sums to ~1, got {band_mass}"
    );
    assert!(input.avg_degree > 0.0);

    // Merged + per-outcome sketches and the embedded status snapshot.
    assert!(bundle
        .sketches
        .iter()
        .any(|s| s.name == "serve.latency.all" && s.count > 0));
    assert!(bundle.status.completed >= 8, "status captured mid-incident");
    assert!(bundle
        .events
        .iter()
        .any(|line| line.contains("serve.input_drift")));

    // The artifact on disk: exactly one file, valid JSON, round-trips.
    let mut files: Vec<_> = std::fs::read_dir(&incident_dir)
        .expect("incident dir created")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "one bundle file written: {files:?}");
    let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
    assert!(
        name.starts_with("incident-") && name.contains("input_drift") && name.ends_with(".json"),
        "artifact name carries seq and trigger kind: {name}"
    );
    let json = std::fs::read_to_string(&files[0]).unwrap();
    let parsed = IncidentBundle::from_json(&json).expect("artifact parses");
    assert_eq!(parsed.seq, bundle.seq);
    assert_eq!(parsed.trigger.kind, "input_drift");
    assert_eq!(parsed.ring.len(), bundle.ring.len());
    let reparsed = IncidentBundle::from_json(&parsed.to_json()).unwrap();
    assert_eq!(reparsed.trigger.fingerprint, bundle.trigger.fingerprint);

    // The human-readable timeline names the triggering signature and shows
    // the chosen candidate.
    let rendered = format!("{parsed}");
    assert!(rendered.contains("input_drift"));
    assert!(rendered.contains(&format!("{SIGNATURE:016x}")));
    assert!(rendered.contains("<- chosen"));
    assert!(rendered.contains("input_drift_flag"));

    // The status surface counts the capture.
    let status = server.status();
    assert_eq!(status.recorder.incidents, 1);
    assert_eq!(status.recorder.last_trigger, "input_drift");
    assert!(status.recorder.written > 0);

    server.shutdown();
    granii_telemetry::disable();
    granii_telemetry::reset();
    let _ = std::fs::remove_dir_all(&incident_dir);
}
