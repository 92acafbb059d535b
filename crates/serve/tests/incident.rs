//! End-to-end incident capture: the input-drift anomaly from the
//! `input_drift` scenario (hub edges injected under a pinned signature)
//! must *automatically* produce an incident bundle — no operator action —
//! whose ring excerpt contains the flagging record, the batch group that
//! carried the triggering request, and the selection audit (chosen
//! composition, per-candidate predicted costs, and the input statistics
//! that keyed the choice). The bundle must land on disk as valid JSON,
//! round-trip through the parser, and render a timeline that names the
//! triggering signature. A bundle's trigger is the flight record that
//! fired, in the ring's own form: for drift the lane's flag record, for a
//! shed storm a server-scoped `shed_storm` record.
//!
//! The drift scenario writes a scratch incident directory named after the
//! process; the shed-storm scenario keeps its bundle in memory.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use granii_core::cost::CostModelSet;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{
    IncidentBundle, IncidentConfig, RingEntry, ServeConfig, ServeRequest, ServeResponse, Server,
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
    assert_eq!(bundle.trigger.kind, "input_drift_flag");
    assert_eq!(bundle.trigger.fingerprint, format!("{SIGNATURE:016x}"));
    assert_eq!(bundle.trigger.model, "gcn");
    assert!(
        bundle.trigger.note.starts_with("band_l1="),
        "band-L1 delta recorded"
    );
    assert!(bundle.trigger.id >= 1, "the flagging request's id");

    // Recorder health, from the embedded status: always-on, nothing
    // dropped at this load, and this capture already counted.
    assert!(bundle.status.recorder.written > 0);
    assert_eq!(bundle.status.recorder.dropped, 0);
    assert_eq!(bundle.status.recorder.incidents, 1);

    // Ring excerpt: the flagging record itself, which is the trigger (same
    // seq, kind and note)...
    let flag = bundle
        .ring
        .iter()
        .find(|e| e.kind == "input_drift_flag")
        .expect("ring excerpt contains the flagging record");
    assert_eq!(flag.fingerprint, format!("{SIGNATURE:016x}"));
    assert_eq!(flag, &bundle.trigger);
    let ring_flag = server
        .flight_records()
        .iter()
        .map(RingEntry::from_record)
        .find(|e| e.kind == "input_drift_flag")
        .expect("the live ring holds the flag record");
    assert_eq!(ring_flag, bundle.trigger, "the ring and the bundle agree");
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
    // ...ending with the capture's own record, which names the signature.
    let marker = bundle.ring.last().expect("non-empty ring excerpt");
    assert_eq!(marker.kind, "incident");
    assert_eq!(marker.note, "seq=1 trigger=input_drift_flag");
    assert_eq!(marker.fingerprint, format!("{SIGNATURE:016x}"));

    // Selection audit: the composition the cache was serving, every
    // candidate's predicted cost, and the input statistics that keyed it.
    let selection = bundle
        .selection
        .as_ref()
        .expect("audit table retained the triggering signature's selection");
    assert_eq!(selection.fingerprint, format!("{SIGNATURE:016x}"));
    assert_eq!((selection.k1, selection.k2), (64, 128));
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
    let input = &selection.input;
    assert!(!input.bands.is_empty());
    let band_mass: f64 = input.bands.iter().sum();
    assert!(
        band_mass > 0.5 && band_mass < 1.5,
        "degree-band distribution sums to ~1, got {band_mass}"
    );
    assert!(input.avg_degree > 0.0);

    // The embedded status snapshot carries the latency quantiles.
    assert!(bundle.status.latency.iter().any(|row| row.count > 0));
    assert!(bundle.status.completed >= 8, "status captured mid-incident");
    // The timeline ends where that status does.
    assert_eq!(
        last_sample(bundle, "serve.completed"),
        bundle.status.completed as f64
    );

    // The artifact on disk: exactly one file, valid JSON, round-trips.
    let mut files: Vec<_> = std::fs::read_dir(&incident_dir)
        .expect("incident dir created")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "one bundle file written: {files:?}");
    let name = files[0].file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(
        name, "incident-001-input_drift_flag.json",
        "artifact name carries seq and trigger kind"
    );
    let json = std::fs::read_to_string(&files[0]).unwrap();
    let parsed = IncidentBundle::from_json(&json).expect("artifact parses");
    assert_eq!(parsed.seq, bundle.seq);
    assert_eq!(parsed.trigger, bundle.trigger);
    assert_eq!(parsed.ring.len(), bundle.ring.len());
    let reparsed = IncidentBundle::from_json(&parsed.to_json()).unwrap();
    assert_eq!(reparsed.trigger.fingerprint, bundle.trigger.fingerprint);

    // The human-readable timeline names the triggering signature and shows
    // the chosen candidate.
    let rendered = format!("{parsed}");
    assert!(rendered.contains("trigger input_drift_flag"));
    assert!(rendered.contains(&format!("signature gcn {SIGNATURE:016x} 64x128")));
    assert!(rendered.contains(&format!("detail    {}", bundle.trigger.note)));
    assert!(rendered.contains("<- chosen"));

    // The status surface counts the capture.
    let status = server.status();
    assert_eq!(status.recorder.incidents, 1);
    assert_eq!(status.recorder.last_trigger, "input_drift_flag");
    assert!(status.recorder.written > 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&incident_dir);
}

#[test]
fn a_shed_storm_bundle_triggers_on_its_shed_storm_record() {
    // A zero-depth queue sheds every submit, so nothing is ever served and
    // no cost model is needed; the third shed within the window is a storm.
    let granii = Arc::new(Granii::with_cost_models(CostModelSet::new(
        DeviceKind::H100,
        BTreeMap::new(),
        BTreeMap::new(),
    )));
    let graph = Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap());
    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            incident: IncidentConfig {
                cooldown: Duration::ZERO,
                shed_threshold: 3,
                ..IncidentConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    for _ in 0..3 {
        let request = ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128);
        assert!(server.submit(request).is_err(), "zero-depth queue sheds");
    }
    let bundles = server.incidents();
    let records: Vec<RingEntry> = server
        .flight_records()
        .iter()
        .map(RingEntry::from_record)
        .collect();
    let status = server.status();
    server.shutdown();

    assert_eq!(bundles.len(), 1, "one storm, one bundle");
    let bundle = &bundles[0];
    let storm = records
        .iter()
        .find(|e| e.kind == "shed_storm")
        .expect("the storm is a ring record");
    assert_eq!(&bundle.trigger, storm, "the trigger is the ring's record");
    assert_eq!(storm.note, "sheds=3");
    // Server-scoped: no request id, no signature.
    assert_eq!((storm.id, storm.fingerprint.as_str()), (0, ""));
    assert!(bundle.selection.is_none(), "a storm names no signature");
    assert!(bundle.to_string().contains("signature -"));
    // The sheds that built the storm are request-scoped, ids 1..=3.
    let shed_ids: Vec<u64> = records
        .iter()
        .filter(|e| e.kind == "shed")
        .map(|e| e.id)
        .collect();
    assert_eq!(shed_ids, vec![1, 2, 3]);
    assert_eq!(
        records.last().map(|e| e.note.as_str()),
        Some("seq=1 trigger=shed_storm")
    );
    assert_eq!(status.recorder.last_trigger, "shed_storm");
    // The timeline ends where the bundle's status does, with the sheds
    // since the start frame, however long ago the sampler last ticked.
    assert!(bundle.status.shed > 0);
    assert_eq!(last_sample(bundle, "serve.shed"), bundle.status.shed as f64);
}

/// The newest sample of the bundle's timeline column `name`.
fn last_sample(bundle: &IncidentBundle, name: &str) -> f64 {
    let column = bundle
        .timeline
        .columns
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("timeline samples {name}"));
    assert_eq!(column.values.len(), bundle.timeline.frames());
    column.values.last().copied().flatten().expect("sampled")
}
