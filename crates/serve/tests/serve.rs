//! Serving-runtime acceptance tests (ISSUE 4): load shedding under a full
//! queue, default-composition fallback with a corrupted cost model, deadline
//! degradation, steady-state cache hit rate, LRU eviction, and bitwise
//! deterministic outputs across cache hits, misses, and server restarts.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use granii_core::cost::CostModelSet;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeError, ServeRequest, Server};

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

/// A GRANII instance whose cost models cannot predict anything: every
/// prediction fails with `MissingCostModel`, the degradation trigger.
fn broken_granii() -> Arc<Granii> {
    Arc::new(Granii::with_cost_models(CostModelSet::new(
        DeviceKind::H100,
        BTreeMap::new(),
        BTreeMap::new(),
    )))
}

fn tiny(dataset: Dataset) -> Arc<Graph> {
    Arc::new(dataset.load(Scale::Tiny).expect("tiny dataset"))
}

#[test]
fn serves_a_request_end_to_end() {
    let server = Server::start(granii(), ServeConfig::default());
    let graph = tiny(Dataset::CoAuthorsCiteseer);
    let n = graph.num_nodes();
    let response = server
        .process(ServeRequest::new(ModelKind::Gcn, graph, 64, 128))
        .expect("request completes");
    assert_eq!(response.output.shape(), (n, 128));
    assert!(response.output.as_slice().iter().all(|v| v.is_finite()));
    assert!(!response.degraded);
    assert!(!response.cache_hit, "first request of a signature misses");
    assert!(response.timing.total_seconds >= response.timing.execute_seconds);
    let stats = server.status();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}

#[test]
fn repeated_workload_exceeds_90_percent_hit_rate() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    // Three distinct signatures, each requested 40 times sequentially: only
    // the first request of each signature can miss.
    let signatures = [
        (ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 64, 128),
        (ModelKind::Gin, tiny(Dataset::Mycielskian17), 128, 64),
        (ModelKind::Sgc, tiny(Dataset::CoAuthorsCiteseer), 32, 32),
    ];
    for round in 0..40 {
        for (model, graph, k1, k2) in &signatures {
            let response = server
                .process(ServeRequest::new(*model, graph.clone(), *k1, *k2))
                .expect("request completes");
            if round > 0 {
                assert!(response.cache_hit, "round {round} must hit");
            }
        }
    }
    let stats = server.status();
    assert_eq!(stats.completed, 120);
    assert_eq!(stats.cache.misses, 3, "one miss per signature");
    assert_eq!(stats.cache.hits, 117);
    assert!(
        stats.cache.hit_rate > 0.9,
        "steady-state hit rate {} must exceed 90%",
        stats.cache.hit_rate
    );
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_not_abort() {
    // Depth 0 makes shedding deterministic: every submit finds a full queue.
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            queue_depth: 0,
            ..ServeConfig::default()
        },
    );
    let graph = tiny(Dataset::CoAuthorsCiteseer);
    for _ in 0..10 {
        match server.submit(ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128)) {
            Err(ServeError::Overloaded { depth }) => assert_eq!(depth, 0),
            other => panic!("expected Overloaded, got {other:?}", other = other.err()),
        }
    }
    let stats = server.status();
    assert_eq!(stats.shed, 10);
    assert_eq!(stats.submitted, 0);
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_excess_and_completes_the_rest() {
    // One worker, shallow queue, a burst far faster than service: some
    // requests are shed, every accepted one completes, nothing panics.
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    );
    let graph = tiny(Dataset::CoAuthorsCiteseer);
    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for _ in 0..64 {
        match server.submit(ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128)) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let accepted = tickets.len() as u64;
    for ticket in tickets {
        let response = ticket.wait().expect("accepted request completes");
        assert!(response.output.as_slice().iter().all(|v| v.is_finite()));
    }
    let stats = server.status();
    assert_eq!(accepted + shed, 64);
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}

#[test]
fn corrupted_cost_model_degrades_every_miss_but_completes_every_request() {
    let server = Server::start(broken_granii(), ServeConfig::default());
    // GCN at 48x96 has rival candidates, so selection genuinely needs the
    // (missing) cost models; two signatures, several repeats each.
    let signatures = [
        (tiny(Dataset::CoAuthorsCiteseer), 48, 96),
        (tiny(Dataset::Mycielskian17), 96, 48),
    ];
    for _ in 0..5 {
        for (graph, k1, k2) in &signatures {
            let response = server
                .process(ServeRequest::new(ModelKind::Gcn, graph.clone(), *k1, *k2))
                .expect("degraded request still completes");
            assert!(response.output.as_slice().iter().all(|v| v.is_finite()));
            if !response.cache_hit {
                assert!(response.degraded, "a miss without cost models degrades");
            }
        }
    }
    let stats = server.status();
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.degraded, stats.cache.misses,
        "degraded counter must match the fallback count (one per miss)"
    );
    assert_eq!(stats.cache.misses, 2, "one miss per signature");
    server.shutdown();
}

#[test]
fn expired_deadline_serves_degraded_instead_of_failing() {
    let server = Server::start(granii(), ServeConfig::default());
    let graph = tiny(Dataset::Mycielskian17);
    // A zero timeout is always expired by dequeue time.
    let response = server
        .process(
            ServeRequest::new(ModelKind::Gcn, graph.clone(), 48, 96).with_timeout(Duration::ZERO),
        )
        .expect("expired request is served, not dropped");
    assert!(
        response.degraded,
        "expired miss uses the default composition"
    );
    let stats = server.status();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.degraded, 1);

    // Once the plan is cached, even an expired request serves at full
    // quality: the cache makes the deadline moot.
    let hit = server
        .process(ServeRequest::new(ModelKind::Gcn, graph, 48, 96).with_timeout(Duration::ZERO))
        .expect("request completes");
    assert!(hit.cache_hit);
    assert!(!hit.degraded);
    assert_eq!(server.status().degraded, 1);
    server.shutdown();
}

#[test]
fn lru_eviction_keeps_cache_at_capacity() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            cache_capacity: 2,
            ..ServeConfig::default()
        },
    );
    let graph = tiny(Dataset::CoAuthorsCiteseer);
    // Four distinct signatures through a capacity-2 cache.
    for k2 in [16, 32, 64, 128] {
        server
            .process(ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, k2))
            .expect("request completes");
    }
    let stats = server.status();
    assert_eq!(stats.cache.len, 2);
    assert_eq!(stats.cache.evictions, 2);
    // The most recent signature is still cached; the oldest is not.
    server
        .process(ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128))
        .expect("request completes");
    assert_eq!(server.status().cache.hits, 1);
    server
        .process(ServeRequest::new(ModelKind::Gcn, graph, 64, 16))
        .expect("request completes");
    assert_eq!(
        server.status().cache.misses,
        5,
        "evicted signature re-misses"
    );
    server.shutdown();
}

#[test]
fn distinct_signatures_count_plan_signatures_not_graphs() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // Four signatures over two graphs, each requested twice.
    let graphs = [
        tiny(Dataset::CoAuthorsCiteseer),
        tiny(Dataset::Mycielskian17),
    ];
    for _ in 0..2 {
        for graph in &graphs {
            for model in [ModelKind::Gcn, ModelKind::Gin] {
                server
                    .process(ServeRequest::new(model, graph.clone(), 32, 16))
                    .expect("request completes");
            }
        }
    }
    let estimate = server.status().distinct_signatures;
    assert!(
        (3.5..4.5).contains(&estimate),
        "four plan signatures over two graphs, estimate {estimate}"
    );
    server.shutdown();
}

#[test]
fn outputs_are_bitwise_identical_across_hits_misses_and_restarts() {
    let graph = tiny(Dataset::Mycielskian17);
    let request = || ServeRequest::new(ModelKind::Gin, graph.clone(), 32, 48);

    let server = Server::start(granii(), ServeConfig::default());
    let miss = server.process(request()).expect("miss completes");
    let hit = server.process(request()).expect("hit completes");
    assert!(!miss.cache_hit);
    assert!(hit.cache_hit);
    assert_eq!(miss.composition, hit.composition);
    assert_eq!(
        miss.output.as_slice(),
        hit.output.as_slice(),
        "cached iterate must reproduce the miss-time output bitwise"
    );
    server.shutdown();

    // A fresh server (fresh cache, fresh workers) reproduces the same bits.
    let server2 = Server::start(granii(), ServeConfig::default());
    let replay = server2.process(request()).expect("replay completes");
    assert_eq!(miss.output.as_slice(), replay.output.as_slice());
    server2.shutdown();
}

#[test]
fn shutdown_drains_queued_requests() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        },
    );
    let graph = tiny(Dataset::CoAuthorsCiteseer);
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            server
                .submit(ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128))
                .expect("queue has room")
        })
        .collect();
    server.shutdown();
    for ticket in tickets {
        ticket
            .wait()
            .expect("queued request served before shutdown");
    }
}

#[test]
fn the_first_timeline_frame_exists_when_start_returns() {
    let server = Server::start(broken_granii(), ServeConfig::default());
    let timeline = server.timeline_snapshot();
    server.shutdown();
    // The start frame, then the snapshot's own read; the sampler's first
    // tick is 250 ms away, so a missing start frame leaves exactly one.
    assert!(
        timeline.frames() >= 2,
        "a frame taken before start returned"
    );
    let completed = timeline
        .columns
        .iter()
        .find(|c| c.name == "serve.completed")
        .expect("the first frame samples the catalog");
    assert_eq!(completed.values[0], Some(0.0));
    assert!(timeline
        .columns
        .iter()
        .all(|c| c.values.len() == timeline.frames()));
}

#[test]
fn reading_the_timeline_never_writes_its_ring() {
    let server = Server::start(broken_granii(), ServeConfig::default());
    let start_frame = server.timeline_snapshot().at_ns[0];
    // More reads than the ring holds frames: were a read to append to the
    // ring, the start frame would be gone after these.
    for _ in 0..300 {
        server.timeline_snapshot();
    }
    let timeline = server.timeline_snapshot();
    server.shutdown();
    assert_eq!(
        timeline.at_ns[0], start_frame,
        "the start frame is retained"
    );
    assert!(timeline.at_ns.windows(2).all(|w| w[0] <= w[1]));
}
