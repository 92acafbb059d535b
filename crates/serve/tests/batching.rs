//! Continuous-batching acceptance tests (ISSUE 7): signature-coalesced
//! groups must produce bitwise the same outputs as serial execution, mixed
//! hit/miss/degraded bursts must keep per-request outcome semantics, and
//! the batch/fairness counters must surface on the status snapshot.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use granii_core::cost::CostModelSet;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeError, ServeRequest, Server, Ticket};

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

/// Submits `burst` copies of `request` as fast as possible and waits for all
/// of them. With one worker busy on the first job, the rest pile up in the
/// ring and get drained as signature-coalesced groups.
fn burst(server: &Server, request: &ServeRequest, n: usize) -> Vec<granii_serve::ServeResponse> {
    let tickets: Vec<Ticket> = (0..n)
        .map(|_| server.submit(request.clone()).expect("burst submit"))
        .collect();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("burst request completes"))
        .collect()
}

#[test]
fn batched_outputs_are_bitwise_identical_to_serial() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let graph = tiny(Dataset::CoAuthorsCiteseer);
    let request = ServeRequest::new(ModelKind::Gcn, graph, 32, 64);

    // Serial reference: a lone request is a group of one (the serial path).
    let reference = server.process(request.clone()).expect("serial reference");
    assert_eq!(reference.batch_size, 1);

    // Burst rounds until at least one real batch (≥2) formed. With one
    // worker and execution far slower than submission this is all but
    // guaranteed on the first round; the loop removes the "all but".
    let mut batched_seen = false;
    for _ in 0..50 {
        for response in burst(&server, &request, 12) {
            assert_eq!(
                response.output.as_slice(),
                reference.output.as_slice(),
                "batched output (group of {}) must be bitwise identical to serial",
                response.batch_size
            );
            assert_eq!(response.composition, reference.composition);
            assert!(!response.degraded);
            batched_seen |= response.batch_size >= 2;
        }
        if batched_seen {
            break;
        }
    }
    assert!(batched_seen, "no batch of two or more ever formed");
    let stats = server.stats();
    assert!(stats.batches >= 1);
    assert!(stats.batched_requests >= 2);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}

#[test]
fn mixed_signature_bursts_batch_per_signature_and_stay_bitwise() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_depth: 128,
            // Two tenants share the queue evenly; neither hits its bound in
            // this test's bursts.
            fairness_share: 0.5,
            ..ServeConfig::default()
        },
    );
    let a = ServeRequest::new(ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 32, 64);
    let b = ServeRequest::new(ModelKind::Sgc, tiny(Dataset::Mycielskian17), 16, 32);
    let ref_a = server.process(a.clone()).expect("reference a");
    let ref_b = server.process(b.clone()).expect("reference b");

    // Interleave the two signatures in one burst: the dispatcher must
    // coalesce per signature, never across.
    let tickets: Vec<(bool, Ticket)> = (0..24)
        .map(|i| {
            let request = if i % 2 == 0 { &a } else { &b };
            (i % 2 == 0, server.submit(request.clone()).expect("submit"))
        })
        .collect();
    for (is_a, ticket) in tickets {
        let response = ticket.wait().expect("completes");
        let reference = if is_a { &ref_a } else { &ref_b };
        assert_eq!(response.output.as_slice(), reference.output.as_slice());
        assert_eq!(response.composition, reference.composition);
        assert!(response.cache_hit, "both signatures were warmed");
    }
    let stats = server.stats();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, 26);
    server.shutdown();
}

#[test]
fn degraded_and_expired_requests_keep_their_outcomes_inside_bursts() {
    // Broken cost models: every miss degrades to the default composition.
    let server = Server::start(
        broken_granii(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let request = ServeRequest::new(ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 32, 64);
    let responses = burst(&server, &request, 10);
    // Exactly one request (the signature's first — the batch leader or the
    // lone serial miss) pays the degraded selection; every follower and
    // every later hit serves the cached plan at full quality.
    let degraded: Vec<bool> = responses.iter().map(|r| r.degraded).collect();
    assert_eq!(degraded.iter().filter(|d| **d).count(), 1);
    assert!(degraded[0], "the first submitted request is the miss");
    let first = &responses[0];
    for response in &responses {
        assert_eq!(response.output.as_slice(), first.output.as_slice());
    }

    // An already-expired deadline inside a burst is counted at batch
    // formation but still served from the warm cache, undegraded.
    let expired = burst(&server, &request.clone().with_timeout(Duration::ZERO), 4);
    for response in &expired {
        assert!(response.cache_hit);
        assert!(!response.degraded);
        assert_eq!(response.output.as_slice(), first.output.as_slice());
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_expired, 4);
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}

#[test]
fn failed_groups_retry_members_without_repeating_their_dequeue() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    // A valid miss on a larger graph keeps the single worker busy while the
    // failing burst queues behind it, so the burst forms real groups.
    let large = Arc::new(
        Dataset::CoAuthorsCiteseer
            .load(Scale::Small)
            .expect("small dataset"),
    );
    let busy = server
        .submit(ServeRequest::new(ModelKind::Gcn, large, 32, 32))
        .expect("busy submit");
    // k2 = 0 is an invalid layer config, so binding fails for every member;
    // the zero timeout expires each member when its group forms.
    let invalid = ServeRequest::new(ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 8, 0)
        .with_timeout(Duration::ZERO);
    let tickets: Vec<Ticket> = (0..12)
        .map(|_| server.submit(invalid.clone()).expect("burst submit"))
        .collect();
    for ticket in tickets {
        let result = ticket.wait();
        assert!(
            matches!(result, Err(ServeError::Core(_))),
            "an invalid request fails with a core error: {result:?}"
        );
    }
    busy.wait().expect("the busy request completes");
    let stats = server.stats();
    assert!(
        stats.batches >= 1,
        "no group of two or more formed and failed"
    );
    assert_eq!(stats.failed, 12);
    assert_eq!(
        stats.deadline_expired, 12,
        "a retried member's dequeue bookkeeping must not run again"
    );
    let valid = ServeRequest::new(ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 32, 64);
    server
        .process(valid)
        .expect("a valid request completes after the failed groups");
    server.shutdown();
}

#[test]
fn batch_and_fairness_counters_surface_on_status() {
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let request = ServeRequest::new(ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 32, 64);
    let _ = burst(&server, &request, 16);
    let status = server.status();
    assert_eq!(status.batching.max_batch, 4);
    assert!(status.batching.groups >= 1, "every drain records its group");
    // Sketch quantiles carry bounded *relative* error, so allow a few
    // percent over the true bound of 4.
    assert!(
        status.batching.p95_size <= 4.5,
        "group sizes are bounded by max_batch (p95 {})",
        status.batching.p95_size
    );
    assert_eq!(status.fairness.tenant_queue_cap, 32); // depth 64 × share 0.5
    assert_eq!(
        status.fairness.tenants.len(),
        1,
        "one signature, one tenant"
    );
    assert_eq!(status.fairness.tenants[0].queued, 0, "drained at dequeue");
    assert!(status.fairness.tenants[0].admitted >= 16);
    // The snapshot round-trips with the new sections intact.
    let parsed = granii_serve::ServerStatus::from_json(&status.to_json()).expect("round-trip");
    assert_eq!(parsed.batching.max_batch, 4);
    assert_eq!(parsed.fairness.tenants.len(), 1);
    let rendered = status.to_string();
    assert!(rendered.contains("batching max 4"));
    assert!(rendered.contains("tenant cap 32"));
    server.shutdown();
}

#[test]
fn hot_tenant_cannot_capture_the_queue() {
    // Tiny queue, share 0.25 → one tenant may hold at most 2 of the 8
    // slots. Saturate with a single signature and verify the fairness bound
    // sheds while another signature still admits.
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 1,
            queue_depth: 8,
            max_batch: 1,
            fairness_share: 0.25,
            ..ServeConfig::default()
        },
    );
    let hot = ServeRequest::new(ModelKind::Gcn, tiny(Dataset::CoAuthorsCiteseer), 32, 64);
    let cold = ServeRequest::new(ModelKind::Sgc, tiny(Dataset::Mycielskian17), 16, 32);
    // Warm both signatures so the flood below queues behind fast hits.
    server.process(hot.clone()).expect("warm hot");
    server.process(cold.clone()).expect("warm cold");

    let mut tickets = Vec::new();
    let mut tenant_shed_seen = false;
    for _ in 0..200 {
        match server.submit(hot.clone()) {
            Ok(t) => tickets.push(t),
            Err(_) => {
                // Either the tenant bound or the global depth shed it; the
                // stats below pin down that the tenant bound fired.
                tenant_shed_seen = server.stats().tenant_shed > 0;
                if tenant_shed_seen {
                    break;
                }
            }
        }
    }
    assert!(tenant_shed_seen, "the hot tenant never hit its bound");
    // The other tenant still gets in while the hot one is saturated.
    let cold_response = server
        .process(cold.clone())
        .expect("cold tenant admits despite hot-tenant pressure");
    assert!(cold_response.cache_hit);
    for ticket in tickets {
        ticket.wait().expect("admitted hot requests complete");
    }
    let stats = server.stats();
    assert!(stats.tenant_shed >= 1);
    assert!(stats.shed >= stats.tenant_shed);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}
