//! The observability zero-overhead contract: with trace sampling disabled
//! (`trace_sample_every: 0`), steady-state cache-hit serving performs zero
//! dense/sparse/workspace heap allocations — the same counters the
//! compile-once engine's steady-state contract is asserted against. Hits
//! served one at a time never allocate; batched hits never allocate after
//! the plan's first group of two or more, which grows its wide buffers once.
//!
//! The contract covers the full per-request observability stack: the
//! input-drift lane's `InputProfile::extract` (one O(nodes) pass over the
//! CSR row pointers, no buffers), the latency sketches (atomic log-bucket
//! increments), the HyperLogLog distinct counter, and the SLO window math
//! all ride the hit path and must stay off the tracked allocators.
//!
//! Single `#[test]` binary: the allocation counters are process-global, so
//! the assertion must run where no other test allocates matrices
//! concurrently.

use std::sync::Arc;

use granii_core::runtime::allocation_counter_total;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, Server};

#[test]
fn unsampled_cache_hits_do_not_allocate() {
    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::Mycielskian17.load(Scale::Tiny).unwrap());
    let request = || ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128);

    granii_telemetry::reset();
    granii_telemetry::enable();
    let mut config = ServeConfig {
        workers: 1,
        trace_sample_every: 0,
        ..ServeConfig::default()
    };
    // Crank the timeline sampler (always on) so it provably ticks (and
    // registers per-tenant columns) *during* the zero-alloc loops below: the
    // sampler and the metering ledger must not perturb the hit path's
    // contract.
    config.timeline.interval = std::time::Duration::from_millis(2);
    let server = Server::start(granii, config);

    // Warm the signature: the miss selects, binds, and allocates workspaces.
    let warm = server.process(request()).expect("warm-up miss completes");
    assert!(!warm.cache_hit);

    let before = allocation_counter_total();
    let recorder = server.status().recorder;
    let (recorder_before, dropped_before) = (recorder.written, recorder.dropped);
    for _ in 0..10 {
        let response = server.process(request()).expect("hit completes");
        assert!(response.cache_hit, "warmed signature must hit");
    }
    let after = allocation_counter_total();
    assert_eq!(
        after - before,
        0,
        "unsampled cache hits allocated dense/sparse/workspace buffers"
    );
    // The flight recorder is always-on — each hit streams enqueue, batch
    // formation, cache-hit, and completion records through the ring — so
    // the zero-alloc budget above already includes `record()`. Prove the
    // recorder was actually live (not silently gated) across the loop.
    let recorder = server.status().recorder;
    let (recorder_after, dropped_after) = (recorder.written, recorder.dropped);
    assert!(
        recorder_after - recorder_before >= 40,
        "recorder must stream >=4 records per hit while staying alloc-free \
         ({} -> {})",
        recorder_before,
        recorder_after
    );
    assert_eq!(
        dropped_after, dropped_before,
        "single-worker serving must not collide on ring slots"
    );
    // The hits above flowed through the whole observability stack: confirm
    // the sketches and the distinct counter actually recorded (this test
    // would be vacuous if they were silently skipped on the hit path).
    let hit_sketch = server
        .latency_sketches()
        .into_iter()
        .find(|s| s.name == "serve.latency.hit")
        .expect("hit latency sketch");
    assert_eq!(hit_sketch.count, 10, "every hit recorded into the sketch");
    let status = server.status();
    assert!(
        status.distinct_signatures > 0.5,
        "distinct-signature estimator saw the signature"
    );
    assert_eq!(status.input.len(), 1, "input-drift lane tracked the key");

    // Batched hits ride the same contract once the plan has its wide
    // multi-RHS buffers. A plan grows them once, at its first group of two
    // or more (`ensure_batch` when that group executes, not at the miss),
    // so that burst — and only that one — allocates.
    // Bursts before it (every group a group of one) and every burst after
    // it stay at zero. Burst rounds until a real batch (≥2) also formed
    // after the growth.
    let mut growth_bursts = 0;
    let mut batched_after_growth = false;
    for _ in 0..100 {
        let before = allocation_counter_total();
        let tickets: Vec<_> = (0..12)
            .map(|_| server.submit(request()).expect("burst submit"))
            .collect();
        let mut batched = false;
        for ticket in tickets {
            let response = ticket.wait().expect("batched hit completes");
            assert!(response.cache_hit, "warmed signature must hit");
            batched |= response.batch_size >= 2;
        }
        let allocated = allocation_counter_total() - before;
        if batched && growth_bursts == 0 {
            assert!(
                allocated > 0,
                "the plan's first group of two or more must grow its wide buffers"
            );
            growth_bursts += 1;
        } else {
            assert_eq!(
                allocated,
                0,
                "cache hits allocated dense/sparse/workspace buffers \
                 (wide buffers already grown: {})",
                growth_bursts > 0
            );
            batched_after_growth |= growth_bursts > 0 && batched;
        }
        if batched_after_growth {
            break;
        }
    }
    assert_eq!(growth_bursts, 1, "no batch of two or more ever formed");
    assert!(
        batched_after_growth,
        "no batch of two or more formed after the plan's wide buffers grew"
    );
    assert!(server.status().batching.batched_requests >= 4);

    // The metering ledger rode every one of those requests (all-atomic
    // recording inside the zero-alloc budget asserted above): its totals
    // must match the completion counter, and the per-tenant rows must sum
    // to the totals exactly.
    let totals = server.metering_totals();
    assert_eq!(
        totals.requests,
        server.status().completed,
        "ledger metered every completed request"
    );
    let tenant_sum: u64 = server.metering_rows().iter().map(|r| r.charged_ns).sum();
    assert_eq!(
        tenant_sum, totals.charged_ns,
        "per-tenant charges sum to the totals bitwise"
    );
    assert!(totals.charged_ns > 0, "hits carried engine charges");
    // And the sampler thread was live alongside the loops: the time-series
    // ring holds frames including this tenant's lane.
    let timeline = server.timeline_snapshot();
    assert!(timeline.frames() > 0, "sampler captured frames");
    assert!(
        timeline.column("serve.completed").is_some(),
        "global counter lane sampled"
    );

    server.shutdown();
    granii_telemetry::disable();
    granii_telemetry::reset();
}
