//! Concurrency stress tests (ISSUE 4, satellite 5): many threads hammering
//! one shared [`Granii`] — directly and through the serving runtime — must
//! produce selections and outputs bitwise identical to a serial run. Runs
//! under the CI `GRANII_THREADS` matrix (1 and default), so both the
//! single-threaded and parallel kernel paths are covered.

use std::sync::Arc;

use granii::core::{Granii, GraniiOptions};
use granii::gnn::spec::{Composition, LayerConfig, ModelKind};
use granii::graph::datasets::{Dataset, Scale};
use granii::graph::Graph;
use granii::matrix::device::DeviceKind;
use granii::serve::{ServeConfig, ServeRequest, Server};

const THREADS: usize = 8;
const ROUNDS: usize = 4;

/// The mixed workload: every thread cycles through all of these.
fn signatures() -> Vec<(ModelKind, Arc<Graph>, usize, usize)> {
    let citeseer = Arc::new(
        Dataset::CoAuthorsCiteseer
            .load(Scale::Tiny)
            .expect("tiny dataset"),
    );
    let mycielskian = Arc::new(
        Dataset::Mycielskian17
            .load(Scale::Tiny)
            .expect("tiny dataset"),
    );
    vec![
        (ModelKind::Gcn, citeseer.clone(), 48, 96),
        (ModelKind::Gcn, mycielskian.clone(), 96, 48),
        (ModelKind::Gin, citeseer.clone(), 32, 64),
        (ModelKind::Sgc, mycielskian.clone(), 64, 32),
        (ModelKind::Gat, citeseer, 16, 32),
        (ModelKind::Tagcn, mycielskian, 32, 16),
    ]
}

fn granii() -> Arc<Granii> {
    Arc::new(Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast()).expect("training"))
}

/// The selection path is deterministic under contention: 8 threads times 4
/// rounds of mixed `select_with_config` calls against one shared instance
/// all reproduce the serial selections — same composition, same predicted
/// costs to the bit.
#[test]
fn concurrent_selections_are_bitwise_identical_to_serial() {
    let granii = granii();
    let work = signatures();

    // Serial reference: one selection per signature.
    let reference: Vec<(Composition, Vec<(Composition, u64)>)> = work
        .iter()
        .map(|(model, graph, k1, k2)| {
            let sel = granii
                .select_with_config(*model, graph, LayerConfig::new(*k1, *k2), 100)
                .expect("serial selection");
            let predicted = sel
                .predicted
                .iter()
                .map(|(c, cost)| (*c, cost.to_bits()))
                .collect();
            (sel.composition, predicted)
        })
        .collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let granii = &granii;
            let work = &work;
            let reference = &reference;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Offset the start so threads contend on different
                    // signatures at the same instant.
                    for i in 0..work.len() {
                        let idx = (t + round + i) % work.len();
                        let (model, graph, k1, k2) = &work[idx];
                        let sel = granii
                            .select_with_config(*model, graph, LayerConfig::new(*k1, *k2), 100)
                            .expect("concurrent selection");
                        let (ref_comp, ref_predicted) = &reference[idx];
                        assert_eq!(
                            sel.composition, *ref_comp,
                            "thread {t} round {round}: selection diverged for {model}"
                        );
                        let predicted: Vec<(Composition, u64)> = sel
                            .predicted
                            .iter()
                            .map(|(c, cost)| (*c, cost.to_bits()))
                            .collect();
                        assert_eq!(
                            predicted, *ref_predicted,
                            "thread {t} round {round}: predicted costs diverged for {model}"
                        );
                    }
                }
            });
        }
    });
}

/// The serving path is deterministic under contention: outputs from a
/// multi-worker server under 8 concurrent clients are bitwise identical to a
/// serial single-worker run, cache hits and misses alike.
#[test]
fn concurrent_serving_outputs_are_bitwise_identical_to_serial() {
    let granii = granii();
    let work = signatures();

    // Serial reference: fresh single-worker server, one response per
    // signature (all cache-cold).
    let serial = Server::start(
        granii.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let reference: Vec<(Composition, Vec<u32>)> = work
        .iter()
        .map(|(model, graph, k1, k2)| {
            let response = serial
                .process(ServeRequest::new(*model, graph.clone(), *k1, *k2))
                .expect("serial request");
            let bits = response
                .output
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (response.composition, bits)
        })
        .collect();
    serial.shutdown();

    let server = Server::start(
        granii,
        ServeConfig {
            workers: 4,
            queue_depth: THREADS * work.len(),
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let server = &server;
            let work = &work;
            let reference = &reference;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..work.len() {
                        let idx = (t + round + i) % work.len();
                        let (model, graph, k1, k2) = &work[idx];
                        let response = server
                            .process(ServeRequest::new(*model, graph.clone(), *k1, *k2))
                            .expect("concurrent request");
                        let (ref_comp, ref_bits) = &reference[idx];
                        assert_eq!(
                            response.composition, *ref_comp,
                            "thread {t} round {round}: composition diverged for {model}"
                        );
                        let bits: Vec<u32> = response
                            .output
                            .as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(
                            &bits, ref_bits,
                            "thread {t} round {round}: output bits diverged for {model}"
                        );
                    }
                }
            });
        }
    });
    let stats = server.status();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, (THREADS * ROUNDS * work.len()) as u64);
    assert_eq!(stats.shed, 0, "queue was sized to never shed");
    server.shutdown();
}
