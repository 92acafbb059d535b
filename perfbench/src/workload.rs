//! The three closed-loop traffic mixes and the seeded inputs they serve.
//!
//! Graph sizes and signature sets are fixed per workload; the seed only picks
//! graph structure and the request sequence. Every run of a seed therefore
//! serves the same requests in the same order, so cache misses, evictions
//! and drift flags repeat exactly, while different seeds stay comparable in
//! cost.

use std::sync::Arc;

use granii_gnn::spec::ModelKind;
use granii_graph::{generators, Graph};
use granii_serve::{ServeConfig, ServeRequest};

/// Worker threads, matching the two-core host the bounds were set on.
pub const WORKERS: usize = 2;

/// An untraced run measures its timed phase in this many consecutive
/// blocks (a few seconds each) and takes every end-to-end timing over the
/// quiet ones: blocks whose host CPU steal share is at most
/// [`QUIET_STEAL`], topped up with the next-quietest blocks until they hold
/// [`MIN_KEPT_REQUESTS`]. A burst of time the hypervisor gives to other
/// guests then does not pass for the program.
pub const BLOCKS: usize = 9;

/// Host steal share up to which a block counts as quiet.
pub const QUIET_STEAL: f64 = 0.02;

/// The fewest requests the kept blocks hold, so p99 has ten samples beyond
/// it.
pub const MIN_KEPT_REQUESTS: u64 = 1000;

/// The fewest timed requests: at least three blocks' worth of
/// [`MIN_KEPT_REQUESTS`] to choose the quiet ones from.
pub const MIN_REQUESTS: usize = 3000;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One request in flight; four hot signatures on ~20k-node graphs.
    HotLarge,
    /// Sixteen requests in flight; ~12 zipf-skewed small signatures.
    BurstSmall,
    /// One request in flight; LRU cycling over 72 signatures, 16 cached.
    ColdChurn,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "hot-large" => Some(Kind::HotLarge),
            "burst-small" => Some(Kind::BurstSmall),
            "cold-churn" => Some(Kind::ColdChurn),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotLarge => "hot-large",
            Kind::BurstSmall => "burst-small",
            Kind::ColdChurn => "cold-churn",
        }
    }

    /// Timed requests per second of `--seconds`, calibrated on a two-core
    /// host so that a run measures about that long. A fixed count (not a
    /// deadline) is what makes a seed's counters repeat exactly.
    fn requests_per_second(self) -> usize {
        match self {
            Kind::HotLarge => 88,
            Kind::BurstSmall => 900,
            Kind::ColdChurn => 88,
        }
    }
}

/// A workload: the server configuration, the distinct request signatures,
/// the serial warm-up that binds them, and the timed request sequence.
pub struct Workload {
    /// The server configuration under test.
    pub serve: ServeConfig,
    /// Requests the single generator thread keeps in flight.
    pub in_flight: usize,
    /// Distinct signatures; the sequences index into this.
    pub signatures: Vec<ServeRequest>,
    /// Signatures served one at a time before timing (binds every plan).
    pub warm: Vec<usize>,
    /// The timed request sequence.
    pub sequence: Vec<usize>,
    /// A prefix of the sequence whose length is a multiple of this leaves
    /// the plan cache as the warm-up left it.
    pub period: usize,
}

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but the
/// seed.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

fn graph(result: granii_graph::Result<Graph>) -> Result<Arc<Graph>, String> {
    result
        .map(Arc::new)
        .map_err(|e| format!("graph generation: {e}"))
}

fn config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        cache_capacity,
        ..ServeConfig::default()
    }
}

impl Workload {
    /// Builds `kind`'s inputs from `seed`, sized for a run of about
    /// `seconds` seconds and never fewer than [`MIN_REQUESTS`] requests.
    ///
    /// # Errors
    ///
    /// Returns graph-generation errors.
    pub fn build(kind: Kind, seed: u64, seconds: u64) -> Result<Workload, String> {
        let mut rng = SplitMix::new(seed ^ 0x5eed_0000_0000_0000);
        let requests = (seconds as usize * kind.requests_per_second()).max(MIN_REQUESTS);
        let models = [ModelKind::Gcn, ModelKind::Gin, ModelKind::Sgc];
        let workload = match kind {
            Kind::HotLarge => {
                // 20k nodes x 8 attachments = ~320k stored edges; a 141x141
                // road grid has a similar node count and max degree 4.
                let graphs = [
                    graph(generators::power_law(20_000, 8, rng.next_u64()))?,
                    graph(generators::grid_2d(141, 141))?,
                ];
                let mut signatures = Vec::new();
                for g in &graphs {
                    for model in [ModelKind::Gcn, ModelKind::Gin] {
                        signatures.push(ServeRequest::new(model, g.clone(), 32, 32));
                    }
                }
                let n = signatures.len();
                Workload {
                    serve: config(ServeConfig::default().cache_capacity),
                    in_flight: 1,
                    warm: (0..2 * n).map(|i| i % n).collect(),
                    sequence: (0..requests).map(|_| rng.below(n)).collect(),
                    signatures,
                    period: 1,
                }
            }
            Kind::BurstSmall => {
                // ~32k and ~3k stored edges: big enough that per-request
                // work is real, small enough that admission and batching
                // dominate.
                let graphs = [
                    graph(generators::power_law(2_000, 8, rng.next_u64()))?,
                    graph(generators::power_law(400, 4, rng.next_u64()))?,
                ];
                let mut signatures = Vec::new();
                for (k1, k2) in [(32, 32), (64, 32)] {
                    for g in &graphs {
                        for model in models {
                            signatures.push(ServeRequest::new(model, g.clone(), k1, k2));
                        }
                    }
                }
                // Zipf(1) over a fixed signature order: the head signatures
                // coalesce, and every seed offers the same mix.
                let weights: Vec<f64> = (0..signatures.len())
                    .map(|i| 1.0 / (i + 1) as f64)
                    .collect();
                let total: f64 = weights.iter().sum();
                let sequence = (0..requests)
                    .map(|_| {
                        let mut pick = rng.unit() * total;
                        weights
                            .iter()
                            .position(|w| {
                                pick -= w;
                                pick < 0.0
                            })
                            .unwrap_or(weights.len() - 1)
                    })
                    .collect();
                let n = signatures.len();
                Workload {
                    serve: config(ServeConfig::default().cache_capacity),
                    in_flight: 16,
                    warm: (0..2 * n).map(|i| i % n).collect(),
                    sequence,
                    signatures,
                    period: 1,
                }
            }
            Kind::ColdChurn => {
                let mut signatures = Vec::new();
                for _ in 0..24 {
                    let g = graph(generators::power_law(5_000, 8, rng.next_u64()))?;
                    for model in models {
                        signatures.push(ServeRequest::new(model, g.clone(), 32, 32));
                    }
                }
                // A seeded permutation, cycled: every signature's reuse
                // distance is 72 > 16 cached plans, so every request misses.
                let mut cycle: Vec<usize> = (0..signatures.len()).collect();
                for i in (1..cycle.len()).rev() {
                    cycle.swap(i, rng.below(i + 1));
                }
                let sequence = (0..requests).map(|i| cycle[i % cycle.len()]).collect();
                Workload {
                    serve: config(16),
                    in_flight: 1,
                    warm: cycle.clone(),
                    sequence,
                    signatures,
                    period: cycle.len(),
                }
            }
        };
        Ok(workload)
    }

    /// Requests served untimed just before a run's first served phase, at
    /// the workload's concurrency: at least 64 rounds of the in-flight
    /// window, rounded up to a whole `period`. The serial warm-up binds
    /// every plan but never fills the window, so without this pass the
    /// first block of a timed phase would pay for growing the heap to its
    /// steady size.
    pub fn warm_pass_len(&self) -> usize {
        (self.in_flight * 64).div_ceil(self.period) * self.period
    }
}
