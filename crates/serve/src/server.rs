//! The serving runtime: lock-free admission, continuous batching, and
//! request execution.
//!
//! Admission is a bounded lock-free MPMC ring ([`crossbeam::queue::ArrayQueue`])
//! with shed-don't-block semantics and a per-tenant fairness bound (the
//! tenant ledger, [`crate::metering`]); workers drain the ring into
//! signature-keyed batch groups and serve every group, a group of one
//! included, through one execution path: one multi-RHS `iterate_batched`
//! per group (column-stacked blocks for two or more, bitwise identical to
//! one request at a time; a group of one runs on the narrow buffers — see
//! DESIGN.md §12).

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::queue::ArrayQueue;
use granii_core::cost::FeaturizedInput;
use granii_core::execplan::{BoundPlan, ExecPlan, PlanInputs};
use granii_core::{runtime, CoreError, Granii};
use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;
use granii_telemetry::{
    start_sampler, ColumnId, DistinctCounter, MetricsSnapshot, SamplerHandle, Sketch,
    SketchSnapshot, TimeSeriesRing, DEFAULT_SKETCH_ALPHA,
};

use crate::cache::{CachedPlan, PlanCache, PlanKey};
use crate::catalog::{self, BATCH_SIZE, LATENCY};
use crate::drift::{InputProfile, Lane, Residual, Track};
use crate::incident::{
    CandidateCost, IncidentBundle, IncidentCapturer, IncidentConfig, InputStats, RingEntry,
    SelectionAuditInfo, TimelineInfo, RING_TAIL,
};
use crate::metering::{exact_share, MeterCharge, MeterRow, Tenant, TenantLedger};
use crate::recorder::{
    FlightRecord, FlightRecorder, RecordKind, MAX_BATCH_MEMBERS, RECORDER_CAPACITY,
};
use crate::scrape::ScrapeHandle;
use crate::slo::{Outcome, SloConfig, SloMonitor, SloVerdict};
use crate::status::{
    hex_fp, BatchingStatus, CacheStatus, DriftSignatureStatus, FairnessStatus,
    InputSignatureStatus, LatencySketchStatus, MeteringStatus, RecorderStatus, ServerStatus,
    SloObjectiveStatus, TenantMeterStatus, TenantStatus, WorkerStatus,
};
use crate::trace::{self, RequestTrace};
use crate::{Result, ServeError};

/// Seed for the deterministic synthetic feature/weight matrices every
/// request binds against. Fixed so that, for a given (model, graph, k1, k2)
/// signature, hits and misses produce bitwise-identical outputs — and so a
/// serial rerun of the same request stream reproduces the served results.
const SERVE_SEED: u64 = 41;

/// The synthetic features `H` the server binds plans against, one per
/// `(n, k1)`. `H` is a pure function of that shape (seeded by
/// [`SERVE_SEED`]), so every plan of one shape shares one copy read-only.
/// Entries are weak: an `H` lives exactly as long as a cached plan (or a bind
/// in progress) holds it, and dead entries are pruned on insert.
#[derive(Default)]
struct SharedFeatures {
    by_shape: Mutex<BTreeMap<(usize, usize), Weak<DenseMatrix>>>,
}

impl SharedFeatures {
    /// The live `H` for `n` nodes and `k1` columns, or a fresh one. A fresh
    /// `H` is generated without holding the lock; if a racing miss of the
    /// same shape published one meanwhile, that one is returned instead.
    fn get(&self, n: usize, k1: usize) -> Arc<DenseMatrix> {
        if let Some(h) = self.live(n, k1) {
            return h;
        }
        let fresh = Arc::new(DenseMatrix::random(n, k1, 1.0, SERVE_SEED));
        let mut by_shape = self.lock();
        if let Some(h) = by_shape.get(&(n, k1)).and_then(Weak::upgrade) {
            return h;
        }
        by_shape.retain(|_, h| h.strong_count() > 0);
        by_shape.insert((n, k1), Arc::downgrade(&fresh));
        fresh
    }

    /// The `H` of shape `(n, k1)` if some plan still holds it.
    fn live(&self, n: usize, k1: usize) -> Option<Arc<DenseMatrix>> {
        self.lock().get(&(n, k1)).and_then(Weak::upgrade)
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<(usize, usize), Weak<DenseMatrix>>> {
        // Every update (a prune, an insert) leaves the map valid.
        self.by_shape.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// How long a worker sleeps between queue polls when parked. The wake
/// protocol below normally wakes workers promptly; the timeout is the
/// belt-and-braces bound on any missed wakeup.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// The on-host timeline's sampling period: a background sampler thread
/// captures one frame of every catalog series (counters, gauges, sketch
/// quantiles, per-tenant lanes) this often into a ring of the last
/// [`TIMELINE_FRAMES`] frames ([`granii_telemetry::TimeSeriesRing`]).
const TIMELINE_INTERVAL: Duration = Duration::from_millis(250);

/// Frames the on-host time-series ring retains: the last minute, enough for
/// an incident bundle to answer "what was trending before this fired".
const TIMELINE_FRAMES: usize = 240;

/// Serving runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Maximum queued (accepted but not yet running) requests; submits
    /// beyond this are shed with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Maximum bound plans retained in the LRU cache.
    pub cache_capacity: usize,
    /// Maximum requests coalesced into one signature-keyed batch group
    /// (executed as a single multi-RHS iterate). `1` disables batching.
    pub max_batch: usize,
    /// Per-tenant admission share: one tenant (plan-signature fingerprint)
    /// may hold at most `max(1, queue_depth × fairness_share)` queued
    /// requests. Clamped to `[0, 1]`; `1.0` disables fairness shedding.
    pub fairness_share: f64,
    /// Export a per-request trace lane for every `N`-th request (0 disables
    /// sampling; has no effect unless telemetry is enabled). Unsampled
    /// requests carry no trace state at all.
    pub trace_sample_every: u64,
    /// Latency-SLO objectives and burn-rate monitoring tuning.
    pub slo: SloConfig,
    /// Automatic incident-capture policy (triggers, rate limits, artifact
    /// directory).
    pub incident: IncidentConfig,
    /// Bind address of the Prometheus-compatible scrape listener
    /// (`/metrics`, `/healthz`, `/readyz`); port 0 picks an ephemeral port
    /// ([`Server::scrape_addr`]). `None`, the default, keeps serving
    /// network-free.
    pub scrape: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 64,
            max_batch: 8,
            fairness_share: 0.5,
            trace_sample_every: 0,
            slo: SloConfig::default(),
            incident: IncidentConfig::default(),
            scrape: None,
        }
    }
}

/// One inference request: which model to run on which graph at which
/// embedding sizes, and how many iterations the selection should amortize
/// hoisted work over.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// GNN model family.
    pub model: ModelKind,
    /// The input graph (shared — requests are cheap to clone).
    pub graph: Arc<Graph>,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// Iteration count selection amortizes hoisted work over.
    pub iterations: usize,
    /// Optional per-request deadline, measured from submit. Checked when
    /// the request's batch group forms (for a group of one that is the
    /// dequeue): an expired request is not dropped but served degraded
    /// (default composition, no cost-model consultation) unless its
    /// signature's plan is already cached.
    pub timeout: Option<Duration>,
    /// Optional pinned cache signature. By default the plan key hashes the
    /// graph's content fingerprint, so a tenant whose graph mutates simply
    /// misses the cache and re-selects. A pinned signature says "this is
    /// the same logical graph" across mutations — the cache keeps serving
    /// the stale bound plan, which is exactly the blind spot the
    /// input-drift lane exists to close.
    pub signature: Option<u64>,
}

impl ServeRequest {
    /// A request with the paper's default iteration count and no deadline.
    pub fn new(model: ModelKind, graph: Arc<Graph>, k1: usize, k2: usize) -> Self {
        ServeRequest {
            model,
            graph,
            k1,
            k2,
            iterations: runtime::DEFAULT_ITERATIONS,
            timeout: None,
            signature: None,
        }
    }

    /// Sets the amortization iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets a deadline relative to submit time.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Pins the plan-cache signature to a tenant-stable identity instead of
    /// the graph's content fingerprint (see [`ServeRequest::signature`]).
    pub fn with_signature(mut self, signature: u64) -> Self {
        self.signature = Some(signature);
        self
    }

    fn plan_key(&self) -> PlanKey {
        (
            self.model,
            self.signature.unwrap_or_else(|| self.graph.fingerprint()),
            self.k1,
            self.k2,
        )
    }
}

/// Per-request wall-clock breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTiming {
    /// Time spent queued: from the ring push (after the plan-key hash)
    /// until the request's batch group formed.
    pub queue_seconds: f64,
    /// Time spent choosing and binding a plan (zero on a cache hit).
    pub select_seconds: f64,
    /// Time from the start of the group's steady-state execution until
    /// this request's output was ready (for a batched request: the whole
    /// group's multi-RHS iterate — the wall time this request actually
    /// waited on execution).
    pub execute_seconds: f64,
    /// Submit-to-reply total.
    pub total_seconds: f64,
}

/// The outcome of a served request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The composition that produced the output.
    pub composition: Composition,
    /// The executed layer output (`n x k2`).
    pub output: DenseMatrix,
    /// Wall-clock breakdown.
    pub timing: RequestTiming,
    /// Whether a cached bound plan served the request.
    pub cache_hit: bool,
    /// Whether the request fell back to the default composition (expired
    /// deadline or cost-model prediction failure).
    pub degraded: bool,
    /// Size of the batch group this request executed in.
    pub batch_size: usize,
}

/// Lifecycle counters the tenant ledger does not already keep (it owns
/// completions, degradations, and sheds).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    failed: AtomicU64,
    deadline_expired: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Cumulative over the server's lifetime — unlike the detector's own
    /// tally, this survives [`Server::replace_granii`] resets.
    drift_flagged: AtomicU64,
    /// Same lifetime semantics, for the input-drift lane.
    input_drift_flagged: AtomicU64,
}

/// Per-worker activity slots (status surface): nanoseconds spent processing
/// and requests handled, indexed by worker.
struct WorkerSlot {
    busy_ns: AtomicU64,
    requests: AtomicU64,
}

struct Job {
    id: u64,
    /// Plan key, computed once at submit (the fingerprint feeds tenant
    /// accounting and batch grouping).
    key: PlanKey,
    /// The graph's input profile, read at submit: the input-drift lane's
    /// sample and, on a miss, the reference pinned for the signature.
    profile: InputProfile,
    /// The tenant's ledger slot, claimed once at submit.
    tenant: Tenant,
    request: ServeRequest,
    /// Submit instant: the deadline and `total_seconds` run from here.
    submitted: Instant,
    /// Stamped just before the ring push, after the key and the profile,
    /// so queue wait does not count a graph's first fingerprint or
    /// featurization pass.
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Stage stopwatch for 1-in-N sampled requests; `None` (the common
    /// case) adds nothing to the steady-state path.
    trace: Option<Box<RequestTrace>>,
    reply: mpsc::Sender<Result<ServeResponse>>,
    // Per-member state, kept here rather than in per-group vectors so a
    // group adds no allocation. Set once when the group forms:
    queue_seconds: f64,
    expired: bool,
    // Set by the group's execution, taken by its reply:
    executed: Option<Executed>,
}

/// One member's result from its group's execution.
struct Executed {
    output: DenseMatrix,
    /// The member's engine-modeled charge, the drift lane's input.
    charged_seconds: f64,
    /// The member's exact integer share of the group's charge: nanoseconds,
    /// flops, bytes (see [`exact_share`]).
    charge: (u64, u64, u64),
    /// From the start of the group's execution until this member's output
    /// was ready.
    execute_seconds: f64,
}

/// Worker parking: the admission ring is lock-free, so idle workers need a
/// separate wait/wake rendezvous. A submitter wakes a worker only when the
/// sleeper count says one is parked (the uncontended fast path is two
/// atomic loads, no mutex); [`PARK_TIMEOUT`] bounds any lost wakeup.
struct Parking {
    lot: Mutex<()>,
    available: Condvar,
    sleepers: AtomicUsize,
}

struct Inner {
    /// Behind a `RwLock` so [`Server::replace_granii`] can hot-swap cost
    /// models; the per-request read is an uncontended lock + `Arc` clone.
    granii: RwLock<Arc<Granii>>,
    cache: PlanCache,
    /// The features `H` the cached plans share.
    features: SharedFeatures,
    /// The cost-model residual lane (see [`crate::drift`]).
    drift: Lane<Residual>,
    /// The input-profile lane.
    inspect: Lane<InputProfile>,
    slo: SloMonitor,
    /// Latency sketches, one per outcome class, indexed in [`Outcome::ALL`]
    /// order. Always recorded (like the atomic [`Counters`]) so the status
    /// surface, SLO math, and `serve_bench` get SLO-grade quantiles without
    /// telemetry being enabled.
    latency: [Sketch; 3],
    /// Batch-group size distribution (recorded per formed group, including
    /// groups of one — sequential traffic honestly shows p50 = 1).
    batch_sizes: Sketch,
    /// Unique plan signatures observed (HyperLogLog; always recorded).
    distinct_signatures: DistinctCounter,
    /// Lock-free bounded MPMC admission ring. Capacity is
    /// `max(queue_depth, 1)`; a configured depth of 0 sheds before ever
    /// touching the ring.
    queue: ArrayQueue<Job>,
    shutdown: AtomicBool,
    /// Submits currently inside the admission window (shutdown-check →
    /// push). Workers refuse to exit while this is nonzero, closing the
    /// race where a submit that passed the shutdown check pushes onto a
    /// ring every worker has already abandoned.
    admitting: AtomicU64,
    parking: Parking,
    config: ServeConfig,
    counters: Counters,
    /// Starts at 1: id 0 marks a record that is not request-scoped.
    next_request_id: AtomicU64,
    started: Instant,
    workers: Vec<WorkerSlot>,
    /// Always-on flight recorder: every layer streams structured records
    /// into this lock-free ring, telemetry enabled or not.
    recorder: FlightRecorder,
    /// Incident policy + selection-audit table + captured bundles.
    incidents: IncidentCapturer,
    /// Monotone sequence for `serve.batch` spans on the batch trace lane
    /// (two workers can finish groups simultaneously; the exporter needs
    /// distinct seqs).
    batch_trace_seq: AtomicU64,
    /// Lock-free per-tenant admission bounds and resource meters (see
    /// [`crate::metering`]).
    ledger: TenantLedger,
    /// On-host time-series ring, written by the sampler thread alone.
    timeline: Arc<TimeSeriesRing>,
}

impl Inner {
    fn granii(&self) -> Arc<Granii> {
        self.granii
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Wakes one parked worker, if any. The empty lock acquisition is the
    /// standard fence against the window between a parker's sleeper
    /// registration and its `wait`.
    fn wake_one(&self) {
        if self.parking.sleepers.load(Ordering::SeqCst) > 0 {
            drop(
                self.parking
                    .lot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            self.parking.available.notify_one();
        }
    }

    fn wake_all(&self) {
        drop(
            self.parking
                .lot
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.parking.available.notify_all();
    }

    /// Parks the calling worker until woken or [`PARK_TIMEOUT`] elapses.
    /// Re-checks the queue after registering as a sleeper so a push that
    /// raced the registration is never slept through.
    fn park(&self) {
        let guard = self
            .parking
            .lot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.parking.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.queue.is_empty() && !self.shutdown.load(Ordering::SeqCst) {
            let _ = self.parking.available.wait_timeout(guard, PARK_TIMEOUT);
        }
        self.parking.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII guard for [`Inner::admitting`]: the counter must come back down on
/// every submit exit path, success and shed alike.
struct AdmitWindow<'a>(&'a AtomicU64);

impl Drop for AdmitWindow<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A handle to one in-flight request; [`Ticket::wait`] blocks for the reply.
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeResponse>>,
}

impl Ticket {
    /// Blocks until the request completes.
    pub fn wait(self) -> Result<ServeResponse> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }
}

/// A thread-safe serving runtime over one shared [`Granii`] instance.
///
/// Requests flow submit → lock-free bounded ring (per-tenant fairness
/// bound) → worker pool → signature-keyed batch groups → (plan cache, or
/// select + bind) → one multi-RHS `iterate` per group → reply. Dropping the
/// server shuts it down gracefully: queued requests are drained, workers
/// joined.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// The timeline sampler thread.
    sampler: Option<SamplerHandle>,
    /// The scrape listener when [`ServeConfig::scrape`] names an address,
    /// or the error its bind failed with.
    scrape: Option<std::io::Result<ScrapeHandle>>,
}

impl Server {
    /// Starts the worker pool.
    pub fn start(granii: Arc<Granii>, config: ServeConfig) -> Self {
        let worker_count = config.workers.max(1);
        let inner = Arc::new(Inner {
            granii: RwLock::new(granii),
            cache: PlanCache::new(config.cache_capacity),
            features: SharedFeatures::default(),
            drift: Lane::new(),
            inspect: Lane::new(),
            slo: SloMonitor::new(config.slo.clone()),
            latency: Outcome::ALL.map(|_| Sketch::new(DEFAULT_SKETCH_ALPHA)),
            batch_sizes: Sketch::new(DEFAULT_SKETCH_ALPHA),
            distinct_signatures: DistinctCounter::new(),
            queue: ArrayQueue::new(config.queue_depth.max(1)),
            shutdown: AtomicBool::new(false),
            admitting: AtomicU64::new(0),
            parking: Parking {
                lot: Mutex::new(()),
                available: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            recorder: FlightRecorder::new(RECORDER_CAPACITY),
            incidents: IncidentCapturer::new(config.incident.clone()),
            batch_trace_seq: AtomicU64::new(0),
            ledger: TenantLedger::new(config.queue_depth, config.fairness_share),
            timeline: Arc::new(TimeSeriesRing::new(TIMELINE_FRAMES)),
            config: config.clone(),
            counters: Counters::default(),
            next_request_id: AtomicU64::new(1),
            started: Instant::now(),
            workers: (0..worker_count)
                .map(|_| WorkerSlot {
                    busy_ns: AtomicU64::new(0),
                    requests: AtomicU64::new(0),
                })
                .collect(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("granii-serve-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn serve worker")
            })
            .collect();
        let sampler = Some(start_timeline_sampler(&inner));
        let scrape = inner
            .config
            .scrape
            .as_deref()
            .map(|addr| start_scrape_listener(&inner, addr));
        Server {
            inner,
            workers,
            sampler,
            scrape,
        }
    }

    /// Submits a request without blocking on its execution.
    ///
    /// The admission path is lock-free: a depth gate on the ring, a
    /// per-tenant fairness bound, then a CAS push. Assigns the request its
    /// id; every 1-in-`trace_sample_every` id (telemetry permitting)
    /// carries a [`RequestTrace`] that becomes a per-request lane in the
    /// Chrome trace.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity or the
    /// tenant is at its fairness bound (the request is shed — backpressure,
    /// never unbounded growth), or [`ServeError::ShuttingDown`] after
    /// shutdown began.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket> {
        let inner = &*self.inner;
        let now = Instant::now();
        let deadline = request.timeout.map(|t| now + t);
        let id = inner.next_request_id.fetch_add(1, Ordering::Relaxed);
        let trace = if trace::sampled(id, inner.config.trace_sample_every) {
            Some(Box::new(RequestTrace::new(id)))
        } else {
            None
        };
        inner.admitting.fetch_add(1, Ordering::SeqCst);
        let admit_window = AdmitWindow(&inner.admitting);
        if inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        // The key is computed before the depth gate so every shed record
        // (and a shed-storm incident) names the signature it turned away.
        let key = request.plan_key();
        let tenant = inner.ledger.tenant(key.1);
        let depth = inner.queue.len();
        if depth >= inner.config.queue_depth {
            return Err(shed(inner, id, key, tenant, depth, "queue_full"));
        }
        if !inner.ledger.try_admit(tenant) {
            return Err(shed(inner, id, key, tenant, depth, "tenant_cap"));
        }
        let profile = InputProfile::extract(&request.graph);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id,
            key,
            profile,
            tenant,
            request,
            submitted: now,
            enqueued: Instant::now(),
            deadline,
            trace,
            reply: tx,
            queue_seconds: 0.0,
            expired: false,
            executed: None,
        };
        if inner.queue.push(job).is_err() {
            // The ring filled between the depth gate and the push.
            inner.ledger.cancel_admit(tenant);
            let depth = inner.queue.len();
            return Err(shed(inner, id, key, tenant, depth, "queue_full"));
        }
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = inner.queue.len();
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::Enqueue {
                depth: depth as u32,
            },
        );
        // Close the admission window before waking: the push must be
        // visible to any worker deciding whether it may exit.
        drop(admit_window);
        inner.wake_one();
        Ok(Ticket { rx })
    }

    /// Submits a request and blocks until it completes.
    ///
    /// # Errors
    ///
    /// Propagates submit errors and the request's execution outcome.
    pub fn process(&self, request: ServeRequest) -> Result<ServeResponse> {
        self.submit(request)?.wait()
    }

    /// Hot-swaps the underlying [`Granii`] instance (new cost models —
    /// e.g. after an offline retrain repaired a drift-flagged model). Every
    /// cached plan was selected under the old models, so the plan cache is
    /// flushed and the drift detector's residual history dropped; in-flight
    /// requests finish on the instance they started with. The replacement
    /// must target the same device as the original — worker engines are
    /// built once, at startup.
    pub fn replace_granii(&self, granii: Arc<Granii>) {
        *self
            .inner
            .granii
            .write()
            .unwrap_or_else(PoisonError::into_inner) = granii;
        self.inner.cache.clear();
        self.inner.drift.reset();
        self.inner.inspect.reset();
        self.inner.recorder.record(
            0,
            0,
            "",
            RecordKind::CacheInvalidate {
                cause: "model_swap",
            },
        );
        self.inner.recorder.record(0, 0, "", RecordKind::ModelSwap);
    }

    /// Point-in-time snapshots of the per-outcome latency sketches
    /// (`serve.latency.hit` / `.miss` / `.degraded`). Always populated —
    /// the server records them unconditionally, telemetry or not — and
    /// mergeable, so a caller can fold them into one whole-server
    /// distribution with [`SketchSnapshot::merge`].
    pub fn latency_sketches(&self) -> Vec<SketchSnapshot> {
        let mut sketches = self.inner.sketches();
        sketches.truncate(Outcome::ALL.len());
        sketches
    }

    /// Assembles the live status snapshot (see [`ServerStatus`]): queue and
    /// worker utilization, cache counters, batching and fairness state,
    /// degradation rates, the drift detector's per-signature residual
    /// table, and flight-recorder health.
    pub fn status(&self) -> ServerStatus {
        self.inner.status()
    }

    /// This server's numbers as a metrics snapshot (what `--metrics-out`
    /// writes): every series of the instrument catalog under its dotted
    /// name (`serve.completed`, `serve.queue_depth`, ...), read from one
    /// [`ServerStatus`] when called, plus the latency and batch-size
    /// sketches. Always populated, telemetry enabled or not, and never
    /// shared with another server in the process.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        catalog::metrics(&self.status(), self.inner.sketches())
    }

    /// The incident bundles captured so far and still retained in memory,
    /// oldest-first (the newest 8; every bundle is also written to
    /// `IncidentConfig::dir` when one is configured).
    pub fn incidents(&self) -> Vec<IncidentBundle> {
        self.inner.incidents.recent()
    }

    /// A non-destructive snapshot of the flight-recorder ring, oldest
    /// record first: this server's event log (what `--events-out` writes,
    /// and what incident bundles excerpt). Never shared with another server
    /// in the process.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.inner.recorder.snapshot()
    }

    /// Per-tenant meter rows, engine-charged time descending (the ranked
    /// "top tenants" view).
    pub fn metering_rows(&self) -> Vec<MeterRow> {
        self.inner.ledger.rows()
    }

    /// The server-wide metering totals row. The sum of every
    /// [`Server::metering_rows`] counter equals this row exactly — the
    /// ledger attributes integers, never averages.
    pub fn metering_totals(&self) -> MeterRow {
        self.inner.ledger.totals()
    }

    /// A snapshot of the on-host time-series ring, in the schema an
    /// incident bundle embeds (what `--timeline-out` writes): the sampler's
    /// frames, then one frame read for this call, so it ends where a status
    /// read beside it does, however long ago the sampler last ticked. The
    /// read's frame is appended to the returned copy only; the ring is not
    /// written.
    pub fn timeline_snapshot(&self) -> TimelineInfo {
        self.inner.timeline_and_status().0
    }

    /// The scrape listener's bound address, when one is running (resolves
    /// a configured port 0 to the actual ephemeral port).
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref()?.as_ref().ok().map(ScrapeHandle::addr)
    }

    /// The error the scrape listener's bind failed with, when it was
    /// enabled and did not come up (the server serves without it).
    pub fn scrape_error(&self) -> Option<&std::io::Error> {
        self.scrape.as_ref()?.as_ref().err()
    }

    /// Shuts down gracefully: stops accepting requests, drains the queue,
    /// joins every worker. Equivalent to dropping the server.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Stop the observers first: the sampler reads counters the workers
        // are still writing (fine), but neither should outlive the server.
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(Ok(scrape)) = self.scrape.take() {
            scrape.stop();
        }
        self.inner.wake_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Inner {
    /// One status read and the timeline ending at it: the ring's frames,
    /// then a frame of that status appended to the returned copy. A read
    /// never writes the ring, so however often callers read, the sampler's
    /// history (what a bundle shows trending before its trigger) stays
    /// whole.
    fn timeline_and_status(&self) -> (TimelineInfo, ServerStatus) {
        let mut timeline = TimelineInfo::from_snapshot(&self.timeline.snapshot());
        // Read after the ring, so the appended frame is the newest.
        let status = self.status();
        timeline.push_frame(granii_telemetry::now_ns(), &status);
        (timeline, status)
    }

    /// The latency sketches (`serve.latency.<outcome>`, [`Outcome::ALL`]
    /// order), then the batch-group size sketch (`serve.batch.size`,
    /// recorded once per formed group — including groups of one, so
    /// sequential traffic honestly reports p50 = 1).
    fn sketches(&self) -> Vec<SketchSnapshot> {
        let latency = Outcome::ALL.iter().zip(&self.latency);
        latency
            .map(|(outcome, sketch)| sketch.snapshot(&format!("{LATENCY}.{}", outcome.name())))
            .chain([self.batch_sizes.snapshot(BATCH_SIZE)])
            .collect()
    }

    /// `/readyz` semantics: accepting traffic, queue below the shed
    /// threshold, and no SLO objective actively burning its error budget.
    fn readiness(&self) -> std::result::Result<(), String> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err("shutting down".to_owned());
        }
        let depth = self.queue.len();
        if depth >= self.config.queue_depth {
            return Err(format!(
                "queue saturated ({depth}/{})",
                self.config.queue_depth
            ));
        }
        if let Some(row) = self.slo.rows().into_iter().find(|row| row.burning) {
            return Err(format!(
                "slo burning for outcome {}",
                row.objective.outcome.name()
            ));
        }
        Ok(())
    }

    /// Status assembly lives on `Inner` (not [`Server`]) so worker threads
    /// can embed a full snapshot in an incident bundle mid-request.
    fn status(&self) -> ServerStatus {
        // One ledger walk feeds the lifecycle counts, the metering section,
        // AND the per-tenant request counts on the drift/input tables.
        let meter_rows = self.ledger.rows();
        let meter_totals = self.ledger.totals();
        let c = &self.counters;
        let uptime_seconds = self.started.elapsed().as_secs_f64();
        let completed = meter_totals.requests;
        let deadline_expired = c.deadline_expired.load(Ordering::Relaxed);
        let rate = |n: u64| {
            if completed == 0 {
                0.0
            } else {
                n as f64 / completed as f64
            }
        };
        let mut sketches = self.sketches();
        let batch_sketch = sketches.pop().expect("the batch-size sketch comes last");
        let tenants: Vec<TenantStatus> = self
            .ledger
            .admission_rows()
            .into_iter()
            .map(|row| TenantStatus {
                fingerprint: hex_fp(row.fingerprint),
                queued: row.queued,
                admitted: row.admitted,
                shed: row.shed,
            })
            .collect();
        let requests_for = |fingerprint: u64| {
            meter_rows
                .iter()
                .find(|row| row.fingerprint == fingerprint)
                .map(|row| row.requests)
        };
        ServerStatus {
            uptime_seconds,
            queue_depth: self.queue.len(),
            queue_capacity: self.config.queue_depth,
            submitted: c.submitted.load(Ordering::Relaxed),
            completed,
            failed: c.failed.load(Ordering::Relaxed),
            shed: meter_totals.sheds,
            degraded: meter_totals.degraded,
            deadline_expired,
            degraded_rate: rate(meter_totals.degraded),
            deadline_expired_rate: rate(deadline_expired),
            drift_flagged: c.drift_flagged.load(Ordering::Relaxed),
            input_drift_flagged: c.input_drift_flagged.load(Ordering::Relaxed),
            distinct_signatures: self.distinct_signatures.estimate(),
            batching: BatchingStatus {
                max_batch: self.config.max_batch,
                groups: batch_sketch.count,
                batches: c.batches.load(Ordering::Relaxed),
                batched_requests: c.batched_requests.load(Ordering::Relaxed),
                mean_size: batch_sketch.mean_ns(),
                p50_size: batch_sketch.p50_ns(),
                p95_size: batch_sketch.p95_ns(),
            },
            fairness: FairnessStatus {
                tenant_queue_cap: self.ledger.cap(),
                tenant_shed: tenants.iter().map(|tenant| tenant.shed).sum(),
                tenants,
            },
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(index, slot)| {
                    let busy_seconds = slot.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
                    WorkerStatus {
                        index,
                        requests: slot.requests.load(Ordering::Relaxed),
                        busy_seconds,
                        utilization: if uptime_seconds > 0.0 {
                            (busy_seconds / uptime_seconds).min(1.0)
                        } else {
                            0.0
                        },
                    }
                })
                .collect(),
            cache: CacheStatus {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
                evictions: self.cache.evictions(),
                invalidations: self.cache.invalidations(),
                len: self.cache.len(),
                capacity: self.config.cache_capacity,
                hit_rate: self.cache.hit_rate(),
            },
            drift: by_fingerprint(self.drift.rows())
                .map(
                    |((model, fingerprint, k1, k2), track)| DriftSignatureStatus {
                        model: model.name().to_owned(),
                        fingerprint: hex_fp(fingerprint),
                        k1,
                        k2,
                        ewma_residual: track.smoothed.0,
                        last_residual: track.last.0,
                        samples: track.samples,
                        flags: track.flags,
                        cooldown: u64::from(track.cooldown),
                        tenant_requests: requests_for(fingerprint),
                    },
                )
                .collect(),
            input: by_fingerprint(self.inspect.rows())
                .map(|((model, fingerprint, k1, k2), track)| {
                    let (live, reference) = (track.smoothed, track.reference);
                    InputSignatureStatus {
                        model: model.name().to_owned(),
                        fingerprint: hex_fp(fingerprint),
                        k1,
                        k2,
                        band_l1: live.band_l1(&reference),
                        cv_delta: live.cv_delta(&reference),
                        live_avg_degree: live.avg_degree,
                        live_degree_cv: live.degree_cv,
                        reference_degree_cv: reference.degree_cv,
                        samples: track.samples,
                        flags: track.flags,
                        cooldown: u64::from(track.cooldown),
                        tenant_requests: requests_for(fingerprint),
                    }
                })
                .collect(),
            slo: self
                .slo
                .rows()
                .into_iter()
                .map(|row| SloObjectiveStatus {
                    outcome: row.objective.outcome.name().to_owned(),
                    threshold_ms: row.objective.threshold_ms,
                    target: row.objective.target,
                    total: row.total,
                    violations: row.violations,
                    compliance: row.compliance,
                    burn_rate: row.burn_rate,
                    burning: row.burning,
                    windows_closed: row.windows_closed,
                })
                .collect(),
            latency: Outcome::ALL
                .iter()
                .zip(sketches)
                .map(|(outcome, s)| LatencySketchStatus {
                    outcome: outcome.name().to_owned(),
                    count: s.count,
                    mean_ms: s.mean_ns() / 1e6,
                    p50_ms: s.p50_ns() / 1e6,
                    p95_ms: s.p95_ns() / 1e6,
                    p99_ms: s.p99_ns() / 1e6,
                    p999_ms: s.p999_ns() / 1e6,
                })
                .collect(),
            recorder: RecorderStatus {
                capacity: self.recorder.capacity() as u64,
                written: self.recorder.written(),
                dropped: self.recorder.dropped(),
                incidents: self.incidents.captured(),
                suppressed: self.incidents.suppressed(),
                incident_io_errors: self.incidents.io_errors(),
                last_trigger: self.incidents.last_trigger(),
            },
            metering: MeteringStatus {
                total_requests: meter_totals.requests,
                total_charged_ms: meter_totals.charged_ns as f64 / 1e6,
                total_flops: meter_totals.flops as f64,
                total_bytes: meter_totals.bytes as f64,
                total_sheds: meter_totals.sheds,
                total_slo_violations: meter_totals.slo_violations,
                tenants: meter_rows
                    .into_iter()
                    .map(TenantMeterStatus::from)
                    .collect(),
            },
        }
    }
}

/// A drift lane's rows in fingerprint-first order, so `--status-out`
/// artifacts from different runs diff cleanly regardless of which model
/// family hit the lane first.
fn by_fingerprint<S>(
    mut rows: Vec<(PlanKey, Track<S>)>,
) -> impl Iterator<Item = (PlanKey, Track<S>)> {
    rows.sort_by_key(|((model, fingerprint, k1, k2), _)| (*fingerprint, model.name(), *k1, *k2));
    rows.into_iter()
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts the timeline sampler: every tick reads one status and appends a
/// frame holding every dotted series of the instrument catalog, per-tenant
/// lanes (`tenant.<fingerprint>.charged_ms` / `.requests`) included. The
/// first frame is taken on the caller's thread, so a started server's
/// timeline is never empty; later ticks run on the sampler thread, an
/// observer that nothing on the request path waits for.
fn start_timeline_sampler(inner: &Arc<Inner>) -> SamplerHandle {
    let inner = Arc::clone(inner);
    // A column registers the first tick its series appears (a tenant's
    // first traffic); the map makes every later tick a lookup.
    let mut columns: HashMap<String, ColumnId> = HashMap::new();
    let mut samples: Vec<(ColumnId, f64)> = Vec::new();
    start_sampler(TIMELINE_INTERVAL, move || {
        samples.clear();
        let ring = &inner.timeline;
        catalog::for_each_series(&inner.status(), |name, kind, value| {
            let column = match columns.get(name) {
                Some(&column) => column,
                None => *columns
                    .entry(name.to_owned())
                    .or_insert_with(|| ring.column(name, kind.sample_kind())),
            };
            samples.push((column, value));
        });
        ring.push_now(&samples);
    })
}

/// Binds the scrape listener. A bind failure (address in use, permission)
/// is kept for [`Server::scrape_error`] and the server runs without the
/// endpoint — observability must never take serving down.
fn start_scrape_listener(inner: &Arc<Inner>, addr: &str) -> std::io::Result<ScrapeHandle> {
    let metrics_inner = Arc::clone(inner);
    let ready_inner = Arc::clone(inner);
    crate::scrape::start_scrape(
        addr,
        move || crate::scrape::render_prometheus(&metrics_inner.status()),
        move || ready_inner.readiness(),
    )
}

/// Shed bookkeeping shared by every admission-reject path: the tenant's
/// shed meter, the flight-recorder record, and the shed-storm incident
/// trigger (a server-scoped `shed_storm` record).
fn shed(
    inner: &Inner,
    id: u64,
    key: PlanKey,
    tenant: Tenant,
    depth: usize,
    reason: &'static str,
) -> ServeError {
    inner.ledger.note_shed(tenant);
    inner.recorder.record(
        id,
        key.1,
        key.0.name(),
        RecordKind::Shed {
            depth: depth as u32,
            reason,
        },
    );
    if let Some(sheds) = inner.incidents.note_shed() {
        let storm = inner
            .recorder
            .record(0, 0, "", RecordKind::ShedStorm { sheds });
        capture_incident(inner, storm, None);
    }
    ServeError::Overloaded {
        depth: inner.config.queue_depth,
    }
}

/// Blocks (parking with a timeout) until a job is available or shutdown has
/// drained everything. `None` means the worker may exit: shutdown is set,
/// the ring is empty, and no submit is mid-admission.
fn next_job(inner: &Inner) -> Option<Job> {
    loop {
        if let Some(job) = inner.queue.pop() {
            return Some(job);
        }
        if inner.shutdown.load(Ordering::SeqCst) && inner.admitting.load(Ordering::SeqCst) == 0 {
            // Final sweep: a push may have landed between the failed pop
            // above and the flag checks. After (shutdown ∧ admitting == 0)
            // is observed, no further push can succeed, so an empty ring
            // here is conclusive.
            return inner.queue.pop();
        }
        inner.park();
    }
}

fn worker_loop(inner: &Inner, index: usize) {
    // Each worker owns its engine: `Engine` accumulates a profile under a
    // mutex per kernel charge, so sharing one across workers would serialize
    // them — and the profile is cleared per drain-cycle below to keep a
    // long-running server's memory flat.
    let engine = Engine::modeled(inner.granii().device());
    let exec = Exec::real(&engine);
    let max_batch = inner.config.max_batch.max(1);
    // The drain and group lists live across cycles: a cycle reuses their
    // capacity instead of allocating them per request.
    let mut drained: Vec<Job> = Vec::with_capacity(max_batch);
    let mut groups: Vec<(PlanKey, Vec<Job>)> = Vec::with_capacity(max_batch);
    loop {
        let Some(first) = next_job(inner) else { return };
        // Continuous batching: opportunistically drain whatever else is
        // already queued, up to the batch bound. No waiting — an empty ring
        // means the batch is whatever arrived while we were busy.
        drained.push(first);
        while drained.len() < max_batch {
            match inner.queue.pop() {
                Some(job) => drained.push(job),
                None => break,
            }
        }
        for job in &drained {
            inner.ledger.release(job.tenant);
        }
        // Coalesce by plan signature, preserving first-seen (queue) order.
        for job in drained.drain(..) {
            match groups.iter_mut().find(|(k, _)| *k == job.key) {
                Some((_, members)) => members.push(job),
                None => groups.push((job.key, vec![job])),
            }
        }
        for (_, members) in groups.drain(..) {
            let n = members.len() as u64;
            let processing = Instant::now();
            process_group(inner, &exec, members);
            let slot = &inner.workers[index];
            slot.busy_ns
                .fetch_add(processing.elapsed().as_nanos() as u64, Ordering::Relaxed);
            slot.requests.fetch_add(n, Ordering::Relaxed);
        }
        // Keep the per-worker profile from growing without bound; its
        // capacity stays for the next cycle's charges.
        engine.clear_profile();
    }
}

/// Serves one signature-coalesced group. Records the group (size sketch,
/// flight record, batch counters for two or more members) and each member's
/// dequeue bookkeeping exactly once, then hands the group to
/// [`process_batch`]. A failed group of one replies with its error; a failed
/// larger group is retried one member at a time through the same function,
/// so one member's failure cannot sink the rest.
fn process_group(inner: &Inner, exec: &Exec, mut jobs: Vec<Job>) {
    let batch = jobs.len();
    inner.batch_sizes.record_ns(batch as u64);
    // Every formed group — including groups of one — leaves a ring record
    // naming its signature and member ids: the incident timeline can always
    // answer "which batch carried the triggering request".
    let key = jobs[0].key;
    let mut members = [0u64; MAX_BATCH_MEMBERS];
    let tracked = batch.min(MAX_BATCH_MEMBERS);
    for (slot, job) in members.iter_mut().zip(jobs.iter()) {
        *slot = job.id;
    }
    inner.recorder.record(
        jobs[0].id,
        key.1,
        key.0.name(),
        RecordKind::BatchFormed {
            size: batch as u32,
            tracked: tracked as u32,
            members,
        },
    );
    if batch > 1 {
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .counters
            .batched_requests
            .fetch_add(batch as u64, Ordering::Relaxed);
    }
    // Per-member dequeue bookkeeping. The deadline is checked here, at group
    // formation (not at ring pop): earlier groups from the same drain may
    // have executed in between, and that wait counts.
    let formed = Instant::now();
    for job in &mut jobs {
        if let Some(t) = job.trace.as_deref_mut() {
            t.mark_dequeued();
        }
        job.queue_seconds = formed.duration_since(job.enqueued).as_secs_f64();
        // An expired request is still served — a late answer beats none —
        // but a miss skips the cost models.
        job.expired = job.deadline.is_some_and(|d| formed >= d);
        if job.expired {
            inner
                .counters
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            inner
                .recorder
                .record(job.id, key.1, key.0.name(), RecordKind::DeadlineExpired);
        }
        inner.distinct_signatures.observe(signature_hash(key));
    }
    let fail =
        |error, job: &Job| finish_job(inner, job.id, key, job.tenant, &job.reply, Err(error));
    match process_batch(inner, exec, jobs) {
        Ok(()) => {}
        Err((error, jobs)) if jobs.len() == 1 => fail(error, &jobs[0]),
        Err((_, jobs)) => {
            for job in jobs {
                if let Err((error, member)) = process_batch(inner, exec, vec![job]) {
                    fail(error, &member[0]);
                }
            }
        }
    }
}

/// Executes one group whose dequeue bookkeeping is done: one cache
/// interaction (the leader's lookup or miss-bind; followers ride it as
/// shared hits), then the group's iteration under the entry lock (see
/// [`execute`]). Replies to every member on success; on failure returns the
/// error together with the members, none of which has been answered.
fn process_batch(
    inner: &Inner,
    exec: &Exec,
    mut jobs: Vec<Job>,
) -> std::result::Result<(), (ServeError, Vec<Job>)> {
    let key = jobs[0].key;
    let batch = jobs.len();
    let _span = granii_telemetry::span!(
        "serve.batch",
        model = jobs[0].request.model.name(),
        size = batch,
    );

    // Leader resolves the entry; followers ride it as shared cache hits.
    // A hit serves the bound plan at full quality, even past the deadline.
    let (entry, leader_hit, leader_degraded, select_seconds) = match inner.cache.lookup(key) {
        Some(entry) => (entry, true, false, 0.0),
        None => match bind_miss(inner, exec, &mut jobs[0]) {
            Ok((entry, degraded, secs)) => {
                // Selection just inspected the graph as it is now: pin it as
                // the input-drift reference for this signature.
                inner.inspect.rebind(key, jobs[0].profile);
                (entry, false, degraded, secs)
            }
            Err(e) => return Err((e, jobs)),
        },
    };
    inner.cache.note_shared_hits(batch as u64 - 1);
    if leader_hit {
        inner.recorder.record(
            jobs[0].id,
            key.1,
            key.0.name(),
            RecordKind::CacheHit {
                shared: batch as u32 - 1,
            },
        );
    }

    let t_execute = Instant::now();
    let batch_start_us = granii_telemetry::now_us();
    for job in &mut jobs {
        if let Some(t) = job.trace.as_deref_mut() {
            t.mark_execute_start();
        }
    }
    let (composition, predicted_steady_seconds) = {
        let mut cached = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let max_batch = inner.config.max_batch;
        if let Err(e) = execute(exec, &mut cached.bound, &mut jobs, max_batch, t_execute) {
            return Err((e.into(), jobs));
        }
        (cached.composition, cached.predicted_steady_seconds)
    };
    for job in &mut jobs {
        if let Some(t) = job.trace.as_deref_mut() {
            t.mark_execute_done();
            t.set_batch(key.1, batch as u64);
        }
    }
    // Batch-causal tracing: one `serve.batch` span per executed group on
    // the dedicated lane, carrying the group signature and member ids;
    // sampled members' execute children link back via `batch_group`.
    if granii_telemetry::enabled() {
        let member_ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        trace::record_batch_span(
            key.1,
            key.0.name(),
            &member_ids,
            batch_start_us,
            granii_telemetry::now_us().saturating_sub(batch_start_us),
            inner.batch_trace_seq.fetch_add(1, Ordering::Relaxed),
        );
    }

    // Per-member observability and replies.
    for (i, job) in jobs.into_iter().enumerate() {
        let Job {
            id,
            tenant,
            request,
            submitted,
            trace,
            reply,
            queue_seconds,
            profile,
            executed,
            ..
        } = job;
        let Executed {
            output,
            charged_seconds,
            charge: (charged_ns, flops, bytes),
            execute_seconds,
        } = executed.expect("execute left a result in every member");
        if let Some(predicted) = predicted_steady_seconds {
            observe_drift(inner, id, key, charged_seconds, predicted);
        }
        observe_input(inner, id, key, profile);
        let cache_hit = leader_hit || i > 0;
        let degraded = i == 0 && leader_degraded;
        if let Some(t) = trace {
            t.finish(request.model.name(), cache_hit, degraded);
        }
        inner.ledger.record(
            tenant,
            &MeterCharge {
                charged_ns,
                flops,
                bytes,
                queue_wait_ns: (queue_seconds * 1e9) as u64,
                batch: batch as u32,
                cache_hit,
                degraded,
            },
        );
        let response = ServeResponse {
            composition,
            output,
            timing: RequestTiming {
                queue_seconds,
                select_seconds: if i == 0 { select_seconds } else { 0.0 },
                execute_seconds,
                total_seconds: submitted.elapsed().as_secs_f64(),
            },
            cache_hit,
            degraded,
            batch_size: batch,
        };
        finish_job(inner, id, key, tenant, &reply, Ok(response));
    }
    Ok(())
}

/// Runs one steady-state iteration for every member on the group's bound
/// plan and leaves each member's output and charge in its job. A group of
/// two or more first makes sure the plan has wide buffers for `max_batch`
/// (allocated once, at the plan's first such group) and then runs as one
/// multi-RHS iteration; a group of one, or any group on a plan without a
/// batched lowering (attention), runs one member at a time on the narrow
/// buffers.
fn execute(
    exec: &Exec,
    bound: &mut BoundPlan,
    jobs: &mut [Job],
    max_batch: usize,
    start: Instant,
) -> granii_core::Result<()> {
    let chunk = if jobs.len() > 1 && bound.ensure_batch(max_batch)? {
        max_batch
    } else {
        1
    };
    for members in jobs.chunks_mut(chunk) {
        let n = members.len();
        let observed = bound.iterate_batched_observed(exec, n)?;
        // Metering attribution: convert the iteration's engine charge to
        // integers ONCE, then hand each member an exact integer share — the
        // per-tenant ledger sums back to the group totals bitwise. Each
        // member's modeled charge is an equal share (equal to its charge as
        // a group of one — the drift lane sees no difference).
        let group_ns = (observed.charged_seconds * 1e9).round() as u64;
        for (t, job) in members.iter_mut().enumerate() {
            job.executed = Some(Executed {
                output: bound.output_block(t)?,
                charged_seconds: observed.charged_seconds / n as f64,
                charge: (
                    exact_share(group_ns, n, t),
                    exact_share(observed.flops, n, t),
                    exact_share(observed.bytes, n, t),
                ),
                execute_seconds: start.elapsed().as_secs_f64(),
            });
        }
    }
    Ok(())
}

/// Per-result bookkeeping and the reply send: the failure counter (the
/// ledger has already metered a completion), outcome-split latency
/// sketches, SLO accounting, and flight-recorder records (and the SLO-burn
/// incident trigger).
fn finish_job(
    inner: &Inner,
    id: u64,
    key: PlanKey,
    tenant: Tenant,
    reply: &mpsc::Sender<Result<ServeResponse>>,
    result: Result<ServeResponse>,
) {
    match &result {
        Ok(response) => {
            // Outcome-split latency: a healthy hit rate can hide a
            // pathological miss tail in the combined figures.
            let outcome = if response.degraded {
                Outcome::Degraded
            } else if response.cache_hit {
                Outcome::Hit
            } else {
                Outcome::Miss
            };
            let latency_ns = if response.timing.total_seconds > 0.0 {
                (response.timing.total_seconds * 1e9) as u64
            } else {
                0
            };
            inner.latency[outcome as usize].record_ns(latency_ns);
            inner.recorder.record(
                id,
                key.1,
                key.0.name(),
                RecordKind::Complete {
                    outcome: outcome.name(),
                    latency_us: latency_ns / 1_000,
                    queue_us: (response.timing.queue_seconds * 1e6) as u64,
                    batch: response.batch_size as u32,
                    degraded: response.degraded,
                },
            );
            // The monitor decides the violation once; the tenant's meter
            // charges exactly that verdict.
            let (violated, verdict) = inner.slo.record(outcome, latency_ns);
            if violated {
                inner.ledger.note_slo_violation(tenant);
            }
            match verdict {
                SloVerdict::Ok => {}
                SloVerdict::WindowClosed {
                    objective,
                    burn_rate,
                    crossed,
                } => {
                    let objective = &inner.slo.config().objectives[objective];
                    let name = objective.outcome.name();
                    match crossed {
                        Some(true) => {
                            let burn = inner.recorder.record(
                                id,
                                key.1,
                                key.0.name(),
                                RecordKind::SloBurn {
                                    outcome: name,
                                    burn_rate,
                                    threshold_ms: objective.threshold_ms,
                                },
                            );
                            // The request that closed the burning window is
                            // the incident's triggering signature.
                            capture_incident(inner, burn, Some(key));
                        }
                        Some(false) => {
                            inner.recorder.record(
                                id,
                                key.1,
                                key.0.name(),
                                RecordKind::SloRecover {
                                    outcome: name,
                                    burn_rate,
                                },
                            );
                        }
                        None => {}
                    }
                }
            }
        }
        Err(_) => {
            inner.counters.failed.fetch_add(1, Ordering::Relaxed);
            inner
                .recorder
                .record(id, key.1, key.0.name(), RecordKind::Failed);
        }
    }
    // Receiver may have given up; a dead ticket is not a worker error.
    let _ = reply.send(result);
}

/// What `choose_composition` decided: the winner, whether it is the
/// degraded fallback, and every candidate's predicted cost (empty on the
/// degraded path — nothing was predicted).
type Chosen = (Composition, bool, Vec<(Composition, f64)>);

/// Picks the composition for a cache miss. Normal path: full cost-model
/// selection, returning every candidate's predicted cost alongside the
/// winner (the selection audit an incident bundle replays). Degraded path
/// (expired deadline, or the cost models cannot predict a candidate): the
/// plan's default composition — the first eligible candidate, which every
/// compiled model is guaranteed to have — with an empty prediction list
/// (nothing was predicted).
fn choose_composition(
    granii: &Granii,
    request: &ServeRequest,
    cfg: LayerConfig,
    expired: bool,
) -> Result<Chosen> {
    if !expired {
        match granii.select_with_config(request.model, &request.graph, cfg, request.iterations) {
            Ok(selection) => {
                return Ok((selection.composition, false, selection.predicted));
            }
            Err(CoreError::MissingCostModel { .. }) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let plan = granii.compiled(request.model, cfg)?;
    let eligible = plan.eligible(cfg.k_in, cfg.k_out);
    let first = eligible.first().ok_or(CoreError::NoCandidates {
        model: request.model.name().to_owned(),
    })?;
    Ok((first.composition, true, Vec::new()))
}

/// A 64-bit hash of a whole plan signature — model, fingerprint and both
/// widths — for the distinct-signature estimator. The hasher's keys are
/// fixed, so a signature hashes alike in every server.
fn signature_hash(key: PlanKey) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
}

/// The cache-miss slow path: select (or degrade), build, bind, and insert. Records the selection audit (chosen
/// composition, every candidate's predicted cost, and the input profile
/// that keyed the choice) so a later incident against this signature can
/// replay the decision. Returns the cached entry, whether the degraded
/// composition was used, and the select wall time.
fn bind_miss(
    inner: &Inner,
    exec: &Exec,
    leader: &mut Job,
) -> Result<(Arc<Mutex<CachedPlan>>, bool, f64)> {
    let t_select = Instant::now();
    if let Some(t) = leader.trace.as_deref_mut() {
        t.mark_select_start();
    }
    let (id, key, request) = (leader.id, leader.key, &leader.request);
    let cfg = LayerConfig::new(request.k1, request.k2);
    let granii = inner.granii();
    let (composition, degraded, predicted) =
        choose_composition(&granii, request, cfg, leader.expired)?;
    let plan = granii.compiled(request.model, cfg)?;
    let candidate = plan
        .candidates
        .iter()
        .find(|c| c.composition == composition)
        .ok_or_else(|| {
            CoreError::InvalidIr(format!(
                "selected composition {} missing from compiled plan",
                composition.name()
            ))
        })?;
    // The drift detector's reference point: what the current cost
    // models claim one steady-state iteration of this plan costs.
    // Unpredictable (degraded path) → None, which opts the
    // signature out of drift tracking.
    let features = FeaturizedInput::extract(&request.graph, request.k1, request.k2);
    let predicted_steady_seconds = granii
        .cost_models()
        .predict_steady_state(&candidate.program, &features)
        .ok();
    let ctx = GraphCtx::new(&request.graph).map_err(CoreError::from)?;
    let h = inner.features.get(request.graph.num_nodes(), request.k1);
    let plan_inputs = PlanInputs::for_model(request.model, cfg, &ctx, h, SERVE_SEED + 1);
    let exec_plan = ExecPlan::build(&candidate.program)?;
    // No wide buffers yet: `execute` grows them at this plan's first group
    // of two or more, so a signature that is never batched never pays them.
    let bound = exec_plan.bind(exec, &plan_inputs.as_program_inputs())?;
    let entry = inner.cache.insert(
        key,
        CachedPlan {
            composition,
            bound,
            predicted_steady_seconds,
        },
    );
    if let Some(t) = leader.trace.as_deref_mut() {
        t.mark_select_done();
    }
    let select_seconds = t_select.elapsed().as_secs_f64();
    inner.incidents.audits().record(
        key,
        SelectionAuditInfo {
            model: key.0.name().to_owned(),
            fingerprint: hex_fp(key.1),
            k1: key.2 as u64,
            k2: key.3 as u64,
            composition: composition.name(),
            degraded,
            predicted: predicted
                .into_iter()
                .map(|(c, predicted_seconds)| CandidateCost {
                    composition: c.name(),
                    predicted_seconds,
                })
                .collect(),
            input: InputStats {
                bands: leader.profile.bands.to_vec(),
                avg_degree: leader.profile.avg_degree,
                degree_cv: leader.profile.degree_cv,
                density: leader.profile.density,
            },
            captured_at_us: granii_telemetry::now_us(),
        },
    );
    inner.recorder.record(
        id,
        key.1,
        key.0.name(),
        RecordKind::CacheMiss {
            select_us: (select_seconds * 1e6) as u64,
            degraded,
        },
    );
    Ok((entry, degraded, select_seconds))
}

/// Online drift check: compare the engine-charged cost of the iteration
/// just run (a member's equal share, for a batched group) against the cost
/// model's steady-state promise for this plan.
fn observe_drift(inner: &Inner, id: u64, key: PlanKey, charged_seconds: f64, predicted: f64) {
    let flag = Residual::between(charged_seconds, predicted)
        .and_then(|residual| inner.drift.observe(key, residual));
    if let Some(track) = flag {
        let ewma_residual = track.smoothed.0;
        inner.cache.invalidate(key);
        inner.counters.drift_flagged.fetch_add(1, Ordering::Relaxed);
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::CacheInvalidate {
                cause: "drift_flag",
            },
        );
        let flag = inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::DriftFlag { ewma_residual },
        );
        capture_incident(inner, flag, Some(key));
    }
}

/// Input-drift check: fold this request's degree statistics into the
/// signature's live profile and compare against what selection saw.
/// Orthogonal to the residual lane above — a stale plan executes its
/// *bound* graph, so its cost residual stays clean while the live input
/// walks away.
fn observe_input(inner: &Inner, id: u64, key: PlanKey, p: InputProfile) {
    if let Some(track) = inner.inspect.observe(key, p) {
        // The live and reference profiles the lane flagged on, read under
        // its lock.
        let (live, reference) = (track.smoothed, track.reference);
        inner.cache.invalidate(key);
        inner
            .counters
            .input_drift_flagged
            .fetch_add(1, Ordering::Relaxed);
        inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::CacheInvalidate {
                cause: "input_drift_flag",
            },
        );
        let flag = inner.recorder.record(
            id,
            key.1,
            key.0.name(),
            RecordKind::InputDriftFlag {
                band_l1: live.band_l1(&reference),
                cv_delta: live.cv_delta(&reference),
                live_cv: live.degree_cv,
                reference_cv: reference.degree_cv,
                live_avg_degree: live.avg_degree,
            },
        );
        capture_incident(inner, flag, Some(key));
    }
}

/// Assembles and stores one incident bundle that triggers on the flight
/// record `trigger`, subject to the capturer's rate limits. `key` is the
/// triggering signature (`None` for a shed storm), whose selection audit the
/// bundle carries. Runs on whichever thread hit the trigger (a worker for
/// SLO burn and drift, a submitter for a shed storm) — capture is rare by
/// construction, so the status assembly cost never sits on the
/// steady-state path.
fn capture_incident(inner: &Inner, trigger: FlightRecord, key: Option<PlanKey>) {
    if !inner.incidents.admit() {
        return;
    }
    let seq = inner.incidents.next_seq();
    inner.recorder.record(
        0,
        trigger.fingerprint,
        trigger.model,
        RecordKind::Incident {
            seq,
            trigger: trigger.kind.name(),
        },
    );
    // Ring excerpt: the newest `RING_TAIL` records, oldest-first, ending
    // with the capture's own record.
    let ring_all = inner.recorder.snapshot();
    let ring: Vec<RingEntry> = ring_all[ring_all.len().saturating_sub(RING_TAIL)..]
        .iter()
        .map(RingEntry::from_record)
        .collect();
    // The triggering signature's selection audit, when the table still
    // holds it (the audit table is separate from the plan cache precisely
    // because the flag invalidated the cache entry a moment ago).
    let selection = key.and_then(|key| inner.incidents.audits().get(key));
    let (timeline, status) = inner.timeline_and_status();
    let bundle = IncidentBundle {
        seq,
        captured_at_us: granii_telemetry::now_us(),
        trigger: RingEntry::from_record(&trigger),
        ring,
        selection,
        timeline,
        status,
    };
    inner.incidents.store(bundle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_core::cost::CostModelSet;
    use granii_graph::generators;
    use granii_matrix::device::DeviceKind;

    #[test]
    fn plans_of_one_shape_share_one_features_matrix_until_the_last_leaves() {
        // No cost models: every miss binds the degraded composition without
        // training first.
        let granii = || {
            Arc::new(Granii::with_cost_models(CostModelSet::new(
                DeviceKind::H100,
                BTreeMap::new(),
                BTreeMap::new(),
            )))
        };
        let server = Server::start(
            granii(),
            ServeConfig {
                workers: 1,
                cache_capacity: 2,
                ..ServeConfig::default()
            },
        );
        let graph = Arc::new(generators::power_law(300, 3, 1).unwrap());
        let other = Arc::new(generators::power_law(200, 3, 2).unwrap());
        let serve = |model, graph: &Arc<Graph>, k1| {
            let response = server
                .process(ServeRequest::new(model, graph.clone(), k1, 8))
                .expect("request completes");
            assert!(!response.cache_hit);
        };
        // Plans holding the (300, 16) features; the probe's own handle is
        // not counted.
        let holders = || {
            server
                .inner
                .features
                .live(300, 16)
                .map(|h| Arc::strong_count(&h) - 1)
        };

        serve(ModelKind::Gcn, &graph, 16);
        serve(ModelKind::Gin, &graph, 16);
        assert_eq!(holders(), Some(2), "two cached plans share one H");

        // Two misses of other shapes evict both plans of this one.
        serve(ModelKind::Gcn, &other, 16);
        serve(ModelKind::Gcn, &other, 8);
        assert_eq!(server.status().cache.evictions, 2);
        assert_eq!(holders(), None, "eviction released the last holder");

        // A model swap flushes the cache. Once the worker has served the
        // next request it holds no entry of the flushed cache either.
        serve(ModelKind::Gin, &graph, 16);
        assert_eq!(holders(), Some(1));
        server.replace_granii(granii());
        serve(ModelKind::Gcn, &other, 8);
        assert_eq!(holders(), None, "the flush released the last holder");
        server.shutdown();
    }
}
