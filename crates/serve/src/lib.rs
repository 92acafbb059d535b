//! Concurrent serving runtime for GRANII (the paper's §IV selection, run as
//! a multi-tenant service).
//!
//! GRANII's pitch is that input-aware selection is cheap enough to run
//! online per input — which pays off when one trained [`granii_core::Granii`]
//! instance serves a stream of heterogeneous inference requests. This crate
//! composes the existing thread-safe pieces (compiled-plan cache, compile-once
//! [`granii_core::execplan::ExecPlan`], telemetry) into that runtime:
//!
//! - **Bound-plan LRU cache** ([`PlanCache`]): keyed on
//!   (model, graph fingerprint, k1, k2) so a repeated signature skips
//!   featurize + select + build + bind and goes straight to a zero-alloc
//!   steady-state `iterate`. Capacity-bounded with drop-LRU eviction and
//!   hit/miss/eviction counters.
//! - **Lock-free admission + worker pool** ([`Server`]): submits go through
//!   a bounded lock-free MPMC ring (vendored `crossbeam` `ArrayQueue`) — a
//!   full ring sheds with [`ServeError::Overloaded`] (backpressure instead
//!   of OOM), and a per-tenant fairness bound keeps one hot signature from
//!   capturing the whole queue. Each request's deadline is checked once,
//!   when its batch group forms.
//! - **Continuous batching**: workers drain whatever is queued (up to
//!   `ServeConfig::max_batch`), coalesce requests by plan signature, and
//!   serve every group, a group of one included, through one path. A group
//!   of two or more runs as ONE multi-RHS `iterate` over column-stacked
//!   blocks — bitwise identical to serial per-request execution, with the
//!   adjacency streamed once per group instead of once per request.
//! - **Graceful degradation**: an expired deadline or a cost-model
//!   prediction failure falls back to the plan's default composition (the
//!   first eligible candidate) instead of failing the request, and the
//!   response is marked `degraded` with a matching counter in
//!   [`ServerStatus`].
//! - **Request-scoped tracing** ([`RequestTrace`] via
//!   `ServeConfig::trace_sample_every`): 1-in-N sampled requests export a
//!   per-request lane (queue / select / execute stages) through the
//!   existing Chrome-trace exporter; unsampled requests carry nothing.
//! - **Online drift detection**: two per-signature lanes under one flag
//!   discipline (EWMA, warmup, consecutive streak, cooldown). The residual
//!   lane smooths the log-space gap between the cost model's steady-state
//!   prediction and the engine-charged cost of each served iteration. The
//!   input lane smooths each request graph's degree-band distribution and
//!   CV ([`InputProfile`]) against the selection-time reference, catching
//!   what the residual lane is blind to: a pinned-signature tenant
//!   ([`ServeRequest::with_signature`]) whose graph mutates under a cached
//!   plan. Sustained divergence flags the signature, invalidates its cached
//!   plan (forcing re-selection), and surfaces in metrics, the flight
//!   recorder, and status.
//! - **Latency SLOs** ([`SloMonitor`]): declarative per-outcome objectives
//!   with tumbling-window error-budget burn rates, backed by
//!   bounded-relative-error latency sketches (p50–p999 on the status
//!   surface, burn records when the budget burns too fast).
//! - **Live status surface** ([`ServerStatus`] from [`Server::status`]):
//!   queue depth, per-worker utilization, cache counters, degradation
//!   rates, and the drift table — as JSON and a human-readable table.
//! - **One instrument catalog**: a `const` table declares every exported
//!   number once (dotted name, Prometheus family, label, kind, help, and a
//!   reader over [`ServerStatus`]); `/metrics`, the timeline, and
//!   [`Server::metrics_snapshot`] (`--metrics-out`) are loops over it. The
//!   server is the only home of its numbers: two servers in one process
//!   keep separate books.
//! - **Always-on flight recorder** ([`FlightRecorder`]): a fixed-slot,
//!   lock-free ring every serve layer streams structured records into —
//!   admission, shed, batch formation (group signature + member ids),
//!   cache traffic, drift flags, SLO burn, completion, incident capture.
//!   It is the server's only event log ([`Server::flight_records`]).
//!   Writers never block (collisions drop-and-count); readers snapshot
//!   without destroying. When a detector fires, it writes its flag record
//!   and the [`IncidentCapturer`] assembles a correlated [`IncidentBundle`]
//!   that triggers on that record — ring excerpt, full status, timeline,
//!   and the triggering signature's selection audit (chosen composition,
//!   per-candidate predicted costs, and the input statistics that keyed
//!   the choice) — as one JSON artifact, rate-limited by cooldown +
//!   max-per-window.
//! - **Per-tenant resource metering** ([`MeterRow`]): the same lock-free
//!   CAS-slot ledger that bounds admission accumulates engine charges,
//!   flops/bytes, queue wait, batch share, cache traffic, sheds,
//!   degradations, and SLO violations per tenant — with *exact* integer
//!   attribution (the sum of per-tenant charges equals the server totals
//!   bitwise, even for batched execution). Surfaces as a ranked
//!   "top tenants" table in [`ServerStatus`] and per-tenant time-series
//!   rows.
//! - **On-host time-series ring** ([`Server::timeline_snapshot`]): a
//!   sampler captures a frame of every catalog series (counters, gauges,
//!   sketch quantiles, per-tenant lanes) every 250 ms into a
//!   fixed-capacity [`granii_telemetry::TimeSeriesRing`], the first frame
//!   before [`Server::start`] returns. A snapshot is a [`TimelineInfo`],
//!   the same object an incident bundle embeds: the ring's frames, then
//!   one frame read for the snapshot (appended to the copy, never to the
//!   ring), so it ends where a status read beside it does.
//! - **Prometheus scrape endpoint** ([`ServeConfig::scrape`]): a std-only
//!   `TcpListener` serving `/metrics` in the text exposition format
//!   (per-tenant series labeled `tenant="<fingerprint>"`), plus
//!   `/healthz` and `/readyz` (ready = workers up, queue below the shed
//!   threshold, no SLO objective burning).
//!
//! Outputs are deterministic: for a given request signature, cache hits,
//! misses, and serial re-execution all produce bitwise-identical matrices
//! (fixed synthetic-input seed, stable `iterate`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use granii_core::{Granii, GraniiOptions};
//! use granii_gnn::spec::ModelKind;
//! use granii_graph::datasets::{Dataset, Scale};
//! use granii_matrix::device::DeviceKind;
//! use granii_serve::{ServeConfig, ServeRequest, Server};
//!
//! let granii = Arc::new(
//!     Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast()).unwrap(),
//! );
//! let server = Server::start(granii, ServeConfig::default());
//! let graph = Arc::new(Dataset::CoAuthorsCiteseer.load(Scale::Tiny).unwrap());
//! let response = server
//!     .process(ServeRequest::new(ModelKind::Gcn, graph, 64, 128))
//!     .unwrap();
//! assert!(!response.output.as_slice().is_empty());
//! server.shutdown();
//! ```

mod cache;
mod catalog;
mod drift;
mod error;
mod incident;
mod metering;
mod recorder;
mod scrape;
mod server;
mod slo;
mod status;
mod trace;

pub use cache::{CachedPlan, PlanCache, PlanKey};
pub use drift::{InputProfile, DEGREE_BANDS};
pub use error::{Result, ServeError};
pub use incident::{
    IncidentBundle, IncidentCapturer, IncidentConfig, RingEntry, SelectionAuditInfo,
    TimelineColumnInfo, TimelineInfo, AUDIT_CAPACITY,
};
pub use metering::MeterRow;
pub use recorder::{
    FlightRecord, FlightRecorder, RecordKind, MAX_BATCH_MEMBERS, RECORDER_CAPACITY,
};
pub use scrape::{render_prometheus, start_scrape, ScrapeHandle};
pub use server::{RequestTiming, ServeConfig, ServeRequest, ServeResponse, Server, Ticket};
pub use slo::{LatencyObjective, Outcome, SloConfig, SloMonitor, SloRow, SloVerdict};
pub use status::{
    BatchingStatus, CacheStatus, DriftSignatureStatus, FairnessStatus, InputSignatureStatus,
    LatencySketchStatus, MeteringStatus, RecorderStatus, ServerStatus, SloObjectiveStatus,
    TenantMeterStatus, TenantStatus, WorkerStatus,
};
pub use trace::{RequestTrace, BATCH_TRACE_LANE, TRACE_LANE_BASE};
