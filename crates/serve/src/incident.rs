//! Automatic incident capture: when a detector fires, photograph the
//! moments around it before the evidence scrolls away.
//!
//! The serving runtime already *detects* trouble — cost-model drift, input
//! drift, SLO burn, shed storms — but detection alone leaves the operator
//! with a counter and no context. The incident capturer turns a trigger
//! into a correlated **bundle**: the flight-recorder ring around the
//! anomaly ([`crate::recorder`]), the full [`ServerStatus`], merged
//! latency/batch sketch quantiles, a non-destructive snapshot of recent
//! structured events, and — the paper's own question — the triggering
//! signature's **selection audit**: which composition was chosen, what
//! every candidate's predicted cost was, and the input statistics that
//! keyed the choice. One JSON artifact answers "which input statistics
//! drove the primitive selection that misbehaved".
//!
//! Capture is rate-limited (cooldown + max-per-window) so a burn storm
//! cannot flood the disk: triggers beyond the limit are counted as
//! suppressed, and the always-on ring means the *next* admitted capture
//! still carries the history. The audit table is deliberately separate
//! from the plan cache — a drift flag invalidates the cache entry *before*
//! capture runs, so the audit must survive its plan.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::cache::PlanKey;
use crate::drift::InputProfile;
use crate::recorder::{FlightRecord, RecordKind};
use crate::status::{hex_fp, ServerStatus};

/// Bounded size of the selection-audit table (signatures). Oldest entries
/// evict first; 256 signatures of a few hundred bytes is noise next to the
/// bound plans themselves.
pub const AUDIT_CAPACITY: usize = 256;

/// Incident-capture tuning.
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Master switch; when false no trigger captures anything.
    pub enabled: bool,
    /// Directory bundles are written to (`incident-NNN-<kind>.json`).
    /// `None` keeps bundles in memory only ([`IncidentCapturer::recent`]).
    pub dir: Option<PathBuf>,
    /// Minimum gap between two captures.
    pub cooldown: Duration,
    /// Maximum captures per [`IncidentConfig::window`].
    pub max_per_window: u32,
    /// The tumbling rate-limit window.
    pub window: Duration,
    /// Sheds within [`IncidentConfig::shed_window`] that count as a shed
    /// storm (0 disables the shed trigger).
    pub shed_threshold: u64,
    /// The shed-storm counting window.
    pub shed_window: Duration,
    /// Newest flight-recorder records included in a bundle.
    pub ring_tail: usize,
    /// Newest telemetry events included in a bundle.
    pub event_tail: usize,
    /// Bundles retained in memory (newest-last).
    pub keep_last: usize,
}

impl Default for IncidentConfig {
    fn default() -> Self {
        IncidentConfig {
            enabled: true,
            dir: None,
            cooldown: Duration::from_secs(2),
            max_per_window: 4,
            window: Duration::from_secs(60),
            shed_threshold: 64,
            shed_window: Duration::from_secs(1),
            ring_tail: 256,
            event_tail: 64,
            keep_last: 8,
        }
    }
}

/// What fired. Carries whatever the trigger site knows, including the plan
/// signature when the trigger is signature-scoped.
#[derive(Debug, Clone)]
pub enum IncidentTrigger {
    /// An SLO window closed at or above the alert burn rate.
    SloBurn {
        /// Outcome class of the burning objective.
        outcome: &'static str,
        /// The closed window's burn rate.
        burn_rate: f64,
        /// The objective's latency threshold in milliseconds.
        threshold_ms: f64,
        /// Plan signature of the request that closed the window.
        key: PlanKey,
    },
    /// The cost-model drift lane flagged a signature.
    Drift {
        /// The flagged signature.
        key: PlanKey,
        /// Smoothed residual at flag time.
        ewma_residual: f64,
    },
    /// The input-drift lane flagged a signature.
    InputDrift {
        /// The flagged signature.
        key: PlanKey,
        /// Degree-band L1 distance at flag time.
        band_l1: f64,
        /// Absolute degree-CV delta at flag time.
        cv_delta: f64,
    },
    /// Sheds crossed the configured rate threshold.
    ShedStorm {
        /// Sheds counted inside the window.
        sheds: u64,
        /// The counting window in seconds.
        window_seconds: f64,
    },
}

impl IncidentTrigger {
    /// Stable snake_case trigger kind.
    pub fn kind(&self) -> &'static str {
        match self {
            IncidentTrigger::SloBurn { .. } => "slo_burn",
            IncidentTrigger::Drift { .. } => "drift",
            IncidentTrigger::InputDrift { .. } => "input_drift",
            IncidentTrigger::ShedStorm { .. } => "shed_storm",
        }
    }

    /// The plan signature the trigger is about, when it is about one.
    pub fn key(&self) -> Option<PlanKey> {
        match self {
            IncidentTrigger::SloBurn { key, .. }
            | IncidentTrigger::Drift { key, .. }
            | IncidentTrigger::InputDrift { key, .. } => Some(*key),
            IncidentTrigger::ShedStorm { .. } => None,
        }
    }

    pub(crate) fn info(&self) -> TriggerInfo {
        let (model, fingerprint, k1, k2) = match self.key() {
            Some((model, fp, k1, k2)) => {
                (model.name().to_owned(), hex_fp(fp), k1 as u64, k2 as u64)
            }
            None => (String::new(), String::new(), 0, 0),
        };
        let (value, detail) = match self {
            IncidentTrigger::SloBurn {
                outcome,
                burn_rate,
                threshold_ms,
                ..
            } => (
                *burn_rate,
                format!("{outcome} objective burned {burn_rate:.2}x over {threshold_ms:.1}ms"),
            ),
            IncidentTrigger::Drift { ewma_residual, .. } => (
                *ewma_residual,
                format!("cost-model residual ewma {ewma_residual:.3} (ln-space)"),
            ),
            IncidentTrigger::InputDrift {
                band_l1, cv_delta, ..
            } => (
                *band_l1,
                format!("input drift: band_l1 {band_l1:.3}, cv_delta {cv_delta:.3}"),
            ),
            IncidentTrigger::ShedStorm {
                sheds,
                window_seconds,
            } => (
                *sheds as f64,
                format!("{sheds} sheds within {window_seconds:.1}s"),
            ),
        };
        TriggerInfo {
            kind: self.kind().to_owned(),
            model,
            fingerprint,
            k1,
            k2,
            value,
            detail,
        }
    }
}

/// The selection decision behind one signature's cached plan, captured at
/// bind time (the only moment the per-candidate costs exist).
#[derive(Debug, Clone)]
pub struct SelectionAudit {
    /// Chosen composition name.
    pub composition: String,
    /// Whether the degraded (default-composition) path chose it.
    pub degraded: bool,
    /// Every candidate's predicted steady-state seconds, selection order.
    pub predicted: Vec<(String, f64)>,
    /// The input statistics selection keyed on (absent when the inspector
    /// is disabled).
    pub profile: Option<InputProfile>,
    /// Microseconds since the trace epoch when the plan was bound.
    pub captured_at_us: u64,
}

/// Bounded per-signature table of [`SelectionAudit`]s, FIFO-evicted.
/// Separate from the plan cache on purpose: invalidation precedes capture.
#[derive(Default)]
pub struct AuditTable {
    entries: Mutex<VecDeque<(PlanKey, SelectionAudit)>>,
}

impl AuditTable {
    /// Records (or replaces) `key`'s audit; evicts oldest beyond
    /// [`AUDIT_CAPACITY`].
    pub fn record(&self, key: PlanKey, audit: SelectionAudit) {
        let mut entries = self.lock();
        entries.retain(|(k, _)| *k != key);
        if entries.len() >= AUDIT_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, audit));
    }

    /// The most recent audit for `key`, if still retained.
    pub fn get(&self, key: PlanKey) -> Option<SelectionAudit> {
        self.lock()
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, a)| a.clone())
    }

    /// Audits currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(PlanKey, SelectionAudit)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Bundle schema (all fields JSON-plain; fingerprints are 16-hex strings —
// the JSON layer is f64-backed and would mangle u64s above 2^53).
// ---------------------------------------------------------------------------

/// The trigger, flattened for the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriggerInfo {
    /// `slo_burn` / `drift` / `input_drift` / `shed_storm`.
    pub kind: String,
    /// Model family of the triggering signature (`""` when none).
    pub model: String,
    /// Triggering signature as 16-hex (`""` when none).
    pub fingerprint: String,
    /// Input embedding width of the triggering signature (0 when none).
    pub k1: u64,
    /// Output embedding width of the triggering signature (0 when none).
    pub k2: u64,
    /// Headline number (burn rate, band L1, residual, shed count).
    pub value: f64,
    /// One-line human summary.
    pub detail: String,
}

/// One flight-recorder record, flattened for the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RingEntry {
    /// Global monotone record index.
    pub seq: u64,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Record kind (snake_case, see [`RecordKind::name`]).
    pub kind: String,
    /// Request id (0 when not request-scoped).
    pub id: u64,
    /// Model family (`""` when not signature-scoped).
    pub model: String,
    /// Signature as 16-hex (`""` when not signature-scoped).
    pub fingerprint: String,
    /// Batch-group size (batch_formed / complete records, else 0).
    pub batch: u64,
    /// Member request ids (batch_formed records, else empty; truncated at
    /// [`crate::recorder::MAX_BATCH_MEMBERS`]).
    pub members: Vec<u64>,
    /// Kind-specific payload, human-readable.
    pub note: String,
}

impl RingEntry {
    /// Flattens one recorder record.
    pub fn from_record(r: &FlightRecord) -> Self {
        let (batch, members, note) = match r.kind {
            RecordKind::Enqueue { depth } => (0, Vec::new(), format!("depth={depth}")),
            RecordKind::Shed { depth, reason } => {
                (0, Vec::new(), format!("depth={depth} reason={reason}"))
            }
            RecordKind::BatchFormed {
                size,
                tracked,
                members,
            } => (
                u64::from(size),
                members[..tracked as usize].to_vec(),
                format!("size={size}"),
            ),
            RecordKind::CacheHit { shared } => (0, Vec::new(), format!("shared={shared}")),
            RecordKind::CacheMiss {
                select_us,
                degraded,
            } => (
                0,
                Vec::new(),
                format!("select_us={select_us} degraded={degraded}"),
            ),
            RecordKind::CacheInvalidate { cause } => (0, Vec::new(), format!("cause={cause}")),
            RecordKind::DriftFlag { ewma_residual } => {
                (0, Vec::new(), format!("ewma_residual={ewma_residual:.4}"))
            }
            RecordKind::InputDriftFlag {
                band_l1,
                cv_delta,
                live_cv,
                reference_cv,
                live_avg_degree,
            } => (
                0,
                Vec::new(),
                format!(
                    "band_l1={band_l1:.4} cv_delta={cv_delta:.4} live_cv={live_cv:.4} \
                     reference_cv={reference_cv:.4} live_avg_degree={live_avg_degree:.3}"
                ),
            ),
            RecordKind::SloBurn {
                outcome,
                burn_rate,
                threshold_ms,
            } => (
                0,
                Vec::new(),
                format!("outcome={outcome} burn_rate={burn_rate:.2} threshold_ms={threshold_ms}"),
            ),
            RecordKind::SloRecover { outcome, burn_rate } => (
                0,
                Vec::new(),
                format!("outcome={outcome} burn_rate={burn_rate:.2}"),
            ),
            RecordKind::DeadlineExpired => (0, Vec::new(), String::new()),
            RecordKind::Complete {
                outcome,
                latency_us,
                batch,
                degraded,
            } => (
                u64::from(batch),
                Vec::new(),
                format!("outcome={outcome} latency_us={latency_us} degraded={degraded}"),
            ),
            RecordKind::Failed => (0, Vec::new(), String::new()),
            RecordKind::ModelSwap => (0, Vec::new(), String::new()),
        };
        RingEntry {
            seq: r.seq,
            ts_us: r.ts_us,
            kind: r.kind.name().to_owned(),
            id: r.id,
            model: r.model.to_owned(),
            fingerprint: if r.fingerprint == 0 {
                String::new()
            } else {
                hex_fp(r.fingerprint)
            },
            batch,
            members,
            note,
        }
    }
}

/// One candidate composition and its predicted cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateCost {
    /// Composition name.
    pub composition: String,
    /// Predicted steady-state seconds per iteration.
    pub predicted_seconds: f64,
}

/// The input statistics selection keyed on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputStats {
    /// Degree-band fractions `[empty, low, mid, high, hub]`.
    pub bands: Vec<f64>,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Degree coefficient of variation.
    pub degree_cv: f64,
    /// Adjacency density.
    pub density: f64,
}

/// The triggering signature's selection audit, flattened for the artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectionAuditInfo {
    /// Model family.
    pub model: String,
    /// Signature as 16-hex.
    pub fingerprint: String,
    /// Input embedding width.
    pub k1: u64,
    /// Output embedding width.
    pub k2: u64,
    /// Chosen composition.
    pub composition: String,
    /// Whether the degraded path chose it.
    pub degraded: bool,
    /// Per-candidate predicted costs, selection order.
    pub predicted: Vec<CandidateCost>,
    /// The input statistics behind the choice (absent when the inspector
    /// was disabled at bind time).
    pub input: Option<InputStats>,
    /// Microseconds since the trace epoch when the plan was bound.
    pub captured_at_us: u64,
}

impl SelectionAuditInfo {
    /// Flattens a stored audit for `key`.
    pub fn from_audit(key: PlanKey, audit: &SelectionAudit) -> Self {
        SelectionAuditInfo {
            model: key.0.name().to_owned(),
            fingerprint: hex_fp(key.1),
            k1: key.2 as u64,
            k2: key.3 as u64,
            composition: audit.composition.clone(),
            degraded: audit.degraded,
            predicted: audit
                .predicted
                .iter()
                .map(|(name, seconds)| CandidateCost {
                    composition: name.clone(),
                    predicted_seconds: *seconds,
                })
                .collect(),
            input: audit.profile.map(|p| InputStats {
                bands: p.bands.to_vec(),
                avg_degree: p.avg_degree,
                degree_cv: p.degree_cv,
                density: p.density,
            }),
            captured_at_us: audit.captured_at_us,
        }
    }
}

/// Merged sketch quantiles (milliseconds for latency, raw for batch size).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchSummary {
    /// Sketch name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Mean in nanoseconds (latency) or raw units (batch size).
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: f64,
    /// 95th percentile.
    pub p95_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// 99.9th percentile.
    pub p999_ns: f64,
}

impl SketchSummary {
    /// Summarizes one sketch snapshot.
    pub fn from_snapshot(s: &granii_telemetry::SketchSnapshot) -> Self {
        SketchSummary {
            name: s.name.clone(),
            count: s.count,
            mean_ns: s.mean_ns(),
            p50_ns: s.p50_ns(),
            p95_ns: s.p95_ns(),
            p99_ns: s.p99_ns(),
            p999_ns: s.p999_ns(),
        }
    }
}

/// Flight-recorder health at capture time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecorderInfo {
    /// Ring capacity in records.
    pub capacity: u64,
    /// Records ever claimed.
    pub written: u64,
    /// Records dropped on slot collision.
    pub dropped: u64,
}

/// One column of the on-host time-series ring, flattened for the artifact.
/// `null` entries mark frames captured before the column first existed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineColumnInfo {
    /// Column name (e.g. `serve.completed`, `tenant.<fp>.charged_ms`).
    pub name: String,
    /// `counter` or `gauge`.
    pub kind: String,
    /// One value per retained frame, oldest-first.
    pub values: Vec<Option<f64>>,
}

/// The tail of the on-host time-series ring at capture: the last minutes
/// of sampled counters/gauges leading up to the incident, so the artifact
/// answers "what was trending before this fired" without an external TSDB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineInfo {
    /// Frame timestamps, nanoseconds since the trace epoch, oldest-first.
    pub at_ns: Vec<u64>,
    /// Sampled columns, in registration order.
    pub columns: Vec<TimelineColumnInfo>,
}

impl TimelineInfo {
    /// Flattens a ring snapshot (NaN backfill becomes `null`).
    pub fn from_snapshot(snap: &granii_telemetry::TimeSeriesSnapshot) -> Self {
        TimelineInfo {
            at_ns: snap.at_ns.clone(),
            columns: snap
                .columns
                .iter()
                .map(|c| TimelineColumnInfo {
                    name: c.name.clone(),
                    kind: c.kind.name().to_owned(),
                    values: c
                        .values
                        .iter()
                        .map(|v| if v.is_finite() { Some(*v) } else { None })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Number of retained frames.
    pub fn frames(&self) -> usize {
        self.at_ns.len()
    }
}

/// One correlated incident artifact. Serializes to a single JSON object;
/// `granii incident-show` renders it as a human-readable timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncidentBundle {
    /// Incident number within this server (1-based).
    pub seq: u64,
    /// Microseconds since the trace epoch at capture.
    pub captured_at_us: u64,
    /// What fired.
    pub trigger: TriggerInfo,
    /// Flight-recorder health at capture.
    pub recorder: RecorderInfo,
    /// The ring excerpt, oldest-first (bounded by `ring_tail`).
    pub ring: Vec<RingEntry>,
    /// The triggering signature's selection audit, when one is retained.
    pub selection: Option<SelectionAuditInfo>,
    /// Merged latency sketch + batch-size sketch quantiles.
    pub sketches: Vec<SketchSummary>,
    /// Recent structured telemetry events, oldest-first, rendered as
    /// `name key=value ...` lines (empty when telemetry is disabled).
    pub events: Vec<String>,
    /// Telemetry events dropped by the bounded sink so far.
    pub events_dropped: u64,
    /// The time-series ring tail at capture (`None` in bundles captured
    /// before the timeline existed, or when the sampler is disabled).
    pub timeline: Option<TimelineInfo>,
    /// The full live status snapshot.
    pub status: ServerStatus,
}

impl IncidentBundle {
    /// Serializes to JSON. Infallible for this struct: every field is a
    /// number, string, bool, or list/object of such.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("IncidentBundle serializes")
    }

    /// Parses a bundle previously produced by [`IncidentBundle::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error message.
    pub fn from_json(json: &str) -> std::result::Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

impl fmt::Display for IncidentBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "incident #{} · trigger {} · captured at {:.3}s",
            self.seq,
            self.trigger.kind,
            self.captured_at_us as f64 / 1e6
        )?;
        writeln!(f, "  detail    {}", self.trigger.detail)?;
        writeln!(
            f,
            "  signature {}",
            if self.trigger.fingerprint.is_empty() {
                "-".to_owned()
            } else {
                format!(
                    "{} {} {}x{}",
                    self.trigger.model, self.trigger.fingerprint, self.trigger.k1, self.trigger.k2
                )
            }
        )?;
        writeln!(
            f,
            "  recorder  {} written | {} dropped | ring capacity {}",
            self.recorder.written, self.recorder.dropped, self.recorder.capacity
        )?;
        if let Some(sel) = &self.selection {
            writeln!(
                f,
                "  selection {} chose {}{}",
                sel.fingerprint,
                sel.composition,
                if sel.degraded { " (degraded)" } else { "" }
            )?;
            if let Some(input) = &sel.input {
                writeln!(
                    f,
                    "    input   bands {:?} | avg_degree {:.3} | degree_cv {:.3} | density {:.6}",
                    input
                        .bands
                        .iter()
                        .map(|b| (b * 1000.0).round() / 1000.0)
                        .collect::<Vec<_>>(),
                    input.avg_degree,
                    input.degree_cv,
                    input.density
                )?;
            }
            for c in &sel.predicted {
                writeln!(
                    f,
                    "    cost    {:<28} {:>12.9}s{}",
                    c.composition,
                    c.predicted_seconds,
                    if c.composition == sel.composition {
                        "  <- chosen"
                    } else {
                        ""
                    }
                )?;
            }
        }
        for s in &self.sketches {
            writeln!(
                f,
                "  sketch    {:<20} n={:<8} p50 {:.0} p95 {:.0} p99 {:.0} p999 {:.0}",
                s.name, s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.p999_ns
            )?;
        }
        if let Some(timeline) = &self.timeline {
            writeln!(
                f,
                "  timeline  {} frames x {} columns",
                timeline.frames(),
                timeline.columns.len()
            )?;
        }
        writeln!(
            f,
            "  ring      {} records ({} telemetry events attached, {} dropped)",
            self.ring.len(),
            self.events.len(),
            self.events_dropped
        )?;
        let t0 = self.ring.first().map(|r| r.ts_us).unwrap_or(0);
        for r in &self.ring {
            let rel_ms = r.ts_us.saturating_sub(t0) as f64 / 1e3;
            write!(f, "    +{rel_ms:>9.3}ms  #{:<6} {:<17}", r.seq, r.kind)?;
            if r.id != 0 || r.kind == "enqueue" || r.kind == "complete" {
                write!(f, " id={}", r.id)?;
            }
            if !r.fingerprint.is_empty() {
                write!(f, " sig={}", r.fingerprint)?;
            }
            if !r.members.is_empty() {
                write!(f, " members={:?}", r.members)?;
            }
            if !r.note.is_empty() {
                write!(f, " {}", r.note)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  status    (at capture)")?;
        write!(f, "{}", self.status)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The capturer: rate limiting, shed-storm counting, bundle retention.
// ---------------------------------------------------------------------------

struct CaptureState {
    last_capture: Option<Instant>,
    window_start: Option<Instant>,
    in_window: u32,
    shed_window_start: Option<Instant>,
    shed_in_window: u64,
    recent: VecDeque<IncidentBundle>,
    last_trigger: String,
}

/// Owns incident policy and retention. The server builds bundles (it owns
/// the state a bundle correlates); the capturer decides *whether* (rate
/// limits, shed-storm counting) and *where* (memory + optional directory).
pub struct IncidentCapturer {
    config: IncidentConfig,
    audits: AuditTable,
    state: Mutex<CaptureState>,
    captured: AtomicU64,
    suppressed: AtomicU64,
    io_errors: AtomicU64,
}

impl IncidentCapturer {
    /// Creates a capturer with the given policy.
    pub fn new(config: IncidentConfig) -> Self {
        IncidentCapturer {
            config,
            audits: AuditTable::default(),
            state: Mutex::new(CaptureState {
                last_capture: None,
                window_start: None,
                in_window: 0,
                shed_window_start: None,
                shed_in_window: 0,
                recent: VecDeque::new(),
                last_trigger: String::new(),
            }),
            captured: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// The active policy.
    pub fn config(&self) -> &IncidentConfig {
        &self.config
    }

    /// The selection-audit table.
    pub fn audits(&self) -> &AuditTable {
        &self.audits
    }

    /// Rate-limit gate: whether a capture may proceed *now*. A `true`
    /// consumes budget (cooldown restarts, window count increments); a
    /// `false` bumps the suppressed counter.
    pub fn admit(&self) -> bool {
        self.admit_at(Instant::now())
    }

    fn admit_at(&self, now: Instant) -> bool {
        if !self.config.enabled {
            return false;
        }
        let mut state = self.lock();
        if let Some(last) = state.last_capture {
            if now.duration_since(last) < self.config.cooldown {
                drop(state);
                self.suppressed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        let window_expired = state
            .window_start
            .is_none_or(|start| now.duration_since(start) >= self.config.window);
        if window_expired {
            state.window_start = Some(now);
            state.in_window = 0;
        }
        if state.in_window >= self.config.max_per_window {
            drop(state);
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        state.in_window += 1;
        state.last_capture = Some(now);
        true
    }

    /// Counts one shed; `Some(count)` when the count just crossed the
    /// shed-storm threshold (the caller should fire a
    /// [`IncidentTrigger::ShedStorm`]). The window re-arms after a trigger.
    pub fn note_shed(&self) -> Option<u64> {
        if !self.config.enabled || self.config.shed_threshold == 0 {
            return None;
        }
        let now = Instant::now();
        let mut state = self.lock();
        let expired = state
            .shed_window_start
            .is_none_or(|start| now.duration_since(start) >= self.config.shed_window);
        if expired {
            state.shed_window_start = Some(now);
            state.shed_in_window = 0;
        }
        state.shed_in_window += 1;
        if state.shed_in_window == self.config.shed_threshold {
            let count = state.shed_in_window;
            // Re-arm: a sustained storm fires again only after another
            // threshold's worth of sheds (the capture cooldown gates disk).
            state.shed_window_start = Some(now);
            state.shed_in_window = 0;
            Some(count)
        } else {
            None
        }
    }

    /// Retains a captured bundle (memory, and disk when `dir` is set). A
    /// failed write is counted ([`IncidentCapturer::io_errors`]); the bundle
    /// is still retained in memory.
    pub fn store(&self, bundle: IncidentBundle) {
        if let Some(dir) = &self.config.dir {
            let path = dir.join(format!(
                "incident-{:03}-{}.json",
                bundle.seq, bundle.trigger.kind
            ));
            let write =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, bundle.to_json()));
            if write.is_err() {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut state = self.lock();
        state.last_trigger = bundle.trigger.kind.clone();
        state.recent.push_back(bundle);
        while state.recent.len() > self.config.keep_last.max(1) {
            state.recent.pop_front();
        }
    }

    /// Hands out the next incident number (1-based).
    pub fn next_seq(&self) -> u64 {
        self.captured.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bundles captured so far.
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Triggers suppressed by the rate limits so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Bundles whose write to `dir` failed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }

    /// Kind of the most recently captured trigger (`""` when none).
    pub fn last_trigger(&self) -> String {
        self.lock().last_trigger.clone()
    }

    /// The retained bundles, oldest-first.
    pub fn recent(&self) -> Vec<IncidentBundle> {
        self.lock().recent.iter().cloned().collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CaptureState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Renders recent telemetry events (taken with the non-destructive
/// [`granii_telemetry::snapshot_events`]) as `name key=value` lines.
pub fn render_events(events: &[granii_telemetry::EventRecord], tail: usize) -> Vec<String> {
    events
        .iter()
        .skip(events.len().saturating_sub(tail))
        .map(|e| {
            let mut line = format!("{} ts_us={}", e.name, e.ts_us);
            for (key, value) in &e.fields {
                use granii_telemetry::AttrValue;
                match value {
                    AttrValue::U64(v) => {
                        line.push_str(&format!(" {key}={v}"));
                    }
                    AttrValue::F64(v) => {
                        line.push_str(&format!(" {key}={v}"));
                    }
                    AttrValue::Str(v) => {
                        line.push_str(&format!(" {key}={v}"));
                    }
                }
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{BatchingStatus, CacheStatus, FairnessStatus};
    use granii_gnn::spec::ModelKind;

    fn zero_status() -> ServerStatus {
        ServerStatus {
            uptime_seconds: 1.0,
            queue_depth: 0,
            queue_capacity: 64,
            submitted: 10,
            completed: 9,
            failed: 0,
            shed: 1,
            degraded: 0,
            deadline_expired: 0,
            degraded_rate: 0.0,
            deadline_expired_rate: 0.0,
            drift_flagged: 0,
            input_drift_flagged: 1,
            distinct_signatures: 1.0,
            batching: BatchingStatus::default(),
            fairness: FairnessStatus::default(),
            workers: Vec::new(),
            cache: CacheStatus {
                hits: 8,
                misses: 2,
                evictions: 0,
                invalidations: 1,
                len: 1,
                capacity: 64,
                hit_rate: 0.8,
            },
            drift: Vec::new(),
            input: Vec::new(),
            slo: Vec::new(),
            latency: Vec::new(),
            recorder: crate::status::RecorderStatus::default(),
            metering: crate::status::MeteringStatus::default(),
        }
    }

    fn key() -> PlanKey {
        (ModelKind::Gcn, 0x5eed_f00d, 64, 32)
    }

    fn sample_bundle() -> IncidentBundle {
        let trigger = IncidentTrigger::InputDrift {
            key: key(),
            band_l1: 0.41,
            cv_delta: 2.2,
        };
        IncidentBundle {
            seq: 1,
            captured_at_us: 1_500_000,
            trigger: trigger.info(),
            recorder: RecorderInfo {
                capacity: 4096,
                written: 123,
                dropped: 0,
            },
            ring: vec![RingEntry::from_record(&FlightRecord {
                seq: 9,
                ts_us: 1_400_000,
                id: 7,
                fingerprint: 0x5eed_f00d,
                model: "gcn",
                kind: RecordKind::InputDriftFlag {
                    band_l1: 0.41,
                    cv_delta: 2.2,
                    live_cv: 3.0,
                    reference_cv: 0.8,
                    live_avg_degree: 9.5,
                },
            })],
            selection: Some(SelectionAuditInfo::from_audit(
                key(),
                &SelectionAudit {
                    composition: "gspmm_fused".to_owned(),
                    degraded: false,
                    predicted: vec![
                        ("gspmm_fused".to_owned(), 0.0011),
                        ("gemm_then_gspmm".to_owned(), 0.0042),
                    ],
                    profile: Some(InputProfile {
                        bands: [0.0, 0.9, 0.1, 0.0, 0.0],
                        avg_degree: 3.5,
                        degree_cv: 0.8,
                        density: 0.01,
                    }),
                    captured_at_us: 900_000,
                },
            )),
            sketches: Vec::new(),
            events: vec!["serve.input_drift ts_us=1400000 id=7".to_owned()],
            events_dropped: 0,
            timeline: Some(TimelineInfo {
                at_ns: vec![1_000_000, 2_000_000],
                columns: vec![TimelineColumnInfo {
                    name: "serve.completed".to_owned(),
                    kind: "counter".to_owned(),
                    values: vec![None, Some(9.0)],
                }],
            }),
            status: zero_status(),
        }
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let bundle = sample_bundle();
        let parsed = IncidentBundle::from_json(&bundle.to_json()).unwrap();
        assert_eq!(parsed.seq, 1);
        assert_eq!(parsed.trigger.kind, "input_drift");
        assert_eq!(
            parsed.trigger.fingerprint,
            format!("{:016x}", 0x5eed_f00du64)
        );
        assert!((parsed.trigger.value - 0.41).abs() < 1e-12);
        assert_eq!(parsed.ring.len(), 1);
        assert_eq!(parsed.ring[0].kind, "input_drift_flag");
        assert_eq!(parsed.ring[0].id, 7);
        let sel = parsed.selection.as_ref().expect("selection audit present");
        assert_eq!(sel.composition, "gspmm_fused");
        assert_eq!(sel.predicted.len(), 2);
        assert!((sel.predicted[1].predicted_seconds - 0.0042).abs() < 1e-12);
        let input = sel.input.as_ref().expect("input stats present");
        assert_eq!(input.bands.len(), 5);
        assert!((input.degree_cv - 0.8).abs() < 1e-12);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.status.submitted, 10);
        let timeline = parsed.timeline.as_ref().expect("timeline attached");
        assert_eq!(timeline.frames(), 2);
        assert_eq!(timeline.columns[0].name, "serve.completed");
        assert_eq!(timeline.columns[0].kind, "counter");
        assert_eq!(timeline.columns[0].values, vec![None, Some(9.0)]);
    }

    #[test]
    fn bundles_without_a_timeline_still_parse() {
        // Bundles captured before the time-series ring existed carry no
        // `timeline` key; the field must deserialize to None, not error.
        let mut bundle = sample_bundle();
        bundle.timeline = None;
        let json = bundle.to_json();
        assert!(!json.contains("\"at_ns\""));
        let parsed = IncidentBundle::from_json(&json).unwrap();
        assert!(parsed.timeline.is_none());
    }

    #[test]
    fn timeline_renders_trigger_signature_and_costs() {
        let text = sample_bundle().to_string();
        assert!(text.contains("trigger input_drift"));
        assert!(text.contains(&format!("{:016x}", 0x5eed_f00du64)));
        assert!(text.contains("<- chosen"));
        assert!(text.contains("input_drift_flag"));
        assert!(text.contains("band_l1"));
    }

    #[test]
    fn cooldown_rate_limits_captures() {
        let capturer = IncidentCapturer::new(IncidentConfig {
            cooldown: Duration::from_secs(3600),
            max_per_window: 100,
            ..IncidentConfig::default()
        });
        assert!(capturer.admit());
        assert!(!capturer.admit(), "cooldown must suppress");
        assert!(!capturer.admit());
        assert_eq!(capturer.suppressed(), 2);
    }

    #[test]
    fn max_per_window_caps_a_burst() {
        let capturer = IncidentCapturer::new(IncidentConfig {
            cooldown: Duration::ZERO,
            max_per_window: 2,
            window: Duration::from_secs(3600),
            ..IncidentConfig::default()
        });
        assert!(capturer.admit());
        assert!(capturer.admit());
        assert!(!capturer.admit(), "window budget exhausted");
        assert_eq!(capturer.suppressed(), 1);
    }

    #[test]
    fn disabled_capturer_admits_nothing() {
        let capturer = IncidentCapturer::new(IncidentConfig {
            enabled: false,
            ..IncidentConfig::default()
        });
        assert!(!capturer.admit());
        assert_eq!(capturer.note_shed(), None);
    }

    #[test]
    fn shed_storm_threshold_fires_once_per_armed_window() {
        let capturer = IncidentCapturer::new(IncidentConfig {
            shed_threshold: 3,
            shed_window: Duration::from_secs(3600),
            ..IncidentConfig::default()
        });
        assert_eq!(capturer.note_shed(), None);
        assert_eq!(capturer.note_shed(), None);
        assert_eq!(capturer.note_shed(), Some(3), "third shed crosses");
        // Re-armed: the next crossing needs another full threshold.
        assert_eq!(capturer.note_shed(), None);
        assert_eq!(capturer.note_shed(), None);
        assert_eq!(capturer.note_shed(), Some(3));
    }

    #[test]
    fn store_retains_bounded_recent_and_last_trigger() {
        let capturer = IncidentCapturer::new(IncidentConfig {
            keep_last: 2,
            ..IncidentConfig::default()
        });
        for i in 0..4 {
            let mut bundle = sample_bundle();
            bundle.seq = capturer.next_seq();
            assert_eq!(bundle.seq, i + 1);
            capturer.store(bundle);
        }
        let recent = capturer.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].seq, 3);
        assert_eq!(recent[1].seq, 4);
        assert_eq!(capturer.last_trigger(), "input_drift");
        assert_eq!(capturer.captured(), 4);
    }

    #[test]
    fn failed_bundle_writes_are_counted_with_telemetry_off() {
        // A directory under a regular file can never be created.
        let file =
            std::env::temp_dir().join(format!("granii-incident-io-error-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        granii_telemetry::disable();
        let capturer = IncidentCapturer::new(IncidentConfig {
            dir: Some(file.join("incidents")),
            ..IncidentConfig::default()
        });
        let mut bundle = sample_bundle();
        bundle.seq = capturer.next_seq();
        capturer.store(bundle);
        std::fs::remove_file(&file).ok();
        assert_eq!(capturer.io_errors(), 1, "the failed write is counted");
        assert_eq!(capturer.recent().len(), 1, "the bundle is kept in memory");
    }

    #[test]
    fn audit_table_replaces_and_evicts_fifo() {
        let table = AuditTable::default();
        let audit = |name: &str| SelectionAudit {
            composition: name.to_owned(),
            degraded: false,
            predicted: Vec::new(),
            profile: None,
            captured_at_us: 0,
        };
        table.record(key(), audit("first"));
        table.record(key(), audit("second"));
        assert_eq!(table.len(), 1, "same key replaces");
        assert_eq!(table.get(key()).unwrap().composition, "second");
        for i in 0..AUDIT_CAPACITY as u64 {
            table.record((ModelKind::Gcn, 0x1000 + i, 8, 8), audit("filler"));
        }
        assert_eq!(table.len(), AUDIT_CAPACITY);
        assert!(
            table.get(key()).is_none(),
            "oldest entry evicted beyond capacity"
        );
    }
}
