//! Automatic incident capture: when a detector fires, photograph the
//! moments around it before the evidence scrolls away.
//!
//! The serving runtime already *detects* trouble — cost-model drift, input
//! drift, SLO burn, shed storms — but detection alone leaves the operator
//! with a counter and no context. The incident capturer turns a trigger
//! into a correlated **bundle**: the server's own flight-recorder ring
//! around the anomaly ([`crate::recorder`]), the full [`ServerStatus`]
//! (recorder health and latency quantiles included), the timeline tail,
//! and — the paper's own question — the triggering signature's **selection
//! audit**: which composition was chosen, what every candidate's predicted
//! cost was, and the input statistics that keyed the choice. One JSON
//! artifact answers "which input statistics drove the primitive selection
//! that misbehaved", and every fact in it appears once.
//!
//! A trigger is the flight record the detector wrote (`slo_burn`,
//! `drift_flag`, `input_drift_flag`, `shed_storm`), carried into the bundle
//! as the same [`RingEntry`] the ring excerpt and `--events-out` use, and
//! the selection audit is stored in the form the bundle carries
//! ([`SelectionAuditInfo`]).
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
use crate::catalog;
use crate::recorder::{FlightRecord, RecordKind};
use crate::status::{hex_fp, ServerStatus};

/// Bounded size of the selection-audit table (signatures). Oldest entries
/// evict first; 256 signatures of a few hundred bytes is noise next to the
/// bound plans themselves.
pub const AUDIT_CAPACITY: usize = 256;

/// The tumbling window [`IncidentConfig::max_per_window`] counts captures in.
const CAPTURE_WINDOW: Duration = Duration::from_secs(60);

/// The window [`IncidentConfig::shed_threshold`] counts sheds in.
const SHED_WINDOW: Duration = Duration::from_secs(1);

/// Newest flight-recorder records included in a bundle.
pub(crate) const RING_TAIL: usize = 256;

/// Bundles retained in memory ([`IncidentCapturer::recent`]), newest-last.
const KEEP_LAST: usize = 8;

/// Incident-capture tuning. `max_per_window: 0` and `shed_threshold: 0`
/// together capture nothing.
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Directory bundles are written to (`incident-NNN-<kind>.json`).
    /// `None` keeps bundles in memory only ([`IncidentCapturer::recent`]).
    pub dir: Option<PathBuf>,
    /// Minimum gap between two captures.
    pub cooldown: Duration,
    /// Maximum captures per 60 s tumbling window.
    pub max_per_window: u32,
    /// Sheds within one second that count as a shed storm (0 disables the
    /// shed trigger).
    pub shed_threshold: u64,
}

impl Default for IncidentConfig {
    fn default() -> Self {
        IncidentConfig {
            dir: None,
            cooldown: Duration::from_secs(2),
            max_per_window: 4,
            shed_threshold: 64,
        }
    }
}

/// Bounded per-signature table of [`SelectionAuditInfo`]s, FIFO-evicted.
/// Separate from the plan cache on purpose: invalidation precedes capture.
#[derive(Default)]
pub struct AuditTable {
    entries: Mutex<VecDeque<(PlanKey, SelectionAuditInfo)>>,
}

impl AuditTable {
    /// Records (or replaces) `key`'s audit; evicts oldest beyond
    /// [`AUDIT_CAPACITY`].
    pub fn record(&self, key: PlanKey, audit: SelectionAuditInfo) {
        let mut entries = self.lock();
        entries.retain(|(k, _)| *k != key);
        if entries.len() >= AUDIT_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, audit));
    }

    /// The most recent audit for `key`, if still retained.
    pub fn get(&self, key: PlanKey) -> Option<SelectionAuditInfo> {
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

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(PlanKey, SelectionAuditInfo)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// ---------------------------------------------------------------------------
// Bundle schema (all fields JSON-plain; fingerprints are 16-hex strings —
// the JSON layer is f64-backed and would mangle u64s above 2^53).
// ---------------------------------------------------------------------------

/// One flight-recorder record, flattened for the artifact: a bundle's
/// trigger and ring excerpt, and each `--events-out` line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
            RecordKind::ShedStorm { sheds } => (0, Vec::new(), format!("sheds={sheds}")),
            RecordKind::DeadlineExpired => (0, Vec::new(), String::new()),
            RecordKind::Complete {
                outcome,
                latency_us,
                queue_us,
                batch,
                degraded,
            } => (
                u64::from(batch),
                Vec::new(),
                format!(
                    "outcome={outcome} latency_us={latency_us} queue_us={queue_us} \
                     degraded={degraded}"
                ),
            ),
            RecordKind::Failed => (0, Vec::new(), String::new()),
            RecordKind::ModelSwap => (0, Vec::new(), String::new()),
            RecordKind::Incident { seq, trigger } => {
                (0, Vec::new(), format!("seq={seq} trigger={trigger}"))
            }
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

/// The selection decision behind one signature's cached plan, captured at
/// bind time (the only moment the per-candidate costs exist) and carried
/// as-is into a bundle that triggers on the signature.
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
    /// The input statistics behind the choice: the leader's input profile.
    pub input: InputStats,
    /// Microseconds since the trace epoch when the plan was bound.
    pub captured_at_us: u64,
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
/// Its last frame is read at capture, from the status taken beside it.
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

    /// Appends one frame at `at_ns` holding every dotted series of
    /// `status`. A series new to this timeline (a tenant first seen since
    /// the sampler's last tick) becomes a column that is `null` in every
    /// earlier frame; a column `status` lacks is `null` in this one.
    pub(crate) fn push_frame(&mut self, at_ns: u64, status: &ServerStatus) {
        let earlier = self.at_ns.len();
        self.at_ns.push(at_ns);
        catalog::for_each_series(status, |name, kind, value| {
            let column = match self.columns.iter().position(|c| c.name == name) {
                Some(i) => &mut self.columns[i],
                None => {
                    self.columns.push(TimelineColumnInfo {
                        name: name.to_owned(),
                        kind: kind.sample_kind().name().to_owned(),
                        values: vec![None; earlier],
                    });
                    self.columns.last_mut().expect("column just pushed")
                }
            };
            column.values.push(value.is_finite().then_some(value));
        });
        for column in &mut self.columns {
            column.values.resize(earlier + 1, None);
        }
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
    /// The flight record that fired (`slo_burn`, `drift_flag`,
    /// `input_drift_flag` or `shed_storm`).
    pub trigger: RingEntry,
    /// The ring excerpt, oldest-first (the newest 256 records), ending
    /// with this capture's own `incident` record.
    pub ring: Vec<RingEntry>,
    /// The triggering signature's selection audit, when one is retained.
    pub selection: Option<SelectionAuditInfo>,
    /// The time-series ring at capture, ending with a frame of `status`
    /// (never empty: the ring's first frame is taken when the server
    /// starts).
    pub timeline: TimelineInfo,
    /// The full live status snapshot: recorder health, latency and
    /// batch-size quantiles, and every other server number.
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
        writeln!(f, "  detail    {}", self.trigger.note)?;
        write!(f, "  signature ")?;
        if self.trigger.fingerprint.is_empty() {
            writeln!(f, "-")?;
        } else {
            write!(f, "{} {}", self.trigger.model, self.trigger.fingerprint)?;
            // The record names the signature; its widths live in the audit.
            match &self.selection {
                Some(sel) => writeln!(f, " {}x{}", sel.k1, sel.k2)?,
                None => writeln!(f)?,
            }
        }
        if let Some(sel) = &self.selection {
            writeln!(
                f,
                "  selection {} chose {}{}",
                sel.fingerprint,
                sel.composition,
                if sel.degraded { " (degraded)" } else { "" }
            )?;
            let input = &sel.input;
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
        writeln!(
            f,
            "  timeline  {} frames x {} columns",
            self.timeline.frames(),
            self.timeline.columns.len()
        )?;
        writeln!(f, "  ring      {} records", self.ring.len())?;
        let t0 = self.ring.first().map(|r| r.ts_us).unwrap_or(0);
        for r in &self.ring {
            let rel_ms = r.ts_us.saturating_sub(t0) as f64 / 1e3;
            write!(f, "    +{rel_ms:>9.3}ms  #{:<6} {:<17}", r.seq, r.kind)?;
            if r.id != 0 {
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
    shed_start: Option<Instant>,
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
                shed_start: None,
                shed_in_window: 0,
                recent: VecDeque::new(),
                last_trigger: String::new(),
            }),
            captured: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
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
            .is_none_or(|start| now.duration_since(start) >= CAPTURE_WINDOW);
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
    /// shed-storm threshold (the caller should record a `shed_storm` and
    /// capture on it). The window re-arms after a trigger.
    pub fn note_shed(&self) -> Option<u64> {
        if self.config.shed_threshold == 0 {
            return None;
        }
        let now = Instant::now();
        let mut state = self.lock();
        let expired = state
            .shed_start
            .is_none_or(|start| now.duration_since(start) >= SHED_WINDOW);
        if expired {
            state.shed_start = Some(now);
            state.shed_in_window = 0;
        }
        state.shed_in_window += 1;
        if state.shed_in_window == self.config.shed_threshold {
            let count = state.shed_in_window;
            // Re-arm: a sustained storm fires again only after another
            // threshold's worth of sheds (the capture cooldown gates disk).
            state.shed_start = Some(now);
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
        while state.recent.len() > KEEP_LAST {
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

    fn audit(composition: &str) -> SelectionAuditInfo {
        SelectionAuditInfo {
            model: "gcn".to_owned(),
            fingerprint: hex_fp(key().1),
            k1: 64,
            k2: 32,
            composition: composition.to_owned(),
            degraded: false,
            predicted: Vec::new(),
            input: InputStats {
                bands: vec![0.0, 0.9, 0.1, 0.0, 0.0],
                avg_degree: 3.5,
                degree_cv: 0.8,
                density: 0.01,
            },
            captured_at_us: 900_000,
        }
    }

    fn sample_bundle() -> IncidentBundle {
        let flag = RingEntry::from_record(&FlightRecord {
            seq: 9,
            ts_us: 1_400_000,
            id: 7,
            fingerprint: key().1,
            model: "gcn",
            kind: RecordKind::InputDriftFlag {
                band_l1: 0.41,
                cv_delta: 2.2,
                live_cv: 3.0,
                reference_cv: 0.8,
                live_avg_degree: 9.5,
            },
        });
        IncidentBundle {
            seq: 1,
            captured_at_us: 1_500_000,
            trigger: flag.clone(),
            ring: vec![flag],
            selection: Some(SelectionAuditInfo {
                predicted: vec![
                    CandidateCost {
                        composition: "gspmm_fused".to_owned(),
                        predicted_seconds: 0.0011,
                    },
                    CandidateCost {
                        composition: "gemm_then_gspmm".to_owned(),
                        predicted_seconds: 0.0042,
                    },
                ],
                ..audit("gspmm_fused")
            }),
            timeline: TimelineInfo {
                at_ns: vec![1_000_000, 2_000_000],
                columns: vec![TimelineColumnInfo {
                    name: "serve.completed".to_owned(),
                    kind: "counter".to_owned(),
                    values: vec![None, Some(9.0)],
                }],
            },
            status: zero_status(),
        }
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let bundle = sample_bundle();
        let parsed = IncidentBundle::from_json(&bundle.to_json()).unwrap();
        assert_eq!(parsed.seq, 1);
        assert_eq!(parsed.trigger.kind, "input_drift_flag");
        assert_eq!(
            parsed.trigger.fingerprint,
            format!("{:016x}", 0x5eed_f00du64)
        );
        assert!(parsed.trigger.note.contains("band_l1=0.4100"));
        assert_eq!(parsed.ring.len(), 1);
        assert_eq!(parsed.ring[0], parsed.trigger, "the trigger is its record");
        assert_eq!(parsed.ring[0].id, 7);
        let sel = parsed.selection.as_ref().expect("selection audit present");
        assert_eq!(sel.composition, "gspmm_fused");
        assert_eq!(sel.predicted.len(), 2);
        assert!((sel.predicted[1].predicted_seconds - 0.0042).abs() < 1e-12);
        assert_eq!(sel.input.bands.len(), 5);
        assert!((sel.input.degree_cv - 0.8).abs() < 1e-12);
        assert_eq!(parsed.status.submitted, 10);
        let timeline = &parsed.timeline;
        assert_eq!(timeline.frames(), 2);
        assert_eq!(timeline.columns[0].name, "serve.completed");
        assert_eq!(timeline.columns[0].kind, "counter");
        assert_eq!(timeline.columns[0].values, vec![None, Some(9.0)]);
    }

    #[test]
    fn bundles_without_a_timeline_are_rejected() {
        let bundle = sample_bundle();
        let json = bundle.to_json();
        let timeline = format!(
            ",\"timeline\":{}",
            serde_json::to_string(&bundle.timeline).unwrap()
        );
        assert!(json.contains(&timeline));
        let err = IncidentBundle::from_json(&json.replace(&timeline, "")).unwrap_err();
        assert!(err.contains("timeline"), "{err}");
    }

    #[test]
    fn selection_audits_without_input_stats_are_rejected() {
        let bundle = sample_bundle();
        let json = bundle.to_json();
        let input = format!(
            ",\"input\":{}",
            serde_json::to_string(&bundle.selection.as_ref().unwrap().input).unwrap()
        );
        assert!(json.contains(&input));
        let err = IncidentBundle::from_json(&json.replace(&input, "")).unwrap_err();
        assert!(err.contains("input"), "{err}");
    }

    #[test]
    fn timeline_info_carries_backfill_as_null() {
        let ring = granii_telemetry::TimeSeriesRing::new(4);
        let a = ring.column("serve.completed", granii_telemetry::SampleKind::Counter);
        ring.push(1, &[(a, 1.0)]);
        let b = ring.column("queue_depth", granii_telemetry::SampleKind::Gauge);
        ring.push(2, &[(a, 3.0), (b, 0.5)]);
        let info = TimelineInfo::from_snapshot(&ring.snapshot());
        assert_eq!(info.at_ns, vec![1, 2]);
        assert_eq!(info.columns[0].kind, "counter");
        assert_eq!(info.columns[1].values, vec![None, Some(0.5)]);
        let json = serde_json::to_string(&info).unwrap();
        assert!(json.contains("\"values\":[null,0.5]"), "{json}");
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn a_pushed_frame_backfills_new_columns_and_nulls_missing_ones() {
        let ring = granii_telemetry::TimeSeriesRing::new(4);
        let completed = ring.column("serve.completed", granii_telemetry::SampleKind::Counter);
        let gone = ring.column(
            "tenant.gone.requests",
            granii_telemetry::SampleKind::Counter,
        );
        ring.push(1, &[(completed, 2.0), (gone, 2.0)]);
        let mut info = TimelineInfo::from_snapshot(&ring.snapshot());
        info.push_frame(5, &zero_status());
        assert_eq!(info.at_ns, vec![1, 5]);
        assert!(info.columns.iter().all(|c| c.values.len() == 2));
        let column = |name: &str| {
            let c = info.columns.iter().find(|c| c.name == name).expect(name);
            (c.kind.as_str(), c.values.clone())
        };
        assert_eq!(
            column("serve.completed"),
            ("counter", vec![Some(2.0), Some(9.0)])
        );
        assert_eq!(
            column("tenant.gone.requests"),
            ("counter", vec![Some(2.0), None])
        );
        assert_eq!(
            column("serve.submitted"),
            ("counter", vec![None, Some(10.0)])
        );
        assert_eq!(
            column("serve.cache_hit_rate"),
            ("gauge", vec![None, Some(0.8)])
        );
        // Ring columns keep their order; new ones follow in catalog order.
        assert_eq!(info.columns[0].name, "serve.completed");
        assert_eq!(info.columns[1].name, "tenant.gone.requests");
    }

    #[test]
    fn timeline_renders_trigger_signature_and_costs() {
        let text = sample_bundle().to_string();
        assert!(text.contains("trigger input_drift_flag"));
        assert!(text.contains("detail    band_l1=0.4100 cv_delta=2.2000"));
        // Widths come from the audit: the record carries none.
        assert!(text.contains(&format!("signature gcn {:016x} 64x32", 0x5eed_f00du64)));
        assert!(text.contains("<- chosen"));
        assert!(text.contains("input_drift_flag"));
        assert!(text.contains(" id=7 "));
        assert!(text.contains("timeline  2 frames x 1 columns"));
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
            max_per_window: 0,
            shed_threshold: 0,
            ..IncidentConfig::default()
        });
        assert!(!capturer.admit());
        assert_eq!(capturer.note_shed(), None);
    }

    #[test]
    fn shed_storm_threshold_fires_once_per_armed_window() {
        let capturer = IncidentCapturer::new(IncidentConfig {
            shed_threshold: 3,
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
        let capturer = IncidentCapturer::new(IncidentConfig::default());
        for i in 0..10 {
            let mut bundle = sample_bundle();
            bundle.seq = capturer.next_seq();
            assert_eq!(bundle.seq, i + 1);
            capturer.store(bundle);
        }
        let seqs: Vec<u64> = capturer.recent().iter().map(|b| b.seq).collect();
        assert_eq!(seqs, (3..=10).collect::<Vec<_>>(), "the newest 8 are kept");
        assert_eq!(capturer.last_trigger(), "input_drift_flag");
        assert_eq!(capturer.captured(), 10);
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
