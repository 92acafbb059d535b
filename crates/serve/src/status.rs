//! Live serving status surface: a serializable point-in-time snapshot.
//!
//! [`crate::Server::status`] assembles a [`ServerStatus`] from state the
//! server already maintains — queue depth, per-worker busy accounting, cache
//! counters, degradation rates, and the drift detector's per-signature
//! residual table. The struct serializes to JSON (`serde` derive) for
//! machine consumers and renders a human-readable table via `Display`; the
//! CLI exposes both (`serve-demo --status-out`, `cli serve-status`).
//!
//! Graph fingerprints are rendered as **hex strings**, not numbers: the
//! JSON layer carries numbers as `f64`, which silently mangles 64-bit
//! fingerprints above 2⁵³.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Renders a graph fingerprint the one canonical way: zero-padded 16-hex.
/// Every status row, ring record, and scrape label goes through here so the
/// formats can never skew apart (see module docs for why not a number).
pub(crate) fn hex_fp(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// One worker's utilization since server start.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStatus {
    /// Worker index (matches the `granii-serve-{i}` thread name).
    pub index: usize,
    /// Requests this worker has processed.
    pub requests: u64,
    /// Seconds this worker spent processing (not parked on the queue).
    pub busy_seconds: f64,
    /// `busy_seconds / uptime_seconds`, in [0, 1].
    pub utilization: f64,
}

/// Plan-cache counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheStatus {
    /// Lookups that found a bound plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// Entries dropped by drift flags or model hot-swaps.
    pub invalidations: u64,
    /// Bound plans currently cached.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Hit fraction over all lookups (0 when none).
    pub hit_rate: f64,
}

/// One row of the drift table: a tracked plan signature and its residuals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftSignatureStatus {
    /// Model family name (`gcn`, `gat`, ...).
    pub model: String,
    /// Graph fingerprint as a zero-padded hex string (see module docs).
    pub fingerprint: String,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// Smoothed log-space residual ln(measured) − ln(predicted); positive
    /// means slower than the cost model promised.
    pub ewma_residual: f64,
    /// Most recent raw residual.
    pub last_residual: f64,
    /// Residual observations recorded.
    pub samples: u64,
    /// Times this signature has been flagged.
    pub flags: u64,
    /// Remaining flag-suppression observations.
    pub cooldown: u64,
    /// Completed requests the metering ledger attributes to this tenant
    /// (`None` in snapshots from before the ledger existed) — lets an
    /// operator correlate a drift flag with the tenant's traffic share.
    pub tenant_requests: Option<u64>,
}

/// One row of the input table: a tracked plan signature and how far its
/// live degree statistics have walked from what selection saw.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputSignatureStatus {
    /// Model family name (`gcn`, `gat`, ...).
    pub model: String,
    /// Plan signature as a zero-padded hex string (see module docs).
    pub fingerprint: String,
    /// Input embedding width.
    pub k1: usize,
    /// Output embedding width.
    pub k2: usize,
    /// L1 distance between the live and reference degree-band
    /// distributions at last observation, in `[0, 2]`.
    pub band_l1: f64,
    /// Absolute degree-CV delta at last observation.
    pub cv_delta: f64,
    /// Live (EWMA) average degree.
    pub live_avg_degree: f64,
    /// Live (EWMA) degree coefficient of variation.
    pub live_degree_cv: f64,
    /// Selection-time reference degree CV.
    pub reference_degree_cv: f64,
    /// Profiles folded since the signature was last rebound.
    pub samples: u64,
    /// Times this signature has been flagged by the input-drift lane.
    pub flags: u64,
    /// Remaining flag-suppression observations.
    pub cooldown: u64,
    /// Completed requests the metering ledger attributes to this tenant
    /// (`None` in pre-ledger snapshots).
    pub tenant_requests: Option<u64>,
}

/// One row of the SLO table: an objective and its error-budget state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloObjectiveStatus {
    /// Outcome class the objective covers (`hit`, `miss`, `degraded`).
    pub outcome: String,
    /// Latency threshold in milliseconds.
    pub threshold_ms: f64,
    /// Required compliant fraction, e.g. `0.99`.
    pub target: f64,
    /// Requests observed for the outcome.
    pub total: u64,
    /// Requests over the threshold.
    pub violations: u64,
    /// Lifetime compliant fraction (1 when no requests observed).
    pub compliance: f64,
    /// Burn rate of the most recently closed window (1.0 = budget spent
    /// exactly as provisioned).
    pub burn_rate: f64,
    /// Whether the last closed window was at or above the alert burn.
    pub burning: bool,
    /// Tumbling burn-rate windows closed so far.
    pub windows_closed: u64,
}

/// Per-outcome latency quantiles from the server's bounded-relative-error
/// sketches, which resolve the tail.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySketchStatus {
    /// Outcome class (`hit`, `miss`, `degraded`).
    pub outcome: String,
    /// Requests recorded.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency in milliseconds.
    pub p999_ms: f64,
}

/// Continuous-batching state: how requests coalesced into signature-keyed
/// batch groups.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BatchingStatus {
    /// Configured batch bound (`1` disables batching).
    pub max_batch: usize,
    /// Batch groups formed, including groups of one — sequential traffic
    /// honestly reports p50 size 1.
    pub groups: u64,
    /// Groups of two or more executed as a single multi-RHS iterate.
    pub batches: u64,
    /// Requests served inside such groups.
    pub batched_requests: u64,
    /// Mean group size.
    pub mean_size: f64,
    /// Median group size.
    pub p50_size: f64,
    /// 95th-percentile group size.
    pub p95_size: f64,
}

/// One tenant's admission-fairness counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Plan-signature fingerprint as a zero-padded hex string
    /// (`0000000000000000` aggregates tenants that overflowed the fixed
    /// tenant table).
    pub fingerprint: String,
    /// Requests currently queued for this tenant.
    pub queued: u64,
    /// Requests admitted over the server's lifetime.
    pub admitted: u64,
    /// Requests shed by the per-tenant bound.
    pub shed: u64,
}

/// Per-tenant admission fairness: the bound and the per-tenant table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FairnessStatus {
    /// Maximum queued requests any one tenant may hold.
    pub tenant_queue_cap: u64,
    /// Requests shed by the per-tenant bound (subset of total shed).
    pub tenant_shed: u64,
    /// Per-tenant counters, sorted by fingerprint.
    pub tenants: Vec<TenantStatus>,
}

/// Flight-recorder and incident-capture health.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecorderStatus {
    /// Ring capacity in records.
    pub capacity: u64,
    /// Records ever claimed by writers.
    pub written: u64,
    /// Records dropped on slot collision (writer never blocks).
    pub dropped: u64,
    /// Incident bundles captured.
    pub incidents: u64,
    /// Incident triggers suppressed by the rate limits.
    pub suppressed: u64,
    /// Incident bundles that could not be written to the incident
    /// directory.
    pub incident_io_errors: u64,
    /// Kind of the most recent captured trigger (`""` when none).
    pub last_trigger: String,
}

/// One tenant's resource meters, ranked into the "top tenants" table.
/// Charged time is milliseconds and flops/bytes are f64 here (the JSON
/// layer is f64-backed); the bitwise-exact integers live in the ledger
/// itself ([`crate::MeterRow`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantMeterStatus {
    /// Plan-signature fingerprint as a zero-padded hex string
    /// (`0000000000000000` aggregates tenants beyond the fixed table).
    pub fingerprint: String,
    /// Requests completed for this tenant.
    pub requests: u64,
    /// Completed requests that rode a coalesced batch (size > 1).
    pub batched_requests: u64,
    /// Engine-charged milliseconds attributed to this tenant.
    pub charged_ms: f64,
    /// Flops attributed to this tenant.
    pub flops: f64,
    /// Bytes (read + written) attributed to this tenant.
    pub bytes: f64,
    /// Mean queue wait per completed request, milliseconds.
    pub mean_queue_wait_ms: f64,
    /// Mean fraction of an execute occupied per request (1.0 = serial).
    pub mean_batch_share: f64,
    /// Plan-cache hit rate over completed requests.
    pub hit_rate: f64,
    /// Requests shed before execution.
    pub sheds: u64,
    /// Requests served by the degraded path.
    pub degraded: u64,
    /// Completed requests over their SLO objective's threshold.
    pub slo_violations: u64,
}

impl From<crate::metering::MeterRow> for TenantMeterStatus {
    fn from(row: crate::metering::MeterRow) -> Self {
        TenantMeterStatus {
            fingerprint: hex_fp(row.fingerprint),
            requests: row.requests,
            batched_requests: row.batched_requests,
            charged_ms: row.charged_ns as f64 / 1e6,
            flops: row.flops as f64,
            bytes: row.bytes as f64,
            mean_queue_wait_ms: row.mean_queue_wait_ms(),
            mean_batch_share: row.mean_batch_share(),
            hit_rate: row.hit_rate(),
            sheds: row.sheds,
            degraded: row.degraded,
            slo_violations: row.slo_violations,
        }
    }
}

/// Per-tenant resource metering: server-wide totals and the ranked
/// top-tenants table (charged time descending).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MeteringStatus {
    /// Requests the ledger has metered (equals `completed` at quiescence).
    pub total_requests: u64,
    /// Server-wide engine-charged milliseconds.
    pub total_charged_ms: f64,
    /// Server-wide attributed flops.
    pub total_flops: f64,
    /// Server-wide attributed bytes.
    pub total_bytes: f64,
    /// Server-wide sheds the ledger attributed to tenants.
    pub total_sheds: u64,
    /// Server-wide SLO-threshold violations.
    pub total_slo_violations: u64,
    /// Per-tenant meters, charged time descending.
    pub tenants: Vec<TenantMeterStatus>,
}

/// The metering totals line, then the ranked tenant table — the one
/// rendering shared by the status table, `granii top` and `serve_bench`.
impl fmt::Display for MeteringStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  metering {} requests | charged {:.2}ms | {:.0} flops | {:.0} bytes | sheds {} | slo violations {}",
            self.total_requests,
            self.total_charged_ms,
            self.total_flops,
            self.total_bytes,
            self.total_sheds,
            self.total_slo_violations
        )?;
        if self.tenants.is_empty() {
            return Ok(());
        }
        writeln!(
            f,
            "           {:<18} {:>6} {:>7} {:>10} {:>6} {:>8} {:>5} {:>5} {:>5} {:>4}",
            "top tenant",
            "reqs",
            "batched",
            "charged",
            "share",
            "wait",
            "hit%",
            "shed",
            "degr",
            "slo"
        )?;
        for row in &self.tenants {
            writeln!(
                f,
                "           {:<18} {:>6} {:>7} {:>8.2}ms {:>6.2} {:>6.2}ms {:>5.1} {:>5} {:>5} {:>4}",
                row.fingerprint,
                row.requests,
                row.batched_requests,
                row.charged_ms,
                row.mean_batch_share,
                row.mean_queue_wait_ms,
                row.hit_rate * 100.0,
                row.sheds,
                row.degraded,
                row.slo_violations
            )?;
        }
        Ok(())
    }
}

/// Point-in-time serving snapshot: everything an operator asks first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerStatus {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Configured queue bound.
    pub queue_capacity: usize,
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed with a response.
    pub completed: u64,
    /// Requests failed with an error.
    pub failed: u64,
    /// Requests shed at submit (queue full).
    pub shed: u64,
    /// Requests served via the default-composition fallback.
    pub degraded: u64,
    /// Requests whose deadline had expired at dequeue.
    pub deadline_expired: u64,
    /// `degraded / completed` (0 when none completed).
    pub degraded_rate: f64,
    /// `deadline_expired / completed` (0 when none completed).
    pub deadline_expired_rate: f64,
    /// Signatures flagged by the drift detector (total across signatures).
    pub drift_flagged: u64,
    /// Signatures flagged by the input-drift lane (total across
    /// signatures).
    pub input_drift_flagged: u64,
    /// Estimated distinct plan signatures served (HyperLogLog).
    pub distinct_signatures: f64,
    /// Continuous-batching state.
    pub batching: BatchingStatus,
    /// Per-tenant admission fairness.
    pub fairness: FairnessStatus,
    /// Per-worker utilization, indexed by worker.
    pub workers: Vec<WorkerStatus>,
    /// Plan-cache counters.
    pub cache: CacheStatus,
    /// Cost-residual drift table, one row per tracked signature, sorted by
    /// fingerprint (then model, k1, k2) so status artifacts diff cleanly.
    pub drift: Vec<DriftSignatureStatus>,
    /// Input-drift table, same ordering as `drift`.
    pub input: Vec<InputSignatureStatus>,
    /// SLO error-budget table, in configured objective order.
    pub slo: Vec<SloObjectiveStatus>,
    /// Per-outcome latency quantiles from the sketches.
    pub latency: Vec<LatencySketchStatus>,
    /// Flight-recorder ring and incident-capture health.
    pub recorder: RecorderStatus,
    /// Per-tenant resource metering and the ranked top-tenants table.
    pub metering: MeteringStatus,
}

impl ServerStatus {
    /// Serializes to JSON. Infallible for this struct: every field is a
    /// number, string, or list of such.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ServerStatus serializes")
    }

    /// Parses a snapshot previously produced by [`ServerStatus::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the underlying parse/shape error message.
    pub fn from_json(json: &str) -> std::result::Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

impl fmt::Display for ServerStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "granii-serve status (uptime {:.1}s)",
            self.uptime_seconds
        )?;
        writeln!(
            f,
            "  queue    {}/{} queued | submitted {} completed {} failed {} shed {}",
            self.queue_depth,
            self.queue_capacity,
            self.submitted,
            self.completed,
            self.failed,
            self.shed
        )?;
        writeln!(
            f,
            "  quality  degraded {} ({:.1}%) | deadline-expired {} ({:.1}%) | drift flags {} | input-drift flags {}",
            self.degraded,
            self.degraded_rate * 100.0,
            self.deadline_expired,
            self.deadline_expired_rate * 100.0,
            self.drift_flagged,
            self.input_drift_flagged
        )?;
        writeln!(
            f,
            "  cache    {}/{} entries | hits {} misses {} ({:.1}% hit) | evictions {} invalidations {}",
            self.cache.len,
            self.cache.capacity,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate * 100.0,
            self.cache.evictions,
            self.cache.invalidations
        )?;
        writeln!(
            f,
            "  inputs   ~{:.0} distinct signatures",
            self.distinct_signatures
        )?;
        writeln!(
            f,
            "  batching max {} | groups {} | batches {} ({} requests) | size mean {:.2} p50 {:.0} p95 {:.0}",
            self.batching.max_batch,
            self.batching.groups,
            self.batching.batches,
            self.batching.batched_requests,
            self.batching.mean_size,
            self.batching.p50_size,
            self.batching.p95_size
        )?;
        writeln!(
            f,
            "  fairness tenant cap {} | tenant shed {}",
            self.fairness.tenant_queue_cap, self.fairness.tenant_shed
        )?;
        writeln!(
            f,
            "  recorder {} written | {} dropped (cap {}) | incidents {} (suppressed {}, io errors {}){}",
            self.recorder.written,
            self.recorder.dropped,
            self.recorder.capacity,
            self.recorder.incidents,
            self.recorder.suppressed,
            self.recorder.incident_io_errors,
            if self.recorder.last_trigger.is_empty() {
                String::new()
            } else {
                format!(" | last {}", self.recorder.last_trigger)
            }
        )?;
        if !self.fairness.tenants.is_empty() {
            writeln!(
                f,
                "           {:<18} {:>6} {:>9} {:>6}",
                "tenant", "queued", "admitted", "shed"
            )?;
            for row in &self.fairness.tenants {
                writeln!(
                    f,
                    "           {:<18} {:>6} {:>9} {:>6}",
                    row.fingerprint, row.queued, row.admitted, row.shed
                )?;
            }
        }
        write!(f, "{}", self.metering)?;
        if !self.latency.is_empty() {
            writeln!(
                f,
                "  latency  {:<9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "outcome", "count", "mean", "p50", "p95", "p99", "p999"
            )?;
            for row in &self.latency {
                writeln!(
                    f,
                    "           {:<9} {:>8} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms",
                    row.outcome,
                    row.count,
                    row.mean_ms,
                    row.p50_ms,
                    row.p95_ms,
                    row.p99_ms,
                    row.p999_ms
                )?;
            }
        }
        if !self.slo.is_empty() {
            writeln!(
                f,
                "  slo      {:<9} {:>9} {:>7} {:>8} {:>6} {:>11} {:>7} {:>8}",
                "outcome", "threshold", "target", "total", "viol", "compliance", "burn", "state"
            )?;
            for row in &self.slo {
                writeln!(
                    f,
                    "           {:<9} {:>7.1}ms {:>6.1}% {:>8} {:>6} {:>10.2}% {:>6.2}x {:>8}",
                    row.outcome,
                    row.threshold_ms,
                    row.target * 100.0,
                    row.total,
                    row.violations,
                    row.compliance * 100.0,
                    row.burn_rate,
                    if row.burning { "BURNING" } else { "ok" }
                )?;
            }
        }
        writeln!(f, "  workers  (busy share of uptime)")?;
        for w in &self.workers {
            writeln!(
                f,
                "    #{:<3} {:>8} requests | busy {:>9.3}s | {:>5.1}%",
                w.index,
                w.requests,
                w.busy_seconds,
                w.utilization * 100.0
            )?;
        }
        // Both drift tables carry the tenant's metered request count so an
        // operator can correlate a flag with traffic share ("-" when the
        // snapshot predates the ledger).
        let reqs = |tenant_requests: Option<u64>| match tenant_requests {
            Some(n) => n.to_string(),
            None => "-".to_owned(),
        };
        if !self.input.is_empty() {
            writeln!(
                f,
                "  input    {:<6} {:<18} {:>5} {:>5} {:>8} {:>8} {:>8} {:>7} {:>5} {:>8} {:>6}",
                "model",
                "fingerprint",
                "k1",
                "k2",
                "band_l1",
                "cv_live",
                "cv_ref",
                "samples",
                "flags",
                "cooldown",
                "reqs"
            )?;
            for row in &self.input {
                writeln!(
                    f,
                    "           {:<6} {:<18} {:>5} {:>5} {:>8.3} {:>8.3} {:>8.3} {:>7} {:>5} {:>8} {:>6}",
                    row.model,
                    row.fingerprint,
                    row.k1,
                    row.k2,
                    row.band_l1,
                    row.live_degree_cv,
                    row.reference_degree_cv,
                    row.samples,
                    row.flags,
                    row.cooldown,
                    reqs(row.tenant_requests)
                )?;
            }
        }
        if self.drift.is_empty() {
            writeln!(f, "  drift    no tracked signatures")?;
        } else {
            writeln!(
                f,
                "  drift    {:<6} {:<18} {:>5} {:>5} {:>9} {:>9} {:>7} {:>5} {:>8} {:>6}",
                "model",
                "fingerprint",
                "k1",
                "k2",
                "ewma",
                "last",
                "samples",
                "flags",
                "cooldown",
                "reqs"
            )?;
            for row in &self.drift {
                writeln!(
                    f,
                    "           {:<6} {:<18} {:>5} {:>5} {:>9.3} {:>9.3} {:>7} {:>5} {:>8} {:>6}",
                    row.model,
                    row.fingerprint,
                    row.k1,
                    row.k2,
                    row.ewma_residual,
                    row.last_residual,
                    row.samples,
                    row.flags,
                    row.cooldown,
                    reqs(row.tenant_requests)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServerStatus {
        ServerStatus {
            uptime_seconds: 12.5,
            queue_depth: 3,
            queue_capacity: 64,
            submitted: 100,
            completed: 95,
            failed: 1,
            shed: 4,
            degraded: 5,
            deadline_expired: 2,
            degraded_rate: 5.0 / 95.0,
            deadline_expired_rate: 2.0 / 95.0,
            drift_flagged: 1,
            input_drift_flagged: 2,
            distinct_signatures: 4.0,
            batching: BatchingStatus {
                max_batch: 8,
                groups: 40,
                batches: 12,
                batched_requests: 60,
                mean_size: 2.4,
                p50_size: 2.0,
                p95_size: 7.0,
            },
            fairness: FairnessStatus {
                tenant_queue_cap: 32,
                tenant_shed: 3,
                tenants: vec![TenantStatus {
                    fingerprint: format!("{:016x}", 0xdead_beef_u64),
                    queued: 2,
                    admitted: 70,
                    shed: 3,
                }],
            },
            workers: vec![WorkerStatus {
                index: 0,
                requests: 95,
                busy_seconds: 9.0,
                utilization: 0.72,
            }],
            cache: CacheStatus {
                hits: 90,
                misses: 6,
                evictions: 1,
                invalidations: 1,
                len: 4,
                capacity: 64,
                hit_rate: 90.0 / 96.0,
            },
            drift: vec![DriftSignatureStatus {
                model: "gcn".to_owned(),
                fingerprint: format!("{:016x}", 0xdead_beef_u64),
                k1: 2048,
                k2: 256,
                ewma_residual: 13.2,
                last_residual: 13.8,
                samples: 7,
                flags: 1,
                cooldown: 30,
                tenant_requests: Some(70),
            }],
            input: vec![InputSignatureStatus {
                model: "gcn".to_owned(),
                fingerprint: format!("{:016x}", 0xdead_beef_u64),
                k1: 2048,
                k2: 256,
                band_l1: 0.31,
                cv_delta: 1.8,
                live_avg_degree: 5.2,
                live_degree_cv: 2.4,
                reference_degree_cv: 0.6,
                samples: 12,
                flags: 2,
                cooldown: 20,
                tenant_requests: Some(70),
            }],
            slo: vec![SloObjectiveStatus {
                outcome: "hit".to_owned(),
                threshold_ms: 100.0,
                target: 0.99,
                total: 90,
                violations: 3,
                compliance: 87.0 / 90.0,
                burn_rate: 3.3,
                burning: true,
                windows_closed: 1,
            }],
            latency: vec![LatencySketchStatus {
                outcome: "hit".to_owned(),
                count: 90,
                mean_ms: 12.0,
                p50_ms: 11.0,
                p95_ms: 29.0,
                p99_ms: 41.0,
                p999_ms: 55.0,
            }],
            recorder: RecorderStatus {
                capacity: 4096,
                written: 321,
                dropped: 2,
                incidents: 1,
                suppressed: 3,
                incident_io_errors: 2,
                last_trigger: "slo_burn".to_owned(),
            },
            metering: MeteringStatus {
                total_requests: 95,
                total_charged_ms: 123.456,
                total_flops: 9.0e9,
                total_bytes: 4.5e9,
                total_sheds: 4,
                total_slo_violations: 3,
                tenants: vec![TenantMeterStatus {
                    fingerprint: hex_fp(0xdead_beef),
                    requests: 70,
                    batched_requests: 60,
                    charged_ms: 100.25,
                    flops: 7.0e9,
                    bytes: 3.5e9,
                    mean_queue_wait_ms: 0.08,
                    mean_batch_share: 0.42,
                    hit_rate: 0.938,
                    sheds: 3,
                    degraded: 5,
                    slo_violations: 1,
                }],
            },
        }
    }

    #[test]
    fn status_round_trips_through_json() {
        let status = sample();
        let parsed = ServerStatus::from_json(&status.to_json()).unwrap();
        assert_eq!(parsed.queue_depth, 3);
        assert_eq!(parsed.drift_flagged, 1);
        assert_eq!(parsed.workers.len(), 1);
        assert_eq!(parsed.workers[0].requests, 95);
        assert_eq!(parsed.cache.invalidations, 1);
        assert_eq!(parsed.drift.len(), 1);
        // Hex-string fingerprints survive exactly (the reason they are not
        // JSON numbers: the JSON layer is f64-backed).
        assert_eq!(
            parsed.drift[0].fingerprint,
            format!("{:016x}", 0xdead_beef_u64)
        );
        assert!((parsed.drift[0].ewma_residual - 13.2).abs() < 1e-12);
        assert_eq!(parsed.input_drift_flagged, 2);
        assert_eq!(parsed.input.len(), 1);
        assert!((parsed.input[0].band_l1 - 0.31).abs() < 1e-12);
        assert_eq!(parsed.input[0].flags, 2);
        assert_eq!(parsed.slo.len(), 1);
        assert_eq!(parsed.slo[0].outcome, "hit");
        assert!(parsed.slo[0].burning);
        assert_eq!(parsed.latency.len(), 1);
        assert!((parsed.latency[0].p999_ms - 55.0).abs() < 1e-12);
        assert!((parsed.distinct_signatures - 4.0).abs() < 1e-12);
        assert_eq!(parsed.batching.max_batch, 8);
        assert_eq!(parsed.batching.batches, 12);
        assert_eq!(parsed.batching.batched_requests, 60);
        assert_eq!(parsed.fairness.tenant_queue_cap, 32);
        assert_eq!(parsed.fairness.tenants.len(), 1);
        assert_eq!(parsed.fairness.tenants[0].admitted, 70);
        assert_eq!(parsed.recorder.written, 321);
        assert_eq!(parsed.recorder.incidents, 1);
        assert_eq!(parsed.recorder.incident_io_errors, 2);
        assert_eq!(parsed.recorder.last_trigger, "slo_burn");
        assert_eq!(parsed.drift[0].tenant_requests, Some(70));
        assert_eq!(parsed.input[0].tenant_requests, Some(70));
        assert_eq!(parsed.metering.total_requests, 95);
        assert!((parsed.metering.total_charged_ms - 123.456).abs() < 1e-9);
        assert_eq!(parsed.metering.tenants.len(), 1);
        assert_eq!(parsed.metering.tenants[0].requests, 70);
        assert_eq!(
            parsed.metering.tenants[0].fingerprint,
            format!("{:016x}", 0xdead_beef_u64)
        );
        assert!((parsed.metering.tenants[0].mean_batch_share - 0.42).abs() < 1e-12);
        assert_eq!(parsed.metering.tenants[0].slo_violations, 1);
        // Readers parse what the same build wrote: a snapshot missing a
        // section is rejected, not defaulted.
        for section in ["batching", "fairness", "recorder", "metering"] {
            let mut json = serde::Serialize::serialize(&status);
            if let serde::Value::Object(m) = &mut json {
                assert!(m.remove(section).is_some(), "{section} serialized");
            }
            let err = <ServerStatus as serde::Deserialize>::deserialize(&json)
                .expect_err("a snapshot without a section does not parse");
            assert!(err.to_string().contains(section), "{section}: {err}");
        }
    }

    #[test]
    fn prometheus_rendering_of_the_fixture_is_pinned() {
        // Byte-for-byte: `/metrics` is read by external scrapers, so a
        // change to any family, label, help text or value format shows here.
        assert_eq!(
            crate::scrape::render_prometheus(&sample()),
            include_str!("../tests/data/status_fixture.prom")
        );
    }

    #[test]
    fn display_renders_key_lines() {
        let text = sample().to_string();
        assert!(text.contains("granii-serve status"));
        assert!(text.contains("drift flags 1"));
        assert!(text.contains("input-drift flags 2"));
        assert!(text.contains("invalidations 1"));
        assert!(text.contains("gcn"));
        assert!(text.contains(&format!("{:016x}", 0xdead_beef_u64)));
        assert!(text.contains("distinct signatures"));
        assert!(text.contains("p999"));
        assert!(text.contains("BURNING"));
        assert!(text.contains("cv_live"));
        assert!(text.contains("batching max 8"));
        assert!(text.contains("tenant cap 32"));
        assert!(text.contains("recorder 321 written"));
        assert!(text.contains("last slo_burn"));
        assert!(text.contains("metering 95 requests"));
        assert!(text.contains("top tenant"));
        assert!(text.contains("slo violations 3"));
        // The drift and input tables carry the metered request count.
        assert!(text.contains("reqs"));
    }
}
