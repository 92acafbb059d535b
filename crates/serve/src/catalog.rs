//! The instrument catalog: every number a [`crate::Server`] exports,
//! declared once.
//!
//! A server keeps its numbers in its own books (atomic counters, the plan
//! cache, the tenant ledger, the SLO monitor, the sketches) and gathers
//! them into one [`ServerStatus`]. Each [`Family`] in [`CATALOG`] declares
//! one instrument, or one family of labeled rows, and how to read it from
//! that status. The exported views are loops over the table:
//!
//! - `/metrics` ([`crate::render_prometheus`]): every family with a
//!   Prometheus name, in table order;
//! - the on-host timeline: one column per dotted name, sampled each tick;
//! - [`crate::Server::metrics_snapshot`], which `--metrics-out` writes:
//!   counters, gauges and distinct estimates under their dotted names, next
//!   to the server's own latency and batch-size sketches.
//!
//! No view can disagree with another, or with the status JSON: each reads
//! the same snapshot through the same reader. A new number is a new row.

use std::fmt::Write as _;

use granii_telemetry::{DistinctSnapshot, MetricsSnapshot, SampleKind, SketchSnapshot};

use crate::status::{ServerStatus, SloObjectiveStatus, TenantMeterStatus, WorkerStatus};

/// Stem of the per-outcome latency sketches (`serve.latency.hit`, ...).
pub(crate) const LATENCY: &str = "serve.latency";

/// Name of the batch-group size sketch.
pub(crate) const BATCH_SIZE: &str = "serve.batch.size";

/// How an instrument's value behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A monotone count: a Prometheus `counter`, a timeline column read as
    /// deltas and rates, an integer under `counters`.
    Counter,
    /// A monotone total with a fraction (engine-charged milliseconds): a
    /// counter on `/metrics` and in the timeline, but a gauge in
    /// `--metrics-out`, whose counters are integers.
    Total,
    /// A point-in-time reading.
    Gauge,
    /// A gauge that estimates a count of distinct keys; `--metrics-out`
    /// lists it under `distinct`.
    Distinct,
    /// Sketch quantiles with `_sum` and `_count`. The timeline and the
    /// gauges carry each row's p95; `--metrics-out` carries the sketch.
    Summary,
}

impl Kind {
    /// The Prometheus `# TYPE`.
    pub(crate) fn prometheus(self) -> &'static str {
        match self {
            Kind::Counter | Kind::Total => "counter",
            Kind::Gauge | Kind::Distinct => "gauge",
            Kind::Summary => "summary",
        }
    }

    /// The kind of the instrument's timeline column.
    pub(crate) fn sample_kind(self) -> SampleKind {
        match self {
            Kind::Counter | Kind::Total => SampleKind::Counter,
            Kind::Gauge | Kind::Distinct | Kind::Summary => SampleKind::Gauge,
        }
    }
}

/// A labeled server-wide value: its dotted name, its label value, and its
/// reader.
pub(crate) type Scalar = (&'static str, &'static str, fn(&ServerStatus) -> f64);

/// Where a family's samples come from. In the per-worker, per-objective
/// and per-tenant variants the first field is the dotted stem of the rows'
/// timeline columns and `--metrics-out` keys; `""` scrapes the rows only.
pub(crate) enum Rows {
    /// One unlabeled server-wide value: its dotted name and reader.
    Scalar(&'static str, fn(&ServerStatus) -> f64),
    /// Server-wide values labeled `{key}="{value}"`: the key, then each
    /// value's dotted name, label value and reader.
    Scalars(&'static str, &'static [Scalar]),
    /// One sample per worker, labeled `worker`; columns `{stem}.{index}`.
    Workers(&'static str, fn(&WorkerStatus) -> f64),
    /// One sample per SLO objective, labeled `outcome`; columns
    /// `{stem}.{outcome}`.
    Objectives(&'static str, fn(&SloObjectiveStatus) -> f64),
    /// One sample per metered tenant, labeled `tenant` (its fingerprint);
    /// columns `tenant.{fingerprint}.{stem}`.
    Tenants(&'static str, fn(&TenantMeterStatus) -> f64),
    /// The per-outcome latency sketches (milliseconds), labeled `outcome`;
    /// columns `serve.latency.{outcome}.p95_ms`.
    Latency,
    /// The batch-group size sketch; column `serve.batch.size.p95`.
    BatchSize,
}

/// One instrument family.
pub(crate) struct Family {
    /// Prometheus family name; `""` keeps the family out of `/metrics`,
    /// whose exposition is pinned by a golden test.
    pub(crate) prometheus: &'static str,
    pub(crate) kind: Kind,
    /// The `# HELP` text.
    pub(crate) help: &'static str,
    pub(crate) rows: Rows,
}

/// Every exported instrument, in `/metrics` order.
pub(crate) const CATALOG: &[Family] = &[
    Family {
        prometheus: "granii_serve_uptime_seconds",
        kind: Kind::Gauge,
        help: "Seconds since the server started.",
        rows: Rows::Scalar("serve.uptime_seconds", |s| s.uptime_seconds),
    },
    Family {
        prometheus: "granii_serve_requests_total",
        kind: Kind::Counter,
        help: "Requests by lifecycle state.",
        rows: Rows::Scalars(
            "state",
            &[
                ("serve.submitted", "submitted", |s| s.submitted as f64),
                ("serve.completed", "completed", |s| s.completed as f64),
                ("serve.failed", "failed", |s| s.failed as f64),
                ("serve.shed", "shed", |s| s.shed as f64),
                ("serve.degraded", "degraded", |s| s.degraded as f64),
                ("serve.deadline_expired", "deadline_expired", |s| {
                    s.deadline_expired as f64
                }),
            ],
        ),
    },
    Family {
        prometheus: "",
        kind: Kind::Counter,
        help: "Requests shed by the per-tenant fairness bound (part of serve.shed).",
        rows: Rows::Scalar("serve.tenant_shed", |s| s.fairness.tenant_shed as f64),
    },
    Family {
        prometheus: "granii_serve_queue_depth",
        kind: Kind::Gauge,
        help: "Requests currently queued.",
        rows: Rows::Scalar("serve.queue_depth", |s| s.queue_depth as f64),
    },
    Family {
        prometheus: "granii_serve_queue_capacity",
        kind: Kind::Gauge,
        help: "Configured admission queue bound.",
        rows: Rows::Scalar("serve.queue_capacity", |s| s.queue_capacity as f64),
    },
    Family {
        prometheus: "granii_serve_cache_lookups_total",
        kind: Kind::Counter,
        help: "Plan-cache lookups by result.",
        rows: Rows::Scalars(
            "result",
            &[
                ("serve.cache_hits", "hit", |s| s.cache.hits as f64),
                ("serve.cache_misses", "miss", |s| s.cache.misses as f64),
            ],
        ),
    },
    Family {
        prometheus: "granii_serve_cache_evictions_total",
        kind: Kind::Counter,
        help: "Plan-cache entries dropped by LRU pressure.",
        rows: Rows::Scalar("serve.cache_evictions", |s| s.cache.evictions as f64),
    },
    Family {
        prometheus: "granii_serve_cache_invalidations_total",
        kind: Kind::Counter,
        help: "Plan-cache entries dropped by drift flags or model swaps.",
        rows: Rows::Scalar("serve.cache_invalidations", |s| {
            s.cache.invalidations as f64
        }),
    },
    Family {
        prometheus: "granii_serve_cache_entries",
        kind: Kind::Gauge,
        help: "Bound plans currently cached.",
        rows: Rows::Scalar("serve.cache_entries", |s| s.cache.len as f64),
    },
    Family {
        prometheus: "",
        kind: Kind::Gauge,
        help: "Plan-cache hit fraction over all lookups.",
        rows: Rows::Scalar("serve.cache_hit_rate", |s| s.cache.hit_rate),
    },
    Family {
        prometheus: "granii_serve_distinct_signatures",
        kind: Kind::Distinct,
        help: "Estimated distinct plan signatures served (HyperLogLog).",
        rows: Rows::Scalar("serve.distinct_signatures", |s| s.distinct_signatures),
    },
    Family {
        prometheus: "granii_serve_drift_flags_total",
        kind: Kind::Counter,
        help: "Signature flags by drift lane.",
        rows: Rows::Scalars(
            "lane",
            &[
                ("serve.drift_flagged", "cost_model", |s| {
                    s.drift_flagged as f64
                }),
                ("serve.input_drift_flagged", "input", |s| {
                    s.input_drift_flagged as f64
                }),
            ],
        ),
    },
    Family {
        prometheus: "granii_serve_worker_utilization",
        kind: Kind::Gauge,
        help: "Busy share of uptime per worker.",
        rows: Rows::Workers("serve.worker_utilization", |w| w.utilization),
    },
    Family {
        prometheus: "granii_serve_latency_ms",
        kind: Kind::Summary,
        help: "Request latency quantiles (milliseconds) by outcome.",
        rows: Rows::Latency,
    },
    Family {
        prometheus: "granii_serve_batch_size",
        kind: Kind::Summary,
        help: "Coalesced batch-group size quantiles.",
        rows: Rows::BatchSize,
    },
    Family {
        prometheus: "",
        kind: Kind::Counter,
        help: "Batch groups of two or more executed as one multi-RHS iterate.",
        rows: Rows::Scalar("serve.batches", |s| s.batching.batches as f64),
    },
    Family {
        prometheus: "",
        kind: Kind::Counter,
        help: "Requests served inside batch groups of two or more.",
        rows: Rows::Scalar("serve.batched_requests", |s| {
            s.batching.batched_requests as f64
        }),
    },
    Family {
        prometheus: "granii_serve_slo_violations_total",
        kind: Kind::Counter,
        help: "Requests over their SLO threshold by outcome.",
        rows: Rows::Objectives("", |o| o.violations as f64),
    },
    Family {
        prometheus: "granii_serve_slo_burn_rate",
        kind: Kind::Gauge,
        help: "Burn rate of the most recently closed SLO window by outcome.",
        rows: Rows::Objectives("serve.slo.burn", |o| o.burn_rate),
    },
    Family {
        prometheus: "granii_serve_slo_burning",
        kind: Kind::Gauge,
        help: "Whether the objective's last window was at or above the alert burn (0/1).",
        rows: Rows::Objectives("", |o| if o.burning { 1.0 } else { 0.0 }),
    },
    Family {
        prometheus: "granii_serve_recorder_records_total",
        kind: Kind::Counter,
        help: "Flight-recorder records written and dropped.",
        rows: Rows::Scalars(
            "state",
            &[
                ("serve.recorder.written", "written", |s| {
                    s.recorder.written as f64
                }),
                ("serve.recorder.dropped", "dropped", |s| {
                    s.recorder.dropped as f64
                }),
            ],
        ),
    },
    Family {
        prometheus: "granii_serve_incidents_total",
        kind: Kind::Counter,
        help: "Incident bundles captured and triggers suppressed.",
        rows: Rows::Scalars(
            "state",
            &[
                ("serve.incidents", "captured", |s| {
                    s.recorder.incidents as f64
                }),
                ("serve.incidents_suppressed", "suppressed", |s| {
                    s.recorder.suppressed as f64
                }),
            ],
        ),
    },
    Family {
        prometheus: "granii_serve_incident_io_errors_total",
        kind: Kind::Counter,
        help: "Incident bundles that could not be written to the incident directory.",
        rows: Rows::Scalar("serve.incident.io_error", |s| {
            s.recorder.incident_io_errors as f64
        }),
    },
    Family {
        prometheus: "",
        kind: Kind::Total,
        help: "Engine-charged milliseconds over every tenant.",
        rows: Rows::Scalar("serve.charged_ms", |s| s.metering.total_charged_ms),
    },
    // Per-tenant series from the metering ledger, labeled with the hex
    // fingerprint: the "which tenant is burning the budget" answer.
    Family {
        prometheus: "granii_serve_tenant_requests_total",
        kind: Kind::Counter,
        help: "Completed requests per tenant fingerprint.",
        rows: Rows::Tenants("requests", |t| t.requests as f64),
    },
    Family {
        prometheus: "granii_serve_tenant_charged_ms_total",
        kind: Kind::Total,
        help: "Engine-charged milliseconds attributed per tenant.",
        rows: Rows::Tenants("charged_ms", |t| t.charged_ms),
    },
    Family {
        prometheus: "granii_serve_tenant_flops_total",
        kind: Kind::Counter,
        help: "Floating-point operations attributed per tenant.",
        rows: Rows::Tenants("", |t| t.flops),
    },
    Family {
        prometheus: "granii_serve_tenant_bytes_total",
        kind: Kind::Counter,
        help: "Bytes (read + written) attributed per tenant.",
        rows: Rows::Tenants("", |t| t.bytes),
    },
    Family {
        prometheus: "granii_serve_tenant_sheds_total",
        kind: Kind::Counter,
        help: "Requests shed before execution per tenant.",
        rows: Rows::Tenants("", |t| t.sheds as f64),
    },
    Family {
        prometheus: "granii_serve_tenant_slo_violations_total",
        kind: Kind::Counter,
        help: "SLO-threshold violations per tenant.",
        rows: Rows::Tenants("", |t| t.slo_violations as f64),
    },
    Family {
        prometheus: "granii_serve_tenant_batch_share",
        kind: Kind::Gauge,
        help: "Mean fraction of an execute occupied per request, per tenant (1 = serial).",
        rows: Rows::Tenants("", |t| t.mean_batch_share),
    },
    Family {
        prometheus: "granii_serve_tenant_hit_rate",
        kind: Kind::Gauge,
        help: "Plan-cache hit rate per tenant.",
        rows: Rows::Tenants("", |t| t.hit_rate),
    },
    Family {
        prometheus: "granii_serve_tenant_queue_wait_ms",
        kind: Kind::Gauge,
        help: "Mean queue wait per completed request, per tenant (milliseconds).",
        rows: Rows::Tenants("", |t| t.mean_queue_wait_ms),
    },
];

/// Calls `f` with the dotted name, kind and value of every series that has
/// one, in catalog order: the timeline's columns and the `--metrics-out`
/// keys.
pub(crate) fn for_each_series(status: &ServerStatus, mut f: impl FnMut(&str, Kind, f64)) {
    let mut name = String::new();
    for family in CATALOG {
        let kind = family.kind;
        let mut emit = |args: std::fmt::Arguments<'_>, kind: Kind, value: f64| {
            name.clear();
            let _ = name.write_fmt(args);
            f(&name, kind, value);
        };
        match family.rows {
            Rows::Scalar(dotted, read) => emit(format_args!("{dotted}"), kind, read(status)),
            Rows::Scalars(_, scalars) => {
                for &(dotted, _, read) in scalars {
                    emit(format_args!("{dotted}"), kind, read(status));
                }
            }
            Rows::Workers("", _) | Rows::Objectives("", _) | Rows::Tenants("", _) => {}
            Rows::Workers(stem, read) => {
                for w in &status.workers {
                    emit(format_args!("{stem}.{}", w.index), kind, read(w));
                }
            }
            Rows::Objectives(stem, read) => {
                for row in &status.slo {
                    emit(format_args!("{stem}.{}", row.outcome), kind, read(row));
                }
            }
            Rows::Tenants(stem, read) => {
                for t in &status.metering.tenants {
                    emit(
                        format_args!("tenant.{}.{stem}", t.fingerprint),
                        kind,
                        read(t),
                    );
                }
            }
            Rows::Latency => {
                for row in &status.latency {
                    let name = format_args!("{LATENCY}.{}.p95_ms", row.outcome);
                    emit(name, Kind::Gauge, row.p95_ms);
                }
            }
            Rows::BatchSize => {
                let p95 = status.batching.p95_size;
                emit(format_args!("{BATCH_SIZE}.p95"), Kind::Gauge, p95);
            }
        }
    }
}

/// The `--metrics-out` view of one status: every dotted series, sorted by
/// name, plus the server's own `sketches`.
pub(crate) fn metrics(status: &ServerStatus, mut sketches: Vec<SketchSnapshot>) -> MetricsSnapshot {
    let mut snapshot = MetricsSnapshot {
        captured_at_ns: granii_telemetry::now_us().saturating_mul(1_000),
        uptime_ns: (status.uptime_seconds * 1e9) as u64,
        ..MetricsSnapshot::default()
    };
    for_each_series(status, |name, kind, value| {
        let name = name.to_owned();
        match kind {
            Kind::Counter => snapshot.counters.push((name, value as u64)),
            Kind::Total | Kind::Gauge | Kind::Summary => snapshot.gauges.push((name, value)),
            Kind::Distinct => snapshot.distincts.push(DistinctSnapshot {
                name,
                estimate: value,
            }),
        }
    });
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    sketches.sort_by(|a, b| a.name.cmp(&b.name));
    snapshot.sketches = sketches;
    snapshot
}
