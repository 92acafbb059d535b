//! Request-scoped tracing: per-request lanes in the Chrome trace.
//!
//! Worker-thread spans interleave requests, which makes "where did request
//! 4217 spend its 31 ms" unanswerable from thread lanes alone. Instead, a
//! 1-in-N sampled request carries a [`RequestTrace`] — a fixed-size stage
//! stopwatch — through the queue, cache lookup, selection, and execution.
//! At completion the worker converts it into synthetic
//! [`granii_telemetry::SpanRecord`]s on a **virtual thread id**
//! (`TRACE_LANE_BASE + request id`), so the existing Chrome-trace exporter
//! renders each sampled request as its own lane with no exporter changes:
//! a `serve.req` root spanning submit→complete, with `serve.req.queue`,
//! `serve.req.select`, and `serve.req.execute` children.
//!
//! Unsampled requests carry `None` and allocate nothing: sampling is decided
//! at `submit` with one modulo on the request id, and every stage mark is a
//! field store into the pre-allocated box.
//!
//! **Batch-causal tracing**: continuous batching executes a sampled request
//! inside a signature-keyed group, so its `execute` stage measures *shared*
//! work. To keep the causality visible, the worker emits one `serve.batch`
//! span per executed group on a dedicated lane ([`BATCH_TRACE_LANE`])
//! carrying the group signature and member request ids, and a sampled
//! member's `serve.req.execute` child links back via `batch_group` /
//! `batch_size` attributes — the reader can pivot from a slow request lane
//! to the exact batch that carried it.

use granii_telemetry::{AttrValue, SpanRecord};

/// Virtual-tid base for per-request lanes. Real thread ids are small
/// sequential integers, so lanes starting here cannot collide with them.
pub const TRACE_LANE_BASE: u64 = 10_000;

/// Virtual tid of the batch lane: every `serve.batch` span lands here, just
/// below the per-request lanes so the exporter sorts it adjacent to them.
pub const BATCH_TRACE_LANE: u64 = 9_999;

/// Emits one `serve.batch` span on [`BATCH_TRACE_LANE`] for an executed
/// group: the group signature (hex), size, and the member request ids a
/// sampled member's `batch_group` attribute pivots to. No-op when telemetry
/// is disabled. `seq` must be unique per emitted batch (the server passes a
/// monotone group counter) so simultaneous groups from different workers
/// stay distinct rows in the exporter.
pub fn record_batch_span(
    group_fingerprint: u64,
    model: &'static str,
    members: &[u64],
    start_us: u64,
    dur_us: u64,
    seq: u64,
) {
    if !granii_telemetry::enabled() {
        return;
    }
    let mut attrs = vec![
        ("group", AttrValue::Str(format!("{group_fingerprint:016x}"))),
        ("model", AttrValue::Str(model.to_owned())),
        ("size", AttrValue::U64(members.len() as u64)),
    ];
    for &id in members {
        attrs.push(("member", AttrValue::U64(id)));
    }
    granii_telemetry::record_span(SpanRecord {
        name: "serve.batch",
        start_us,
        dur_us,
        tid: BATCH_TRACE_LANE,
        depth: 0,
        seq,
        attrs,
    });
}

#[derive(Debug, Clone, Copy, Default)]
struct Stage {
    start_us: u64,
    dur_us: u64,
    set: bool,
}

/// Stage stopwatch for one sampled request. Created at `submit`; every mark
/// is alloc-free. Boxed into the job so the unsampled path stays a single
/// `Option` niche.
#[derive(Debug)]
pub struct RequestTrace {
    request_id: u64,
    submit_us: u64,
    queue: Stage,
    select: Stage,
    execute: Stage,
    batch_group: u64,
    batch_size: u64,
}

impl RequestTrace {
    /// Starts the stopwatch at submit time.
    pub fn new(request_id: u64) -> Self {
        RequestTrace {
            request_id,
            submit_us: granii_telemetry::now_us(),
            queue: Stage::default(),
            select: Stage::default(),
            execute: Stage::default(),
            batch_group: 0,
            batch_size: 0,
        }
    }

    /// The id this trace belongs to.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Marks the request leaving the queue: the queue stage is
    /// submit→now.
    pub fn mark_dequeued(&mut self) {
        let now = granii_telemetry::now_us();
        self.queue = Stage {
            start_us: self.submit_us,
            dur_us: now.saturating_sub(self.submit_us),
            set: true,
        };
    }

    /// Marks the start of selection (cache-miss path only).
    pub fn mark_select_start(&mut self) {
        self.select.start_us = granii_telemetry::now_us();
    }

    /// Marks the end of selection.
    pub fn mark_select_done(&mut self) {
        let now = granii_telemetry::now_us();
        self.select.dur_us = now.saturating_sub(self.select.start_us);
        self.select.set = true;
    }

    /// Marks the start of plan execution.
    pub fn mark_execute_start(&mut self) {
        self.execute.start_us = granii_telemetry::now_us();
    }

    /// Marks the end of plan execution.
    pub fn mark_execute_done(&mut self) {
        let now = granii_telemetry::now_us();
        self.execute.dur_us = now.saturating_sub(self.execute.start_us);
        self.execute.set = true;
    }

    /// Records which batch group carried this request: the execute child
    /// span links to the matching `serve.batch` span via these attributes.
    pub fn set_batch(&mut self, group_fingerprint: u64, size: u64) {
        self.batch_group = group_fingerprint;
        self.batch_size = size;
    }

    /// Emits the request's lane: a root span plus one child per stage that
    /// ran, on virtual tid `TRACE_LANE_BASE + request_id`. Called once, at
    /// request completion, by the worker.
    pub fn finish(self, model: &'static str, cache_hit: bool, degraded: bool) {
        let end_us = granii_telemetry::now_us();
        let tid = TRACE_LANE_BASE + self.request_id;
        let mut seq = 0u64;
        granii_telemetry::record_span(SpanRecord {
            name: "serve.req",
            start_us: self.submit_us,
            dur_us: end_us.saturating_sub(self.submit_us),
            tid,
            depth: 0,
            seq,
            attrs: vec![
                ("request_id", AttrValue::U64(self.request_id)),
                ("model", AttrValue::Str(model.to_owned())),
                ("cache_hit", AttrValue::U64(u64::from(cache_hit))),
                ("degraded", AttrValue::U64(u64::from(degraded))),
            ],
        });
        for (name, stage) in [
            ("serve.req.queue", self.queue),
            ("serve.req.select", self.select),
            ("serve.req.execute", self.execute),
        ] {
            if !stage.set {
                continue;
            }
            seq += 1;
            // The execute child links to the group's `serve.batch` span on
            // BATCH_TRACE_LANE (match on the `group` attribute there).
            let attrs = if name == "serve.req.execute" && self.batch_size > 0 {
                vec![
                    (
                        "batch_group",
                        AttrValue::Str(format!("{:016x}", self.batch_group)),
                    ),
                    ("batch_size", AttrValue::U64(self.batch_size)),
                ]
            } else {
                Vec::new()
            };
            granii_telemetry::record_span(SpanRecord {
                name,
                start_us: stage.start_us,
                dur_us: stage.dur_us,
                tid,
                depth: 1,
                seq,
                attrs,
            });
        }
    }
}

/// Whether request `id` should carry a trace: telemetry must be recording
/// and the request must be the first (id 1) or every `sample_every`-th
/// after it (`0` disables sampling entirely).
pub fn sampled(id: u64, sample_every: u64) -> bool {
    granii_telemetry::enabled()
        && sample_every > 0
        && id.saturating_sub(1).is_multiple_of(sample_every)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_span_lands_on_the_batch_lane_with_members() {
        granii_telemetry::enable();
        let group = 0xb47c_1234_5678_9abc_u64;
        record_batch_span(group, "gcn", &[3, 7, 11], 100, 250, 42);
        let spans = granii_telemetry::take_spans();
        let span = spans
            .iter()
            .find(|s| {
                s.name == "serve.batch"
                    && s.attrs.iter().any(|(k, v)| {
                        *k == "group"
                            && matches!(v, AttrValue::Str(g) if *g == format!("{group:016x}"))
                    })
            })
            .expect("batch span recorded");
        assert_eq!(span.tid, BATCH_TRACE_LANE);
        let members: Vec<u64> = span
            .attrs
            .iter()
            .filter_map(|(k, v)| match (k, v) {
                (&"member", AttrValue::U64(id)) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(members, vec![3, 7, 11]);
        granii_telemetry::disable();
    }

    #[test]
    fn execute_child_carries_batch_link_when_set() {
        granii_telemetry::enable();
        let mut trace = RequestTrace::new(777_001);
        trace.mark_execute_start();
        trace.mark_execute_done();
        trace.set_batch(0xabcd, 4);
        trace.finish("gcn", true, false);
        let spans = granii_telemetry::take_spans();
        let exec = spans
            .iter()
            .find(|s| s.name == "serve.req.execute" && s.tid == TRACE_LANE_BASE + 777_001)
            .expect("execute child recorded");
        assert!(exec.attrs.iter().any(|(k, v)| {
            *k == "batch_group"
                && matches!(v, AttrValue::Str(g) if *g == format!("{:016x}", 0xabcdu64))
        }));
        assert!(exec
            .attrs
            .iter()
            .any(|(k, v)| *k == "batch_size" && matches!(v, AttrValue::U64(4))));
        granii_telemetry::disable();
    }

    #[test]
    fn sampling_gate_honors_rate_and_enable() {
        granii_telemetry::disable();
        assert!(!sampled(1, 1), "disabled telemetry never samples");
        granii_telemetry::enable();
        assert!(sampled(1, 4), "the first request is sampled");
        assert!(!sampled(2, 4));
        assert!(sampled(9, 4));
        assert!(!sampled(9, 0), "rate 0 disables sampling");
        granii_telemetry::disable();
    }
}
