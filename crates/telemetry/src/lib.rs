//! Structured tracing for the GRANII stack.
//!
//! The paper's central overhead claim (§VI-C1: selection costs "at most 7 ms
//! on GPU, 0.42 s on CPU, incurred only once") and its per-primitive
//! breakdowns (Fig 2) are only auditable if every kernel dispatch,
//! featurization, selection, and training step is visible. This crate is the
//! dependency-free observability layer the rest of the workspace reports
//! through. Only spans are process-global; every number and every event
//! lives in the instance that spent or saw it (an engine's `Profile`, a
//! `Selection`, a server's books and flight recorder), and this crate
//! supplies the types and renderers those instances share:
//!
//! - **Spans** ([`span()`], [`span!`]): nestable RAII regions recording wall
//!   time, thread id, nesting depth, and key/value attributes into per-thread
//!   buffers (each thread appends to its own mutex — only the collector ever
//!   contends).
//! - **Sketches** ([`Sketch`], [`DistinctCounter`]): mergeable bounded-
//!   relative-error quantile sketches (for SLO-grade p99/p999) and a
//!   distinct-count estimator for unique request fingerprints, owned by
//!   whoever records into them.
//! - **Time series** ([`timeseries`], [`TimeSeriesRing`], [`start_sampler`]):
//!   a fixed-capacity on-host ring of periodic raw samples (counters,
//!   gauges, sketch quantiles) — the continuous timeline snapshots and
//!   post-mortems both lack.
//! - **Exporters** ([`export::chrome_trace`], [`export::metrics_json`],
//!   [`export::summary`]): Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`), a flat JSON dump of a [`MetricsSnapshot`], and a
//!   human-readable hierarchical span summary.
//!
//! Telemetry is **off by default** and costs one relaxed atomic load per
//! instrumentation point when disabled: [`span()`] returns an inert guard and
//! the [`span!`] macro does not even evaluate its attribute expressions.
//!
//! # Example
//!
//! ```
//! granii_telemetry::enable();
//! {
//!     let _outer = granii_telemetry::span!("layer", k_in = 64u64);
//!     let _inner = granii_telemetry::span!("kernel.spmm", edges = 1024u64);
//! }
//! let spans = granii_telemetry::take_spans();
//! assert_eq!(spans.len(), 2);
//! let trace = granii_telemetry::export::chrome_trace(&spans);
//! assert!(trace.starts_with('['));
//! granii_telemetry::disable();
//! ```

pub mod export;
mod metrics;
mod profile;
pub mod sketch;
mod span;
pub mod timeseries;

pub use metrics::MetricsSnapshot;
pub use profile::{ProfileReport, ProfileRow};
pub use sketch::{DistinctCounter, DistinctSnapshot, Sketch, SketchSnapshot, DEFAULT_SKETCH_ALPHA};
pub use span::{now_ns, now_us, record_span, span, take_spans, AttrValue, SpanGuard, SpanRecord};
pub use timeseries::{
    start_sampler, ColumnId, ColumnSeries, SampleKind, SamplerHandle, TimeSeriesRing,
    TimeSeriesSnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry on: subsequent spans are recorded.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns telemetry off: instrumentation points become single-atomic-load
/// no-ops. Already-recorded data is kept until [`take_spans`] / [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether telemetry is currently recording.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded spans (the enabled flag is untouched).
pub fn reset() {
    span::clear_spans();
}

/// Opens a span with optional `key = value` attributes.
///
/// Attribute expressions are only evaluated when telemetry is enabled, so a
/// disabled call site costs one atomic load. Values may be any type
/// convertible to [`AttrValue`] (`u64`/`usize`/`f64`/`&str`/`String`).
///
/// ```
/// granii_telemetry::enable();
/// let _s = granii_telemetry::span!("spmm", edges = 4096u64, irregularity = 0.7);
/// granii_telemetry::disable();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut guard = $crate::span($name);
        if guard.is_recording() {
            $(guard.attr(stringify!($key), $value);)+
        }
        guard
    }};
}
