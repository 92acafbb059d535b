//! The metrics snapshot: a point-in-time copy of one owner's counters,
//! gauges, quantile sketches and distinct-count estimates.
//!
//! This crate keeps no metric of its own. An instance that holds numbers
//! (a serving runtime, say) fills a snapshot from its own books, and
//! [`crate::export::metrics_json`] renders it.

use crate::sketch::{DistinctSnapshot, SketchSnapshot};

/// Point-in-time copy of one owner's metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic capture timestamp: nanoseconds since the process trace
    /// epoch. Strictly increasing across successive snapshots, so two dumps
    /// from a long-running server can be ordered and rate-diffed.
    pub captured_at_ns: u64,
    /// Nanoseconds since the owner started (for a server, its uptime),
    /// measured on a monotonic clock.
    pub uptime_ns: u64,
    /// Counter name → accumulated value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → last set value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Quantile sketches, sorted by name.
    pub sketches: Vec<SketchSnapshot>,
    /// Distinct-count estimates, sorted by name.
    pub distincts: Vec<DistinctSnapshot>,
}
