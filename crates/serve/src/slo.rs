//! Declarative latency SLOs with error-budget burn-rate monitoring.
//!
//! An objective says "`target` of `outcome` requests finish within
//! `threshold_ms`" — e.g. 99% of cache hits under 100 ms. The interesting
//! operational quantity is not the instantaneous compliance but the **burn
//! rate**: the ratio of the observed violation fraction to the budgeted one
//! (`1 − target`). Burn 1.0 spends the error budget exactly as provisioned;
//! burn 2.0 exhausts a 30-day budget in 15 days; sustained burn above the
//! alert threshold is the page-worthy signal (the standard SRE
//! multi-window-burn formulation, collapsed to one tumbling window here).
//!
//! The monitor keeps exact per-objective violation counters fed on the
//! request completion path (two relaxed atomic adds — nothing the
//! steady-state zero-alloc contract can see) and closes a tumbling window
//! every `window` requests per objective: the window's burn rate becomes
//! the objective's current reading, crossing the alert threshold upward
//! writes a `slo_burn` flight record, and recovering below it writes
//! `slo_recover`. Long-run quantiles for the same outcomes come from
//! the latency sketches ([`granii_telemetry::Sketch`]) the server records
//! next to these counters — the sketches answer "what *is* the p999", the
//! budget counters answer "are we violating what we *promised*".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Request outcome classes, mirroring the outcome-split latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from a cached bound plan.
    Hit,
    /// Selected and bound a fresh plan.
    Miss,
    /// Fell back to the default composition.
    Degraded,
}

impl Outcome {
    /// Every outcome, in declaration order (the discriminants index it).
    pub const ALL: [Outcome; 3] = [Outcome::Hit, Outcome::Miss, Outcome::Degraded];

    /// Stable lowercase name (metric suffixes, status rows).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Degraded => "degraded",
        }
    }
}

/// One latency objective: `target` fraction of `outcome` requests must
/// finish within `threshold_ms`.
#[derive(Debug, Clone, Copy)]
pub struct LatencyObjective {
    /// Which outcome class the objective covers.
    pub outcome: Outcome,
    /// Latency threshold in milliseconds.
    pub threshold_ms: f64,
    /// Required compliant fraction in (0, 1), e.g. `0.99`.
    pub target: f64,
}

impl LatencyObjective {
    /// Convenience constructor.
    pub fn new(outcome: Outcome, threshold_ms: f64, target: f64) -> Self {
        LatencyObjective {
            outcome,
            threshold_ms,
            target: target.clamp(0.0, 0.9999),
        }
    }
}

/// Burn rate at or above which a window counts as burning (flight record +
/// breached state): the budget spent twice as fast as provisioned.
const BURN_ALERT: f64 = 2.0;

/// Tuning for the SLO monitor.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// The objectives to track; an empty list judges nothing.
    pub objectives: Vec<LatencyObjective>,
    /// Requests per tumbling burn-rate window (per objective).
    pub window: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            objectives: vec![
                LatencyObjective::new(Outcome::Hit, 100.0, 0.99),
                LatencyObjective::new(Outcome::Miss, 500.0, 0.99),
                LatencyObjective::new(Outcome::Degraded, 1000.0, 0.95),
            ],
            window: 64,
        }
    }
}

/// What `record` decided about the request's burn-rate window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloVerdict {
    /// Counters updated; no window closed (or nothing changed).
    Ok,
    /// A window just closed. The caller should record a burn/recover
    /// when `crossed` is set.
    WindowClosed {
        /// Index into [`SloConfig::objectives`].
        objective: usize,
        /// The closed window's burn rate.
        burn_rate: f64,
        /// `Some(true)`: crossed into burning; `Some(false)`: recovered;
        /// `None`: no state change.
        crossed: Option<bool>,
    },
}

/// Cumulative per-objective counters (lock-free recording path).
struct ObjCounters {
    total: AtomicU64,
    violations: AtomicU64,
}

/// Window bookkeeping (touched only at window close).
#[derive(Debug, Clone, Copy, Default)]
struct ObjWindow {
    window_start_total: u64,
    window_start_violations: u64,
    burn_rate: f64,
    burning: bool,
    windows_closed: u64,
}

/// One row of the SLO table exposed on the status surface.
#[derive(Debug, Clone, Copy)]
pub struct SloRow {
    /// The objective this row tracks.
    pub objective: LatencyObjective,
    /// Requests observed for the objective's outcome.
    pub total: u64,
    /// Requests over the latency threshold.
    pub violations: u64,
    /// Lifetime compliant fraction (1 when no requests observed).
    pub compliance: f64,
    /// Burn rate of the most recently closed window.
    pub burn_rate: f64,
    /// Whether the last closed window was at or above the alert burn.
    pub burning: bool,
    /// Tumbling windows closed so far.
    pub windows_closed: u64,
}

/// Per-outcome latency-SLO monitor. One instance lives in the server's
/// shared state; [`SloMonitor::record`] is called once per completed
/// request with its outcome and total latency.
pub struct SloMonitor {
    config: SloConfig,
    counters: Vec<ObjCounters>,
    windows: Mutex<Vec<ObjWindow>>,
}

impl SloMonitor {
    /// Creates a monitor for the configured objectives.
    pub fn new(config: SloConfig) -> Self {
        let n = config.objectives.len();
        SloMonitor {
            config,
            counters: (0..n)
                .map(|_| ObjCounters {
                    total: AtomicU64::new(0),
                    violations: AtomicU64::new(0),
                })
                .collect(),
            windows: Mutex::new(vec![ObjWindow::default(); n]),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Feeds one completed request. Returns whether it violated its
    /// outcome's objective (never, when no objective covers the outcome) —
    /// the one verdict the per-tenant ledger meters — and the window
    /// verdict. The fast path is two relaxed atomic adds; the window
    /// arithmetic only runs on the request that fills a window.
    pub fn record(&self, outcome: Outcome, latency_ns: u64) -> (bool, SloVerdict) {
        let window = self.config.window.max(1);
        for (index, objective) in self.config.objectives.iter().enumerate() {
            if objective.outcome != outcome {
                continue;
            }
            let counters = &self.counters[index];
            let violated = latency_ns as f64 / 1e6 > objective.threshold_ms;
            if violated {
                counters.violations.fetch_add(1, Ordering::Relaxed);
            }
            let total = counters.total.fetch_add(1, Ordering::Relaxed) + 1;
            if !total.is_multiple_of(window) {
                return (violated, SloVerdict::Ok);
            }
            // Window boundary: compute the burn of the window that just
            // closed from the counter deltas since the previous boundary.
            let violations = counters.violations.load(Ordering::Relaxed);
            let mut windows = self.lock_windows();
            let state = &mut windows[index];
            let window_total = total.saturating_sub(state.window_start_total);
            let window_violations = violations.saturating_sub(state.window_start_violations);
            state.window_start_total = total;
            state.window_start_violations = violations;
            state.windows_closed += 1;
            let budget = (1.0 - objective.target).max(1e-6);
            let violation_fraction = if window_total == 0 {
                0.0
            } else {
                window_violations as f64 / window_total as f64
            };
            state.burn_rate = violation_fraction / budget;
            let burning = state.burn_rate >= BURN_ALERT;
            let crossed = if burning != state.burning {
                state.burning = burning;
                Some(burning)
            } else {
                None
            };
            let verdict = SloVerdict::WindowClosed {
                objective: index,
                burn_rate: state.burn_rate,
                crossed,
            };
            return (violated, verdict);
        }
        (false, SloVerdict::Ok)
    }

    /// Snapshot of every objective, in configuration order.
    pub fn rows(&self) -> Vec<SloRow> {
        let windows = self.lock_windows();
        self.config
            .objectives
            .iter()
            .enumerate()
            .map(|(index, objective)| {
                let total = self.counters[index].total.load(Ordering::Relaxed);
                let violations = self.counters[index].violations.load(Ordering::Relaxed);
                let state = windows[index];
                SloRow {
                    objective: *objective,
                    total,
                    violations,
                    compliance: if total == 0 {
                        1.0
                    } else {
                        1.0 - violations as f64 / total as f64
                    },
                    burn_rate: state.burn_rate,
                    burning: state.burning,
                    windows_closed: state.windows_closed,
                }
            })
            .collect()
    }

    fn lock_windows(&self) -> std::sync::MutexGuard<'_, Vec<ObjWindow>> {
        self.windows.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(threshold_ms: f64, target: f64, window: u64) -> SloMonitor {
        SloMonitor::new(SloConfig {
            objectives: vec![LatencyObjective::new(Outcome::Hit, threshold_ms, target)],
            window,
        })
    }

    #[test]
    fn compliant_traffic_never_burns() {
        let m = monitor(10.0, 0.99, 8);
        for _ in 0..64 {
            let (_, verdict) = m.record(Outcome::Hit, 1_000_000); // 1 ms
            if let SloVerdict::WindowClosed {
                burn_rate, crossed, ..
            } = verdict
            {
                assert_eq!(burn_rate, 0.0);
                assert_eq!(crossed, None);
            }
        }
        let rows = m.rows();
        assert_eq!(rows[0].violations, 0);
        assert_eq!(rows[0].compliance, 1.0);
        assert!(!rows[0].burning);
        assert_eq!(rows[0].windows_closed, 8);
    }

    #[test]
    fn violation_storm_crosses_and_recovers() {
        // 1% budget, window 10: a fully-violating window burns at 100×.
        let m = monitor(10.0, 0.99, 10);
        let mut crossings = Vec::new();
        for _ in 0..10 {
            if let (_, SloVerdict::WindowClosed { crossed, .. }) =
                m.record(Outcome::Hit, 50_000_000)
            {
                crossings.push(crossed);
            }
        }
        assert_eq!(crossings, vec![Some(true)]);
        assert!(m.rows()[0].burning);
        // A fully-compliant window recovers.
        let mut recovered = Vec::new();
        for _ in 0..10 {
            if let (_, SloVerdict::WindowClosed { crossed, .. }) = m.record(Outcome::Hit, 1_000_000)
            {
                recovered.push(crossed);
            }
        }
        assert_eq!(recovered, vec![Some(false)]);
        assert!(!m.rows()[0].burning);
        assert_eq!(m.rows()[0].violations, 10);
    }

    #[test]
    fn burn_rate_is_violation_fraction_over_budget() {
        // 5% budget, window 20, 2 violations → 10% violating → burn 2.0.
        let m = monitor(10.0, 0.95, 20);
        let mut burn = None;
        for i in 0..20 {
            let ns = if i < 2 { 50_000_000 } else { 1_000_000 };
            if let (_, SloVerdict::WindowClosed { burn_rate, .. }) = m.record(Outcome::Hit, ns) {
                burn = Some(burn_rate);
            }
        }
        let burn = burn.expect("window closed");
        assert!((burn - 2.0).abs() < 1e-9, "{burn}");
    }

    #[test]
    fn outcomes_are_tracked_independently() {
        let m = SloMonitor::new(SloConfig {
            objectives: vec![
                LatencyObjective::new(Outcome::Hit, 10.0, 0.99),
                LatencyObjective::new(Outcome::Miss, 100.0, 0.99),
            ],
            window: 4,
        });
        for _ in 0..8 {
            m.record(Outcome::Hit, 1_000_000);
            m.record(Outcome::Miss, 500_000_000); // 500 ms: violates
        }
        let rows = m.rows();
        assert_eq!(rows[0].violations, 0);
        assert_eq!(rows[1].violations, 8);
        assert!(!rows[0].burning);
        assert!(rows[1].burning);
    }

    #[test]
    fn disabled_monitor_is_inert() {
        let m = SloMonitor::new(SloConfig {
            objectives: Vec::new(),
            ..SloConfig::default()
        });
        for _ in 0..200 {
            assert_eq!(m.record(Outcome::Hit, u64::MAX), (false, SloVerdict::Ok));
        }
        assert!(m.rows().is_empty());
    }

    #[test]
    fn violation_is_decided_once_at_the_millisecond_boundary() {
        // 4_193_000 ns is exactly the 4.193 ms threshold: not a violation.
        // (Compared in nanoseconds instead, `4.193 * 1e6` rounds to just
        // under 4_193_000 and would call it one.) One nanosecond more
        // violates.
        let m = monitor(4.193, 0.99, 64);
        assert_eq!(m.record(Outcome::Hit, 4_193_000), (false, SloVerdict::Ok));
        assert_eq!(m.record(Outcome::Hit, 4_193_001), (true, SloVerdict::Ok));
        assert_eq!(m.rows()[0].violations, 1);
    }
}
