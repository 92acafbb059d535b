//! Streaming sketches: a mergeable log-bucketed quantile sketch and a small
//! distinct-count estimator.
//!
//! A fixed log₂ histogram bounds a sample to a power-of-two interval —
//! fine for dashboards, useless for SLO math where "p999 under 50 ms" needs
//! sub-2× resolution. The [`Sketch`] here is DDSketch-style: geometric buckets with ratio
//! `γ = (1 + α)²` so every quantile estimate is within a configured
//! **relative** error `α` of the exact sample quantile, at any scale from
//! nanoseconds to hours. Two properties make it the right primitive for a
//! serving runtime:
//!
//! - **Zero-alloc, lock-free recording.** A sketch is a fixed array of
//!   atomics sized at construction; [`Sketch::record_ns`] is a handful of
//!   relaxed atomic adds — no allocation, no mutex, safe on the zero-alloc
//!   steady-state serve hit path and cheap enough to leave always-on.
//! - **Mergeability.** Bucket counts are position-aligned for equal `α`, so
//!   [`SketchSnapshot::merge`] is element-wise addition: associative and
//!   commutative, which lets per-worker / per-shard sketches roll up into
//!   fleet-level quantiles without resampling (the reason DDSketch-style
//!   sketches beat exact reservoirs for distributed telemetry).
//!
//! The [`DistinctCounter`] is a small HyperLogLog (2¹⁰ registers, ~2%
//! standard error) for "how many unique graph fingerprints has this server
//! actually seen" — a question counters cannot answer without unbounded
//! per-key state.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Default relative-error bound for sketches: quantile estimates are
/// within 1% of the exact sample quantile.
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// A mergeable streaming quantile sketch over `u64` nanosecond values with
/// bounded relative error.
///
/// Bucket `i` covers values `v` with `floor(ln v / ln γ) == i`, i.e.
/// `v ∈ [γ^i, γ^(i+1))`, where `γ = (1 + α)²`. A quantile estimate returns
/// the bucket's log-space midpoint `γ^(i + 1/2)`, so the worst-case ratio to
/// the true value is `√γ = 1 + α` in either direction. Zeros get a dedicated
/// exact bucket.
///
/// # Example
///
/// ```
/// use granii_telemetry::Sketch;
///
/// let s = Sketch::new(0.01);
/// for v in 1..=1000u64 {
///     s.record_ns(v);
/// }
/// let p50 = s.snapshot("lat").quantile_ns(0.50);
/// assert!((p50 - 500.0).abs() / 500.0 < 0.02);
/// ```
#[derive(Debug)]
pub struct Sketch {
    alpha: f64,
    ln_gamma: f64,
    zero: AtomicU64,
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

/// Bucket index for a non-zero value under `ln_gamma` spacing.
fn value_index(ns: u64, ln_gamma: f64, num_buckets: usize) -> usize {
    debug_assert!(ns > 0);
    let idx = ((ns as f64).ln() / ln_gamma).floor();
    // ns >= 1 means ln >= 0; the cast below is safe after the max(0.0).
    (idx.max(0.0) as usize).min(num_buckets - 1)
}

impl Sketch {
    /// Creates a sketch with relative-error bound `alpha` (clamped to
    /// `[1e-4, 0.5]`). The bucket array is sized to cover every `u64`
    /// nanosecond value; `alpha = 0.01` needs ~2.3 k buckets (~18 KiB).
    pub fn new(alpha: f64) -> Self {
        let alpha = alpha.clamp(1e-4, 0.5);
        let ln_gamma = 2.0 * (1.0 + alpha).ln();
        let num_buckets = ((u64::MAX as f64).ln() / ln_gamma).ceil() as usize + 1;
        Sketch {
            alpha,
            ln_gamma,
            zero: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: (0..num_buckets).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The configured relative-error bound `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one nanosecond value. Lock-free and allocation-free: one
    /// float log plus a handful of relaxed atomic RMWs.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        if ns == 0 {
            self.zero.fetch_add(1, Ordering::Relaxed);
        } else {
            let idx = value_index(ns, self.ln_gamma, self.buckets.len());
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy under the given export name. Buckets are stored
    /// sparsely (most of the index range is empty for any real workload).
    pub fn snapshot(&self, name: &str) -> SketchSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        SketchSnapshot {
            name: name.to_owned(),
            alpha: self.alpha,
            count,
            zero_count: self.zero.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(idx, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((idx as u32, c))
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one [`Sketch`], suitable for export and merging.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSnapshot {
    /// Export name.
    pub name: String,
    /// Relative-error bound the sketch was built with.
    pub alpha: f64,
    /// Number of recorded values (including zeros).
    pub count: u64,
    /// Exact count of recorded zeros.
    pub zero_count: u64,
    /// Sum of recorded values in nanoseconds.
    pub sum_ns: u64,
    /// Smallest recorded value (0 when empty).
    pub min_ns: u64,
    /// Largest recorded value.
    pub max_ns: u64,
    /// Sparse `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl SketchSnapshot {
    /// An empty snapshot with the given name and error bound.
    pub fn empty(name: &str, alpha: f64) -> Self {
        SketchSnapshot {
            name: name.to_owned(),
            alpha: alpha.clamp(1e-4, 0.5),
            count: 0,
            zero_count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: Vec::new(),
        }
    }

    fn ln_gamma(&self) -> f64 {
        2.0 * (1.0 + self.alpha).ln()
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Estimated value at quantile `q` in nanoseconds, within `α` relative
    /// error of the exact sample quantile. `q` is clamped to `[0, 1]`
    /// (NaN treated as 0) and the estimate to the observed `[min, max]`, so
    /// single-value streams are exact at every quantile.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target <= self.zero_count {
            return 0.0;
        }
        let mut seen = self.zero_count;
        let ln_gamma = self.ln_gamma();
        for &(idx, bucket_count) in &self.buckets {
            seen += bucket_count;
            if seen >= target {
                let est = ((idx as f64 + 0.5) * ln_gamma).exp();
                return est.clamp(self.min_ns as f64, self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    /// Estimated median in nanoseconds.
    pub fn p50_ns(&self) -> f64 {
        self.quantile_ns(0.50)
    }

    /// Estimated 95th percentile in nanoseconds.
    pub fn p95_ns(&self) -> f64 {
        self.quantile_ns(0.95)
    }

    /// Estimated 99th percentile in nanoseconds.
    pub fn p99_ns(&self) -> f64 {
        self.quantile_ns(0.99)
    }

    /// Estimated 99.9th percentile in nanoseconds — the tail a fixed log₂
    /// histogram cannot resolve.
    pub fn p999_ns(&self) -> f64 {
        self.quantile_ns(0.999)
    }

    /// Merges `other` into `self` by element-wise bucket addition —
    /// associative and commutative, so per-worker sketches fold into a
    /// fleet-level one in any order.
    ///
    /// # Panics
    ///
    /// Panics if the error bounds differ: bucket indices are only
    /// position-aligned for equal `α`.
    pub fn merge(&mut self, other: &SketchSnapshot) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different error bounds ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.count += other.count;
        self.zero_count += other.zero_count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        if other.count > 0 {
            self.min_ns = if self.count == other.count {
                other.min_ns
            } else {
                self.min_ns.min(other.min_ns)
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(a, ca)), Some(&(b, cb))) if a == b => {
                    merged.push((a, ca + cb));
                    i += 1;
                    j += 1;
                }
                (Some(&(a, ca)), Some(&(b, _))) if a < b => {
                    merged.push((a, ca));
                    i += 1;
                }
                (Some(_), Some(&(b, cb))) => {
                    merged.push((b, cb));
                    j += 1;
                }
                (Some(&(a, ca)), None) => {
                    merged.push((a, ca));
                    i += 1;
                }
                (None, Some(&(b, cb))) => {
                    merged.push((b, cb));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.buckets = merged;
    }
}

/// Number of HyperLogLog registers (2¹⁰): standard error ≈ 1.04/√1024 ≈ 3.3%.
const HLL_REGISTERS: usize = 1024;
const HLL_P: u32 = 10;

/// A small HyperLogLog distinct-count estimator over `u64` keys.
///
/// Recording is lock-free (one `fetch_max` on an 8-bit register) and
/// allocation-free; keys are scrambled through SplitMix64 first, so raw
/// structured values (graph fingerprints, plan-key hashes) are fine inputs.
///
/// # Example
///
/// ```
/// use granii_telemetry::DistinctCounter;
///
/// let d = DistinctCounter::new();
/// for k in 0..500u64 {
///     d.observe(k);
///     d.observe(k); // duplicates don't count
/// }
/// let est = d.estimate();
/// assert!((est - 500.0).abs() / 500.0 < 0.15, "{est}");
/// ```
#[derive(Debug)]
pub struct DistinctCounter {
    registers: Box<[AtomicU8]>,
}

/// SplitMix64: cheap, well-distributed scrambler for structured keys.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Default for DistinctCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl DistinctCounter {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        DistinctCounter {
            registers: (0..HLL_REGISTERS).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Folds one key into the estimator (idempotent per key).
    pub fn observe(&self, key: u64) {
        let h = splitmix64(key);
        let register = (h >> (64 - HLL_P)) as usize;
        // Rank of the first set bit in the remaining 54 bits, 1-based.
        let rank = ((h << HLL_P) | 1u64 << (HLL_P - 1)).leading_zeros() as u8 + 1;
        self.registers[register].fetch_max(rank, Ordering::Relaxed);
    }

    /// Estimated number of distinct keys observed.
    pub fn estimate(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        let mut harmonic = 0.0;
        let mut zeros = 0u64;
        for r in self.registers.iter() {
            let v = r.load(Ordering::Relaxed);
            if v == 0 {
                zeros += 1;
            }
            harmonic += 1.0 / f64::from(1u32 << u32::from(v.min(63)));
        }
        let alpha_m = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha_m * m * m / harmonic;
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range (linear counting) correction.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

/// Point-in-time copy of one [`DistinctCounter`]'s estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct DistinctSnapshot {
    /// Export name.
    pub name: String,
    /// Estimated distinct keys.
    pub estimate: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_is_all_zero() {
        let s = Sketch::new(0.01);
        let snap = s.snapshot("t");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_ns(0.5), 0.0);
        assert_eq!(snap.mean_ns(), 0.0);
    }

    #[test]
    fn single_value_is_exact_everywhere() {
        let s = Sketch::new(0.01);
        s.record_ns(777);
        let snap = s.snapshot("t");
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(snap.quantile_ns(q), 777.0);
        }
        assert_eq!(snap.min_ns, 777);
        assert_eq!(snap.max_ns, 777);
    }

    #[test]
    fn quantiles_respect_relative_error_bound() {
        let alpha = 0.01;
        let s = Sketch::new(alpha);
        let mut values: Vec<u64> = (1..=10_000u64).map(|i| i * i).collect();
        for &v in &values {
            s.record_ns(v);
        }
        values.sort_unstable();
        let snap = s.snapshot("t");
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let est = snap.quantile_ns(q);
            assert!(
                (est - exact).abs() <= alpha * exact + 1.0,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zeros_have_a_dedicated_bucket() {
        let s = Sketch::new(0.01);
        for _ in 0..90 {
            s.record_ns(0);
        }
        for _ in 0..10 {
            s.record_ns(1_000_000);
        }
        let snap = s.snapshot("t");
        assert_eq!(snap.zero_count, 90);
        assert_eq!(snap.quantile_ns(0.5), 0.0);
        let p99 = snap.quantile_ns(0.99);
        assert!((p99 - 1e6).abs() / 1e6 < 0.011, "{p99}");
    }

    #[test]
    fn merge_equals_single_stream() {
        let a = Sketch::new(0.01);
        let b = Sketch::new(0.01);
        let whole = Sketch::new(0.01);
        for v in 1..=1000u64 {
            if v % 2 == 0 { &a } else { &b }.record_ns(v * 37);
            whole.record_ns(v * 37);
        }
        let mut merged = a.snapshot("t");
        merged.merge(&b.snapshot("t"));
        let reference = whole.snapshot("t");
        assert_eq!(merged.count, reference.count);
        assert_eq!(merged.buckets, reference.buckets);
        assert_eq!(merged.min_ns, reference.min_ns);
        assert_eq!(merged.max_ns, reference.max_ns);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(merged.quantile_ns(q), reference.quantile_ns(q));
        }
    }

    #[test]
    #[should_panic(expected = "different error bounds")]
    fn merge_rejects_mismatched_alpha() {
        let mut a = SketchSnapshot::empty("a", 0.01);
        let b = SketchSnapshot::empty("b", 0.02);
        a.merge(&b);
    }

    #[test]
    fn distinct_counter_tracks_cardinality_not_volume() {
        let d = DistinctCounter::new();
        for _ in 0..100 {
            for k in 0..12u64 {
                d.observe(0xdead_0000 + k);
            }
        }
        let est = d.estimate();
        assert!((est - 12.0).abs() <= 2.0, "{est}");
    }

    #[test]
    fn distinct_counter_scales_to_thousands() {
        let d = DistinctCounter::new();
        for k in 0..5_000u64 {
            d.observe(k.wrapping_mul(0x9e37_79b9));
        }
        let est = d.estimate();
        assert!((est - 5_000.0).abs() / 5_000.0 < 0.1, "{est}");
    }
}
