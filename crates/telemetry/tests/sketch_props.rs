//! Property-based tests for the quantile machinery.
//!
//! Two families of guarantees back the SLO surface: the sketch's merge must
//! be a commutative monoid over snapshots (so per-worker sketches fold into
//! fleet-level quantiles in any order), and every quantile estimate must be
//! monotone in `q` and within the configured relative error of the exact
//! sample quantile.

use granii_telemetry::{Sketch, SketchSnapshot};
use proptest::prelude::*;

const ALPHA: f64 = 0.01;

fn sketch_of(values: &[u64]) -> SketchSnapshot {
    let s = Sketch::new(ALPHA);
    for &v in values {
        s.record_ns(v);
    }
    s.snapshot("t")
}

/// Exact nearest-rank quantile over a sorted slice.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000_000_000, 1..200)
}

proptest! {
    /// Merging per-shard sketches gives the same state as one sketch over
    /// the concatenated stream — the property that makes per-worker
    /// recording sound.
    #[test]
    fn merge_equals_concatenation(a in values(), b in values()) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let whole: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let reference = sketch_of(&whole);
        prop_assert_eq!(merged.count, reference.count);
        prop_assert_eq!(merged.buckets, reference.buckets);
        prop_assert_eq!(merged.min_ns, reference.min_ns);
        prop_assert_eq!(merged.max_ns, reference.max_ns);
        prop_assert_eq!(merged.zero_count, reference.zero_count);
    }

    /// Commutativity: a ⊕ b == b ⊕ a.
    #[test]
    fn merge_commutes(a in values(), b in values()) {
        let mut ab = sketch_of(&a);
        ab.merge(&sketch_of(&b));
        let mut ba = sketch_of(&b);
        ba.merge(&sketch_of(&a));
        prop_assert_eq!(ab, ba);
    }

    /// Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_associates(a in values(), b in values(), c in values()) {
        let mut left = sketch_of(&a);
        left.merge(&sketch_of(&b));
        left.merge(&sketch_of(&c));
        let mut bc = sketch_of(&b);
        bc.merge(&sketch_of(&c));
        let mut right = sketch_of(&a);
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Every quantile estimate is within the configured relative error of
    /// the exact sorted-oracle quantile (+1 ns slack for integer rounding).
    #[test]
    fn quantiles_within_relative_error(mut vals in values(), q in 0.0f64..1.02) {
        // q past 1.0 exercises the clamp: both sides resolve to the max.
        let q = q.min(1.0);
        let snap = sketch_of(&vals);
        vals.sort_unstable();
        let exact = exact_quantile(&vals, q) as f64;
        let est = snap.quantile_ns(q);
        prop_assert!(
            (est - exact).abs() <= ALPHA * exact + 1.0,
            "q={}: est {} vs exact {}", q, est, exact
        );
    }

    /// Sketch quantiles are monotone in q, even for garbage q (NaN pins to
    /// the minimum; out-of-range clamps).
    #[test]
    fn sketch_quantiles_monotone(vals in values(), qs in proptest::collection::vec(-0.5f64..1.5, 2..8)) {
        let snap = sketch_of(&vals);
        let mut sorted_qs = qs;
        sorted_qs.sort_by(f64::total_cmp);
        let estimates: Vec<f64> = sorted_qs.iter().map(|&q| snap.quantile_ns(q)).collect();
        for pair in estimates.windows(2) {
            prop_assert!(pair[0] <= pair[1], "non-monotone: {:?}", estimates);
        }
        prop_assert_eq!(snap.quantile_ns(f64::NAN), snap.quantile_ns(0.0));
    }
}

/// Acceptance criterion: on a million-sample stream the sketch stays within
/// its configured relative-error bound at every operative quantile.
#[test]
fn million_sample_stream_within_error_bound() {
    let sketch = Sketch::new(ALPHA);
    // Deterministic heavy-tailed stream (SplitMix-style scramble squashed
    // into a log-uniform-ish range): latencies from ~100 ns to ~10 s.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut values = Vec::with_capacity(1_000_000);
    for _ in 0..1_000_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        let ns = (100.0 * 10f64.powf(unit * 8.0)) as u64;
        sketch.record_ns(ns);
        values.push(ns);
    }
    values.sort_unstable();
    let snap = sketch.snapshot("serve.latency.synthetic");
    assert_eq!(snap.count, 1_000_000);
    for q in [
        0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 0.9999,
    ] {
        let exact = exact_quantile(&values, q) as f64;
        let est = snap.quantile_ns(q);
        assert!(
            (est - exact).abs() <= ALPHA * exact + 1.0,
            "q={q}: est {est} vs exact {exact} (rel err {})",
            ((est - exact) / exact).abs()
        );
    }
}
