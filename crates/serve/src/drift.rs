//! Online drift detection: two per-signature lanes that check whether a
//! cached plan's selection still matches what the server sees, run under
//! one flag discipline.
//!
//! Selection quality rests on two things: the cost models ranking
//! candidates correctly (paper §VI-G), and the input statistics that keyed
//! the choice still describing the inputs being served. Either can go stale
//! while the server runs, and each lane watches one of them:
//!
//! - The **residual lane** is fed a [`Residual`]: the log-space gap between
//!   what the cost model promised and what execution actually cost,
//!   `r = ln(measured_steady_seconds) − ln(predicted_steady_seconds)`. Both
//!   sides are per-iteration figures: the prediction sums only non-hoisted
//!   steps ([`granii_core::cost::CostModelSet::predict_steady_state`]) and
//!   the measurement is the engine-charged cost of one
//!   [`granii_core::execplan::BoundPlan::iterate`]. Log space mirrors how
//!   the models are trained (they regress `ln(latency)`) and makes the
//!   tolerance a *ratio*: `|r| > ln(2)` means off by more than 2×, in
//!   either direction.
//! - The **input lane** is fed an [`InputProfile`] per request and checks
//!   it against the reference profile pinned at plan-selection time (every
//!   cache miss re-pins it via [`Lane::rebind`]). The residual lane cannot
//!   see this failure mode: a cached plan executes its *bound* inputs, so
//!   its measured cost keeps matching its prediction even while a
//!   pinned-signature tenant's live graph walks away from what selection
//!   saw. Divergence is measured two ways, matching how degree
//!   distributions actually shift: the **L1 distance over degree-band
//!   fractions** (mass moving between bands) above 0.25, or a **degree-CV
//!   shift** above 0.75 (a single injected hub barely moves band mass but
//!   explodes the coefficient of variation).
//!
//! Both lanes run one discipline, [`Lane`]: per signature, an EWMA of the
//! signal; a **flag** once the smoothed signal has diverged from its
//! reference for `k_consecutive` observations after a `min_samples`
//! warmup; then a **cooldown**, so a persistently broken model or a tenant
//! that keeps mutating cannot turn every request into a flag +
//! invalidation storm. The policy values are constants
//! ([`Policy::SERVING`]). On a flag the server invalidates the signature's
//! plan-cache entry so the next request re-selects, bumps
//! `serve.drift_flagged` or `serve.input_drift_flagged`, and writes a
//! `drift_flag` or `input_drift_flag` flight record.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use granii_graph::{Graph, GraphFeatures};

use crate::cache::PlanKey;

/// Number of degree bands tracked: empty, (0,8], (8,64], (64,512], >512.
pub const DEGREE_BANDS: usize = 5;

/// The input lane's band-mass tolerance: L1 distance between the live and
/// reference degree-band fractions, in `[0, 2]`.
const BAND_L1_THRESHOLD: f64 = 0.25;

/// The input lane's degree-CV tolerance (catches hub injection, which
/// moves CV long before band mass).
const CV_THRESHOLD: f64 = 0.75;

/// The flag policy a [`Lane`] runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// EWMA smoothing factor in (0, 1]; higher reacts faster.
    pub alpha: f64,
    /// Observations required before a signature may flag.
    pub min_samples: u64,
    /// Consecutive diverged observations required to flag.
    pub k_consecutive: u32,
    /// Observations ignored for flagging after a flag.
    pub cooldown: u32,
}

impl Policy {
    /// Both lanes' policy. Deliberately conservative: a flag requires the
    /// smoothed signal to diverge for three consecutive observations after
    /// a three-observation warmup, and silences the signature for the next
    /// 32 observations.
    pub(crate) const SERVING: Policy = Policy {
        alpha: 0.3,
        min_samples: 3,
        k_consecutive: 3,
        cooldown: 32,
    };
}

/// A per-request signal a [`Lane`] smooths and checks.
pub(crate) trait Signal: Copy {
    /// The reference for a signature never [`Lane::rebind`]-pinned, given
    /// its first sample.
    fn anchor(first: &Self) -> Self;
    /// EWMA-folds `sample` into `self` with smoothing factor `alpha`.
    fn fold(&mut self, sample: &Self, alpha: f64);
    /// Whether the smoothed signal `self` lies outside the lane's tolerance
    /// around `reference`.
    fn diverged(&self, reference: &Self) -> bool;
}

/// The residual lane's signal: `ln(measured) − ln(predicted)` steady-state
/// seconds for one served iteration (positive: slower than predicted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Residual(pub f64);

impl Residual {
    /// The residual of one measured against one predicted steady-state
    /// cost, or `None` when either is non-positive or non-finite — a
    /// zero-cost measurement carries no ratio information.
    pub(crate) fn between(measured_seconds: f64, predicted_seconds: f64) -> Option<Residual> {
        let valid = |seconds: f64| seconds.is_finite() && seconds > 0.0;
        (valid(measured_seconds) && valid(predicted_seconds))
            .then(|| Residual(measured_seconds.ln() - predicted_seconds.ln()))
    }
}

impl Signal for Residual {
    /// A perfect prediction.
    fn anchor(_: &Self) -> Self {
        Residual(0.0)
    }

    fn fold(&mut self, sample: &Self, alpha: f64) {
        self.0 = alpha * sample.0 + (1.0 - alpha) * self.0;
    }

    /// Off by more than 2×, in either direction.
    fn diverged(&self, reference: &Self) -> bool {
        (self.0 - reference.0).abs() > std::f64::consts::LN_2
    }
}

/// The slice of a graph's feature vector the input-drift lane watches:
/// degree-band fractions plus the summary shape statistics. Cheap to
/// extract (a copy of the graph's memoized features: one O(nodes) pass on
/// the graph's first inspection, none after) and cheap to compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputProfile {
    /// Fractions of nodes per degree band (sums to 1 for non-empty graphs):
    /// `[empty, (0,8], (8,64], (64,512], >512]`.
    pub bands: [f64; DEGREE_BANDS],
    /// Average out-degree.
    pub avg_degree: f64,
    /// Degree coefficient of variation (skew proxy).
    pub degree_cv: f64,
    /// Adjacency density `nnz / n²`.
    pub density: f64,
}

impl InputProfile {
    /// Builds a profile from already-extracted graph features.
    pub fn from_features(f: &GraphFeatures) -> Self {
        InputProfile {
            bands: [
                f.empty_row_fraction,
                f.frac_deg_low,
                f.frac_deg_mid,
                f.frac_deg_high,
                f.frac_deg_hub,
            ],
            avg_degree: f.avg_degree,
            degree_cv: f.degree_cv,
            density: f.density,
        }
    }

    /// Extracts a profile from a graph's features ([`GraphFeatures::extract`],
    /// memoized on the graph).
    pub fn extract(graph: &Graph) -> Self {
        Self::from_features(&GraphFeatures::extract(graph))
    }

    /// L1 distance between the two profiles' degree-band distributions,
    /// in `[0, 2]`.
    pub fn band_l1(&self, other: &InputProfile) -> f64 {
        self.bands
            .iter()
            .zip(other.bands.iter())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Absolute degree-CV difference between the two profiles.
    pub(crate) fn cv_delta(&self, other: &InputProfile) -> f64 {
        (self.degree_cv - other.degree_cv).abs()
    }
}

impl Signal for InputProfile {
    /// A signature first seen without a selection (never rebound) is
    /// anchored on its first profile.
    fn anchor(first: &Self) -> Self {
        *first
    }

    fn fold(&mut self, sample: &Self, alpha: f64) {
        let lerp = |current: f64, new: f64| alpha * new + (1.0 - alpha) * current;
        for (band, sample_band) in self.bands.iter_mut().zip(sample.bands.iter()) {
            *band = lerp(*band, *sample_band);
        }
        self.avg_degree = lerp(self.avg_degree, sample.avg_degree);
        self.degree_cv = lerp(self.degree_cv, sample.degree_cv);
        self.density = lerp(self.density, sample.density);
    }

    fn diverged(&self, reference: &Self) -> bool {
        self.band_l1(reference) > BAND_L1_THRESHOLD || self.cv_delta(reference) > CV_THRESHOLD
    }
}

/// One signature's lane state: the status row, and what
/// [`Lane::observe`] hands back on a flag.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Track<S> {
    /// EWMA of the signal.
    pub smoothed: S,
    /// What the smoothed signal is checked against.
    pub reference: S,
    /// The most recent raw sample.
    pub last: S,
    /// Samples folded since the signature was first seen or last rebound.
    pub samples: u64,
    consecutive: u32,
    /// Remaining cooldown observations (0 = eligible to flag).
    pub cooldown: u32,
    /// Times this signature has flagged (survives rebinds).
    pub flags: u64,
}

impl<S: Signal> Track<S> {
    fn new(reference: S, sample: S) -> Self {
        Track {
            smoothed: sample,
            reference,
            last: sample,
            samples: 0,
            consecutive: 0,
            cooldown: 0,
            flags: 0,
        }
    }
}

/// Per-signature flag state for one signal (see module docs). One instance
/// per lane lives in the server's shared state. Tracks survive plan-cache
/// invalidation on purpose: the cooldown must keep counting across the
/// re-selection a flag triggered, otherwise a still-broken model re-flags
/// immediately.
pub(crate) struct Lane<S> {
    policy: Policy,
    tracks: Mutex<BTreeMap<PlanKey, Track<S>>>,
}

impl<S: Signal> Lane<S> {
    /// A lane running [`Policy::SERVING`].
    pub(crate) fn new() -> Self {
        Self::with_policy(Policy::SERVING)
    }

    /// A lane running other policy values.
    pub(crate) fn with_policy(policy: Policy) -> Self {
        Lane {
            policy,
            tracks: Mutex::new(BTreeMap::new()),
        }
    }

    /// Folds one sample into `key`'s track. When the signature just
    /// flagged, returns the track as this sample left it (its smoothed
    /// signal and reference read under the lane's lock); `None` otherwise —
    /// within tolerance, warming up, or cooling down.
    pub(crate) fn observe(&self, key: PlanKey, sample: S) -> Option<Track<S>> {
        let policy = self.policy;
        let mut tracks = self.lock();
        let track = tracks
            .entry(key)
            .or_insert_with(|| Track::new(S::anchor(&sample), sample));
        track.samples += 1;
        track.last = sample;
        if track.samples > 1 {
            track.smoothed.fold(&sample, policy.alpha);
        } else {
            track.smoothed = sample;
        }
        if track.cooldown > 0 {
            track.cooldown -= 1;
            track.consecutive = 0;
            return None;
        }
        if track.samples >= policy.min_samples && track.smoothed.diverged(&track.reference) {
            track.consecutive += 1;
        } else {
            track.consecutive = 0;
        }
        if track.consecutive < policy.k_consecutive.max(1) {
            return None;
        }
        track.consecutive = 0;
        track.cooldown = policy.cooldown;
        track.flags += 1;
        Some(*track)
    }

    /// (Re)pins `key`'s reference to `sample` — called at plan-selection
    /// time, i.e. on every cache miss. The smoothed signal and divergence
    /// streak restart from the reference; the flag tally and any active
    /// cooldown survive, so a flapping tenant cannot reset its own rate
    /// limit by triggering re-selection.
    pub(crate) fn rebind(&self, key: PlanKey, sample: S) {
        let mut tracks = self.lock();
        let track = tracks
            .entry(key)
            .or_insert_with(|| Track::new(sample, sample));
        *track = Track {
            cooldown: track.cooldown,
            flags: track.flags,
            ..Track::new(sample, sample)
        };
    }

    /// Snapshot of every tracked signature, sorted by key (status surface).
    pub(crate) fn rows(&self) -> Vec<(PlanKey, Track<S>)> {
        self.lock()
            .iter()
            .map(|(key, track)| (*key, *track))
            .collect()
    }

    /// Drops all per-signature state (model hot-swap: history from the old
    /// models says nothing about the new ones).
    pub(crate) fn reset(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<PlanKey, Track<S>>> {
        self.tracks.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_gnn::spec::ModelKind;
    use granii_graph::generators;
    use std::f64::consts::LN_2;

    fn key() -> PlanKey {
        (ModelKind::Gcn, 0xfeed, 64, 32)
    }

    fn total_flags<S: Signal>(lane: &Lane<S>) -> u64 {
        lane.rows().iter().map(|(_, track)| track.flags).sum()
    }

    #[test]
    fn discipline_warms_up_resets_streaks_and_cools_down() {
        // alpha 1 makes the smoothed signal the latest sample, so each
        // observation diverges exactly when its sample does.
        let lane = Lane::with_policy(Policy {
            alpha: 1.0,
            min_samples: 3,
            k_consecutive: 2,
            cooldown: 2,
        });
        let (far, near) = (Residual(1.0), Residual(0.0));
        let feed = [far, far, far, near, far, far, far, far, far, far];
        let flagged: Vec<usize> = feed
            .iter()
            .enumerate()
            .filter_map(|(i, sample)| lane.observe(key(), *sample).map(|_| i + 1))
            .collect();
        // 1-2: warmup, divergence not counted. 3: streak 1. 4: within
        // tolerance, the streak resets. 5-6: streak 2, flag, cooldown 2.
        // 7-8: swallowed by the cooldown. 9-10: streak 2, flag.
        assert_eq!(flagged, vec![6, 10]);
        let (_, track) = lane.rows()[0];
        assert_eq!((track.samples, track.flags, track.cooldown), (10, 2, 2));
    }

    // The residual lane.

    fn detector(k: u32, cooldown: u32) -> Lane<Residual> {
        Lane::with_policy(Policy {
            k_consecutive: k,
            cooldown,
            ..Policy::SERVING
        })
    }

    /// Feeds one (measured, predicted) steady-state pair; returns the
    /// smoothed residual when the signature flags.
    fn observe(lane: &Lane<Residual>, measured: f64, predicted: f64) -> Option<f64> {
        Residual::between(measured, predicted)
            .and_then(|residual| lane.observe(key(), residual))
            .map(|track| track.smoothed.0)
    }

    #[test]
    fn accurate_model_never_flags() {
        let d = detector(3, 8);
        for _ in 0..200 {
            // 20% off: inside the 2x threshold.
            assert_eq!(observe(&d, 1.2e-3, 1.0e-3), None);
        }
        assert_eq!(total_flags(&d), 0);
    }

    #[test]
    fn sustained_mismatch_flags_after_warmup_plus_k() {
        let d = detector(3, 8);
        let mut flagged_at = None;
        for i in 1..=20u32 {
            if let Some(ewma_residual) = observe(&d, 1.0, 1.0e-6) {
                assert!(ewma_residual > LN_2);
                flagged_at = Some(i);
                break;
            }
        }
        // min_samples = 3 and k = 3 overlap: observations 3, 4, 5 are both
        // past warmup and consecutive, so the flag lands on observation 5.
        assert_eq!(flagged_at, Some(5));
    }

    #[test]
    fn cooldown_rate_limits_reflag_storms() {
        let d = detector(1, 10);
        let mut flags = 0u64;
        for _ in 0..30 {
            if observe(&d, 1.0, 1.0e-6).is_some() {
                flags += 1;
            }
        }
        // Observation 3 flags (warmup), then 10 cooldown observations
        // swallow 4..=13, observation 14 flags again, cooldown swallows
        // 15..=24, observation 25 flags: 3 flags in 30 observations, not 28.
        assert_eq!(flags, 3);
        assert_eq!(total_flags(&d), 3);
    }

    #[test]
    fn recovery_clears_consecutive_counter() {
        let d = detector(3, 0);
        // Two above-threshold observations past warmup (2.5x off: residual
        // ~0.92, just over the ln 2 threshold)...
        for _ in 0..4 {
            observe(&d, 2.5e-3, 1.0e-3);
        }
        // ...then one accurate observation drags the EWMA under the
        // threshold (0.7 * 0.92 ~ 0.64 < ln 2) before the third consecutive
        // breach accrues, so the streak resets and nothing ever flags.
        let mut flagged = false;
        for _ in 0..50 {
            if observe(&d, 1.0e-3, 1.0e-3).is_some() {
                flagged = true;
            }
        }
        assert!(!flagged, "EWMA decayed back under threshold; no flag");
        let rows = d.rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].1.smoothed.0.abs() < LN_2);
        assert_eq!(rows[0].1.flags, 0);
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        let d = detector(1, 0);
        for _ in 0..10 {
            assert_eq!(observe(&d, 0.0, 1.0), None);
            assert_eq!(observe(&d, 1.0, 0.0), None);
            assert_eq!(observe(&d, f64::NAN, 1.0), None);
        }
        assert!(d.rows().is_empty());
    }

    // The input lane.

    fn uniform() -> InputProfile {
        InputProfile {
            bands: [0.0, 1.0, 0.0, 0.0, 0.0],
            avg_degree: 2.0,
            degree_cv: 0.0,
            density: 0.01,
        }
    }

    fn hubby() -> InputProfile {
        InputProfile {
            bands: [0.0, 0.5, 0.3, 0.1, 0.1],
            avg_degree: 18.0,
            degree_cv: 4.0,
            density: 0.05,
        }
    }

    fn inspector(min_samples: u64, k: u32, cooldown: u32) -> Lane<InputProfile> {
        Lane::with_policy(Policy {
            min_samples,
            k_consecutive: k,
            cooldown,
            ..Policy::SERVING
        })
    }

    #[test]
    fn profile_extraction_matches_features() {
        let g = generators::star(100).unwrap();
        let p = InputProfile::extract(&g);
        let f = GraphFeatures::extract(&g);
        assert_eq!(p.bands[1], f.frac_deg_low);
        assert_eq!(p.bands[3], f.frac_deg_high);
        assert_eq!(p.degree_cv, f.degree_cv);
        let total: f64 = p.bands.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn band_l1_is_symmetric_and_bounded() {
        let a = uniform();
        let b = hubby();
        assert_eq!(a.band_l1(&b), b.band_l1(&a));
        assert!(a.band_l1(&b) <= 2.0);
        assert_eq!(a.band_l1(&a), 0.0);
    }

    #[test]
    fn stable_input_never_flags() {
        let lane = Lane::new();
        lane.rebind(key(), uniform());
        for _ in 0..200 {
            assert!(lane.observe(key(), uniform()).is_none());
        }
        assert_eq!(total_flags(&lane), 0);
    }

    #[test]
    fn mutated_input_flags_after_warmup_plus_k() {
        let lane = Lane::new();
        lane.rebind(key(), uniform());
        let mut flagged_at = None;
        for i in 1..=20u32 {
            if let Some(track) = lane.observe(key(), hubby()) {
                let live = track.smoothed;
                assert!(
                    live.band_l1(&track.reference) > 0.25 || live.cv_delta(&track.reference) > 0.75
                );
                flagged_at = Some(i);
                break;
            }
        }
        // Warmup (3) and the consecutive streak (3) overlap exactly as in
        // the residual lane: observations 3, 4, 5 count, flag on 5.
        assert_eq!(flagged_at, Some(5));
    }

    #[test]
    fn cv_shift_alone_flags_hub_injection() {
        // Hub injection: band mass barely moves (one node changes band) but
        // the degree CV explodes. Only the CV criterion can catch it.
        let reference = uniform();
        let mut spiked = uniform();
        spiked.degree_cv = 6.0;
        spiked.avg_degree = 3.2;
        let lane = Lane::new();
        lane.rebind(key(), reference);
        let mut flagged = false;
        for _ in 0..10 {
            if lane.observe(key(), spiked).is_some() {
                flagged = true;
                break;
            }
        }
        assert!(flagged, "CV-only divergence must flag");
    }

    #[test]
    fn rebind_quiets_the_lane_after_reselection() {
        let lane = inspector(3, 3, 0);
        lane.rebind(key(), uniform());
        let mut flagged = false;
        for _ in 0..10 {
            if lane.observe(key(), hubby()).is_some() {
                flagged = true;
                break;
            }
        }
        assert!(flagged);
        // Re-selection saw the mutated graph: reference becomes the new
        // shape, so continuing to serve it is no longer divergence.
        lane.rebind(key(), hubby());
        for _ in 0..50 {
            assert!(lane.observe(key(), hubby()).is_none());
        }
        assert_eq!(total_flags(&lane), 1);
        let rows = lane.rows();
        assert_eq!(rows.len(), 1);
        let (_, track) = rows[0];
        assert_eq!(track.flags, 1);
        assert!(track.smoothed.band_l1(&track.reference) < 1e-9);
    }

    #[test]
    fn cooldown_rate_limits_flag_storms() {
        let lane = inspector(1, 1, 10);
        lane.rebind(key(), uniform());
        let mut flags = 0u64;
        for _ in 0..30 {
            if lane.observe(key(), hubby()).is_some() {
                flags += 1;
            }
        }
        // Flag on 1, cooldown swallows 2..=11, flag on 12, cooldown
        // swallows 13..=22, flag on 23: 3 flags, not 30.
        assert_eq!(flags, 3);
    }
}
