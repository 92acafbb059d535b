//! The per-tenant ledger: admission fairness and resource metering, kept
//! in one table with one slot per tenant.
//!
//! A tenant is a plan signature's graph fingerprint (pinned via
//! [`crate::ServeRequest::with_signature`] or derived from the graph's
//! content). The ledger does two jobs for it:
//!
//! - **Admission fairness.** Without a per-tenant bound, one hot tenant can
//!   fill the entire admission queue and starve everyone else *before* the
//!   queue-depth check ever sheds — the classic head-of-line capture
//!   problem. Each tenant may hold at most `max(1, queue_depth × share)`
//!   queued (admitted but not yet dequeued) requests.
//! - **Metering.** GRANII's premise is that per-input inspection drives
//!   per-input cost — which means two tenants issuing the same request
//!   *rate* can consume wildly different engine time (SENSEi,
//!   arXiv:2306.15155). Every engine charge, flop, and byte is attributed
//!   back to the tenant that caused it, alongside queue wait, batch share,
//!   cache behavior, sheds, degradations, and SLO violations.
//!
//! The table is lock-free, matching the admission path and the worker hot
//! path it sits on: a fixed array of slots claimed by fingerprint CAS,
//! linear-probed from `fp % slots`, with one shared overflow slot beyond
//! the probe window (overflow tenants are still bounded, just
//! collectively; serving workloads have a small working set of signatures,
//! so in practice every tenant gets its own slot). A request
//! claims its slot once, at submit; its admission, release, meters, and
//! the totals row all go through that one index. The admission counters
//! (written by submitters) and the meters (written by workers) live in
//! separate arrays, so the two sides never share a cache line. Every
//! counter is a relaxed `AtomicU64` — recording a request is a handful of
//! uncontended adds and never allocates, so the zero-alloc cache-hit
//! contract survives with the ledger always on.
//!
//! **Attribution is exact, not approximate.** A coalesced batch's charge is
//! converted to integer nanoseconds *once*; members receive `total / n`
//! with the remainder folded into the group leader ([`exact_share`]), and
//! the identical integers are added to both the tenant slot and the global
//! totals slot. Because `u64` addition is exact and order-free, the sum of
//! per-tenant charges equals the server-total charge *bitwise* — the
//! invariant `crates/serve/tests/metering.rs` proptests across batched,
//! serial, degraded, and shed paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed tenant-slot count; fingerprints that cannot claim a slot within
/// the probe window share the overflow slot.
const TENANT_SLOTS: usize = 64;

/// Linear-probe distance before falling back to the overflow slot.
const PROBE_LIMIT: usize = 8;

/// Index of the shared overflow slot, one past the claimable slots.
const OVERFLOW: usize = TENANT_SLOTS;

/// A tenant's slot index, claimed once per request by [`TenantLedger::tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tenant(usize);

/// One tenant's admission counters. `fp == 0` means unclaimed (the
/// all-zero fingerprint, should a graph ever hash to it, shares the
/// overflow slot — a capacity nuance, never a correctness one).
#[derive(Default)]
struct Admission {
    fp: AtomicU64,
    queued: AtomicU64,
    admitted: AtomicU64,
    /// Requests shed by the per-tenant bound.
    shed: AtomicU64,
}

/// One tenant's accumulated meters (also the server-wide totals row).
#[derive(Default)]
struct Meters {
    requests: AtomicU64,
    batched_requests: AtomicU64,
    charged_ns: AtomicU64,
    flops: AtomicU64,
    bytes: AtomicU64,
    queue_wait_ns: AtomicU64,
    batch_share_ppm: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    sheds: AtomicU64,
    degraded: AtomicU64,
    slo_violations: AtomicU64,
}

impl Meters {
    fn row(&self, fingerprint: u64) -> MeterRow {
        MeterRow {
            fingerprint,
            requests: self.requests.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            charged_ns: self.charged_ns.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Relaxed),
            batch_share_ppm: self.batch_share_ppm.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            slo_violations: self.slo_violations.load(Ordering::Relaxed),
        }
    }
}

/// What one finished request cost its tenant (integer units so the ledger
/// identity holds bitwise — see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MeterCharge {
    /// This member's exact share of the engine-charged nanoseconds.
    pub charged_ns: u64,
    /// This member's exact share of the attributed flops.
    pub flops: u64,
    /// This member's exact share of the attributed bytes (read + written).
    pub bytes: u64,
    /// Nanoseconds the request waited between admission and dequeue.
    pub queue_wait_ns: u64,
    /// Size of the coalesced group the request executed in (1 = serial).
    pub batch: u32,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the degraded (default-composition) path served it.
    pub degraded: bool,
}

/// Point-in-time snapshot of one tenant's meters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeterRow {
    /// The tenant's plan-signature fingerprint (`0` aggregates overflow
    /// tenants; in [`crate::Server::metering_totals`] it is the
    /// server-wide sum).
    pub fingerprint: u64,
    /// Requests completed for this tenant.
    pub requests: u64,
    /// Completed requests that executed inside a coalesced batch (size>1).
    pub batched_requests: u64,
    /// Exact engine-charged nanoseconds attributed to this tenant.
    pub charged_ns: u64,
    /// Exact flops attributed to this tenant.
    pub flops: u64,
    /// Exact bytes attributed to this tenant.
    pub bytes: u64,
    /// Total nanoseconds this tenant's requests spent queued.
    pub queue_wait_ns: u64,
    /// Accumulated `1e6 / batch` per request; divide by `requests` for the
    /// mean fraction of an execute this tenant's requests occupied.
    pub batch_share_ppm: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (selection + bind paid).
    pub cache_misses: u64,
    /// Requests shed before execution (queue full, tenant cap, ring race).
    pub sheds: u64,
    /// Requests served by the degraded path.
    pub degraded: u64,
    /// Completed requests that violated their SLO objective's threshold.
    pub slo_violations: u64,
}

impl MeterRow {
    /// Charged time in seconds.
    pub fn charged_seconds(&self) -> f64 {
        self.charged_ns as f64 / 1e9
    }

    /// Mean fraction of an execute occupied per request (1.0 = always
    /// serial, 0.125 = always riding 8-wide batches).
    pub fn mean_batch_share(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.batch_share_ppm as f64 / 1e6 / self.requests as f64
        }
    }

    /// Mean queue wait in milliseconds per completed request.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / 1e6 / self.requests as f64
        }
    }

    /// Cache hit rate over completed requests.
    pub fn hit_rate(&self) -> f64 {
        let looked = self.cache_hits + self.cache_misses;
        if looked == 0 {
            0.0
        } else {
            self.cache_hits as f64 / looked as f64
        }
    }
}

/// Point-in-time snapshot of one tenant's admission counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TenantRow {
    /// The tenant's fingerprint (`0` aggregates overflow tenants).
    pub fingerprint: u64,
    /// Requests currently queued for this tenant.
    pub queued: u64,
    /// Requests admitted over the server's lifetime.
    pub admitted: u64,
    /// Requests shed by the per-tenant bound.
    pub shed: u64,
}

/// Splits a group total exactly across `n` members: every member receives
/// `total / n` and member 0 (the group leader) absorbs the remainder, so
/// the shares always sum to `total` bitwise.
pub(crate) fn exact_share(total: u64, n: usize, member: usize) -> u64 {
    let n = n.max(1) as u64;
    let base = total / n;
    if member == 0 {
        base + total % n
    } else {
        base
    }
}

/// Lock-free per-tenant ledger (see module docs).
pub(crate) struct TenantLedger {
    /// `TENANT_SLOTS` claimable slots, then the overflow slot.
    admission: Box<[Admission]>,
    /// Indexed like `admission`.
    meters: Box<[Meters]>,
    /// Server-wide sums, fed the identical integers as the tenant slots.
    totals: Meters,
    /// Maximum queued requests per tenant.
    cap: u64,
}

impl TenantLedger {
    /// Builds a ledger bounding each tenant to `max(1, queue_depth × share)`
    /// queued requests. `share` is clamped to `[0, 1]`.
    pub(crate) fn new(queue_depth: usize, share: f64) -> Self {
        let share = share.clamp(0.0, 1.0);
        TenantLedger {
            admission: (0..=TENANT_SLOTS).map(|_| Admission::default()).collect(),
            meters: (0..=TENANT_SLOTS).map(|_| Meters::default()).collect(),
            totals: Meters::default(),
            cap: ((queue_depth as f64 * share).ceil() as u64).max(1),
        }
    }

    /// The per-tenant queued bound.
    pub(crate) fn cap(&self) -> u64 {
        self.cap
    }

    /// Finds (or claims, by CAS on the fingerprint itself) the slot for
    /// `fp`, falling back to the shared overflow slot when the probe window
    /// is exhausted. A claimed slot is never released, so the index stays
    /// valid for the request's whole life.
    pub(crate) fn tenant(&self, fp: u64) -> Tenant {
        if fp == 0 {
            return Tenant(OVERFLOW);
        }
        let start = (fp % TENANT_SLOTS as u64) as usize;
        for probe in 0..PROBE_LIMIT {
            let index = (start + probe) % TENANT_SLOTS;
            let slot = &self.admission[index].fp;
            match slot.load(Ordering::Acquire) {
                cur if cur == fp => return Tenant(index),
                0 => match slot.compare_exchange(0, fp, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Tenant(index),
                    Err(winner) if winner == fp => return Tenant(index),
                    Err(_) => {} // someone else's tenant; keep probing
                },
                _ => {}
            }
        }
        Tenant(OVERFLOW)
    }

    /// Attempts to admit one request for `tenant`: increments its queued
    /// count unless it is already at the bound. Returns whether the request
    /// may proceed to the queue push; on `false` the tenant's per-tenant
    /// shed counter has been bumped.
    pub(crate) fn try_admit(&self, tenant: Tenant) -> bool {
        let slot = &self.admission[tenant.0];
        let mut queued = slot.queued.load(Ordering::Relaxed);
        loop {
            if queued >= self.cap {
                slot.shed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match slot.queued.compare_exchange_weak(
                queued,
                queued + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    slot.admitted.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(q) => queued = q,
            }
        }
    }

    /// Releases one queued count for `tenant` — called when the request
    /// leaves the queue (worker dequeue).
    pub(crate) fn release(&self, tenant: Tenant) {
        // Saturating: a release without a matching admit is a logic error,
        // but wedging the counter at u64::MAX would be worse.
        let _ = self.admission[tenant.0].queued.fetch_update(
            Ordering::AcqRel,
            Ordering::Relaxed,
            |q| q.checked_sub(1),
        );
    }

    /// Undoes a successful [`TenantLedger::try_admit`] that never reached
    /// the queue (the push raced a full ring). The caller sheds the request
    /// as `queue_full`; it is not a per-tenant-bound shed.
    pub(crate) fn cancel_admit(&self, tenant: Tenant) {
        self.release(tenant);
        let _ = self.admission[tenant.0].admitted.fetch_update(
            Ordering::AcqRel,
            Ordering::Relaxed,
            |a| a.checked_sub(1),
        );
    }

    /// Meters one completed request for `tenant`. The same integers land
    /// in the tenant slot and the totals slot, so the ledger identity
    /// (sum of tenants == totals, bitwise) holds by construction.
    pub(crate) fn record(&self, tenant: Tenant, charge: &MeterCharge) {
        let batch = charge.batch.max(1);
        let share_ppm = 1_000_000 / u64::from(batch);
        for slot in [&self.meters[tenant.0], &self.totals] {
            slot.requests.fetch_add(1, Ordering::Relaxed);
            if batch > 1 {
                slot.batched_requests.fetch_add(1, Ordering::Relaxed);
            }
            slot.charged_ns
                .fetch_add(charge.charged_ns, Ordering::Relaxed);
            slot.flops.fetch_add(charge.flops, Ordering::Relaxed);
            slot.bytes.fetch_add(charge.bytes, Ordering::Relaxed);
            slot.queue_wait_ns
                .fetch_add(charge.queue_wait_ns, Ordering::Relaxed);
            slot.batch_share_ppm.fetch_add(share_ppm, Ordering::Relaxed);
            if charge.cache_hit {
                slot.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                slot.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            if charge.degraded {
                slot.degraded.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Meters one shed for `tenant` (the request never executed).
    pub(crate) fn note_shed(&self, tenant: Tenant) {
        self.meters[tenant.0].sheds.fetch_add(1, Ordering::Relaxed);
        self.totals.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Meters one SLO-objective violation for `tenant`.
    pub(crate) fn note_slo_violation(&self, tenant: Tenant) {
        self.meters[tenant.0]
            .slo_violations
            .fetch_add(1, Ordering::Relaxed);
        self.totals.slo_violations.fetch_add(1, Ordering::Relaxed);
    }

    /// The server-wide sums (fingerprint reads 0).
    pub(crate) fn totals(&self) -> MeterRow {
        self.totals.row(0)
    }

    /// Requests shed by the per-tenant bound, over every tenant.
    pub(crate) fn tenant_shed(&self) -> u64 {
        self.admission
            .iter()
            .map(|slot| slot.shed.load(Ordering::Relaxed))
            .sum()
    }

    /// Every tenant that saw traffic, as `(fingerprint, slot index)`:
    /// claimed slots in slot order, then the overflow aggregate once it has
    /// admitted, metered, or shed a request.
    fn active(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.admission
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| {
                let fp = slot.fp.load(Ordering::Acquire);
                let meters = &self.meters[index];
                let seen = fp != 0
                    || (index == OVERFLOW
                        && (slot.admitted.load(Ordering::Relaxed) > 0
                            || meters.requests.load(Ordering::Relaxed) > 0
                            || meters.sheds.load(Ordering::Relaxed) > 0));
                seen.then_some((fp, index))
            })
    }

    /// Visits the meters of every tenant that saw traffic without
    /// allocating — [`MeterRow`] is `Copy`. Built for the sampler thread's
    /// per-tenant timeline columns.
    pub(crate) fn for_each(&self, mut f: impl FnMut(MeterRow)) {
        for (fp, index) in self.active() {
            f(self.meters[index].row(fp));
        }
    }

    /// Meters of every tenant that saw traffic, ranked by charged time
    /// descending (the "top tenants" order), fingerprint ascending on ties.
    pub(crate) fn rows(&self) -> Vec<MeterRow> {
        let mut rows = Vec::new();
        self.for_each(|row| rows.push(row));
        rows.sort_by(|a, b| {
            b.charged_ns
                .cmp(&a.charged_ns)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        rows
    }

    /// Admission counters of the same tenants, sorted by fingerprint for
    /// stable status output.
    pub(crate) fn admission_rows(&self) -> Vec<TenantRow> {
        let mut rows: Vec<TenantRow> = self
            .active()
            .map(|(fingerprint, index)| {
                let slot = &self.admission[index];
                TenantRow {
                    fingerprint,
                    queued: slot.queued.load(Ordering::Relaxed),
                    admitted: slot.admitted.load(Ordering::Relaxed),
                    shed: slot.shed.load(Ordering::Relaxed),
                }
            })
            .collect();
        rows.sort_by_key(|r| r.fingerprint);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Claims `fp`'s slot and tries to admit one request for it.
    fn admit(ledger: &TenantLedger, fp: u64) -> bool {
        ledger.try_admit(ledger.tenant(fp))
    }

    fn admission_row(ledger: &TenantLedger, fp: u64) -> TenantRow {
        ledger
            .admission_rows()
            .into_iter()
            .find(|r| r.fingerprint == fp)
            .unwrap()
    }

    #[test]
    fn tenant_bound_sheds_only_the_hot_tenant() {
        // depth 8, share 0.5 → each tenant may hold 4 queued requests.
        let ledger = TenantLedger::new(8, 0.5);
        assert_eq!(ledger.cap(), 4);
        for _ in 0..4 {
            assert!(admit(&ledger, 0xaaaa));
        }
        assert!(!admit(&ledger, 0xaaaa), "hot tenant is at its bound");
        assert!(admit(&ledger, 0xbbbb), "other tenants are unaffected");
        ledger.release(ledger.tenant(0xaaaa));
        assert!(admit(&ledger, 0xaaaa), "released slot re-admits");
        let hot = admission_row(&ledger, 0xaaaa);
        assert_eq!(hot.admitted, 5);
        assert_eq!(hot.shed, 1);
        assert_eq!(hot.queued, 4);
        assert_eq!(ledger.tenant_shed(), 1);
    }

    #[test]
    fn share_floor_always_admits_one() {
        let ledger = TenantLedger::new(0, 0.5);
        assert_eq!(ledger.cap(), 1);
        assert!(admit(&ledger, 7));
        assert!(!admit(&ledger, 7));
    }

    #[test]
    fn cancel_admit_reverts_the_counters() {
        let ledger = TenantLedger::new(8, 1.0);
        assert!(admit(&ledger, 42));
        ledger.cancel_admit(ledger.tenant(42));
        let row = admission_row(&ledger, 42);
        assert_eq!(row.queued, 0);
        assert_eq!(row.admitted, 0);
        assert_eq!(row.shed, 0);
    }

    #[test]
    fn concurrent_admissions_never_exceed_the_bound() {
        let ledger = TenantLedger::new(64, 0.25); // cap 16
        let admitted = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ledger = &ledger;
                let admitted = &admitted;
                s.spawn(move || {
                    for _ in 0..100 {
                        if admit(ledger, 9) {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let row = admission_row(&ledger, 9);
        assert_eq!(row.queued, admitted.load(Ordering::Relaxed));
        assert!(row.queued <= ledger.cap());
        assert_eq!(row.admitted + row.shed, 400);
    }

    #[test]
    fn many_tenants_fall_back_to_the_overflow_aggregate() {
        let ledger = TenantLedger::new(1024, 1.0);
        // Far more distinct fingerprints than slots: everything still
        // admits, and the rows stay bounded.
        for fp in 1..=500u64 {
            assert!(admit(&ledger, fp));
        }
        let rows = ledger.admission_rows();
        assert!(rows.len() <= TENANT_SLOTS + 1);
        let total_queued: u64 = rows.iter().map(|r| r.queued).sum();
        assert_eq!(total_queued, 500);
    }

    #[test]
    fn one_claim_indexes_admission_and_meters() {
        let ledger = TenantLedger::new(8, 1.0);
        let tenant = ledger.tenant(0xabc);
        assert_eq!(ledger.tenant(0xabc), tenant, "a claim is stable");
        assert!(ledger.try_admit(tenant));
        ledger.record(
            tenant,
            &MeterCharge {
                charged_ns: 5,
                batch: 1,
                ..MeterCharge::default()
            },
        );
        ledger.note_shed(tenant);
        assert_eq!(admission_row(&ledger, 0xabc).admitted, 1);
        let meters = ledger.rows();
        assert_eq!(meters.len(), 1);
        assert_eq!(meters[0].fingerprint, 0xabc);
        assert_eq!((meters[0].requests, meters[0].sheds), (1, 1));
    }

    #[test]
    fn exact_share_sums_to_total_for_awkward_divisions() {
        for (total, n) in [
            (0u64, 1),
            (1, 3),
            (7, 3),
            (1_000_000_007, 8),
            (u64::MAX, 17),
        ] {
            let sum: u64 = (0..n)
                .map(|m| exact_share(total, n, m))
                .fold(0u64, |acc, s| acc.wrapping_add(s));
            assert_eq!(sum, total, "total {total} over {n} members");
            // The leader absorbs the remainder; everyone else is equal.
            for m in 1..n {
                assert_eq!(exact_share(total, n, m), total / n as u64);
            }
        }
    }

    #[test]
    fn tenant_sums_equal_totals_bitwise() {
        let ledger = TenantLedger::new(64, 1.0);
        // Three tenants, mixed batched/serial/degraded traffic with awkward
        // charge figures that would lose bits through f64 averaging.
        let mut expected_charged = 0u64;
        for (i, fp) in [0xaaaa_u64, 0xbbbb, 0xcccc].into_iter().enumerate() {
            let tenant = ledger.tenant(fp);
            for r in 0..5u64 {
                let total = 1_000_000_007 * (i as u64 + 1) + r;
                let n = [1usize, 3, 8][(r as usize) % 3];
                for member in 0..n {
                    let charge = MeterCharge {
                        charged_ns: exact_share(total, n, member),
                        flops: exact_share(total * 3, n, member),
                        bytes: exact_share(total * 5, n, member),
                        queue_wait_ns: r * 17,
                        batch: n as u32,
                        cache_hit: member % 2 == 0,
                        degraded: r == 4,
                    };
                    ledger.record(tenant, &charge);
                }
                expected_charged += total;
            }
        }
        ledger.note_shed(ledger.tenant(0xaaaa));
        ledger.note_slo_violation(ledger.tenant(0xbbbb));

        let rows = ledger.rows();
        let totals = ledger.totals();
        assert_eq!(totals.charged_ns, expected_charged, "no charge lost");
        for (sum, total) in [
            (
                rows.iter().map(|r| r.requests).sum::<u64>(),
                totals.requests,
            ),
            (rows.iter().map(|r| r.charged_ns).sum(), totals.charged_ns),
            (rows.iter().map(|r| r.flops).sum(), totals.flops),
            (rows.iter().map(|r| r.bytes).sum(), totals.bytes),
            (
                rows.iter().map(|r| r.queue_wait_ns).sum(),
                totals.queue_wait_ns,
            ),
            (
                rows.iter().map(|r| r.batch_share_ppm).sum(),
                totals.batch_share_ppm,
            ),
            (rows.iter().map(|r| r.cache_hits).sum(), totals.cache_hits),
            (
                rows.iter().map(|r| r.cache_misses).sum(),
                totals.cache_misses,
            ),
            (rows.iter().map(|r| r.sheds).sum(), totals.sheds),
            (rows.iter().map(|r| r.degraded).sum(), totals.degraded),
            (
                rows.iter().map(|r| r.slo_violations).sum(),
                totals.slo_violations,
            ),
        ] {
            assert_eq!(sum, total, "per-tenant sums equal server totals bitwise");
        }
    }

    #[test]
    fn rows_rank_by_charged_time_descending() {
        let ledger = TenantLedger::new(64, 1.0);
        for (fp, charged) in [(1u64, 10u64), (2, 30), (3, 20)] {
            ledger.record(
                ledger.tenant(fp),
                &MeterCharge {
                    charged_ns: charged,
                    batch: 1,
                    ..MeterCharge::default()
                },
            );
        }
        let order: Vec<u64> = ledger.rows().iter().map(|r| r.fingerprint).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn overflow_tenants_aggregate_and_stay_counted() {
        let ledger = TenantLedger::new(1024, 1.0);
        for fp in 1..=500u64 {
            ledger.record(
                ledger.tenant(fp),
                &MeterCharge {
                    charged_ns: 7,
                    batch: 1,
                    ..MeterCharge::default()
                },
            );
        }
        let rows = ledger.rows();
        assert!(
            rows.len() <= TENANT_SLOTS + 1,
            "bounded rows: {}",
            rows.len()
        );
        assert_eq!(
            rows.iter().map(|r| r.requests).sum::<u64>(),
            500,
            "overflow keeps every request counted"
        );
        assert_eq!(ledger.totals().charged_ns, 500 * 7);
    }

    #[test]
    fn concurrent_recording_preserves_the_ledger_identity() {
        let ledger = TenantLedger::new(64, 1.0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ledger = &ledger;
                s.spawn(move || {
                    for i in 0..250u64 {
                        ledger.record(
                            ledger.tenant(0x1000 + (i % 5)),
                            &MeterCharge {
                                charged_ns: t * 1_000 + i,
                                flops: i * 3,
                                bytes: i * 5,
                                queue_wait_ns: i,
                                batch: ((i % 4) + 1) as u32,
                                cache_hit: i % 2 == 0,
                                degraded: i % 7 == 0,
                            },
                        );
                    }
                });
            }
        });
        let rows = ledger.rows();
        let totals = ledger.totals();
        assert_eq!(totals.requests, 1000);
        assert_eq!(
            rows.iter().map(|r| r.charged_ns).sum::<u64>(),
            totals.charged_ns
        );
        assert_eq!(rows.iter().map(|r| r.flops).sum::<u64>(), totals.flops);
        assert_eq!(rows.iter().map(|r| r.bytes).sum::<u64>(), totals.bytes);
    }
}
