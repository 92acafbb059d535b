//! Always-on flight recorder: a lock-free, bounded, overwriting ring of
//! fixed-size records every serve layer streams into.
//!
//! The admission queue ([`crossbeam::queue::ArrayQueue`]) is the wrong
//! shape for a black box: its pop is *destructive* and a full ring rejects
//! the producer. A flight recorder wants the opposite on both counts —
//! writers must never block or fail the request path (the newest record
//! overwrites the oldest), and readers must be able to photograph the ring
//! *without consuming it* (incident capture racing a metrics scrape must
//! not steal each other's records). So this is a separate primitive built
//! on the same Vyukov-style sequence-stamped slots:
//!
//! - A single atomic `next` counter hands every record a global, monotone
//!   index; the record lands in slot `index % capacity`.
//! - Each slot carries a seqlock stamp encoding both *which* index it holds
//!   and *whether a writer is mid-copy*: `0` = never written,
//!   `2·index + 1` = a writer is copying record `index` in,
//!   `2·index + 2` = record `index` is published.
//! - A writer CASes the slot from its observed even (quiescent) stamp to
//!   the odd "writing" stamp, memcpys the record, then publishes the even
//!   stamp. If the CAS fails — another lap's writer owns the slot right
//!   now — the record is **dropped** (monotone `dropped` counter), never
//!   torn and never blocked on. With a capacity of thousands this needs a
//!   writer to be descheduled for a full lap of the ring; drops are a
//!   counter you alert on, not an expected code path.
//! - A reader snapshots by, per slot: load stamp, copy the slot bytes,
//!   re-load the stamp. Equal even stamps mean the copy is a consistent
//!   published record (the classic seqlock validation); anything else means
//!   a writer interleaved and the slot is skipped — it will be a *newer*
//!   record on the next snapshot anyway.
//!
//! Records are `Copy` and fixed-size ([`FlightRecord`], ~120 B): the hot
//! path is one `fetch_add`, one CAS, one memcpy — no allocation, which is
//! what lets the recorder stay **always on** (unlike telemetry, which is
//! opt-in) and keep `serve/tests/zero_alloc_hits.rs` honest.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Member request ids tracked per batch-formation record. Groups larger
/// than this (max_batch above 8) still record their true `size`; only the
/// id list truncates.
pub const MAX_BATCH_MEMBERS: usize = 8;

/// What happened, with the fixed-size payload each record type carries.
/// Every variant is `Copy` — no heap, no strings beyond `&'static str`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordKind {
    /// Request accepted into the admission ring.
    Enqueue {
        /// Queue depth just after the push.
        depth: u32,
    },
    /// Request shed at admission.
    Shed {
        /// Queue depth at the shed decision.
        depth: u32,
        /// `"queue_full"` or `"tenant_cap"`.
        reason: &'static str,
    },
    /// A signature-coalesced batch group formed (including groups of one).
    BatchFormed {
        /// True group size.
        size: u32,
        /// How many leading member ids `members` holds.
        tracked: u32,
        /// Member request ids, first `tracked` valid.
        members: [u64; MAX_BATCH_MEMBERS],
    },
    /// Plan-cache hit for a group leader.
    CacheHit {
        /// Followers riding the same entry as shared hits.
        shared: u32,
    },
    /// Plan-cache miss: selection + bind ran.
    CacheMiss {
        /// Select + bind wall time in microseconds.
        select_us: u64,
        /// Whether the degraded (default-composition) path was taken.
        degraded: bool,
    },
    /// A cached plan was invalidated.
    CacheInvalidate {
        /// `"drift_flag"`, `"input_drift_flag"`, or `"model_swap"`.
        cause: &'static str,
    },
    /// Cost-model drift lane flagged the signature.
    DriftFlag {
        /// Smoothed ln(measured) − ln(predicted) residual at flag time.
        ewma_residual: f64,
    },
    /// Input-drift lane flagged the signature, with the offending
    /// `InputProfile` deltas.
    InputDriftFlag {
        /// Degree-band L1 distance at flag time.
        band_l1: f64,
        /// Absolute degree-CV delta at flag time.
        cv_delta: f64,
        /// Live (EWMA) degree CV.
        live_cv: f64,
        /// Selection-time reference degree CV.
        reference_cv: f64,
        /// Live (EWMA) average degree.
        live_avg_degree: f64,
    },
    /// An SLO window closed at or above the alert burn rate.
    SloBurn {
        /// Outcome class (`hit` / `miss` / `degraded`).
        outcome: &'static str,
        /// The closed window's burn rate.
        burn_rate: f64,
        /// The objective's latency threshold in milliseconds.
        threshold_ms: f64,
    },
    /// An SLO window closed back below the alert burn rate.
    SloRecover {
        /// Outcome class.
        outcome: &'static str,
        /// The closed window's burn rate.
        burn_rate: f64,
    },
    /// Sheds crossed the shed-storm threshold within the shed window.
    ShedStorm {
        /// Sheds counted inside the window.
        sheds: u64,
    },
    /// The request's deadline had expired when its batch group formed.
    DeadlineExpired,
    /// Request completed with a response.
    Complete {
        /// Outcome class (`hit` / `miss` / `degraded`).
        outcome: &'static str,
        /// Submit-to-reply latency in microseconds.
        latency_us: u64,
        /// Queue wait in microseconds: from the ring push until the
        /// request's batch group formed.
        queue_us: u64,
        /// Size of the batch group it executed in.
        batch: u32,
        /// Whether it fell back to the default composition.
        degraded: bool,
    },
    /// Request failed with an error.
    Failed,
    /// `Server::replace_granii` hot-swapped the models.
    ModelSwap,
    /// An incident bundle was captured.
    Incident {
        /// The bundle's incident number within this server (1-based).
        seq: u64,
        /// The triggering record's kind (`slo_burn` / `drift_flag` /
        /// `input_drift_flag` / `shed_storm`).
        trigger: &'static str,
    },
}

impl RecordKind {
    /// Stable snake_case name (bundle JSON, timeline rendering).
    pub fn name(&self) -> &'static str {
        match self {
            RecordKind::Enqueue { .. } => "enqueue",
            RecordKind::Shed { .. } => "shed",
            RecordKind::BatchFormed { .. } => "batch_formed",
            RecordKind::CacheHit { .. } => "cache_hit",
            RecordKind::CacheMiss { .. } => "cache_miss",
            RecordKind::CacheInvalidate { .. } => "cache_invalidate",
            RecordKind::DriftFlag { .. } => "drift_flag",
            RecordKind::InputDriftFlag { .. } => "input_drift_flag",
            RecordKind::SloBurn { .. } => "slo_burn",
            RecordKind::SloRecover { .. } => "slo_recover",
            RecordKind::ShedStorm { .. } => "shed_storm",
            RecordKind::DeadlineExpired => "deadline_expired",
            RecordKind::Complete { .. } => "complete",
            RecordKind::Failed => "failed",
            RecordKind::ModelSwap => "model_swap",
            RecordKind::Incident { .. } => "incident",
        }
    }
}

/// One flight-recorder record: fixed-size, `Copy`, no heap.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecord {
    /// Global monotone record index, stamped by the ring at record time.
    pub seq: u64,
    /// Microseconds since the process trace epoch, stamped at record time.
    pub ts_us: u64,
    /// Request id this record is about (0 when not request-scoped).
    pub id: u64,
    /// Plan-signature fingerprint (0 when not signature-scoped).
    pub fingerprint: u64,
    /// Model family name (`""` when not signature-scoped).
    pub model: &'static str,
    /// What happened.
    pub kind: RecordKind,
}

/// A server's ring capacity in records (each slot is ~120 bytes): roughly
/// the last 4096 serve moments.
pub const RECORDER_CAPACITY: usize = 4096;

/// Slot stamps: `0` never written, `2·idx + 1` writer mid-copy of record
/// `idx`, `2·idx + 2` record `idx` published.
struct Slot {
    stamp: AtomicU64,
    record: UnsafeCell<MaybeUninit<FlightRecord>>,
}

/// The always-on flight recorder (see module docs for the protocol).
pub struct FlightRecorder {
    /// Total records claimed (= published + dropped).
    next: AtomicU64,
    /// Records dropped because another lap's writer owned the slot.
    /// Monotone.
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

// SAFETY: slot payloads are `Copy` plain-old-data guarded by the seqlock
// stamp protocol — writers get exclusive slot access between the odd-stamp
// CAS and the even-stamp publish, and readers validate their copy against
// the stamp before trusting it.
unsafe impl Send for FlightRecorder {}
unsafe impl Sync for FlightRecorder {}

impl FlightRecorder {
    /// Creates a recorder with `capacity` slots (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    stamp: AtomicU64::new(0),
                    record: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever claimed (published + dropped). Monotone.
    pub fn written(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Records dropped because a lapped writer still owned the target slot.
    /// Monotone.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Streams one record into the ring and returns it as stamped. Never
    /// blocks, never allocates: one `fetch_add`, one CAS, one fixed-size
    /// copy. On the astronomically rare slot collision (a writer descheduled
    /// for a whole lap of the ring) the record is dropped and counted
    /// instead of torn; it is still returned, so an incident captured on it
    /// carries the same record either way.
    pub fn record(
        &self,
        id: u64,
        fingerprint: u64,
        model: &'static str,
        kind: RecordKind,
    ) -> FlightRecord {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        let record = FlightRecord {
            seq: idx,
            ts_us: granii_telemetry::now_us(),
            id,
            fingerprint,
            model,
            kind,
        };
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        let writing = 2 * idx + 1;
        let cur = slot.stamp.load(Ordering::Relaxed);
        // Claimable only when quiescent (even) and older than us. An odd
        // stamp is a mid-copy writer; a stamp beyond ours means a *later*
        // lap already owns the slot (we were descheduled for a full lap and
        // our record is stale either way).
        if cur % 2 == 1
            || cur > writing
            || slot
                .stamp
                .compare_exchange(cur, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return record;
        }
        // SAFETY: the successful odd-stamp CAS above gives this thread sole
        // write access to the slot until the publishing store below.
        unsafe { (*slot.record.get()).write(record) };
        slot.stamp.store(writing + 1, Ordering::Release);
        record
    }

    /// Non-destructive snapshot: every consistently-published record,
    /// sorted oldest-first by global index. Concurrent writers are fine —
    /// a slot mid-overwrite is skipped (its replacement shows up in the
    /// next snapshot); no record is ever consumed or torn.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or a writer is mid-copy
            }
            // SAFETY: seqlock read. The raw copy may race a writer — which
            // is why it goes through `read_volatile` into a `MaybeUninit`
            // that is only trusted after the stamp re-check proves no
            // writer touched the slot in between (same discipline as the
            // vendored ArrayQueue's cell protocol, reader-side).
            let copy = unsafe { std::ptr::read_volatile(slot.record.get()) };
            fence(Ordering::Acquire); // copy completes before the re-check
            let s2 = slot.stamp.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // a writer interleaved; skip the torn copy
            }
            // SAFETY: equal even stamps bracket the copy, so it is the
            // fully-published record the first load saw.
            out.push(unsafe { copy.assume_init() });
        }
        out.sort_unstable_by_key(|r| r.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_come_back_in_order_with_payloads() {
        let r = FlightRecorder::new(16);
        let stamped = r.record(7, 0xabc, "gcn", RecordKind::Enqueue { depth: 3 });
        r.record(
            8,
            0xabc,
            "gcn",
            RecordKind::Shed {
                depth: 64,
                reason: "queue_full",
            },
        );
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[0].id, 7);
        assert_eq!(snap[0].kind, RecordKind::Enqueue { depth: 3 });
        // `record` hands back exactly what the ring holds.
        assert_eq!(
            (stamped.seq, stamped.ts_us, stamped.id, stamped.kind),
            (snap[0].seq, snap[0].ts_us, snap[0].id, snap[0].kind)
        );
        assert_eq!(snap[1].kind.name(), "shed");
        assert_eq!(r.written(), 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_the_newest_capacity_records() {
        let cap = 8u64;
        let r = FlightRecorder::new(cap as usize);
        for i in 0..3 * cap {
            r.record(i, 0, "", RecordKind::Enqueue { depth: i as u32 });
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), cap as usize);
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (2 * cap..3 * cap).collect::<Vec<_>>());
        // Payloads track their seq (no slot served a stale lap).
        for rec in &snap {
            assert_eq!(rec.id, rec.seq);
        }
        assert_eq!(r.written(), 3 * cap);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let r = FlightRecorder::new(RECORDER_CAPACITY);
        r.record(1, 0, "", RecordKind::ModelSwap);
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.snapshot().len(), 1, "snapshot must not consume");
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn batch_formed_stays_the_largest_payload() {
        // Two u32 counts and the member ids, plus the discriminant: a
        // variant that outgrew this would grow every slot of the ring.
        assert_eq!(
            std::mem::size_of::<RecordKind>(),
            8 + 8 + 8 * MAX_BATCH_MEMBERS
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let r = FlightRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        r.record(0, 0, "", RecordKind::Failed);
        r.record(1, 0, "", RecordKind::Failed);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].seq, 1);
    }
}
