//! On-host time-series ring: a fixed-capacity buffer of periodic metric
//! samples — a mini-TSDB that needs no external collector.
//!
//! Snapshots ([`crate::MetricsSnapshot`], `ServerStatus`) answer "what is
//! the state *now*"; the flight recorder answers "what happened around this
//! request". Neither answers "what did the last two minutes look like" —
//! the question every dashboard and every incident review starts with. The
//! [`TimeSeriesRing`] closes that gap: a sampler captures a frame of named
//! columns (cumulative counters, point-in-time gauges, sketch quantiles)
//! every interval into a pre-allocated ring. The ring stores only raw
//! values, so sampling never loses information to a rate window chosen too
//! early; a reader differences counter columns if it wants rates.
//!
//! Steady-state sampling is allocation-free: frames are pre-sized at ring
//! construction and column registration reuses slots; the only allocations
//! after warm-up happen when a *new* column (e.g. a first-seen tenant)
//! registers. The ring is a single mutex — the sampler writes one frame per
//! interval and readers snapshot rarely, so there is nothing to contend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How a column's samples are interpreted at read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotone cumulative value.
    Counter,
    /// Point-in-time value (queue depth, quantile, hit rate).
    Gauge,
}

impl SampleKind {
    /// Stable lowercase name (`counter` / `gauge`).
    pub fn name(&self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
        }
    }
}

/// Opaque handle of a registered column, valid for the ring that issued it.
/// Cache it outside the sampling loop: registration takes the ring lock and
/// may allocate; recording through an id never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnId(usize);

struct Column {
    name: String,
    kind: SampleKind,
}

struct Frame {
    at_ns: u64,
    values: Vec<f64>,
}

struct RingInner {
    columns: Vec<Column>,
    frames: Vec<Frame>,
    written: u64,
}

/// Fixed-capacity ring of periodic samples (see module docs).
pub struct TimeSeriesRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl TimeSeriesRing {
    /// Creates a ring retaining the newest `capacity` frames (min 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        TimeSeriesRing {
            capacity,
            inner: Mutex::new(RingInner {
                columns: Vec::new(),
                frames: (0..capacity)
                    .map(|_| Frame {
                        at_ns: 0,
                        values: Vec::new(),
                    })
                    .collect(),
                written: 0,
            }),
        }
    }

    /// Registers (or finds) the column `name`, returning its id. The kind
    /// of an existing column wins; re-registration never re-types it.
    pub fn column(&self, name: &str, kind: SampleKind) -> ColumnId {
        let mut inner = self.lock();
        if let Some(idx) = inner.columns.iter().position(|c| c.name == name) {
            return ColumnId(idx);
        }
        inner.columns.push(Column {
            name: name.to_owned(),
            kind,
        });
        ColumnId(inner.columns.len() - 1)
    }

    /// Appends one frame at `at_ns` (nanoseconds on the caller's monotonic
    /// axis). Columns absent from `entries` — and columns registered after
    /// older frames were written — read as NaN/missing. Ids from another
    /// ring (out of range) are ignored.
    pub fn push(&self, at_ns: u64, entries: &[(ColumnId, f64)]) {
        let mut inner = self.lock();
        let ncols = inner.columns.len();
        let idx = (inner.written % self.capacity as u64) as usize;
        inner.written += 1;
        let frame = &mut inner.frames[idx];
        frame.at_ns = at_ns;
        frame.values.clear();
        frame.values.resize(ncols, f64::NAN);
        for &(ColumnId(col), value) in entries {
            if col < ncols {
                frame.values[col] = value;
            }
        }
    }

    /// [`TimeSeriesRing::push`] stamped with the process trace epoch clock
    /// (monotonic `Instant` anchored — immune to NTP steps).
    pub fn push_now(&self, entries: &[(ColumnId, f64)]) {
        self.push(crate::span::now_ns(), entries);
    }

    /// Frames currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.written.min(self.capacity as u64) as usize
    }

    /// Whether no frame has been written yet.
    pub fn is_empty(&self) -> bool {
        self.lock().written == 0
    }

    /// Frames ever written (wraparound = `written > capacity`).
    pub fn written(&self) -> u64 {
        self.lock().written
    }

    /// The ring capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Column-oriented copy of the retained frames, oldest-first.
    pub fn snapshot(&self) -> TimeSeriesSnapshot {
        let inner = self.lock();
        let take = inner.written.min(self.capacity as u64) as usize;
        // Oldest retained frame sits at `written % capacity` once wrapped.
        let start = inner.written as usize - take;
        let mut at_ns = Vec::with_capacity(take);
        let mut columns: Vec<ColumnSeries> = inner
            .columns
            .iter()
            .map(|c| ColumnSeries {
                name: c.name.clone(),
                kind: c.kind,
                values: Vec::with_capacity(take),
            })
            .collect();
        for i in 0..take {
            let frame = &inner.frames[(start + i) % self.capacity];
            at_ns.push(frame.at_ns);
            for (col, series) in columns.iter_mut().enumerate() {
                series
                    .values
                    .push(frame.values.get(col).copied().unwrap_or(f64::NAN));
            }
        }
        TimeSeriesSnapshot { at_ns, columns }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One column's raw samples, frame-aligned with
/// [`TimeSeriesSnapshot::at_ns`] (NaN where the frame predates the column
/// or skipped it).
#[derive(Debug, Clone)]
pub struct ColumnSeries {
    /// Column name.
    pub name: String,
    /// Counter or gauge.
    pub kind: SampleKind,
    /// Raw per-frame samples, oldest-first.
    pub values: Vec<f64>,
}

/// Point-in-time, column-oriented copy of the ring, oldest-first.
#[derive(Debug, Clone)]
pub struct TimeSeriesSnapshot {
    /// Per-frame timestamps (nanoseconds, monotonic axis), oldest-first.
    pub at_ns: Vec<u64>,
    /// Every registered column's frame-aligned samples.
    pub columns: Vec<ColumnSeries>,
}

impl TimeSeriesSnapshot {
    /// Retained frame count.
    pub fn frames(&self) -> usize {
        self.at_ns.len()
    }

    /// Finds a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnSeries> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// Owns a running sampler thread; stops (and joins) on
/// [`SamplerHandle::stop`] or drop.
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SamplerHandle {
    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Starts sampling: calls `sample` once on the caller's thread, so the
/// first frame exists when this returns, then spawns a thread that calls it
/// every `interval` (floored at 1ms) until stopped. The closure owns
/// whatever it samples — typically it reads counters/gauges/sketches and
/// pushes one frame into a captured [`TimeSeriesRing`]. Between samples the
/// thread parks until the next tick, so it wakes once per tick; stopping
/// unparks it, so a stop returns as soon as any sample in progress ends,
/// whatever the interval.
pub fn start_sampler<F>(interval: Duration, mut sample: F) -> SamplerHandle
where
    F: FnMut() + Send + 'static,
{
    sample();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let tick = interval.max(Duration::from_millis(1));
    let thread = std::thread::Builder::new()
        .name("granii-sampler".to_owned())
        .spawn(move || loop {
            let due = Instant::now() + tick;
            // A park can end early (an unpark, or spuriously): recheck the
            // flag and the deadline after every wake.
            loop {
                if flag.load(Ordering::Acquire) {
                    return;
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::park_timeout(due - now);
            }
            sample();
        })
        .expect("spawn granii-sampler thread");
    SamplerHandle {
        stop,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let ring = TimeSeriesRing::new(4);
        let c = ring.column("reqs", SampleKind::Counter);
        for i in 0..10u64 {
            ring.push(i * 1_000_000_000, &[(c, (i * 5) as f64)]);
        }
        assert_eq!(ring.written(), 10);
        assert_eq!(ring.len(), 4);
        let snap = ring.snapshot();
        assert_eq!(snap.frames(), 4);
        assert_eq!(
            snap.at_ns,
            vec![6_000_000_000, 7_000_000_000, 8_000_000_000, 9_000_000_000]
        );
        assert_eq!(snap.columns[0].values, vec![30.0, 35.0, 40.0, 45.0]);
    }

    #[test]
    fn late_columns_backfill_nan() {
        let ring = TimeSeriesRing::new(8);
        let a = ring.column("a", SampleKind::Counter);
        ring.push(0, &[(a, 10.0)]);
        let b = ring.column("b", SampleKind::Gauge);
        ring.push(1_000_000_000, &[(a, 4.0), (b, 0.5)]);
        ring.push(2_000_000_000, &[(a, 6.0), (b, 0.25)]);
        let snap = ring.snapshot();
        assert_eq!(snap.columns.len(), 2);
        assert!(
            snap.column("b").unwrap().values[0].is_nan(),
            "pre-registration frame is NaN"
        );
        assert_eq!(snap.column("a").unwrap().values, vec![10.0, 4.0, 6.0]);
    }

    #[test]
    fn snapshot_keeps_every_frame_before_the_ring_wraps() {
        let ring = TimeSeriesRing::new(8);
        let c = ring.column("x", SampleKind::Gauge);
        for i in 0..6u64 {
            ring.push(i, &[(c, i as f64)]);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.at_ns, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(snap.columns[0].values, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // Two more pushes fill it exactly; a third wraps onto frame 0.
        ring.push(6, &[(c, 6.0)]);
        ring.push(7, &[(c, 7.0)]);
        assert_eq!(ring.snapshot().at_ns, (0..8).collect::<Vec<_>>());
        ring.push(8, &[(c, 8.0)]);
        let snap = ring.snapshot();
        assert_eq!(snap.at_ns, (1..9).collect::<Vec<_>>());
        assert_eq!(snap.columns[0].values[0], 1.0);
    }

    #[test]
    fn foreign_column_ids_are_ignored() {
        let ring = TimeSeriesRing::new(2);
        ring.push(0, &[(ColumnId(7), 1.0)]);
        assert_eq!(ring.snapshot().columns.len(), 0);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn sampler_ticks_and_stops() {
        let ring = Arc::new(TimeSeriesRing::new(16));
        let col = ring.column("tick", SampleKind::Counter);
        let writer = Arc::clone(&ring);
        let mut n = 0u64;
        let handle = start_sampler(Duration::from_millis(2), move || {
            n += 1;
            writer.push_now(&[(col, n as f64)]);
        });
        assert!(
            ring.written() >= 1,
            "the first sample is taken before return"
        );
        while ring.written() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.stop();
        let after = ring.written();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(ring.written(), after, "stopped sampler writes nothing");
        let snap = ring.snapshot();
        let vals = &snap.column("tick").unwrap().values;
        assert!(
            vals.windows(2).all(|w| w[1] > w[0]),
            "monotone ticks: {vals:?}"
        );
    }

    #[test]
    fn stop_does_not_wait_for_the_next_tick() {
        let ring = Arc::new(TimeSeriesRing::new(4));
        let col = ring.column("tick", SampleKind::Counter);
        let writer = Arc::clone(&ring);
        let handle = start_sampler(Duration::from_secs(60), move || {
            writer.push_now(&[(col, 1.0)]);
        });
        // Let the thread reach its first park: a stop that does not unpark
        // it would then wait out the 60 s interval.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        handle.stop();
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(1), "stop took {waited:?}");
        assert_eq!(ring.written(), 1, "only the first sample ran");
    }
}
