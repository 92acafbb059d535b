//! Span recording: RAII guards writing into per-thread buffers.
//!
//! Every thread owns an `Arc<Mutex<Vec<SpanRecord>>>` registered in a global
//! list; the recording path locks only the calling thread's own buffer, so
//! the mutex is uncontended unless a collector is draining concurrently
//! ("lock-free-ish"). Nesting depth and a per-thread entry sequence are
//! tracked in thread-locals, which lets exporters rebuild the span tree
//! without parent pointers.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute (counts, sizes).
    U64(u64),
    /// Floating-point attribute (seconds, ratios).
    F64(f64),
    /// String attribute (labels).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (static, from the instrumentation point).
    pub name: &'static str,
    /// Start time in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
    /// Nesting depth at entry (0 = thread root).
    pub depth: u16,
    /// Per-thread entry order (strictly increasing in span-open order).
    pub seq: u64,
    /// Key/value attributes attached via [`SpanGuard::attr`].
    pub attrs: Vec<(&'static str, AttrValue)>,
}

type Buffer = std::sync::Arc<Mutex<Vec<SpanRecord>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process trace epoch (the first telemetry
/// timestamp taken). Lets callers that assemble their own [`SpanRecord`]s —
/// e.g. the serving runtime's per-request trace lanes — place them on the
/// same timeline as [`span`]-recorded spans.
pub fn now_us() -> u64 {
    Instant::now().duration_since(epoch()).as_micros() as u64
}

/// Nanoseconds elapsed since the process trace epoch: the axis of
/// [`crate::TimeSeriesRing::push_now`] frames.
pub fn now_ns() -> u64 {
    Instant::now().duration_since(epoch()).as_nanos() as u64
}

/// Appends an externally assembled span record to the calling thread's
/// buffer (no-op when telemetry is disabled). [`take_spans`] returns it
/// alongside [`span`]-recorded spans; exporters treat both identically, so a
/// caller can synthesize lanes — e.g. one virtual `tid` per sampled request —
/// that Perfetto renders as separate tracks.
pub fn record_span(record: SpanRecord) {
    if !crate::enabled() {
        return;
    }
    with_local_buffer(|buffer| {
        buffer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record)
    });
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL_BUFFER: RefCell<Option<Buffer>> = const { RefCell::new(None) };
    static LOCAL_TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static LOCAL_DEPTH: Cell<u16> = const { Cell::new(0) };
    static LOCAL_SEQ: Cell<u64> = const { Cell::new(0) };
}

fn local_tid() -> u64 {
    LOCAL_TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn with_local_buffer(f: impl FnOnce(&Buffer)) {
    LOCAL_BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer: Buffer = std::sync::Arc::new(Mutex::new(Vec::new()));
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(std::sync::Arc::clone(&buffer));
            buffer
        });
        f(buffer);
    });
}

/// RAII span handle: records a [`SpanRecord`] when dropped (if recording).
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    started: Instant,
    start_us: u64,
    depth: u16,
    seq: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Opens a span named `name`. When telemetry is disabled this returns an
/// inert guard after a single relaxed atomic load — the zero-overhead path.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let started = Instant::now();
    let start_us = started.duration_since(epoch()).as_micros() as u64;
    let depth = LOCAL_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    let seq = LOCAL_SEQ.with(|s| {
        let seq = s.get();
        s.set(seq + 1);
        seq
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            started,
            start_us,
            depth,
            seq,
            attrs: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Whether this guard will record on drop. Use to gate attribute
    /// construction (the [`crate::span!`] macro does this automatically).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a key/value attribute (no-op on an inert guard).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(active) = &mut self.active {
            active.attrs.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_us = active.started.elapsed().as_micros() as u64;
        LOCAL_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let record = SpanRecord {
            name: active.name,
            start_us: active.start_us,
            dur_us,
            tid: local_tid(),
            depth: active.depth,
            seq: active.seq,
            attrs: active.attrs,
        };
        with_local_buffer(|buffer| {
            buffer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(record)
        });
    }
}

/// Drains every thread's completed spans, ordered by `(tid, seq)` — i.e. per
/// thread, in span-open order, parents before their children.
pub fn take_spans() -> Vec<SpanRecord> {
    let buffers: Vec<Buffer> = registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let mut out = Vec::new();
    for buffer in buffers {
        out.append(&mut buffer.lock().unwrap_or_else(PoisonError::into_inner));
    }
    out.sort_by_key(|r| (r.tid, r.seq));
    out
}

pub(crate) fn clear_spans() {
    let buffers: Vec<Buffer> = registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for buffer in buffers {
        buffer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}
