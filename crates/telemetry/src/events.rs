//! Structured event log: discrete, timestamped records of things that
//! *happened* (a request was enqueued, shed, completed; a drift flag fired),
//! as opposed to spans, which measure how long things *took*.
//!
//! Events land in one global bounded sink (drop-oldest beyond
//! [`EVENT_CAPACITY`], with a dropped counter) so a long-running server
//! cannot grow without bound between collections. Recording is gated on
//! [`crate::enabled`], same as spans and metrics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::span::{now_us, AttrValue};

/// Maximum buffered events; older records are dropped (and counted) first.
pub const EVENT_CAPACITY: usize = 65_536;

/// One structured event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Event name (static, from the instrumentation point), e.g.
    /// `"serve.enqueue"`.
    pub name: &'static str,
    /// Timestamp in microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Key/value payload.
    pub fields: Vec<(&'static str, AttrValue)>,
}

struct Sink {
    events: VecDeque<EventRecord>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            events: VecDeque::new(),
        })
    })
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Records one event (no-op when telemetry is disabled). Prefer the
/// [`crate::event!`] macro, which skips field construction entirely on the
/// disabled path.
pub fn event_record(name: &'static str, fields: Vec<(&'static str, AttrValue)>) {
    if !crate::enabled() {
        return;
    }
    let record = EventRecord {
        name,
        ts_us: now_us(),
        fields,
    };
    let mut sink = sink().lock().unwrap_or_else(PoisonError::into_inner);
    if sink.events.len() >= EVENT_CAPACITY {
        sink.events.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    sink.events.push_back(record);
}

/// Drains every buffered event in record order.
pub fn take_events() -> Vec<EventRecord> {
    let mut sink = sink().lock().unwrap_or_else(PoisonError::into_inner);
    sink.events.drain(..).collect()
}

/// Copies every buffered event in record order **without draining**.
///
/// Incident capture snapshots the sink while a periodic `--events-out`
/// export loop may be draining it with [`take_events`]; a destructive read
/// from the capturer would make the exported log lose whatever the bundle
/// happened to grab first. Both callers hold the same sink lock, so each
/// sees a consistent prefix.
pub fn snapshot_events() -> Vec<EventRecord> {
    let sink = sink().lock().unwrap_or_else(PoisonError::into_inner);
    sink.events.iter().cloned().collect()
}

/// Events dropped (oldest-first) because the sink was at capacity.
pub fn events_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

pub(crate) fn clear_events() {
    sink()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .events
        .clear();
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tests share the global sink and the enable flag, so each holds
    /// this lock; the default harness runs tests on concurrent threads.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serialize() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn sink_is_bounded_and_counts_drops() {
        let _serial = serialize();
        crate::enable();
        clear_events();
        for i in 0..(EVENT_CAPACITY + 10) {
            event_record("t.bounded", vec![("i", AttrValue::U64(i as u64))]);
        }
        let events = take_events();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert!(events_dropped() >= 10);
        // The survivors are the newest records.
        match events.last().unwrap().fields[0].1 {
            AttrValue::U64(i) => assert_eq!(i as usize, EVENT_CAPACITY + 9),
            ref other => panic!("unexpected field {other:?}"),
        }
        clear_events();
        crate::disable();
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let _serial = serialize();
        crate::enable();
        clear_events();
        for i in 0..5u64 {
            event_record("t.snapshot", vec![("i", AttrValue::U64(i))]);
        }
        let snap = snapshot_events();
        assert_eq!(snap.iter().filter(|e| e.name == "t.snapshot").count(), 5);
        // The drain still sees everything the snapshot saw.
        let drained = take_events();
        assert_eq!(drained.iter().filter(|e| e.name == "t.snapshot").count(), 5);
        assert!(snapshot_events().is_empty());
        clear_events();
        crate::disable();
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _serial = serialize();
        crate::disable();
        event_record("t.disabled", Vec::new());
        assert!(take_events().iter().all(|e| e.name != "t.disabled"));
    }
}
