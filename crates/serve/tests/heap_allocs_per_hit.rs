//! The heap-true count of a cache hit. `zero_alloc_hits.rs` proves that a
//! hit allocates no kernel buffer; this binary counts every heap allocation
//! in the process with a std-only counting `#[global_allocator]` and states
//! what a sequential hit costs in total: the request's reply slot, the
//! output block it hands back, and the per-request bookkeeping DESIGN.md §12
//! names.
//!
//! Single `#[test]` binary: the allocator counts process-wide, so no other
//! test may run beside it. The count is kept per thread, and two things a
//! hit window can overlap are left out of it: the timeline sampler's ticks
//! (its thread assembles a status and allocates, every 250 ms, whatever the
//! traffic) and windows in which an incident was captured (a slow build can
//! burn the hit latency objective, and the capture runs on the request
//! path). Every other window is one hit, and each must meet the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, Server};

/// Per-thread allocation counters: a thread takes the next slot on its
/// first allocation.
const SLOTS: usize = 64;
static COUNTS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts one allocation against the calling thread's slot (threads past
/// the last slot share it; the test asserts that none did).
fn count() {
    let slot = SLOT
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1));
            }
            slot.get()
        })
        .unwrap_or(SLOTS - 1);
    COUNTS[slot].fetch_add(1, Ordering::Relaxed);
}

/// Every slot's count so far.
fn counts() -> [u64; SLOTS] {
    std::array::from_fn(|slot| COUNTS[slot].load(Ordering::Relaxed))
}

/// `System`, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counting touches
// a const-initialized thread-local and one atomic, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantee of a non-zero-size layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The stated heap-true cost of one sequential cache hit.
const MAX_ALLOCATIONS_PER_HIT: u64 = 5;
/// Sequential hits, each its own window.
const HITS: usize = 60;
/// Windows without an incident capture that a run must measure.
const MIN_MEASURED: usize = 10;

/// The timestamp of the newest frame in the server's timeline ring.
fn newest_frame(server: &Server) -> u64 {
    // The snapshot ends with a frame read for this call; the ring's newest
    // frame is the one before it.
    let at_ns = server.timeline_snapshot().at_ns;
    at_ns[at_ns.len() - 2]
}

/// The timeline sampler's counter slot: while the server idles, its thread
/// is the only one besides this one that allocates. Watches two ticks.
fn sampler_slot(server: &Server) -> usize {
    let me = SLOT.with(Cell::get);
    let before = counts();
    let mut frame = newest_frame(server);
    for _ in 0..2 {
        while newest_frame(server) == frame {
            std::thread::sleep(Duration::from_millis(10));
        }
        frame = newest_frame(server);
    }
    let after = counts();
    let moved: Vec<usize> = (0..SLOTS)
        .filter(|&slot| slot != me && after[slot] != before[slot])
        .collect();
    assert_eq!(
        moved.len(),
        1,
        "only the timeline sampler may allocate while the server idles; slots {moved:?} did"
    );
    moved[0]
}

#[test]
fn a_sequential_cache_hit_makes_at_most_five_heap_allocations() {
    let granii = Arc::new(
        Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
            .expect("fast offline training"),
    );
    let graph = Arc::new(Dataset::Mycielskian17.load(Scale::Tiny).unwrap());
    let request = || ServeRequest::new(ModelKind::Gcn, graph.clone(), 64, 128);
    let server = Server::start(
        granii,
        ServeConfig {
            workers: 1,
            trace_sample_every: 0,
            ..ServeConfig::default()
        },
    );
    let warm = server.process(request()).expect("warm-up miss completes");
    assert!(!warm.cache_hit);
    drop(warm);
    let sampler = sampler_slot(&server);

    let mut measured = Vec::with_capacity(HITS);
    for _ in 0..HITS {
        let incidents = server.status().recorder.incidents;
        let start = counts();
        let response = server.process(request()).expect("hit completes");
        let end = counts();
        assert!(response.cache_hit, "warmed signature must hit");
        drop(response);
        if server.status().recorder.incidents == incidents {
            let made = (0..SLOTS).filter(|&slot| slot != sampler);
            measured.push(made.map(|slot| end[slot] - start[slot]).sum::<u64>());
        }
    }
    server.shutdown();

    eprintln!("heap allocations per hit: {measured:?}");
    assert!(
        NEXT_SLOT.load(Ordering::Relaxed) < SLOTS,
        "more threads allocated than there are counter slots"
    );
    assert!(
        measured.len() >= MIN_MEASURED,
        "only {} of {HITS} windows had no incident capture",
        measured.len()
    );
    assert!(
        measured.iter().all(|&made| made <= MAX_ALLOCATIONS_PER_HIT),
        "a sequential cache hit made more than {MAX_ALLOCATIONS_PER_HIT} heap \
         allocations: {measured:?}"
    );
}
