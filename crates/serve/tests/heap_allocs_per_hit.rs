//! The heap-true count of a cache hit. `zero_alloc_hits.rs` proves that a
//! hit allocates no kernel buffer; this binary counts every heap allocation
//! in the process with a std-only counting `#[global_allocator]` and states
//! what a sequential hit costs in total: the request's reply slot, the
//! output block it hands back, and the per-request bookkeeping DESIGN.md §12
//! names.
//!
//! Single `#[test]` binary: the allocator counts process-wide, so no other
//! test may run beside it. The window minimum is asserted, not the mean,
//! because a timeline-sampler tick that lands inside a window assembles a
//! status and allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_matrix::device::DeviceKind;
use granii_serve::{ServeConfig, ServeRequest, Server};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System`, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counting touches
// one atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantee of a non-zero-size layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The stated heap-true cost of one sequential cache hit.
const MAX_ALLOCATIONS_PER_HIT: f64 = 5.0;
/// Sequential hits per measured window.
const HITS_PER_WINDOW: u64 = 20;
/// Measured windows; the least of them is asserted.
const WINDOWS: usize = 5;

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

    let mut per_hit = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..HITS_PER_WINDOW {
            let response = server.process(request()).expect("hit completes");
            assert!(response.cache_hit, "warmed signature must hit");
        }
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        per_hit.push(made as f64 / HITS_PER_WINDOW as f64);
    }
    server.shutdown();

    let least = per_hit.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!("heap allocations per hit, by window: {per_hit:?}");
    assert!(
        least <= MAX_ALLOCATIONS_PER_HIT,
        "a sequential cache hit made {least} heap allocations \
         (windows {per_hit:?}; stated bound {MAX_ALLOCATIONS_PER_HIT})"
    );
}
