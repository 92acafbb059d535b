//! Host readings from `/proc`, the allocator policy and the counting
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `/proc` reports CPU times in USER_HZ ticks, which Linux fixes at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` file (fields 14 and
/// 15, counted after the parenthesised command name, which may hold
/// spaces).
fn stat_cpu_seconds(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let Some(after) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    // After ")" the fields start at field 3 (state); utime is field 14.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// CPU seconds the whole process has used.
pub fn process_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// Host-wide CPU ticks from `/proc/stat`: `(steal, total)`.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; guest
    // time is already inside user, so the total stops at steal.
    let total = values.iter().take(8).sum();
    (values.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Makes glibc's allocator keep the memory the program frees: one arena, no
/// trimming, and every allocation up to 32 MiB served from that heap. By
/// default freed heap goes back to the kernel at moments that depend on
/// which thread freed it, and the next request pays to fault the pages in
/// again: on `cold-churn` one request in seventeen did, and those requests
/// made most of its p99. Kept, the heap is reused and the timings measure
/// the program's own work. Call it first in `main`, before any thread
/// starts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn retain_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    for (name, param, value) in [
        ("M_ARENA_MAX", M_ARENA_MAX, 1),
        ("M_TRIM_THRESHOLD", M_TRIM_THRESHOLD, i32::MAX),
        ("M_MMAP_THRESHOLD", M_MMAP_THRESHOLD, 32 << 20),
    ] {
        // SAFETY: `mallopt` only sets an allocator tunable; it is called
        // before any other thread exists.
        if unsafe { mallopt(param, value) } != 1 {
            eprintln!("[perfbench] warning: mallopt({name}, {value}) was refused");
        }
    }
}

/// Other C libraries keep their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn retain_freed_memory() {}

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `System` allocator that counts allocations (and reallocations) and
/// their bytes, process-wide, while armed. Disarmed, it costs one relaxed
/// load per allocation.
pub struct Counting;

impl Counting {
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    /// Zeroes the counters and starts counting.
    pub fn arm() {
        ALLOCS.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Stops counting and returns `(allocations, bytes)` since [`Counting::arm`].
    pub fn disarm() -> (u64, u64) {
        ARMED.store(false, Ordering::SeqCst);
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
}

// SAFETY: every method forwards the caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counting touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: forwarded with the caller's guarantee of a non-zero-size layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` via this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
