//! Minimal deterministic data parallelism for the kernels.
//!
//! Kernels parallelize over output rows with dynamic chunk claiming: the
//! participating threads pull row chunks from a shared cursor, which
//! balances the skewed per-row work of power-law graphs. Every output row is
//! written by exactly one thread, so results are bitwise identical to the
//! serial execution regardless of thread count or claiming order.
//!
//! The participants are the calling thread plus the helpers of one
//! process-wide pool of `num_threads() - 1` threads. The pool starts on the
//! first parallel call and its helpers park on a condvar between calls, so a
//! parallel call costs a wake-up, not a thread spawn and join. The pool runs
//! one call at a time: a caller that finds it busy (another thread's kernel,
//! or a kernel called from inside a row closure) claims every chunk itself
//! on its own thread, so concurrent callers never oversubscribe the helpers,
//! queue behind each other, or deadlock. A panic in any participant reaches
//! the caller after every participant has left the call, and the pool stays
//! usable.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Work threshold (in output elements) below which kernels stay serial:
/// a kernel this small runs about as long as it takes to wake a parked
/// helper (a futex wake-up and a context switch) and move its rows' cache
/// lines between cores, so splitting it cannot pay.
pub const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Hard ceiling on kernel worker threads. Applies to both the hardware
/// default and `GRANII_THREADS` overrides: the chunk-claiming kernels stop
/// scaling well past this on the target machines, and an uncapped override
/// (e.g. a copy-pasted `GRANII_THREADS=512`) would park that many pool
/// helpers for the life of the process and wake them all for every large
/// kernel call.
pub const MAX_THREADS: usize = 16;

/// Resolves the worker-thread count from an optional `GRANII_THREADS` value
/// and the machine's available parallelism. Returns the thread count plus a
/// warning message when the override was malformed and had to be ignored.
///
/// Both paths clamp to `1..=MAX_THREADS`. A value that fails to parse as a
/// positive integer (`"8x"`, `""`, `"0"`) is ignored with a warning rather
/// than silently falling back.
fn resolve_threads(env: Option<&str>, hardware: usize) -> (usize, Option<String>) {
    let default = hardware.clamp(1, MAX_THREADS);
    match env {
        None => (default, None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n.min(MAX_THREADS), None),
            _ => (
                default,
                Some(format!(
                    "granii: ignoring malformed GRANII_THREADS={raw:?} \
                     (expected an integer in 1..={MAX_THREADS}); using {default} threads"
                )),
            ),
        },
    }
}

/// Number of worker threads used by row-parallel kernels.
///
/// Defaults to the machine's available parallelism; override with the
/// `GRANII_THREADS` environment variable (read once). Both paths are capped
/// at [`MAX_THREADS`]; a malformed override logs one warning to stderr and
/// falls back to the default.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (n, warning) =
            resolve_threads(std::env::var("GRANII_THREADS").ok().as_deref(), hardware);
        if let Some(msg) = warning {
            eprintln!("{msg}");
        }
        n
    })
}

/// Rows grabbed per work-stealing step. Small enough to balance power-law
/// skew (a hub row can cost thousands of leaf rows), large enough to amortize
/// the atomic fetch.
const STEAL_CHUNK: usize = 64;

/// Runs `body(chunk)` exactly once for every chunk index in `0..num_chunks`,
/// and returns after every thread that took part has left.
///
/// This is the one parallel entry point behind all the schedulers below.
/// The calling thread and up to `num_threads() - 1` pool helpers claim
/// indices from one atomic cursor; with a single chunk, a single configured
/// thread or a busy pool the caller claims them all itself.
///
/// # Panics
///
/// Re-raises the first panic of `body`, after every participant has left.
fn for_each_chunk<F>(num_chunks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let cursor = AtomicUsize::new(0);
    // The cursor publishes no data (each participant reads only its own
    // claimed index), so `Relaxed` suffices; the rows written by helpers are
    // published to the caller through the pool's mutex (`Pool::run`).
    let claim = || loop {
        let chunk = cursor.fetch_add(1, Ordering::Relaxed);
        if chunk >= num_chunks {
            return;
        }
        body(chunk);
    };
    let helpers = num_threads().min(num_chunks).saturating_sub(1);
    if helpers == 0 {
        claim();
    } else {
        pool().run(helpers, &claim);
    }
}

/// Helper threads spawned by [`pool`] over the life of the process.
#[cfg(test)]
static HELPERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide helper pool, starting its `num_threads() - 1` helpers
/// on first use.
fn pool() -> &'static Pool {
    static POOL: Pool = Pool::new();
    static START: Once = Once::new();
    START.call_once(|| {
        let helpers = num_threads() - 1;
        for i in 0..helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("granii-kernel-{i}"))
                .spawn(|| POOL.serve());
            if let Err(err) = spawned {
                // Jobs only wait for helpers that joined, so a short pool
                // is slower, never wrong.
                eprintln!("granii: started {i} of {helpers} kernel pool helpers: {err}");
                break;
            }
            #[cfg(test)]
            HELPERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        }
    });
    &POOL
}

/// A pool of parked helper threads that run one job at a time alongside the
/// job's caller (its owner).
struct Pool {
    state: Mutex<PoolState>,
    /// Helpers park here between jobs.
    work: Condvar,
    /// A job's owner waits here for the helpers that joined it to leave.
    left: Condvar,
}

struct PoolState {
    /// The running job, stored from the moment its owner installs it until
    /// every helper that joined it has left; `Some` means the pool is busy.
    /// The `'static` lifetime is forged by `Pool::run`, which clears the
    /// field before the real borrow ends.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Bumped per job, so a helper joins each job at most once.
    epoch: u64,
    /// Helpers still allowed to join the running job.
    slots: usize,
    /// Helpers inside the running job.
    active: usize,
    /// The first panic raised by a helper inside the running job.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                slots: 0,
                active: 0,
                panic: None,
            }),
            work: Condvar::new(),
            left: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Jobs run outside the lock and nothing under it can panic, so a
        // poisoned guard still holds consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on the calling thread and on up to `helpers` helpers, and
    /// returns once every helper that joined has left. When another job
    /// holds the pool, runs `job` on the calling thread alone.
    ///
    /// # Panics
    ///
    /// Re-raises the caller's own panic or else the first helper's, after
    /// every helper that joined has left.
    fn run(&self, helpers: usize, job: &(dyn Fn() + Sync)) {
        let mut state = self.lock();
        if state.job.is_some() {
            drop(state);
            job();
            return;
        }
        // SAFETY: helpers copy `job` out of `state.job` only while it is
        // stored, and use it only between joining (`active += 1`) and
        // leaving (`active -= 1`), both under the lock. Below, this call
        // catches its own run's panic, waits on `left` until `active == 0`
        // and then clears `state.job` before it returns or re-raises, so no
        // thread can reach `job` — or the buffers it borrows — after this
        // call ends and the borrow with it.
        let erased =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(job) };
        state.job = Some(erased);
        state.epoch = state.epoch.wrapping_add(1);
        state.slots = helpers;
        drop(state);
        for _ in 0..helpers {
            self.work.notify_one();
        }

        let own = panic::catch_unwind(AssertUnwindSafe(job));

        let mut state = self.lock();
        state.slots = 0;
        while state.active > 0 {
            state = self
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let helper_panic = state.panic.take();
        drop(state);
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// A helper's life: park until a job with a free slot is installed, run
    /// it, leave, repeat.
    fn serve(&self) {
        let mut seen = 0u64;
        let mut state = self.lock();
        loop {
            match state.job {
                Some(job) if state.slots > 0 && state.epoch != seen => {
                    seen = state.epoch;
                    state.slots -= 1;
                    state.active += 1;
                    drop(state);
                    let result = panic::catch_unwind(AssertUnwindSafe(job));
                    state = self.lock();
                    if let Err(payload) = result {
                        if state.panic.is_none() {
                            state.panic = Some(payload);
                        }
                    }
                    state.active -= 1;
                    if state.active == 0 {
                        self.left.notify_one();
                    }
                }
                _ => {
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
    }
}

/// Runs `f(row_index, row_slice)` for every row of a `rows x width` row-major
/// buffer, in parallel with dynamic (work-stealing) row distribution.
///
/// The caller states the geometry explicitly: divisibility alone cannot catch
/// a transposed or otherwise wrong `width` that still divides the buffer, so
/// the buffer length is checked against `rows * width` exactly.
///
/// Static contiguous blocks starve under skewed per-row work — on a power-law
/// graph the thread owning the hub rows finishes last by far — so workers
/// instead claim `STEAL_CHUNK`-row chunks from a shared atomic cursor.
/// Each output element is still written by exactly one thread, so results
/// stay deterministic. Falls back to a serial loop when the buffer is small
/// or only one thread is configured. Degenerate geometry (`rows == 0` or
/// `width == 0`, with a correspondingly empty buffer) is a no-op.
///
/// # Panics
///
/// Panics if `out.len() != rows * width`; re-raises a panic of `f` once
/// every thread has left the call.
pub fn par_rows<F>(out: &mut [f32], rows: usize, width: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        rows * width,
        "buffer length must equal rows * width ({rows} * {width})"
    );
    if rows == 0 || width == 0 {
        return;
    }
    let threads = num_threads();
    if threads <= 1 || out.len() < PARALLEL_THRESHOLD {
        for (r, row) in out.chunks_exact_mut(width).enumerate() {
            f(r, row);
        }
        return;
    }

    // Hand each worker a raw view; disjointness is guaranteed by the unique
    // chunk indices handed out by the cursor.
    let base = out.as_mut_ptr() as usize;
    for_each_chunk(rows.div_ceil(STEAL_CHUNK), |chunk| {
        let start = chunk * STEAL_CHUNK;
        let end = (start + STEAL_CHUNK).min(rows);
        for r in start..end {
            // SAFETY: row `r` belongs exclusively to this chunk, and each
            // chunk index is claimed by exactly one thread, so no two threads
            // alias this slice. `out` stays borrowed until `for_each_chunk`
            // returns, which `Pool::run` delays until every helper has left.
            let row =
                unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(r * width), width) };
            f(r, row);
        }
    });
}

/// Flat per-row cost (in nnz-equivalents) charged by the weighted schedulers
/// on top of a row's stored-entry count: covers the fill of the output row
/// and the loop setup. Keeps runs of empty rows from collapsing into a single
/// unbounded chunk.
pub(crate) const ROW_BASE_COST: u64 = 4;

/// Work (in nnz-equivalents) per chunk claimed by the weighted schedulers.
/// A hub row heavier than this gets a chunk of its own; leaf rows are grouped
/// until their summed weight reaches it.
pub(crate) const CHUNK_WEIGHT: u64 = 4096;

/// First row `r` in `0..rows` whose cumulative weight
/// `indptr[r] + ROW_BASE_COST * r` reaches `target`, or `rows` if none does.
///
/// The weight is strictly increasing in `r`, so a binary search finds chunk
/// boundaries without materializing a prefix-sum vector — the weighted
/// schedulers stay allocation-free on the steady-state path.
fn weighted_bound(indptr: &[u64], target: u64) -> usize {
    let rows = indptr.len() - 1;
    let (mut lo, mut hi) = (0usize, rows);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if indptr[mid] + ROW_BASE_COST * mid as u64 >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// [`par_rows`] with nnz-weighted work partitioning for CSR-driven kernels.
///
/// `par_rows` hands out fixed 64-row chunks; on a power-law graph one chunk
/// can hold a hub row costing thousands of leaf rows, so row-count chunks
/// still skew badly. Here chunk boundaries are placed on the cumulative work
/// estimate `indptr[r] + ROW_BASE_COST * r` instead: every chunk carries
/// roughly `CHUNK_WEIGHT` nnz-equivalents, a hub row heavier than that gets
/// its own chunk, and runs of empty rows are bounded by `ROW_BASE_COST`.
/// Boundaries are found by binary search over `indptr` — no allocation.
///
/// Each row is written by exactly one thread and the per-row computation is
/// schedule-independent, so results are bitwise identical to serial
/// execution. The serial threshold counts `nnz * width` (the true work), not
/// just output elements.
///
/// # Panics
///
/// Panics if `out.len() != rows * width` or `indptr.len() != rows + 1`;
/// re-raises a panic of `f` once every thread has left the call.
pub fn par_rows_weighted<F>(out: &mut [f32], rows: usize, width: usize, indptr: &[u64], f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        rows * width,
        "buffer length must equal rows * width ({rows} * {width})"
    );
    assert_eq!(
        indptr.len(),
        rows + 1,
        "indptr length must equal rows + 1 ({rows} + 1)"
    );
    if rows == 0 || width == 0 {
        return;
    }
    let nnz = indptr[rows];
    let threads = num_threads();
    let work = (nnz as usize)
        .saturating_mul(width)
        .saturating_add(out.len());
    if threads <= 1 || work < PARALLEL_THRESHOLD {
        for (r, row) in out.chunks_exact_mut(width).enumerate() {
            f(r, row);
        }
        return;
    }

    let total = nnz + ROW_BASE_COST * rows as u64;
    let base = out.as_mut_ptr() as usize;
    for_each_chunk(total.div_ceil(CHUNK_WEIGHT) as usize, |chunk| {
        let start = weighted_bound(indptr, chunk as u64 * CHUNK_WEIGHT);
        let end = weighted_bound(indptr, (chunk as u64 + 1) * CHUNK_WEIGHT);
        for r in start..end {
            // SAFETY: the chunk ranges `[start, end)` partition the rows
            // (weighted_bound is monotone in the target) and each chunk index
            // is claimed by exactly one thread. `out` stays borrowed until
            // `for_each_chunk` returns, which `Pool::run` delays until every
            // helper has left.
            let row =
                unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(r * width), width) };
            f(r, row);
        }
    });
}

/// Runs `f(first_row, block_slice)` over consecutive `block`-row blocks of a
/// `rows x width` row-major buffer; the last block may be short.
///
/// This is the scheduler for register-tiled GEMM: the kernel wants several
/// consecutive output rows at once so it can reuse a loaded RHS row across
/// all of them. Blocks are aligned to multiples of `block` from row 0 in both
/// the serial and parallel paths (steal chunks are rounded up to a block
/// multiple), so the block grouping — and therefore any per-block code path —
/// is identical regardless of thread count.
///
/// # Panics
///
/// Panics if `block == 0` or `out.len() != rows * width`; re-raises a panic
/// of `f` once every thread has left the call.
pub fn par_row_blocks<F>(out: &mut [f32], rows: usize, width: usize, block: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(block >= 1, "block size must be at least 1");
    assert_eq!(
        out.len(),
        rows * width,
        "buffer length must equal rows * width ({rows} * {width})"
    );
    if rows == 0 || width == 0 {
        return;
    }
    let threads = num_threads();
    if threads <= 1 || out.len() < PARALLEL_THRESHOLD {
        let mut r0 = 0;
        while r0 < rows {
            let end = (r0 + block).min(rows);
            f(r0, &mut out[r0 * width..end * width]);
            r0 = end;
        }
        return;
    }

    let chunk_rows = STEAL_CHUNK.div_ceil(block) * block;
    let base = out.as_mut_ptr() as usize;
    for_each_chunk(rows.div_ceil(chunk_rows), |chunk| {
        let chunk_start = chunk * chunk_rows;
        let chunk_end = (chunk_start + chunk_rows).min(rows);
        let mut r0 = chunk_start;
        while r0 < chunk_end {
            let end = (r0 + block).min(chunk_end);
            // SAFETY: chunk boundaries are multiples of `block`, so blocks
            // never straddle chunks, and each chunk is claimed by exactly one
            // thread. `out` stays borrowed until `for_each_chunk` returns,
            // which `Pool::run` delays until every helper has left.
            let blk = unsafe {
                std::slice::from_raw_parts_mut(
                    (base as *mut f32).add(r0 * width),
                    (end - r0) * width,
                )
            };
            f(r0, blk);
            r0 = end;
        }
    });
}

/// Runs `f(row, row_values)` over the per-row value slices of a CSR matrix,
/// with the same nnz-weighted dynamic partitioning as [`par_rows_weighted`].
///
/// This is the scheduler for SDDMM-style kernels whose output *is* the CSR
/// value array: rows own disjoint `vals[indptr[r]..indptr[r+1]]` slices, so
/// every value is written by exactly one thread. `width_hint` states the
/// per-nonzero cost in flops (e.g. the dot-product length `k` for SDDMM) so
/// the serial threshold reflects actual work, not just nnz.
///
/// # Panics
///
/// Panics if `indptr` is empty or `vals.len()` disagrees with the final
/// `indptr` entry; re-raises a panic of `f` once every thread has left the
/// call.
pub fn par_sparse_rows<F>(vals: &mut [f32], indptr: &[u64], width_hint: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(!indptr.is_empty(), "indptr must have at least one entry");
    let rows = indptr.len() - 1;
    assert_eq!(
        vals.len() as u64,
        indptr[rows],
        "values length must equal the nnz recorded by indptr"
    );
    if rows == 0 {
        return;
    }
    let threads = num_threads();
    let work = vals.len().saturating_mul(width_hint.max(1));
    if threads <= 1 || work < PARALLEL_THRESHOLD {
        for r in 0..rows {
            f(r, &mut vals[indptr[r] as usize..indptr[r + 1] as usize]);
        }
        return;
    }

    let total = indptr[rows] + ROW_BASE_COST * rows as u64;
    let base = vals.as_mut_ptr() as usize;
    for_each_chunk(total.div_ceil(CHUNK_WEIGHT) as usize, |chunk| {
        let start = weighted_bound(indptr, chunk as u64 * CHUNK_WEIGHT);
        let end = weighted_bound(indptr, (chunk as u64 + 1) * CHUNK_WEIGHT);
        for r in start..end {
            let lo = indptr[r] as usize;
            let hi = indptr[r + 1] as usize;
            // SAFETY: rows own disjoint value ranges, chunk row ranges
            // partition the rows, and each chunk index is claimed by exactly
            // one thread. `vals` stays borrowed until `for_each_chunk`
            // returns, which `Pool::run` delays until every helper has left.
            let slice =
                unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(lo), hi - lo) };
            f(r, slice);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_visits_every_row_once() {
        let width = 8;
        let rows = 5000; // above the threshold
        let mut buf = vec![0.0f32; rows * width];
        par_rows(&mut buf, rows, width, |r, row| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (r * width + j) as f32;
            }
        });
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, k as f32);
        }
    }

    #[test]
    fn par_rows_serial_small_input() {
        let mut buf = vec![0.0f32; 12];
        par_rows(&mut buf, 4, 3, |r, row| {
            row.iter_mut().for_each(|v| *v = r as f32)
        });
        assert_eq!(
            buf,
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        );
    }

    #[test]
    fn par_rows_zero_width_is_noop() {
        let mut buf: Vec<f32> = vec![];
        par_rows(&mut buf, 7, 0, |_, _| panic!("must not be called"));
        par_rows(&mut buf, 0, 5, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "buffer length must equal rows * width")]
    fn par_rows_rejects_wrong_geometry() {
        // 12 elements reinterpreted as 6x2 instead of the true 4x3: the
        // length still divides, so only the explicit rows argument can catch
        // the mismatch against the stated 4-row geometry.
        let mut buf = vec![0.0f32; 12];
        par_rows(&mut buf, 4, 2, |_, _| {});
    }

    #[test]
    fn resolve_threads_defaults_and_caps_hardware() {
        assert_eq!(resolve_threads(None, 8), (8, None));
        assert_eq!(resolve_threads(None, 0), (1, None));
        let (n, warn) = resolve_threads(None, 128);
        assert_eq!((n, warn), (MAX_THREADS, None));
    }

    #[test]
    fn resolve_threads_env_override_is_capped() {
        assert_eq!(resolve_threads(Some("4"), 8), (4, None));
        assert_eq!(resolve_threads(Some(" 12 "), 2), (12, None));
        // The cap applies to the override path too, not just the default.
        let (n, warn) = resolve_threads(Some("512"), 8);
        assert_eq!(n, MAX_THREADS);
        assert!(
            warn.is_none(),
            "in-range-after-cap override is not an error"
        );
    }

    #[test]
    fn resolve_threads_warns_on_malformed_env() {
        for bad in ["8x", "", "abc", "-2", "0"] {
            let (n, warn) = resolve_threads(Some(bad), 8);
            assert_eq!(n, 8, "malformed {bad:?} must fall back to hardware");
            let msg = warn.expect("malformed input must produce a warning");
            assert!(msg.contains("GRANII_THREADS"), "warning names the var");
        }
    }

    #[test]
    fn par_rows_balances_skewed_work() {
        // A skewed workload: row 0 costs ~rows times more than the others.
        // With work stealing the wall time should be well under the serial
        // time; here we only assert correctness under skew (each row written
        // exactly once with its own index).
        let width = 4;
        let rows = 20_000;
        let mut buf = vec![-1.0f32; rows * width];
        par_rows(&mut buf, rows, width, |r, row| {
            let spin = if r == 0 { 20_000 } else { 1 };
            let mut acc = 0f32;
            for i in 0..spin {
                acc += (i % 7) as f32;
            }
            let _ = acc;
            row.iter_mut().for_each(|v| *v = r as f32);
        });
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, (k / width) as f32);
        }
    }

    /// indptr for a synthetic power-law-ish shape: one hub row carrying most
    /// of the nnz, a run of empty rows, and uniform leaf rows.
    fn skewed_indptr(rows: usize) -> Vec<u64> {
        let mut indptr = vec![0u64];
        let mut nnz = 0u64;
        for r in 0..rows {
            nnz += match r {
                0 => 50_000,            // hub
                r if r % 7 == 3 => 0,   // empty rows
                r if r % 11 == 0 => 40, // mid-degree
                _ => 2,                 // leaves
            };
            indptr.push(nnz);
        }
        indptr
    }

    #[test]
    fn weighted_bound_partitions_rows_exactly() {
        let indptr = skewed_indptr(9_000);
        let rows = indptr.len() - 1;
        let total = indptr[rows] + ROW_BASE_COST * rows as u64;
        let num_chunks = total.div_ceil(CHUNK_WEIGHT) as usize;
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for c in 0..num_chunks {
            let start = weighted_bound(&indptr, c as u64 * CHUNK_WEIGHT);
            let end = weighted_bound(&indptr, (c as u64 + 1) * CHUNK_WEIGHT);
            assert_eq!(start, prev_end, "chunks must tile the row range");
            assert!(end >= start);
            // No chunk may exceed its weight budget by more than one row's
            // worth of work (the row that crossed the boundary).
            if end > start {
                let weight = (indptr[end] - indptr[start]) + ROW_BASE_COST * (end - start) as u64;
                let last_row = (indptr[end] - indptr[end - 1]) + ROW_BASE_COST;
                assert!(
                    weight <= CHUNK_WEIGHT + last_row,
                    "chunk {c} weight {weight} exceeds budget"
                );
            }
            covered += end - start;
            prev_end = end;
        }
        assert_eq!(covered, rows, "every row assigned to exactly one chunk");
        assert_eq!(prev_end, rows);
    }

    #[test]
    fn par_rows_weighted_visits_every_row_once() {
        let indptr = skewed_indptr(9_000);
        let rows = indptr.len() - 1;
        let width = 8;
        let mut buf = vec![-1.0f32; rows * width];
        par_rows_weighted(&mut buf, rows, width, &indptr, |r, row| {
            assert_eq!(row.len(), width);
            row.iter_mut().for_each(|v| *v = r as f32);
        });
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, (k / width) as f32);
        }
    }

    #[test]
    fn par_rows_weighted_serial_small_input() {
        let indptr = vec![0u64, 2, 2, 5];
        let mut buf = vec![0.0f32; 9];
        par_rows_weighted(&mut buf, 3, 3, &indptr, |r, row| {
            row.iter_mut().for_each(|v| *v = r as f32)
        });
        assert_eq!(buf, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "indptr length must equal rows + 1")]
    fn par_rows_weighted_rejects_wrong_indptr() {
        let mut buf = vec![0.0f32; 12];
        par_rows_weighted(&mut buf, 4, 3, &[0, 1, 2], |_, _| {});
    }

    #[test]
    fn par_row_blocks_covers_all_rows_with_aligned_blocks() {
        let width = 4;
        let rows = 10_001; // not a multiple of the block: short tail block
        let block = 4;
        let mut buf = vec![-1.0f32; rows * width];
        par_row_blocks(&mut buf, rows, width, block, |r0, blk| {
            assert_eq!(r0 % block, 0, "blocks must stay aligned to row 0");
            let nrows = blk.len() / width;
            assert!(nrows >= 1 && nrows <= block);
            for (i, row) in blk.chunks_exact_mut(width).enumerate() {
                row.iter_mut().for_each(|v| *v = (r0 + i) as f32);
            }
        });
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, (k / width) as f32);
        }
    }

    #[test]
    fn par_row_blocks_serial_small_input() {
        let mut buf = vec![0.0f32; 10];
        par_row_blocks(&mut buf, 5, 2, 2, |r0, blk| {
            for (i, row) in blk.chunks_exact_mut(2).enumerate() {
                row.iter_mut().for_each(|v| *v = (r0 + i) as f32);
            }
        });
        assert_eq!(buf, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn par_sparse_rows_writes_each_value_once() {
        let indptr = skewed_indptr(9_000);
        let rows = indptr.len() - 1;
        let nnz = indptr[rows] as usize;
        let mut vals = vec![-1.0f32; nnz];
        par_sparse_rows(&mut vals, &indptr, 4, |r, slice| {
            assert_eq!(slice.len() as u64, indptr[r + 1] - indptr[r]);
            slice.iter_mut().for_each(|v| *v = r as f32);
        });
        for r in 0..rows {
            for &v in &vals[indptr[r] as usize..indptr[r + 1] as usize] {
                assert_eq!(v, r as f32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "values length must equal the nnz")]
    fn par_sparse_rows_rejects_wrong_values_length() {
        let mut vals = vec![0.0f32; 3];
        par_sparse_rows(&mut vals, &[0u64, 2, 4], 1, |_, _| {});
    }

    #[test]
    fn pool_spawns_its_helpers_once() {
        // Exactly at the threshold, so every call takes the parallel path.
        let width = 64;
        let rows = PARALLEL_THRESHOLD / width;
        let mut buf = vec![0.0f32; rows * width];
        for round in 0..1_000 {
            par_rows(&mut buf, rows, width, |r, row| row.fill((r + round) as f32));
        }
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, (k / width + 999) as f32);
        }
        assert_eq!(
            HELPERS_SPAWNED.load(Ordering::Relaxed),
            num_threads() - 1,
            "helpers are spawned once per process, not per call"
        );
    }
}
