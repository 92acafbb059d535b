//! The kernel worker pool under concurrent callers, panics and nesting.
//!
//! Every parallel kernel in the process shares one helper pool, so each test
//! here holds `TEST_LOCK` to own it alone; the interleaving a test forces
//! (with barriers, never sleeps) then is the only one in flight. The spawn
//! count is checked by `parallel::tests::pool_spawns_its_helpers_once`,
//! which needs the crate-private counter.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;

use granii_matrix::parallel::{num_threads, par_rows, par_rows_weighted, PARALLEL_THRESHOLD};
use granii_matrix::{ops, DenseMatrix};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn own_pool() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Row pointer with a hub row, runs of empty rows and leaves.
fn skewed_indptr(rows: usize) -> Vec<u64> {
    let mut indptr = vec![0u64];
    for r in 0..rows {
        let degree = match r {
            0 => 50_000,
            r if r % 7 == 3 => 0,
            r if r % 11 == 0 => 40,
            _ => 2,
        };
        indptr.push(indptr[r] + degree);
    }
    indptr
}

/// Output row `r` of the weighted test kernel: depends on the row index and
/// its stored-entry count, so a row written by the wrong index shows.
fn weighted_row(indptr: &[u64], r: usize, row: &mut [f32]) {
    let nnz = (indptr[r + 1] - indptr[r]) as f32;
    for (j, v) in row.iter_mut().enumerate() {
        *v = ((r * 31 + j) as f32 * 0.25 + nnz).sqrt();
    }
}

/// Serial `i-k-j` GEMM with the kernel's zero-skip; `kernel_differential.rs`
/// proves `gemm_into` bitwise equal to it.
fn serial_gemm(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f32> {
    let (k1, k2) = (a.cols(), b.cols());
    let mut out = vec![0.0f32; a.rows() * k2];
    for (i, row) in out.chunks_exact_mut(k2).enumerate() {
        for k in 0..k1 {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            for (j, v) in row.iter_mut().enumerate() {
                *v += aik * b.get(k, j);
            }
        }
    }
    out
}

#[test]
fn concurrent_callers_match_serial_runs_bitwise() {
    let _pool = own_pool();
    let (rows, width) = (6_000, 16);
    let indptr = skewed_indptr(rows);
    let mut want_weighted = vec![0.0f32; rows * width];
    for (r, row) in want_weighted.chunks_exact_mut(width).enumerate() {
        weighted_row(&indptr, r, row);
    }
    let a = DenseMatrix::random(640, 48, 1.0, 7).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
    let b = DenseMatrix::random(48, 40, 1.0, 8);
    assert!(
        a.rows() * b.cols() >= PARALLEL_THRESHOLD,
        "gemm must be parallel-sized"
    );
    let want_gemm = serial_gemm(&a, &b);

    // The weighted call is inside its job from its first row to its last;
    // the gemm call starts after the first row and returns before the last,
    // so both callers are inside a parallel kernel at the same time.
    let started = Barrier::new(2);
    let finished = Barrier::new(2);
    let (got_weighted, got_gemm) = thread::scope(|s| {
        let weighted = s.spawn(|| {
            let mut out = vec![f32::NAN; rows * width];
            par_rows_weighted(&mut out, rows, width, &indptr, |r, row| {
                if r == 0 {
                    started.wait();
                }
                if r == rows - 1 {
                    finished.wait();
                }
                weighted_row(&indptr, r, row);
            });
            out
        });
        let gemm = s.spawn(|| {
            let mut out = DenseMatrix::zeros(a.rows(), b.cols()).unwrap();
            started.wait();
            ops::gemm_into(&a, &b, &mut out).unwrap();
            finished.wait();
            out
        });
        (weighted.join().unwrap(), gemm.join().unwrap())
    });
    assert_eq!(bits(&got_weighted), bits(&want_weighted));
    assert_eq!(bits(got_gemm.as_slice()), bits(&want_gemm));
}

#[test]
fn a_row_panic_reaches_the_caller_and_the_pool_stays_usable() {
    let _pool = own_pool();
    let (rows, width) = (4_096, 8);
    let mut out = vec![0.0f32; rows * width];
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        par_rows(&mut out, rows, width, |r, row| {
            if r == 1_234 {
                panic!("row 1234 is poisoned");
            }
            row.fill(r as f32);
        });
    }));
    let payload = caught.expect_err("the row panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("row 1234 is poisoned"),
        "the caller sees the original panic, not a generic one"
    );

    out.fill(f32::NAN);
    par_rows(&mut out, rows, width, |r, row| row.fill(r as f32));
    for (k, &v) in out.iter().enumerate() {
        assert_eq!(v, (k / width) as f32, "element {k}");
    }
}

#[test]
fn a_helper_panic_is_re_raised_on_the_caller() {
    let _pool = own_pool();
    if num_threads() < 2 {
        return; // no helpers: the test above covers the serial path
    }
    let (rows, width) = (4_096, 8);
    let caller = thread::current().id();
    let mut out = vec![0.0f32; rows * width];
    // The first and last rows lie in different chunks and meet at a
    // barrier, so two threads run them and at least one is a helper; each
    // helper among them panics. A pool that lost its helpers would block at
    // the barrier.
    let job = |poison: bool| {
        let meet = Barrier::new(2);
        move |r: usize, row: &mut [f32]| {
            if r == 0 || r == rows - 1 {
                meet.wait();
                if poison && thread::current().id() != caller {
                    panic!("helper row is poisoned");
                }
            }
            row.fill(r as f32);
        }
    };
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        par_rows(&mut out, rows, width, job(true));
    }));
    let payload = caught.expect_err("the helper's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("helper row is poisoned")
    );

    // The helper survived its panic and joins the next job.
    par_rows(&mut out, rows, width, job(false));
    for (k, &v) in out.iter().enumerate() {
        assert_eq!(v, (k / width) as f32);
    }
}

#[test]
fn a_kernel_called_from_a_row_closure_runs_inline() {
    let _pool = own_pool();
    let (rows, width) = (2_048, 16);
    let inner_rows = PARALLEL_THRESHOLD / width;
    let mut out = vec![f32::NAN; rows * width];
    par_rows(&mut out, rows, width, |r, row| {
        if r % 256 == 0 {
            // The outer call holds the pool until its last row, so the inner
            // call must take the inline fallback: every inner row runs on
            // the thread that made the call.
            let caller = thread::current().id();
            let mut inner = vec![f32::NAN; inner_rows * width];
            par_rows(&mut inner, inner_rows, width, |ir, irow| {
                assert_eq!(
                    thread::current().id(),
                    caller,
                    "inner row {ir} left its caller"
                );
                irow.fill((r + ir) as f32);
            });
            for (k, &v) in inner.iter().enumerate() {
                assert_eq!(v, (r + k / width) as f32);
            }
        }
        row.fill(r as f32);
    });
    for (k, &v) in out.iter().enumerate() {
        assert_eq!(v, (k / width) as f32);
    }
}
