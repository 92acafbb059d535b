//! Multi-RHS (batched) kernels: the one body of each dense primitive.
//!
//! The serving runtime coalesces same-signature requests into one batched
//! execution: request `t`'s operand columns live in block `t` of a
//! column-stacked buffer (`rows × capacity·k`, block `t` occupying columns
//! `[t·k, (t+1)·k)`). Buffers are sized once for the widest batch
//! (`capacity`) and a batch of `batch ≤ capacity` touches only the leading
//! `batch` blocks, so steady-state batched execution allocates nothing.
//!
//! A batch of one on exact-shape buffers is the serial primitive: the
//! serial `gemm_into`, `spmm_into`, `row_broadcast_into` and
//! `col_broadcast_into` check exact shapes and call the kernel here at batch
//! one. Each block of a batched result therefore runs the very loop the
//! serial result for that request runs (same accumulation order, same
//! zero-skip, same identity fill) and is bitwise identical to it — the
//! correctness contract the serving tests assert.
//!
//! Parallelism remains deterministic: the schedulers split disjoint output
//! rows (with the stacked width, a batch crosses the parallel threshold
//! earlier — small graphs that ran serially per request parallelize across
//! the batch for free).

use crate::parallel::{par_row_blocks, par_rows, par_rows_weighted};
use crate::{CsrMatrix, DenseMatrix, MatrixError, Result, Semiring};

use super::rowkernel::{gemm_block, spmm_row, GemmTile, GEMM_ROW_BLOCK};
use super::BroadcastOp;

fn check_wide(op: &'static str, want_rows: usize, want_cols: usize, m: &DenseMatrix) -> Result<()> {
    if m.rows() != want_rows || m.cols() < want_cols {
        return Err(MatrixError::ShapeMismatch {
            op,
            lhs: (want_rows, want_cols),
            rhs: m.shape(),
        });
    }
    Ok(())
}

/// Block-batched GEMM: for every block `t < batch`,
/// `out[:, t·k2..(t+1)·k2] = a[:, t·k1..(t+1)·k1] · b`.
///
/// `a` and `out` are column-stacked batched buffers (at least `batch` blocks
/// wide); `b` is the shared (unbatched) `k1 × k2` right-hand side. Blocks of
/// four output rows run the register tile for each request in turn, with the instance chosen once per call: no zero-`aik` skip in the
/// vector loops when every entry of `b` is finite, AVX2 when the host has
/// it. [`gemm_into`](super::gemm_into) is this kernel at batch one.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `a` or `out` has fewer than
/// `batch` blocks or mismatched rows.
pub fn gemm_rhs_blocks_into(
    a: &DenseMatrix,
    b: &DenseMatrix,
    batch: usize,
    out: &mut DenseMatrix,
) -> Result<()> {
    let (k1, k2) = (b.rows(), b.cols());
    check_wide("gemm_rhs_blocks", a.rows(), batch * k1, a)?;
    check_wide("gemm_rhs_blocks_into", a.rows(), batch * k2, out)?;
    let width = out.cols();
    let tile = GemmTile::for_rhs(b);
    par_row_blocks(
        out.as_mut_slice(),
        a.rows(),
        width,
        GEMM_ROW_BLOCK,
        |r0, rows| {
            for t in 0..batch {
                gemm_block(tile, a, r0, t, b, rows, width);
            }
        },
    );
    Ok(())
}

/// Multi-column SpMM over the leading `active` columns of a wide
/// feature/output pair; [`spmm_into`](super::spmm_into) is this kernel over
/// every column.
///
/// One pass over the adjacency serves every stacked request: per edge the
/// column index and edge weight are loaded once and folded into all `active`
/// columns. Per column the fold sequence (edge order, identity, mean finish)
/// depends neither on `active` nor on where the vector strips fall, so each
/// request's block is bitwise equal to its result as a batch of one.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on row mismatches or buffers
/// narrower than `active`.
pub fn spmm_cols_into(
    adj: &CsrMatrix,
    feats: &DenseMatrix,
    active: usize,
    semiring: Semiring,
    out: &mut DenseMatrix,
) -> Result<()> {
    if adj.cols() != feats.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "spmm_cols",
            lhs: adj.shape(),
            rhs: feats.shape(),
        });
    }
    check_wide("spmm_cols", feats.rows(), active, feats)?;
    check_wide("spmm_cols_into", adj.rows(), active, out)?;
    let width = out.cols();
    // nnz-weighted scheduling: chunk boundaries follow the row-length
    // distribution, so a hub row costs one chunk instead of skewing a
    // 64-row chunk. The per-row kernel picks its band (short-row vs hub-row
    // strategy) from the same distribution; see `ops::rowkernel`.
    par_rows_weighted(
        out.as_mut_slice(),
        adj.rows(),
        width,
        adj.indptr(),
        |i, full_row| {
            spmm_row(
                &mut full_row[..active],
                adj.row_indices(i),
                adj.row_values(i),
                feats,
                semiring,
            );
        },
    );
    Ok(())
}

/// Multi-column row-broadcast: combines `d[i]` with the leading `active`
/// elements of row `i` (`d` is per-node, so one vector serves every stacked
/// request); [`row_broadcast_into`](super::row_broadcast_into) is this
/// kernel over every column.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on length/row mismatches or
/// buffers narrower than `active`.
pub fn row_broadcast_cols_into(
    d: &[f32],
    m: &DenseMatrix,
    active: usize,
    op: BroadcastOp,
    out: &mut DenseMatrix,
) -> Result<()> {
    if d.len() != m.rows() {
        return Err(MatrixError::ShapeMismatch {
            op: "row_broadcast_cols",
            lhs: (d.len(), 1),
            rhs: m.shape(),
        });
    }
    check_wide("row_broadcast_cols", m.rows(), active, m)?;
    check_wide("row_broadcast_cols_into", m.rows(), active, out)?;
    // Hoisted op dispatch: each arm monomorphizes a branch-free inner loop
    // that LLVM autovectorizes (same technique as `ops::rowkernel`).
    match op {
        BroadcastOp::Mul => row_broadcast_cols_run(d, m, active, out, |di, mv| di * mv),
        BroadcastOp::Add => row_broadcast_cols_run(d, m, active, out, |di, mv| di + mv),
    }
    Ok(())
}

#[inline(always)]
fn row_broadcast_cols_run<F: Fn(f32, f32) -> f32 + Sync>(
    d: &[f32],
    m: &DenseMatrix,
    active: usize,
    out: &mut DenseMatrix,
    f: F,
) {
    let width = out.cols();
    par_rows(out.as_mut_slice(), m.rows(), width, |i, full_row| {
        let di = d[i];
        for (v, &mv) in full_row[..active].iter_mut().zip(&m.row(i)[..active]) {
            *v = f(di, mv);
        }
    });
}

/// Block-batched column-broadcast: applies the shared per-column vector `d`
/// (length `k`, one request's column count) to every block:
/// `out[i, t·k + j] = op(d[j], m[i, t·k + j])` for `t < batch`;
/// [`col_broadcast_into`](super::col_broadcast_into) is this kernel at
/// batch one.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on row mismatches or buffers
/// narrower than `batch` blocks.
pub fn col_broadcast_blocks_into(
    m: &DenseMatrix,
    d: &[f32],
    batch: usize,
    op: BroadcastOp,
    out: &mut DenseMatrix,
) -> Result<()> {
    let k = d.len();
    check_wide("col_broadcast_blocks", m.rows(), batch * k, m)?;
    check_wide("col_broadcast_blocks_into", m.rows(), batch * k, out)?;
    match op {
        BroadcastOp::Mul => col_broadcast_blocks_run(m, d, batch, out, |dj, mv| dj * mv),
        BroadcastOp::Add => col_broadcast_blocks_run(m, d, batch, out, |dj, mv| dj + mv),
    }
    Ok(())
}

#[inline(always)]
fn col_broadcast_blocks_run<F: Fn(f32, f32) -> f32 + Sync>(
    m: &DenseMatrix,
    d: &[f32],
    batch: usize,
    out: &mut DenseMatrix,
    f: F,
) {
    let k = d.len();
    let width = out.cols();
    par_rows(out.as_mut_slice(), m.rows(), width, |i, full_row| {
        let m_row = m.row(i);
        for t in 0..batch {
            let base = t * k;
            for ((v, &mv), &dj) in full_row[base..base + k]
                .iter_mut()
                .zip(&m_row[base..base + k])
                .zip(d)
            {
                *v = f(dj, mv);
            }
        }
    });
}

/// Rows per run of the element-wise kernels when their buffers are exactly
/// `active` wide: one scheduler chunk, so parallel claiming is unchanged.
const RUN_ROWS: usize = 64;

/// Elements below which a contiguous element-wise pass stays on the calling
/// thread. At about one flop per element it is much cheaper per element than
/// the kernels [`crate::parallel::PARALLEL_THRESHOLD`] is set for: on a
/// 2-vCPU host a 32-column ReLU over 2,000 rows took 7 µs serially and 12 µs
/// on the pool, broke even at 8,000 rows, and won from 20,000 rows.
const FLAT_PARALLEL_ELEMS: usize = 1 << 18;

/// Runs `f(r, run)` over the leading `active` columns of `out`'s rows, `r`
/// being the first row of `run`; the elements a source `s` pairs with are
/// `&s.as_slice()[r * s.cols()..][..run.len()]`. When `flat` — `out` and
/// every source are exactly `active` wide, as at a batch of one on narrow
/// buffers — a run covers [`RUN_ROWS`] whole rows (the whole buffer, below
/// [`FLAT_PARALLEL_ELEMS`]), so an element-wise loop streams contiguously
/// instead of restarting on every short row, which doubled a 32-column ReLU
/// over 500 rows.
fn par_runs(
    out: &mut DenseMatrix,
    active: usize,
    flat: bool,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    if flat && out.as_slice().len() < FLAT_PARALLEL_ELEMS {
        return f(0, out.as_mut_slice());
    }
    let (rows, width) = out.shape();
    par_row_blocks(out.as_mut_slice(), rows, width, RUN_ROWS, |r0, block| {
        if flat {
            f(r0, block);
        } else {
            for (i, row) in block.chunks_exact_mut(width).enumerate() {
                f(r0 + i, &mut row[..active]);
            }
        }
    });
}

/// Multi-column element-wise map over the leading `active` columns
/// (the dense map a plan's ReLU lowers to).
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on row mismatches or buffers
/// narrower than `active`.
pub fn map_cols_into(
    m: &DenseMatrix,
    active: usize,
    f: impl Fn(f32) -> f32 + Sync,
    out: &mut DenseMatrix,
) -> Result<()> {
    check_wide("map_cols", m.rows(), active, m)?;
    check_wide("map_cols_into", m.rows(), active, out)?;
    let flat = m.cols() == active && out.cols() == active;
    par_runs(out, active, flat, |r, run| {
        for (v, &mv) in run.iter_mut().zip(&m.as_slice()[r * m.cols()..]) {
            *v = f(mv);
        }
    });
    Ok(())
}

/// Multi-column element-wise zip-accumulate over the leading `active`
/// columns: `dst[i, c] = f(dst[i, c], src[i, c])` (the in-place accumulation
/// a plan's `Add` lowers to).
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on row mismatches or buffers
/// narrower than `active`.
pub fn zip_cols_assign(
    dst: &mut DenseMatrix,
    src: &DenseMatrix,
    active: usize,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Result<()> {
    check_wide("zip_cols_src", dst.rows(), active, src)?;
    check_wide("zip_cols_dst", src.rows(), active, dst)?;
    let flat = src.cols() == active && dst.cols() == active;
    par_runs(dst, active, flat, |r, run| {
        for (v, &sv) in run.iter_mut().zip(&src.as_slice()[r * src.cols()..]) {
            *v = f(*v, sv);
        }
    });
    Ok(())
}

/// Copies the leading `active` columns of `src` into `dst` (the uncharged
/// seed copy a plan's `Add` starts from).
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] on row mismatches or buffers
/// narrower than `active`.
pub fn copy_cols_into(src: &DenseMatrix, active: usize, dst: &mut DenseMatrix) -> Result<()> {
    check_wide("copy_cols_src", dst.rows(), active, src)?;
    check_wide("copy_cols_dst", src.rows(), active, dst)?;
    let flat = src.cols() == active && dst.cols() == active;
    par_runs(dst, active, flat, |r, run| {
        run.copy_from_slice(&src.as_slice()[r * src.cols()..][..run.len()]);
    });
    Ok(())
}

/// Tiles `src` (`rows × k`) into the leading `batch` blocks of the wide
/// `dst`: `dst[i, t·k + j] = src[i, j]` for every `t < batch` — how the
/// shared per-signature feature matrix is stacked across a batch.
///
/// # Errors
///
/// Returns [`MatrixError::ShapeMismatch`] if `dst` has fewer than `batch`
/// blocks or mismatched rows.
pub fn tile_cols_into(src: &DenseMatrix, batch: usize, dst: &mut DenseMatrix) -> Result<()> {
    let k = src.cols();
    check_wide("tile_cols", src.rows(), batch * k, dst)?;
    let width = dst.cols();
    let rows = dst.rows();
    par_rows(dst.as_mut_slice(), rows, width, |i, full_row| {
        let s_row = src.row(i);
        for t in 0..batch {
            full_row[t * k..(t + 1) * k].copy_from_slice(s_row);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{col_broadcast_into, gemm_into, row_broadcast_into, spmm_into};
    use super::*;
    use crate::CooMatrix;

    fn wide(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        DenseMatrix::random(rows, cols, 1.0, seed)
    }

    fn block(src: &DenseMatrix, t: usize, k: usize) -> DenseMatrix {
        DenseMatrix::from_fn(src.rows(), k, |i, j| src.get(i, t * k + j))
    }

    fn sample_adj() -> CsrMatrix {
        CooMatrix::from_entries(
            5,
            5,
            &[
                (0, 1, 2.0),
                (0, 4, 3.0),
                (1, 0, 1.0),
                (2, 2, 4.0),
                (4, 3, 0.5),
            ],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn gemm_blocks_match_serial_bitwise() {
        let (k1, k2, batch, cap) = (4, 3, 3, 5);
        let a = wide(6, cap * k1, 1);
        let b = wide(k1, k2, 2);
        let mut out = DenseMatrix::from_vec(6, cap * k2, vec![f32::NAN; 6 * cap * k2]).unwrap();
        gemm_rhs_blocks_into(&a, &b, batch, &mut out).unwrap();
        for t in 0..batch {
            let a_t = block(&a, t, k1);
            let mut want = DenseMatrix::from_vec(6, k2, vec![0.0; 6 * k2]).unwrap();
            gemm_into(&a_t, &b, &mut want).unwrap();
            assert_eq!(block(&out, t, k2).as_slice(), want.as_slice(), "block {t}");
        }
        // Blocks beyond `batch` are untouched.
        assert!(block(&out, batch, k2).as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn spmm_cols_match_serial_bitwise() {
        let adj = sample_adj();
        let (k, batch, cap) = (3, 2, 4);
        let feats = wide(5, cap * k, 3);
        let mut out = DenseMatrix::from_vec(5, cap * k, vec![f32::NAN; 5 * cap * k]).unwrap();
        for semiring in [Semiring::plus_mul(), Semiring::mean_copy_rhs()] {
            spmm_cols_into(&adj, &feats, batch * k, semiring, &mut out).unwrap();
            for t in 0..batch {
                let f_t = block(&feats, t, k);
                let mut want = DenseMatrix::from_vec(5, k, vec![0.0; 5 * k]).unwrap();
                spmm_into(&adj, &f_t, semiring, &mut want).unwrap();
                assert_eq!(block(&out, t, k).as_slice(), want.as_slice(), "block {t}");
            }
        }
    }

    #[test]
    fn broadcasts_match_serial_bitwise() {
        let (k, batch, cap) = (3, 3, 4);
        let m = wide(4, cap * k, 7);
        let d_row: Vec<f32> = vec![0.5, -1.0, 2.0, 0.0];
        let d_col: Vec<f32> = vec![1.5, 0.0, -2.5];
        let mut out = DenseMatrix::from_vec(4, cap * k, vec![0.0; 4 * cap * k]).unwrap();
        row_broadcast_cols_into(&d_row, &m, batch * k, BroadcastOp::Mul, &mut out).unwrap();
        for t in 0..batch {
            let m_t = block(&m, t, k);
            let mut want = DenseMatrix::from_vec(4, k, vec![0.0; 4 * k]).unwrap();
            row_broadcast_into(&d_row, &m_t, BroadcastOp::Mul, &mut want).unwrap();
            assert_eq!(block(&out, t, k).as_slice(), want.as_slice());
        }
        col_broadcast_blocks_into(&m, &d_col, batch, BroadcastOp::Mul, &mut out).unwrap();
        for t in 0..batch {
            let m_t = block(&m, t, k);
            let mut want = DenseMatrix::from_vec(4, k, vec![0.0; 4 * k]).unwrap();
            col_broadcast_into(&m_t, &d_col, BroadcastOp::Mul, &mut want).unwrap();
            assert_eq!(block(&out, t, k).as_slice(), want.as_slice());
        }
    }

    #[test]
    fn map_zip_tile_and_extract_roundtrip() {
        let (k, batch, cap) = (2, 3, 4);
        let src = wide(3, k, 9);
        let mut tiled = DenseMatrix::from_vec(3, cap * k, vec![0.0; 3 * cap * k]).unwrap();
        tile_cols_into(&src, batch, &mut tiled).unwrap();
        for t in 0..batch {
            assert_eq!(block(&tiled, t, k).as_slice(), src.as_slice());
        }
        let mut mapped = DenseMatrix::from_vec(3, cap * k, vec![0.0; 3 * cap * k]).unwrap();
        map_cols_into(&tiled, batch * k, |v| v.max(0.0), &mut mapped).unwrap();
        for t in 0..batch {
            assert_eq!(
                block(&mapped, t, k).as_slice(),
                src.map(|v| v.max(0.0)).as_slice()
            );
        }
        let mut acc = DenseMatrix::from_vec(3, cap * k, vec![0.0; 3 * cap * k]).unwrap();
        copy_cols_into(&tiled, batch * k, &mut acc).unwrap();
        zip_cols_assign(&mut acc, &tiled, batch * k, |a, b| a + b).unwrap();
        for t in 0..batch {
            assert_eq!(
                block(&acc, t, k).as_slice(),
                src.add(&src).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn element_wise_kernels_match_the_definition_in_every_layout() {
        // Exact-width buffers take the flat runs (one serial pass below
        // FLAT_PARALLEL_ELEMS, row blocks above it); wider buffers go row by
        // row. Each must apply the element-wise definition to the active
        // columns and leave the others untouched.
        let big = FLAT_PARALLEL_ELEMS / 32 + 9;
        for (rows, k, cap, batch) in [(5, 3, 1, 1), (7, 3, 4, 2), (big, 32, 1, 1), (big, 8, 4, 3)] {
            let (width, active) = (cap * k, batch * k);
            let m = wide(rows, width, 11);
            let s = wide(rows, width, 12);
            let mut out = DenseMatrix::from_vec(rows, width, vec![f32::NAN; rows * width]).unwrap();
            let check = |out: &DenseMatrix, want: &dyn Fn(usize, usize) -> f32| {
                for i in 0..rows {
                    for c in 0..width {
                        let (got, want) = (out.get(i, c), want(i, c));
                        if c < active {
                            assert_eq!(got.to_bits(), want.to_bits(), "{rows}x{width} ({i}, {c})");
                        } else {
                            assert!(got.is_nan(), "{rows}x{width} wrote inactive ({i}, {c})");
                        }
                    }
                }
            };
            map_cols_into(&m, active, |v| v.max(0.0), &mut out).unwrap();
            check(&out, &|i, c| m.get(i, c).max(0.0));
            copy_cols_into(&m, active, &mut out).unwrap();
            check(&out, &|i, c| m.get(i, c));
            zip_cols_assign(&mut out, &s, active, |a, b| a + b).unwrap();
            check(&out, &|i, c| m.get(i, c) + s.get(i, c));
        }
    }

    #[test]
    fn narrow_buffers_are_rejected() {
        let a = wide(2, 4, 1);
        let b = wide(2, 2, 2);
        let mut out = DenseMatrix::from_vec(2, 2, vec![0.0; 4]).unwrap();
        assert!(gemm_rhs_blocks_into(&a, &b, 3, &mut out).is_err());
    }
}
