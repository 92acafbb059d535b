//! Shared per-row kernels behind the hot `_into` primitives.
//!
//! The multi-RHS kernels `spmm_cols_into` and `gemm_rhs_blocks_into` run
//! these row kernels, and the serial `spmm_into` / `gemm_into` are those
//! kernels at batch one, so the serial and batched forms are the same code
//! by construction — the batched-bitwise-identity contract falls out
//! structurally instead of being re-proven per kernel.
//!
//! Every kernel runs [`F32x8`] register tiles over the feature/column
//! dimension, with a per-row *banding* choice for SpMM — short rows (≤
//! [`SHORT_ROW_EDGES`] stored edges) use single-vector column strips so the
//! accumulator load/store overhead stays proportional to their work, hub rows
//! use [`SPMM_COL_TILE`]-vector strips that keep a full column tile in
//! registers across all of the row's edges. Scalar loops (semiring dispatch
//! hoisted into monomorphized closures, exact-length `zip`s) remain only as
//! tails — rows narrower than [`LANES`] and the columns left over after the
//! last full vector — and as the in-crate test oracles
//! (`spmm_row_scalar`, `gemm_row_scalar`, `dot_scalar`).
//!
//! Because SpMM/GEMM vectorize across *columns* while keeping the exact
//! per-element fold order over edges/`k`, the vector kernels are **bitwise
//! identical** to the scalar oracles for every semiring; the band choice can
//! never change a result, only its speed. GEMM picks one instance of its
//! register tile per call ([`GemmTile`]): its vector loops keep the scalar
//! row's zero-`aik` skip only when B holds ±inf or NaN, the one case where
//! the skip changes bits, and on x86_64 hosts with AVX2 the same tile runs
//! compiled for AVX2. Neither choice changes a result either. The one
//! documented exception is the SDDMM [`dot`], whose horizontal reduction is
//! a fixed tree rather than a left fold (see `tests/kernel_differential.rs`).

use crate::simd::{F32x8, LANES};
use crate::{DenseMatrix, MulOp, ReduceOp, Semiring};

/// Rows with at most this many stored edges take the short-row band
/// (single-vector column strips); heavier rows take the hub band
/// ([`SPMM_COL_TILE`]-vector strips). With fewer edges than this the wide
/// tile's accumulator traffic costs more than the folds it amortizes.
pub(crate) const SHORT_ROW_EDGES: usize = 4;

/// Column-tile width of the hub-row SpMM band, in [`F32x8`] registers
/// (4 × 8 = 32 columns per strip): enough independent accumulator chains to
/// hide FMA latency, small enough to leave registers for the loaded feature
/// vectors.
pub(crate) const SPMM_COL_TILE: usize = 4;

/// Output rows per register-tiled GEMM block: each loaded RHS vector is
/// reused across this many A-rows, cutting B-traffic 4x versus row-at-a-time.
pub(crate) const GEMM_ROW_BLOCK: usize = 4;

/// Column-tile width of the register-tiled GEMM, in [`F32x8`] registers.
/// With [`GEMM_ROW_BLOCK`] rows this makes a 4×16 accumulator tile: 8 vector
/// registers of accumulators + 2 of loaded B, within the 16-register x86-64
/// baseline budget.
pub(crate) const GEMM_COL_TILE: usize = 2;

// ---------------------------------------------------------------------------
// g-SpMM row kernel
// ---------------------------------------------------------------------------

/// Computes one output row of g-SpMM: `out_row[c] = ⊕_e ( edge_e ⊗
/// feats[col_e, c] )`, exactly as `spmm_into` documents, with the Mean
/// finish applied. `feats` rows may be wider than `out_row` (batched wide
/// buffers); only the leading `out_row.len()` columns are read.
#[inline]
pub(crate) fn spmm_row(
    out_row: &mut [f32],
    cols: &[u32],
    vals: Option<&[f32]>,
    feats: &DenseMatrix,
    semiring: Semiring,
) {
    let reduce = semiring.reduce;
    let count = cols.len();
    if count == 0 {
        // Identity-finished empty rows (0 for every reduce op).
        out_row.fill(reduce.finish(reduce.identity(), 0));
        return;
    }
    out_row.fill(reduce.identity());
    // Hoisted weighted/unweighted split: the Option is tested once per row,
    // not once per edge, and a mul that never reads the edge value drops the
    // value stream entirely.
    match vals.filter(|_| semiring.mul.reads_edge()) {
        Some(vs) => with_mul(
            out_row,
            vs.iter().copied().zip(cols.iter().copied()),
            count,
            feats,
            semiring.mul,
            reduce,
        ),
        None => with_mul(
            out_row,
            cols.iter().map(|&j| (1.0f32, j)),
            count,
            feats,
            semiring.mul,
            reduce,
        ),
    }
    if matches!(reduce, ReduceOp::Mean) {
        for v in out_row.iter_mut() {
            *v = reduce.finish(*v, count);
        }
    }
}

/// Scalar-only variant of [`spmm_row`]: the in-crate differential oracle the
/// unit tests compare [`spmm_row`] against (the integration suite in
/// `tests/kernel_differential.rs` uses an independent naive reference).
#[cfg(test)]
#[inline]
pub(crate) fn spmm_row_scalar(
    out_row: &mut [f32],
    cols: &[u32],
    vals: Option<&[f32]>,
    feats: &DenseMatrix,
    semiring: Semiring,
) {
    let reduce = semiring.reduce;
    let mul = semiring.mul;
    let count = cols.len();
    if count == 0 {
        out_row.fill(reduce.finish(reduce.identity(), 0));
        return;
    }
    out_row.fill(reduce.identity());
    for (e, &j) in cols.iter().enumerate() {
        let edge = if mul.reads_edge() {
            vals.map_or(1.0, |v| v[e])
        } else {
            1.0
        };
        let frow = &feats.row(j as usize)[..out_row.len()];
        for (v, &fv) in out_row.iter_mut().zip(frow) {
            *v = reduce.fold(*v, mul.apply(edge, fv));
        }
    }
    if matches!(reduce, ReduceOp::Mean) {
        for v in out_row.iter_mut() {
            *v = reduce.finish(*v, count);
        }
    }
}

/// Dispatches the `⊗` operator into monomorphized scalar + vector closures.
#[inline(always)]
fn with_mul<I>(
    out_row: &mut [f32],
    edges: I,
    count: usize,
    feats: &DenseMatrix,
    mul: MulOp,
    reduce: ReduceOp,
) where
    I: Iterator<Item = (f32, u32)> + Clone,
{
    match mul {
        MulOp::Mul => with_reduce(
            out_row,
            edges,
            count,
            feats,
            reduce,
            |e, f| e * f,
            |e: F32x8, f: F32x8| e * f,
        ),
        MulOp::CopyRhs => with_reduce(out_row, edges, count, feats, reduce, |_, f| f, |_, f| f),
        MulOp::CopyEdge => with_reduce(out_row, edges, count, feats, reduce, |e, _| e, |e, _| e),
        MulOp::Add => with_reduce(
            out_row,
            edges,
            count,
            feats,
            reduce,
            |e, f| e + f,
            |e: F32x8, f: F32x8| e + f,
        ),
    }
}

/// Dispatches the `⊕` operator; Sum and Mean share the add fold (Mean's
/// divide happens in the caller's finish pass).
#[inline(always)]
fn with_reduce<I, M, MV>(
    out_row: &mut [f32],
    edges: I,
    count: usize,
    feats: &DenseMatrix,
    reduce: ReduceOp,
    m: M,
    mv: MV,
) where
    I: Iterator<Item = (f32, u32)> + Clone,
    M: Fn(f32, f32) -> f32,
    MV: Fn(F32x8, F32x8) -> F32x8,
{
    match reduce {
        ReduceOp::Sum | ReduceOp::Mean => fold_row(
            out_row,
            edges,
            count,
            feats,
            &m,
            &mv,
            &|a, v| a + v,
            &|a: F32x8, v: F32x8| a + v,
        ),
        ReduceOp::Max => fold_row(
            out_row,
            edges,
            count,
            feats,
            &m,
            &mv,
            &|a: f32, v: f32| a.max(v),
            &|a: F32x8, v: F32x8| a.max(v),
        ),
        ReduceOp::Min => fold_row(
            out_row,
            edges,
            count,
            feats,
            &m,
            &mv,
            &|a: f32, v: f32| a.min(v),
            &|a: F32x8, v: F32x8| a.min(v),
        ),
    }
}

/// The monomorphized row fold: banded vector strips, with a scalar fold for
/// rows narrower than one vector and for the remainder columns.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fold_row<I, M, MV, R, RV>(
    out_row: &mut [f32],
    edges: I,
    count: usize,
    feats: &DenseMatrix,
    m: &M,
    mv: &MV,
    r: &R,
    rv: &RV,
) where
    I: Iterator<Item = (f32, u32)> + Clone,
    M: Fn(f32, f32) -> f32,
    MV: Fn(F32x8, F32x8) -> F32x8,
    R: Fn(f32, f32) -> f32,
    RV: Fn(F32x8, F32x8) -> F32x8,
{
    let k = out_row.len();
    if k < LANES {
        fold_cols_scalar(out_row, 0, edges, feats, m, r);
        return;
    }
    let mut c = 0;
    if count > SHORT_ROW_EDGES {
        // Hub band: wide column strips, a full register tile per pass.
        while c + SPMM_COL_TILE * LANES <= k {
            fold_strip::<SPMM_COL_TILE, _, _, _>(out_row, c, edges.clone(), feats, mv, rv);
            c += SPMM_COL_TILE * LANES;
        }
    }
    // Short-row band / wide-band remainder: single-vector strips.
    while c + LANES <= k {
        fold_strip::<1, _, _, _>(out_row, c, edges.clone(), feats, mv, rv);
        c += LANES;
    }
    if c < k {
        let (_, tail) = out_row.split_at_mut(c);
        fold_cols_scalar(tail, c, edges, feats, m, r);
    }
}

/// Folds every edge into an `NV`-vector column strip starting at column `c`.
/// Edges run in storage order per element, so results match the scalar fold
/// bitwise.
#[inline(always)]
fn fold_strip<const NV: usize, I, MV, RV>(
    out_row: &mut [f32],
    c: usize,
    edges: I,
    feats: &DenseMatrix,
    mv: &MV,
    rv: &RV,
) where
    I: Iterator<Item = (f32, u32)>,
    MV: Fn(F32x8, F32x8) -> F32x8,
    RV: Fn(F32x8, F32x8) -> F32x8,
{
    let mut acc = [F32x8::splat(0.0); NV];
    for (g, a) in acc.iter_mut().enumerate() {
        *a = F32x8::load(&out_row[c + g * LANES..]);
    }
    for (ev, j) in edges {
        let evv = F32x8::splat(ev);
        let frow = feats.row(j as usize);
        for (g, a) in acc.iter_mut().enumerate() {
            *a = rv(*a, mv(evv, F32x8::load(&frow[c + g * LANES..])));
        }
    }
    for (g, a) in acc.iter().enumerate() {
        a.store(&mut out_row[c + g * LANES..]);
    }
}

/// Scalar column fold over `out_cols = out_row[c0..]`: the reference inner
/// loop, exact-length zips only.
#[inline(always)]
fn fold_cols_scalar<I, M, R>(
    out_cols: &mut [f32],
    c0: usize,
    edges: I,
    feats: &DenseMatrix,
    m: &M,
    r: &R,
) where
    I: Iterator<Item = (f32, u32)>,
    M: Fn(f32, f32) -> f32,
    R: Fn(f32, f32) -> f32,
{
    for (ev, j) in edges {
        let frow = &feats.row(j as usize)[c0..c0 + out_cols.len()];
        for (o, &fv) in out_cols.iter_mut().zip(frow) {
            *o = r(*o, m(ev, fv));
        }
    }
}

// ---------------------------------------------------------------------------
// GEMM kernels
// ---------------------------------------------------------------------------

/// The instance of the register-tiled GEMM body one call runs, chosen once
/// per `gemm_rhs_blocks_into` call (and so per `gemm_into`) by
/// [`GemmTile::for_rhs`].
/// Neither choice can change a bit of the result:
///
/// - **The zero-`aik` skip.** When every entry of B is finite, `±0 · b` is
///   `±0`, and adding `±0` changes no accumulator: one that starts at `+0`
///   never becomes `−0` under round-to-nearest. The vector loops then drop
///   the per-`k` branch, which mispredicts on post-ReLU inputs. A B holding
///   ±inf or NaN keeps the skip, because `0 · inf` is NaN.
/// - **The instruction set.** On x86_64 hosts with AVX2 the same body runs
///   compiled inside a `#[target_feature(enable = "avx2")]` wrapper. AVX and
///   SSE give the same IEEE-754 add and multiply, and Rust never contracts
///   them to FMA.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GemmTile {
    skip_zeros: bool,
    avx2: bool,
}

impl GemmTile {
    /// The instance for right-hand side `b`: one O(k1·k2) finiteness scan
    /// against the GEMM's O(n·k1·k2).
    pub(crate) fn for_rhs(b: &DenseMatrix) -> Self {
        Self {
            skip_zeros: !b.as_slice().iter().all(|v| v.is_finite()),
            avx2: avx2_detected(),
        }
    }

    /// Runs this instance over up to [`GEMM_ROW_BLOCK`] rows, output row `i`
    /// starting at `out[i * stride]`: the AVX2 wrapper, or the tile body
    /// compiled for the build's baseline target.
    #[inline]
    fn rows(self, a_rows: &[&[f32]], b: &DenseMatrix, stride: usize, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is true only when `is_x86_feature_detected!("avx2")`
            // found the feature on this host (`avx2_detected`).
            return unsafe { gemm_rows_avx2(self.skip_zeros, a_rows, b, stride, out) };
        }
        if self.skip_zeros {
            gemm_rows_tiled::<true>(a_rows, b, stride, out);
        } else {
            gemm_rows_tiled::<false>(a_rows, b, stride, out);
        }
    }
}

/// Whether this host runs the AVX2 instance of the GEMM tile.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The GEMM tile instance this host dispatches to: `avx2` or `baseline`.
pub(crate) fn gemm_instance() -> &'static str {
    if avx2_detected() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Computes request `t`'s share of one `par_row_blocks` block of a
/// column-stacked GEMM: `out[r0 + i, t·k2..(t+1)·k2] = a[r0 + i,
/// t·k1..(t+1)·k1] · b` for each of the block's rows (`rows.len() / stride`
/// full output rows of `stride` columns, the last block possibly short).
/// Register-tiled when `b` is at least one vector wide. At batch one
/// (`t = 0`, `stride = k2`) this is the serial product.
#[inline]
pub(crate) fn gemm_block(
    tile: GemmTile,
    a: &DenseMatrix,
    r0: usize,
    t: usize,
    b: &DenseMatrix,
    rows: &mut [f32],
    stride: usize,
) {
    let (k1, k2) = (b.rows(), b.cols());
    if k2 == 0 {
        return;
    }
    let nrows = rows.len() / stride;
    let out = &mut rows[t * k2..];
    let mut a_rows: [&[f32]; GEMM_ROW_BLOCK] = [&[]; GEMM_ROW_BLOCK];
    for (i, slot) in a_rows.iter_mut().enumerate().take(nrows) {
        *slot = &a.row(r0 + i)[t * k1..(t + 1) * k1];
    }
    if k2 >= LANES {
        tile.rows(&a_rows[..nrows], b, stride, out);
    } else {
        for (i, a_row) in a_rows[..nrows].iter().enumerate() {
            gemm_row_scalar(a_row, b, &mut out[i * stride..i * stride + k2]);
        }
    }
}

/// The scalar GEMM reference row: `i-k-j` order, zero-fill, zero-`aik` skip,
/// exact-length zip in the inner loop (no per-element bounds checks). Runs
/// rows narrower than one vector, and is the tiled path's test oracle: its
/// skip defines the semantics for a B holding ±inf or NaN.
#[inline]
pub(crate) fn gemm_row_scalar(a_row: &[f32], b: &DenseMatrix, out_row: &mut [f32]) {
    out_row.fill(0.0);
    for (k, &aik) in a_row.iter().enumerate() {
        if aik == 0.0 {
            continue;
        }
        for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
            *o += aik * bv;
        }
    }
}

/// The tile body compiled with AVX2 enabled: LLVM lowers each [`F32x8`]
/// operation to one 256-bit instruction instead of two SSE ones.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2(
    skip_zeros: bool,
    a_rows: &[&[f32]],
    b: &DenseMatrix,
    stride: usize,
    out: &mut [f32],
) {
    if skip_zeros {
        gemm_rows_tiled::<true>(a_rows, b, stride, out);
    } else {
        gemm_rows_tiled::<false>(a_rows, b, stride, out);
    }
}

/// Register-tiled GEMM over up to [`GEMM_ROW_BLOCK`] rows, output row `i`
/// being `out[i * stride..i * stride + k2]`: every loaded B vector is reused
/// across all rows of the tile and `k` runs ascending, so each output
/// element accumulates in the exact scalar order. The two vector loops skip
/// zero `aik` only when `SKIP_ZEROS` is set (see [`GemmTile`] for why
/// dropping the skip on a finite B keeps every bit); the scalar tail always
/// skips, like [`gemm_row_scalar`].
#[inline(always)]
fn gemm_rows_tiled<const SKIP_ZEROS: bool>(
    a_rows: &[&[f32]],
    b: &DenseMatrix,
    stride: usize,
    out: &mut [f32],
) {
    let nrows = a_rows.len();
    let (k1, k2) = (b.rows(), b.cols());
    let mut c = 0;
    while c + GEMM_COL_TILE * LANES <= k2 {
        let mut acc = [[F32x8::splat(0.0); GEMM_COL_TILE]; GEMM_ROW_BLOCK];
        for k in 0..k1 {
            let b_row = b.row(k);
            let mut bv = [F32x8::splat(0.0); GEMM_COL_TILE];
            for (g, v) in bv.iter_mut().enumerate() {
                *v = F32x8::load(&b_row[c + g * LANES..]);
            }
            for (i, a_row) in a_rows.iter().enumerate() {
                let aik = a_row[k];
                if SKIP_ZEROS && aik == 0.0 {
                    continue;
                }
                let av = F32x8::splat(aik);
                for g in 0..GEMM_COL_TILE {
                    acc[i][g] = acc[i][g] + av * bv[g];
                }
            }
        }
        for (i, row_acc) in acc.iter().enumerate().take(nrows) {
            for (g, v) in row_acc.iter().enumerate() {
                v.store(&mut out[i * stride + c + g * LANES..]);
            }
        }
        c += GEMM_COL_TILE * LANES;
    }
    while c + LANES <= k2 {
        let mut acc = [F32x8::splat(0.0); GEMM_ROW_BLOCK];
        for k in 0..k1 {
            let bv = F32x8::load(&b.row(k)[c..]);
            for (i, a_row) in a_rows.iter().enumerate() {
                let aik = a_row[k];
                if SKIP_ZEROS && aik == 0.0 {
                    continue;
                }
                acc[i] = acc[i] + F32x8::splat(aik) * bv;
            }
        }
        for (i, v) in acc.iter().enumerate().take(nrows) {
            v.store(&mut out[i * stride + c..]);
        }
        c += LANES;
    }
    if c < k2 {
        for (i, a_row) in a_rows.iter().enumerate() {
            let tail = &mut out[i * stride + c..i * stride + k2];
            tail.fill(0.0);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                for (o, &bv) in tail.iter_mut().zip(&b.row(k)[c..]) {
                    *o += aik * bv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SDDMM dot product
// ---------------------------------------------------------------------------

/// Dot product of two equal-length feature rows.
///
/// Accumulates [`LANES`] partial sums and reduces them with
/// [`F32x8::horizontal_sum`]'s fixed tree — a *different* (typically more
/// accurate) summation order than the scalar left fold, so SDDMM results are
/// documented as within a few ulp of the scalar oracle rather than bitwise
/// equal.
#[inline]
pub(crate) fn dot(u: &[f32], v: &[f32]) -> f32 {
    let n = u.len().min(v.len());
    if n < LANES {
        return dot_scalar(&u[..n], &v[..n]);
    }
    let mut acc = F32x8::splat(0.0);
    let mut c = 0;
    while c + LANES <= n {
        acc = acc + F32x8::load(&u[c..]) * F32x8::load(&v[c..]);
        c += LANES;
    }
    let mut s = acc.horizontal_sum();
    for (a, b) in u[c..n].iter().zip(&v[c..n]) {
        s += a * b;
    }
    s
}

/// The scalar left-fold dot product: rows narrower than one vector, and the
/// SDDMM differential oracle.
#[inline]
pub(crate) fn dot_scalar(u: &[f32], v: &[f32]) -> f32 {
    u.iter().zip(v).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, CsrMatrix};

    fn skewed_adj() -> CsrMatrix {
        // Row 0: hub (32 edges), row 1: short (2 edges), row 2: empty,
        // row 3: exactly at the band threshold.
        let mut entries = Vec::new();
        for j in 0..32 {
            entries.push((0usize, j as usize, 0.25 + j as f32));
        }
        entries.push((1, 0, -1.5));
        entries.push((1, 31, 2.0));
        for j in 0..SHORT_ROW_EDGES {
            entries.push((3, j * 5, 0.5 * j as f32 - 1.0));
        }
        CooMatrix::from_entries(4, 32, &entries).unwrap().to_csr()
    }

    #[test]
    fn spmm_row_matches_scalar_oracle_across_bands_and_widths() {
        let adj = skewed_adj();
        for width in [1usize, 3, 7, 8, 9, 17, 32, 40, 100] {
            let feats = DenseMatrix::random(32, width, 1.0, 42);
            for semiring in [
                Semiring::plus_mul(),
                Semiring::plus_copy_rhs(),
                Semiring::max_copy_rhs(),
                Semiring::mean_copy_rhs(),
            ] {
                for row in 0..4 {
                    let cols = adj.row_indices(row);
                    let vals = adj.row_values(row);
                    let mut fast = vec![f32::NAN; width];
                    let mut slow = vec![f32::NAN; width];
                    spmm_row(&mut fast, cols, vals, &feats, semiring);
                    spmm_row_scalar(&mut slow, cols, vals, &feats, semiring);
                    let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
                    let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fast_bits, slow_bits, "row {row} width {width} {semiring:?}");
                }
            }
        }
    }

    #[test]
    fn gemm_block_matches_scalar_rows_bitwise() {
        let a = DenseMatrix::random(7, 9, 1.0, 5);
        // Inject zeros so the zero-skip executes in both paths.
        let a = a.map(|v| if v.abs() < 0.3 { 0.0 } else { v });
        for k2 in [1usize, 5, 8, 16, 19, 24, 37] {
            let b = DenseMatrix::random(9, k2, 1.0, 6);
            for r0 in [0usize, 4] {
                let nrows = (r0 + GEMM_ROW_BLOCK).min(7) - r0;
                let mut fast = vec![f32::NAN; nrows * k2];
                gemm_block(GemmTile::for_rhs(&b), &a, r0, 0, &b, &mut fast, k2);
                for i in 0..nrows {
                    let mut slow = vec![f32::NAN; k2];
                    gemm_row_scalar(a.row(r0 + i), &b, &mut slow);
                    assert_eq!(
                        fast[i * k2..(i + 1) * k2]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "r0 {r0} row {i} k2 {k2}"
                    );
                }
            }
        }
    }

    #[test]
    fn avx2_instance_matches_baseline_bitwise() {
        // Each suite run exercises only the instance its host picks; this
        // test runs both on one host. Without AVX2 there is no second one.
        if !avx2_detected() {
            return;
        }
        let a = DenseMatrix::random(GEMM_ROW_BLOCK, 9, 1.0, 21);
        let a = a.map(|v| if v.abs() < 0.3 { 0.0 } else { v });
        for k2 in [8usize, 16, 19, 24, 41] {
            let finite = DenseMatrix::random(9, k2, 1.0, 22);
            // One kind of non-finite value per column, so no element adds
            // two NaNs of different payloads.
            let non_finite = DenseMatrix::from_fn(9, k2, |k, j| match (j % 4, (k + j) % 3) {
                (1, 0) => f32::INFINITY,
                (2, 0) => f32::NEG_INFINITY,
                (3, 0) => f32::NAN,
                _ => finite.get(k, j),
            });
            for (b, skips) in [(&finite, false), (&non_finite, true)] {
                let tile = GemmTile::for_rhs(b);
                assert_eq!(tile.skip_zeros, skips, "k2 {k2}");
                let baseline = GemmTile {
                    avx2: false,
                    ..tile
                };
                let avx2 = GemmTile { avx2: true, ..tile };
                for nrows in 1..=GEMM_ROW_BLOCK {
                    let rows: Vec<&[f32]> = (0..nrows).map(|i| a.row(i)).collect();
                    let mut base = vec![f32::NAN; nrows * k2];
                    let mut wide = vec![f32::NAN; nrows * k2];
                    baseline.rows(&rows, b, k2, &mut base);
                    avx2.rows(&rows, b, k2, &mut wide);
                    let base_bits: Vec<u32> = base.iter().map(|v| v.to_bits()).collect();
                    let wide_bits: Vec<u32> = wide.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(base_bits, wide_bits, "k2 {k2} rows {nrows}");
                    for (i, row) in rows.iter().enumerate() {
                        let mut slow = vec![f32::NAN; k2];
                        gemm_row_scalar(row, b, &mut slow);
                        let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            &base_bits[i * k2..(i + 1) * k2],
                            slow_bits,
                            "k2 {k2} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dot_is_within_ulps_of_scalar() {
        for n in [0usize, 1, 7, 8, 9, 64, 129] {
            let u = DenseMatrix::random(1, n.max(1), 1.0, 7);
            let v = DenseMatrix::random(1, n.max(1), 1.0, 8);
            let (u, v) = (&u.as_slice()[..n], &v.as_slice()[..n]);
            let fast = dot(u, v) as f64;
            let slow = dot_scalar(u, v) as f64;
            let tol = 1e-5 * (1.0 + slow.abs());
            assert!((fast - slow).abs() <= tol, "n {n}: {fast} vs {slow}");
        }
    }
}
