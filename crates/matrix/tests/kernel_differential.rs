//! Differential suite for the vector / register-tiled / banded kernels.
//!
//! Every hot `_into` kernel is compared against an independent naive
//! reference that spells out the documented fold semantics (edge-ascending
//! per element for SpMM, `k`-ascending with the zero-`aik` skip for GEMM,
//! identity-finished empty rows, stored-edge-count Mean). Because the
//! `F32x8` kernels vectorize across the column dimension while keeping the
//! per-element fold order, SpMM/GEMM/broadcast results must be **bitwise**
//! equal to the reference, and the CI matrix runs both `GRANII_THREADS`
//! legs. The one documented exception is SDDMM, whose vector dot product
//! reduces through a fixed tree: it is asserted to a few-ulp relative
//! tolerance instead.
//!
//! Graph shapes deliberately cover the scheduler/banding corners: uniform
//! short rows, a hub row, empty-row-heavy patterns, and ramped power-law-ish
//! degrees, in weighted and unweighted form, across batch widths {1,3,8,17}.

use granii_matrix::ops;
use granii_matrix::{CooMatrix, CsrMatrix, DenseMatrix, MulOp, ReduceOp, Semiring};
use proptest::prelude::*;

const ALL_SEMIRINGS: [Semiring; 16] = {
    let muls = [MulOp::Mul, MulOp::CopyRhs, MulOp::CopyEdge, MulOp::Add];
    let reduces = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Mean];
    let mut out = [Semiring {
        reduce: ReduceOp::Sum,
        mul: MulOp::Mul,
    }; 16];
    let mut i = 0;
    while i < 4 {
        let mut j = 0;
        while j < 4 {
            out[i * 4 + j] = Semiring {
                reduce: reduces[i],
                mul: muls[j],
            };
            j += 1;
        }
        i += 1;
    }
    out
};

/// Degree-distribution families exercising the banding heuristic and the
/// nnz-weighted scheduler.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Every row short (at or below the short-row band threshold).
    Uniform,
    /// Row 0 holds most of the nnz; the rest are leaves.
    Hub,
    /// Two of every three rows empty.
    EmptyHeavy,
    /// Degree ramps with the row index.
    Ramp,
}

const SHAPES: [Shape; 4] = [Shape::Uniform, Shape::Hub, Shape::EmptyHeavy, Shape::Ramp];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn lcg_f32(state: &mut u64) -> f32 {
    (lcg(state) % 4001) as f32 / 1000.0 - 2.0
}

fn graph(shape: Shape, rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let mut state = seed.wrapping_add(0x9e3779b9);
    let mut entries = Vec::new();
    for i in 0..rows {
        let degree = match shape {
            Shape::Uniform => 1 + (lcg(&mut state) as usize % 3),
            Shape::Hub => {
                if i == 0 {
                    cols.max(1)
                } else {
                    lcg(&mut state) as usize % 2
                }
            }
            Shape::EmptyHeavy => {
                if i % 3 == 0 {
                    1 + (lcg(&mut state) as usize % 2)
                } else {
                    0
                }
            }
            Shape::Ramp => (i * cols) / rows.max(1),
        };
        for _ in 0..degree {
            let j = lcg(&mut state) as usize % cols;
            entries.push((i, j, lcg_f32(&mut state)));
        }
    }
    CooMatrix::from_entries(rows, cols, &entries)
        .unwrap()
        .to_csr()
}

/// The naive g-SpMM reference: documented fold semantics, nothing shared
/// with the kernel implementation.
fn naive_spmm(adj: &CsrMatrix, feats: &DenseMatrix, width: usize, s: Semiring) -> Vec<f32> {
    let mut out = vec![0.0f32; adj.rows() * width];
    for i in 0..adj.rows() {
        let cols = adj.row_indices(i);
        let vals = adj.row_values(i);
        let row = &mut out[i * width..(i + 1) * width];
        if cols.is_empty() {
            for v in row.iter_mut() {
                *v = s.reduce.finish(s.reduce.identity(), 0);
            }
            continue;
        }
        for v in row.iter_mut() {
            *v = s.reduce.identity();
        }
        for (e, &j) in cols.iter().enumerate() {
            let edge = vals.map_or(1.0, |vs| vs[e]);
            for (c, v) in row.iter_mut().enumerate() {
                *v = s
                    .reduce
                    .fold(*v, s.mul.apply(edge, feats.get(j as usize, c)));
            }
        }
        if matches!(s.reduce, ReduceOp::Mean) {
            for v in row.iter_mut() {
                *v = s.reduce.finish(*v, cols.len());
            }
        }
    }
    out
}

/// The naive GEMM reference: `i-k-j`, zero-`aik` skipped like the scalar
/// kernel row. The skip changes bits only when B holds ±inf or NaN
/// (`0 · inf` is NaN); with a finite B the kernel's vector loops may drop
/// it, and must still match this reference bit for bit.
fn naive_gemm(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f32> {
    let (k1, k2) = (a.cols(), b.cols());
    let mut out = vec![0.0f32; a.rows() * k2];
    for i in 0..a.rows() {
        let row = &mut out[i * k2..(i + 1) * k2];
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

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Block `t` (`k` columns wide) of a column-stacked buffer, read element by
/// element.
fn block_of(m: &DenseMatrix, t: usize, k: usize) -> DenseMatrix {
    DenseMatrix::from_fn(m.rows(), k, |i, j| m.get(i, t * k + j))
}

/// Capacity, in blocks, of the wide buffers the batched oracles fill: one
/// more than the widest batch, so a trailing block always stays untouched.
const BATCH_CAP: usize = 4;

fn with_zeros(m: DenseMatrix) -> DenseMatrix {
    m.map(|v| if v.abs() < 0.3 { 0.0 } else { v })
}

/// Output widths reaching the GEMM's 2-vector strips, its 1-vector strips
/// and its scalar tail, alone and combined (41 = 2·16 + 8 + 1).
const GEMM_CASCADE_WIDTHS: [usize; 7] = [5, 8, 13, 16, 24, 27, 41];

/// `m` with about a quarter of its entries replaced by +inf, -inf or NaN.
/// Each column holds one kind only, so no output element adds two NaNs of
/// different payloads: IEEE-754 leaves that result's payload to the
/// implementation.
fn with_non_finite(m: DenseMatrix, seed: u64) -> DenseMatrix {
    let mut state = seed ^ 0x6e6f_6e66;
    let kinds: Vec<f32> = (0..m.cols())
        .map(|_| [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][lcg(&mut state) as usize % 3])
        .collect();
    DenseMatrix::from_fn(m.rows(), m.cols(), |i, j| {
        if lcg(&mut state).is_multiple_of(4) {
            kinds[j]
        } else {
            m.get(i, j)
        }
    })
}

proptest! {
    /// SpMM is bitwise equal to the naive reference for every semiring,
    /// every degree-distribution family, weighted and unweighted, across
    /// feature widths spanning scalar-tail-only through multi-strip rows.
    #[test]
    fn spmm_bitwise_matches_naive(
        shape_ix in 0usize..4,
        rows in 3usize..28,
        cols in 2usize..24,
        k in 1usize..44,
        seed in 0u64..500,
        weighted_ix in 0usize..2,
    ) {
        let weighted = weighted_ix == 1;
        let mut adj = graph(SHAPES[shape_ix], rows, cols, seed);
        if !weighted {
            adj = adj.drop_values();
        }
        let feats = DenseMatrix::random(cols, k, 1.0, seed ^ 0xfeed);
        for s in ALL_SEMIRINGS {
            let got = ops::spmm(&adj, &feats, s).unwrap();
            let want = naive_spmm(&adj, &feats, k, s);
            prop_assert_eq!(
                bits(got.as_slice()),
                bits(&want),
                "shape {:?} {:?} weighted={}",
                SHAPES[shape_ix], s, weighted
            );
        }
    }

    /// GEMM (register-tiled) is bitwise equal to the naive `i-k-j`
    /// reference, including the zero-skip, for output widths covering every
    /// tile-cascade combination.
    #[test]
    fn gemm_bitwise_matches_naive(
        n in 1usize..14,
        k1 in 1usize..12,
        k2 in 1usize..44,
        seed in 0u64..500,
    ) {
        let a = with_zeros(DenseMatrix::random(n, k1, 1.0, seed));
        let b = DenseMatrix::random(k1, k2, 1.0, seed ^ 0xbeef);
        let got = ops::gemm(&a, &b).unwrap();
        prop_assert_eq!(bits(got.as_slice()), bits(&naive_gemm(&a, &b)));
    }

    /// GEMM with ±inf and NaN in B and zeros in A, the one case where the
    /// zero-`aik` skip changes bits: serial `gemm` and every block of the
    /// batched `gemm_rhs_blocks_into` are bitwise equal to the naive
    /// reference across the whole tile cascade.
    #[test]
    fn gemm_non_finite_rhs_bitwise_matches_naive(
        n in 1usize..14,
        k1 in 1usize..12,
        seed in 0u64..500,
    ) {
        const BATCH: usize = 3;
        for k2 in GEMM_CASCADE_WIDTHS {
            let a_wide = with_zeros(DenseMatrix::random(n, BATCH * k1, 1.0, seed));
            let b = with_non_finite(DenseMatrix::random(k1, k2, 1.0, seed ^ 0xbeef), seed);
            let a = block_of(&a_wide, 0, k1);
            let got = ops::gemm(&a, &b).unwrap();
            prop_assert_eq!(bits(got.as_slice()), bits(&naive_gemm(&a, &b)), "serial k2 {}", k2);
            let mut wide =
                DenseMatrix::from_vec(n, BATCH * k2, vec![f32::NAN; n * BATCH * k2]).unwrap();
            ops::gemm_rhs_blocks_into(&a_wide, &b, BATCH, &mut wide).unwrap();
            for t in 0..BATCH {
                let a = block_of(&a_wide, t, k1);
                let block = block_of(&wide, t, k2);
                prop_assert_eq!(
                    bits(block.as_slice()),
                    bits(&naive_gemm(&a, &b)),
                    "batched k2 {} block {}", k2, t
                );
            }
        }
    }

    /// SDDMM matches a naive left-fold reference within a few ulp: the SIMD
    /// dot reduces through a fixed tree, so bitwise equality is *not*
    /// guaranteed (documented in `ops::rowkernel::dot`), but the relative
    /// error is bounded.
    #[test]
    fn sddmm_matches_naive_within_tolerance(
        shape_ix in 0usize..4,
        n in 3usize..20,
        k in 1usize..44,
        seed in 0u64..500,
        weighted_ix in 0usize..2,
    ) {
        let weighted = weighted_ix == 1;
        let mut mask = graph(SHAPES[shape_ix], n, n, seed);
        if !weighted {
            mask = mask.drop_values();
        }
        let u = DenseMatrix::random(n, k, 1.0, seed ^ 0xaaaa);
        let v = DenseMatrix::random(n, k, 1.0, seed ^ 0x5555);
        let got = ops::sddmm(&mask, &u, &v).unwrap();
        let got_vals = got.values().unwrap();
        let mut off = 0usize;
        for i in 0..n {
            let cols = mask.row_indices(i);
            let mvals = mask.row_values(i);
            for (e, &j) in cols.iter().enumerate() {
                let dot: f32 = (0..k).map(|c| u.get(i, c) * v.get(j as usize, c)).sum();
                let want = mvals.map_or(1.0, |vs| vs[e]) * dot;
                let tol = 1e-5f32 * (1.0 + want.abs());
                prop_assert!(
                    (got_vals[off] - want).abs() <= tol,
                    "({}, {}): {} vs {}", i, j, got_vals[off], want
                );
                off += 1;
            }
        }
    }

    /// Broadcasts (with the hoisted op dispatch) stay bitwise equal to the
    /// per-element definition.
    #[test]
    fn broadcasts_bitwise_match_naive(
        rows in 1usize..12,
        cols in 1usize..40,
        seed in 0u64..500,
    ) {
        let m = DenseMatrix::random(rows, cols, 1.0, seed);
        let dr: Vec<f32> = (0..rows).map(|i| i as f32 * 0.37 - 1.0).collect();
        let dc: Vec<f32> = (0..cols).map(|j| j as f32 * 0.21 - 2.0).collect();
        for op in [ops::BroadcastOp::Mul, ops::BroadcastOp::Add] {
            let got = ops::row_broadcast(&dr, &m, op).unwrap();
            let want = DenseMatrix::from_fn(rows, cols, |i, j| match op {
                ops::BroadcastOp::Mul => dr[i] * m.get(i, j),
                ops::BroadcastOp::Add => dr[i] + m.get(i, j),
            });
            prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
            let got = ops::col_broadcast(&m, &dc, op).unwrap();
            let want = DenseMatrix::from_fn(rows, cols, |i, j| match op {
                ops::BroadcastOp::Mul => dc[j] * m.get(i, j),
                ops::BroadcastOp::Add => dc[j] + m.get(i, j),
            });
            prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()));
        }
    }

    /// Batched kernels across batch widths {1, 3, 8, 17}: every block of the
    /// wide result is bitwise equal to the serial `_into` result for that
    /// request — which the other properties tie back to the naive oracle.
    #[test]
    fn batched_blocks_bitwise_match_serial(
        shape_ix in 0usize..4,
        n in 3usize..16,
        k in 1usize..10,
        seed in 0u64..500,
    ) {
        const WIDTHS: [usize; 4] = [1, 3, 8, 17];
        const CAP: usize = 17;
        let adj = graph(SHAPES[shape_ix], n, n, seed);
        let feats = DenseMatrix::random(n, CAP * k, 1.0, seed ^ 0x1234);
        let b = DenseMatrix::random(k, k, 1.0, seed ^ 0x4321);
        let a_wide = with_zeros(DenseMatrix::random(n, CAP * k, 1.0, seed ^ 0x9999));
        for batch in WIDTHS {
            // Batched SpMM over the leading batch*k columns.
            let mut wide = DenseMatrix::from_vec(n, CAP * k, vec![f32::NAN; n * CAP * k]).unwrap();
            for s in [Semiring::plus_mul(), Semiring::mean_copy_rhs(), Semiring::max_copy_rhs()] {
                ops::spmm_cols_into(&adj, &feats, batch * k, s, &mut wide).unwrap();
                for t in 0..batch {
                    let f_t = block_of(&feats, t, k);
                    let mut want = DenseMatrix::from_vec(n, k, vec![0.0; n * k]).unwrap();
                    ops::spmm_into(&adj, &f_t, s, &mut want).unwrap();
                    let got = block_of(&wide, t, k);
                    prop_assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "spmm batch {} block {} {:?}", batch, t, s
                    );
                }
            }
            // Batched GEMM.
            let mut wide = DenseMatrix::from_vec(n, CAP * k, vec![f32::NAN; n * CAP * k]).unwrap();
            ops::gemm_rhs_blocks_into(&a_wide, &b, batch, &mut wide).unwrap();
            for t in 0..batch {
                let a_t = block_of(&a_wide, t, k);
                let mut want = DenseMatrix::from_vec(n, k, vec![0.0; n * k]).unwrap();
                ops::gemm_into(&a_t, &b, &mut want).unwrap();
                let got = block_of(&wide, t, k);
                prop_assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "gemm batch {} block {}", batch, t
                );
            }
        }
    }

    /// Batched GEMM against the naive oracle directly: every active block of
    /// the wide result is the naive product of its A block, across the tile
    /// cascade, with a row count off the 4-row tile (so the last row block
    /// is short) and zeros in A. Blocks past the batch keep their NaN
    /// sentinels.
    #[test]
    fn batched_gemm_bitwise_matches_naive(
        quads in 0usize..4,
        tail in 1usize..4,
        k1 in 1usize..12,
        seed in 0u64..500,
    ) {
        let n = 4 * quads + tail;
        let a_wide = with_zeros(DenseMatrix::random(n, BATCH_CAP * k1, 1.0, seed));
        for k2 in GEMM_CASCADE_WIDTHS {
            let b = DenseMatrix::random(k1, k2, 1.0, seed ^ 0xbeef);
            for batch in 1..BATCH_CAP {
                let mut wide = DenseMatrix::from_vec(
                    n,
                    BATCH_CAP * k2,
                    vec![f32::NAN; n * BATCH_CAP * k2],
                )
                .unwrap();
                ops::gemm_rhs_blocks_into(&a_wide, &b, batch, &mut wide).unwrap();
                for t in 0..BATCH_CAP {
                    let got = block_of(&wide, t, k2);
                    if t < batch {
                        let want = naive_gemm(&block_of(&a_wide, t, k1), &b);
                        prop_assert_eq!(
                            bits(got.as_slice()),
                            bits(&want),
                            "k2 {} batch {} block {}", k2, batch, t
                        );
                    } else {
                        prop_assert!(
                            got.as_slice().iter().all(|v| v.is_nan()),
                            "k2 {} batch {} wrote trailing block {}", k2, batch, t
                        );
                    }
                }
            }
        }
    }

    /// Batched SpMM against the naive oracle directly: every active block is
    /// the naive g-SpMM of its feature block for every semiring, weighted
    /// and unweighted, across the degree-distribution families. Blocks past
    /// the batch keep their NaN sentinels.
    #[test]
    fn batched_spmm_bitwise_matches_naive(
        shape_ix in 0usize..4,
        n in 3usize..20,
        k in 1usize..20,
        seed in 0u64..500,
        weighted_ix in 0usize..2,
    ) {
        let mut adj = graph(SHAPES[shape_ix], n, n, seed);
        if weighted_ix == 0 {
            adj = adj.drop_values();
        }
        let feats = DenseMatrix::random(n, BATCH_CAP * k, 1.0, seed ^ 0x1234);
        for s in ALL_SEMIRINGS {
            for batch in 1..BATCH_CAP {
                let mut wide = DenseMatrix::from_vec(
                    n,
                    BATCH_CAP * k,
                    vec![f32::NAN; n * BATCH_CAP * k],
                )
                .unwrap();
                ops::spmm_cols_into(&adj, &feats, batch * k, s, &mut wide).unwrap();
                for t in 0..BATCH_CAP {
                    let got = block_of(&wide, t, k);
                    if t < batch {
                        let want = naive_spmm(&adj, &block_of(&feats, t, k), k, s);
                        prop_assert_eq!(
                            bits(got.as_slice()),
                            bits(&want),
                            "{:?} {:?} batch {} block {}", SHAPES[shape_ix], s, batch, t
                        );
                    } else {
                        prop_assert!(
                            got.as_slice().iter().all(|v| v.is_nan()),
                            "{:?} batch {} wrote trailing block {}", s, batch, t
                        );
                    }
                }
            }
        }
    }
}
