//! Criterion benchmarks of the raw matrix primitives (real CPU execution) —
//! the measured-CPU substrate behind the evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use granii_graph::generators;
use granii_matrix::ops::{self, BroadcastOp};
use granii_matrix::{DenseMatrix, Semiring};

fn bench_kernels(c: &mut Criterion) {
    let graph = generators::power_law(5_000, 16, 1).unwrap();
    let adj = graph.adj().clone();
    let weighted = ops::scale_csr(None, &adj, None).unwrap();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);

    for k in [32usize, 128] {
        let x = DenseMatrix::random(adj.cols(), k, 1.0, 2);
        group.bench_with_input(BenchmarkId::new("spmm_unweighted", k), &k, |b, _| {
            b.iter(|| ops::spmm(&adj, &x, Semiring::plus_copy_rhs()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("spmm_weighted", k), &k, |b, _| {
            b.iter(|| ops::spmm(&weighted, &x, Semiring::plus_mul()).unwrap())
        });
        let w = DenseMatrix::random(k, k, 1.0, 3);
        group.bench_with_input(BenchmarkId::new("gemm", k), &k, |b, _| {
            b.iter(|| ops::gemm(&x, &w).unwrap())
        });
        // A post-ReLU left operand: about half its entries are zero.
        let relu = x.map(|v| v.max(0.0));
        group.bench_with_input(BenchmarkId::new("gemm_relu_input", k), &k, |b, _| {
            b.iter(|| ops::gemm(&relu, &w).unwrap())
        });
        let d: Vec<f32> = (0..adj.rows()).map(|i| (i % 7) as f32).collect();
        group.bench_with_input(BenchmarkId::new("row_broadcast", k), &k, |b, _| {
            b.iter(|| ops::row_broadcast(&d, &x, BroadcastOp::Mul).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sddmm", k), &k, |b, _| {
            b.iter(|| ops::sddmm(&adj, &x, &x).unwrap())
        });
    }
    group.bench_function("edge_softmax", |b| {
        b.iter(|| ops::edge_softmax(&weighted).unwrap())
    });
    group.bench_function("degrees_by_binning", |b| {
        b.iter(|| ops::degrees_by_binning(&adj))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
