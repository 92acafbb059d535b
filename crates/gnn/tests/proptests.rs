//! Property-based tests for the GNN substrate: composition equivalence on
//! random graphs and configurations — the correctness foundation GRANII's
//! re-association selection stands on.

use granii_gnn::models::GnnLayer;
use granii_gnn::spec::{Composition, LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::{CooMatrix, CsrMatrix, DenseMatrix, Semiring};
use proptest::prelude::*;

fn random_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..25,
        proptest::collection::vec((0usize..25, 0usize..25), 1..60),
    )
        .prop_map(|(n, edges)| {
            let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
            Graph::undirected_from_edges(n, &edges).expect("in range")
        })
}

/// Edge weights where bit-exactness matters: signed zero, NaN, a tiny
/// magnitude and ordinary values.
const WEIGHTS: [f32; 6] = [1.0, -0.0, 2.5, f32::NAN, -3.25, 1e-30];

/// A graph over `n` nodes from `(u, v, weight index)` entries (taken modulo
/// `n`), weighted or not; rows without an entry stay empty, and `u == v`
/// entries are self-loops the graph already holds.
fn graph_of(n: usize, entries: &[(usize, usize, usize)], weighted: bool) -> Graph {
    let entries: Vec<_> = entries
        .iter()
        .map(|&(u, v, w)| (u % n, v % n, WEIGHTS[w % WEIGHTS.len()]))
        .collect();
    let coo = CooMatrix::from_entries(n, n, &entries).unwrap();
    let adj = if weighted {
        coo.to_csr()
    } else {
        coo.to_csr_unweighted()
    };
    Graph::from_csr(adj).unwrap()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn csr_bits(m: &CsrMatrix) -> (Vec<u64>, Vec<u32>, Option<Vec<u32>>) {
    (
        m.indptr().to_vec(),
        m.indices().to_vec(),
        m.values().map(bits),
    )
}

/// `GraphCtx` reads `Ã`'s degrees and statistics off `A`'s row lengths and
/// builds `Ã` only on demand; every value must equal, bit for bit, the eager
/// construction it replaced (`add_self_loops`, then `Ã`'s own degrees and
/// row statistics).
fn assert_matches_eager(g: &Graph) {
    let ctx = GraphCtx::new(g).unwrap();
    // Read everything that must not need `Ã` before `Ã` exists.
    let deg_inv_sqrt = bits(ctx.deg_inv_sqrt());
    let irregularity = ctx.irregularity().to_bits();
    let num_edges = ctx.num_edges_with_loops();
    let semiring = ctx.sum_semiring();

    let eager = g.add_self_loops();
    assert_eq!(deg_inv_sqrt, bits(eager.deg_inv_sqrt().values()));
    assert_eq!(irregularity, eager.row_stats().cv.to_bits());
    assert_eq!(num_edges, eager.num_edges());
    let eager_semiring = if eager.is_weighted() {
        Semiring::plus_mul()
    } else {
        Semiring::plus_copy_rhs()
    };
    assert_eq!(semiring, eager_semiring);
    assert_eq!(csr_bits(ctx.adj()), csr_bits(eager.adj()));
    assert_eq!(ctx.with_loops().name(), eager.name());
}

#[test]
fn lazy_self_loop_context_matches_eager_on_single_nodes() {
    for weighted in [false, true] {
        assert_matches_eager(&graph_of(1, &[], weighted));
        assert_matches_eager(&graph_of(1, &[(0, 0, 2)], weighted));
    }
}

proptest! {
    /// Random graphs, weighted or not, with empty rows and rows that
    /// already hold their self-loop.
    #[test]
    fn lazy_self_loop_context_matches_eager(
        n in 1usize..24,
        entries in proptest::collection::vec((0usize..24, 0usize..24, 0usize..6), 0..60),
        loops in proptest::collection::vec(0usize..24, 0..8),
        weighted in 0usize..2,
    ) {
        let mut entries = entries;
        entries.extend(loops.iter().map(|&i| (i, i, i)));
        assert_matches_eager(&graph_of(n, &entries, weighted == 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every composition of every model computes the same function on random
    /// undirected graphs and random embedding sizes.
    #[test]
    fn compositions_equivalent_on_random_graphs(
        g in random_graph(),
        k_in in 1usize..8,
        k_out in 1usize..8,
        seed in 0u64..1000,
    ) {
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let h = DenseMatrix::random(g.num_nodes(), k_in, 1.0, seed);
        for kind in [ModelKind::Gcn, ModelKind::Gin, ModelKind::Sgc, ModelKind::Tagcn, ModelKind::Gat, ModelKind::Sage] {
            let layer = GnnLayer::new(kind, LayerConfig::new(k_in, k_out), seed + 1).unwrap();
            let comps = Composition::all_for(kind);
            let reference = {
                let p = layer.prepare(&exec, &ctx, comps[0]).unwrap();
                layer.forward(&exec, &ctx, &p, &h, comps[0]).unwrap()
            };
            for &comp in &comps[1..] {
                let p = layer.prepare(&exec, &ctx, comp).unwrap();
                let out = layer.forward(&exec, &ctx, &p, &h, comp).unwrap();
                let diff = out.max_abs_diff(&reference).unwrap();
                // Scale tolerance with magnitude: deep chains amplify rounding.
                let tol = 1e-3 * (1.0 + reference.frobenius_norm());
                prop_assert!(diff < tol, "{comp}: diff {diff} (tol {tol})");
            }
        }
    }

    /// Virtual execution charges exactly the same modeled latency as real
    /// execution for every model/composition (this is what makes the
    /// benchmark sweeps trustworthy).
    #[test]
    fn virtual_and_real_latencies_match(
        g in random_graph(),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(g.num_nodes(), k, 1.0, seed);
        for kind in ModelKind::EVAL {
            for comp in Composition::all_for(kind) {
                let layer = GnnLayer::new(kind, LayerConfig::new(k, k), seed).unwrap();
                let time = |virtual_mode: bool| {
                    let engine = Engine::modeled(DeviceKind::A100);
                    let exec = if virtual_mode { Exec::virtual_only(&engine) } else { Exec::real(&engine) };
                    let p = layer.prepare(&exec, &ctx, comp).unwrap();
                    layer.forward(&exec, &ctx, &p, &h, comp).unwrap();
                    engine.elapsed_seconds()
                };
                let (real, virt) = (time(false), time(true));
                prop_assert!((real - virt).abs() < 1e-12, "{comp}: {real} vs {virt}");
            }
        }
    }
}
