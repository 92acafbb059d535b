//! `Graph::add_self_loops` against an independent oracle: the COO
//! construction it replaced, which pushes every entry plus each missing
//! diagonal entry and lets `CooMatrix::to_csr` sort and merge. The two must
//! agree bitwise: `indptr`, `indices`, value bits, weightedness and name.

use granii_graph::Graph;
use granii_matrix::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// `Ã` and its name, built through an unsorted COO.
fn oracle(g: &Graph) -> (CsrMatrix, String) {
    let n = g.num_nodes();
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let row = g.adj().row_indices(i);
        let vals = g.adj().row_values(i);
        for (off, &j) in row.iter().enumerate() {
            coo.push(i, j as usize, vals.map_or(1.0, |v| v[off]))
                .unwrap();
        }
        if !row.contains(&(i as u32)) {
            coo.push(i, i, 1.0).unwrap();
        }
    }
    let csr = if g.is_weighted() {
        coo.to_csr()
    } else {
        coo.to_csr_unweighted()
    };
    (csr, format!("{}+I", g.name()))
}

fn value_bits(m: &CsrMatrix) -> Option<Vec<u32>> {
    m.values()
        .map(|values| values.iter().map(|v| v.to_bits()).collect())
}

fn assert_matches_oracle(g: &Graph) {
    let got = g.add_self_loops();
    let (want, name) = oracle(g);
    assert_eq!(got.adj().shape(), want.shape());
    assert_eq!(got.adj().indptr(), want.indptr(), "indptr of {}", g.name());
    assert_eq!(
        got.adj().indices(),
        want.indices(),
        "indices of {}",
        g.name()
    );
    assert_eq!(got.is_weighted(), want.is_weighted());
    assert_eq!(
        value_bits(got.adj()),
        value_bits(&want),
        "values of {}",
        g.name()
    );
    assert_eq!(got.name(), name);
}

/// Edge weights chosen so bit-exactness matters: signed zero, NaN, a tiny
/// magnitude, and ordinary values.
const WEIGHTS: [f32; 6] = [1.0, -0.0, 2.5, f32::NAN, -3.25, 1e-30];

fn weighted(n: usize, entries: &[(usize, usize, usize)]) -> Graph {
    let entries: Vec<_> = entries
        .iter()
        .map(|&(u, v, w)| (u % n, v % n, WEIGHTS[w]))
        .collect();
    Graph::from_csr(CooMatrix::from_entries(n, n, &entries).unwrap().to_csr()).unwrap()
}

proptest! {
    /// Random unweighted graphs, with and without self-loops of their own.
    #[test]
    fn unweighted_self_loops_match_the_oracle(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
    ) {
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        assert_matches_oracle(&Graph::from_edges(n, &edges).unwrap().with_name("directed"));
        assert_matches_oracle(&Graph::undirected_from_edges(n, &edges).unwrap());
    }

    /// Random weighted graphs: weights, signed zeros and NaNs keep their
    /// bits, and an existing self-loop keeps its weight.
    #[test]
    fn weighted_self_loops_match_the_oracle(
        n in 1usize..40,
        entries in proptest::collection::vec((0usize..40, 0usize..40, 0usize..6), 0..120),
    ) {
        assert_matches_oracle(&weighted(n, &entries).with_name("weighted"));
    }
}

#[test]
fn edge_cases_match_the_oracle() {
    let cases = [
        // Rows that already hold their self-loop, first, middle and last.
        Graph::from_edges(4, &[(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (3, 1), (3, 3)]).unwrap(),
        // Empty rows.
        Graph::from_edges(4, &[(0, 1)]).unwrap(),
        // Rows holding only a self-loop.
        Graph::from_edges(3, &[(1, 1), (2, 2)]).unwrap(),
        // n = 1, without and with its self-loop.
        Graph::from_edges(1, &[]).unwrap(),
        Graph::from_edges(1, &[(0, 0)]).unwrap(),
        weighted(1, &[]),
        weighted(1, &[(0, 0, 2)]),
        // n = 0.
        Graph::from_edges(0, &[]).unwrap(),
        // Weighted rows with the self-loop present (weight kept) and absent.
        weighted(3, &[(0, 0, 4), (0, 2, 1), (1, 0, 3), (1, 2, 2)]),
        // Self-loops already everywhere: `Ã` of `Ã`.
        Graph::undirected_from_edges(5, &[(0, 1), (1, 2), (3, 4)])
            .unwrap()
            .add_self_loops(),
    ];
    for g in &cases {
        assert_matches_oracle(g);
    }
}
