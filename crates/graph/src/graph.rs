use std::sync::OnceLock;

use granii_matrix::{CooMatrix, CsrMatrix, DiagMatrix, RowStats};

use crate::{GraphError, GraphFeatures, Result};

/// A graph backed by a square CSR adjacency matrix.
///
/// Edges are directed in storage; undirected graphs store both orientations
/// (the convention of DGL and SuiteSparse symmetric matrices). The adjacency
/// may be weighted or unweighted — an unweighted adjacency is what lets GRANII
/// select the cheaper `copy_u` aggregation (paper §III-A).
///
/// A graph is immutable once built: no method takes `&mut self`, and
/// [`Graph::with_name`] consumes the graph and changes only the name. Its
/// [`Graph::fingerprint`] and its [`GraphFeatures`] depend on the adjacency
/// alone, so each is computed at most once per graph, on first use from any
/// thread, and kept (a clone keeps them too). Equality compares the
/// adjacency and the name, never whether those memos are filled.
///
/// # Example
///
/// ```
/// use granii_graph::Graph;
///
/// # fn main() -> Result<(), granii_graph::GraphError> {
/// let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)])?;
/// assert_eq!(g.num_edges(), 4); // both orientations stored
/// assert_eq!(g.out_degrees(), vec![1.0, 2.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    adj: CsrMatrix,
    name: String,
    /// Memo of [`Graph::fingerprint`].
    fingerprint: OnceLock<u64>,
    /// Memo of [`GraphFeatures::extract`].
    features: OnceLock<GraphFeatures>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj && self.name == other.name
    }
}

impl Graph {
    /// A graph over `adj` named `name`, with empty memos. `adj` must be
    /// square.
    fn new(adj: CsrMatrix, name: String) -> Self {
        Self {
            adj,
            name,
            fingerprint: OnceLock::new(),
            features: OnceLock::new(),
        }
    }

    /// Wraps a CSR adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotSquare`] if the matrix is not square.
    pub fn from_csr(adj: CsrMatrix) -> Result<Self> {
        if adj.rows() != adj.cols() {
            return Err(GraphError::NotSquare { shape: adj.shape() });
        }
        Ok(Self::new(adj, String::from("graph")))
    }

    /// Builds an unweighted directed graph from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut coo = CooMatrix::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0)
                .map_err(|_| GraphError::NodeOutOfRange {
                    node: u.max(v),
                    num_nodes: n,
                })?;
        }
        Ok(Self::new(coo.to_csr_unweighted(), String::from("graph")))
    }

    /// Builds an unweighted undirected graph: each listed edge is stored in
    /// both orientations (self-loops once).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    pub fn undirected_from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut coo = CooMatrix::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0)
                .map_err(|_| GraphError::NodeOutOfRange {
                    node: u.max(v),
                    num_nodes: n,
                })?;
            if u != v {
                coo.push(v, u, 1.0).expect("validated above");
            }
        }
        Ok(Self::new(coo.to_csr_unweighted(), String::from("graph")))
    }

    /// Sets a human-readable name (dataset id) on the graph.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.rows()
    }

    /// Number of stored directed edges (nonzeros of the adjacency).
    pub fn num_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// The adjacency matrix.
    pub fn adj(&self) -> &CsrMatrix {
        &self.adj
    }

    /// Whether the adjacency stores edge weights.
    pub fn is_weighted(&self) -> bool {
        self.adj.is_weighted()
    }

    /// A 64-bit structural fingerprint of the graph: an FNV-1a hash over the
    /// node count, the full CSR structure (`indptr` + `indices`), and the
    /// edge-weight bits when present.
    ///
    /// Two graphs with the same fingerprint have (modulo 64-bit collisions)
    /// identical adjacency, so everything GRANII derives from a graph —
    /// input features, selection, executed output — is identical too. That
    /// makes the fingerprint a sound cache key for per-graph artifacts like
    /// bound execution plans; the graph's display name is deliberately
    /// excluded. The hash is computed once per graph (under a
    /// `graph.fingerprint` span) and every later call reads the memo.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash_structure())
    }

    /// The memo behind [`GraphFeatures::extract`].
    pub(crate) fn features_memo(&self) -> &OnceLock<GraphFeatures> {
        &self.features
    }

    /// The FNV-1a pass behind [`Graph::fingerprint`].
    fn hash_structure(&self) -> u64 {
        let _span = granii_telemetry::span!(
            "graph.fingerprint",
            nodes = self.num_nodes(),
            edges = self.num_edges(),
        );
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(&(self.num_nodes() as u64).to_le_bytes());
        for &p in self.adj.indptr() {
            mix(&p.to_le_bytes());
        }
        for &i in self.adj.indices() {
            mix(&i.to_le_bytes());
        }
        if let Some(values) = self.adj.values() {
            mix(&[1]);
            for &v in values {
                mix(&v.to_bits().to_le_bytes());
            }
        } else {
            mix(&[0]);
        }
        h
    }

    /// Average degree (`edges / nodes`).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Adjacency density (`nnz / n^2`).
    pub fn density(&self) -> f64 {
        self.adj.density()
    }

    /// Out-degrees as `f32`.
    pub fn out_degrees(&self) -> Vec<f32> {
        self.adj.out_degrees()
    }

    /// In-degrees as `f32`.
    pub fn in_degrees(&self) -> Vec<f32> {
        self.adj.in_degrees()
    }

    /// Row-length distribution statistics of the adjacency.
    pub fn row_stats(&self) -> RowStats {
        self.adj.row_stats()
    }

    /// Returns `Ã`: this graph with self-loops added on every node (GCN's
    /// convention). Existing self-loops are not duplicated. One linear pass
    /// (under a `graph.add_self_loops` span) copies each row and inserts
    /// `(i, i, 1.0)` at its sorted position when row `i` lacks it; the result
    /// is named `"{name}+I"`.
    pub fn add_self_loops(&self) -> Graph {
        let _span = granii_telemetry::span!(
            "graph.add_self_loops",
            nodes = self.num_nodes(),
            edges = self.num_edges(),
        );
        let n = self.num_nodes();
        let cap = self.num_edges() + n;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(cap);
        let mut values = self.adj.values().map(|_| Vec::with_capacity(cap));
        indptr.push(0u64);
        for i in 0..n {
            let row = self.adj.row_indices(i);
            let diag = i as u32;
            // Columns within a row are strictly increasing.
            let at = row.partition_point(|&j| j < diag);
            let missing = row.get(at) != Some(&diag);
            indices.extend_from_slice(&row[..at]);
            if missing {
                indices.push(diag);
            }
            indices.extend_from_slice(&row[at..]);
            if let (Some(values), Some(row_values)) = (&mut values, self.adj.row_values(i)) {
                values.extend_from_slice(&row_values[..at]);
                if missing {
                    values.push(1.0);
                }
                values.extend_from_slice(&row_values[at..]);
            }
            indptr.push(indices.len() as u64);
        }
        let adj = CsrMatrix::from_parts(n, n, indptr, indices, values)
            .expect("inserting a missing diagonal entry keeps every CSR invariant");
        Graph::new(adj, format!("{}+I", self.name))
    }

    /// The GCN degree normalizer `D̃^{-1/2}` of this graph (out-degrees).
    pub fn deg_inv_sqrt(&self) -> DiagMatrix {
        DiagMatrix::from_vec(self.out_degrees()).inv_sqrt()
    }

    /// The induced subgraph on `nodes` (relabelled 0..len), used by sampling.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for invalid node ids.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Result<Graph> {
        let n = self.num_nodes();
        let mut remap = vec![usize::MAX; n];
        for (new, &old) in nodes.iter().enumerate() {
            if old >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: old,
                    num_nodes: n,
                });
            }
            remap[old] = new;
        }
        let mut coo = CooMatrix::new(nodes.len(), nodes.len());
        for (new_u, &old_u) in nodes.iter().enumerate() {
            let row = self.adj.row_indices(old_u);
            let vals = self.adj.row_values(old_u);
            for (off, &old_v) in row.iter().enumerate() {
                let new_v = remap[old_v as usize];
                if new_v != usize::MAX {
                    let v = vals.map_or(1.0, |v| v[off]);
                    coo.push(new_u, new_v, v).expect("in range");
                }
            }
        }
        let csr = if self.is_weighted() {
            coo.to_csr()
        } else {
            coo.to_csr_unweighted()
        };
        Ok(Graph::new(csr, format!("{}[sub]", self.name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_csr_requires_square() {
        let m = CooMatrix::from_entries(2, 3, &[(0, 1, 1.0)])
            .unwrap()
            .to_csr();
        assert!(matches!(
            Graph::from_csr(m),
            Err(GraphError::NotSquare { .. })
        ));
    }

    #[test]
    fn from_edges_validates_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
    }

    #[test]
    fn undirected_stores_both_orientations_once() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 1)]).unwrap();
        assert_eq!(g.num_edges(), 3); // (0,1), (1,0), (1,1)
        assert!(g.adj().is_pattern_symmetric());
    }

    #[test]
    fn add_self_loops_is_idempotent_on_pattern() {
        let g = Graph::undirected_from_edges(3, &[(0, 1)]).unwrap();
        let g1 = g.add_self_loops();
        assert_eq!(g1.num_edges(), 2 + 3);
        let g2 = g1.add_self_loops();
        assert_eq!(g2.num_edges(), g1.num_edges());
    }

    #[test]
    fn deg_inv_sqrt_matches_degrees() {
        let g = Graph::undirected_from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let d = g.deg_inv_sqrt();
        assert!((d.values()[0] - 1.0 / (2.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(d.values()[1], 1.0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let sub = g.induced_subgraph(&[1, 2]).unwrap();
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 2); // 1-2 in both directions
        assert_eq!(sub.adj().get(0, 1), 1.0);
        assert!(g.induced_subgraph(&[9]).is_err());
    }

    #[test]
    fn isolated_nodes_have_zero_norm() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let d = g.deg_inv_sqrt();
        assert_eq!(d.values()[2], 0.0);
    }

    #[test]
    fn fingerprint_identifies_structure_not_name() {
        let g = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let same = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3)])
            .unwrap()
            .with_name("renamed");
        assert_eq!(g.fingerprint(), same.fingerprint(), "name must not matter");
        assert_eq!(g.fingerprint(), g.fingerprint(), "stable across calls");

        // One extra edge, one fewer node, or a different wiring all change it.
        let extra = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let smaller = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let rewired = Graph::undirected_from_edges(4, &[(0, 2), (1, 2), (2, 3)]).unwrap();
        assert_ne!(g.fingerprint(), extra.fingerprint());
        assert_ne!(g.fingerprint(), smaller.fingerprint());
        assert_ne!(g.fingerprint(), rewired.fingerprint());

        // Same pattern, different node count (trailing isolated node).
        let padded = Graph::undirected_from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_ne!(g.fingerprint(), padded.fingerprint());
    }

    #[test]
    fn fingerprint_sees_edge_weights() {
        let unweighted = CooMatrix::from_entries(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)])
            .unwrap()
            .to_csr()
            .drop_values();
        let weighted = CooMatrix::from_entries(2, 2, &[(0, 1, 2.5), (1, 0, 1.0)])
            .unwrap()
            .to_csr();
        let gu = Graph::from_csr(unweighted).unwrap();
        let gw = Graph::from_csr(weighted).unwrap();
        assert_ne!(gu.fingerprint(), gw.fingerprint());
    }
}
