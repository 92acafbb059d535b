//! Per-graph execution context shared by all compositions of a model.

use std::sync::OnceLock;

use granii_graph::Graph;
use granii_matrix::{CsrMatrix, DiagMatrix, RowStats, Semiring};

use crate::{GnnError, Result};

/// Cached per-graph state used by GNN layers.
///
/// Building the context performs the graph-level preprocessing every
/// composition shares (degree extraction, structural statistics). The
/// self-loop graph `Ã` is built on the first [`GraphCtx::adj`] or
/// [`GraphCtx::with_loops`] call, so a program over the raw adjacency (GIN,
/// GraphSAGE) never pays for it: `Ã`'s degrees and statistics come from its
/// row lengths, `|row_i(A)| + [i ∉ row_i(A)]`, read off `A` in one pass.
/// Composition-specific preprocessing — e.g. the precomputed normalized
/// adjacency of GCN's Eq. 3 — is *not* cached here; it is charged to
/// whichever composition performs it.
///
/// # Example
///
/// ```
/// use granii_gnn::GraphCtx;
/// use granii_graph::generators;
///
/// # fn main() -> Result<(), granii_gnn::GnnError> {
/// let g = generators::ring(10)?;
/// let ctx = GraphCtx::new(&g)?;
/// assert_eq!(ctx.num_nodes(), 10);
/// assert!(ctx.irregularity() < 0.1); // rings are uniform
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphCtx {
    graph: Graph,
    /// `Ã`, built on first use.
    with_loops: OnceLock<Graph>,
    deg_inv_sqrt: Vec<f32>,
    irregularity: f64,
    num_edges_with_loops: usize,
}

impl GraphCtx {
    /// Builds the context for a graph.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for an empty graph.
    pub fn new(graph: &Graph) -> Result<Self> {
        if graph.num_nodes() == 0 {
            return Err(GnnError::InvalidConfig("graph has no nodes".into()));
        }
        let adj = graph.adj();
        // Row lengths of `Ã`: each row gains its diagonal entry unless it
        // already stores one (columns within a row are sorted).
        let lengths: Vec<u64> = (0..graph.num_nodes())
            .map(|i| {
                let row = adj.row_indices(i);
                row.len() as u64 + u64::from(row.binary_search(&(i as u32)).is_err())
            })
            .collect();
        let degrees = lengths.iter().map(|&d| d as f32).collect();
        Ok(Self {
            graph: graph.clone(),
            with_loops: OnceLock::new(),
            deg_inv_sqrt: DiagMatrix::from_vec(degrees).inv_sqrt().into_vec(),
            irregularity: RowStats::of_row_lengths(lengths.iter().copied()).cv,
            num_edges_with_loops: lengths.iter().sum::<u64>() as usize,
        })
    }

    /// The original graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The graph with self-loops (`Ã`), built on the first call.
    pub fn with_loops(&self) -> &Graph {
        self.with_loops.get_or_init(|| self.graph.add_self_loops())
    }

    /// Adjacency of `Ã` (the matrix GNN aggregations run over), built on the
    /// first call.
    pub fn adj(&self) -> &CsrMatrix {
        self.with_loops().adj()
    }

    /// `D̃^{-1/2}` of the self-loop graph.
    pub fn deg_inv_sqrt(&self) -> &[f32] {
        &self.deg_inv_sqrt
    }

    /// Degree coefficient of variation — the irregularity input to the device
    /// models and the featurizer.
    pub fn irregularity(&self) -> f64 {
        self.irregularity
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of directed edges in `Ã`.
    pub fn num_edges_with_loops(&self) -> usize {
        self.num_edges_with_loops
    }

    /// The sum-aggregation semiring for `Ã`: the cheap `copy_u` form when the
    /// adjacency is unweighted, the full `(+, ×)` form when edge weights are
    /// present — the Table I weighted/unweighted sub-attribute distinction
    /// (§III-A: the cheaper aggregation applies only to unweighted graphs).
    pub fn sum_semiring(&self) -> Semiring {
        // `Ã` is weighted exactly when the graph is.
        if self.graph.is_weighted() {
            Semiring::plus_mul()
        } else {
            Semiring::plus_copy_rhs()
        }
    }

    /// The sum-aggregation semiring for the raw (no-self-loop) adjacency,
    /// used by models that aggregate without `Ã` (GIN, GraphSAGE).
    pub fn raw_sum_semiring(&self) -> Semiring {
        if self.graph.is_weighted() {
            Semiring::plus_mul()
        } else {
            Semiring::plus_copy_rhs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granii_graph::generators;

    #[test]
    fn context_adds_self_loops() {
        let g = generators::ring(5).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        assert_eq!(ctx.num_edges_with_loops(), g.num_edges() + 5);
        for i in 0..5 {
            assert_ne!(ctx.adj().get(i, i), 0.0);
        }
    }

    #[test]
    fn normalizer_uses_self_loop_degrees() {
        let g = generators::ring(4).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        // Ring degree 2 + self-loop = 3.
        for &v in ctx.deg_inv_sqrt() {
            assert!((v - 1.0 / 3.0f32.sqrt()).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(GraphCtx::new(&g).is_err());
    }

    #[test]
    fn irregularity_reflects_skew() {
        let star = GraphCtx::new(&generators::star(50).unwrap()).unwrap();
        let ring = GraphCtx::new(&generators::ring(50).unwrap()).unwrap();
        assert!(star.irregularity() > ring.irregularity());
    }
}
