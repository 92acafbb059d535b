//! The input featurizer (paper §IV-E1).
//!
//! "The input featurizer efficiently inspects the input graph at run time to
//! obtain the necessary graph features and concatenates the resulting
//! embedding with the GNN embedding sizes to create the final featurized
//! input embedding."

use granii_graph::{Graph, GraphFeatures};
use serde::{Deserialize, Serialize};

use crate::assoc::PrimStep;

/// A featurized (graph, embedding-size) input, ready to feed cost models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeaturizedInput {
    /// Structural graph features.
    pub graph: GraphFeatures,
    /// Node count (for resolving symbolic dims).
    pub num_nodes: usize,
    /// Adjacency nonzeros including self-loops (the aggregation pattern).
    pub num_edges: usize,
    /// Input embedding size.
    pub k1: usize,
    /// Output embedding size.
    pub k2: usize,
}

impl FeaturizedInput {
    /// Number of features produced per primitive invocation.
    pub const LEN: usize = GraphFeatures::LEN + 5;

    /// Extracts features from a graph (one O(nodes) pass) and records the
    /// embedding sizes. `num_edges` uses the self-loop form since that is the
    /// pattern aggregations run over.
    pub fn extract(graph: &Graph, k1: usize, k2: usize) -> Self {
        let features = GraphFeatures::extract(graph);
        Self {
            graph: features,
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_edges() + graph.num_nodes(),
            k1,
            k2,
        }
    }

    /// The feature vector for one primitive step: graph features ++ resolved
    /// operation sizes ++ embedding sizes.
    pub fn step_features(&self, step: &PrimStep) -> Vec<f64> {
        let mut v = self.graph.to_vec();
        v.push(
            step.rows
                .resolve(self.num_nodes, self.num_edges, self.k1, self.k2) as f64,
        );
        v.push(
            step.inner
                .resolve(self.num_nodes, self.num_edges, self.k1, self.k2) as f64,
        );
        v.push(
            step.cols
                .resolve(self.num_nodes, self.num_edges, self.k1, self.k2) as f64,
        );
        v.push(self.k1 as f64);
        v.push(self.k2 as f64);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Dim;
    use granii_graph::generators;
    use granii_matrix::PrimitiveKind;

    #[test]
    fn feature_vector_has_fixed_length() {
        let g = generators::ring(10).unwrap();
        let f = FeaturizedInput::extract(&g, 32, 64);
        let step = PrimStep {
            kind: PrimitiveKind::Gemm,
            rows: Dim::N,
            inner: Dim::K1,
            cols: Dim::K2,
            once: false,
        };
        assert_eq!(f.step_features(&step).len(), FeaturizedInput::LEN);
    }

    #[test]
    fn dims_resolve_against_graph_and_config() {
        let g = generators::ring(10).unwrap();
        let f = FeaturizedInput::extract(&g, 32, 64);
        let step = PrimStep {
            kind: PrimitiveKind::SpmmUnweighted,
            rows: Dim::N,
            inner: Dim::Nnz,
            cols: Dim::K2,
            once: false,
        };
        let v = f.step_features(&step);
        let base = granii_graph::GraphFeatures::LEN;
        assert_eq!(v[base], 10.0); // rows = N
        assert_eq!(v[base + 1], (g.num_edges() + 10) as f64); // nnz with loops
        assert_eq!(v[base + 2], 64.0); // cols = K2
        assert_eq!(v[base + 3], 32.0);
        assert_eq!(v[base + 4], 64.0);
    }
}
