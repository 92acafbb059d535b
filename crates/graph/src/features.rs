//! The graph half of GRANII's input featurizer (paper §IV-E1, Appendix E).
//!
//! The featurizer inspects the input graph at runtime and produces a small,
//! hand-crafted embedding of its structure (the paper explicitly avoids
//! learned feature extractors for scalability). The cost models concatenate
//! these with the GNN embedding sizes.

use serde::{Deserialize, Serialize};

use crate::Graph;

/// Hand-crafted structural features of a graph.
///
/// # Example
///
/// ```
/// use granii_graph::{generators, GraphFeatures};
///
/// # fn main() -> Result<(), granii_graph::GraphError> {
/// let g = generators::star(50)?;
/// let f = GraphFeatures::extract(&g);
/// assert!(f.degree_cv > 1.0); // stars are maximally skewed
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphFeatures {
    /// Number of nodes.
    pub num_nodes: f64,
    /// Number of stored directed edges.
    pub num_edges: f64,
    /// `log2(1 + nodes)` — scale feature.
    pub log_nodes: f64,
    /// `log2(1 + edges)` — scale feature.
    pub log_edges: f64,
    /// Adjacency density `nnz / n^2`.
    pub density: f64,
    /// Average degree.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: f64,
    /// Degree coefficient of variation (skew proxy).
    pub degree_cv: f64,
    /// `max_degree / avg_degree` (hub dominance).
    pub hub_ratio: f64,
    /// Fraction of isolated (zero out-degree) nodes.
    pub empty_row_fraction: f64,
    /// Fraction of nodes with degree in (0, 8].
    pub frac_deg_low: f64,
    /// Fraction of nodes with degree in (8, 64].
    pub frac_deg_mid: f64,
    /// Fraction of nodes with degree in (64, 512].
    pub frac_deg_high: f64,
    /// Fraction of nodes with degree above 512 (hub bucket).
    pub frac_deg_hub: f64,
}

impl GraphFeatures {
    /// Number of features produced by [`GraphFeatures::to_vec`].
    pub const LEN: usize = 14;

    /// Feature names in `to_vec` order (for model introspection).
    pub const NAMES: [&'static str; Self::LEN] = [
        "num_nodes",
        "num_edges",
        "log_nodes",
        "log_edges",
        "density",
        "avg_degree",
        "max_degree",
        "degree_cv",
        "hub_ratio",
        "empty_row_fraction",
        "frac_deg_low",
        "frac_deg_mid",
        "frac_deg_high",
        "frac_deg_hub",
    ];

    /// The features of a graph (the "efficiently inspects the input graph
    /// at run time" requirement of §IV-E1). The first call on a graph makes
    /// one O(nodes) pass over the row pointers, under a `graph.featurize`
    /// span; the graph keeps the result, so every later call on it (or on a
    /// clone of it) reads the memo.
    pub fn extract(graph: &Graph) -> Self {
        *graph.features_memo().get_or_init(|| Self::inspect(graph))
    }

    /// The O(nodes) pass behind [`GraphFeatures::extract`].
    fn inspect(graph: &Graph) -> Self {
        let _span = granii_telemetry::span!(
            "graph.featurize",
            nodes = graph.num_nodes(),
            edges = graph.num_edges(),
        );
        let stats = graph.row_stats();
        let n = graph.num_nodes() as f64;
        let m = graph.num_edges() as f64;
        // Log-scale degree histogram (the hand-crafted distribution features
        // of the paper's Appendix E featurizer).
        let mut buckets = [0usize; 4];
        for r in 0..graph.num_nodes() {
            let d = graph.adj().row_nnz(r);
            match d {
                0 => {}
                1..=8 => buckets[0] += 1,
                9..=64 => buckets[1] += 1,
                65..=512 => buckets[2] += 1,
                _ => buckets[3] += 1,
            }
        }
        let frac = |c: usize| if n > 0.0 { c as f64 / n } else { 0.0 };
        Self {
            num_nodes: n,
            num_edges: m,
            log_nodes: (1.0 + n).log2(),
            log_edges: (1.0 + m).log2(),
            density: graph.density(),
            avg_degree: stats.mean,
            max_degree: stats.max as f64,
            degree_cv: stats.cv,
            hub_ratio: if stats.mean > 0.0 {
                stats.max as f64 / stats.mean
            } else {
                0.0
            },
            empty_row_fraction: stats.empty_row_fraction,
            frac_deg_low: frac(buckets[0]),
            frac_deg_mid: frac(buckets[1]),
            frac_deg_high: frac(buckets[2]),
            frac_deg_hub: frac(buckets[3]),
        }
    }

    /// Flattens into the fixed-order vector consumed by the cost models.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.num_nodes,
            self.num_edges,
            self.log_nodes,
            self.log_edges,
            self.density,
            self.avg_degree,
            self.max_degree,
            self.degree_cv,
            self.hub_ratio,
            self.empty_row_fraction,
            self.frac_deg_low,
            self.frac_deg_mid,
            self.frac_deg_high,
            self.frac_deg_hub,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn vector_length_matches_names() {
        let g = generators::ring(10).unwrap();
        let f = GraphFeatures::extract(&g);
        assert_eq!(f.to_vec().len(), GraphFeatures::LEN);
        assert_eq!(GraphFeatures::NAMES.len(), GraphFeatures::LEN);
    }

    #[test]
    fn ring_features_are_uniform() {
        let g = generators::ring(100).unwrap();
        let f = GraphFeatures::extract(&g);
        assert_eq!(f.avg_degree, 2.0);
        assert_eq!(f.degree_cv, 0.0);
        assert_eq!(f.hub_ratio, 1.0);
        assert_eq!(f.empty_row_fraction, 0.0);
    }

    #[test]
    fn density_separates_graph_classes() {
        let dense = generators::mycielskian(9).unwrap();
        let sparse = generators::grid_2d(20, 20).unwrap();
        let fd = GraphFeatures::extract(&dense);
        let fs = GraphFeatures::extract(&sparse);
        assert!(fd.density > 10.0 * fs.density);
        assert!(fd.avg_degree > 8.0 * fs.avg_degree);
    }

    #[test]
    fn degree_histogram_partitions_nodes() {
        let g = generators::star(100).unwrap();
        let f = GraphFeatures::extract(&g);
        // 99 leaves with degree 1, one hub with degree 99.
        assert!((f.frac_deg_low - 0.99).abs() < 1e-9);
        assert!((f.frac_deg_high - 0.01).abs() < 1e-9);
        let total = f.frac_deg_low
            + f.frac_deg_mid
            + f.frac_deg_high
            + f.frac_deg_hub
            + f.empty_row_fraction;
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_nodes_counted() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let f = GraphFeatures::extract(&g);
        assert_eq!(f.empty_row_fraction, 0.75);
    }
}
