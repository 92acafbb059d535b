//! Graph substrate for the GRANII reproduction.
//!
//! Provides the [`Graph`] type (an immutable square CSR adjacency that
//! computes its [`Graph::fingerprint`] and its [`GraphFeatures`] at most
//! once and keeps them), deterministic [`generators`] covering the
//! structural classes of the paper's evaluation suite (power-law, road,
//! Mycielskian, ...), the [`datasets`] module with synthetic stand-ins for
//! the six evaluation graphs of Table II, neighborhood [`sampling`]
//! (§VI-E), the [`features`] extracted by GRANII's input featurizer
//! (§IV-E1), and edge-list [`io`].
//!
//! # Example
//!
//! ```
//! use granii_graph::generators;
//!
//! # fn main() -> Result<(), granii_graph::GraphError> {
//! let g = generators::grid_2d(8, 8)?;
//! assert_eq!(g.num_nodes(), 64);
//! assert!(g.adj().is_pattern_symmetric());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datasets;
mod error;
pub mod features;
pub mod generators;
mod graph;
pub mod io;
pub mod sampling;

pub use error::GraphError;
pub use features::GraphFeatures;
pub use graph::Graph;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
