//! GRANII: input-aware selection and ordering of sparse/dense matrix
//! primitives in graph neural networks.
//!
//! This is the façade crate of the GRANII reproduction. It re-exports the
//! whole stack:
//!
//! - [`matrix`] — sparse/dense kernels and device performance models,
//! - [`graph`] — graphs, generators, datasets, sampling, featurization,
//! - [`boost`] — gradient-boosted regression trees (the cost-model learner),
//! - [`gnn`] — GNN models, message passing, autodiff, baseline systems,
//! - [`core`] — the GRANII compiler and runtime itself,
//! - [`serve`] — the concurrent serving runtime (plan cache, bounded queue),
//! - [`telemetry`] — structured tracing (spans), quantile sketches,
//!   time-series rings, and exporters; a server's events live in its
//!   flight recorder ([`serve::FlightRecorder`]).
//!
//! # Quickstart
//!
//! ```
//! use granii::core::{Granii, GraniiOptions};
//! use granii::gnn::spec::ModelKind;
//! use granii::graph::generators;
//! use granii::matrix::device::DeviceKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small power-law graph and a GCN layer 64 -> 32.
//! let graph = generators::power_law(500, 8, 42)?;
//! let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())?;
//! let decision = granii.select(ModelKind::Gcn, &graph, 64, 32)?;
//! println!("selected composition: {}", decision.composition_name());
//! # Ok(())
//! # }
//! ```

pub use granii_boost as boost;
pub use granii_core as core;
pub use granii_gnn as gnn;
pub use granii_graph as graph;
pub use granii_matrix as matrix;
pub use granii_serve as serve;
pub use granii_telemetry as telemetry;
