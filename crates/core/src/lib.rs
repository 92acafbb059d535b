//! GRANII: a compiler and runtime that selects and orders sparse/dense matrix
//! primitives in GNNs by inspecting the input.
//!
//! This crate is the paper's primary contribution (§IV). The pipeline mirrors
//! Figure 5:
//!
//! **Offline compilation stage**
//! 1. [`ir`] — GNN models (written against the message-passing API of
//!    `granii-gnn`) are translated into a *matrix IR*: a tree whose leaves
//!    carry the Table I attributes (dense data/weight, sparse
//!    weighted/unweighted, diagonal) and whose associative multiplications are
//!    kept n-ary so re-association choices stay visible (§IV-B),
//! 2. [`ir::rewrite`] — row-broadcasts are rewritten into diagonal-matrix
//!    multiplications so normalization can re-associate into the chain
//!    (Fig 6(c)),
//! 3. [`assoc`] — Algorithm 1 enumerates every valid association tree,
//!    assigning a sparse/dense primitive to each association via the rule
//!    table (App. D) and emitting a typed program whose steps name their
//!    operands by index; common subexpressions are reused; the input-oblivious
//!    pruner drops candidates dominated under *both* embedding-size scenarios
//!    and annotates survivors with the scenario(s) they can win (§IV-C),
//! 4. [`plan`] — promoted candidates are lowered to executable compositions
//!    guarded by embedding-size conditions and cost-model comparisons
//!    (Fig 7, §IV-D).
//!
//! **Online runtime stage**
//! 5. [`cost`] — an input featurizer summarizes the graph; per-primitive
//!    gradient-boosted cost models (one per primitive × device, §IV-E)
//!    predict each candidate's latency,
//! 6. [`runtime`] — the cheapest candidate is selected for the concrete
//!    (graph, embedding sizes, device); selection overheads are reported,
//! 7. [`execplan`] — the selected candidate is lowered once into a
//!    slot-addressed [`execplan::ExecPlan`] whose steady-state iterations run
//!    with zero heap allocation; the [`interp`] evaluator of the same typed
//!    programs is the bitwise, charge-exact reference it is tested against.
//!
//! The top-level entry point is [`Granii`] (the `GRANII(model, graph, ...)`
//! call of Fig 4).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assoc;
pub mod audit;
pub mod complexity;
pub mod cost;
mod error;
pub mod execplan;
mod granii;
pub mod interp;
pub mod ir;
pub mod plan;
pub mod runtime;

pub use audit::VerifyReport;
pub use error::CoreError;
pub use granii::{Granii, GraniiOptions};
pub use runtime::{Selection, SteadyStateReport};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
