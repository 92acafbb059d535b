//! Association trees: concrete primitive assignments for matrix
//! re-associations (paper §IV-C).
//!
//! A tree is rendered as a [`CandidateProgram`]: a list of steps, each with
//! a cost view ([`PrimStep`]) that the pruner and the cost models read, and
//! a typed operation ([`Op`]) that the executors run. An operation names its
//! operands as program leaves or as indices of earlier steps, so running a
//! program never parses an expression.

mod generate;
mod lower;
mod prune;

use std::fmt;

pub use generate::enumerate;
pub use lower::lower;
pub use prune::{prune, Scenario};

use granii_matrix::{PrimitiveKind, WorkStats};
use serde::{Deserialize, Serialize};

use crate::ir::{Attr, Dim, MatRef};
use crate::{CoreError, Result};

/// One primitive invocation inside a candidate program.
///
/// `rows`/`inner`/`cols` are the symbolic operation sizes:
/// GEMM `rows × inner · inner × cols`; sparse primitives use `inner = Nnz`
/// (the adjacency work dimension) and `cols` = feature width.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrimStep {
    /// The assigned sparse/dense primitive.
    pub kind: PrimitiveKind,
    /// Symbolic output-row count.
    pub rows: Dim,
    /// Symbolic inner/work dimension.
    pub inner: Dim,
    /// Symbolic output-column count.
    pub cols: Dim,
    /// Whether the step depends only on the graph structure (adjacency and
    /// degree operands) and is therefore hoisted out of the iteration loop —
    /// GCN's precomputed normalization (Eq. 3) is the canonical case. Its
    /// cost amortizes over the run's iterations.
    pub once: bool,
}

impl PrimStep {
    /// The size token used by the pruner (kind + symbolic sizes + hoisting).
    pub fn token(&self) -> (PrimitiveKind, Dim, Dim, Dim, bool) {
        (self.kind, self.rows, self.inner, self.cols, self.once)
    }

    /// Builds the [`WorkStats`] for this step at concrete sizes.
    ///
    /// `irregularity` is the adjacency degree CV (used by sparse primitives).
    pub fn work_stats(
        &self,
        n: usize,
        nnz: usize,
        k1: usize,
        k2: usize,
        irregularity: f64,
    ) -> WorkStats {
        let rows = self.rows.resolve(n, nnz, k1, k2);
        let inner = self.inner.resolve(n, nnz, k1, k2);
        let cols = self.cols.resolve(n, nnz, k1, k2);
        match self.kind {
            PrimitiveKind::Gemm => WorkStats::gemm(rows, inner, cols),
            PrimitiveKind::SpmmWeighted => WorkStats::spmm(rows, inner, cols, true, irregularity),
            PrimitiveKind::SpmmUnweighted => {
                WorkStats::spmm(rows, inner, cols, false, irregularity)
            }
            PrimitiveKind::Sddmm => WorkStats::sddmm(rows, inner, cols, irregularity),
            PrimitiveKind::RowBroadcast => WorkStats::row_broadcast(rows, cols),
            PrimitiveKind::ColBroadcast => WorkStats::col_broadcast(rows, cols),
            PrimitiveKind::Elementwise => WorkStats::elementwise(rows * cols, 1),
            PrimitiveKind::EdgeSoftmax => WorkStats::edge_softmax(rows, inner, irregularity),
            PrimitiveKind::Binning => WorkStats::binning(inner, rows),
        }
    }

    /// Symbolic complexity of the step (`O(...)` string for Fig 3 style
    /// tables).
    pub fn complexity(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for d in [self.rows, self.inner, self.cols] {
            if d != Dim::One {
                parts.push(d.symbol());
            }
        }
        // Sparse primitives' row dimension is covered by the nnz scan.
        if matches!(
            self.kind,
            PrimitiveKind::SpmmWeighted
                | PrimitiveKind::SpmmUnweighted
                | PrimitiveKind::Sddmm
                | PrimitiveKind::EdgeSoftmax
        ) && parts.first() == Some(&"N")
        {
            parts.remove(0);
        }
        format!("O({})", parts.join("·"))
    }
}

/// A complete association tree rendered as an executable primitive program.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateProgram {
    /// Canonical parenthesized form (one association of the IR).
    pub expr: String,
    /// The cost view of each step, in execution order, after
    /// common-subexpression reuse.
    pub steps: Vec<PrimStep>,
    /// The operation of each step: `ops[i]` computes step `i` from leaves
    /// and earlier steps. The last step's value is the program's result.
    pub ops: Vec<Op<Operand>>,
}

impl CandidateProgram {
    /// Multiset of pruning tokens.
    pub fn tokens(&self) -> Vec<(PrimitiveKind, Dim, Dim, Dim, bool)> {
        let mut t: Vec<_> = self.steps.iter().map(PrimStep::token).collect();
        t.sort();
        t
    }

    /// Checks what both executors rely on: one operation per step, every
    /// operand a leaf or an earlier step of the kind its operation reads,
    /// and a dense result.
    pub(crate) fn check(&self) -> Result<()> {
        let invalid = |msg: String| Err(CoreError::InvalidIr(format!("{}: {msg}", self.expr)));
        if self.ops.len() != self.steps.len() {
            return invalid(format!(
                "{} operations for {} steps",
                self.ops.len(),
                self.steps.len()
            ));
        }
        let mut kinds: Vec<ValueKind> = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            for (v, want) in op.operands() {
                let got = match v {
                    Operand::Leaf(leaf) => leaf.kind(),
                    Operand::Step(j) => match kinds.get(*j) {
                        Some(&kind) => kind,
                        None => {
                            return invalid(format!("step {i} reads s{j}, which is not before it"))
                        }
                    },
                };
                if got != want {
                    return invalid(format!(
                        "operand {v} of step {i} ({op}) is {got:?}, expected {want:?}"
                    ));
                }
            }
            kinds.push(op.result());
        }
        match kinds.last() {
            None => invalid("the program has no steps".into()),
            Some(ValueKind::Dense) => Ok(()),
            Some(kind) => invalid(format!("the result is {kind:?}, not dense")),
        }
    }
}

/// A candidate that survived input-oblivious pruning, annotated with the
/// embedding-size scenarios in which it can be optimal (§IV-C "It also
/// annotates the candidates when they were profitable (<, >)").
#[derive(Debug, Clone, PartialEq)]
pub struct Promoted {
    /// The surviving program.
    pub program: CandidateProgram,
    /// Can win when `K1 > K2` (shrinking embeddings).
    pub shrink: bool,
    /// Can win when `K1 < K2` (growing embeddings).
    pub grow: bool,
}

/// A program input, bound from
/// [`ProgramInputs`](crate::interp::ProgramInputs) when the program runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Leaf {
    /// The aggregation mask `A`.
    Adj,
    /// `D̃^{-1/2}` (the leaf `D`).
    DegInvSqrt,
    /// `D^{-1}` (GraphSAGE's mean normalizer).
    DegInv,
    /// Node features `H`.
    Features,
    /// GIN's `(1+ε)I` constant diagonal.
    EpsIdentity,
    /// A dense weight (`W`, `W1`, `a_l`, ...), bound by name.
    Weight(String),
}

impl Leaf {
    /// The leaf bound to an IR leaf matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] for a leaf no program input binds.
    pub(crate) fn of(m: &MatRef) -> Result<Self> {
        Ok(match (m.attr, m.name.as_str()) {
            (Attr::SparseUnweighted, "A") => Leaf::Adj,
            (Attr::Diagonal, "D") => Leaf::DegInvSqrt,
            (Attr::Diagonal, "D^{-1}") => Leaf::DegInv,
            (Attr::Diagonal, "(1+ε)I") => Leaf::EpsIdentity,
            (Attr::DenseData, "H") => Leaf::Features,
            (Attr::DenseWeight, name) => Leaf::Weight(name.to_owned()),
            (attr, name) => {
                return Err(CoreError::InvalidIr(format!(
                    "leaf {name} ({attr:?}) has no program input"
                )))
            }
        })
    }

    /// The leaf's name in the matrix IR.
    pub fn name(&self) -> &str {
        match self {
            Leaf::Adj => "A",
            Leaf::DegInvSqrt => "D",
            Leaf::DegInv => "D^{-1}",
            Leaf::Features => "H",
            Leaf::EpsIdentity => "(1+ε)I",
            Leaf::Weight(name) => name,
        }
    }

    pub(crate) fn kind(&self) -> ValueKind {
        match self {
            Leaf::Adj => ValueKind::Sparse,
            Leaf::DegInvSqrt | Leaf::DegInv | Leaf::EpsIdentity => ValueKind::Diag,
            Leaf::Features | Leaf::Weight(_) => ValueKind::Dense,
        }
    }
}

/// An operand of a program step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A program input.
    Leaf(Leaf),
    /// The value of an earlier step, by index.
    Step(usize),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Leaf(leaf) => f.write_str(leaf.name()),
            Operand::Step(i) => write!(f, "s{i}"),
        }
    }
}

/// What a value holds. All sparse values share the adjacency's pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueKind {
    Dense,
    Sparse,
    Diag,
}

/// One kernel-level operation. `V` names the operands: an [`Operand`] in a
/// [`CandidateProgram`], a value index in an
/// [`ExecPlan`](crate::execplan::ExecPlan).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op<V> {
    /// Dense × dense product (GEMM).
    Gemm {
        /// Dense left operand.
        a: V,
        /// Dense right operand.
        b: V,
    },
    /// Sparse × dense product (g-SpMM).
    Spmm {
        /// Sparse left operand.
        adj: V,
        /// Dense right operand.
        x: V,
        /// Multiply by the edge values (`SpmmWeighted`); otherwise only the
        /// sparsity pattern is used.
        weighted: bool,
    },
    /// GAT logits: per-edge `ul_i + vr_j` over the mask.
    AttLogits {
        /// Sparse mask giving the edges.
        mask: V,
        /// Dense per-node left scores.
        ul: V,
        /// Dense per-node right scores.
        vr: V,
    },
    /// `diag · sparse · diag` edge scaling (SDDMM). Several diagonals on one
    /// side are multiplied together, uncharged, before the kernel.
    ScaleCsr {
        /// Diagonal factors left of the sparse operand, in product order.
        dl: Vec<V>,
        /// The scaled sparse operand.
        sparse: V,
        /// Diagonal factors right of the sparse operand, in product order.
        dr: Vec<V>,
    },
    /// Row-wise diagonal broadcast `diag(d) · x`.
    RowBroadcast {
        /// Diagonal factor.
        d: V,
        /// Dense operand.
        x: V,
    },
    /// Column-wise diagonal broadcast `x · diag(d)`.
    ColBroadcast {
        /// Dense operand.
        x: V,
        /// Diagonal factor.
        d: V,
    },
    /// GAT's LeakyReLU over sparse edge logits.
    LeakyRelu {
        /// Sparse logits.
        logits: V,
    },
    /// Per-row softmax over sparse edge scores.
    EdgeSoftmax {
        /// Sparse scores.
        scored: V,
    },
    /// Dense ReLU (the IR's nonlinearity `σ`).
    Relu {
        /// Dense operand.
        x: V,
    },
    /// Element-wise sum of two dense values. A sum of `k` terms is `k − 1`
    /// of these.
    Add {
        /// Dense left term.
        a: V,
        /// Dense right term.
        b: V,
    },
    /// Element-wise product of two diagonals (`D·D`).
    DiagMerge {
        /// Left diagonal.
        a: V,
        /// Right diagonal.
        b: V,
    },
}

impl<V> Op<V> {
    /// Stable display name, also used by the per-instruction profiler.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Gemm { .. } => "gemm",
            Op::Spmm { weighted: true, .. } => "spmm_weighted",
            Op::Spmm {
                weighted: false, ..
            } => "spmm",
            Op::AttLogits { .. } => "att_logits",
            Op::ScaleCsr { .. } => "scale_csr",
            Op::RowBroadcast { .. } => "row_broadcast",
            Op::ColBroadcast { .. } => "col_broadcast",
            Op::LeakyRelu { .. } => "leaky_relu",
            Op::EdgeSoftmax { .. } => "edge_softmax",
            Op::Relu { .. } => "relu",
            Op::Add { .. } => "add",
            Op::DiagMerge { .. } => "diag_merge",
        }
    }

    /// The operands in reading order, each with the kind of value it must
    /// hold.
    pub(crate) fn operands(&self) -> Vec<(&V, ValueKind)> {
        use ValueKind::{Dense, Diag, Sparse};
        match self {
            Op::Gemm { a, b } | Op::Add { a, b } => vec![(a, Dense), (b, Dense)],
            Op::Spmm { adj, x, .. } => vec![(adj, Sparse), (x, Dense)],
            Op::AttLogits { mask, ul, vr } => vec![(mask, Sparse), (ul, Dense), (vr, Dense)],
            Op::ScaleCsr { dl, sparse, dr } => dl
                .iter()
                .map(|d| (d, Diag))
                .chain([(sparse, Sparse)])
                .chain(dr.iter().map(|d| (d, Diag)))
                .collect(),
            Op::RowBroadcast { d, x } => vec![(d, Diag), (x, Dense)],
            Op::ColBroadcast { x, d } => vec![(x, Dense), (d, Diag)],
            Op::LeakyRelu { logits: s } | Op::EdgeSoftmax { scored: s } => vec![(s, Sparse)],
            Op::Relu { x } => vec![(x, Dense)],
            Op::DiagMerge { a, b } => vec![(a, Diag), (b, Diag)],
        }
    }

    /// The kind of value the operation produces.
    pub(crate) fn result(&self) -> ValueKind {
        match self {
            Op::AttLogits { .. }
            | Op::ScaleCsr { .. }
            | Op::LeakyRelu { .. }
            | Op::EdgeSoftmax { .. } => ValueKind::Sparse,
            Op::DiagMerge { .. } => ValueKind::Diag,
            _ => ValueKind::Dense,
        }
    }

    /// The same operation with every operand renamed by `f`.
    pub(crate) fn map<W>(&self, mut f: impl FnMut(&V) -> W) -> Op<W> {
        match self {
            Op::Gemm { a, b } => Op::Gemm { a: f(a), b: f(b) },
            Op::Spmm { adj, x, weighted } => Op::Spmm {
                adj: f(adj),
                x: f(x),
                weighted: *weighted,
            },
            Op::AttLogits { mask, ul, vr } => Op::AttLogits {
                mask: f(mask),
                ul: f(ul),
                vr: f(vr),
            },
            Op::ScaleCsr { dl, sparse, dr } => Op::ScaleCsr {
                dl: dl.iter().map(&mut f).collect(),
                sparse: f(sparse),
                dr: dr.iter().map(f).collect(),
            },
            Op::RowBroadcast { d, x } => Op::RowBroadcast { d: f(d), x: f(x) },
            Op::ColBroadcast { x, d } => Op::ColBroadcast { x: f(x), d: f(d) },
            Op::LeakyRelu { logits } => Op::LeakyRelu { logits: f(logits) },
            Op::EdgeSoftmax { scored } => Op::EdgeSoftmax { scored: f(scored) },
            Op::Relu { x } => Op::Relu { x: f(x) },
            Op::Add { a, b } => Op::Add { a: f(a), b: f(b) },
            Op::DiagMerge { a, b } => Op::DiagMerge { a: f(a), b: f(b) },
        }
    }
}

impl<V: fmt::Display> fmt::Display for Op<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name())?;
        for (i, (v, _)) in self.operands().into_iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}
