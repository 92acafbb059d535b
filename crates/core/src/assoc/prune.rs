//! Input-oblivious pruning of the association forest (paper §IV-C).
//!
//! Two embedding-size scenarios are considered — `K1 > K2` (shrinking) and
//! `K1 < K2` (growing). A candidate is dominated in a scenario if another
//! candidate
//!
//! 1. performs a strict sub-multiset of its primitives at the same sizes
//!    ("a candidate performing SpMM and a GEMM is unprofitable compared to
//!    another candidate performing only SpMM on the same matrix sizes"), or
//! 2. performs the same primitives on no-larger operand shapes.
//!
//! Candidates dominated in **both** scenarios are pruned; the survivors are
//! promoted and annotated with the scenario(s) in which they can win.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::ir::Dim;

use super::{CandidateProgram, Promoted};

/// Embedding-size scenario used by the input-oblivious rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scenario {
    /// `K1 > K2`: the layer shrinks embeddings.
    Shrink,
    /// `K1 < K2`: the layer grows embeddings.
    Grow,
}

impl Scenario {
    /// Both scenarios.
    pub const BOTH: [Scenario; 2] = [Scenario::Shrink, Scenario::Grow];

    /// Compares two symbolic dims under this scenario's `K1`/`K2` order.
    /// Returns `None` when incomparable (e.g. `N` vs `K1` — graph-dependent).
    fn cmp_dim(self, a: Dim, b: Dim) -> Option<Ordering> {
        if a == b {
            return Some(Ordering::Equal);
        }
        let rank = |d: Dim| -> Option<u8> {
            match (self, d) {
                (_, Dim::One) => Some(0),
                (Scenario::Shrink, Dim::K2) | (Scenario::Grow, Dim::K1) => Some(1),
                (Scenario::Shrink, Dim::K1) | (Scenario::Grow, Dim::K2) => Some(2),
                _ => None, // N and Nnz are incomparable with K dims
            }
        };
        Some(rank(a)?.cmp(&rank(b)?))
    }
}

/// Prunes a deduplicated forest, returning the promoted candidates (in input
/// order) and the number pruned.
pub fn prune(candidates: &[CandidateProgram]) -> (Vec<Promoted>, usize) {
    let n = candidates.len();
    let mut survives = vec![[true, true]; n]; // [shrink, grow]
    for (si, s) in Scenario::BOTH.iter().enumerate() {
        for i in 0..n {
            for j in 0..n {
                if i != j && dominates(&candidates[j], &candidates[i], *s, j < i) {
                    survives[i][si] = false;
                    break;
                }
            }
        }
    }
    let mut promoted = Vec::new();
    let mut pruned = 0usize;
    for (i, cand) in candidates.iter().enumerate() {
        let [shrink, grow] = survives[i];
        if shrink || grow {
            promoted.push(Promoted {
                program: cand.clone(),
                shrink,
                grow,
            });
        } else {
            pruned += 1;
        }
    }
    (promoted, pruned)
}

/// Whether `a` dominates `b` under scenario `s` (`b` is then unprofitable).
/// `tie_break` resolves exact cost ties deterministically (the paper: "if
/// multiple association trees result in the same cost, GRANII selects one").
///
/// Unified form of the paper's two rules: `a` dominates `b` if every step of
/// `a` maps (injectively, same primitive kind) onto a step of `b` whose
/// operand sizes are no smaller under the scenario — i.e. `a` does a subset
/// of `b`'s work at no-larger sizes. Strictness comes from `b` having leftover
/// steps or a strictly larger matched size.
fn dominates(a: &CandidateProgram, b: &CandidateProgram, s: Scenario, tie_break: bool) -> bool {
    if a.tokens() == b.tokens() {
        // Identical primitive multisets at identical sizes: keep one.
        return tie_break;
    }
    if a.steps.len() > b.steps.len() {
        return false;
    }
    // Match per kind: sort both sides ascending by scenario size and greedily
    // pair each `a` step with the smallest unused `b` step that covers it.
    let mut any_strict = a.steps.len() < b.steps.len();
    for kind in kinds(a).into_iter() {
        let mut sa: Vec<&super::PrimStep> = a.steps.iter().filter(|p| p.kind == kind).collect();
        let mut sb: Vec<&super::PrimStep> = b.steps.iter().filter(|p| p.kind == kind).collect();
        if sa.len() > sb.len() {
            return false;
        }
        let key = |p: &&super::PrimStep| {
            (
                size_rank(s, p.rows),
                size_rank(s, p.inner),
                size_rank(s, p.cols),
            )
        };
        sa.sort_by_key(key);
        sb.sort_by_key(key);
        let mut used = vec![false; sb.len()];
        for pa in sa {
            let mut matched = false;
            for (j, pb) in sb.iter().enumerate() {
                if used[j] {
                    continue;
                }
                match step_le(pa, pb, s) {
                    Some(strict) => {
                        used[j] = true;
                        any_strict |= strict;
                        matched = true;
                        break;
                    }
                    None => continue,
                }
            }
            if !matched {
                return false;
            }
        }
    }
    any_strict
}

/// Distinct kinds appearing in a program.
fn kinds(p: &CandidateProgram) -> Vec<granii_matrix::PrimitiveKind> {
    let mut v: Vec<_> = p.steps.iter().map(|s| s.kind).collect();
    v.sort();
    v.dedup();
    v
}

/// A coarse sort rank so greedy matching tries small steps first.
fn size_rank(s: Scenario, d: Dim) -> u8 {
    match (s, d) {
        (_, Dim::One) => 0,
        (Scenario::Shrink, Dim::K2) | (Scenario::Grow, Dim::K1) => 1,
        (Scenario::Shrink, Dim::K1) | (Scenario::Grow, Dim::K2) => 2,
        (_, Dim::N) => 3,
        (_, Dim::Nnz) => 4,
    }
}

/// Whether step `a`'s sizes are all ≤ `b`'s under the scenario; returns
/// `Some(strict)` when comparable, `None` otherwise. A hoisted (`once`) step
/// is cheaper than a per-iteration one of the same sizes; a per-iteration
/// step never compares ≤ a hoisted one.
fn step_le(a: &super::PrimStep, b: &super::PrimStep, s: Scenario) -> Option<bool> {
    if !a.once && b.once {
        return None;
    }
    let mut strict = a.once && !b.once;
    for (da, db) in [(a.rows, b.rows), (a.inner, b.inner), (a.cols, b.cols)] {
        match s.cmp_dim(da, db)? {
            Ordering::Less => strict = true,
            Ordering::Equal => {}
            Ordering::Greater => return None,
        }
    }
    Some(strict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::PrimStep;
    use granii_matrix::PrimitiveKind;

    fn step(kind: PrimitiveKind, rows: Dim, inner: Dim, cols: Dim) -> PrimStep {
        PrimStep {
            kind,
            rows,
            inner,
            cols,
            once: false,
        }
    }

    fn prog(expr: &str, steps: Vec<PrimStep>) -> CandidateProgram {
        CandidateProgram {
            expr: expr.into(),
            steps,
            ops: Vec::new(),
        }
    }

    #[test]
    fn subset_rule_prunes_superset() {
        let small = prog(
            "a",
            vec![step(PrimitiveKind::SpmmWeighted, Dim::N, Dim::Nnz, Dim::K1)],
        );
        let big = prog(
            "b",
            vec![
                step(PrimitiveKind::SpmmWeighted, Dim::N, Dim::Nnz, Dim::K1),
                step(PrimitiveKind::Gemm, Dim::N, Dim::K1, Dim::K2),
            ],
        );
        let (promoted, pruned) = prune(&[small.clone(), big]);
        assert_eq!(pruned, 1);
        assert_eq!(promoted.len(), 1);
        assert_eq!(promoted[0].program.expr, "a");
        assert!(promoted[0].shrink && promoted[0].grow);
    }

    #[test]
    fn size_rule_prunes_only_when_dominated_in_both_scenarios() {
        // Same kinds; a runs at K1, b at K2: each wins one scenario.
        let at_k1 = prog(
            "k1",
            vec![step(
                PrimitiveKind::SpmmUnweighted,
                Dim::N,
                Dim::Nnz,
                Dim::K1,
            )],
        );
        let at_k2 = prog(
            "k2",
            vec![step(
                PrimitiveKind::SpmmUnweighted,
                Dim::N,
                Dim::Nnz,
                Dim::K2,
            )],
        );
        let (promoted, pruned) = prune(&[at_k1, at_k2]);
        assert_eq!(pruned, 0);
        assert_eq!(promoted.len(), 2);
        // Shrink scenario: K2 < K1 so the K2 tree survives shrink, K1 grows.
        assert!(!promoted[0].shrink && promoted[0].grow);
        assert!(promoted[1].shrink && !promoted[1].grow);
    }

    #[test]
    fn mixed_width_tree_pruned_in_both() {
        // {K1,K2} mixed loses to {K2,K2} under shrink and {K1,K1} under grow.
        let mk = |w1: Dim, w2: Dim, name: &str| {
            prog(
                name,
                vec![
                    step(PrimitiveKind::RowBroadcast, Dim::N, Dim::One, w1),
                    step(PrimitiveKind::RowBroadcast, Dim::N, Dim::One, w2),
                ],
            )
        };
        let (promoted, pruned) = prune(&[
            mk(Dim::K1, Dim::K1, "all-k1"),
            mk(Dim::K1, Dim::K2, "mixed"),
            mk(Dim::K2, Dim::K2, "all-k2"),
        ]);
        assert_eq!(pruned, 1);
        let names: Vec<_> = promoted.iter().map(|p| p.program.expr.as_str()).collect();
        assert_eq!(names, vec!["all-k1", "all-k2"]);
    }

    #[test]
    fn duplicates_are_removed_deterministically() {
        let a = prog(
            "first",
            vec![step(PrimitiveKind::Gemm, Dim::N, Dim::K1, Dim::K2)],
        );
        let b = prog(
            "second",
            vec![step(PrimitiveKind::Gemm, Dim::N, Dim::K1, Dim::K2)],
        );
        let (promoted, pruned) = prune(&[a, b]);
        assert_eq!(pruned, 1);
        assert_eq!(promoted[0].program.expr, "first");
    }

    #[test]
    fn incomparable_dims_block_domination() {
        // N-wide vs K1-wide broadcasts: cannot be compared input-obliviously.
        let a = prog(
            "n",
            vec![step(PrimitiveKind::RowBroadcast, Dim::N, Dim::One, Dim::N)],
        );
        let b = prog(
            "k",
            vec![step(PrimitiveKind::RowBroadcast, Dim::N, Dim::One, Dim::K1)],
        );
        let (promoted, pruned) = prune(&[a, b]);
        assert_eq!(pruned, 0);
        assert_eq!(promoted.len(), 2);
    }
}
