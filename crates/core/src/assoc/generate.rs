//! Algorithm 1: exhaustive enumeration of association trees.
//!
//! The enumerator recursively reduces each n-ary multiplication chain by every
//! rule-matching adjacent pair, spawning one branch per candidate (the paper's
//! `getCandidates` / `apply` loop). The rule table (Appendix D substitute):
//!
//! | left × right | primitive | result |
//! |---|---|---|
//! | diag × diag | element-wise merge | diag |
//! | diag × sparse, sparse × diag | SDDMM edge scaling | sparse (weighted) |
//! | diag × dense | row-broadcast | dense |
//! | dense × diag | column-broadcast | dense |
//! | sparse × dense | g-SpMM (weighted per sparse sub-attribute) | dense |
//! | dense × dense | GEMM | dense |
//! | sparse × sparse | — (no SpGEMM primitive; branch dies) | |
//!
//! Consecutive diagonal absorptions into the same sparse operand fuse into a
//! single SDDMM (`(D·A)·D` and `D·(A·D)` both canonicalize to `D·A·D`), which
//! is what makes the GCN forest count 12 instead of Catalan(4) = 14.
//! Completed trees are deduplicated by canonical expression, and equal
//! operations are computed once (common-subexpression reuse).

use std::collections::BTreeMap;

use granii_matrix::PrimitiveKind;

use crate::ir::{Attr, Dim, Expr};
use crate::{CoreError, Result};

use super::{CandidateProgram, Leaf, Op, Operand, PrimStep};

/// A step under construction: its cost view and its operation, whose `Step`
/// operands index the step list being built.
type Step = (PrimStep, Op<Operand>);

/// A working element of a chain during reduction.
#[derive(Debug, Clone)]
struct Elem {
    rows: Dim,
    cols: Dim,
    kind: ElemKind,
    expr: String,
    /// The leaf or step holding the element's value.
    value: Operand,
    /// Whether the element depends on iteration-varying data (features or
    /// weights) as opposed to graph structure only; graph-only steps are
    /// hoisted (`PrimStep::once`).
    data: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ElemKind {
    Diag,
    Sparse { weighted: bool },
    Dense,
}

/// Hard bound on intermediate enumeration results. Algorithm 1 is
/// exponential in chain length (deep TAGCN/SGC hop counts multiply terms
/// combinatorially); beyond this budget enumeration reports a typed error
/// instead of exhausting memory.
pub const ENUMERATION_BUDGET: usize = 250_000;

/// Enumerates all association trees of an IR expression.
///
/// # Errors
///
/// Returns [`CoreError::InvalidIr`] for malformed expressions or when the
/// forest exceeds `ENUMERATION_BUDGET` intermediate results, and
/// [`CoreError::NoCandidates`] if no complete tree exists.
pub fn enumerate(expr: &Expr) -> Result<Vec<CandidateProgram>> {
    let mut budget = ENUMERATION_BUDGET;
    let results = enumerate_expr(expr, &mut budget)?;
    let mut out: BTreeMap<String, CandidateProgram> = BTreeMap::new();
    for (elem, steps) in results {
        out.entry(elem.expr.clone())
            .or_insert_with(|| number_values(elem.expr, &steps));
    }
    if out.is_empty() {
        return Err(CoreError::NoCandidates {
            model: expr.render(),
        });
    }
    Ok(out.into_values().collect())
}

/// Lays the steps out in dependency order and numbers their values.
///
/// Fusing a diagonal into an earlier SDDMM can make that step read a later
/// diagonal merge, so each step is placed after the steps it reads; the
/// enumeration order is kept otherwise. A step whose operation, over the
/// renumbered operands, is already placed is dropped, and its readers get
/// the earlier index (common-subexpression reuse, §IV-C).
fn number_values(expr: String, steps: &[Step]) -> CandidateProgram {
    fn place(i: usize, steps: &[Step], placed: &mut [bool], order: &mut Vec<usize>) {
        if std::mem::replace(&mut placed[i], true) {
            return;
        }
        for (v, _) in steps[i].1.operands() {
            if let Operand::Step(j) = v {
                place(*j, steps, placed, order);
            }
        }
        order.push(i);
    }
    let mut placed = vec![false; steps.len()];
    let mut order = Vec::with_capacity(steps.len());
    for i in 0..steps.len() {
        place(i, steps, &mut placed, &mut order);
    }

    let mut program = CandidateProgram {
        expr,
        steps: Vec::with_capacity(steps.len()),
        ops: Vec::with_capacity(steps.len()),
    };
    let mut index = vec![0; steps.len()];
    for i in order {
        let (cost, op) = &steps[i];
        let op = op.map(|v| match v {
            Operand::Step(j) => Operand::Step(index[*j]),
            leaf => leaf.clone(),
        });
        index[i] = match program.ops.iter().position(|existing| *existing == op) {
            Some(k) => k,
            None => {
                program.steps.push(cost.clone());
                program.ops.push(op);
                program.ops.len() - 1
            }
        };
    }
    program
}

/// Decrements the enumeration budget, erroring when exhausted.
fn spend(budget: &mut usize, amount: usize) -> Result<()> {
    if *budget < amount {
        return Err(CoreError::InvalidIr(format!(
            "association enumeration exceeds the {ENUMERATION_BUDGET}-result budget \
             (reduce the hop count; the forest grows exponentially with chain length)"
        )));
    }
    *budget -= amount;
    Ok(())
}

/// Appends a child's steps to `steps` and returns the child's element with
/// its value renumbered to match.
fn append(steps: &mut Vec<Step>, elem: &Elem, child_steps: &[Step]) -> Elem {
    let offset = steps.len();
    let shift = |v: &Operand| match v {
        Operand::Step(i) => Operand::Step(i + offset),
        leaf => leaf.clone(),
    };
    steps.extend(
        child_steps
            .iter()
            .map(|(cost, op)| (cost.clone(), op.map(shift))),
    );
    Elem {
        value: shift(&elem.value),
        ..elem.clone()
    }
}

/// Pushes a step and returns the operand naming its value.
fn push(
    steps: &mut Vec<Step>,
    kind: PrimitiveKind,
    sizes: [Dim; 3],
    once: bool,
    op: Op<Operand>,
) -> Operand {
    let [rows, inner, cols] = sizes;
    steps.push((
        PrimStep {
            kind,
            rows,
            inner,
            cols,
            once,
        },
        op,
    ));
    Operand::Step(steps.len() - 1)
}

/// Recursively enumerates an expression into `(result element, steps)` pairs.
fn enumerate_expr(expr: &Expr, budget: &mut usize) -> Result<Vec<(Elem, Vec<Step>)>> {
    match expr {
        Expr::Mat(m) => {
            let kind = match m.attr {
                Attr::Diagonal => ElemKind::Diag,
                Attr::SparseWeighted => ElemKind::Sparse { weighted: true },
                Attr::SparseUnweighted => ElemKind::Sparse { weighted: false },
                Attr::DenseData | Attr::DenseWeight => ElemKind::Dense,
            };
            let data = matches!(m.attr, Attr::DenseData | Attr::DenseWeight);
            Ok(vec![(
                Elem {
                    rows: m.rows,
                    cols: m.cols,
                    kind,
                    expr: m.name.clone(),
                    value: Operand::Leaf(Leaf::of(m)?),
                    data,
                },
                Vec::new(),
            )])
        }
        Expr::Chain(es) => {
            if es.is_empty() {
                return Err(CoreError::InvalidIr("empty chain".into()));
            }
            // Cartesian product over the children's enumerations, then reduce
            // the resulting element chain in every rule-compatible order.
            let children: Vec<Vec<(Elem, Vec<Step>)>> = es
                .iter()
                .map(|e| enumerate_expr(e, budget))
                .collect::<Result<_>>()?;
            let mut out = Vec::new();
            for combo in cartesian(&children) {
                let mut steps = Vec::new();
                let elems: Vec<Elem> = combo
                    .into_iter()
                    .map(|(elem, child_steps)| append(&mut steps, elem, child_steps))
                    .collect();
                // Different reduction orders reaching the same chain state
                // produce identical futures (an element's expression fully
                // determines the steps that built it), so states are visited
                // once.
                let mut visited = std::collections::HashSet::new();
                reduce_chain(&elems, &steps, &mut out, budget, &mut visited)?;
            }
            Ok(out)
        }
        Expr::Add(es) => {
            if es.is_empty() {
                return Err(CoreError::InvalidIr("empty add".into()));
            }
            let children: Vec<Vec<(Elem, Vec<Step>)>> = es
                .iter()
                .map(|e| enumerate_expr(e, budget))
                .collect::<Result<_>>()?;
            let mut out = Vec::new();
            for combo in cartesian(&children) {
                spend(budget, 1)?;
                let mut steps = Vec::new();
                let mut terms = Vec::with_capacity(combo.len());
                for (elem, child_steps) in combo {
                    if elem.kind != ElemKind::Dense {
                        return Err(CoreError::InvalidIr("add of non-dense operands".into()));
                    }
                    terms.push(append(&mut steps, elem, child_steps));
                }
                let (rows, cols) = terms.last().map_or((Dim::N, Dim::K2), |t| (t.rows, t.cols));
                let exprs: Vec<&str> = terms.iter().map(|t| t.expr.as_str()).collect();
                let expr = format!("({})", exprs.join(" + "));
                // One element-wise add per extra term.
                let mut sum = terms[0].value.clone();
                for term in &terms[1..] {
                    let op = Op::Add {
                        a: sum,
                        b: term.value.clone(),
                    };
                    let sizes = [rows, Dim::One, cols];
                    sum = push(&mut steps, PrimitiveKind::Elementwise, sizes, false, op);
                }
                out.push((
                    Elem {
                        rows,
                        cols,
                        kind: ElemKind::Dense,
                        expr,
                        value: sum,
                        data: true,
                    },
                    steps,
                ));
            }
            Ok(out)
        }
        Expr::Nonlinear(x) => {
            let inner = enumerate_expr(x, budget)?;
            Ok(inner
                .into_iter()
                .map(|(elem, mut steps)| {
                    let sizes = [elem.rows, Dim::One, elem.cols];
                    let op = Op::Relu { x: elem.value };
                    let value = push(&mut steps, PrimitiveKind::Elementwise, sizes, false, op);
                    (
                        Elem {
                            rows: elem.rows,
                            cols: elem.cols,
                            kind: ElemKind::Dense,
                            expr: format!("σ{}", wrap(&elem.expr)),
                            value,
                            data: true,
                        },
                        steps,
                    )
                })
                .collect())
        }
        Expr::Attention { theta } => {
            // Fixed sub-program (softmax barrier inside): Θ's own chain is
            // enumerable, then the score computation is a fixed primitive
            // sequence producing the sparse attention matrix α.
            let inner = enumerate_expr(theta, budget)?;
            Ok(inner
                .into_iter()
                .map(|(elem, mut steps)| {
                    let score = |steps: &mut Vec<Step>, name: &str| {
                        let op = Op::Gemm {
                            a: elem.value.clone(),
                            b: Operand::Leaf(Leaf::Weight(name.into())),
                        };
                        let sizes = [Dim::N, Dim::K2, Dim::One];
                        push(steps, PrimitiveKind::Gemm, sizes, false, op)
                    };
                    let ul = score(&mut steps, "a_l");
                    let vr = score(&mut steps, "a_r");
                    let op = Op::AttLogits {
                        mask: Operand::Leaf(Leaf::Adj),
                        ul,
                        vr,
                    };
                    let sizes = [Dim::N, Dim::Nnz, Dim::One];
                    let logits = push(&mut steps, PrimitiveKind::Sddmm, sizes, false, op);
                    let op = Op::LeakyRelu { logits };
                    let sizes = [Dim::Nnz, Dim::One, Dim::One];
                    let scored = push(&mut steps, PrimitiveKind::Elementwise, sizes, false, op);
                    let op = Op::EdgeSoftmax { scored };
                    let sizes = [Dim::N, Dim::Nnz, Dim::One];
                    let value = push(&mut steps, PrimitiveKind::EdgeSoftmax, sizes, false, op);
                    (
                        Elem {
                            rows: Dim::N,
                            cols: Dim::N,
                            kind: ElemKind::Sparse { weighted: true },
                            expr: "α".into(),
                            value,
                            data: true,
                        },
                        steps,
                    )
                })
                .collect())
        }
        Expr::RowBroadcast { .. } => Err(CoreError::InvalidIr(
            "row-broadcasts must be rewritten before enumeration (run ir::rewrite::canonicalize)"
                .into(),
        )),
    }
}

/// All combinations picking one enumeration per child.
fn cartesian<T>(children: &[Vec<T>]) -> Vec<Vec<&T>> {
    let mut out: Vec<Vec<&T>> = vec![Vec::new()];
    for child in children {
        let mut next = Vec::with_capacity(out.len() * child.len());
        for prefix in &out {
            for item in child {
                let mut v = prefix.clone();
                v.push(item);
                next.push(v);
            }
        }
        out = next;
    }
    out
}

/// Depth-first reduction of an element chain by every applicable rule.
fn reduce_chain(
    elems: &[Elem],
    steps: &[Step],
    out: &mut Vec<(Elem, Vec<Step>)>,
    budget: &mut usize,
    visited: &mut std::collections::HashSet<String>,
) -> Result<()> {
    if elems.len() == 1 {
        spend(budget, 1)?;
        out.push((elems[0].clone(), steps.to_vec()));
        return Ok(());
    }
    let key = elems
        .iter()
        .map(|e| e.expr.as_str())
        .collect::<Vec<_>>()
        .join("\u{1f}");
    if !visited.insert(key) {
        return Ok(());
    }
    spend(budget, 1)?;
    for i in 0..elems.len() - 1 {
        if let Some((elem, new_steps)) = apply_rule(&elems[i], &elems[i + 1], steps) {
            let mut next: Vec<Elem> = Vec::with_capacity(elems.len() - 1);
            next.extend_from_slice(&elems[..i]);
            next.push(elem);
            next.extend_from_slice(&elems[i + 2..]);
            reduce_chain(&next, &new_steps, out, budget, visited)?;
        }
    }
    Ok(())
}

fn wrap(s: &str) -> String {
    if s.starts_with('(') && s.ends_with(')') {
        s.to_string()
    } else {
        format!("({s})")
    }
}

fn strip(s: &str) -> &str {
    s.strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or(s)
}

/// Applies the primitive-assignment rule for an adjacent pair; returns the
/// produced element and the updated step list.
fn apply_rule(l: &Elem, r: &Elem, steps: &[Step]) -> Option<(Elem, Vec<Step>)> {
    use ElemKind::*;
    use PrimitiveKind as P;
    let once = !l.data && !r.data;
    let data = l.data || r.data;
    let (kind, sizes, op, (rows, cols, result)) = match (l.kind, r.kind) {
        // diag · diag: merge the per-node vectors (element-wise).
        (Diag, Diag) => {
            let sizes = [Dim::N, Dim::One, Dim::One];
            let op = Op::DiagMerge {
                a: l.value.clone(),
                b: r.value.clone(),
            };
            (P::Elementwise, sizes, op, (l.rows, r.cols, Diag))
        }
        // diag · sparse / sparse · diag: SDDMM edge scaling. Consecutive
        // absorptions into the same sparse fuse into one SDDMM.
        (Diag, Sparse { .. }) | (Sparse { .. }, Diag) => {
            let absorb_left = l.kind == Diag;
            let (diag, sparse) = if absorb_left { (l, r) } else { (r, l) };
            let expr = if absorb_left {
                format!("({}·{})", diag.expr, strip(&sparse.expr))
            } else {
                format!("({}·{})", strip(&sparse.expr), diag.expr)
            };
            let mut steps = steps.to_vec();
            let fused = match sparse.value {
                Operand::Step(k) => match &mut steps[k].1 {
                    Op::ScaleCsr { dl, dr, .. } => {
                        if absorb_left {
                            dl.insert(0, diag.value.clone());
                        } else {
                            dr.push(diag.value.clone());
                        }
                        Some(Operand::Step(k))
                    }
                    _ => None,
                },
                Operand::Leaf(_) => None,
            };
            let value = fused.unwrap_or_else(|| {
                let (dl, dr) = if absorb_left {
                    (vec![diag.value.clone()], Vec::new())
                } else {
                    (Vec::new(), vec![diag.value.clone()])
                };
                let op = Op::ScaleCsr {
                    dl,
                    sparse: sparse.value.clone(),
                    dr,
                };
                let sizes = [Dim::N, Dim::Nnz, Dim::One];
                push(&mut steps, P::Sddmm, sizes, once, op)
            });
            let elem = Elem {
                rows: Dim::N,
                cols: Dim::N,
                kind: Sparse { weighted: true },
                expr,
                value,
                data,
            };
            return Some((elem, steps));
        }
        // diag · dense: row-broadcast.
        (Diag, Dense) => {
            let sizes = [r.rows, Dim::One, r.cols];
            let op = Op::RowBroadcast {
                d: l.value.clone(),
                x: r.value.clone(),
            };
            (P::RowBroadcast, sizes, op, (r.rows, r.cols, Dense))
        }
        // dense · diag: column-broadcast.
        (Dense, Diag) => {
            let sizes = [l.rows, Dim::One, l.cols];
            let op = Op::ColBroadcast {
                x: l.value.clone(),
                d: r.value.clone(),
            };
            (P::ColBroadcast, sizes, op, (l.rows, l.cols, Dense))
        }
        // sparse · dense: g-SpMM, weighted per the sparse sub-attribute.
        (Sparse { weighted }, Dense) => {
            let kind = if weighted {
                P::SpmmWeighted
            } else {
                P::SpmmUnweighted
            };
            let sizes = [l.rows, Dim::Nnz, r.cols];
            let op = Op::Spmm {
                adj: l.value.clone(),
                x: r.value.clone(),
                weighted,
            };
            (kind, sizes, op, (l.rows, r.cols, Dense))
        }
        // dense · dense: GEMM.
        (Dense, Dense) => {
            let sizes = [l.rows, l.cols, r.cols];
            let op = Op::Gemm {
                a: l.value.clone(),
                b: r.value.clone(),
            };
            (P::Gemm, sizes, op, (l.rows, r.cols, Dense))
        }
        // sparse · sparse: no SpGEMM primitive — the branch dies.
        (Sparse { .. }, Sparse { .. }) | (Dense, Sparse { .. }) => return None,
    };
    let expr = if result == Diag {
        format!("({}·{})", strip(&l.expr), strip(&r.expr))
    } else {
        format!("({}·{})", l.expr, r.expr)
    };
    let mut steps = steps.to_vec();
    let value = push(&mut steps, kind, sizes, once, op);
    let elem = Elem {
        rows,
        cols,
        kind: result,
        expr,
        value,
        data,
    };
    Some((elem, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{builder, rewrite};
    use granii_gnn::spec::{LayerConfig, ModelKind};

    fn enumerate_model(kind: ModelKind, cfg: LayerConfig) -> Vec<CandidateProgram> {
        let ir = builder::build(kind, cfg);
        let mut all: BTreeMap<String, CandidateProgram> = BTreeMap::new();
        for variant in rewrite::variants(&ir) {
            for cand in enumerate(&variant).unwrap() {
                all.entry(cand.expr.clone()).or_insert(cand);
            }
        }
        all.into_values().collect()
    }

    /// The §VI-B count: GCN has 12 compositions through re-association.
    #[test]
    fn gcn_enumerates_twelve_trees() {
        let cands = enumerate_model(ModelKind::Gcn, LayerConfig::new(8, 4));
        assert_eq!(
            cands.len(),
            12,
            "{:#?}",
            cands.iter().map(|c| &c.expr).collect::<Vec<_>>()
        );
    }

    /// The §VI-B count: GAT has 2 compositions (reuse vs recompute).
    #[test]
    fn gat_enumerates_two_trees() {
        let cands = enumerate_model(ModelKind::Gat, LayerConfig::new(8, 16));
        assert_eq!(
            cands.len(),
            2,
            "{:#?}",
            cands.iter().map(|c| &c.expr).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gat_reuse_tree_has_one_fewer_gemm() {
        let cands = enumerate_model(ModelKind::Gat, LayerConfig::new(8, 16));
        let gemm_counts: Vec<usize> = cands
            .iter()
            .map(|c| {
                c.steps
                    .iter()
                    .filter(|s| s.kind == PrimitiveKind::Gemm)
                    .count()
            })
            .collect();
        let min = gemm_counts.iter().min().unwrap();
        let max = gemm_counts.iter().max().unwrap();
        assert_eq!(
            max - min,
            1,
            "CSE must remove the reused Θ GEMM: {gemm_counts:?}"
        );
    }

    #[test]
    fn gcn_contains_both_normalization_families() {
        let cands = enumerate_model(ModelKind::Gcn, LayerConfig::new(8, 4));
        let with_sddmm = cands
            .iter()
            .filter(|c| c.steps.iter().any(|s| s.kind == PrimitiveKind::Sddmm))
            .count();
        let with_broadcast = cands
            .iter()
            .filter(|c| {
                c.steps
                    .iter()
                    .any(|s| s.kind == PrimitiveKind::RowBroadcast)
            })
            .count();
        assert!(with_sddmm > 0 && with_broadcast > 0);
        // The fused D·A·D tree exists.
        assert!(cands.iter().any(|c| c.expr.contains("(D·A·D)")));
    }

    #[test]
    fn sddmm_fusion_produces_single_step() {
        let cands = enumerate_model(ModelKind::Gcn, LayerConfig::new(8, 4));
        let fused = cands.iter().find(|c| c.expr.contains("(D·A·D)")).unwrap();
        let sddmms = fused
            .steps
            .iter()
            .filter(|s| s.kind == PrimitiveKind::Sddmm)
            .count();
        assert_eq!(sddmms, 1);
    }

    #[test]
    fn gin_and_sage_enumerate_multiple_orders() {
        for kind in [ModelKind::Gin, ModelKind::Sage] {
            let cands = enumerate_model(kind, LayerConfig::new(8, 4));
            assert!(cands.len() >= 2, "{kind}: {}", cands.len());
        }
    }

    #[test]
    fn sgc_enumeration_grows_with_hops() {
        let one = enumerate_model(
            ModelKind::Sgc,
            LayerConfig {
                k_in: 8,
                k_out: 4,
                hops: 1,
            },
        );
        let two = enumerate_model(
            ModelKind::Sgc,
            LayerConfig {
                k_in: 8,
                k_out: 4,
                hops: 2,
            },
        );
        assert!(two.len() > one.len());
        assert_eq!(
            one.len(),
            12,
            "1-hop SGC matches the GCN chain (no σ barrier changes count)"
        );
    }

    /// Deep TAGCN chains exceed the enumeration budget with a typed error
    /// instead of exhausting memory.
    #[test]
    fn enumeration_budget_guards_deep_hops() {
        let ir = builder::build(
            ModelKind::Tagcn,
            LayerConfig {
                k_in: 8,
                k_out: 4,
                hops: 3,
            },
        );
        let mut hit_budget = false;
        for v in rewrite::variants(&ir) {
            match enumerate(&v) {
                Ok(_) => {}
                Err(CoreError::InvalidIr(msg)) => {
                    assert!(msg.contains("budget"), "{msg}");
                    hit_budget = true;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(hit_budget, "3-hop TAGCN should trip the budget");
    }

    #[test]
    fn every_candidate_ends_reduced() {
        for kind in [
            ModelKind::Gcn,
            ModelKind::Gat,
            ModelKind::Gin,
            ModelKind::Sage,
        ] {
            for c in enumerate_model(kind, LayerConfig::new(8, 4)) {
                assert!(!c.steps.is_empty(), "{kind}: {c:?}");
            }
        }
    }
}
