//! Lowering promoted association trees to executable compositions (paper
//! §IV-D "GRANII lowers the matrix primitives of each association tree to
//! kernel calls that are supported by the underlying GNN framework").
//!
//! The executable kernel-call sequences live in `granii-gnn::models`; this
//! module maps a promoted tree's primitives onto the matching
//! [`Composition`].

use granii_gnn::spec::{Composition, GatStrategy, ModelKind, NormStrategy, OpOrder};
use granii_matrix::PrimitiveKind;

use crate::ir::Dim;

use super::{CandidateProgram, Op};

/// Maps a candidate program to the executable composition implementing it.
///
/// Returns `None` for trees with no executable lowering (e.g. mixed-width
/// hybrids that the pruner usually eliminates anyway); the plan compiler
/// drops such candidates.
pub fn lower(model: ModelKind, program: &CandidateProgram) -> Option<Composition> {
    // A normalizing SDDMM scales the adjacency; GAT's logits SDDMM does not.
    let has_sddmm = program
        .ops
        .iter()
        .any(|op| matches!(op, Op::ScaleCsr { .. }));
    let spmm_widths: Vec<Dim> = program
        .steps
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                PrimitiveKind::SpmmWeighted | PrimitiveKind::SpmmUnweighted
            )
        })
        .map(|s| s.cols)
        .collect();
    let all_k1 = !spmm_widths.is_empty() && spmm_widths.iter().all(|&w| w == Dim::K1);
    let all_k2 = !spmm_widths.is_empty() && spmm_widths.iter().all(|&w| w == Dim::K2);
    let order = if all_k2 {
        Some(OpOrder::UpdateFirst)
    } else if all_k1 {
        Some(OpOrder::AggregateFirst)
    } else {
        None
    };
    let norm = if has_sddmm {
        NormStrategy::Precompute
    } else {
        NormStrategy::Dynamic
    };

    match model {
        ModelKind::Gcn => Some(Composition::Gcn(norm, order?)),
        ModelKind::Sgc => Some(Composition::Sgc(norm, order?)),
        ModelKind::Tagcn => Some(Composition::Tagcn(norm, order?)),
        ModelKind::Gin => Some(Composition::Gin(order?)),
        ModelKind::Sage => Some(Composition::Sage(order?)),
        ModelKind::Gat => match order? {
            OpOrder::AggregateFirst => Some(Composition::Gat(GatStrategy::Recompute)),
            OpOrder::UpdateFirst => Some(Composition::Gat(GatStrategy::Reuse)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{enumerate, prune};
    use crate::ir::{builder, rewrite};
    use granii_gnn::spec::LayerConfig;
    use std::collections::BTreeSet;

    fn promoted_compositions(kind: ModelKind) -> BTreeSet<String> {
        let ir = builder::build(kind, LayerConfig::new(8, 4));
        let mut cands = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for v in rewrite::variants(&ir) {
            for c in enumerate(&v).unwrap() {
                if seen.insert(c.expr.clone()) {
                    cands.push(c);
                }
            }
        }
        let (promoted, _) = prune(&cands);
        promoted
            .iter()
            .filter_map(|p| lower(kind, &p.program))
            .map(|c| c.name())
            .collect()
    }

    #[test]
    fn gcn_promotes_all_four_executable_compositions() {
        let comps = promoted_compositions(ModelKind::Gcn);
        assert_eq!(comps.len(), 4, "{comps:?}");
        assert!(comps.contains("gcn/dynamic+agg-first"));
        assert!(comps.contains("gcn/dynamic+update-first"));
        assert!(comps.contains("gcn/precompute+agg-first"));
        assert!(comps.contains("gcn/precompute+update-first"));
    }

    #[test]
    fn gat_promotes_reuse_and_recompute() {
        let comps = promoted_compositions(ModelKind::Gat);
        assert_eq!(comps.len(), 2, "{comps:?}");
        assert!(comps.contains("gat/reuse"));
        assert!(comps.contains("gat/recompute"));
    }

    #[test]
    fn gin_and_sage_promote_both_orders() {
        for kind in [ModelKind::Gin, ModelKind::Sage] {
            let comps = promoted_compositions(kind);
            assert_eq!(comps.len(), 2, "{kind}: {comps:?}");
        }
    }

    #[test]
    fn sgc_promotes_norm_and_order_choices() {
        let comps = promoted_compositions(ModelKind::Sgc);
        assert!(comps.len() >= 2, "{comps:?}");
        assert!(comps.iter().any(|c| c.contains("precompute")));
        assert!(comps.iter().any(|c| c.contains("dynamic")));
    }
}
