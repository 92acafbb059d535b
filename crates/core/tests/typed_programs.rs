//! Typed candidate programs: every enumerated association tree lowers to an
//! execution plan, both executors reject malformed programs with a typed
//! error, and shared subexpressions are wired by step index.

use granii_core::assoc::{self, CandidateProgram, Leaf, Op, Operand, PrimStep};
use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::interp;
use granii_core::ir::{builder, rewrite, Dim};
use granii_core::plan::CompiledModel;
use granii_core::CoreError;
use granii_gnn::spec::{Composition, GatStrategy, LayerConfig, ModelKind, NormStrategy, OpOrder};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::generators;
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::{DenseMatrix, PrimitiveKind};

const ALL_MODELS: [ModelKind; 6] = [
    ModelKind::Gcn,
    ModelKind::Gin,
    ModelKind::Sgc,
    ModelKind::Tagcn,
    ModelKind::Gat,
    ModelKind::Sage,
];

/// Every tree of every forest builds, not only the promoted ones. Fusing a
/// diagonal into an earlier SDDMM can make that step read a later `(D·D)`
/// merge, as in `(((D·A·(D·D))·((A·D)·H))·W)`; the enumerator must lay such
/// programs out in dependency order.
#[test]
fn every_enumerated_tree_builds() {
    let mut built = 0;
    for model in ALL_MODELS {
        for hops in 1..=3 {
            let ir = builder::build(
                model,
                LayerConfig {
                    k_in: 8,
                    k_out: 4,
                    hops,
                },
            );
            for variant in rewrite::variants(&ir) {
                // Forests over the enumeration budget (3-hop TAGCN) are
                // covered by the enumerator's own budget test.
                let Ok(trees) = assoc::enumerate(&variant) else {
                    continue;
                };
                for tree in &trees {
                    if let Err(e) = ExecPlan::build(tree) {
                        panic!("{model} hops {hops}: {} does not build: {e}", tree.expr);
                    }
                    built += 1;
                }
            }
        }
    }
    assert!(built > 4_000, "only {built} trees enumerated");
}

fn program(ops: Vec<Op<Operand>>) -> CandidateProgram {
    let step = PrimStep {
        kind: PrimitiveKind::Elementwise,
        rows: Dim::N,
        inner: Dim::One,
        cols: Dim::K1,
        once: false,
    };
    CandidateProgram {
        expr: "malformed".into(),
        steps: vec![step; ops.len()],
        ops,
    }
}

fn leaf(leaf: Leaf) -> Operand {
    Operand::Leaf(leaf)
}

#[test]
fn malformed_programs_are_typed_errors_in_both_executors() {
    let cases = [
        (
            "a step that reads itself",
            program(vec![Op::Relu {
                x: Operand::Step(0),
            }]),
        ),
        (
            "a step that reads a later step",
            program(vec![
                Op::Relu {
                    x: Operand::Step(1),
                },
                Op::Relu {
                    x: leaf(Leaf::Features),
                },
            ]),
        ),
        (
            "an operand of the wrong kind",
            program(vec![Op::Gemm {
                a: leaf(Leaf::Adj),
                b: leaf(Leaf::Features),
            }]),
        ),
        ("an empty program", program(Vec::new())),
        (
            "a sparse result",
            program(vec![Op::ScaleCsr {
                dl: vec![leaf(Leaf::DegInvSqrt)],
                sparse: leaf(Leaf::Adj),
                dr: Vec::new(),
            }]),
        ),
    ];

    let g = generators::ring(6).unwrap();
    let ctx = GraphCtx::new(&g).unwrap();
    let cfg = LayerConfig::new(4, 3);
    let h = DenseMatrix::random(6, 4, 1.0, 3);
    let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h, 5);
    let engine = Engine::modeled(DeviceKind::Cpu);
    let exec = Exec::real(&engine);
    for (what, program) in &cases {
        let err = ExecPlan::build(program).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidIr(_)),
            "build, {what}: {err}"
        );
        let err = interp::execute(&exec, program, &inputs.as_program_inputs()).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidIr(_)),
            "interp, {what}: {err}"
        );
    }
}

fn promoted(model: ModelKind, composition: Composition) -> CandidateProgram {
    let plan = CompiledModel::compile(model, LayerConfig::new(8, 16)).unwrap();
    plan.candidates
        .into_iter()
        .find(|c| c.composition == composition)
        .unwrap_or_else(|| panic!("{composition} is not promoted"))
        .program
}

/// Shared values are read by index: GCN's hoisted normalization feeds the
/// aggregation, and GAT's reuse tree computes `H·W` once for both the
/// attention scores and the aggregation.
#[test]
fn operands_are_wired_by_step_index() {
    let gcn = promoted(
        ModelKind::Gcn,
        Composition::Gcn(NormStrategy::Precompute, OpOrder::UpdateFirst),
    );
    let d = leaf(Leaf::DegInvSqrt);
    let norm = gcn
        .ops
        .iter()
        .position(|op| matches!(op, Op::ScaleCsr { .. }))
        .expect("a normalizing SDDMM");
    assert_eq!(
        gcn.ops[norm],
        Op::ScaleCsr {
            dl: vec![d.clone()],
            sparse: leaf(Leaf::Adj),
            dr: vec![d],
        }
    );
    assert!(gcn.steps[norm].once, "the normalization is hoisted");
    let spmm_adj: Vec<&Operand> = gcn
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Spmm { adj, .. } => Some(adj),
            _ => None,
        })
        .collect();
    assert_eq!(spmm_adj, [&Operand::Step(norm)]);

    let gat = promoted(ModelKind::Gat, Composition::Gat(GatStrategy::Reuse));
    let theta_op = Op::Gemm {
        a: leaf(Leaf::Features),
        b: leaf(Leaf::Weight("W".into())),
    };
    let thetas: Vec<usize> = (0..gat.ops.len())
        .filter(|&i| gat.ops[i] == theta_op)
        .collect();
    assert_eq!(thetas.len(), 1, "H·W is computed once: {:?}", gat.ops);
    let theta = Operand::Step(thetas[0]);
    for score in ["a_l", "a_r"] {
        let op = Op::Gemm {
            a: theta.clone(),
            b: leaf(Leaf::Weight(score.into())),
        };
        assert!(gat.ops.contains(&op), "{score} reads H·W: {:?}", gat.ops);
    }
    let aggregation = gat
        .ops
        .iter()
        .find_map(|op| match op {
            Op::Spmm { x, .. } => Some(x),
            _ => None,
        })
        .expect("an aggregation SpMM");
    assert_eq!(aggregation, &theta);
}
