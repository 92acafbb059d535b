//! Differential tests: the compile-once [`granii_core::execplan`] engine must
//! be *bitwise* identical to the reference interpreter oracle — same
//! outputs and same charged latencies — across every model × promoted
//! candidate, on fixed and on randomly generated inputs.

use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::interp;
use granii_core::plan::CompiledModel;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::{generators, Graph};
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::DenseMatrix;
use proptest::prelude::*;

const ALL_MODELS: [ModelKind; 6] = [
    ModelKind::Gcn,
    ModelKind::Gin,
    ModelKind::Sgc,
    ModelKind::Tagcn,
    ModelKind::Gat,
    ModelKind::Sage,
];

/// Runs one candidate both ways on the same inputs and asserts bitwise
/// equality of outputs and (approximate, sum-order-tolerant) equality of
/// charged latencies.
fn assert_candidate_matches(
    model: ModelKind,
    inputs: &PlanInputs,
    expr: &str,
    program: &granii_core::assoc::CandidateProgram,
) {
    // Separate engines so charge totals are attributable per path.
    let interp_engine = Engine::modeled(DeviceKind::Cpu);
    let interp_exec = Exec::real(&interp_engine);
    let oracle = interp::execute(&interp_exec, program, &inputs.as_program_inputs())
        .unwrap_or_else(|e| panic!("{model}/{expr}: oracle failed: {e}"));

    let plan_engine = Engine::modeled(DeviceKind::Cpu);
    let plan_exec = Exec::real(&plan_engine);
    let exec_plan = ExecPlan::build(program).unwrap();
    let mut bound = exec_plan
        .bind(&plan_exec, &inputs.as_program_inputs())
        .unwrap();
    let out = bound.iterate(&plan_exec).unwrap();

    assert_eq!(out.shape(), oracle.shape(), "{model}/{expr}");
    let diff = out.max_abs_diff(&oracle).unwrap();
    assert_eq!(diff, 0.0, "{model}/{expr}: outputs differ by {diff}");

    // The plan charges per-iteration work every iterate() plus the hoisted
    // setup once at bind; the oracle charges everything per call. After one
    // plan iteration both engines have charged one full program.
    let oracle_cost = interp_engine.take_profile().total_seconds();
    let plan_cost = plan_engine.take_profile().total_seconds();
    let tol = 1e-9 * (1.0 + oracle_cost.abs());
    assert!(
        (oracle_cost - plan_cost).abs() <= tol,
        "{model}/{expr}: oracle charged {oracle_cost}, plan charged {plan_cost}"
    );

    // Steady-state iterations are idempotent given fixed inputs.
    let again = bound.iterate(&plan_exec).unwrap();
    assert_eq!(again.max_abs_diff(&oracle).unwrap(), 0.0, "{model}/{expr}");
}

/// Every model × every promoted candidate on a fixed power-law graph.
#[test]
fn execplan_matches_interpreter_on_all_promoted_candidates() {
    let g = generators::power_law(60, 5, 17).unwrap();
    let ctx = GraphCtx::new(&g).unwrap();
    for model in ALL_MODELS {
        for (k_in, k_out) in [(8usize, 5usize), (5, 8)] {
            let cfg = LayerConfig::new(k_in, k_out);
            let plan = CompiledModel::compile(model, cfg).unwrap();
            let h = DenseMatrix::random(60, k_in, 1.0, 23);
            let inputs = PlanInputs::for_model(model, cfg, &ctx, h, 29);
            assert!(!plan.candidates.is_empty(), "{model}");
            for cand in &plan.candidates {
                assert_candidate_matches(model, &inputs, &cand.program.expr, &cand.program);
            }
        }
    }
}

/// Degenerate structures: ring (regular), a graph with isolated nodes, and a
/// single-edge graph.
#[test]
fn execplan_matches_interpreter_on_degenerate_graphs() {
    let graphs = [
        generators::ring(12).unwrap(),
        Graph::undirected_from_edges(8, &[(0, 1), (1, 2)]).unwrap(),
        Graph::undirected_from_edges(3, &[(0, 1)]).unwrap(),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let ctx = GraphCtx::new(g).unwrap();
        let n = g.num_nodes();
        for model in ALL_MODELS {
            let cfg = LayerConfig::new(4, 3);
            let plan = CompiledModel::compile(model, cfg).unwrap();
            let h = DenseMatrix::random(n, 4, 1.0, 31 + gi as u64);
            let inputs = PlanInputs::for_model(model, cfg, &ctx, h, 37);
            for cand in &plan.candidates {
                assert_candidate_matches(model, &inputs, &cand.program.expr, &cand.program);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bitwise agreement with the oracle on arbitrary graphs and embedding
    /// sizes, for every model.
    #[test]
    fn execplan_matches_interpreter_on_random_inputs(
        n in 4usize..20,
        edges in proptest::collection::vec((0usize..20, 0usize..20), 2..40),
        k_in in 1usize..6,
        k_out in 1usize..6,
        seed in 0u64..500,
        model_idx in 0usize..6,
    ) {
        let model = ALL_MODELS[model_idx];
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let graph = Graph::undirected_from_edges(n, &edges).unwrap();
        let ctx = GraphCtx::new(&graph).unwrap();
        let cfg = LayerConfig::new(k_in, k_out);
        let h = DenseMatrix::random(n, k_in, 1.0, seed);
        let inputs = PlanInputs::for_model(model, cfg, &ctx, h, seed + 1);
        let plan = CompiledModel::compile(model, cfg).unwrap();
        for cand in &plan.candidates {
            let interp_engine = Engine::modeled(DeviceKind::Cpu);
            let interp_exec = Exec::real(&interp_engine);
            let oracle =
                interp::execute(&interp_exec, &cand.program, &inputs.as_program_inputs()).unwrap();

            let plan_engine = Engine::modeled(DeviceKind::Cpu);
            let plan_exec = Exec::real(&plan_engine);
            let mut bound = ExecPlan::build(&cand.program)
                .unwrap()
                .bind(&plan_exec, &inputs.as_program_inputs())
                .unwrap();
            let out = bound.iterate(&plan_exec).unwrap();
            prop_assert_eq!(out.shape(), (n, k_out));
            let diff = out.max_abs_diff(&oracle).unwrap();
            prop_assert_eq!(diff, 0.0, "{}/{}", model, cand.program.expr);
        }
    }
}
