//! The compile-once contract: after warm-up, steady-state iterations of every
//! built-in model's candidates allocate **zero** fresh kernel buffers
//! (dense, sparse-value or workspace).
//!
//! This file deliberately contains a single `#[test]`: the buffer count
//! ([`granii_matrix::buffer_allocations`]) is process-wide, so the assertion
//! must run in a test binary where no other test can allocate matrices
//! concurrently.

use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::plan::CompiledModel;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::generators;
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::{buffer_allocations, DenseMatrix};

#[test]
fn steady_state_iterations_do_not_allocate() {
    let g = generators::power_law(50, 4, 41).unwrap();
    let ctx = GraphCtx::new(&g).unwrap();
    let engine = Engine::modeled(DeviceKind::Cpu);
    let exec = Exec::real(&engine);

    let models = [
        ModelKind::Gcn,
        ModelKind::Gin,
        ModelKind::Sgc,
        ModelKind::Tagcn,
        ModelKind::Gat,
        ModelKind::Sage,
    ];
    for model in models {
        for (k_in, k_out) in [(6usize, 4usize), (4, 6)] {
            let cfg = LayerConfig::new(k_in, k_out);
            let plan = CompiledModel::compile(model, cfg).unwrap();
            let h = DenseMatrix::random(50, k_in, 1.0, 43);
            let inputs = PlanInputs::for_model(model, cfg, &ctx, h, 47);
            for cand in &plan.candidates {
                let exec_plan = ExecPlan::build(&cand.program).unwrap();
                let mut bound = exec_plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
                // Warm-up (bind already allocated everything; the first
                // iteration must also be clean, but we assert only the
                // steady phase, matching the acceptance criterion).
                bound.iterate(&exec).unwrap();
                let before = buffer_allocations();
                for _ in 0..5 {
                    bound.iterate(&exec).unwrap();
                }
                let after = buffer_allocations();
                assert_eq!(
                    after - before,
                    0,
                    "{model}/{}: steady-state iterations allocated",
                    exec_plan.expr()
                );
            }
        }
    }
}
