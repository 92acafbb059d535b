//! Compile-once execution: plan-build vs steady-state timing.
//!
//! Selects a composition for a GCN layer, lowers it once into a
//! slot-addressed `ExecPlan`, and runs 100 iterations. The steady-state
//! report splits the one-time costs (plan build, bind + hoisted precompute,
//! warm-up) from the steady-state loop, the kernel-buffer count verifies
//! that after warm-up no iteration allocates a buffer, and the engine's own
//! profile splits the charged time by primitive.
//!
//! Run with: `cargo run --release --example steady_state`

use std::error::Error;

use granii::core::execplan::PlanInputs;
use granii::core::plan::CompiledModel;
use granii::core::runtime::run_steady_state;
use granii::core::{Granii, GraniiOptions};
use granii::gnn::spec::{LayerConfig, ModelKind};
use granii::gnn::{Exec, GraphCtx};
use granii::graph::generators;
use granii::matrix::device::{DeviceKind, Engine};
use granii::matrix::DenseMatrix;

fn main() -> Result<(), Box<dyn Error>> {
    let graph = generators::power_law(2_000, 12, 42)?;
    let ctx = GraphCtx::new(&graph)?;
    let cfg = LayerConfig::new(64, 32);

    // Online selection picks the composition for this concrete input.
    let granii = Granii::train_for_device(DeviceKind::Cpu, GraniiOptions::fast())?;
    let decision = granii.select(ModelKind::Gcn, &graph, cfg.k_in, cfg.k_out)?;
    println!("selected composition: {}", decision.composition_name());

    // Compile-once: lower the winning candidate into an ExecPlan and run it.
    let plan = CompiledModel::compile(ModelKind::Gcn, cfg)?;
    let h = DenseMatrix::random(ctx.num_nodes(), cfg.k_in, 1.0, 7);
    let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h, 7);
    let engine = Engine::modeled(DeviceKind::Cpu);
    let exec = Exec::real(&engine);

    let allocs_before = granii::matrix::buffer_allocations();
    let report = run_steady_state(&exec, &plan, decision.composition, &inputs, 100)?;
    println!("\nprogram: {}", report.expr);
    println!("plan build:        {:>10.1} µs", report.build_seconds * 1e6);
    println!("bind + precompute: {:>10.1} µs", report.bind_seconds * 1e6);
    println!(
        "warm-up iteration: {:>10.1} µs",
        report.warmup_seconds * 1e6
    );
    println!(
        "steady state:      {:>10.1} µs/iter over {} iterations",
        report.seconds_per_iteration() * 1e6,
        report.steady_iterations,
    );
    println!(
        "steady-state buffer allocations: {} (one-time setup allocated {})",
        report.steady_allocations,
        granii::matrix::buffer_allocations() - allocs_before - report.steady_allocations,
    );

    // The engine that ran the plan holds its charged time per primitive.
    println!("\ncharged time by primitive (bind + 100 iterations):");
    print!("{}", engine.take_profile());
    Ok(())
}
