//! Property-based tests for the program interpreter: every promoted
//! association tree of a model computes the same function on arbitrary
//! graphs, features, and embedding sizes.

use std::collections::BTreeMap;
use std::sync::Arc;

use granii_core::interp::{self, ProgramInputs};
use granii_core::plan::CompiledModel;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::Graph;
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::DenseMatrix;
use proptest::prelude::*;

fn weights(model: ModelKind, cfg: LayerConfig, seed: u64) -> BTreeMap<String, DenseMatrix> {
    let mut w = BTreeMap::new();
    match model {
        ModelKind::Gin => {
            w.insert(
                "W1".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed),
            );
            w.insert(
                "W2".into(),
                DenseMatrix::random(cfg.k_out, cfg.k_out, 0.6, seed + 1),
            );
        }
        ModelKind::Tagcn => {
            for k in 0..=cfg.hops {
                w.insert(
                    format!("W{k}"),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 2 + k as u64),
                );
            }
        }
        ModelKind::Sage => {
            w.insert(
                "W_self".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 7),
            );
            w.insert(
                "W_neigh".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 8),
            );
        }
        _ => {
            w.insert(
                "W".into(),
                DenseMatrix::random(cfg.k_in, cfg.k_out, 0.6, seed + 9),
            );
            w.insert(
                "a_l".into(),
                DenseMatrix::random(cfg.k_out, 1, 0.6, seed + 10),
            );
            w.insert(
                "a_r".into(),
                DenseMatrix::random(cfg.k_out, 1, 0.6, seed + 11),
            );
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interpreted promoted programs agree pairwise on random inputs, for
    /// every model.
    #[test]
    fn promoted_programs_agree_on_random_inputs(
        n in 4usize..25,
        edges in proptest::collection::vec((0usize..25, 0usize..25), 2..50),
        k_in in 1usize..7,
        k_out in 1usize..7,
        seed in 0u64..500,
        model_idx in 0usize..6,
    ) {
        let models = [ModelKind::Gcn, ModelKind::Gin, ModelKind::Sgc, ModelKind::Tagcn, ModelKind::Gat, ModelKind::Sage];
        let model = models[model_idx];
        let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let graph = Graph::undirected_from_edges(n, &edges).unwrap();
        let ctx = GraphCtx::new(&graph).unwrap();
        let cfg = LayerConfig::new(k_in, k_out);
        let h = Arc::new(DenseMatrix::random(n, k_in, 1.0, seed));
        let w = weights(model, cfg, seed);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let deg_inv: Vec<f32> = ctx
            .graph()
            .out_degrees()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        let raw = matches!(model, ModelKind::Gin | ModelKind::Sage);
        let adj = if raw { ctx.graph().adj().clone() } else { ctx.adj().clone() };
        let inputs = ProgramInputs {
            adj: &adj,
            deg_inv_sqrt: ctx.deg_inv_sqrt(),
            deg_inv: &deg_inv,
            h: &h,
            weights: &w,
            eps: 0.1,
            irregularity: ctx.irregularity(),
        };
        let plan = CompiledModel::compile(model, cfg).unwrap();
        let mut reference: Option<DenseMatrix> = None;
        for cand in &plan.candidates {
            let out = interp::execute(&exec, &cand.program, &inputs).unwrap();
            prop_assert_eq!(out.shape(), (n, k_out));
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    let diff = out.max_abs_diff(r).unwrap();
                    let tol = 1e-3 * (1.0 + r.frobenius_norm());
                    prop_assert!(diff < tol, "{}/{}: diff {diff}", model, cand.program.expr);
                }
            }
        }
    }
}
