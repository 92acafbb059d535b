//! The offline profiling and cost-model training pipeline (paper §V
//! "Training Lightweight Cost Models").
//!
//! The paper profiles each matrix primitive on SuiteSparse graphs (1M-100M
//! nonzeros, further varied by sampling) with embedding sizes 32..2048,
//! collecting 700-8000 points per primitive, and fits one XGBoost regressor
//! per (primitive, device). Here the corpus is generated (same structural
//! variety; see `DESIGN.md` §2), latencies come from the device performance
//! model (or measured CPU kernels via the same `Engine` machinery), and the
//! regressors come from `granii-boost`.

use std::collections::BTreeMap;

use granii_boost::{Dataset, GbtParams, GbtRegressor};
use granii_graph::{generators, sampling, Graph};
use granii_matrix::device::{DeviceKind, DeviceSpec};
use granii_matrix::PrimitiveKind;

use crate::assoc::PrimStep;
use crate::cost::{CostModelSet, FeaturizedInput};
use crate::ir::Dim;
use crate::Result;

/// Configuration of the profiling corpus and the regressor.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Number of base graphs in the corpus (each also contributes sampled
    /// variants, mirroring the paper's sampling-based variation).
    pub base_graphs: usize,
    /// Embedding sizes swept per graph (paper: 32 to 2048).
    pub embed_sizes: Vec<usize>,
    /// Fraction of points held out for validation.
    pub valid_fraction: f64,
    /// Regressor hyperparameters.
    pub gbt: GbtParams,
    /// Corpus seed.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            base_graphs: 10,
            embed_sizes: vec![32, 64, 128, 256, 512, 1024, 2048],
            valid_fraction: 0.2,
            gbt: GbtParams {
                num_rounds: 120,
                ..GbtParams::default()
            },
            seed: 0xC0DE,
        }
    }
}

impl TrainingConfig {
    /// A reduced configuration for tests and quick starts.
    pub fn fast() -> Self {
        Self {
            base_graphs: 5,
            embed_sizes: vec![32, 256, 1024],
            gbt: GbtParams {
                num_rounds: 60,
                ..GbtParams::default()
            },
            ..Self::default()
        }
    }
}

/// Builds the training corpus: one graph per structural class, cycled and
/// varied by seed and neighborhood sampling.
///
/// # Errors
///
/// Propagates generator errors (the built-in parameters are valid).
pub fn build_corpus(cfg: &TrainingConfig) -> Result<Vec<Graph>> {
    let mut graphs = Vec::new();
    for i in 0..cfg.base_graphs {
        let seed = cfg.seed + i as u64;
        // Sizes span the evaluation range (up to tens of thousands of nodes
        // and millions of nonzeros) so the regressors interpolate rather than
        // extrapolate, mirroring the paper's 1M-100M-nnz SuiteSparse corpus.
        let g = match i % 5 {
            0 => generators::power_law(4_000 + 6_000 * i, 6 + 12 * i, seed)?,
            1 => generators::erdos_renyi(5_000 + 5_000 * i, (8 + 20 * i) as f64, seed)?,
            2 => generators::grid_2d(60 + 40 * i, 60 + 30 * i)?,
            3 => generators::mycielskian(9 + (i as u32 % 5))?,
            _ => generators::community(100 + 100 * i, 40, 0.2, 4, seed)?,
        };
        // Sampling-based variation (the paper varies SuiteSparse graphs "using
        // sampling").
        let sampled = sampling::sample_neighbors(&g, 3 + i, seed + 1000)?;
        graphs.push(g);
        graphs.push(sampled);
    }
    Ok(graphs)
}

/// The representative symbolic steps profiled per primitive.
fn profiled_steps() -> Vec<PrimStep> {
    let s = |kind, rows, inner, cols: Dim| PrimStep {
        kind,
        rows,
        inner,
        cols,
        once: false,
    };
    vec![
        s(PrimitiveKind::Gemm, Dim::N, Dim::K1, Dim::K2),
        s(PrimitiveKind::Gemm, Dim::N, Dim::K2, Dim::One),
        s(PrimitiveKind::SpmmWeighted, Dim::N, Dim::Nnz, Dim::K1),
        s(PrimitiveKind::SpmmWeighted, Dim::N, Dim::Nnz, Dim::K2),
        s(PrimitiveKind::SpmmUnweighted, Dim::N, Dim::Nnz, Dim::K1),
        s(PrimitiveKind::SpmmUnweighted, Dim::N, Dim::Nnz, Dim::K2),
        s(PrimitiveKind::Sddmm, Dim::N, Dim::Nnz, Dim::One),
        s(PrimitiveKind::Sddmm, Dim::N, Dim::Nnz, Dim::K1),
        s(PrimitiveKind::RowBroadcast, Dim::N, Dim::One, Dim::K1),
        s(PrimitiveKind::RowBroadcast, Dim::N, Dim::One, Dim::K2),
        s(PrimitiveKind::ColBroadcast, Dim::N, Dim::One, Dim::K1),
        s(PrimitiveKind::Elementwise, Dim::N, Dim::One, Dim::K1),
        s(PrimitiveKind::Elementwise, Dim::N, Dim::One, Dim::K2),
        s(PrimitiveKind::Elementwise, Dim::Nnz, Dim::One, Dim::One),
        s(PrimitiveKind::Elementwise, Dim::N, Dim::One, Dim::One),
        s(PrimitiveKind::EdgeSoftmax, Dim::N, Dim::Nnz, Dim::One),
        s(PrimitiveKind::Binning, Dim::N, Dim::Nnz, Dim::One),
    ]
}

/// Profiles every primitive over the corpus × embedding-size grid, producing
/// `(features, ln-latency)` points per primitive.
pub fn profile(
    device: DeviceKind,
    corpus: &[Graph],
    embed_sizes: &[usize],
) -> BTreeMap<PrimitiveKind, (Vec<Vec<f64>>, Vec<f64>)> {
    let spec = DeviceSpec::preset(device);
    let mut out: BTreeMap<PrimitiveKind, (Vec<Vec<f64>>, Vec<f64>)> = BTreeMap::new();
    for graph in corpus {
        let irregularity = graph.row_stats().cv;
        for &k1 in embed_sizes {
            for &k2 in embed_sizes {
                let input = FeaturizedInput::extract(graph, k1, k2);
                for step in profiled_steps() {
                    let stats =
                        step.work_stats(input.num_nodes, input.num_edges, k1, k2, irregularity);
                    let seconds = spec.estimate_seconds(&stats);
                    let entry = out.entry(step.kind).or_default();
                    entry.0.push(input.step_features(&step));
                    entry.1.push(seconds.ln());
                }
            }
        }
    }
    out
}

/// Runs the full offline training: corpus → profiling → one GBT per
/// primitive, with validation metrics.
///
/// # Errors
///
/// Propagates corpus-generation and fitting errors.
pub fn train(device: DeviceKind, cfg: &TrainingConfig) -> Result<CostModelSet> {
    let corpus = build_corpus(cfg)?;
    let profiles = profile(device, &corpus, &cfg.embed_sizes);
    fit(device, profiles, cfg)
}

/// Wall-clock runs per profiled step in [`train_measured_cpu`]. Preemption
/// on a shared host only ever adds time to a run, so the fastest of a few is
/// the label least disturbed by other load.
const MEASURED_RUNS: usize = 3;

/// Like [`train`], but labels come from *measured wall-clock executions* of
/// the real CPU kernels instead of the device model — the paper's actual
/// methodology for its CPU platform (§V). Graphs above `max_edges` nonzeros
/// and embedding sizes above `max_k` are skipped to bound profiling time.
/// Each step is run a few times and labeled with its fastest run.
///
/// # Errors
///
/// Propagates corpus-generation, kernel, and fitting errors.
pub fn train_measured_cpu(
    cfg: &TrainingConfig,
    max_edges: usize,
    max_k: usize,
) -> Result<CostModelSet> {
    use granii_gnn::Exec;
    use granii_matrix::device::Engine;
    use granii_matrix::ops::BroadcastOp;
    use granii_matrix::{DenseMatrix, Semiring};

    let corpus = build_corpus(cfg)?;
    let engine = Engine::cpu_measured();
    let exec = Exec::real(&engine);
    let mut out: BTreeMap<PrimitiveKind, (Vec<Vec<f64>>, Vec<f64>)> = BTreeMap::new();

    for graph in &corpus {
        let ctx = granii_gnn::GraphCtx::new(graph).map_err(crate::CoreError::Gnn)?;
        if ctx.adj().nnz() > max_edges {
            continue;
        }
        let adj = ctx.adj().clone();
        let weighted = granii_matrix::ops::scale_csr(None, &adj, None)?;
        let irr = ctx.irregularity();
        let d: Vec<f32> = ctx.deg_inv_sqrt().to_vec();
        for &k1 in cfg.embed_sizes.iter().filter(|&&k| k <= max_k) {
            for &k2 in cfg.embed_sizes.iter().filter(|&&k| k <= max_k) {
                let input = FeaturizedInput::extract(graph, k1, k2);
                let h = DenseMatrix::random(adj.rows(), k1, 1.0, 1);
                let w = DenseMatrix::random(k1, k2, 1.0, 2);
                let hk2 = DenseMatrix::random(adj.rows(), k2, 1.0, 3);
                for step in profiled_steps() {
                    // Execute the primitive the step describes with real
                    // operands of the resolved sizes.
                    let run = || -> Result<()> {
                        match (step.kind, step.cols) {
                            (PrimitiveKind::Gemm, Dim::One) => {
                                let a1 = DenseMatrix::random(k2, 1, 1.0, 4);
                                exec.gemm(&hk2, &a1).map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::Gemm, _) => {
                                exec.gemm(&h, &w).map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::SpmmWeighted, Dim::K2) => {
                                exec.spmm(&weighted, &hk2, Semiring::plus_mul(), irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::SpmmWeighted, _) => {
                                exec.spmm(&weighted, &h, Semiring::plus_mul(), irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::SpmmUnweighted, Dim::K2) => {
                                exec.spmm(&adj, &hk2, Semiring::plus_copy_rhs(), irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::SpmmUnweighted, _) => {
                                exec.spmm(&adj, &h, Semiring::plus_copy_rhs(), irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::Sddmm, Dim::One) => {
                                exec.scale_csr(Some(&d), &adj, Some(&d), irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::Sddmm, _) => {
                                exec.sddmm(&adj, &h, &h, irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::RowBroadcast, Dim::K2) => {
                                exec.row_broadcast(&d, &hk2, BroadcastOp::Mul)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::RowBroadcast, _) => {
                                exec.row_broadcast(&d, &h, BroadcastOp::Mul)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::ColBroadcast, _) => {
                                let dk: Vec<f32> = (0..h.cols()).map(|i| i as f32).collect();
                                exec.col_broadcast(&h, &dk, BroadcastOp::Mul)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::Elementwise, _) => {
                                exec.map(&h, 1, |v| v.max(0.0))
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::EdgeSoftmax, _) => {
                                exec.edge_softmax(&weighted, irr)
                                    .map_err(crate::CoreError::Gnn)?;
                            }
                            (PrimitiveKind::Binning, _) => {
                                exec.degrees_by_binning(&adj);
                            }
                        }
                        Ok(())
                    };
                    let mut seconds = f64::INFINITY;
                    for _ in 0..MEASURED_RUNS {
                        engine.take_profile();
                        run()?;
                        seconds = seconds.min(engine.take_profile().total_seconds());
                    }
                    let seconds = seconds.max(1e-9);
                    let entry = out.entry(step.kind).or_default();
                    entry.0.push(input.step_features(&step));
                    entry.1.push(seconds.ln());
                }
            }
        }
    }
    fit(DeviceKind::Cpu, out, cfg)
}

/// Fits one regressor per primitive from profiling data.
fn fit(
    device: DeviceKind,
    profiles: BTreeMap<PrimitiveKind, (Vec<Vec<f64>>, Vec<f64>)>,
    cfg: &TrainingConfig,
) -> Result<CostModelSet> {
    let mut models = BTreeMap::new();
    let mut validation = BTreeMap::new();
    for (kind, (rows, labels)) in profiles {
        let data = Dataset::from_rows(&rows, &labels)?;
        let (train_set, valid_set) = data.split(cfg.valid_fraction)?;
        let model = GbtRegressor::fit_with_validation(&train_set, Some(&valid_set), &cfg.gbt)?;
        let preds: Vec<f64> = (0..valid_set.num_rows())
            .map(|i| model.predict(valid_set.row(i)))
            .collect();
        let rmse = granii_boost::metrics::rmse(&preds, valid_set.labels());
        let spearman = granii_boost::metrics::spearman(&preds, valid_set.labels());
        models.insert(kind, model);
        validation.insert(kind, (rmse, spearman));
    }
    Ok(CostModelSet::new(device, models, validation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_structural_variety() {
        let cfg = TrainingConfig::fast();
        let corpus = build_corpus(&cfg).unwrap();
        assert_eq!(corpus.len(), cfg.base_graphs * 2);
        let cvs: Vec<f64> = corpus.iter().map(|g| g.row_stats().cv).collect();
        let max = cvs.iter().cloned().fold(0.0, f64::max);
        let min = cvs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > 4.0 * (min + 0.01),
            "degree-skew variety: {min}..{max}"
        );
    }

    #[test]
    fn profiling_covers_every_primitive() {
        let cfg = TrainingConfig::fast();
        let corpus = build_corpus(&cfg).unwrap();
        let profiles = profile(DeviceKind::H100, &corpus[..2], &[32, 256]);
        for kind in PrimitiveKind::ALL {
            let (rows, labels) = profiles
                .get(&kind)
                .unwrap_or_else(|| panic!("missing {kind}"));
            assert_eq!(rows.len(), labels.len());
            assert!(!rows.is_empty());
            assert!(labels.iter().all(|l| l.is_finite()));
        }
    }

    #[test]
    fn measured_cpu_training_produces_usable_models() {
        let mut cfg = TrainingConfig::fast();
        cfg.base_graphs = 3;
        cfg.embed_sizes = vec![16, 64];
        let set = train_measured_cpu(&cfg, 100_000, 64).unwrap();
        assert_eq!(set.device(), DeviceKind::Cpu);
        // Measured labels are noisy; require a positive rank correlation on
        // the heavyweight primitives.
        for kind in [PrimitiveKind::Gemm, PrimitiveKind::SpmmUnweighted] {
            let (_, spearman) = set.validation[&kind];
            assert!(spearman > 0.3, "{kind}: spearman {spearman}");
        }
        // Predictions are positive latencies.
        let g = generators::power_law(500, 5, 1).unwrap();
        let input = FeaturizedInput::extract(&g, 16, 64);
        for step in profiled_steps() {
            let p = set.predict_step(&step, &input).unwrap();
            assert!(p > 0.0 && p.is_finite(), "{}: {p}", step.kind);
        }
    }

    #[test]
    fn trained_models_rank_sizes_correctly() {
        let mut cfg = TrainingConfig::fast();
        cfg.base_graphs = 4;
        let set = train(DeviceKind::H100, &cfg).unwrap();
        // A GEMM at 1024 wide must be predicted slower than at 32 wide on the
        // same graph.
        let g = generators::power_law(3_000, 8, 99).unwrap();
        let step = PrimStep {
            kind: PrimitiveKind::Gemm,
            rows: Dim::N,
            inner: Dim::K1,
            cols: Dim::K2,
            once: false,
        };
        let small = set
            .predict_step(&step, &FeaturizedInput::extract(&g, 256, 32))
            .unwrap();
        let large = set
            .predict_step(&step, &FeaturizedInput::extract(&g, 256, 1024))
            .unwrap();
        assert!(large > small, "large {large} vs small {small}");
        // Validation rank correlation should be high for every primitive.
        for (kind, (_, spearman)) in &set.validation {
            assert!(*spearman > 0.8, "{kind}: spearman {spearman}");
        }
    }
}
