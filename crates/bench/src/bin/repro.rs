//! Reproduces every table and figure of the GRANII paper's evaluation.
//!
//! ```text
//! repro [--scale tiny|small] <experiment>
//!
//! experiments:
//!   counts     §VI-B composition counts (enumerated / pruned pairs)
//!   fig6       matrix IR and association trees for the GCN running example
//!   fig3       per-operation complexity tables for GCN and GAT
//!   fig1       speedup of static / config / input-aware orderings (GCN)
//!   fig2       sparse vs dense runtime split across graphs and hardware
//!   table3     geomean speedups across systems, devices, models, and modes
//!   fig8       per-graph speedups for every panel of the grid
//!   table4     end-to-end 2-layer forward latencies (Reddit, ogbn-products)
//!   fig9       sampling sensitivity on mycielskian (GCN and GAT)
//!   table5     multi-layer speedups vs WiseGraph
//!   table6     GRANII vs oracle heuristics
//!   overheads  featurization + selection overheads
//!   ablations  design-choice studies (pruning benefit, amortization)
//!   calibrate  device-model vs measured-CPU kernel validation
//!   all        everything above
//! ```

use std::collections::BTreeMap;

use granii_bench::grid::{self, EvalConfig, Mode, Record};
use granii_bench::policies::{self, Policy};
use granii_bench::report::{geomean, seconds, speedup, table};
use granii_bench::runner::{self, ITERATIONS};
use granii_core::complexity::complexity_table;
use granii_core::ir::{builder, rewrite};
use granii_core::plan::CompiledModel;
use granii_core::{Granii, GraniiOptions};
use granii_gnn::models::GnnLayer;
use granii_gnn::spec::{Composition, GatStrategy, LayerConfig, ModelKind, NormStrategy, OpOrder};
use granii_gnn::system::{BaselineRunner, System};
use granii_gnn::{Exec, GraphCtx};
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::{sampling, Graph};
use granii_matrix::device::{DeviceKind, Engine, Profile};
use granii_matrix::DenseMatrix;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut records_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_summary = false;
    let mut cmd = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--records" => {
                i += 1;
                records_path = args.get(i).cloned();
                if records_path.is_none() {
                    eprintln!("--records needs a path");
                    std::process::exit(2);
                }
            }
            "--trace-out" => {
                i += 1;
                trace_path = args.get(i).cloned();
                if trace_path.is_none() {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }
            }
            "--trace-summary" => trace_summary = true,
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            c if cmd.is_none() => cmd = Some(c.to_string()),
            other => {
                eprintln!("unexpected argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(cmd) = cmd else {
        eprintln!(
            "usage: repro [--scale tiny|small] [--trace-out FILE] [--trace-summary] <experiment>"
        );
        eprintln!("experiments: counts fig6 fig3 fig1 fig2 table3 fig8 table4 fig9 table5 table6 overheads all");
        std::process::exit(2);
    };

    let tracing = trace_path.is_some() || trace_summary;
    if tracing {
        granii_telemetry::enable();
    }
    let mut ctx = ReproContext::new(scale);
    ctx.records_path = records_path;
    match cmd.as_str() {
        "counts" => counts(),
        "fig6" => fig6(),
        "fig3" => fig3(),
        "fig1" => fig1(&mut ctx),
        "fig2" => fig2(&mut ctx),
        "table3" => table3(&mut ctx),
        "fig8" => fig8(&mut ctx),
        "table4" => table4(&mut ctx),
        "fig9" => fig9(&mut ctx),
        "table5" => table5(&mut ctx),
        "table6" => table6(&mut ctx),
        "overheads" => overheads(&mut ctx),
        "ablations" => ablations(&mut ctx),
        "calibrate" => calibrate(),
        "all" => {
            counts();
            fig6();
            fig3();
            fig1(&mut ctx);
            fig2(&mut ctx);
            table3(&mut ctx);
            fig8(&mut ctx);
            table4(&mut ctx);
            fig9(&mut ctx);
            table5(&mut ctx);
            table6(&mut ctx);
            overheads(&mut ctx);
            ablations(&mut ctx);
            calibrate();
        }
        other => {
            eprintln!("unknown experiment {other}");
            std::process::exit(2);
        }
    }

    if tracing {
        granii_telemetry::disable();
        let spans = granii_telemetry::take_spans();
        if let Some(path) = &trace_path {
            let json = granii_telemetry::export::chrome_trace(&spans);
            match std::fs::write(path, json) {
                Ok(()) => eprintln!("[trace] {} spans -> {path}", spans.len()),
                Err(e) => eprintln!("[trace] failed to write {path}: {e}"),
            }
        }
        if trace_summary {
            println!("\n== Span summary ==");
            print!("{}", granii_telemetry::export::summary(&spans));
        }
    }
}

/// Caches trained GRANII instances, loaded graphs, and the main-grid records.
struct ReproContext {
    scale: Scale,
    granii: BTreeMap<DeviceKind, Granii>,
    graphs: BTreeMap<Dataset, Graph>,
    records: Option<Vec<Record>>,
    /// Optional JSON cache for the main-grid records (`--records PATH`).
    records_path: Option<String>,
}

impl ReproContext {
    fn new(scale: Scale) -> Self {
        Self {
            scale,
            granii: BTreeMap::new(),
            graphs: BTreeMap::new(),
            records: None,
            records_path: None,
        }
    }

    fn granii(&mut self, device: DeviceKind) -> &Granii {
        self.granii.entry(device).or_insert_with(|| {
            eprintln!("[offline] training cost models for {device}...");
            Granii::train_for_device(device, GraniiOptions::default()).expect("cost-model training")
        })
    }

    fn graph(&mut self, dataset: Dataset) -> &Graph {
        let scale = self.scale;
        self.graphs.entry(dataset).or_insert_with(|| {
            eprintln!("[data] generating {dataset} stand-in...");
            dataset.load(scale).expect("dataset generation")
        })
    }

    /// Computes (once) the full Table III / Fig 8 / Table VI record set,
    /// loading/saving the JSON cache when `--records` was given.
    fn records(&mut self) -> &[Record] {
        if self.records.is_none() {
            if let Some(path) = &self.records_path {
                if let Ok(json) = std::fs::read_to_string(path) {
                    match serde_json::from_str::<Vec<Record>>(&json) {
                        Ok(records) => {
                            eprintln!("[grid] loaded {} cached records from {path}", records.len());
                            self.records = Some(records);
                            return self.records.as_deref().expect("just loaded");
                        }
                        Err(e) => eprintln!("[grid] ignoring unreadable cache {path}: {e}"),
                    }
                }
            }
            let configs = grid::full_grid(&Dataset::ALL);
            eprintln!("[grid] evaluating {} configurations...", configs.len());
            let mut records = Vec::with_capacity(configs.len());
            for (i, cfg) in configs.iter().enumerate() {
                if i % 100 == 0 {
                    eprintln!("[grid] {i}/{}", configs.len());
                }
                self.granii(cfg.device);
                self.graph(cfg.dataset);
                let granii = &self.granii[&cfg.device];
                let graph = &self.graphs[&cfg.dataset];
                let rec = runner::evaluate_config(cfg, graph, granii).expect("evaluation");
                records.push(rec);
            }
            if let Some(path) = &self.records_path {
                match serde_json::to_string(&records) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(path, json) {
                            eprintln!("[grid] failed to write cache {path}: {e}");
                        } else {
                            eprintln!("[grid] cached {} records to {path}", records.len());
                        }
                    }
                    Err(e) => eprintln!("[grid] failed to serialize cache: {e}"),
                }
            }
            self.records = Some(records);
        }
        self.records.as_deref().expect("just computed")
    }
}

/// §VI-B composition counts.
fn counts() {
    println!("\n== Composition counts (paper §VI-B: GCN 12/8, GAT 2/0, GIN 8/4) ==");
    let mut rows = vec![vec![
        "model".into(),
        "enumerated".into(),
        "pruned".into(),
        "promoted".into(),
        "paper (enum/pruned)".into(),
    ]];
    for (model, paper) in [
        (ModelKind::Gcn, "12 / 8"),
        (ModelKind::Gat, "2 / 0"),
        (ModelKind::Gin, "8 / 4"),
        (ModelKind::Sgc, "-"),
        (ModelKind::Tagcn, "-"),
        (ModelKind::Sage, "-"),
    ] {
        let plan = CompiledModel::compile(model, LayerConfig::new(32, 256)).expect("compile");
        rows.push(vec![
            model.to_string(),
            plan.enumerated.to_string(),
            plan.pruned.to_string(),
            plan.candidates.len().to_string(),
            paper.into(),
        ]);
    }
    print!("{}", table(&rows));
}

/// Fig 6: the GCN running example through the offline stage.
fn fig6() {
    println!("\n== Fig 6: matrix IR and association trees (GCN) ==");
    let ir = builder::build(ModelKind::Gcn, LayerConfig::new(32, 256));
    println!("message-passing IR : {}", ir.render());
    let canon = rewrite::canonicalize(&ir);
    println!("after rewrite      : {}", canon.render());
    let plan = CompiledModel::compile(ModelKind::Gcn, LayerConfig::new(32, 256)).expect("compile");
    println!("promoted association trees:");
    for c in &plan.candidates {
        let scen = match (c.shrink, c.grow) {
            (true, true) => "<>",
            (true, false) => ">",
            (false, true) => "<",
            _ => "-",
        };
        println!("  [{scen}] {} => {}", c.program.expr, c.composition);
        for (i, (s, op)) in c.program.steps.iter().zip(&c.program.ops).enumerate() {
            let once = if s.once { " (hoisted)" } else { "" };
            println!("        s{i} = {op}  [{}]{once}", s.kind);
        }
    }
}

/// Fig 3: complexity tables.
fn fig3() {
    println!("\n== Fig 3: composition complexities ==");
    for model in [ModelKind::Gcn, ModelKind::Gat] {
        println!("-- {model} --");
        for row in complexity_table(model, LayerConfig::new(32, 256)).expect("compile") {
            let ops: Vec<String> = row
                .operations
                .iter()
                .map(|(k, c)| format!("{k} {c}"))
                .collect();
            println!("  {}: {}", row.composition, ops.join(", "));
        }
    }
}

/// Fig 1: static vs config vs input-aware orderings for GCN.
fn fig1(ctx: &mut ReproContext) {
    let records: Vec<Record> = ctx
        .records()
        .iter()
        .filter(|r| r.config.model == ModelKind::Gcn && r.config.mode == Mode::Inference)
        .cloned()
        .collect();
    println!("\n== Fig 1: GCN speedups by ordering strategy ==");
    let mut rows = vec![vec![
        "graph".into(),
        "static".into(),
        "config".into(),
        "all (GRANII)".into(),
    ]];
    for dataset in Dataset::ALL {
        let subset: Vec<Record> = records
            .iter()
            .filter(|r| r.config.dataset == dataset)
            .cloned()
            .collect();
        rows.push(vec![
            dataset.to_string(),
            speedup(policies::geomean_speedup(Policy::Static, &subset)),
            speedup(policies::geomean_speedup(Policy::Config, &subset)),
            speedup(policies::geomean_speedup(Policy::Granii, &subset)),
        ]);
    }
    rows.push(vec![
        "geomean".into(),
        speedup(policies::geomean_speedup(Policy::Static, &records)),
        speedup(policies::geomean_speedup(Policy::Config, &records)),
        speedup(policies::geomean_speedup(Policy::Granii, &records)),
    ]);
    print!("{}", table(&rows));
}

/// Fig 2: sparse/dense runtime split.
fn fig2(ctx: &mut ReproContext) {
    println!("\n== Fig 2: % runtime in sparse vs dense primitives (GCN, DGL default) ==");
    let mut rows = vec![vec![
        "graph".into(),
        "(in,out)".into(),
        "device".into(),
        "sparse".into(),
        "dense".into(),
    ]];
    let mut merged: BTreeMap<DeviceKind, Profile> = BTreeMap::new();
    for dataset in Dataset::ALL {
        let graph = ctx.graph(dataset).clone();
        for (k1, k2) in [(32, 32), (1024, 1024)] {
            for device in DeviceKind::ALL {
                let p = runner::sparse_dense_breakdown(&graph, k1, k2, device).expect("profile");
                let f = p.sparse_fraction();
                rows.push(vec![
                    dataset.to_string(),
                    format!("({k1},{k2})"),
                    device.to_string(),
                    format!("{:.0}%", f * 100.0),
                    format!("{:.0}%", (1.0 - f) * 100.0),
                ]);
                merged.entry(device).or_default().merge(p);
            }
        }
    }
    print!("{}", table(&rows));
    for (device, profile) in merged {
        println!("\n-- aggregate primitive breakdown, all graphs/widths on {device} --");
        println!("{profile}");
    }
}

/// Table III: geomean speedups.
fn table3(ctx: &mut ReproContext) {
    let records = ctx.records().to_vec();
    println!(
        "\n== Table III: geomean speedups across graphs and configurations ({ITERATIONS} iterations) =="
    );
    let mut rows = vec![vec![
        "system".into(),
        "hw".into(),
        "mode".into(),
        "overall".into(),
        "GCN".into(),
        "GIN".into(),
        "SGC".into(),
        "TAGCN".into(),
        "GAT".into(),
    ]];
    for (system, device) in grid::system_devices() {
        for mode in Mode::ALL {
            let subset: Vec<&Record> = records
                .iter()
                .filter(|r| {
                    r.config.system == system && r.config.device == device && r.config.mode == mode
                })
                .collect();
            let mut row = vec![system.to_string(), device.to_string(), mode.to_string()];
            row.push(speedup(geomean(
                &subset.iter().map(|r| r.speedup()).collect::<Vec<_>>(),
            )));
            for model in ModelKind::EVAL {
                let per: Vec<f64> = subset
                    .iter()
                    .filter(|r| r.config.model == model)
                    .map(|r| r.speedup())
                    .collect();
                row.push(speedup(geomean(&per)));
            }
            rows.push(row);
        }
    }
    for mode in Mode::ALL {
        let subset: Vec<&Record> = records.iter().filter(|r| r.config.mode == mode).collect();
        let mut row = vec!["Overall".into(), "-".into(), mode.to_string()];
        row.push(speedup(geomean(
            &subset.iter().map(|r| r.speedup()).collect::<Vec<_>>(),
        )));
        for model in ModelKind::EVAL {
            let per: Vec<f64> = subset
                .iter()
                .filter(|r| r.config.model == model)
                .map(|r| r.speedup())
                .collect();
            row.push(speedup(geomean(&per)));
        }
        rows.push(row);
    }
    print!("{}", table(&rows));
    println!("paper: overall 1.56x inference / 1.40x training");
}

/// Fig 8: per-graph speedups, panel by panel.
fn fig8(ctx: &mut ReproContext) {
    let records = ctx.records().to_vec();
    println!("\n== Fig 8: per-graph inference speedups ==");
    for (system, device) in grid::system_devices() {
        for model in ModelKind::EVAL {
            println!("-- {system} / {device} / {model} --");
            let mut rows = vec![{
                let mut h = vec!["(k1,k2)".to_string()];
                h.extend(Dataset::ALL.iter().map(ToString::to_string));
                h
            }];
            for (k1, k2) in grid::embed_combos(model) {
                let mut row = vec![format!("({k1},{k2})")];
                for dataset in Dataset::ALL {
                    let rec = records.iter().find(|r| {
                        r.config
                            == EvalConfig {
                                system,
                                device,
                                model,
                                dataset,
                                k1,
                                k2,
                                mode: Mode::Inference,
                            }
                    });
                    row.push(rec.map_or("-".into(), |r| speedup(r.speedup())));
                }
                rows.push(row);
            }
            print!("{}", table(&rows));
        }
    }
}

/// Table IV: end-to-end 2-layer forward latencies on the H100.
fn table4(ctx: &mut ReproContext) {
    println!("\n== Table IV: end-to-end forward latency (H100, 2 layers) ==");
    let device = DeviceKind::H100;
    ctx.granii(device);
    let mut rows = vec![vec![
        "graph".into(),
        "model".into(),
        "hidden".into(),
        "Wise default".into(),
        "Wise GRANII".into(),
        "DGL default".into(),
        "DGL GRANII".into(),
    ]];
    for (dataset, feats, classes) in [
        (Dataset::Reddit, 602usize, 41usize),
        (Dataset::OgbnProducts, 100, 47),
    ] {
        ctx.graph(dataset);
        for model in [ModelKind::Gcn, ModelKind::Gat] {
            for hidden in [32usize, 256, 1024] {
                let graph = &ctx.graphs[&dataset];
                let granii = &ctx.granii[&device];
                let mut cells = vec![dataset.to_string(), model.to_string(), hidden.to_string()];
                for system in [System::WiseGraph, System::Dgl] {
                    let (base, opt) =
                        end_to_end(system, model, graph, feats, hidden, classes, granii);
                    cells.push(seconds(base));
                    cells.push(format!("{} ({})", seconds(opt), speedup(base / opt)));
                }
                rows.push(cells);
            }
        }
    }
    print!("{}", table(&rows));
}

/// One end-to-end 2-layer forward: baseline vs GRANII-selected compositions.
fn end_to_end(
    system: System,
    model: ModelKind,
    graph: &Graph,
    feats: usize,
    hidden: usize,
    classes: usize,
    granii: &Granii,
) -> (f64, f64) {
    let ctx = GraphCtx::new(graph).expect("ctx");
    let engine = Engine::modeled(granii.device());
    let exec = Exec::virtual_only(&engine);
    let dims = [(feats, hidden), (hidden, classes)];

    let mut baseline = 0.0;
    for (k1, k2) in dims {
        let runner = BaselineRunner::new(system, model, LayerConfig::new(k1, k2), 7, &exec, &ctx)
            .expect("baseline");
        engine.take_profile();
        let h = DenseMatrix::zeros(ctx.num_nodes(), k1).expect("alloc");
        runner.iterate(&exec, &ctx, &h).expect("forward");
        baseline += engine.take_profile().total_seconds();
    }

    // GRANII: decisions amortized over the usual run length; the one-time
    // selection overhead and preparation are not part of the per-forward
    // latency (they are reported by the `overheads` experiment), matching the
    // paper's per-forward Table IV numbers.
    let mut optimized = 0.0;
    for (k1, k2) in dims {
        let cfg = LayerConfig::new(k1, k2);
        let sel = granii
            .select_with_config(model, graph, cfg, granii_bench::runner::ITERATIONS)
            .expect("select");
        let layer = GnnLayer::new(model, cfg, 7).expect("layer");
        let prepared = layer
            .prepare(&exec, &ctx, sel.composition)
            .expect("prepare");
        engine.take_profile();
        let h = DenseMatrix::zeros(ctx.num_nodes(), k1).expect("alloc");
        layer
            .forward(&exec, &ctx, &prepared, &h, sel.composition)
            .expect("forward");
        optimized += engine.take_profile().total_seconds();
    }
    (baseline, optimized)
}

/// Fig 9: sampling sensitivity on mycielskian.
fn fig9(ctx: &mut ReproContext) {
    println!("\n== Fig 9: neighborhood sampling on MC (H100, DGL kernels) ==");
    let device = DeviceKind::H100;
    ctx.granii(device);
    ctx.graph(Dataset::Mycielskian17);
    let graph = ctx.graphs[&Dataset::Mycielskian17].clone();
    let granii = &ctx.granii[&device];

    for (model, k1, k2, comps) in [
        (
            ModelKind::Gcn,
            32usize,
            32usize,
            vec![
                Composition::Gcn(NormStrategy::Dynamic, OpOrder::AggregateFirst),
                Composition::Gcn(NormStrategy::Precompute, OpOrder::AggregateFirst),
            ],
        ),
        (
            ModelKind::Gat,
            1024,
            2048,
            vec![
                Composition::Gat(GatStrategy::Reuse),
                Composition::Gat(GatStrategy::Recompute),
            ],
        ),
    ] {
        println!("-- {model} ({k1},{k2}) --");
        let full_decision = granii
            .select_with_config(model, &graph, LayerConfig::new(k1, k2), ITERATIONS)
            .expect("select");
        println!("decision on the full graph: {}", full_decision.composition);
        let mut rows = vec![vec![
            "fanout".into(),
            format!("{} median", comps[0]),
            format!("{} median", comps[1]),
            "per-sample winner".into(),
        ]];
        for fanout in [1000usize, 100, 10] {
            let mut times: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
            let mut winners = [0usize; 2];
            for seed in 0..10u64 {
                let sampled = sampling::sample_neighbors(&graph, fanout, seed).expect("sample");
                let sctx = GraphCtx::new(&sampled).expect("ctx");
                let engine = Engine::modeled(device);
                let exec = Exec::virtual_only(&engine);
                let h = DenseMatrix::zeros(sctx.num_nodes(), k1).expect("alloc");
                let mut per = Vec::new();
                for comp in &comps {
                    let layer = GnnLayer::new(model, LayerConfig::new(k1, k2), 7).expect("layer");
                    engine.take_profile();
                    let prepared = layer.prepare(&exec, &sctx, *comp).expect("prepare");
                    let prep = engine.take_profile().total_seconds();
                    layer
                        .forward(&exec, &sctx, &prepared, &h, *comp)
                        .expect("forward");
                    let iter = engine.take_profile().total_seconds();
                    per.push(prep + ITERATIONS as f64 * iter);
                }
                winners[if per[0] <= per[1] { 0 } else { 1 }] += 1;
                times[0].push(per[0]);
                times[1].push(per[1]);
            }
            let median = |v: &mut Vec<f64>| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                v[v.len() / 2]
            };
            rows.push(vec![
                fanout.to_string(),
                seconds(median(&mut times[0])),
                seconds(median(&mut times[1])),
                format!("{}:{}", winners[0], winners[1]),
            ]);
        }
        print!("{}", table(&rows));
    }
}

/// Table V: multi-layer speedups vs WiseGraph (H100).
fn table5(ctx: &mut ReproContext) {
    println!("\n== Table V: multi-layer speedups vs WiseGraph (H100, GCN, 100 iterations) ==");
    let device = DeviceKind::H100;
    ctx.granii(device);
    let mut rows = vec![{
        let mut h = vec!["graph".to_string()];
        h.extend((1..=4).map(|l| format!("{l} layer(s)")));
        h
    }];
    for dataset in [Dataset::Reddit, Dataset::BelgiumOsm, Dataset::Mycielskian17] {
        ctx.graph(dataset);
        let graph = ctx.graphs[&dataset].clone();
        let granii = &ctx.granii[&device];
        let gctx = GraphCtx::new(&graph).expect("ctx");
        let mut row = vec![dataset.to_string()];
        for layers in 1..=4usize {
            let dims: Vec<(usize, usize)> = (0..layers).map(|_| (256usize, 256usize)).collect();
            let engine = Engine::modeled(device);
            let exec = Exec::virtual_only(&engine);
            // Baseline: WiseGraph default per layer, per iteration.
            let mut base = 0.0;
            for &(k1, k2) in &dims {
                let runner = BaselineRunner::new(
                    System::WiseGraph,
                    ModelKind::Gcn,
                    LayerConfig::new(k1, k2),
                    7,
                    &exec,
                    &gctx,
                )
                .expect("baseline");
                engine.take_profile();
                let h = DenseMatrix::zeros(gctx.num_nodes(), k1).expect("alloc");
                runner.iterate(&exec, &gctx, &h).expect("fwd");
                base += engine.take_profile().total_seconds();
            }
            // GRANII: per-layer selection (§VI-F).
            let mut opt = 0.0;
            let mut once = 0.0;
            for &(k1, k2) in &dims {
                let cfg = LayerConfig::new(k1, k2);
                let sel = granii
                    .select_with_config(ModelKind::Gcn, &graph, cfg, ITERATIONS)
                    .expect("select");
                once += sel.overhead_seconds();
                let layer = GnnLayer::new(ModelKind::Gcn, cfg, 7).expect("layer");
                engine.take_profile();
                let prepared = layer.prepare(&exec, &gctx, sel.composition).expect("prep");
                once += engine.take_profile().total_seconds();
                let h = DenseMatrix::zeros(gctx.num_nodes(), k1).expect("alloc");
                layer
                    .forward(&exec, &gctx, &prepared, &h, sel.composition)
                    .expect("fwd");
                opt += engine.take_profile().total_seconds();
            }
            let n = ITERATIONS as f64;
            row.push(speedup((base * n) / (opt * n + once)));
        }
        rows.push(row);
    }
    print!("{}", table(&rows));
}

/// Table VI: GRANII vs oracle heuristics.
fn table6(ctx: &mut ReproContext) {
    let records = ctx.records().to_vec();
    println!("\n== Table VI: speedup from GRANII vs other heuristics ==");
    let mut rows = vec![{
        let mut h = vec!["GNN".to_string()];
        h.extend(Policy::TABLE6.iter().map(|p| p.name().to_string()));
        h
    }];
    for model in ModelKind::EVAL {
        let subset: Vec<Record> = records
            .iter()
            .filter(|r| r.config.model == model)
            .cloned()
            .collect();
        let mut row = vec![model.to_string().to_uppercase()];
        for policy in Policy::TABLE6 {
            row.push(speedup(policies::geomean_speedup(policy, &subset)));
        }
        rows.push(row);
    }
    print!("{}", table(&rows));
}

/// Selection overhead report (§VI-C1 "Overheads").
fn overheads(ctx: &mut ReproContext) {
    let records = ctx.records().to_vec();
    println!("\n== Overheads: featurization + selection (once per runtime) ==");
    let mut rows = vec![vec![
        "device".into(),
        "max overhead".into(),
        "max vs one iteration".into(),
    ]];
    for device in DeviceKind::ALL {
        let subset: Vec<&Record> = records
            .iter()
            .filter(|r| r.config.device == device && r.used_cost_models)
            .collect();
        if subset.is_empty() {
            continue;
        }
        let max = subset
            .iter()
            .map(|r| r.overhead_seconds)
            .fold(0.0, f64::max);
        let rel = subset
            .iter()
            .map(|r| r.overhead_seconds / (r.granii_seconds / ITERATIONS as f64))
            .fold(0.0, f64::max);
        rows.push(vec![device.to_string(), seconds(max), format!("{rel:.1}x")]);
    }
    print!("{}", table(&rows));
    println!("paper: at most 7ms on GPU / 0.42s on CPU; 4.4x / 1.1x of one iteration");
}

/// Ablations of GRANII's design choices (see `DESIGN.md`): the offline
/// pruning's online-overhead benefit, and the sensitivity of decisions to the
/// amortized iteration count.
fn ablations(ctx: &mut ReproContext) {
    println!("\n== Ablation 1: offline pruning reduces the online search space ==");
    let device = DeviceKind::H100;
    ctx.granii(device);
    ctx.graph(Dataset::Reddit);
    let graph = ctx.graphs[&Dataset::Reddit].clone();
    let granii = &ctx.granii[&device];
    let mut rows = vec![vec![
        "model".into(),
        "enumerated".into(),
        "promoted".into(),
        "select (all trees)".into(),
        "select (promoted)".into(),
    ]];
    for model in ModelKind::EVAL {
        let cfg = LayerConfig::new(64, 64);
        let plan = CompiledModel::compile(model, cfg).expect("compile");
        // Selection over the pruned (promoted) set — the production path.
        let t0 = std::time::Instant::now();
        let _ = granii
            .select_with_config(model, &graph, cfg, ITERATIONS)
            .expect("select");
        let pruned_time = t0.elapsed().as_secs_f64();
        // Selection over the *whole* enumerated forest (pruning disabled):
        // featurize once, predict every tree.
        let ir = builder::build(model, cfg);
        let mut all = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for v in rewrite::variants(&ir) {
            for cand in granii_core::assoc::enumerate(&v).expect("enumerate") {
                if seen.insert(cand.expr.clone()) {
                    all.push(cand);
                }
            }
        }
        let t1 = std::time::Instant::now();
        let input = granii_core::cost::FeaturizedInput::extract(&graph, cfg.k_in, cfg.k_out);
        let mut best = f64::INFINITY;
        for cand in &all {
            let c = granii
                .cost_models()
                .predict_program(cand, &input, ITERATIONS)
                .expect("predict");
            best = best.min(c);
        }
        let full_time = t1.elapsed().as_secs_f64();
        rows.push(vec![
            model.to_string(),
            all.len().to_string(),
            plan.candidates.len().to_string(),
            seconds(full_time),
            seconds(pruned_time),
        ]);
    }
    print!("{}", table(&rows));

    println!("\n== Ablation 2: decisions vs the amortized iteration count (GCN, k=1024) ==");
    let mut rows = vec![vec![
        "graph".into(),
        "1 iter".into(),
        "10 iters".into(),
        "100 iters".into(),
        "1000 iters".into(),
    ]];
    for dataset in [Dataset::Mycielskian17, Dataset::BelgiumOsm] {
        ctx.graph(dataset);
        let graph = ctx.graphs[&dataset].clone();
        let granii = &ctx.granii[&device];
        let mut row = vec![dataset.to_string()];
        for iters in [1usize, 10, 100, 1000] {
            let sel = granii
                .select_with_config(ModelKind::Gcn, &graph, LayerConfig::new(1024, 1024), iters)
                .expect("select");
            row.push(sel.composition_name());
        }
        rows.push(row);
    }
    print!("{}", table(&rows));
}

/// Validates the CPU device model against real measured kernels: the
/// substitution argument of `DESIGN.md` §2 requires the model to *rank*
/// kernels and inputs like the real machine does, so the report shows
/// measured vs modeled latencies and their rank correlation.
fn calibrate() {
    use granii_matrix::device::{DeviceSpec, Engine};
    use granii_matrix::{ops, Semiring, WorkStats};

    println!("\n== Calibration: measured CPU kernels vs the CPU device model ==");
    let spec = DeviceSpec::cpu();
    let engine = Engine::cpu_measured();
    let mut rows = vec![vec![
        "kernel".to_string(),
        "graph".into(),
        "k".into(),
        "measured".into(),
        "modeled".into(),
    ]];
    let mut measured_all = Vec::new();
    let mut modeled_all = Vec::new();

    let graphs = [
        granii_graph::generators::power_law(4_000, 12, 1).expect("gen"),
        granii_graph::generators::grid_2d(70, 70).expect("gen"),
        granii_graph::generators::mycielskian(10).expect("gen"),
    ];
    for graph in &graphs {
        let adj = graph.adj();
        let irr = graph.row_stats().cv;
        for k in [32usize, 128, 512] {
            let x = DenseMatrix::random(adj.cols(), k, 1.0, 2);
            let w = DenseMatrix::random(k, k, 1.0, 3);
            let d: Vec<f32> = (0..adj.rows()).map(|i| 1.0 + (i % 5) as f32).collect();

            let mut push = |kernel: &str, stats: WorkStats, run: &mut dyn FnMut()| {
                // Warm up once, then time the median of 3 runs.
                run();
                let mut times = Vec::new();
                for _ in 0..3 {
                    let t = std::time::Instant::now();
                    run();
                    times.push(t.elapsed().as_secs_f64());
                }
                times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let measured = times[1];
                let modeled = spec.estimate_seconds(&stats);
                measured_all.push(measured);
                modeled_all.push(modeled);
                rows.push(vec![
                    kernel.to_string(),
                    graph.name().to_string(),
                    k.to_string(),
                    seconds(measured),
                    seconds(modeled),
                ]);
            };

            push(
                "spmm_unweighted",
                WorkStats::spmm(adj.rows(), adj.nnz(), k, false, irr),
                &mut || {
                    ops::spmm(adj, &x, Semiring::plus_copy_rhs()).expect("spmm");
                },
            );
            push("gemm", WorkStats::gemm(adj.rows(), k, k), &mut || {
                ops::gemm(&x, &w).expect("gemm");
            });
            push(
                "row_broadcast",
                WorkStats::row_broadcast(adj.rows(), k),
                &mut || {
                    ops::row_broadcast(&d, &x, granii_matrix::ops::BroadcastOp::Mul)
                        .expect("broadcast");
                },
            );
        }
    }
    let _ = engine; // the Engine API is exercised elsewhere; timing is direct here
    print!("{}", table(&rows));
    let spearman = granii_boost::metrics::spearman(&measured_all, &modeled_all);
    println!(
        "rank correlation (spearman) over {} kernel invocations: {spearman:.3}",
        measured_all.len()
    );
    println!("the device model must rank kernels/inputs like the machine; 1.0 is perfect");
}
