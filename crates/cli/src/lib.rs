//! Library backing the `granii` command-line tool.
//!
//! The CLI wraps the two-stage workflow of the paper's Fig 4/5 for shell use:
//!
//! - `granii train` — the offline stage: profile primitives for a device and
//!   persist the trained cost models as JSON,
//! - `granii select` — the online stage: load cost models, featurize a graph,
//!   and print the selected composition with predicted costs,
//! - `granii compile` — show a model's offline compilation (counts, promoted
//!   trees, complexities),
//! - `granii generate` — write synthetic graphs / dataset stand-ins as edge
//!   lists,
//! - `granii inspect` — print a graph's featurizer view,
//! - `granii bench` — execute a model's compositions with real CPU kernels
//!   and report measured per-iteration times alongside GRANII's choice,
//! - `granii serve-demo` — stand up the concurrent serving runtime
//!   (`granii-serve`), replay a request signature through it, and report
//!   cache-cold vs. cache-hot latency plus the server's counters; can dump a
//!   live status snapshot (`--status-out`), per-request trace lanes
//!   (`--trace-out` + `--trace-every`), and a structured event log
//!   (`--events-out`); `--incident-dir` arms automatic incident capture
//!   with demo-tight SLO and shed thresholds and floods the queue so at
//!   least one bundle lands in the directory,
//! - `granii serve-status` — render a dumped status snapshot as a
//!   human-readable table,
//! - `granii top` — the operator's per-tenant resource view: render the
//!   metering ledger (requests, charged engine time, flops/bytes, queue
//!   wait, batch share, hit rate, sheds, SLO violations) from a
//!   `--status-out` snapshot, optionally re-polling the file,
//! - `granii incident-show` — render an incident bundle (written by the
//!   serving runtime's flight recorder on SLO burn / drift / shed storms)
//!   as a human-readable timeline,
//! - `granii kernels` — print the kernel configuration (lane width, tile
//!   sizes, the GEMM instruction set dispatched on this host, scheduling
//!   constants) so bench snapshots can be attributed to the build and host
//!   that produced them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use granii_core::cost::training::TrainingConfig;
use granii_core::cost::CostModelSet;
use granii_core::plan::CompiledModel;
use granii_core::Granii;
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::{generators, io, Graph, GraphFeatures};
use granii_matrix::device::DeviceKind;

/// Errors surfaced to the CLI user (message + exit code 1).
pub type CliError = String;

/// Parsed command-line arguments: positional command plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` flags, in order of appearance (later wins).
    pub flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error for flags without values or extra positionals.
    pub fn parse(raw: &[String]) -> Result<Self, CliError> {
        // Flags that take no value (presence means "true").
        const BOOLEAN_FLAGS: &[&str] = &["trace-summary", "audit"];
        let mut out = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&key) {
                    out.flags.insert(key.to_string(), "true".to_string());
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?
                    .clone();
                out.flags.insert(key.to_string(), value);
            } else if out.command.is_empty() {
                out.command = tok.clone();
            } else {
                return Err(format!("unexpected positional argument {tok}"));
            }
        }
        if out.command.is_empty() {
            return Err(usage());
        }
        Ok(out)
    }

    /// A flag's value, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required flag.
    ///
    /// # Errors
    ///
    /// Returns a usage error naming the missing flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// A flag parsed as `usize` with a default.
    ///
    /// # Errors
    ///
    /// Returns an error for unparsable values.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v}")),
        }
    }
}

/// The CLI usage string.
pub fn usage() -> String {
    "usage: granii <command> [flags]\n\
     commands:\n\
       train     --device cpu|a100|h100 --out FILE [--fast true] [--measured true]\n\
       select    --models FILE --model gcn|gin|sgc|tagcn|gat|sage --k1 N --k2 N\n\
                 (--graph FILE | --dataset RD|CA|MC|BL|AU|OP [--scale tiny|small])\n\
                 [--iters N] [--audit]\n\
                 --audit re-measures every eligible candidate on the device\n\
                 model and reports regret vs the oracle and ln-latency MAPE\n\
       compile   --model NAME [--k1 N --k2 N] [--hops N]\n\
       generate  --kind power-law|erdos-renyi|grid|mycielskian|community|ring|star\n\
                 --out FILE [--nodes N] [--param N] [--seed N]\n\
       inspect   (--graph FILE | --dataset CODE [--scale tiny|small])\n\
       bench     --models FILE --model NAME --k1 N --k2 N [--iters N]\n\
                 (--graph FILE | --dataset CODE [--scale tiny|small])\n\
       serve-demo --models FILE (--graph FILE | --dataset CODE [--scale ...])\n\
                 [--model NAME] [--k1 N] [--k2 N] [--requests N] [--workers N]\n\
                 [--max-batch N] [--status-out FILE] [--trace-every N]\n\
                 [--incident-dir DIR] [--scrape ADDR] [--scrape-hold-ms N]\n\
                 [--timeline-out FILE]\n\
                 --status-out writes a live ServerStatus snapshot as JSON;\n\
                 --trace-every samples every Nth request into its own trace\n\
                 lane (needs --trace-out; default 1, 0 disables);\n\
                 --incident-dir arms automatic incident capture with\n\
                 demo-tight SLO/shed thresholds, floods the queue into a\n\
                 shed storm, and writes the captured bundles to DIR;\n\
                 --scrape binds a Prometheus /metrics + /healthz + /readyz\n\
                 listener on ADDR (e.g. 127.0.0.1:9464; port 0 picks one);\n\
                 --scrape-hold-ms keeps the server (and listener) alive N ms\n\
                 after the workload so an external scraper can poll it;\n\
                 --timeline-out dumps the on-host time-series ring as JSON\n\
       serve-status --status FILE\n\
                 render a serve-demo --status-out snapshot as a table\n\
       top       --status FILE [--watch N] [--interval-ms MS]\n\
                 render the per-tenant metering table from a serve-demo\n\
                 --status-out snapshot; --watch re-reads the file N more\n\
                 times every MS milliseconds (default 1000)\n\
       kernels   print the kernel configuration (lane width, tile sizes,\n\
                 GEMM instruction set, scheduling constants, threads)\n\
       incident-show --incident FILE\n\
                 render an incident bundle (serve-demo --incident-dir) as\n\
                 a human-readable timeline\n\
     global observability flags (any command):\n\
       --trace-out FILE     write a Chrome trace-event JSON (Perfetto-loadable)\n\
       --metrics-out FILE   write counters, latency histograms, quantile\n\
                 sketches (p50-p999), and distinct-count estimates as JSON\n\
       --events-out FILE    write structured events (enqueue/shed/drift/...) as JSONL\n\
       --trace-summary      append a hierarchical span summary (plus sketch\n\
                 quantile and distinct-count tables, when recorded) to the output"
        .to_string()
}

/// Parses a device name.
///
/// # Errors
///
/// Returns a usage error for unknown names.
pub fn parse_device(name: &str) -> Result<DeviceKind, CliError> {
    match name {
        "cpu" => Ok(DeviceKind::Cpu),
        "a100" => Ok(DeviceKind::A100),
        "h100" => Ok(DeviceKind::H100),
        other => Err(format!("unknown device {other} (cpu|a100|h100)")),
    }
}

/// Parses a model name.
///
/// # Errors
///
/// Returns a usage error for unknown names.
pub fn parse_model(name: &str) -> Result<ModelKind, CliError> {
    match name {
        "gcn" => Ok(ModelKind::Gcn),
        "gin" => Ok(ModelKind::Gin),
        "sgc" => Ok(ModelKind::Sgc),
        "tagcn" => Ok(ModelKind::Tagcn),
        "gat" => Ok(ModelKind::Gat),
        "sage" => Ok(ModelKind::Sage),
        other => Err(format!("unknown model {other}")),
    }
}

/// Parses a Table II dataset code.
///
/// # Errors
///
/// Returns a usage error for unknown codes.
pub fn parse_dataset(code: &str) -> Result<Dataset, CliError> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.code().eq_ignore_ascii_case(code))
        .ok_or_else(|| format!("unknown dataset code {code} (RD|CA|MC|BL|AU|OP)"))
}

/// Loads the graph named by `--graph` or `--dataset`.
///
/// # Errors
///
/// Returns IO/parse errors and usage errors.
pub fn load_graph(args: &Args) -> Result<Graph, CliError> {
    match (args.get("graph"), args.get("dataset")) {
        (Some(path), None) => {
            let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            if path.ends_with(".mtx") {
                io::read_matrix_market(file).map_err(|e| format!("parse {path}: {e}"))
            } else {
                io::read_edge_list(file).map_err(|e| format!("parse {path}: {e}"))
            }
        }
        (None, Some(code)) => {
            let scale = match args.get("scale").unwrap_or("tiny") {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                other => return Err(format!("unknown scale {other}")),
            };
            parse_dataset(code)?.load(scale).map_err(|e| e.to_string())
        }
        _ => Err("provide exactly one of --graph FILE or --dataset CODE".to_string()),
    }
}

/// Runs a parsed command, returning the text to print. When any of the
/// observability flags (`--trace-out`, `--metrics-out`, `--trace-summary`) is
/// present, telemetry is enabled for the duration of the command and the
/// requested exports are produced afterwards. The metrics export is the
/// process registry's snapshot merged with the books of the server a
/// command ran (`serve-demo`).
///
/// # Errors
///
/// Returns a user-facing error message.
pub fn run(args: &Args) -> Result<String, CliError> {
    let tracing = args.get("trace-out").is_some()
        || args.get("metrics-out").is_some()
        || args.get("trace-summary").is_some()
        || args.get("events-out").is_some();
    if !tracing {
        return dispatch(args).map(|(out, _)| out);
    }
    granii_telemetry::reset();
    granii_telemetry::enable();
    let result = dispatch(args);
    granii_telemetry::disable();
    let spans = granii_telemetry::take_spans();
    let events = granii_telemetry::take_events();
    let mut snapshot = granii_telemetry::metrics_snapshot();
    granii_telemetry::reset();
    let (mut out, served) = result?;
    if let Some(served) = served {
        merge_metrics(&mut snapshot, served);
    }
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, granii_telemetry::export::chrome_trace(&spans))
            .map_err(|e| format!("write {path}: {e}"))?;
        writeln!(out, "trace: {} spans -> {path}", spans.len()).expect("fmt");
    }
    if let Some(path) = args.get("metrics-out") {
        std::fs::write(path, granii_telemetry::export::metrics_json(&snapshot))
            .map_err(|e| format!("write {path}: {e}"))?;
        writeln!(
            out,
            "metrics: {} counters, {} histograms, {} sketches -> {path}",
            snapshot.counters.len(),
            snapshot.histograms.len(),
            snapshot.sketches.len()
        )
        .expect("fmt");
    }
    if let Some(path) = args.get("events-out") {
        std::fs::write(path, granii_telemetry::export::events_jsonl(&events))
            .map_err(|e| format!("write {path}: {e}"))?;
        writeln!(out, "events: {} -> {path}", events.len()).expect("fmt");
    }
    if args.get("trace-summary").is_some() {
        out.push('\n');
        out.push_str(&granii_telemetry::export::summary(&spans));
        // Sketch-backed quantiles (and distinct-count estimates) ride along
        // when anything recorded them — e.g. the serve-demo latency lanes.
        let sketches = granii_telemetry::export::sketch_summary(&snapshot);
        if !sketches.is_empty() {
            out.push('\n');
            out.push_str(&sketches);
        }
    }
    Ok(out)
}

/// Appends a server's metrics to the process registry's snapshot. The
/// names never collide: a server's are `serve.*` and `tenant.*`, and it
/// writes nothing into the registry.
fn merge_metrics(
    into: &mut granii_telemetry::MetricsSnapshot,
    from: granii_telemetry::MetricsSnapshot,
) {
    into.counters.extend(from.counters);
    into.gauges.extend(from.gauges);
    into.histograms.extend(from.histograms);
    into.sketches.extend(from.sketches);
    into.distincts.extend(from.distincts);
}

/// Runs the command: its output text, plus the metrics of the server it
/// ran, if any.
fn dispatch(args: &Args) -> Result<(String, Option<granii_telemetry::MetricsSnapshot>), CliError> {
    let out = match args.command.as_str() {
        "train" => cmd_train(args),
        "select" => cmd_select(args),
        "compile" => cmd_compile(args),
        "generate" => cmd_generate(args),
        "inspect" => cmd_inspect(args),
        "bench" => cmd_bench(args),
        "serve-demo" => return cmd_serve_demo(args).map(|(out, served)| (out, Some(served))),
        "serve-status" => cmd_serve_status(args),
        "top" => cmd_top(args),
        "kernels" => Ok(cmd_kernels()),
        "incident-show" => cmd_incident_show(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    out.map(|out| (out, None))
}

fn cmd_train(args: &Args) -> Result<String, CliError> {
    let device = parse_device(args.require("device")?)?;
    let out_path = args.require("out")?;
    let fast = args.get("fast") == Some("true");
    let measured = args.get("measured") == Some("true");
    let cfg = if fast {
        TrainingConfig::fast()
    } else {
        TrainingConfig::default()
    };
    let models = if measured {
        if device != DeviceKind::Cpu {
            return Err("--measured true profiles real kernels and requires --device cpu".into());
        }
        granii_core::cost::training::train_measured_cpu(&cfg, 2_000_000, 512)
            .map_err(|e| e.to_string())?
    } else {
        granii_core::cost::training::train(device, &cfg).map_err(|e| e.to_string())?
    };
    let json = models.to_json().map_err(|e| e.to_string())?;
    std::fs::write(out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    let mut report = format!("trained cost models for {device} -> {out_path}\n");
    for (kind, (rmse, spearman)) in &models.validation {
        writeln!(
            report,
            "  {kind}: rmse(log) {rmse:.3}, spearman {spearman:.3}"
        )
        .expect("fmt");
    }
    Ok(report)
}

fn cmd_select(args: &Args) -> Result<String, CliError> {
    let path = args.require("models")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let models = CostModelSet::from_json(&json).map_err(|e| e.to_string())?;
    let granii = Granii::with_cost_models(models);
    let model = parse_model(args.require("model")?)?;
    let k1 = args
        .require("k1")?
        .parse::<usize>()
        .map_err(|e| format!("--k1: {e}"))?;
    let k2 = args
        .require("k2")?
        .parse::<usize>()
        .map_err(|e| format!("--k2: {e}"))?;
    let iters = args.usize_or("iters", 100)?;
    let graph = load_graph(args)?;
    let sel = granii
        .select_with_config(model, &graph, LayerConfig::new(k1, k2), iters)
        .map_err(|e| e.to_string())?;
    let mut out = format!(
        "graph: {} ({} nodes, {} edges)\nselected: {}\ncost models used: {}\noverhead: {:.3} ms\n",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges(),
        sel.composition_name(),
        sel.used_cost_models,
        sel.overhead_seconds() * 1e3
    );
    for (comp, cost) in &sel.predicted {
        writeln!(out, "  predicted {:>10.3} ms  {comp}", cost * 1e3).expect("fmt");
    }
    if args.get("audit") == Some("true") {
        let report = granii
            .verify(model, &graph, LayerConfig::new(k1, k2), iters)
            .map_err(|e| e.to_string())?;
        let mape = report
            .ln_mape
            .map_or_else(|| "n/a".to_string(), |m| format!("{m:.3}"));
        writeln!(
            out,
            "audit: oracle {} | regret {:.3} ms ({:+.1}%) | ln-latency MAPE {mape}",
            report.oracle,
            report.regret_seconds() * 1e3,
            report.relative_regret() * 100.0,
        )
        .expect("fmt");
        writeln!(
            out,
            "  {:>12} {:>12}  candidate (measured-cheapest first)",
            "measured", "predicted"
        )
        .expect("fmt");
        for c in &report.candidates {
            let pred = c
                .predicted_seconds
                .map_or_else(|| "-".to_string(), |p| format!("{:.3} ms", p * 1e3));
            let mut marker = String::new();
            if c.composition == report.chosen {
                marker.push_str("  <- chosen");
            }
            if c.composition == report.oracle {
                marker.push_str("  <- oracle");
            }
            writeln!(
                out,
                "  {:>9.3} ms {pred:>12}  {}{marker}",
                c.measured_seconds * 1e3,
                c.composition
            )
            .expect("fmt");
        }
    }
    Ok(out)
}

fn cmd_compile(args: &Args) -> Result<String, CliError> {
    let model = parse_model(args.require("model")?)?;
    let k1 = args.usize_or("k1", 32)?;
    let k2 = args.usize_or("k2", 256)?;
    let hops = args.usize_or("hops", 2)?;
    let plan = CompiledModel::compile(
        model,
        LayerConfig {
            k_in: k1,
            k_out: k2,
            hops,
        },
    )
    .map_err(|e| e.to_string())?;
    let mut out = format!(
        "{model}: {} enumerated, {} pruned, {} promoted\n",
        plan.enumerated,
        plan.pruned,
        plan.candidates.len()
    );
    for c in &plan.candidates {
        let scen = match (c.shrink, c.grow) {
            (true, true) => "<>",
            (true, false) => ">",
            (false, true) => "<",
            _ => "-",
        };
        writeln!(out, "  [{scen}] {} => {}", c.program.expr, c.composition).expect("fmt");
    }
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let kind = args.require("kind")?;
    let out_path = args.require("out")?;
    let nodes = args.usize_or("nodes", 1_000)?;
    let param = args.usize_or("param", 8)?;
    let seed = args.usize_or("seed", 0)? as u64;
    let graph = match kind {
        "power-law" => generators::power_law(nodes, param, seed),
        "erdos-renyi" => generators::erdos_renyi(nodes, param as f64, seed),
        "grid" => generators::grid_2d(nodes, param),
        "mycielskian" => generators::mycielskian(param as u32),
        "community" => generators::community((nodes / 50).max(1), 50, 0.2, param, seed),
        "ring" => generators::ring(nodes),
        "star" => generators::star(nodes),
        other => return Err(format!("unknown generator {other}")),
    }
    .map_err(|e| e.to_string())?;
    let file = std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    io::write_edge_list(&graph, file).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} ({} nodes, {} edges) -> {out_path}",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges()
    ))
}

/// Measured execution: runs every composition of a model on the host CPU and
/// reports per-iteration times next to GRANII's selection.
fn cmd_bench(args: &Args) -> Result<String, CliError> {
    use granii_gnn::models::GnnLayer;
    use granii_gnn::spec::Composition;
    use granii_gnn::{Exec, GraphCtx};
    use granii_matrix::device::Engine;
    use granii_matrix::DenseMatrix;

    let path = args.require("models")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let models = CostModelSet::from_json(&json).map_err(|e| e.to_string())?;
    let granii = Granii::with_cost_models(models);
    let model = parse_model(args.require("model")?)?;
    let k1 = args
        .require("k1")?
        .parse::<usize>()
        .map_err(|e| format!("--k1: {e}"))?;
    let k2 = args
        .require("k2")?
        .parse::<usize>()
        .map_err(|e| format!("--k2: {e}"))?;
    let iters = args.usize_or("iters", 10)?;
    let graph = load_graph(args)?;
    let cfg = LayerConfig::new(k1, k2);

    let ctx = GraphCtx::new(&graph).map_err(|e| e.to_string())?;
    let engine = Engine::cpu_measured();
    let exec = Exec::real(&engine);
    let layer = GnnLayer::new(model, cfg, 7).map_err(|e| e.to_string())?;
    let h = DenseMatrix::random(ctx.num_nodes(), k1, 1.0, 1);
    let selection = granii
        .select_with_config(model, &graph, cfg, iters)
        .map_err(|e| e.to_string())?;

    let mut out = format!(
        "measured CPU execution on {} ({} nodes, {} edges), {iters} iterations each
",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges()
    );
    for comp in Composition::all_for(model) {
        let prepared = layer
            .prepare(&exec, &ctx, comp)
            .map_err(|e| e.to_string())?;
        engine.take_profile();
        for _ in 0..iters {
            layer
                .forward(&exec, &ctx, &prepared, &h, comp)
                .map_err(|e| e.to_string())?;
        }
        let per_iter = engine.take_profile().total_seconds() / iters as f64;
        let marker = if comp == selection.composition {
            "  <- GRANII's choice"
        } else {
            ""
        };
        writeln!(out, "  {:>10.3} ms/iter  {comp}{marker}", per_iter * 1e3).expect("fmt");
    }

    // One measured training step under the selected composition, so the bench
    // report (and its trace) covers the training path as well.
    let mut trainer =
        granii_gnn::train::Trainer::new(model, cfg, 7, 0.01).map_err(|e| e.to_string())?;
    let target = DenseMatrix::random(ctx.num_nodes(), k2, 1.0, 2);
    engine.take_profile();
    let loss = trainer
        .step(&exec, &ctx, &h, &target, selection.composition)
        .map_err(|e| e.to_string())?;
    let step_seconds = engine.take_profile().total_seconds();
    writeln!(
        out,
        "  {:>10.3} ms/step  training step (loss {loss:.4}, {})",
        step_seconds * 1e3,
        selection.composition
    )
    .expect("fmt");
    Ok(out)
}

/// Serving demo: replays one request signature through a multi-worker
/// [`granii_serve::Server`] and reports cache-cold vs. cache-hot latency.
/// Also returns the server's metrics snapshot for `--metrics-out`.
fn cmd_serve_demo(args: &Args) -> Result<(String, granii_telemetry::MetricsSnapshot), CliError> {
    use granii_serve::{
        IncidentConfig, LatencyObjective, Outcome, ScrapeConfig, ServeConfig, ServeRequest, Server,
    };

    let path = args.require("models")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let models = CostModelSet::from_json(&json).map_err(|e| e.to_string())?;
    let granii = std::sync::Arc::new(Granii::with_cost_models(models));
    let model = parse_model(args.get("model").unwrap_or("gcn"))?;
    let k1 = args.usize_or("k1", 32)?;
    let k2 = args.usize_or("k2", 32)?;
    let requests = args.usize_or("requests", 16)?.max(2);
    let workers = args.usize_or("workers", 2)?.max(1);
    let max_batch = args.usize_or("max-batch", 8)?.max(1);
    // Per-request trace-lane sampling; only takes effect when telemetry is
    // on (i.e. --trace-out or a sibling flag was given).
    let trace_every = args.usize_or("trace-every", 1)? as u64;
    let incident_dir = args.get("incident-dir").map(std::path::PathBuf::from);
    let scrape_hold_ms = args.usize_or("scrape-hold-ms", 0)?;
    let graph = std::sync::Arc::new(load_graph(args)?);

    let mut config = ServeConfig {
        workers,
        max_batch,
        trace_sample_every: trace_every,
        ..ServeConfig::default()
    };
    if let Some(addr) = args.get("scrape") {
        config.scrape = ScrapeConfig {
            enabled: true,
            addr: addr.to_string(),
        };
    }
    if let Some(dir) = &incident_dir {
        // Demo-tight thresholds: sub-microsecond SLOs make every request a
        // violation (the first closed window burns), and a low shed-storm
        // threshold plus zero capture cooldown lets the flood below
        // deterministically trip at least one incident into DIR.
        config.slo.objectives = vec![
            LatencyObjective::new(Outcome::Hit, 0.0001, 0.99),
            LatencyObjective::new(Outcome::Miss, 0.0001, 0.99),
            LatencyObjective::new(Outcome::Degraded, 0.0001, 0.95),
        ];
        config.slo.window = 16;
        config.incident = IncidentConfig {
            dir: Some(dir.clone()),
            cooldown: std::time::Duration::ZERO,
            max_per_window: 64,
            shed_threshold: 16,
            ..IncidentConfig::default()
        };
    }
    let queue_depth = config.queue_depth;
    let scrape_armed = args.get("scrape").is_some();
    let server = Server::start(granii, config);
    let scrape_line = match (scrape_armed, server.scrape_addr()) {
        (true, Some(addr)) => Some(format!(
            "  scrape: http://{addr}/metrics (/healthz, /readyz)"
        )),
        (true, None) => return Err("--scrape: failed to bind the listener".to_string()),
        _ => None,
    };
    let mut out = format!(
        "serving {model} {k1}x{k2} on {} ({} nodes, {} edges): {requests} requests, {workers} workers\n",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges()
    );
    let mut hot = Vec::with_capacity(requests - 1);
    for i in 0..requests {
        let response = server
            .process(ServeRequest::new(model, graph.clone(), k1, k2))
            .map_err(|e| e.to_string())?;
        if i == 0 {
            let degraded = if response.degraded { " (degraded)" } else { "" };
            writeln!(
                out,
                "  cache-cold request: {:.3} ms -> {}{degraded}",
                response.timing.total_seconds * 1e3,
                response.composition
            )
            .expect("fmt");
        } else {
            hot.push(response.timing.total_seconds);
        }
    }
    // A burst of concurrent submits: with the workers busy, the queue backs
    // up and the dispatcher coalesces same-signature requests into
    // multi-RHS batch groups (the sequential loop above never batches —
    // each request completes before the next is submitted).
    let tickets: Vec<_> = (0..requests)
        .map(|_| server.submit(ServeRequest::new(model, graph.clone(), k1, k2)))
        .collect();
    let mut burst_completed = 0u64;
    let mut burst_batched = 0u64;
    for ticket in tickets {
        let response = ticket
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?;
        burst_completed += 1;
        if response.batch_size >= 2 {
            burst_batched += 1;
        }
    }
    // Incident mode: flood the queue far past its depth in a tight loop.
    // Admission (and single-tenant fairness) sheds the overflow, the shed
    // storm trips the capturer, and the burning SLO windows from the
    // requests above contribute their own bundles.
    let mut flood_line = None;
    if incident_dir.is_some() {
        let mut flood_tickets = Vec::new();
        let mut flood_shed = 0u64;
        let flood_total = 8 * queue_depth;
        for _ in 0..flood_total {
            match server.submit(ServeRequest::new(model, graph.clone(), k1, k2)) {
                Ok(ticket) => flood_tickets.push(ticket),
                Err(_) => flood_shed += 1,
            }
        }
        let mut flood_completed = 0u64;
        for ticket in flood_tickets {
            if ticket.wait().is_ok() {
                flood_completed += 1;
            }
        }
        flood_line = Some(format!(
            "  flood: {flood_total} submits -> {flood_shed} shed, {flood_completed} completed"
        ));
    }
    // CI / external scrapers: hold the server (and its /metrics listener)
    // alive past the workload so they can poll a live endpoint.
    if scrape_hold_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(scrape_hold_ms as u64));
    }
    let bundles = server.incidents();
    let status = server.status();
    let served = server.metrics_snapshot();
    let timeline_line = match args.get("timeline-out") {
        Some(path) => {
            let snapshot = server.timeline_snapshot();
            std::fs::write(path, granii_telemetry::timeseries_json(&snapshot))
                .map_err(|e| format!("write {path}: {e}"))?;
            Some(format!(
                "  timeline: {} frames x {} columns -> {path}",
                snapshot.frames(),
                snapshot.columns.len()
            ))
        }
        None => None,
    };
    server.shutdown();
    if let Some(line) = &scrape_line {
        out.push_str(line);
        out.push('\n');
    }
    writeln!(
        out,
        "  burst: {burst_completed} requests, {burst_batched} served in batch groups \
         (max batch {max_batch}, {} groups formed)",
        status.batching.groups
    )
    .expect("fmt");
    if let Some(line) = flood_line {
        out.push_str(&line);
        out.push('\n');
    }
    hot.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    writeln!(
        out,
        "  cache-hot p50: {:.3} ms (over {} requests)",
        hot[hot.len() / 2] * 1e3,
        hot.len()
    )
    .expect("fmt");
    writeln!(
        out,
        "  stats: completed {} | cache hits {} misses {} (hit rate {:.1}%) | degraded {} | shed {}",
        status.completed,
        status.cache.hits,
        status.cache.misses,
        status.cache.hit_rate * 100.0,
        status.degraded,
        status.shed
    )
    .expect("fmt");
    if let Some(dir) = &incident_dir {
        writeln!(
            out,
            "  incidents: {} captured -> {}",
            bundles.len(),
            dir.display()
        )
        .expect("fmt");
        for bundle in &bundles {
            writeln!(
                out,
                "    incident #{} {}: {}",
                bundle.seq, bundle.trigger.kind, bundle.trigger.detail
            )
            .expect("fmt");
        }
        if bundles.is_empty() {
            return Err("incident mode armed but no incident was captured".to_string());
        }
    }
    if let Some(path) = args.get("status-out") {
        std::fs::write(path, status.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        writeln!(out, "  status -> {path}").expect("fmt");
    }
    if let Some(line) = timeline_line {
        out.push_str(&line);
        out.push('\n');
    }
    Ok((out, served))
}

/// Renders the per-tenant metering ledger from a status snapshot — the
/// `top` command. With `--watch N` the file is re-read N more times (every
/// `--interval-ms`, default 1000), so an operator can point it at a file a
/// live server keeps rewriting.
fn cmd_top(args: &Args) -> Result<String, CliError> {
    let path = args.require("status")?;
    let watch = args.usize_or("watch", 0)?;
    let interval_ms = args.usize_or("interval-ms", 1000)?;
    let mut out = String::new();
    for round in 0..=watch {
        if round > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms as u64));
            out.push('\n');
        }
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let status = granii_serve::ServerStatus::from_json(&json)
            .map_err(|e| format!("parse {path}: {e}"))?;
        writeln!(
            out,
            "granii top — uptime {:.1}s | {} metered requests",
            status.uptime_seconds, status.metering.total_requests
        )
        .expect("fmt");
        write!(out, "{}", status.metering).expect("fmt");
    }
    Ok(out)
}

/// Renders an incident bundle (written by `serve-demo --incident-dir`, or
/// by any server with `IncidentConfig::dir` set) as the human-readable
/// timeline — the `incident-show` command.
fn cmd_incident_show(args: &Args) -> Result<String, CliError> {
    let path = args.require("incident")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let bundle =
        granii_serve::IncidentBundle::from_json(&json).map_err(|e| format!("parse {path}: {e}"))?;
    Ok(bundle.to_string())
}

/// Renders a status snapshot (written by `serve-demo --status-out`) as the
/// human-readable table — the `serve-status` command.
fn cmd_serve_status(args: &Args) -> Result<String, CliError> {
    let path = args.require("status")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let status =
        granii_serve::ServerStatus::from_json(&json).map_err(|e| format!("parse {path}: {e}"))?;
    Ok(status.to_string())
}

/// Prints the compiled-in kernel configuration — the `kernels` command.
///
/// One glance answers "which vector width, GEMM instruction set and
/// tile/scheduling constants does this binary run on this host?", which
/// matters when comparing bench snapshots recorded on different builds or
/// hosts (see DESIGN.md §14).
fn cmd_kernels() -> String {
    granii_matrix::ops::kernel_config().to_string()
}

fn cmd_inspect(args: &Args) -> Result<String, CliError> {
    let graph = load_graph(args)?;
    let f = GraphFeatures::extract(&graph);
    let mut out = format!("graph {}\n", graph.name());
    for (name, value) in GraphFeatures::NAMES.iter().zip(f.to_vec()) {
        writeln!(out, "  {name:<20} {value:.4}").expect("fmt");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_accepts_command_and_flags() {
        let a = args(&["select", "--k1", "32", "--k2", "64"]);
        assert_eq!(a.command, "select");
        assert_eq!(a.get("k1"), Some("32"));
        assert_eq!(a.usize_or("k2", 0).unwrap(), 64);
        assert_eq!(a.usize_or("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parse_rejects_dangling_flag_and_extra_positional() {
        assert!(Args::parse(&["x".into(), "--k1".into()]).is_err());
        assert!(Args::parse(&["x".into(), "y".into()]).is_err());
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn name_parsers() {
        assert_eq!(parse_device("a100").unwrap(), DeviceKind::A100);
        assert!(parse_device("tpu").is_err());
        assert_eq!(parse_model("gat").unwrap(), ModelKind::Gat);
        assert!(parse_model("transformer").is_err());
        assert_eq!(parse_dataset("rd").unwrap(), Dataset::Reddit);
        assert!(parse_dataset("XX").is_err());
    }

    #[test]
    fn kernels_command_reports_build_configuration() {
        let out = run(&args(&["kernels"])).unwrap();
        // The report must state the vector width of the kernels linked in
        // and the constants a bench snapshot depends on.
        assert!(out.contains("kernels: f32x8"), "{out}");
        assert!(out.contains("threads"), "{out}");
        // The GEMM line names the instance this host dispatches to.
        #[cfg(target_arch = "x86_64")]
        let want = if std::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "baseline"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let want = "baseline";
        let gemm = out
            .lines()
            .find(|l| l.trim_start().starts_with("gemm"))
            .unwrap_or_else(|| panic!("no gemm line: {out}"));
        assert!(gemm.ends_with(&format!(", {want}")), "{gemm}");
        assert!(usage().contains("kernels"));
    }

    #[test]
    fn compile_command_reports_counts() {
        let out = run(&args(&["compile", "--model", "gcn"])).unwrap();
        assert!(out.contains("12 enumerated, 8 pruned, 4 promoted"), "{out}");
    }

    #[test]
    fn generate_and_inspect_round_trip() {
        let dir = std::env::temp_dir().join("granii-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let path_s = path.to_str().unwrap();
        let out = run(&args(&[
            "generate", "--kind", "ring", "--nodes", "12", "--out", path_s,
        ]))
        .unwrap();
        assert!(out.contains("12 nodes"), "{out}");
        let out = run(&args(&["inspect", "--graph", path_s])).unwrap();
        assert!(out.contains("avg_degree"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn select_requires_model_file() {
        let err = run(&args(&[
            "select",
            "--models",
            "/nonexistent.json",
            "--model",
            "gcn",
            "--k1",
            "8",
            "--k2",
            "8",
            "--dataset",
            "RD",
        ]))
        .unwrap_err();
        assert!(err.contains("read /nonexistent.json"), "{err}");
    }

    #[test]
    fn bench_requires_models_file() {
        let err = run(&args(&[
            "bench",
            "--models",
            "/missing.json",
            "--model",
            "gcn",
            "--k1",
            "8",
            "--k2",
            "8",
            "--dataset",
            "BL",
        ]))
        .unwrap_err();
        assert!(err.contains("read /missing.json"), "{err}");
    }

    #[test]
    fn serve_demo_requires_models_file() {
        let err = run(&args(&[
            "serve-demo",
            "--models",
            "/missing.json",
            "--dataset",
            "MC",
        ]))
        .unwrap_err();
        assert!(err.contains("read /missing.json"), "{err}");
    }

    #[test]
    fn serve_demo_round_trips_with_trained_models() {
        let dir = std::env::temp_dir().join("granii-cli-serve-demo");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.json");
        let path_s = path.to_str().unwrap();
        run(&args(&[
            "train", "--device", "h100", "--fast", "true", "--out", path_s,
        ]))
        .unwrap();
        let out = run(&args(&[
            "serve-demo",
            "--models",
            path_s,
            "--dataset",
            "MC",
            "--requests",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("cache-cold request"), "{out}");
        assert!(out.contains("cache-hot p50"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serve_demo_incident_mode_writes_bundles_and_incident_show_renders() {
        let dir = std::env::temp_dir().join("granii-cli-incident-demo");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let models = dir.join("models.json");
        let models_s = models.to_str().unwrap();
        run(&args(&[
            "train", "--device", "h100", "--fast", "true", "--out", models_s,
        ]))
        .unwrap();
        let incidents = dir.join("incidents");
        let incidents_s = incidents.to_str().unwrap();
        let out = run(&args(&[
            "serve-demo",
            "--models",
            models_s,
            "--dataset",
            "MC",
            "--requests",
            "32",
            "--incident-dir",
            incidents_s,
        ]))
        .unwrap();
        assert!(out.contains("flood:"), "{out}");
        assert!(out.contains("incidents:"), "{out}");
        assert!(!out.contains("incidents: 0 captured"), "{out}");
        let mut files: Vec<_> = std::fs::read_dir(&incidents)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert!(!files.is_empty(), "bundle files written");
        let rendered = run(&args(&[
            "incident-show",
            "--incident",
            files[0].to_str().unwrap(),
        ]))
        .unwrap();
        assert!(rendered.contains("incident #"), "{rendered}");
        assert!(rendered.contains("trigger"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_demo_scrape_timeline_and_top_round_trip() {
        let dir = std::env::temp_dir().join("granii-cli-top-demo");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let models = dir.join("models.json");
        let models_s = models.to_str().unwrap();
        run(&args(&[
            "train", "--device", "h100", "--fast", "true", "--out", models_s,
        ]))
        .unwrap();
        let status = dir.join("status.json");
        let timeline = dir.join("timeline.json");
        let out = run(&args(&[
            "serve-demo",
            "--models",
            models_s,
            "--dataset",
            "MC",
            "--requests",
            "4",
            "--scrape",
            "127.0.0.1:0",
            "--status-out",
            status.to_str().unwrap(),
            "--timeline-out",
            timeline.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("scrape: http://127.0.0.1:"), "{out}");
        assert!(out.contains("timeline:"), "{out}");
        let timeline_json = std::fs::read_to_string(&timeline).unwrap();
        assert!(timeline_json.contains("serve.completed"), "{timeline_json}");
        let rendered = run(&args(&["top", "--status", status.to_str().unwrap()])).unwrap();
        assert!(rendered.contains("granii top"), "{rendered}");
        assert!(rendered.contains("metered requests"), "{rendered}");
        assert!(rendered.contains("tenant"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_requires_readable_status() {
        let err = run(&args(&["top", "--status", "/missing.json"])).unwrap_err();
        assert!(err.contains("read /missing.json"), "{err}");
    }

    #[test]
    fn incident_show_requires_readable_bundle() {
        let err = run(&args(&["incident-show", "--incident", "/missing.json"])).unwrap_err();
        assert!(err.contains("read /missing.json"), "{err}");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
    }
}
