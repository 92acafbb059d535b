//! Closed-loop serving benchmark for `granii_serve::Server`.
//!
//! ```text
//! granii-perfbench --workload hot-large|burst-small|cold-churn --seed N
//!                  --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, sets up (trains H100 cost
//! models, starts a two-worker server, binds every plan serially), computes
//! a reference output per signature outside the server, then, after an
//! untimed warm pass at the workload's concurrency, serves a fixed request
//! sequence from one generator thread and checks every response bitwise. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the run's record: the counts its seed
//! must reproduce exactly, and the host's noise over the timed phase.
//!
//! `--trace 1` serves a third of the sequence untraced, the same third with
//! submit/wait spans and the counting allocator armed, then replays it
//! through each layer's public functions (see `replay`). Spans go to
//! `out/<workload>.trace.json` (Chrome trace format).

mod drive;
mod host;
mod replay;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::time::Duration;

use drive::{Live, Phase};
use spans::Spans;
use workload::{Kind, Workload, BLOCKS, MIN_KEPT_REQUESTS, QUIET_STEAL, WORKERS};

#[global_allocator]
static ALLOCATOR: host::Counting = host::Counting;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

const USAGE: &str =
    "usage: granii-perfbench --workload hot-large|burst-small|cold-churn --seed N --seconds S --trace 0|1";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The longest a served phase expected to take `seconds` may run before it
/// stops submitting, so a run always ends well inside three minutes.
fn give_up(seconds: f64) -> Duration {
    Duration::from_secs_f64(2.0 * seconds + 10.0)
}

/// Serves [`Workload::warm_pass_len`] requests from the start of the
/// sequence, untimed, so that the served phase after it starts steady.
fn warm_pass(
    w: &Workload,
    live: &Live,
    refs: &[granii_matrix::DenseMatrix],
    seconds: f64,
) -> Phase {
    let n = w.warm_pass_len().min(w.sequence.len());
    drive::serve_phase(
        &live.server,
        w,
        refs,
        &w.sequence[..n],
        1,
        None,
        give_up(seconds),
    )
}

fn median(values: &[f64]) -> f64 {
    drive::percentile(values, 0.5)
}

/// The counts a seed must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    requests: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    drift_flags: u64,
    incidents: u64,
    flops: u64,
    bytes: u64,
    selection_quality_pct: Option<f64>,
}

impl Record {
    fn of(phase: &Phase, selection_quality_pct: Option<f64>) -> Record {
        let c = &phase.counters;
        Record {
            requests: phase.attempted,
            misses: c.misses,
            evictions: c.evictions,
            invalidations: c.invalidations,
            drift_flags: c.drift_flags,
            incidents: c.incidents,
            flops: c.flops,
            bytes: c.bytes,
            selection_quality_pct,
        }
    }

    /// The record line: these counts, the sample counts behind the timings,
    /// and the host's noise over the timed phase, plus `extra` fields.
    fn line(&self, a: &Args, phase: &Phase, extra: &[(&str, String)]) -> String {
        let per_req = |total: u64| total as f64 / self.requests.max(1) as f64;
        let list = |f: &dyn Fn(&drive::Block) -> String| {
            phase.blocks.iter().map(f).collect::<Vec<_>>().join(", ")
        };
        let mut out = format!(
            "record {{\"workload\": \"{}\", \"seed\": {}, \"requests\": {}, \"misses\": {}, \
             \"evictions\": {}, \"invalidations\": {}, \"drift_flags\": {}, \"incidents\": {}, \
             \"flops\": {}, \"bytes\": {}, \"flops_per_req\": {}, \"bytes_per_req\": {}, \
             \"selection_quality_pct\": {}, \"latency_samples_per_block\": [{}], \
             \"steal_share\": {}, \"steal_share_per_block\": [{}], \"generator_cpu_s\": {}",
            a.workload.name(),
            a.seed,
            self.requests,
            self.misses,
            self.evictions,
            self.invalidations,
            self.drift_flags,
            self.incidents,
            self.flops,
            self.bytes,
            per_req(self.flops),
            per_req(self.bytes),
            self.selection_quality_pct
                .map_or("null".to_owned(), |q| q.to_string()),
            list(&|b| b.latencies_ms.len().to_string()),
            phase.steal_share,
            list(&|b| b.steal_share.to_string()),
            phase.generator_cpu_s,
        );
        for (name, value) in extra {
            let _ = write!(out, ", \"{name}\": {value}");
        }
        out.push('}');
        out
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run_untraced(a: &Args) -> Result<String, String> {
    let w = Workload::build(a.workload, a.seed, a.seconds)?;
    eprintln!(
        "[perfbench] {}: {} signatures, {} timed requests in {BLOCKS} blocks, {SETUP_REPEATS} set-ups",
        a.workload.name(),
        w.signatures.len(),
        w.sequence.len()
    );
    let live = drive::set_up(&w, &mut Spans::default())?;
    let mut setups = vec![live.setup_s()];
    let setup_peak_rss_mb = host::peak_rss_mb();
    let refs = drive::references(&w, &live)?;
    let warm = warm_pass(&w, &live, &refs, a.seconds as f64);
    let phase = drive::serve_phase(
        &live.server,
        &w,
        &refs,
        &w.sequence,
        BLOCKS,
        None,
        give_up(a.seconds as f64),
    );
    // Peak memory is read before the extra set-ups, whose freed-but-kept
    // heap would otherwise blur it.
    let peak_rss_mb = host::peak_rss_mb();
    let quality = drive::selection_quality_pct(&w, &live)?;
    live.server.shutdown();
    for _ in 1..SETUP_REPEATS {
        setups.push(drive::set_up(&w, &mut Spans::default())?.setup_s());
    }

    let record = Record::of(&phase, Some(quality));
    let kept = drive::quiet_blocks(&phase.blocks, QUIET_STEAL, MIN_KEPT_REQUESTS);
    let kept_list = kept.iter().map(usize::to_string).collect::<Vec<_>>();
    let extra = [
        ("kept_blocks", format!("[{}]", kept_list.join(", "))),
        ("setup_peak_rss_mb", setup_peak_rss_mb.to_string()),
    ];
    println!("{}", record.line(a, &phase, &extra));
    let blocks: Vec<&drive::Block> = kept.iter().map(|&i| &phase.blocks[i]).collect();
    let latencies: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.latencies_ms.iter().copied())
        .collect();
    let total = |f: fn(&drive::Block) -> f64| blocks.iter().map(|b| f(b)).sum::<f64>();
    let metrics = [
        ("latency_p50_ms", drive::percentile(&latencies, 0.50), "ms"),
        ("latency_p99_ms", drive::percentile(&latencies, 0.99), "ms"),
        (
            "throughput_rps",
            latencies.len() as f64 / total(|b| b.wall_s),
            "1/s",
        ),
        (
            "cpu_ms_per_req",
            total(|b| b.cpu_s) * 1e3 / total(|b| b.finished as f64),
            "ms",
        ),
        ("success_ratio", phase.success_ratio(), "ratio"),
        ("selection_quality_pct", quality, "%"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    Ok(result_line(
        warm.attempted + phase.attempted,
        warm.failed + phase.failed,
        &metrics,
    ))
}

#[allow(clippy::too_many_lines)]
fn run_traced(a: &Args) -> Result<String, String> {
    let w = Workload::build(a.workload, a.seed, a.seconds)?;
    let n = (w.sequence.len() / 3 / w.period).max(1) * w.period;
    let sequence = &w.sequence[..n.min(w.sequence.len())];
    eprintln!(
        "[perfbench] {} traced: {} requests untraced, traced, then replayed",
        a.workload.name(),
        sequence.len()
    );
    let mut spans = Spans::default();
    let live = drive::set_up(&w, &mut spans)?;
    let refs = drive::references(&w, &live)?;
    let phase_s = a.seconds as f64 / 3.0;
    let warm = warm_pass(&w, &live, &refs, phase_s);
    let plain = drive::serve_phase(&live.server, &w, &refs, sequence, 1, None, give_up(phase_s));
    let served_from = spans.len();
    host::Counting::arm();
    let traced = drive::serve_phase(
        &live.server,
        &w,
        &refs,
        sequence,
        1,
        Some(&mut spans),
        give_up(phase_s),
    );
    let (allocs, alloc_bytes) = host::Counting::disarm();
    let served_to = spans.len();
    let Live {
        granii,
        server,
        served,
        warm_select_s,
        train_s,
        warmup_s,
    } = live;
    server.shutdown();
    let replay = replay::replay(
        &granii,
        &w,
        &served,
        sequence,
        &traced.batch_sizes,
        &mut spans,
    )?;
    if replay.composition_mismatches > 0 {
        eprintln!(
            "[perfbench] warning: {} replayed selections differ from the served composition",
            replay.composition_mismatches
        );
    }

    let own = spans.self_ns();
    let end = spans.len();
    let ms_in = |from: usize, to: usize| {
        let totals = spans.totals(&own, from, to);
        move |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e6
    };
    // Served spans per completed request; replayed per-request layers per
    // timed request; miss-path layers per replayed miss (warm-up included,
    // so workloads whose timed phase never misses still report them).
    let served_ms = ms_in(served_from, served_to);
    let timed_ms = ms_in(replay.timed_span, end);
    let replay_ms = ms_in(replay.first_span, end);
    let completed = traced.completed().max(1) as f64;
    let requests = replay.requests.max(1) as f64;
    let misses = replay.misses.max(1) as f64;
    let per_req = |name: &str| timed_ms(name) / requests;
    let per_miss = |name: &str| replay_ms(name) / misses;
    let per_served = |name: &str| served_ms(name) / completed;
    let layer_sums: Vec<f64> = replay
        .groups
        .iter()
        .flat_map(|&(from, to, size)| {
            let member = spans.child_self_ns(&own, from, to) as f64 / 1e6 / size as f64;
            std::iter::repeat_n(member, size)
        })
        .collect();
    let replay_sum_ms = median(&layer_sums);
    let served_p50 = median(&plain.latencies_ms());
    let timings: Vec<_> = traced
        .timings
        .iter()
        .zip(&traced.batch_sizes)
        .filter(|(_, &b)| b > 0)
        .map(|(t, _)| *t)
        .collect();
    let mean_ms = |values: &[f64]| values.iter().sum::<f64>() * 1e3 / values.len().max(1) as f64;
    let queue_s: Vec<f64> = timings.iter().map(|t| t.queue_seconds).collect();
    let execute_s: Vec<f64> = timings.iter().map(|t| t.execute_seconds).collect();
    let select_s: Vec<f64> = timings
        .iter()
        .map(|t| t.select_seconds)
        .filter(|&s| s > 0.0)
        .chain(warm_select_s.iter().copied())
        .collect();
    // Each member of a group of b contributes 1/b: the group count.
    let groups: f64 = traced
        .batch_sizes
        .iter()
        .filter(|&&b| b > 0)
        .map(|&b| 1.0 / b as f64)
        .sum();
    let c = &traced.counters;
    let record = Record::of(&traced, None);
    println!("{}", record.line(a, &traced, &[]));

    let metrics = [
        ("graph.fingerprint_ms", per_req("graph.fingerprint"), "ms"),
        ("serve.inspect_ms", per_req("serve.inspect"), "ms"),
        (
            "core.execplan.output_clone_ms",
            per_req("core.execplan.output_clone"),
            "ms",
        ),
        (
            "core.execplan.iterate_ms",
            per_req("core.execplan.iterate"),
            "ms",
        ),
        (
            "matrix.kernel_ms",
            replay.kernel_ns as f64 / 1e6 / requests,
            "ms",
        ),
        (
            "matrix.flops_per_req",
            replay.flops as f64 / requests,
            "count",
        ),
        (
            "matrix.bytes_per_req",
            replay.bytes as f64 / requests,
            "bytes",
        ),
        ("core.select_ms", per_miss("core.select"), "ms"),
        ("core.featurize_ms", per_miss("core.featurize"), "ms"),
        ("core.cost_eval_ms", per_miss("core.cost_eval"), "ms"),
        (
            "core.execplan.build_ms",
            per_miss("core.execplan.build"),
            "ms",
        ),
        (
            "core.execplan.bind_ms",
            per_miss("core.execplan.prep") + per_miss("core.execplan.bind"),
            "ms",
        ),
        (
            "core.execplan.ensure_batch_ms",
            per_miss("core.execplan.ensure_batch"),
            "ms",
        ),
        ("serve.submit_ms", per_served("serve.submit"), "ms"),
        ("serve.wait_ms", per_served("serve.wait"), "ms"),
        ("serve.queue_ms", mean_ms(&queue_s), "ms"),
        ("serve.select_ms", mean_ms(&select_s), "ms"),
        ("serve.execute_ms", mean_ms(&execute_s), "ms"),
        ("serve.replay_sum_ms", replay_sum_ms, "ms"),
        ("serve.overhead_ms", served_p50 - replay_sum_ms, "ms"),
        ("serve.batch_size_mean", completed / groups, "count"),
        (
            "serve.batched_share",
            c.batched as f64 / c.completed.max(1) as f64,
            "ratio",
        ),
        (
            "serve.worker_busy_share",
            c.busy_s / (traced.wall_s * WORKERS as f64),
            "ratio",
        ),
        (
            "serve.cache_hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "ratio",
        ),
        ("serve.cache_misses", c.misses as f64, "count"),
        ("serve.cache_evictions", c.evictions as f64, "count"),
        ("serve.cache_invalidations", c.invalidations as f64, "count"),
        ("serve.drift_flags", c.drift_flags as f64, "count"),
        ("serve.incidents", c.incidents as f64, "count"),
        ("alloc.count_per_req", allocs as f64 / completed, "count"),
        (
            "alloc.bytes_per_req",
            alloc_bytes as f64 / completed,
            "bytes",
        ),
        ("core.train_s", train_s, "s"),
        ("serve.warmup_s", warmup_s, "s"),
        (
            "trace.overhead_pct",
            (median(&traced.latencies_ms()) / served_p50 - 1.0) * 100.0,
            "%",
        ),
        ("host.steal_share", traced.steal_share, "ratio"),
        (
            "host.generator_cpu_ms_per_req",
            traced.generator_cpu_s * 1e3 / completed,
            "ms",
        ),
    ];
    let path = format!("out/{}.trace.json", a.workload.name());
    if let Err(e) =
        std::fs::create_dir_all("out").and_then(|()| std::fs::write(&path, spans.chrome_trace()))
    {
        eprintln!("[perfbench] could not write {path}: {e}");
    }
    Ok(result_line(
        warm.attempted + plain.attempted + traced.attempted,
        warm.failed + plain.failed + traced.failed,
        &metrics,
    ))
}

fn main() {
    host::retain_freed_memory();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(kind: Kind, seed: u64, requests: usize) -> Workload {
        let mut w = Workload::build(kind, seed, 1).expect("workload inputs");
        w.sequence.truncate(requests);
        w
    }

    fn serve(w: &Workload, live: &Live, refs: &[granii_matrix::DenseMatrix]) -> Phase {
        drive::serve_phase(
            &live.server,
            w,
            refs,
            &w.sequence,
            1,
            None,
            Duration::from_secs(120),
        )
    }

    #[test]
    fn quiet_blocks_drop_stolen_time_but_keep_enough_requests() {
        let blocks = |steal: &[f64]| -> Vec<drive::Block> {
            steal
                .iter()
                .map(|&steal_share| drive::Block {
                    finished: 400,
                    steal_share,
                    ..drive::Block::default()
                })
                .collect()
        };
        // Quiet blocks hold too few requests: top up with the next-quietest.
        let kept = drive::quiet_blocks(&blocks(&[0.05, 0.01, 0.3, 0.0]), 0.02, 1000);
        assert_eq!(kept, vec![0, 1, 3]);
        // Enough quiet requests: every quiet block, no stolen one.
        let kept = drive::quiet_blocks(&blocks(&[0.0, 0.2, 0.01, 0.02, 0.1]), 0.02, 1000);
        assert_eq!(kept, vec![0, 2, 3]);
    }

    #[test]
    fn a_corrupted_reference_lowers_success_ratio() {
        let w = short(Kind::BurstSmall, 3, 200);
        let live = drive::set_up(&w, &mut Spans::default()).expect("set-up");
        let mut refs = drive::references(&w, &live).expect("references");
        let clean = serve(&w, &live, &refs);
        assert_eq!(clean.failed, 0);
        assert_eq!(clean.success_ratio(), 1.0);

        let target = w.sequence[0];
        let first = &mut refs[target].as_mut_slice()[0];
        *first = f32::from_bits(first.to_bits() ^ 1);
        let corrupted = serve(&w, &live, &refs);
        let expected = w.sequence.iter().filter(|&&s| s == target).count() as u64;
        assert_eq!(corrupted.failed, expected);
        assert!(corrupted.success_ratio() < 1.0);
        assert_eq!(corrupted.attempted, clean.attempted);
    }

    #[test]
    fn a_seed_repeats_its_counts_and_another_seed_changes_the_sequence() {
        for kind in [Kind::HotLarge, Kind::BurstSmall, Kind::ColdChurn] {
            let a = short(kind, 11, 1000);
            assert_eq!(a.sequence, short(kind, 11, 1000).sequence);
            assert_ne!(
                a.sequence,
                short(kind, 12, 1000).sequence,
                "{}",
                kind.name()
            );
        }
        let w = short(Kind::ColdChurn, 11, 144);
        let run = || {
            let live = drive::set_up(&w, &mut Spans::default()).expect("set-up");
            let refs = drive::references(&w, &live).expect("references");
            let phase = serve(&w, &live, &refs);
            assert_eq!(phase.failed, 0);
            let quality = drive::selection_quality_pct(&w, &live).expect("quality");
            Record::of(&phase, Some(quality))
        };
        let first = run();
        assert_eq!(first.misses, 144, "every cold-churn request misses");
        assert_eq!(first, run());
    }
}
