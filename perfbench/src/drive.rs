//! Set-up, reference outputs and the closed-loop served phase.

use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::Arc;
use std::time::{Duration, Instant};

use granii_core::execplan::{ExecPlan, PlanInputs};
use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::{Composition, LayerConfig};
use granii_gnn::{Exec, GraphCtx};
use granii_matrix::device::{DeviceKind, Engine};
use granii_matrix::DenseMatrix;
use granii_serve::{RequestTiming, ServeRequest, Server, Ticket};

use crate::host;
use crate::spans::Spans;
use crate::workload::Workload;

/// The seed `granii-serve` binds every request's synthetic features with
/// (and `+ 1` for its weights); the reference outputs bind the same inputs.
pub const SERVE_SEED: u64 = 41;

/// Formats an error for the benchmark's `Result<_, String>`.
pub fn fail(what: &str, e: impl Display) -> String {
    format!("{what}: {e}")
}

/// A started server with its plans bound, and what set-up cost.
pub struct Live {
    /// The trained GRANII instance the server shares.
    pub granii: Arc<Granii>,
    /// The server, warm.
    pub server: Server,
    /// The composition the server returned for each signature in warm-up.
    pub served: Vec<Composition>,
    /// Server-reported select time of every warm-up miss, in seconds.
    pub warm_select_s: Vec<f64>,
    /// Cost-model training seconds.
    pub train_s: f64,
    /// `Server::start` plus warm-up seconds.
    pub warmup_s: f64,
}

impl Live {
    /// The set-up time the benchmark reports: training, start and warm-up.
    pub fn setup_s(&self) -> f64 {
        self.train_s + self.warmup_s
    }
}

/// Trains H100 cost models, starts the server and serves the warm-up
/// sequence one request at a time, so every plan is bound serially.
///
/// # Errors
///
/// Returns training errors and any failed warm-up request.
pub fn set_up(w: &Workload, spans: &mut Spans) -> Result<Live, String> {
    let train = spans.open("core.train", 0);
    let granii = Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
        .map_err(|e| fail("cost-model training", e))?;
    spans.close(train);
    let granii = Arc::new(granii);
    let warm = spans.open("serve.warmup", 0);
    let server = Server::start(granii.clone(), w.serve.clone());
    let mut served: Vec<Option<Composition>> = vec![None; w.signatures.len()];
    let mut warm_select_s = Vec::new();
    for &sig in &w.warm {
        let response = server
            .process(w.signatures[sig].clone())
            .map_err(|e| fail("warm-up request", e))?;
        if !response.cache_hit {
            warm_select_s.push(response.timing.select_seconds);
        }
        served[sig].get_or_insert(response.composition);
    }
    spans.close(warm);
    let served = served
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("warm-up must serve every signature")?;
    let own = spans.self_ns();
    Ok(Live {
        granii,
        server,
        served,
        warm_select_s,
        train_s: own[train] as f64 / 1e9,
        warmup_s: own[warm] as f64 / 1e9,
    })
}

/// The layer output for `request` under `composition`, bound through
/// `granii_core::execplan` on the inputs the server binds, outside the
/// server.
///
/// # Errors
///
/// Returns compile, bind and kernel errors.
pub fn reference(
    granii: &Granii,
    request: &ServeRequest,
    composition: Composition,
) -> Result<DenseMatrix, String> {
    let cfg = LayerConfig::new(request.k1, request.k2);
    let plan = granii
        .compiled(request.model, cfg)
        .map_err(|e| fail("compile", e))?;
    let candidate = plan
        .candidates
        .iter()
        .find(|c| c.composition == composition)
        .ok_or_else(|| format!("{} is not a candidate", composition.name()))?;
    let ctx = GraphCtx::new(&request.graph).map_err(|e| fail("graph context", e))?;
    let h = DenseMatrix::random(request.graph.num_nodes(), request.k1, 1.0, SERVE_SEED);
    let inputs = PlanInputs::for_model(request.model, cfg, &ctx, h, SERVE_SEED + 1);
    let engine = Engine::modeled(granii.device());
    let exec = Exec::real(&engine);
    let mut bound = ExecPlan::build(&candidate.program)
        .and_then(|plan| plan.bind(&exec, &inputs.as_program_inputs()))
        .map_err(|e| fail("reference bind", e))?;
    let output = bound
        .iterate(&exec)
        .map_err(|e| fail("reference iterate", e))?;
    Ok(output.clone())
}

/// One reference output per signature.
///
/// # Errors
///
/// As [`reference`].
pub fn references(w: &Workload, live: &Live) -> Result<Vec<DenseMatrix>, String> {
    w.signatures
        .iter()
        .zip(&live.served)
        .map(|(request, &composition)| reference(&live.granii, request, composition))
        .collect()
}

/// Whether `output` is finite and bitwise equal to `reference`.
pub fn matches(output: &DenseMatrix, reference: &DenseMatrix) -> bool {
    output.shape() == reference.shape()
        && output
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .all(|(a, b)| a.is_finite() && a.to_bits() == b.to_bits())
}

/// Server counters the benchmark differences over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Completed requests.
    pub completed: u64,
    /// Plan-cache hits, shared batch hits included.
    pub hits: u64,
    /// Plan-cache misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Drift and model-swap invalidations.
    pub invalidations: u64,
    /// Cost-drift plus input-drift flags.
    pub drift_flags: u64,
    /// Incident bundles captured.
    pub incidents: u64,
    /// Requests served inside batch groups of two or more.
    pub batched: u64,
    /// Engine-attributed flops (metering totals).
    pub flops: u64,
    /// Engine-attributed bytes (metering totals).
    pub bytes: u64,
    /// Busy seconds summed over workers.
    pub busy_s: f64,
}

impl Counters {
    /// Reads the server's counters.
    pub fn read(server: &Server) -> Counters {
        let status = server.status();
        let totals = server.metering_totals();
        Counters {
            completed: status.completed,
            hits: status.cache.hits,
            misses: status.cache.misses,
            evictions: status.cache.evictions,
            invalidations: status.cache.invalidations,
            drift_flags: status.drift_flagged + status.input_drift_flagged,
            incidents: status.recorder.incidents,
            batched: status.batching.batched_requests,
            flops: totals.flops,
            bytes: totals.bytes,
            busy_s: status.workers.iter().map(|w| w.busy_seconds).sum(),
        }
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            completed: self.completed - earlier.completed,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            invalidations: self.invalidations - earlier.invalidations,
            drift_flags: self.drift_flags - earlier.drift_flags,
            incidents: self.incidents - earlier.incidents,
            batched: self.batched - earlier.batched,
            flops: self.flops - earlier.flops,
            bytes: self.bytes - earlier.bytes,
            busy_s: self.busy_s - earlier.busy_s,
        }
    }
}

/// Consecutive completions of a phase, measured on their own so that the
/// end-to-end figures can leave out blocks the host disturbed.
#[derive(Debug, Default)]
pub struct Block {
    /// Client-timed latency of each correct response, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Responses the block finished, correct or not.
    pub finished: u64,
    /// Wall seconds the block took.
    pub wall_s: f64,
    /// Process CPU seconds the block took.
    pub cpu_s: f64,
    /// Host CPU steal share over the block.
    pub steal_share: f64,
}

/// What one served phase measured.
pub struct Phase {
    /// The phase's completions in consecutive blocks.
    pub blocks: Vec<Block>,
    /// Requests the generator submitted.
    pub attempted: u64,
    /// Errors, sheds, and wrong or non-finite outputs.
    pub failed: u64,
    /// Wall seconds from the first submit to the last reply.
    pub wall_s: f64,
    /// The generator thread's own CPU seconds over the phase.
    pub generator_cpu_s: f64,
    /// Host CPU steal share over the phase.
    pub steal_share: f64,
    /// Server counters over the phase.
    pub counters: Counters,
    /// Per sequence position: the batch group size it was served in (0 if
    /// it failed).
    pub batch_sizes: Vec<usize>,
    /// Per sequence position: the server-reported timing.
    pub timings: Vec<RequestTiming>,
}

impl Phase {
    /// Every correct response's latency, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.latencies_ms.iter().copied())
            .collect()
    }

    /// Correct responses.
    pub fn completed(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.latencies_ms.len() as u64)
            .sum()
    }

    /// Correct responses over requests attempted.
    pub fn success_ratio(&self) -> f64 {
        self.completed() as f64 / self.attempted.max(1) as f64
    }
}

/// Indices, in time order, of the blocks the end-to-end timings are taken
/// over: every block with at most `quiet_steal` host steal, and then the
/// next-quietest until the kept blocks hold `min_requests`.
pub fn quiet_blocks(blocks: &[Block], quiet_steal: f64, min_requests: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&a, &b| blocks[a].steal_share.total_cmp(&blocks[b].steal_share));
    let mut held = 0;
    let mut kept: Vec<usize> = order
        .into_iter()
        .take_while(|&i| {
            let take = held < min_requests || blocks[i].steal_share <= quiet_steal;
            held += blocks[i].finished;
            take
        })
        .collect();
    kept.sort_unstable();
    kept
}

/// Collects replies in submission order, closing a block every
/// `block_len` finished requests.
struct Collector<'a> {
    refs: &'a [DenseMatrix],
    sequence: &'a [usize],
    block_len: u64,
    block: Block,
    mark: Mark,
    phase: Phase,
}

impl Collector<'_> {
    fn complete(&mut self, spans: &mut Option<&mut Spans>, (pos, sent, ticket): InFlight) {
        let span = spans
            .as_deref_mut()
            .map(|s| s.open("serve.wait", pos as u64));
        let result = ticket.wait();
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
            s.close(id);
        }
        match result {
            Ok(response) if matches(&response.output, &self.refs[self.sequence[pos]]) => {
                self.phase.batch_sizes[pos] = response.batch_size;
                self.phase.timings[pos] = response.timing;
                self.finish(Some(latency_ms));
            }
            _ => self.finish(None),
        }
    }

    /// Counts one finished request: its latency if it was answered
    /// correctly, a failure otherwise.
    fn finish(&mut self, latency_ms: Option<f64>) {
        match latency_ms {
            Some(ms) => self.block.latencies_ms.push(ms),
            None => self.phase.failed += 1,
        }
        self.block.finished += 1;
        if self.block.finished == self.block_len {
            self.close_block();
        }
    }

    fn close_block(&mut self) {
        let now = Mark::now();
        self.block.wall_s = now.at.duration_since(self.mark.at).as_secs_f64();
        self.block.cpu_s = now.cpu_s - self.mark.cpu_s;
        self.block.steal_share = host::steal_share(self.mark.steal, now.steal);
        self.phase.blocks.push(std::mem::take(&mut self.block));
        self.mark = now;
    }
}

/// Clock, process CPU and host steal readings at a block boundary.
struct Mark {
    at: Instant,
    cpu_s: f64,
    steal: (u64, u64),
}

impl Mark {
    fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_s: host::process_cpu_seconds(),
            steal: host::cpu_steal_ticks(),
        }
    }
}

type InFlight = (usize, Instant, Ticket);

/// Serves `sequence` as a closed loop from this one thread, keeping
/// `w.in_flight` requests outstanding: when the window is full it waits for
/// the oldest ticket, then submits the next request. Latency runs from just
/// before `Server::submit` to the return of `Ticket::wait`. Every response
/// is checked against its signature's reference. Replies are measured in
/// `blocks` consecutive blocks. With `spans`, submit and wait are traced.
/// Stops submitting after `give_up`, counting what was never sent as
/// neither attempted nor failed.
pub fn serve_phase(
    server: &Server,
    w: &Workload,
    refs: &[DenseMatrix],
    sequence: &[usize],
    blocks: usize,
    mut spans: Option<&mut Spans>,
    give_up: Duration,
) -> Phase {
    let before = Counters::read(server);
    let generator_before = host::thread_cpu_seconds();
    let mark = Mark::now();
    let (start, steal_before) = (mark.at, mark.steal);
    let mut c = Collector {
        refs,
        sequence,
        block_len: sequence.len().div_ceil(blocks.max(1)).max(1) as u64,
        block: Block::default(),
        mark,
        phase: Phase {
            blocks: Vec::with_capacity(blocks),
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            generator_cpu_s: 0.0,
            steal_share: 0.0,
            counters: Counters::default(),
            batch_sizes: vec![0; sequence.len()],
            timings: vec![RequestTiming::default(); sequence.len()],
        },
    };
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(w.in_flight);
    for (pos, &sig) in sequence.iter().enumerate() {
        if start.elapsed() > give_up {
            break;
        }
        if window.len() >= w.in_flight {
            let oldest = window.pop_front().expect("window is full");
            c.complete(&mut spans, oldest);
        }
        let request = w.signatures[sig].clone();
        let span = spans
            .as_deref_mut()
            .map(|s| s.open("serve.submit", pos as u64));
        let sent = Instant::now();
        let submitted = server.submit(request);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
            s.close(id);
        }
        c.phase.attempted += 1;
        match submitted {
            Ok(ticket) => window.push_back((pos, sent, ticket)),
            Err(_) => c.finish(None),
        }
    }
    while let Some(oldest) = window.pop_front() {
        c.complete(&mut spans, oldest);
    }
    if c.block.finished > 0 {
        c.close_block();
    }
    let mut phase = c.phase;
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.generator_cpu_s = host::thread_cpu_seconds() - generator_before;
    phase.steal_share = host::steal_share(steal_before, host::cpu_steal_ticks());
    phase.counters = Counters::read(server).since(&before);
    phase
}

/// Geometric mean over signatures of the modeled oracle time divided by the
/// modeled time of the composition the server returned (from
/// `Granii::verify`), times 100.
///
/// # Errors
///
/// Returns verification errors.
pub fn selection_quality_pct(w: &Workload, live: &Live) -> Result<f64, String> {
    let mut ln_sum = 0.0;
    for (request, &composition) in w.signatures.iter().zip(&live.served) {
        let report = live
            .granii
            .verify(
                request.model,
                &request.graph,
                LayerConfig::new(request.k1, request.k2),
                request.iterations,
            )
            .map_err(|e| fail("verify", e))?;
        let served = report
            .candidates
            .iter()
            .find(|c| c.composition == composition)
            .ok_or("served composition was not verified")?;
        ln_sum += (report.oracle_seconds / served.measured_seconds).ln();
    }
    Ok(100.0 * (ln_sum / w.signatures.len() as f64).exp())
}

/// Exact nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
