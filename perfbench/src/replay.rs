//! The traced replay: the served request sequence run again, single-threaded,
//! through the public functions of each layer in the order the server calls
//! them, with a span around every call and `BoundPlan` profiling on.
//!
//! Per group: fingerprint and input profile per member, plan lookup, and on
//! a miss select (featurize, cost evaluation), the drift reference
//! (featurize, steady-state cost), input prep, build, bind and batch
//! pre-warm; then one iterate at the group size the served run formed, and
//! each member's output hand-off.

use std::collections::BTreeMap;
use std::hint::black_box;

use granii_core::cost::FeaturizedInput;
use granii_core::execplan::{ExecPlan, IterationObservation, PlanInputs};
use granii_core::Granii;
use granii_gnn::spec::{Composition, LayerConfig};
use granii_gnn::{Exec, GraphCtx};
use granii_matrix::device::Engine;
use granii_matrix::DenseMatrix;
use granii_serve::{CachedPlan, InputProfile, PlanCache, ServeRequest};

use crate::drive::{fail, SERVE_SEED};
use crate::spans::Spans;
use crate::workload::Workload;

/// Counts the replay took while it ran.
#[derive(Debug, Default)]
pub struct Replay {
    /// Timed requests replayed.
    pub requests: u64,
    /// Plan-cache misses over warm-up and timed replay.
    pub misses: u64,
    /// Host nanoseconds inside iterate instructions (`BoundPlan`
    /// profiling), timed replay only.
    pub kernel_ns: u64,
    /// Engine-attributed flops of the timed replay.
    pub flops: u64,
    /// Engine-attributed bytes of the timed replay.
    pub bytes: u64,
    /// Misses whose replayed selection differed from what the server served.
    pub composition_mismatches: u64,
    /// First span of the replay (warm-up included).
    pub first_span: usize,
    /// First span of the timed replay.
    pub timed_span: usize,
    /// Per timed group: its span range and size, for per-request layer sums.
    pub groups: Vec<(usize, usize, usize)>,
}

struct Replayer<'a> {
    granii: &'a Granii,
    w: &'a Workload,
    served: &'a [Composition],
    engine: &'a Engine,
    cache: PlanCache,
    replay: Replay,
}

/// Replays the warm-up, then `sequence` in groups of the sizes in
/// `batch_sizes` (one per position, as the served run formed them).
///
/// # Errors
///
/// Returns select, bind and kernel errors.
pub fn replay(
    granii: &Granii,
    w: &Workload,
    served: &[Composition],
    sequence: &[usize],
    batch_sizes: &[usize],
    spans: &mut Spans,
) -> Result<Replay, String> {
    let engine = Engine::modeled(granii.device());
    let mut r = Replayer {
        granii,
        w,
        served,
        engine: &engine,
        cache: PlanCache::new(w.serve.cache_capacity),
        replay: Replay {
            first_span: spans.len(),
            ..Replay::default()
        },
    };
    // Warm-up ids sit after the timed positions so the two never share a
    // trace lane.
    let warm_base = sequence.len() as u64;
    for (i, &sig) in w.warm.iter().enumerate() {
        r.group(sig, &[warm_base + i as u64], spans, false)?;
    }
    r.replay.timed_span = spans.len();
    // Members of one served group share a signature and a group size, so
    // collecting positions per (signature, size) re-forms groups of exactly
    // the sizes served.
    let mut forming: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
    for (pos, (&sig, &size)) in sequence.iter().zip(batch_sizes).enumerate() {
        let members = forming.entry((sig, size.max(1))).or_default();
        members.push(pos as u64);
        if members.len() == size.max(1) {
            let group = std::mem::take(members);
            r.group(sig, &group, spans, true)?;
        }
    }
    for ((sig, _), group) in forming {
        if !group.is_empty() {
            r.group(sig, &group, spans, true)?;
        }
    }
    Ok(r.replay)
}

impl Replayer<'_> {
    fn group(
        &mut self,
        sig: usize,
        members: &[u64],
        spans: &mut Spans,
        timed: bool,
    ) -> Result<(), String> {
        let request = &self.w.signatures[sig];
        let exec = Exec::real(self.engine);
        let batch = members.len();
        let first = spans.len();
        let root = spans.open("replay.group", members[0]);
        let mut fingerprint = 0;
        for &id in members {
            fingerprint = spans.time("graph.fingerprint", id, || {
                black_box(request.graph.fingerprint())
            });
        }
        for &id in members {
            spans.time("serve.inspect", id, || {
                black_box(InputProfile::extract(&request.graph))
            });
        }
        let key = (request.model, fingerprint, request.k1, request.k2);
        let hit = spans.time("serve.lookup", members[0], || self.cache.lookup(key));
        let entry = match hit {
            Some(entry) => entry,
            None => {
                let plan = self.bind(sig, request, members[0], &exec, spans)?;
                self.cache.insert(key, plan)
            }
        };
        let mut cached = entry
            .lock()
            .expect("no replay thread panicked holding a plan");
        let observed = spans.time("core.execplan.iterate", members[0], || {
            iterate(&mut cached, &exec, batch)
        })?;
        for (t, &id) in members.iter().enumerate() {
            let output = spans.time("core.execplan.output_clone", id, || {
                hand_off(&cached, batch, t)
            })?;
            drop(output);
        }
        spans.close(root);
        if timed {
            let r = &mut self.replay;
            r.requests += batch as u64;
            r.flops += observed.flops;
            r.bytes += observed.bytes;
            r.groups.push((first, spans.len(), batch));
            r.kernel_ns += cached
                .bound
                .profile_report(&exec)
                .rows
                .iter()
                .filter(|row| row.phase == "iter")
                .map(|row| row.host_ns)
                .sum::<u64>();
        }
        // Restart the profile so each group reads only its own kernels.
        cached.bound.disable_profiling();
        cached.bound.enable_profiling();
        drop(cached);
        self.engine.take_profile();
        Ok(())
    }

    /// The miss path, as the server's `bind_miss` runs it.
    fn bind(
        &mut self,
        sig: usize,
        request: &ServeRequest,
        id: u64,
        exec: &Exec,
        spans: &mut Spans,
    ) -> Result<CachedPlan, String> {
        self.replay.misses += 1;
        let cfg = LayerConfig::new(request.k1, request.k2);
        let models = self.granii.cost_models();
        let bind = spans.open("serve.bind", id);
        let select = spans.open("core.select", id);
        let plan = self
            .granii
            .compiled(request.model, cfg)
            .map_err(|e| fail("compile", e))?;
        let eligible = plan.eligible(request.k1, request.k2);
        let composition = if eligible.len() == 1 {
            eligible[0].composition
        } else {
            let input = spans.time("core.featurize", id, || {
                FeaturizedInput::extract(&request.graph, request.k1, request.k2)
            });
            let mut predicted = spans
                .time("core.cost_eval", id, || {
                    eligible
                        .iter()
                        .map(|c| {
                            models
                                .predict_program(&c.program, &input, request.iterations)
                                .map(|cost| (c.composition, cost))
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| fail("cost evaluation", e))?;
            predicted.sort_by(|a, b| a.1.total_cmp(&b.1));
            predicted[0].0
        };
        spans.close(select);
        if composition != self.served[sig] {
            self.replay.composition_mismatches += 1;
        }
        let candidate = plan
            .candidates
            .iter()
            .find(|c| c.composition == composition)
            .ok_or("selected composition is not a candidate")?;
        let features = spans.time("core.featurize", id, || {
            FeaturizedInput::extract(&request.graph, request.k1, request.k2)
        });
        let predicted_steady_seconds = spans.time("core.cost_eval", id, || {
            models
                .predict_steady_state(&candidate.program, &features)
                .ok()
        });
        let inputs = spans.time("core.execplan.prep", id, || {
            GraphCtx::new(&request.graph).map(|ctx| {
                let h = DenseMatrix::random(request.graph.num_nodes(), request.k1, 1.0, SERVE_SEED);
                PlanInputs::for_model(request.model, cfg, &ctx, h, SERVE_SEED + 1)
            })
        });
        let inputs = inputs.map_err(|e| fail("graph context", e))?;
        let exec_plan = spans
            .time("core.execplan.build", id, || {
                ExecPlan::build(&candidate.program)
            })
            .map_err(|e| fail("build", e))?;
        let mut bound = spans
            .time("core.execplan.bind", id, || {
                exec_plan.bind(exec, &inputs.as_program_inputs())
            })
            .map_err(|e| fail("bind", e))?;
        let max_batch = self.w.serve.max_batch;
        if max_batch > 1 {
            spans
                .time("core.execplan.ensure_batch", id, || {
                    bound.ensure_batch(max_batch)
                })
                .map_err(|e| fail("ensure_batch", e))?;
        }
        spans.close(bind);
        bound.enable_profiling();
        Ok(CachedPlan {
            composition,
            bound,
            predicted_steady_seconds,
        })
    }
}

/// One iterate for a group: multi-RHS when the plan has a batched lowering
/// wide enough, one serial iterate per member otherwise (as the server does).
fn iterate(
    cached: &mut CachedPlan,
    exec: &Exec,
    batch: usize,
) -> Result<IterationObservation, String> {
    let bound = &mut cached.bound;
    if batch > 1 && bound.batch_supported() && bound.batch_capacity() >= batch {
        return bound
            .iterate_batched_observed(exec, batch)
            .map_err(|e| fail("iterate_batched", e));
    }
    let mut total: Option<IterationObservation> = None;
    for _ in 0..batch {
        let o = bound
            .iterate_observed(exec)
            .map_err(|e| fail("iterate", e))?;
        total = Some(match total {
            Some(t) => IterationObservation {
                host_seconds: t.host_seconds + o.host_seconds,
                charged_seconds: t.charged_seconds + o.charged_seconds,
                flops: t.flops + o.flops,
                bytes: t.bytes + o.bytes,
            },
            None => o,
        });
    }
    total.ok_or_else(|| "empty group".to_owned())
}

/// Member `t`'s output as the server hands it to the reply: a clone of the
/// serial output, or the member's block copied out and cloned into the
/// response.
fn hand_off(cached: &CachedPlan, batch: usize, t: usize) -> Result<DenseMatrix, String> {
    if batch > 1 && cached.bound.batch_capacity() >= batch {
        let block = cached
            .bound
            .output_block(t)
            .map_err(|e| fail("output_block", e))?;
        Ok(block.clone())
    } else {
        Ok(cached
            .bound
            .output()
            .map_err(|e| fail("output", e))?
            .clone())
    }
}
