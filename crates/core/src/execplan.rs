//! Compile-once execution engine for candidate programs (§IV-D's steady
//! state).
//!
//! The reference [`crate::interp`] evaluates a program's operations into a
//! fresh `Vec` of values and re-allocates every intermediate on every call —
//! fine as a differential-test oracle, wrong as the thing that runs the
//! ~100 steady-state iterations the selection overhead amortizes over
//! (§VI-C). This module splits that work into three phases:
//!
//! 1. **Build** ([`ExecPlan::build`]): each step's typed [`Op`] becomes one
//!    instruction over value indices. Step *i* is value *i*, each distinct
//!    leaf gets one value after the steps, and hoisted (`once`) steps are
//!    separated from per-iteration steps. No inputs are needed yet — a plan
//!    is reusable across graphs.
//! 2. **Bind** ([`ExecPlan::bind`]): shape inference against concrete
//!    [`ProgramInputs`], slot assignment (dense per-iteration intermediates
//!    share physical buffers via a liveness-driven free list), buffer
//!    allocation, and one charged execution of the hoisted setup
//!    instructions.
//! 3. **Iterate** ([`BoundPlan::iterate_batched`]): a flat loop over
//!    slot-addressed instructions driving the multi-RHS `Exec` methods at the
//!    iteration's batch size. A batch of one ([`BoundPlan::iterate`]) runs on
//!    the narrow slots; a larger batch runs the per-request values on the
//!    wide twins [`BoundPlan::ensure_batch`] allocates. No `Value` clone, no
//!    heap allocation — every intermediate lands in a buffer assigned at bind
//!    time.
//!
//! The engine charges exactly the latencies the interpreter charges and
//! produces bitwise-identical outputs; `crates/core/tests` asserts both
//! differentially across every model × promoted candidate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use granii_gnn::models::{GAT_SLOPE, GIN_EPS};
use granii_gnn::spec::{LayerConfig, ModelKind};
use granii_gnn::{Exec, GraphCtx};
use granii_matrix::device::ChargeSummary;
use granii_matrix::ops::BroadcastOp;
use granii_matrix::{CsrMatrix, DenseMatrix, Semiring, WorkStats};
use granii_telemetry::{ProfileReport, ProfileRow};

use crate::assoc::{CandidateProgram, Leaf, Op, Operand, ValueKind};
use crate::interp::ProgramInputs;
use crate::{CoreError, Result};

/// Index into the plan's value table (one entry per produced/leaf value).
type ValueId = usize;

/// One slot-addressed instruction: an operation over [`ValueId`]s and the
/// value it produces. The bound plan maps ids to physical buffer slots.
#[derive(Debug, Clone)]
struct Instr {
    op: Op<ValueId>,
    out: ValueId,
}

impl Instr {
    /// The values this instruction reads (bind-time liveness only — never
    /// called on the per-iteration path).
    fn operands(&self) -> Vec<ValueId> {
        self.op.operands().into_iter().map(|(v, _)| *v).collect()
    }
}

/// A candidate program lowered to slot-addressed instructions, independent of
/// any concrete input. Build once with [`ExecPlan::build`], then
/// [`ExecPlan::bind`] it to inputs as many times as needed.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    expr: String,
    values: Vec<ValueKind>,
    leaves: Vec<(ValueId, Leaf)>,
    setup: Vec<Instr>,
    iter: Vec<Instr>,
    output: ValueId,
}

impl ExecPlan {
    /// Lowers a candidate program into a slot-addressed plan: one
    /// instruction per step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] for malformed programs (a step that
    /// reads itself or a later step, an operand of the wrong kind, no steps,
    /// a non-dense result) — the same programs the interpreter rejects.
    pub fn build(program: &CandidateProgram) -> Result<Self> {
        let _span = granii_telemetry::span!("execplan.build", expr = program.expr.as_str());
        program.check()?;
        let n = program.ops.len();
        let mut leaves: Vec<(ValueId, Leaf)> = Vec::new();
        let mut setup = Vec::new();
        let mut iter = Vec::new();
        for (out, (op, step)) in program.ops.iter().zip(&program.steps).enumerate() {
            let op = op.map(|v| match v {
                Operand::Step(j) => *j,
                Operand::Leaf(leaf) => match leaves.iter().find(|(_, l)| l == leaf) {
                    Some(&(id, _)) => id,
                    None => {
                        leaves.push((n + leaves.len(), leaf.clone()));
                        n + leaves.len() - 1
                    }
                },
            });
            let instr = Instr { op, out };
            if step.once {
                setup.push(instr);
            } else {
                iter.push(instr);
            }
        }
        let values = program
            .ops
            .iter()
            .map(Op::result)
            .chain(leaves.iter().map(|(_, leaf)| leaf.kind()))
            .collect();
        Ok(Self {
            expr: program.expr.clone(),
            values,
            leaves,
            setup,
            iter,
            output: n - 1,
        })
    }

    /// The program's canonical expression.
    pub fn expr(&self) -> &str {
        &self.expr
    }

    /// Number of hoisted (run-once) instructions.
    pub fn setup_len(&self) -> usize {
        self.setup.len()
    }

    /// Number of per-iteration instructions.
    pub fn iter_len(&self) -> usize {
        self.iter.len()
    }

    /// Binds the plan to concrete inputs: infers every shape, assigns
    /// physical buffer slots (dense per-iteration intermediates share slots
    /// via a liveness-driven free list), allocates all buffers, and runs the
    /// hoisted setup instructions once (charging their latency once — the
    /// amortized precompute of §IV-D).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] for missing weights (`unbound
    /// operand`) and propagates kernel errors from the setup run.
    pub fn bind(&self, exec: &Exec, inputs: &ProgramInputs) -> Result<BoundPlan> {
        let _span = granii_telemetry::span!("execplan.bind", expr = self.expr.as_str());
        let n = inputs.adj.rows();

        // Shape inference (setup instructions precede — and never read —
        // per-iteration values, so chaining the two lists preserves
        // definition order).
        let mut shape: Vec<Option<Shape>> = vec![None; self.values.len()];
        for (id, leaf) in &self.leaves {
            shape[*id] = Some(match leaf {
                Leaf::Adj => Shape::Sparse,
                Leaf::DegInvSqrt => Shape::Diag(inputs.deg_inv_sqrt.len()),
                Leaf::DegInv => Shape::Diag(inputs.deg_inv.len()),
                Leaf::Features => Shape::Dense(inputs.h.rows(), inputs.h.cols()),
                Leaf::EpsIdentity => Shape::Diag(n),
                Leaf::Weight(name) => {
                    let (rows, cols) = inputs.weight(name)?.shape();
                    Shape::Dense(rows, cols)
                }
            });
        }
        for instr in self.setup.iter().chain(&self.iter) {
            let s = infer_shape(instr, &shape, n)?;
            shape[instr.out] = Some(s);
        }

        // Slot assignment. Leaves, setup outputs, the final output, and
        // sparse/diag values get dedicated slots; dense per-iteration
        // intermediates recycle slots through an exact-shape free list.
        // An instruction's output slot is claimed *before* its dying
        // operands are freed, so an output buffer never aliases a live
        // operand — required by the `_into` kernels.
        const UNASSIGNED: usize = usize::MAX;
        let mut slot_of = vec![UNASSIGNED; self.values.len()];
        let mut num_slots = 0usize;
        for (id, _) in &self.leaves {
            slot_of[*id] = num_slots;
            num_slots += 1;
        }
        for instr in &self.setup {
            slot_of[instr.out] = num_slots;
            num_slots += 1;
        }
        let mut produced_in_iter = vec![false; self.values.len()];
        for instr in &self.iter {
            produced_in_iter[instr.out] = true;
        }
        let mut last_use = vec![usize::MAX; self.values.len()];
        for (i, instr) in self.iter.iter().enumerate() {
            for v in instr.operands() {
                last_use[v] = i;
            }
        }
        let mut free: Vec<(usize, usize, usize)> = Vec::new();
        for (i, instr) in self.iter.iter().enumerate() {
            let out = instr.out;
            if slot_of[out] == UNASSIGNED {
                let sharable = self.values[out] == ValueKind::Dense && out != self.output;
                slot_of[out] = if sharable {
                    let (r, c) = dense_dims(shape_of(&shape, out)?)?;
                    match free.iter().position(|&(fr, fc, _)| (fr, fc) == (r, c)) {
                        Some(p) => free.swap_remove(p).2,
                        None => {
                            num_slots += 1;
                            num_slots - 1
                        }
                    }
                } else {
                    num_slots += 1;
                    num_slots - 1
                };
            }
            let mut ops = instr.operands();
            ops.sort_unstable();
            ops.dedup();
            for v in ops {
                if produced_in_iter[v]
                    && v != self.output
                    && self.values[v] == ValueKind::Dense
                    && last_use[v] == i
                {
                    let (r, c) = dense_dims(shape_of(&shape, v)?)?;
                    free.push((r, c, slot_of[v]));
                }
            }
        }

        // Buffer allocation: leaves are seeded from the inputs (the Features
        // leaf shares the caller's `H` read-only), instruction outputs get
        // zeroed buffers of the inferred shape. Only `ensure_batch`
        // allocates after this.
        let mut slots: Vec<Slot> = Vec::with_capacity(num_slots);
        slots.resize_with(num_slots, || Slot::Empty);
        for (id, leaf) in &self.leaves {
            slots[slot_of[*id]] = match leaf {
                Leaf::Adj => Slot::Sparse(inputs.adj.clone()),
                Leaf::DegInvSqrt => Slot::Diag(inputs.deg_inv_sqrt.to_vec()),
                Leaf::DegInv => Slot::Diag(inputs.deg_inv.to_vec()),
                Leaf::Features => Slot::Shared(Arc::clone(inputs.h)),
                Leaf::EpsIdentity => Slot::Diag(vec![1.0 + inputs.eps; n]),
                Leaf::Weight(name) => Slot::Dense(inputs.weight(name)?.clone()),
            };
        }
        for instr in self.setup.iter().chain(&self.iter) {
            let slot = slot_of[instr.out];
            if !matches!(slots[slot], Slot::Empty) {
                continue; // shared slot, already allocated
            }
            slots[slot] = match shape_of(&shape, instr.out)? {
                Shape::Dense(r, c) => Slot::Dense(DenseMatrix::zeros(r, c)?),
                Shape::Sparse => Slot::Sparse(inputs.adj.zeros_like()),
                Shape::Diag(len) => Slot::Diag(vec![0.0; len]),
            };
        }

        // Batched (multi-RHS) lowering, decided once per bind: a value is
        // "batched" when it carries per-request columns — the Features leaf,
        // and everything the iteration derives from it. The plan admits
        // batches of two or more iff every per-iteration instruction has a
        // column-stacked kernel for its operand pattern (attention/edge-wise
        // and diagonal iteration steps do not; those plans run one request
        // at a time). Setup instructions ran above on narrow buffers and are
        // block-invariant by construction, so they never need widening.
        let mut batched = vec![false; self.values.len()];
        let features = self
            .leaves
            .iter()
            .find(|(_, leaf)| matches!(leaf, Leaf::Features))
            .map(|&(id, _)| id);
        if let Some(id) = features {
            batched[id] = true;
        }
        let mut supported = true;
        for instr in &self.iter {
            let ok = match instr.op {
                // Stacked LHS against the shared (unbatched) weight.
                Op::Gemm { a, b } => batched[a] && !batched[b],
                Op::Spmm { x, .. }
                | Op::RowBroadcast { x, .. }
                | Op::ColBroadcast { x, .. }
                | Op::Relu { x } => batched[x],
                Op::Add { a, b } => batched[a] && batched[b],
                _ => false,
            };
            if !ok {
                supported = false;
                break;
            }
            batched[instr.out] = true;
        }
        // A batched output derives from the Features leaf, so a lowered plan
        // always reads it in the iteration.
        let batch_plan = features
            .filter(|_| supported && batched[self.output])
            .map(|id| {
                // The slots of the batched values the iteration touches.
                // Every value sharing such a slot is batched too: shared
                // slots only ever hold iteration outputs.
                let mut twins: Vec<usize> = self
                    .iter
                    .iter()
                    .flat_map(|instr| instr.operands().into_iter().chain([instr.out]))
                    .filter(|&v| batched[v])
                    .map(|v| slot_of[v])
                    .collect();
                twins.sort_unstable();
                twins.dedup();
                BatchLowering {
                    twins,
                    features_slot: slot_of[id],
                }
            });

        let mut bound = BoundPlan {
            setup: self.setup.clone(),
            iter: self.iter.clone(),
            slot_of,
            slots,
            output: self.output,
            irregularity: inputs.irregularity,
            expr: self.expr.clone(),
            setup_stats: vec![InstrStat::default(); self.setup.len()],
            profiler: None,
            batch_plan,
            batch_state: None,
            last_batch: 1,
        };
        // Hoisted precompute: charged once, here. Attribution is captured
        // per instruction so a later profile report can show the setup rows
        // even when steady-state profiling was never enabled.
        run_instrs(
            exec,
            &bound.setup,
            &bound.slot_of,
            &mut bound.slots,
            &mut [],
            1,
            bound.irregularity,
            Some(&mut bound.setup_stats),
        )?;
        Ok(bound)
    }
}

/// Concrete shape of a value, known after bind-time inference.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Dense(usize, usize),
    /// All sparse values share the adjacency pattern (logits, leaky scores,
    /// softmax weights, and scaled adjacencies are all masked by `A`).
    Sparse,
    Diag(usize),
}

fn shape_of(shape: &[Option<Shape>], id: ValueId) -> Result<Shape> {
    shape[id].ok_or_else(|| CoreError::InvalidIr("value used before definition".into()))
}

fn dense_dims(s: Shape) -> Result<(usize, usize)> {
    match s {
        Shape::Dense(r, c) => Ok((r, c)),
        other => Err(CoreError::InvalidIr(format!(
            "expected a dense shape, got {other:?}"
        ))),
    }
}

fn diag_len(s: Shape) -> Result<usize> {
    match s {
        Shape::Diag(l) => Ok(l),
        other => Err(CoreError::InvalidIr(format!(
            "expected a diagonal shape, got {other:?}"
        ))),
    }
}

fn infer_shape(instr: &Instr, shape: &[Option<Shape>], n: usize) -> Result<Shape> {
    Ok(match instr.op {
        Op::Gemm { a, b } => {
            let (ar, _) = dense_dims(shape_of(shape, a)?)?;
            let (_, bc) = dense_dims(shape_of(shape, b)?)?;
            Shape::Dense(ar, bc)
        }
        Op::Spmm { x, .. } => {
            let (_, xc) = dense_dims(shape_of(shape, x)?)?;
            Shape::Dense(n, xc)
        }
        Op::AttLogits { .. }
        | Op::ScaleCsr { .. }
        | Op::LeakyRelu { .. }
        | Op::EdgeSoftmax { .. } => Shape::Sparse,
        Op::RowBroadcast { x, .. }
        | Op::ColBroadcast { x, .. }
        | Op::Relu { x }
        | Op::Add { a: x, .. } => shape_of(shape, x)?,
        Op::DiagMerge { a, .. } => Shape::Diag(diag_len(shape_of(shape, a)?)?),
    })
}

/// A physical buffer slot of a bound plan.
#[derive(Debug)]
enum Slot {
    /// Temporarily vacated while its buffer is being written.
    Empty,
    Dense(DenseMatrix),
    /// A dense leaf shared with the caller (the Features leaf `H`): read
    /// like [`Slot::Dense`], never written.
    Shared(Arc<DenseMatrix>),
    Sparse(CsrMatrix),
    Diag(Vec<f32>),
}

impl Slot {
    fn kind_name(&self) -> &'static str {
        match self {
            Slot::Empty => "empty",
            Slot::Dense(_) => "dense",
            Slot::Shared(_) => "shared dense",
            Slot::Sparse(_) => "sparse",
            Slot::Diag(_) => "diag",
        }
    }
}

/// Accumulated timing and work attribution for one instruction; filled by
/// the bind-time setup run and the profiled iterate path.
#[derive(Debug, Clone, Copy, Default)]
struct InstrStat {
    calls: u64,
    host_ns: u64,
    charged_ns: u64,
    predicted_ns: u64,
    flops: u64,
    bytes: u64,
}

impl InstrStat {
    fn absorb(&mut self, host_ns: u64, summary: &ChargeSummary) {
        self.calls += 1;
        self.host_ns += host_ns;
        self.charged_ns += (summary.charged_seconds * 1e9) as u64;
        self.predicted_ns += (summary.predicted_seconds * 1e9) as u64;
        self.flops += summary.flops;
        self.bytes += summary.bytes;
    }

    fn to_row(self, index: usize, name: &'static str, phase: &str) -> ProfileRow {
        ProfileRow {
            index,
            name: name.to_owned(),
            phase: phase.to_owned(),
            calls: self.calls,
            host_ns: self.host_ns,
            charged_ns: self.charged_ns,
            predicted_ns: self.predicted_ns,
            flops: self.flops,
            bytes: self.bytes,
        }
    }
}

/// Per-iteration instruction profiler, attached by
/// [`BoundPlan::enable_profiling`]. Rows are pre-sized (one per iterate
/// instruction) so the profiled loop itself never allocates.
#[derive(Debug)]
struct IterProfiler {
    iterations: u64,
    stats: Vec<InstrStat>,
}

/// What one observed steady-state iteration cost (see
/// [`BoundPlan::iterate_observed`]): wall-clock on the host, and the
/// engine-charged figure — which on a modeled engine is the deterministic
/// device-model cost the drift detector compares against predictions.
#[derive(Debug, Clone, Copy)]
pub struct IterationObservation {
    /// Host wall-clock seconds for the iteration.
    pub host_seconds: f64,
    /// Engine-charged seconds for the iteration's kernels.
    pub charged_seconds: f64,
    /// Floating-point operations the engine attributed to the iteration.
    pub flops: u64,
    /// Bytes (read + written) the engine attributed to the iteration.
    pub bytes: u64,
}

/// Bind-time batched lowering: which physical slots get wide (multi-RHS)
/// twins — those of the per-request dense values, the Features leaf and
/// every value the iteration derives from it. A block's width is always its
/// narrow slot's column count. `None` on a [`BoundPlan`] means the plan has
/// no column-stacked lowering and runs one request at a time.
#[derive(Debug, Clone)]
struct BatchLowering {
    twins: Vec<usize>,
    /// Slot of the Features leaf — its wide twin is seeded by tiling the
    /// bound `H` across every block.
    features_slot: usize,
}

/// Wide buffers for batched execution, allocated by
/// [`BoundPlan::ensure_batch`] for the widest batch (`capacity` blocks); a
/// smaller batch touches only its leading blocks, so a batched iteration
/// allocates nothing.
#[derive(Debug)]
struct BatchState {
    capacity: usize,
    /// Per-slot wide twin (`rows × capacity·cols` of the narrow slot), and
    /// [`Slot::Empty`] for slots without one. The executor vacates a twin it
    /// writes, as it does a narrow output slot.
    wide: Vec<Slot>,
}

/// An [`ExecPlan`] bound to concrete inputs: every value has a physical
/// buffer, the hoisted setup has run, and [`BoundPlan::iterate`] performs one
/// steady-state iteration with zero heap allocation and zero string lookups.
#[derive(Debug)]
pub struct BoundPlan {
    setup: Vec<Instr>,
    iter: Vec<Instr>,
    slot_of: Vec<usize>,
    slots: Vec<Slot>,
    output: ValueId,
    irregularity: f64,
    expr: String,
    setup_stats: Vec<InstrStat>,
    profiler: Option<IterProfiler>,
    batch_plan: Option<BatchLowering>,
    batch_state: Option<BatchState>,
    /// Batch size of the most recent iteration (1 before the first).
    last_batch: usize,
}

impl BoundPlan {
    /// Runs one steady-state iteration and reports what it cost, both on the
    /// host clock and in engine charges. The charged figure covers exactly
    /// this iteration's kernels (hoisted setup was charged at bind time), so
    /// on a modeled engine it is the deterministic measured counterpart of
    /// [`crate::cost::CostModelSet::predict_steady_state`] — the pair the
    /// serving runtime's drift detector compares. Allocation-free beyond
    /// what [`BoundPlan::iterate`] itself does (nothing, in steady state).
    /// It is [`BoundPlan::iterate_batched_observed`] at batch one.
    ///
    /// The output buffer stays readable through [`BoundPlan::output`].
    ///
    /// # Errors
    ///
    /// Propagates kernel errors, as [`BoundPlan::iterate`] does.
    pub fn iterate_observed(&mut self, exec: &Exec) -> Result<IterationObservation> {
        self.iterate_batched_observed(exec, 1)
    }

    /// Runs one steady-state iteration — [`BoundPlan::iterate_batched`] at
    /// batch one, on the narrow slots — and returns the output buffer.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (shape mismatches cannot occur for plans that
    /// bound successfully).
    pub fn iterate(&mut self, exec: &Exec) -> Result<&DenseMatrix> {
        self.iterate_batched(exec, 1)?;
        self.output()
    }

    /// Whether this plan admits batched (multi-RHS) execution. Decided at
    /// bind time: true iff every per-iteration instruction has a
    /// column-stacked lowering (attention/edge-wise plans do not).
    pub fn batch_supported(&self) -> bool {
        self.batch_plan.is_some()
    }

    /// The widest batch of two or more [`BoundPlan::iterate_batched`] can
    /// currently run (0 until [`BoundPlan::ensure_batch`] has allocated wide
    /// buffers; a batch of one needs none).
    pub fn batch_capacity(&self) -> usize {
        self.batch_state.as_ref().map_or(0, |s| s.capacity)
    }

    /// Makes sure wide buffers exist for batches up to `capacity` blocks,
    /// allocating (grow-only) when needed and tiling the bound features
    /// across every block. Returns `false` — allocating nothing — when the
    /// plan has no batched lowering. This is the only allocation after bind:
    /// once it has run, batched [`BoundPlan::iterate_batched`] calls up to
    /// `capacity` are allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] for a zero `capacity` and propagates
    /// allocation-guard errors.
    pub fn ensure_batch(&mut self, capacity: usize) -> Result<bool> {
        let Some(lowering) = &self.batch_plan else {
            return Ok(false);
        };
        if capacity == 0 {
            return Err(CoreError::InvalidIr(
                "batch capacity must be at least 1".into(),
            ));
        }
        if self.batch_capacity() >= capacity {
            return Ok(true);
        }
        let mut wide: Vec<Slot> = Vec::with_capacity(self.slots.len());
        wide.resize_with(self.slots.len(), || Slot::Empty);
        for &slot in &lowering.twins {
            let narrow = dense_at(&self.slots, slot, "batched buffer seed")?;
            wide[slot] = Slot::Dense(DenseMatrix::zeros(narrow.rows(), capacity * narrow.cols())?);
        }
        let fs = lowering.features_slot;
        granii_matrix::ops::tile_cols_into(
            dense_at(&self.slots, fs, "features")?,
            capacity,
            dense_out(&mut wide[fs], "features")?,
        )?;
        self.batch_state = Some(BatchState { capacity, wide });
        Ok(true)
    }

    /// Overwrites block `t` of the wide features buffer with `h` — for
    /// callers whose stacked requests carry *distinct* right-hand sides.
    /// (After [`BoundPlan::ensure_batch`], every block defaults to the bound
    /// `H`.) Uncharged, like leaf seeding at bind time. A batch of one reads
    /// the narrow features, never this buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] if the plan has no batched features
    /// buffer, `t` lies outside the bound capacity, or `h` has the wrong
    /// shape.
    pub fn seed_batch_features(&mut self, t: usize, h: &DenseMatrix) -> Result<()> {
        let fs = self
            .batch_plan
            .as_ref()
            .map(|l| l.features_slot)
            .ok_or_else(|| CoreError::InvalidIr("plan has no batched features buffer".into()))?;
        let state = self.batch_state.as_mut().ok_or_else(|| {
            CoreError::InvalidIr("seed_batch_features before ensure_batch".into())
        })?;
        if t >= state.capacity {
            return Err(CoreError::InvalidIr(format!(
                "block {t} outside the bound capacity {}",
                state.capacity
            )));
        }
        let narrow = dense_at(&self.slots, fs, "features")?;
        if h.shape() != narrow.shape() {
            return Err(CoreError::InvalidIr(format!(
                "features block shape {:?} does not match the bound {:?}",
                h.shape(),
                narrow.shape()
            )));
        }
        let buf = dense_out(&mut state.wide[fs], "features")?;
        let k = h.cols();
        for i in 0..h.rows() {
            buf.row_mut(i)[t * k..(t + 1) * k].copy_from_slice(h.row(i));
        }
        Ok(())
    }

    /// Runs one steady-state iteration over `batch` column-stacked requests
    /// — ONE multi-RHS pass through the instruction list. A batch of one runs
    /// on the narrow slots and works on every plan; a larger batch runs the
    /// per-request values on their wide twins. Block `t`'s result (readable
    /// via [`BoundPlan::output_block`]) is bitwise identical to a batch of
    /// one for that request, and the engine is charged exactly `batch`
    /// single-request iterations (per-column charge semantics unchanged), so
    /// a per-request share is `charged / batch`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] for a batch of two or more if the
    /// plan has no batched lowering or `batch` exceeds the
    /// [`BoundPlan::ensure_batch`] capacity, and for a batch of zero;
    /// propagates kernel errors.
    pub fn iterate_batched(&mut self, exec: &Exec, batch: usize) -> Result<()> {
        if batch != 1 {
            if self.batch_plan.is_none() {
                return Err(CoreError::InvalidIr(format!(
                    "plan {} has no batched lowering",
                    self.expr
                )));
            }
            let capacity = self.batch_capacity();
            if batch == 0 || batch > capacity {
                return Err(CoreError::InvalidIr(format!(
                    "batch {batch} outside the bound capacity {capacity}"
                )));
            }
        }
        let wide: &mut [Slot] = match &mut self.batch_state {
            Some(state) if batch > 1 => &mut state.wide,
            _ => &mut [],
        };
        let stats = self.profiler.as_mut().map(|profiler| {
            profiler.iterations += 1;
            &mut profiler.stats[..]
        });
        run_instrs(
            exec,
            &self.iter,
            &self.slot_of,
            &mut self.slots,
            wide,
            batch,
            self.irregularity,
            stats,
        )?;
        self.last_batch = batch;
        Ok(())
    }

    /// [`BoundPlan::iterate_batched`] with the same observation contract as
    /// [`BoundPlan::iterate_observed`]. The charged figure covers the whole
    /// batch (`batch ×` the serial per-request charge on a modeled engine);
    /// divide by `batch` for the per-request share.
    ///
    /// # Errors
    ///
    /// Propagates [`BoundPlan::iterate_batched`] errors.
    pub fn iterate_batched_observed(
        &mut self,
        exec: &Exec,
        batch: usize,
    ) -> Result<IterationObservation> {
        let mark = exec.profile_mark();
        let start = Instant::now();
        self.iterate_batched(exec, batch)?;
        let host_seconds = start.elapsed().as_secs_f64();
        let summary = exec.charged_since(mark);
        Ok(IterationObservation {
            host_seconds,
            charged_seconds: summary.charged_seconds,
            flops: summary.flops,
            bytes: summary.bytes,
        })
    }

    /// Request `t`'s result from the most recent iteration, whatever its
    /// batch size, as a fresh single-request matrix built in one copy. Block
    /// 0 of a batch of one is the narrow output, so this costs what cloning
    /// [`BoundPlan::output`] does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] if `t` lies outside the most recent
    /// batch.
    pub fn output_block(&self, t: usize) -> Result<DenseMatrix> {
        if t >= self.last_batch {
            return Err(CoreError::InvalidIr(format!(
                "block {t} outside the last batch of {}",
                self.last_batch
            )));
        }
        let slot = self.slot_of[self.output];
        let narrow = dense_at(&self.slots, slot, "output")?;
        let wide = match &self.batch_state {
            Some(state) if self.last_batch > 1 => &state.wide[..],
            _ => return Ok(narrow.clone()),
        };
        let src = dense_in(&self.slots, wide, slot, "batched output")?;
        let (rows, k) = narrow.shape();
        let mut data = Vec::with_capacity(rows * k);
        for i in 0..rows {
            data.extend_from_slice(&src.row(i)[t * k..(t + 1) * k]);
        }
        Ok(DenseMatrix::from_vec(rows, k, data)?)
    }

    /// Turns on per-instruction profiling for subsequent iterations of any
    /// batch size. The per-instruction rows are pre-sized here — the
    /// profiled steady-state loop itself performs no heap allocation, and
    /// when profiling is off the only cost on the iterate path is one branch
    /// per instruction.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(IterProfiler {
                iterations: 0,
                stats: vec![InstrStat::default(); self.iter.len()],
            });
        }
    }

    /// Detaches the profiler, discarding any accumulated rows.
    pub fn disable_profiling(&mut self) {
        self.profiler = None;
    }

    /// Whether per-instruction profiling is currently attached.
    pub fn profiling_enabled(&self) -> bool {
        self.profiler.is_some()
    }

    /// Builds a roofline-style [`ProfileReport`]: one `"setup"` row per
    /// hoisted instruction (attributed at bind time) followed by one
    /// `"iter"` row per steady-state instruction (attributed while
    /// profiling was enabled). Render with
    /// [`granii_telemetry::export::profile_table`] or export with
    /// [`granii_telemetry::export::profile_json`] /
    /// [`granii_telemetry::export::chrome_trace_with_counters`].
    pub fn profile_report(&self, exec: &Exec) -> ProfileReport {
        let mut rows = Vec::with_capacity(self.setup.len() + self.iter.len());
        for (i, (instr, stat)) in self.setup.iter().zip(&self.setup_stats).enumerate() {
            rows.push(stat.to_row(i, instr.op.name(), "setup"));
        }
        if let Some(profiler) = &self.profiler {
            for (i, (instr, stat)) in self.iter.iter().zip(&profiler.stats).enumerate() {
                rows.push(stat.to_row(i, instr.op.name(), "iter"));
            }
        }
        ProfileReport {
            expr: self.expr.clone(),
            device: exec.engine().spec().kind.name().to_owned(),
            iterations: self.profiler.as_ref().map_or(0, |p| p.iterations),
            rows,
        }
    }

    /// The narrow output buffer: the result of the most recent batch of one
    /// (a larger batch's blocks are read with [`BoundPlan::output_block`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidIr`] if the output slot is not dense
    /// (cannot occur for plans that built successfully).
    pub fn output(&self) -> Result<&DenseMatrix> {
        dense_at(&self.slots, self.slot_of[self.output], "output")
    }

    /// The program's canonical expression.
    pub fn expr(&self) -> &str {
        &self.expr
    }

    /// Number of physical buffer slots (≤ number of program values, thanks to
    /// slot sharing).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of hoisted instructions (already executed at bind time).
    pub fn setup_len(&self) -> usize {
        self.setup.len()
    }

    /// Number of instructions run per iteration.
    pub fn iter_len(&self) -> usize {
        self.iter.len()
    }
}

fn dense_at<'s>(slots: &'s [Slot], slot: usize, what: &str) -> Result<&'s DenseMatrix> {
    match &slots[slot] {
        Slot::Dense(m) => Ok(m),
        Slot::Shared(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "{what}: expected a dense slot, found {}",
            other.kind_name()
        ))),
    }
}

fn sparse_at<'s>(slots: &'s [Slot], slot: usize, what: &str) -> Result<&'s CsrMatrix> {
    match &slots[slot] {
        Slot::Sparse(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "{what}: expected a sparse slot, found {}",
            other.kind_name()
        ))),
    }
}

fn diag_at<'s>(slots: &'s [Slot], slot: usize, what: &str) -> Result<&'s [f32]> {
    match &slots[slot] {
        Slot::Diag(d) => Ok(d),
        other => Err(CoreError::InvalidIr(format!(
            "{what}: expected a diagonal slot, found {}",
            other.kind_name()
        ))),
    }
}

fn dense_out<'s>(out: &'s mut Slot, what: &str) -> Result<&'s mut DenseMatrix> {
    match out {
        Slot::Dense(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "{what}: expected a dense output slot, found {}",
            other.kind_name()
        ))),
    }
}

fn sparse_out<'s>(out: &'s mut Slot, what: &str) -> Result<&'s mut CsrMatrix> {
    match out {
        Slot::Sparse(m) => Ok(m),
        other => Err(CoreError::InvalidIr(format!(
            "{what}: expected a sparse output slot, found {}",
            other.kind_name()
        ))),
    }
}

fn diag_out<'s>(out: &'s mut Slot, what: &str) -> Result<&'s mut Vec<f32>> {
    match out {
        Slot::Diag(d) => Ok(d),
        other => Err(CoreError::InvalidIr(format!(
            "{what}: expected a diagonal output slot, found {}",
            other.kind_name()
        ))),
    }
}

/// One or more diagonal operands merged into a single factor. Mirrors the
/// interpreter, which folds multi-diagonal sides with uncharged products.
enum MergedDiag<'s> {
    Borrowed(&'s [f32]),
    Owned(Vec<f32>),
}

impl MergedDiag<'_> {
    fn as_slice(&self) -> &[f32] {
        match self {
            MergedDiag::Borrowed(s) => s,
            MergedDiag::Owned(v) => v,
        }
    }
}

fn merge_diags<'s>(
    slots: &'s [Slot],
    slot_of: &[usize],
    ids: &[ValueId],
) -> Result<Option<MergedDiag<'s>>> {
    match ids {
        [] => Ok(None),
        [one] => Ok(Some(MergedDiag::Borrowed(diag_at(
            slots,
            slot_of[*one],
            "scale_csr diag",
        )?))),
        [first, rest @ ..] => {
            let mut acc = diag_at(slots, slot_of[*first], "scale_csr diag")?.to_vec();
            for id in rest {
                let d = diag_at(slots, slot_of[*id], "scale_csr diag")?;
                for (a, &v) in acc.iter_mut().zip(d) {
                    *a *= v;
                }
            }
            Ok(Some(MergedDiag::Owned(acc)))
        }
    }
}

/// The semiring of a weighted or pattern-only SpMM.
fn semiring(weighted: bool) -> Semiring {
    if weighted {
        Semiring::plus_mul()
    } else {
        Semiring::plus_copy_rhs()
    }
}

/// Runs `instrs` in order at `batch` requests, attributing each one's host
/// time and engine charges to its row of `stats` when given.
#[allow(clippy::too_many_arguments)]
fn run_instrs(
    exec: &Exec,
    instrs: &[Instr],
    slot_of: &[usize],
    slots: &mut [Slot],
    wide: &mut [Slot],
    batch: usize,
    irr: f64,
    mut stats: Option<&mut [InstrStat]>,
) -> Result<()> {
    for (i, instr) in instrs.iter().enumerate() {
        let mark = stats
            .is_some()
            .then(|| (exec.profile_mark(), Instant::now()));
        exec_instr(exec, instr, slot_of, slots, wide, batch, irr)?;
        if let (Some(stats), Some((mark, start))) = (stats.as_deref_mut(), mark) {
            stats[i].absorb(start.elapsed().as_nanos() as u64, &exec.charged_since(mark));
        }
    }
    Ok(())
}

/// The buffer a dense operand reads: its wide twin when the running batch
/// has one, the narrow slot otherwise.
fn dense_in<'s>(
    slots: &'s [Slot],
    wide: &'s [Slot],
    slot: usize,
    what: &str,
) -> Result<&'s DenseMatrix> {
    match wide.get(slot) {
        Some(Slot::Dense(m)) => Ok(m),
        _ => dense_at(slots, slot, what),
    }
}

/// Executes one instruction at `batch` requests. `wide` holds the twins of
/// a batch of two or more and is empty for a batch of one, so every operand
/// and output without a twin is its narrow slot. The output is vacated for
/// the duration of the call; slot assignment guarantees it never aliases a
/// live operand, and the wide twins inherit that aliasing structure.
fn exec_instr(
    exec: &Exec,
    instr: &Instr,
    slot_of: &[usize],
    slots: &mut [Slot],
    wide: &mut [Slot],
    batch: usize,
    irr: f64,
) -> Result<()> {
    let out_slot = slot_of[instr.out];
    let twin = matches!(wide.get(out_slot), Some(Slot::Dense(_)));
    let table = if twin { &mut *wide } else { &mut *slots };
    let mut out = std::mem::replace(&mut table[out_slot], Slot::Empty);
    let result = run_into(exec, instr, slot_of, slots, wide, batch, irr, &mut out);
    if twin {
        wide[out_slot] = out;
    } else {
        slots[out_slot] = out;
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn run_into(
    exec: &Exec,
    instr: &Instr,
    slot_of: &[usize],
    slots: &[Slot],
    wide: &[Slot],
    batch: usize,
    irr: f64,
    out: &mut Slot,
) -> Result<()> {
    let dense = |v: ValueId, what| dense_in(slots, wide, slot_of[v], what);
    // One request's column count: the narrow slot's, at every batch size.
    let cols = |v: ValueId| dense_at(slots, slot_of[v], "block width").map(DenseMatrix::cols);
    match &instr.op {
        Op::Gemm { a, b } => {
            exec.gemm_rhs_blocks_into(
                dense(*a, "gemm lhs")?,
                dense(*b, "gemm rhs")?,
                batch,
                dense_out(out, "gemm")?,
            )?;
        }
        Op::Spmm { adj, x, weighted } => {
            exec.spmm_cols_into(
                sparse_at(slots, slot_of[*adj], "spmm adj")?,
                dense(*x, "spmm rhs")?,
                cols(*x)?,
                batch,
                semiring(*weighted),
                irr,
                dense_out(out, "spmm")?,
            )?;
        }
        Op::AttLogits { mask, ul, vr } => {
            let ul = dense_at(slots, slot_of[*ul], "att-logits ul")?;
            let vr = dense_at(slots, slot_of[*vr], "att-logits vr")?;
            exec.sddmm_u_add_v_into(
                sparse_at(slots, slot_of[*mask], "att-logits mask")?,
                ul.as_slice(),
                vr.as_slice(),
                irr,
                sparse_out(out, "att-logits")?,
            )?;
        }
        Op::ScaleCsr { dl, sparse, dr } => {
            let dl = merge_diags(slots, slot_of, dl)?;
            let dr = merge_diags(slots, slot_of, dr)?;
            exec.scale_csr_into(
                dl.as_ref().map(MergedDiag::as_slice),
                sparse_at(slots, slot_of[*sparse], "scale_csr")?,
                dr.as_ref().map(MergedDiag::as_slice),
                irr,
                sparse_out(out, "scale_csr")?,
            )?;
        }
        Op::RowBroadcast { d, x } => {
            exec.row_broadcast_cols_into(
                diag_at(slots, slot_of[*d], "row_broadcast diag")?,
                dense(*x, "row_broadcast")?,
                cols(*x)?,
                batch,
                BroadcastOp::Mul,
                dense_out(out, "row_broadcast")?,
            )?;
        }
        Op::ColBroadcast { x, d } => {
            exec.col_broadcast_blocks_into(
                dense(*x, "col_broadcast")?,
                diag_at(slots, slot_of[*d], "col_broadcast diag")?,
                batch,
                BroadcastOp::Mul,
                dense_out(out, "col_broadcast")?,
            )?;
        }
        Op::LeakyRelu { logits } => {
            let src = sparse_at(slots, slot_of[*logits], "att-leaky")?;
            let vals = src
                .values()
                .ok_or_else(|| CoreError::InvalidIr("attention logits have no values".into()))?;
            let dst = sparse_out(out, "att-leaky")?;
            // Uncharged copy into the output buffer, then the same charged
            // in-place map the interpreter's map_csr_values performs.
            dst.values_mut()
                .expect("plan CSR buffers are weighted")
                .copy_from_slice(vals);
            let slope = GAT_SLOPE;
            exec.map_csr_assign(dst, move |v| if v >= 0.0 { v } else { slope * v })?;
        }
        Op::EdgeSoftmax { scored } => {
            exec.edge_softmax_into(
                sparse_at(slots, slot_of[*scored], "att-softmax")?,
                irr,
                sparse_out(out, "att-softmax")?,
            )?;
        }
        Op::Relu { x } => {
            exec.map_cols_into(
                dense(*x, "relu")?,
                cols(*x)?,
                batch,
                1,
                |v| v.max(0.0),
                dense_out(out, "relu")?,
            )?;
        }
        Op::Add { a, b } => {
            let k = cols(*a)?;
            let dst = dense_out(out, "add")?;
            // Uncharged copy of the left term, then the same charged
            // element-wise add the interpreter performs.
            granii_matrix::ops::copy_cols_into(dense(*a, "add")?, batch * k, dst)?;
            exec.zip_cols_assign(dst, dense(*b, "add")?, k, batch, 1, |a, b| a + b)?;
        }
        Op::DiagMerge { a, b } => {
            let dst = diag_out(out, "diag merge")?;
            let first = diag_at(slots, slot_of[*a], "diag merge")?;
            if dst.len() != first.len() {
                return Err(CoreError::InvalidIr(format!(
                    "diag merge output length {} does not match operand {}",
                    dst.len(),
                    first.len()
                )));
            }
            dst.copy_from_slice(first);
            let d = diag_at(slots, slot_of[*b], "diag merge")?;
            // The same charge the interpreter applies.
            exec.engine().charge(WorkStats::elementwise(d.len(), 1));
            for (a, &v) in dst.iter_mut().zip(d) {
                *a *= v;
            }
        }
    }
    Ok(())
}

/// Owned operand bundle for driving plans without juggling borrows — the
/// canonical leaf/weight naming for each built-in model, matching what
/// `assoc::generate` emits. Borrow it as [`ProgramInputs`] via
/// [`PlanInputs::as_program_inputs`]. The features `H` are held by `Arc`,
/// so every plan bound from one `H` shares it.
#[derive(Debug, Clone)]
pub struct PlanInputs {
    adj: CsrMatrix,
    deg_inv_sqrt: Vec<f32>,
    deg_inv: Vec<f32>,
    h: Arc<DenseMatrix>,
    weights: BTreeMap<String, DenseMatrix>,
    eps: f32,
    irregularity: f64,
}

impl PlanInputs {
    /// Builds deterministic random weights under the leaf names `model`'s
    /// programs reference (`W`, `W1`/`W2`, per-hop `W{k}`, `W_self`/`W_neigh`,
    /// `a_l`/`a_r`) and picks the aggregation mask the model family expects
    /// (raw adjacency for GIN/SAGE, the self-loop form otherwise). Only the
    /// self-loop form builds the context's `Ã`. `h` is taken owned or
    /// already shared.
    pub fn for_model(
        model: ModelKind,
        cfg: LayerConfig,
        ctx: &GraphCtx,
        h: impl Into<Arc<DenseMatrix>>,
        seed: u64,
    ) -> Self {
        let scale = (2.0 / (cfg.k_in + cfg.k_out) as f32).sqrt();
        let mut weights = BTreeMap::new();
        match model {
            ModelKind::Gin => {
                weights.insert(
                    "W1".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
                );
                weights.insert(
                    "W2".into(),
                    DenseMatrix::random(cfg.k_out, cfg.k_out, scale, seed + 1),
                );
            }
            ModelKind::Tagcn => {
                for k in 0..=cfg.hops {
                    weights.insert(
                        format!("W{k}"),
                        DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + k as u64),
                    );
                }
            }
            ModelKind::Sage => {
                weights.insert(
                    "W_self".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
                );
                weights.insert(
                    "W_neigh".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed + 1),
                );
            }
            _ => {
                weights.insert(
                    "W".into(),
                    DenseMatrix::random(cfg.k_in, cfg.k_out, scale, seed),
                );
                weights.insert(
                    "a_l".into(),
                    DenseMatrix::random(cfg.k_out, 1, scale, seed + 1),
                );
                weights.insert(
                    "a_r".into(),
                    DenseMatrix::random(cfg.k_out, 1, scale, seed + 2),
                );
            }
        }
        let raw = matches!(model, ModelKind::Gin | ModelKind::Sage);
        let adj = if raw {
            ctx.graph().adj().clone()
        } else {
            ctx.adj().clone()
        };
        let deg_inv = ctx
            .graph()
            .out_degrees()
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 })
            .collect();
        Self {
            adj,
            deg_inv_sqrt: ctx.deg_inv_sqrt().to_vec(),
            deg_inv,
            h: h.into(),
            weights,
            eps: GIN_EPS,
            irregularity: ctx.irregularity(),
        }
    }

    /// Borrows the bundle in the form [`ExecPlan::bind`] (and the
    /// interpreter) consume.
    pub fn as_program_inputs(&self) -> ProgramInputs<'_> {
        ProgramInputs {
            adj: &self.adj,
            deg_inv_sqrt: &self.deg_inv_sqrt,
            deg_inv: &self.deg_inv,
            h: &self.h,
            weights: &self.weights,
            eps: self.eps,
            irregularity: self.irregularity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CompiledModel;
    use granii_graph::generators;
    use granii_matrix::device::{DeviceKind, Engine};

    fn plan_for(model: ModelKind, cfg: LayerConfig) -> CompiledModel {
        CompiledModel::compile(model, cfg).unwrap()
    }

    #[test]
    fn gcn_precompute_candidates_hoist_structural_steps() {
        let cfg = LayerConfig::new(6, 4);
        let compiled = plan_for(ModelKind::Gcn, cfg);
        // At least one promoted GCN candidate hoists the (D·A·D)
        // normalization: its plan has setup instructions.
        let hoisted = compiled
            .candidates
            .iter()
            .map(|c| ExecPlan::build(&c.program).unwrap())
            .filter(|p| p.setup_len() > 0)
            .count();
        assert!(hoisted > 0);
    }

    #[test]
    fn dense_iteration_slots_are_shared() {
        let cfg = LayerConfig::new(6, 6);
        let compiled = plan_for(ModelKind::Tagcn, cfg);
        let g = generators::power_law(20, 3, 5).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(20, 6, 1.0, 1);
        let inputs = PlanInputs::for_model(ModelKind::Tagcn, cfg, &ctx, h, 2);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        for cand in &compiled.candidates {
            let plan = ExecPlan::build(&cand.program).unwrap();
            let bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            // Multi-hop chains produce more values than they need buffers:
            // hop intermediates die immediately and recycle their slots.
            if plan.iter_len() >= 4 {
                assert!(
                    bound.num_slots() < plan.values.len(),
                    "{}: {} slots for {} values",
                    plan.expr(),
                    bound.num_slots(),
                    plan.values.len()
                );
            }
        }
    }

    #[test]
    fn repeated_iterations_are_stable() {
        let cfg = LayerConfig::new(5, 3);
        let compiled = plan_for(ModelKind::Gat, cfg);
        let g = generators::power_law(18, 3, 9).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(18, 5, 1.0, 4);
        let inputs = PlanInputs::for_model(ModelKind::Gat, cfg, &ctx, h, 6);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        for cand in &compiled.candidates {
            let plan = ExecPlan::build(&cand.program).unwrap();
            let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            let first = bound.iterate(&exec).unwrap().clone();
            let second = bound.iterate(&exec).unwrap();
            assert_eq!(first.max_abs_diff(second).unwrap(), 0.0, "{}", plan.expr());
        }
    }

    #[test]
    fn profiler_attributes_every_instruction() {
        let cfg = LayerConfig::new(6, 4);
        let compiled = plan_for(ModelKind::Gcn, cfg);
        let g = generators::power_law(24, 3, 11).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(24, 6, 1.0, 3);
        let inputs = PlanInputs::for_model(ModelKind::Gcn, cfg, &ctx, h, 5);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        // Pick a candidate with hoisted setup so both phases are exercised.
        let cand = compiled
            .candidates
            .iter()
            .find(|c| {
                ExecPlan::build(&c.program)
                    .map(|p| p.setup_len() > 0)
                    .unwrap_or(false)
            })
            .expect("a GCN candidate with setup");
        let plan = ExecPlan::build(&cand.program).unwrap();
        let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
        assert!(!bound.profiling_enabled());
        bound.enable_profiling();
        const ITERS: u64 = 3;
        for _ in 0..ITERS {
            bound.iterate(&exec).unwrap();
        }
        let report = bound.profile_report(&exec);
        assert_eq!(report.expr, plan.expr());
        assert_eq!(report.device, "cpu");
        assert_eq!(report.iterations, ITERS);
        assert_eq!(
            report.rows.len(),
            plan.setup_len() + plan.iter_len(),
            "one row per instruction"
        );
        for row in &report.rows {
            match row.phase.as_str() {
                "setup" => assert_eq!(row.calls, 1, "{row:?}"),
                "iter" => assert_eq!(row.calls, ITERS, "{row:?}"),
                other => panic!("unexpected phase {other}"),
            }
            // Every GCN instruction moves bytes; the modeled engine charges
            // exactly its roofline prediction.
            assert!(row.bytes > 0, "{row:?}");
            assert!(row.predicted_ns > 0, "{row:?}");
            assert_eq!(row.charged_ns, row.predicted_ns, "{row:?}");
        }
        assert!(report.total_host_ns() > 0);
        // Disabling detaches the iter rows but keeps the setup attribution.
        bound.disable_profiling();
        bound.iterate(&exec).unwrap();
        let report = bound.profile_report(&exec);
        assert_eq!(report.iterations, 0);
        assert!(report.rows.iter().all(|r| r.phase == "setup"));
    }

    #[test]
    fn missing_weights_are_typed_errors_at_bind() {
        let cfg = LayerConfig::new(4, 4);
        let compiled = plan_for(ModelKind::Gcn, cfg);
        let g = generators::ring(6).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = Arc::new(DenseMatrix::zeros(6, 4).unwrap());
        let plan = ExecPlan::build(&compiled.candidates[0].program).unwrap();
        let deg_inv = vec![0.0f32; 6];
        let empty = BTreeMap::new();
        let inputs = ProgramInputs {
            adj: ctx.adj(),
            deg_inv_sqrt: ctx.deg_inv_sqrt(),
            deg_inv: &deg_inv,
            h: &h,
            weights: &empty,
            eps: 0.0,
            irregularity: 0.0,
        };
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let err = plan.bind(&exec, &inputs).unwrap_err();
        assert!(matches!(err, CoreError::InvalidIr(_)), "{err}");
    }

    #[test]
    fn batched_iterations_match_serial_bitwise() {
        let cfg = LayerConfig::new(6, 4);
        for model in [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Sgc,
            ModelKind::Sage,
            ModelKind::Tagcn,
        ] {
            let compiled = plan_for(model, cfg);
            let g = generators::power_law(22, 3, 7).unwrap();
            let ctx = GraphCtx::new(&g).unwrap();
            let h = DenseMatrix::random(22, 6, 1.0, 8);
            let inputs = PlanInputs::for_model(model, cfg, &ctx, h, 9);
            let engine = Engine::modeled(DeviceKind::Cpu);
            let exec = Exec::real(&engine);
            let mut any_batched = false;
            for cand in &compiled.candidates {
                let plan = ExecPlan::build(&cand.program).unwrap();
                let mut serial = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
                let serial_obs = serial.iterate_observed(&exec).unwrap();
                let want = serial.output().unwrap().clone();
                let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
                if !bound.ensure_batch(17).unwrap() {
                    assert!(!bound.batch_supported(), "{}", plan.expr());
                    continue;
                }
                any_batched = true;
                assert!(bound.batch_capacity() >= 17);
                for batch in [1usize, 3, 8, 17] {
                    let obs = bound.iterate_batched_observed(&exec, batch).unwrap();
                    // Per-request modeled charge matches the serial charge
                    // (within f64 rounding of the batch-fold accumulation).
                    let per_request = obs.charged_seconds / batch as f64;
                    assert!(
                        (per_request - serial_obs.charged_seconds).abs()
                            <= 1e-9 * serial_obs.charged_seconds.max(1e-12),
                        "{model} {}: batch {batch} charged {per_request} vs serial {}",
                        plan.expr(),
                        serial_obs.charged_seconds
                    );
                    for t in 0..batch {
                        let got = bound.output_block(t).unwrap();
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "{model} {}: batch {batch} block {t} diverged",
                            plan.expr()
                        );
                    }
                }
            }
            assert!(any_batched, "{model}: no candidate lowered to a batch");
        }
    }

    #[test]
    fn batched_blocks_with_distinct_features_match_their_serial_runs() {
        // Guards against block-indexing bugs that tiling identical RHS
        // columns cannot catch: each block carries its own H and must
        // reproduce exactly the serial run bound to that H.
        let cfg = LayerConfig::new(5, 3);
        let model = ModelKind::Gcn;
        let compiled = plan_for(model, cfg);
        let g = generators::power_law(19, 3, 13).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        const BATCH: usize = 3;
        let hs: Vec<DenseMatrix> = (0..BATCH)
            .map(|t| DenseMatrix::random(19, 5, 1.0, 100 + t as u64))
            .collect();
        let mut checked = 0;
        for cand in &compiled.candidates {
            let plan = ExecPlan::build(&cand.program).unwrap();
            let inputs = PlanInputs::for_model(model, cfg, &ctx, hs[0].clone(), 17);
            let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            if !bound.ensure_batch(BATCH).unwrap() {
                continue;
            }
            for (t, h) in hs.iter().enumerate() {
                bound.seed_batch_features(t, h).unwrap();
            }
            bound.iterate_batched(&exec, BATCH).unwrap();
            for (t, h) in hs.iter().enumerate() {
                let inputs = PlanInputs::for_model(model, cfg, &ctx, h.clone(), 17);
                let mut serial = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
                let want = serial.iterate(&exec).unwrap();
                let got = bound.output_block(t).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{}: block {t} diverged from its serial run",
                    plan.expr()
                );
            }
            checked += 1;
        }
        assert!(checked > 0, "no GCN candidate lowered to a batch");
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn batch_of_one_is_iterate_on_attention_plans() {
        // A batch of one runs on the narrow slots, so it works on every plan
        // — GAT's edge-wise instructions included — with the bits and the
        // charges of `iterate`.
        let cfg = LayerConfig::new(5, 3);
        let compiled = plan_for(ModelKind::Gat, cfg);
        let g = generators::power_law(18, 3, 9).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(18, 5, 1.0, 4);
        let inputs = PlanInputs::for_model(ModelKind::Gat, cfg, &ctx, h, 6);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        for cand in &compiled.candidates {
            let plan = ExecPlan::build(&cand.program).unwrap();
            let mut serial = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            let mark = exec.profile_mark();
            let want = bits(serial.iterate(&exec).unwrap());
            let want_charge = exec.charged_since(mark);
            let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            assert!(!bound.batch_supported(), "{}", plan.expr());
            let mark = exec.profile_mark();
            bound.iterate_batched(&exec, 1).unwrap();
            let charge = exec.charged_since(mark);
            assert_eq!(
                bits(&bound.output_block(0).unwrap()),
                want,
                "{}",
                plan.expr()
            );
            assert_eq!(bits(bound.output().unwrap()), want, "{}", plan.expr());
            assert_eq!(charge.kernels, want_charge.kernels, "{}", plan.expr());
            assert_eq!(charge.charged_seconds, want_charge.charged_seconds);
            assert_eq!(
                (charge.flops, charge.bytes),
                (want_charge.flops, want_charge.bytes)
            );
            assert!(bound.output_block(1).is_err(), "{}", plan.expr());
        }
    }

    #[test]
    fn batch_of_one_reads_the_narrow_slots_on_a_plan_with_twins() {
        // Once a plan has grown wide twins, a batch of one still runs on the
        // narrow slots: its block 0 is the serial output, whatever the twins
        // hold from an earlier batch with distinct features.
        let cfg = LayerConfig::new(5, 3);
        let model = ModelKind::Gcn;
        let compiled = plan_for(model, cfg);
        let g = generators::power_law(19, 3, 13).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        let h = DenseMatrix::random(19, 5, 1.0, 100);
        let other = DenseMatrix::random(19, 5, 1.0, 101);
        let inputs = PlanInputs::for_model(model, cfg, &ctx, h, 17);
        let mut checked = 0;
        for cand in &compiled.candidates {
            let plan = ExecPlan::build(&cand.program).unwrap();
            let mut serial = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            let want = bits(serial.iterate(&exec).unwrap());
            let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            if !bound.ensure_batch(3).unwrap() {
                continue;
            }
            bound.seed_batch_features(0, &other).unwrap();
            bound.iterate_batched(&exec, 3).unwrap();
            assert_ne!(
                bits(&bound.output_block(0).unwrap()),
                want,
                "{}",
                plan.expr()
            );
            bound.iterate_batched(&exec, 1).unwrap();
            assert_eq!(
                bits(&bound.output_block(0).unwrap()),
                want,
                "{}",
                plan.expr()
            );
            assert!(bound.output_block(1).is_err(), "{}", plan.expr());
            checked += 1;
        }
        assert!(checked > 0, "no GCN candidate lowered to a batch");
    }

    #[test]
    fn attention_plans_report_no_batch_lowering() {
        // GAT's edge-wise attention instructions (AttLogits/EdgeSoftmax/…)
        // have no column-stacked lowering; the serving layer must fall back
        // to serial execution for them.
        let cfg = LayerConfig::new(5, 3);
        let compiled = plan_for(ModelKind::Gat, cfg);
        let g = generators::power_law(18, 3, 9).unwrap();
        let ctx = GraphCtx::new(&g).unwrap();
        let h = DenseMatrix::random(18, 5, 1.0, 4);
        let inputs = PlanInputs::for_model(ModelKind::Gat, cfg, &ctx, h, 6);
        let engine = Engine::modeled(DeviceKind::Cpu);
        let exec = Exec::real(&engine);
        for cand in &compiled.candidates {
            let plan = ExecPlan::build(&cand.program).unwrap();
            let mut bound = plan.bind(&exec, &inputs.as_program_inputs()).unwrap();
            assert!(!bound.batch_supported(), "{}", plan.expr());
            assert!(!bound.ensure_batch(4).unwrap(), "{}", plan.expr());
            // Serial iteration still works on the same bound plan.
            bound.iterate(&exec).unwrap();
            let err = bound.iterate_batched(&exec, 2).unwrap_err();
            assert!(matches!(err, CoreError::InvalidIr(_)), "{err}");
        }
    }
}
