//! Analytical device performance models and the execution engine.
//!
//! The paper evaluates on an Intel Xeon CPU, an NVIDIA A100, and an NVIDIA
//! H100. This reproduction has no GPU, so each device is modeled analytically:
//! a kernel's [`WorkStats`] is converted into a latency using a small roofline
//! model with per-device parameters (peak compute, memory bandwidth, sparse
//! efficiency, atomic throughput and contention sensitivity, launch overhead).
//!
//! The parameters are chosen so the qualitative relationships the paper's
//! analysis depends on hold (see `DESIGN.md` §2):
//!
//! 1. dense compute becomes relatively cheaper from CPU → A100 → H100
//!    (§VI-C1 "Difference Across Hardware"),
//! 2. the A100 pays a much higher price for contended atomics than the H100,
//!    which is what makes WiseGraph's binning-based normalization pathological
//!    on dense graphs there (Table III's 10.39× GCN speedup on A100),
//! 3. sparse kernels are bandwidth-bound and degrade with degree skew.
//!
//! The [`Engine`] pairs a device model with a timing policy: `Measured` times
//! real kernel executions on the host CPU, `Modeled` runs the kernel for
//! correctness but charges the modeled latency. Both record a [`Profile`] used
//! by the evaluation harness (e.g. Figure 2's sparse/dense breakdown).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{PrimitiveKind, WorkStats};

/// The hardware platforms of the paper's evaluation (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Intel Xeon Gold 6348 class CPU.
    Cpu,
    /// NVIDIA A100 (with Intel Xeon Platinum 8358 host).
    A100,
    /// NVIDIA H100 (with AMD EPYC 9454 host).
    H100,
}

impl DeviceKind {
    /// All devices, in the paper's presentation order.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::H100, DeviceKind::A100, DeviceKind::Cpu];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::A100 => "a100",
            DeviceKind::H100 => "h100",
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of the analytical latency model for one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Which platform this models.
    pub kind: DeviceKind,
    /// Peak dense fp32 throughput, in GFLOP/s.
    pub dense_gflops: f64,
    /// Peak memory bandwidth, in GB/s.
    pub mem_bw_gbps: f64,
    /// Fraction of peak bandwidth achieved by irregular (sparse) access.
    pub sparse_bw_efficiency: f64,
    /// Fraction of peak compute achieved by sparse kernels.
    pub sparse_compute_efficiency: f64,
    /// Uncontended atomic throughput, in Gops/s.
    pub atomic_gops: f64,
    /// Exponent applied to the contention factor (`contention^exp` multiplies
    /// atomic cost). Higher = the device serializes contended atomics harder.
    pub contention_exponent: f64,
    /// Multiplier applied per unit of irregularity (degree CV) to sparse
    /// kernels' memory time.
    pub irregularity_penalty: f64,
    /// Slowdown of edge-value-reading SpMM relative to the specialized
    /// unweighted copy-sum kernel (indirect value streams break coalescing;
    /// the reason GCN's dynamic normalization wins on dense graphs, §III-A).
    pub weighted_spmm_penalty: f64,
    /// Fixed overhead per kernel launch, in microseconds.
    pub launch_overhead_us: f64,
}

impl DeviceSpec {
    /// CPU preset (Intel Xeon Gold 6348 class).
    pub fn cpu() -> Self {
        Self {
            kind: DeviceKind::Cpu,
            dense_gflops: 1_200.0,
            mem_bw_gbps: 180.0,
            sparse_bw_efficiency: 0.45,
            sparse_compute_efficiency: 0.35,
            atomic_gops: 0.8,
            contention_exponent: 0.25,
            irregularity_penalty: 0.35,
            weighted_spmm_penalty: 1.25,
            launch_overhead_us: 1.0,
        }
    }

    /// A100 preset. Note the low atomic throughput and high contention
    /// exponent relative to the H100 — the property behind the paper's large
    /// A100 speedups for binning-heavy baselines (Table III).
    pub fn a100() -> Self {
        Self {
            kind: DeviceKind::A100,
            dense_gflops: 19_500.0,
            mem_bw_gbps: 1_555.0,
            sparse_bw_efficiency: 0.50,
            sparse_compute_efficiency: 0.25,
            atomic_gops: 0.9,
            contention_exponent: 0.85,
            irregularity_penalty: 0.75,
            weighted_spmm_penalty: 1.18,
            launch_overhead_us: 8.0,
        }
    }

    /// H100 preset: more dense compute, more bandwidth, and markedly better
    /// contended atomics than the A100.
    pub fn h100() -> Self {
        Self {
            kind: DeviceKind::H100,
            dense_gflops: 60_000.0,
            mem_bw_gbps: 3_350.0,
            sparse_bw_efficiency: 0.55,
            sparse_compute_efficiency: 0.30,
            atomic_gops: 14.0,
            contention_exponent: 0.35,
            irregularity_penalty: 0.60,
            weighted_spmm_penalty: 1.12,
            launch_overhead_us: 6.0,
        }
    }

    /// The preset for a device kind.
    pub fn preset(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::Cpu => Self::cpu(),
            DeviceKind::A100 => Self::a100(),
            DeviceKind::H100 => Self::h100(),
        }
    }

    /// Models the latency (seconds) of one primitive invocation.
    ///
    /// Roofline: `launch + max(compute, memory) + atomics`, where sparse
    /// primitives see derated compute/bandwidth and an irregularity penalty,
    /// and atomic cost grows super-linearly with contention.
    pub fn estimate_seconds(&self, stats: &WorkStats) -> f64 {
        let sparse = stats.kind.is_sparse();
        let compute_rate = if sparse {
            self.dense_gflops * 1e9 * self.sparse_compute_efficiency
        } else {
            self.dense_gflops * 1e9
        };
        let bw = if sparse {
            let derate = 1.0 + self.irregularity_penalty * stats.irregularity;
            self.mem_bw_gbps * 1e9 * self.sparse_bw_efficiency / derate
        } else {
            self.mem_bw_gbps * 1e9
        };
        let compute_time = stats.flops as f64 / compute_rate;
        let mut memory_time = stats.bytes_total() as f64 / bw;
        if stats.kind == PrimitiveKind::SpmmWeighted {
            memory_time *= self.weighted_spmm_penalty;
        }
        let atomic_time = if stats.atomic_ops > 0 {
            let contention = stats
                .atomic_contention
                .max(1.0)
                .powf(self.contention_exponent);
            stats.atomic_ops as f64 * contention / (self.atomic_gops * 1e9)
        } else {
            0.0
        };
        self.launch_overhead_us * 1e-6 + compute_time.max(memory_time) + atomic_time
    }
}

/// How the engine produces timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Timing {
    /// Wall-clock measurement of the real host execution (valid CPU numbers).
    Measured,
    /// Analytical latency from the device model (GPU substitution).
    Modeled,
}

/// One profiled primitive invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Primitive kind.
    pub kind: PrimitiveKind,
    /// Charged latency in seconds.
    pub seconds: f64,
    /// The work record that produced the charge.
    pub stats: WorkStats,
}

/// Accumulated execution profile: the source for the paper's runtime
/// breakdowns (Figure 2) and overhead reporting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Entries in execution order.
    pub entries: Vec<ProfileEntry>,
}

impl Profile {
    /// Total charged seconds.
    pub fn total_seconds(&self) -> f64 {
        self.entries.iter().map(|e| e.seconds).sum()
    }

    /// Seconds spent in sparse primitives.
    pub fn sparse_seconds(&self) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.kind.is_sparse())
            .map(|e| e.seconds)
            .sum()
    }

    /// Fraction of time in sparse primitives (0 when nothing ran).
    pub fn sparse_fraction(&self) -> f64 {
        let total = self.total_seconds();
        if total > 0.0 {
            self.sparse_seconds() / total
        } else {
            0.0
        }
    }

    /// Seconds aggregated per primitive kind.
    pub fn by_kind(&self) -> Vec<(PrimitiveKind, f64)> {
        let mut acc: Vec<(PrimitiveKind, f64)> = Vec::new();
        for e in &self.entries {
            match acc.iter_mut().find(|(k, _)| *k == e.kind) {
                Some((_, s)) => *s += e.seconds,
                None => acc.push((e.kind, e.seconds)),
            }
        }
        acc
    }

    /// Appends another profile's entries (in `other`'s execution order, after
    /// this profile's existing entries). Used to aggregate per-iteration or
    /// per-engine profiles into one report.
    pub fn merge(&mut self, other: Profile) {
        self.entries.extend(other.entries);
    }
}

impl std::fmt::Display for Profile {
    /// Per-kind breakdown table: calls, invocation count, charged seconds,
    /// and fraction of the profile total (the Figure 2 view).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_seconds();
        writeln!(
            f,
            "{:<16} {:>7} {:>12} {:>8}",
            "primitive", "calls", "seconds", "share"
        )?;
        for (kind, seconds) in self.by_kind() {
            let calls = self.entries.iter().filter(|e| e.kind == kind).count();
            let share = if total > 0.0 {
                100.0 * seconds / total
            } else {
                0.0
            };
            writeln!(
                f,
                "{:<16} {calls:>7} {seconds:>12.6} {share:>7.1}%",
                kind.name()
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>7} {total:>12.6} {:>7.1}%",
            "total",
            self.entries.len(),
            100.0
        )?;
        write!(f, "sparse fraction: {:.1}%", 100.0 * self.sparse_fraction())
    }
}

/// Executes kernels on a device, producing correct results plus a profile of
/// measured or modeled latencies.
///
/// # Example
///
/// ```
/// use granii_matrix::device::{DeviceKind, Engine};
/// use granii_matrix::WorkStats;
///
/// let engine = Engine::modeled(DeviceKind::A100);
/// let out = engine.run(WorkStats::gemm(64, 64, 64), || 2 + 2);
/// assert_eq!(out, 4);
/// assert!(engine.elapsed_seconds() > 0.0);
/// ```
#[derive(Debug)]
pub struct Engine {
    spec: DeviceSpec,
    timing: Timing,
    profile: Mutex<Profile>,
}

impl Engine {
    /// An engine that models latencies for `kind` using its preset.
    pub fn modeled(kind: DeviceKind) -> Self {
        Self::new(DeviceSpec::preset(kind), Timing::Modeled)
    }

    /// An engine that measures real wall-clock time on the host CPU.
    pub fn cpu_measured() -> Self {
        Self::new(DeviceSpec::cpu(), Timing::Measured)
    }

    /// An engine with an explicit spec and timing policy.
    pub fn new(spec: DeviceSpec, timing: Timing) -> Self {
        Self {
            spec,
            timing,
            profile: Mutex::new(Profile::default()),
        }
    }

    /// The device model in use.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The timing policy in use.
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Runs a kernel, charging either its measured wall time or the modeled
    /// latency for `stats`, and returns the kernel's output.
    pub fn run<T>(&self, stats: WorkStats, f: impl FnOnce() -> T) -> T {
        let mut span = granii_telemetry::span!(
            stats.kind.span_name(),
            flops = stats.flops,
            bytes = stats.bytes_total(),
            irregularity = stats.irregularity,
        );
        let (out, seconds) = match self.timing {
            Timing::Measured => {
                let start = std::time::Instant::now();
                let out = f();
                (out, start.elapsed().as_secs_f64())
            }
            Timing::Modeled => {
                let out = f();
                (out, self.spec.estimate_seconds(&stats))
            }
        };
        span.attr("charged_s", seconds);
        drop(span);
        self.profile.lock().entries.push(ProfileEntry {
            kind: stats.kind,
            seconds,
            stats,
        });
        out
    }

    /// Charges work without running anything (used when the caller already has
    /// the result, e.g. replaying a profile).
    pub fn charge(&self, stats: WorkStats) {
        let seconds = match self.timing {
            Timing::Measured => self.spec.estimate_seconds(&stats),
            Timing::Modeled => self.spec.estimate_seconds(&stats),
        };
        let _span = granii_telemetry::span!(
            stats.kind.span_name(),
            flops = stats.flops,
            bytes = stats.bytes_total(),
            charged_s = seconds,
        );
        self.profile.lock().entries.push(ProfileEntry {
            kind: stats.kind,
            seconds,
            stats,
        });
    }

    /// Total seconds charged so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.profile.lock().total_seconds()
    }

    /// Takes and resets the accumulated profile.
    pub fn take_profile(&self) -> Profile {
        std::mem::take(&mut *self.profile.lock())
    }

    /// Discards the accumulated profile but keeps its capacity, so an
    /// engine that charges about as many kernels per round as the round
    /// before does not reallocate the entries.
    pub fn clear_profile(&self) {
        self.profile.lock().entries.clear();
    }

    /// Number of kernels charged so far. Use as a mark for
    /// [`Engine::summarize_since`] to attribute charges to a region without
    /// draining the profile (which [`Engine::take_profile`] would).
    pub fn profile_len(&self) -> usize {
        self.profile.lock().entries.len()
    }

    /// Aggregates every kernel charged since `mark` (a prior
    /// [`Engine::profile_len`]) into one [`ChargeSummary`], leaving the
    /// profile intact. `predicted_seconds` is always the device-model
    /// roofline estimate, independent of the timing policy, so a measuring
    /// engine yields an achieved-vs-predicted comparison.
    pub fn summarize_since(&self, mark: usize) -> ChargeSummary {
        let profile = self.profile.lock();
        let mut summary = ChargeSummary::default();
        for entry in profile.entries.iter().skip(mark) {
            summary.kernels += 1;
            summary.charged_seconds += entry.seconds;
            summary.predicted_seconds += self.spec.estimate_seconds(&entry.stats);
            summary.flops += entry.stats.flops;
            summary.bytes += entry.stats.bytes_read + entry.stats.bytes_written;
        }
        summary
    }
}

/// Aggregate of a contiguous run of charged kernels; see
/// [`Engine::summarize_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChargeSummary {
    /// Number of kernels in the range.
    pub kernels: u64,
    /// Seconds the engine charged (measured or modeled per its policy).
    pub charged_seconds: f64,
    /// Device-model roofline estimate for the same work.
    pub predicted_seconds: f64,
    /// Total floating-point operations.
    pub flops: u64,
    /// Total bytes read plus written.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_relatively_cheaper_on_newer_devices() {
        // Ratio of GEMM to SpMM modeled time must fall from CPU to A100 to
        // H100 — the paper's "dense operations gradually become more
        // optimized" observation.
        let gemm = WorkStats::gemm(10_000, 512, 512);
        let spmm = WorkStats::spmm(10_000, 2_000_000, 512, false, 1.0);
        let ratio = |kind: DeviceKind| {
            let spec = DeviceSpec::preset(kind);
            spec.estimate_seconds(&gemm) / spec.estimate_seconds(&spmm)
        };
        assert!(ratio(DeviceKind::Cpu) > ratio(DeviceKind::A100));
        assert!(ratio(DeviceKind::A100) > ratio(DeviceKind::H100));
    }

    #[test]
    fn a100_punishes_contended_atomics_harder_than_h100() {
        let contended = WorkStats::binning(10_000_000, 20_000); // dense graph
        let a100 = DeviceSpec::a100().estimate_seconds(&contended);
        let h100 = DeviceSpec::h100().estimate_seconds(&contended);
        assert!(a100 > 10.0 * h100, "a100 = {a100}, h100 = {h100}");
    }

    #[test]
    fn irregularity_slows_sparse_kernels() {
        let spec = DeviceSpec::h100();
        let regular = WorkStats::spmm(1000, 100_000, 64, true, 0.0);
        let skewed = WorkStats::spmm(1000, 100_000, 64, true, 5.0);
        assert!(spec.estimate_seconds(&skewed) > spec.estimate_seconds(&regular));
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let spec = DeviceSpec::h100();
        let tiny = WorkStats::elementwise(1, 1);
        assert!(spec.estimate_seconds(&tiny) >= spec.launch_overhead_us * 1e-6);
    }

    #[test]
    fn engine_profiles_modeled_runs() {
        let e = Engine::modeled(DeviceKind::H100);
        let v = e.run(WorkStats::gemm(8, 8, 8), || 42);
        assert_eq!(v, 42);
        e.run(WorkStats::spmm(8, 16, 8, false, 0.0), || ());
        let p = e.take_profile();
        assert_eq!(p.entries.len(), 2);
        assert!(p.sparse_fraction() > 0.0 && p.sparse_fraction() < 1.0);
        // Profile is reset after take.
        assert_eq!(e.elapsed_seconds(), 0.0);
    }

    #[test]
    fn engine_measures_real_time() {
        let e = Engine::cpu_measured();
        e.run(WorkStats::elementwise(1, 1), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(e.elapsed_seconds() >= 0.002);
    }

    #[test]
    fn summarize_since_attributes_marked_region() {
        let e = Engine::modeled(DeviceKind::Cpu);
        e.charge(WorkStats::gemm(8, 8, 8));
        let mark = e.profile_len();
        e.charge(WorkStats::spmm(8, 16, 8, false, 0.0));
        e.charge(WorkStats::row_broadcast(8, 8));
        let s = e.summarize_since(mark);
        assert_eq!(s.kernels, 2);
        assert!(s.charged_seconds > 0.0);
        // A modeled engine charges exactly the roofline estimate.
        assert!((s.charged_seconds - s.predicted_seconds).abs() < 1e-15);
        assert!(s.flops > 0 && s.bytes > 0);
        // The profile is left intact, unlike take_profile().
        assert_eq!(e.profile_len(), 3);
        e.clear_profile();
        assert_eq!(e.profile_len(), 0);
        assert_eq!(e.elapsed_seconds(), 0.0);
    }

    #[test]
    fn by_kind_aggregates() {
        let e = Engine::modeled(DeviceKind::Cpu);
        e.charge(WorkStats::gemm(8, 8, 8));
        e.charge(WorkStats::gemm(8, 8, 8));
        e.charge(WorkStats::row_broadcast(8, 8));
        let by = e.take_profile().by_kind();
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].0, PrimitiveKind::Gemm);
    }
}
