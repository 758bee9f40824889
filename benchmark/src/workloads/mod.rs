//! The five workloads and what one repetition of any of them returns.
//!
//! A repetition builds a fresh simulated cluster from the seed, runs it to
//! the first measured operation (*set-up*), then runs the measured phase to
//! the end and checks the outputs. Every workload is sized by operation
//! count, never by per-call compute, so a rep takes 1–3 s on one pinned
//! core regardless of the model's CPU cost constants.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use obs::Obs;
use simnet::{Kernel, KernelStats, Pid, SimDuration, SimTime};

use crate::trace::{OpWall, Stopwatch, ThreadCpu, Tracer};

pub mod cell;
pub mod crash;
pub mod fig3;
pub mod rpc;
pub mod table1;

/// A workload: a named, seed-parameterised experiment.
pub trait Workload {
    /// The fixed workload name (`rpc_small`, …).
    fn name(&self) -> &'static str;

    /// Run one repetition on inputs generated from `seed`.
    fn rep(&self, seed: u64, cx: &mut RepCx<'_>) -> Rep;

    /// Output checks too expensive to repeat in every rep; run once,
    /// against the warm-up rep. Returns one line per failed check.
    fn cross_check(&self, _seed: u64, _warmup: &Rep) -> Vec<String> {
        Vec::new()
    }
}

/// The full-size workloads, in report order.
pub fn all() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(rpc::Rpc::small()),
        Box::new(rpc::Rpc::bulk()),
        Box::new(fig3::Fig3Load::full()),
        Box::new(table1::Table1Ft::full()),
        Box::new(crash::CrashRecovery::full()),
    ]
}

/// Tiny versions of the same workloads (seconds → milliseconds), for the
/// determinism smoke tests.
pub fn all_tiny() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(rpc::Rpc::small().with_rounds(200)),
        Box::new(rpc::Rpc::bulk().with_rounds(20)),
        Box::new(fig3::Fig3Load::tiny()),
        Box::new(table1::Table1Ft::tiny()),
        Box::new(crash::CrashRecovery::tiny()),
    ]
}

/// What a rep may use besides the seed: the span recorder and, in the
/// traced pass, the kernel-mark consumer.
pub struct RepCx<'a> {
    /// Harness-side spans (disabled in the untraced pass).
    pub tracer: &'a mut Tracer,
    /// Kernel profile-mark consumer; `Some` only in the traced pass.
    pub op_wall: Option<Rc<RefCell<OpWall>>>,
}

impl RepCx<'_> {
    /// Whether this is the traced pass: profile hook installed, an `Obs`
    /// sink handed to every process the harness spawns.
    pub fn traced(&self) -> bool {
        self.op_wall.is_some()
    }

    /// The sink to hand to harness-spawned processes: one in the traced
    /// pass, none otherwise.
    pub fn sink(&self) -> Option<Obs> {
        self.traced().then(Obs::new)
    }

    /// Install the profile hook on a freshly built kernel (traced pass
    /// only).
    pub fn instrument(&self, kernel: &mut Kernel) {
        if let Some(wall) = &self.op_wall {
            OpWall::install(kernel, wall);
        }
    }

    /// Run `kernel` up to (not including) virtual instant `t0` as set-up,
    /// then until `until_exit` exits as the measured phase; add both
    /// phases' time to `out` and fold the kernel's counters into
    /// `layers`. `built_since` was started when the caller began building
    /// the cluster.
    pub fn run_phases(
        &mut self,
        kernel: &mut Kernel,
        t0: SimTime,
        until_exit: Pid,
        built_since: Stopwatch,
        out: &mut PhaseTime,
        layers: &mut LayerSample,
    ) {
        let before = SimTime::from_nanos(t0.as_nanos().saturating_sub(1));
        self.tracer
            .span("Kernel::run_until", "simnet", || kernel.run_until(before));
        let (wall, cpu) = built_since.elapsed();
        out.setup_wall_ns += wall;
        out.setup_cpu_ns += cpu;
        let at_t0 = kernel.stats();
        let measure = Stopwatch::start();
        self.tracer.span("Kernel::run_until_exit", "simnet", || {
            kernel.run_until_exit(until_exit)
        });
        let (wall, cpu) = measure.elapsed();
        out.measure_wall_ns += wall;
        out.measure_cpu_ns += cpu;
        layers.absorb_kernel(kernel, at_t0);
        if self.traced() {
            layers.threads.sample_live();
        }
    }
}

/// Time of a rep's two phases on both host clocks: *set-up* is cluster
/// construction plus the simulated boot, up to the first measured
/// operation; *measure* is the measured phase. The CPU clock
/// ([`crate::trace::process_cpu_ns`]) is what the time metrics report; the
/// wall clock is kept beside it as a diagnostic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Set-up, wall ns.
    pub setup_wall_ns: u64,
    /// Set-up, CPU ns.
    pub setup_cpu_ns: u64,
    /// Measured phase, wall ns.
    pub measure_wall_ns: u64,
    /// Measured phase, CPU ns.
    pub measure_cpu_ns: u64,
}

/// One repetition's results.
pub struct Rep {
    /// Host clocks (CPU and wall).
    pub time: PhaseTime,
    /// Virtual clock and output checks — a pure function of the seed.
    pub virt: Virtual,
    /// Per-layer raw material.
    pub layers: LayerSample,
}

/// The deterministic part of a rep: every value here must repeat exactly
/// for the same seed. The harness compares whole `Virtual`s with `==`
/// across the reps of a run, the tests across runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Virtual {
    /// Virtual ns of the measured phase.
    pub runtime_ns: u64,
    /// Virtual latency of each client-visible operation, ns, in issue
    /// order.
    pub op_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that surfaced an exception or a wrong result, plus one
    /// per failed output check.
    pub failed: u64,
    /// The workload's own end-to-end numbers (`ft_overhead_ratio`, …);
    /// absent where they do not apply.
    pub headline: BTreeMap<&'static str, f64>,
    /// Further deterministic outputs that must repeat (final balance,
    /// recovery count, …), by name.
    pub outputs: BTreeMap<&'static str, u64>,
    /// One line per failed output check.
    pub check_failures: Vec<String>,
}

impl Virtual {
    /// Record a failed output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.check_failures.push(why);
    }
}

/// Per-layer raw material gathered from outside the crates: kernel
/// counters, the observability sinks, thread CPU.
#[derive(Default)]
pub struct LayerSample {
    /// `Kernel::stats()`, summed over the rep's kernels.
    pub events: u64,
    /// Messages delivered.
    pub msgs_delivered: u64,
    /// Messages delivered during the measured phase only.
    pub msgs_measured: u64,
    /// Messages dropped.
    pub msgs_dropped: u64,
    /// Processes spawned.
    pub procs_spawned: u64,
    /// `Kernel::profile()` peaks, max over the rep's kernels.
    pub event_queue_peak: u64,
    /// Peak runnable-queue length.
    pub runnable_peak: u64,
    /// Peak mailbox depth.
    pub mailbox_peak: u64,
    /// Every sink the rep's processes recorded into.
    pub sinks: Vec<Obs>,
    /// CPU time of the simulated-process threads (traced pass only).
    pub threads: ThreadCpu,
    /// Workload-specific per-layer values, by metric name.
    pub extra: BTreeMap<&'static str, f64>,
}

impl LayerSample {
    /// Fold one finished kernel's counters in. `at_t0` is its
    /// `stats()` at the start of the measured phase.
    pub fn absorb_kernel(&mut self, kernel: &Kernel, at_t0: KernelStats) {
        let s = kernel.stats();
        self.events += s.events;
        self.msgs_delivered += s.msgs_delivered;
        self.msgs_measured += s.msgs_delivered - at_t0.msgs_delivered;
        self.msgs_dropped += s.msgs_dropped;
        self.procs_spawned += s.spawned;
        let p = kernel.profile();
        self.event_queue_peak = self.event_queue_peak.max(p.event_queue_peak);
        self.runnable_peak = self.runnable_peak.max(p.runnable_peak);
        self.mailbox_peak = self.mailbox_peak.max(p.mailbox_peak);
    }

    /// Sum of a counter over the rep's sinks.
    pub fn counter(&self, name: &str) -> u64 {
        self.sinks.iter().map(|s| s.counter(name)).sum()
    }
}

/// CDR bytes one outer objective evaluation moves between the manager and
/// its workers: per worker, the `solve` arguments plus the result, encoded
/// from representative values of the right shape (the encoding is
/// fixed-width, so the values do not matter).
pub fn solve_fanout_bytes(n: usize, workers: usize) -> usize {
    optim::Partition::even(n, workers)
        .sub_dims()
        .iter()
        .map(|&dim| {
            let spec = optim::SolveSpec {
                problem_id: 0,
                dim: dim as u32,
                left: Some(0.0),
                right: Some(0.0),
                iters: 0,
                seed: 0,
                reset: false,
            };
            let result = optim::SolveResult {
                best_value: 0.0,
                best_point: vec![0.0; dim],
                iterations: 0,
                evals: 0,
            };
            cdr::to_bytes(&(&spec,)).len() + cdr::to_bytes(&result).len()
        })
        .sum()
}

/// The LAN's one-way latency for this seed: the model's 150 µs ± 0.4 %.
///
/// The virtual clock is deterministic, and in most of these workloads an
/// operation's latency does not depend on the seed-generated *values*
/// (payload contents, deposit amounts), so without this many seeds would
/// report the same virtual times to the last digit — which the benchmark
/// contract treats as a constant, not a measurement. The seed therefore
/// also draws how far apart the workstations sit. The range is small
/// enough that the seed-to-seed spread of `virt_op_*` stays far inside
/// their bound, and a model change moves every seed's numbers by the same
/// amount. `fig3_load` is exempt: its cells must equal `run_experiment`
/// bit for bit, and they vary with the seed anyway.
pub fn lan_latency(seed: u64) -> SimDuration {
    use rand::{Rng, SeedableRng};
    let base = simnet::NetConfig::default().latency_remote.as_nanos() as f64;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x004C_414E_5F4C_4154);
    let unit: f64 = rng.random();
    SimDuration::from_nanos((base * (1.0 + 0.004 * (2.0 * unit - 1.0))) as u64)
}
