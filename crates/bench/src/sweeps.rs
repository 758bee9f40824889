//! The parameter sweeps behind the paper's Figure 3 and Table 1 and the
//! four ablation studies, and the instrumented reference cell behind the
//! `doctor` bin and the perf suite's chaos cell.

use corba_runtime::{
    averaged_runtime, run_experiment, CrashPlan, ExperimentOutcome, ExperimentSpec, NamingMode,
    StoreCrashPlan, WinnerPolicy,
};
use ftproxy::CheckpointMode;
use optim::{FtSettings, RunReport};
use simnet::SimDuration;

use crate::RunArgs;

/// One sweep cell — a Figure 3 point, one side of a Table 1 row, an
/// ablation setting — averaged over the seeds.
#[derive(Clone, Debug)]
pub struct Row {
    /// The cell's label (first table / CSV column).
    pub label: String,
    /// The cell as it ran (number of calls scaled).
    pub spec: ExperimentSpec,
    /// Mean runtime in virtual seconds.
    pub runtime: f64,
    /// The manager's report of each seed's run.
    pub reports: Vec<RunReport>,
}

impl Row {
    /// A counter of the per-seed reports, summed over the seeds.
    pub fn total(&self, field: fn(&RunReport) -> u64) -> u64 {
        self.reports.iter().map(field).sum()
    }
}

/// Run each `(label, spec)` cell over the seeds, with its number of calls
/// scaled by the run scale (never their length).
fn sweep<L: Into<String>>(
    args: &RunArgs,
    cases: impl IntoIterator<Item = (L, ExperimentSpec)>,
) -> Vec<Row> {
    let row = |(label, mut spec): (L, ExperimentSpec)| {
        spec.manager_iters = args.calls(spec.manager_iters);
        let (runtime, runs) = averaged_runtime(&spec, &args.seeds).expect("experiment run failed");
        let (label, reports) = (label.into(), runs.into_iter().map(|r| r.report).collect());
        eprint!(".");
        Row {
            label,
            spec,
            runtime,
            reports,
        }
    };
    cases.into_iter().map(row).collect()
}

/// Figure 3's x-axis: how many of the 10 NOW hosts carry background load.
pub const FIG3_LOADS: [usize; 5] = [0, 2, 4, 6, 8];

/// The Figure 3 sweep: {30/3, 100/7} × {plain, Winner} × loaded ∈
/// [`FIG3_LOADS`], one row per point, labelled with its curve (e.g.
/// `CORBA/Winner 100/7`).
pub fn fig3_sweep(args: &RunArgs) -> Vec<Row> {
    let mut cases = Vec::new();
    for make in [ExperimentSpec::dim30, ExperimentSpec::dim100] {
        for (naming, curve) in [
            (NamingMode::Plain, "CORBA"),
            (NamingMode::Winner, "CORBA/Winner"),
        ] {
            for loaded in FIG3_LOADS {
                let spec = make(naming.clone()).loaded(loaded);
                cases.push((format!("{curve} {}/{}", spec.n, spec.workers), spec));
            }
        }
    }
    sweep(args, cases)
}

/// The *reference cell* behind the `doctor` bin and the perf suite's
/// chaos cell: the 30-dim / 3-worker scenario under Winner naming with
/// fault-tolerance proxies, at the first seed, and — with `crash` — a
/// mid-run host crash (restarted later).
pub(crate) fn reference_spec(args: &RunArgs, crash: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner);
    spec.worker_iters = args.scaled(spec.worker_iters);
    // Exactly as many worker hosts as workers, so the scheduled crash is
    // guaranteed to take out a selected worker and force a recovery
    // episode into the trace.
    spec.available_hosts = spec.workers;
    spec.ft = Some(FtSettings::default());
    if crash {
        spec.crash = Some(CrashPlan {
            after: SimDuration::from_millis(200),
            now_host_index: 0,
            restart_after: Some(SimDuration::from_secs(2)),
        });
    }
    spec.seed(args.first_seed())
}

/// Run the reference cell with the doctor on and return the outcome (its
/// `doctor` carries the doctor report, its `obs` the trace and metrics).
///
/// `crash` selects between the healthy baseline (no fault injection; the
/// doctor must report zero violations) and the crash cell (whose flight
/// recorder must dump a post-mortem with the recovery episode).
/// Deterministic: same seed and scale yield a byte-identical report and
/// exports.
pub fn doctor_cell(args: &RunArgs, crash: bool) -> ExperimentOutcome {
    let mut spec = reference_spec(args, crash);
    spec.monitor = Some(monitor::MonitorConfig);
    run_experiment(&spec).expect("reference cell failed")
}

/// The Table 1 sweep: the 100-dim / 7-worker problem, unloaded, across
/// worker iteration counts, each without and then with fault-tolerance
/// proxies (rows in pairs). The scale cuts the number of calls, so the
/// per-call overhead is measured at the paper's call lengths.
pub fn table1_sweep(args: &RunArgs) -> Vec<Row> {
    let cases = [10_000, 20_000, 30_000, 40_000, 50_000]
        .into_iter()
        .flat_map(|worker_iters| {
            let plain = ExperimentSpec {
                worker_iters,
                ..ExperimentSpec::dim100(NamingMode::Winner)
            };
            let ft = Some(FtSettings::default());
            [
                ("without proxy", plain.clone()),
                ("with proxy", ExperimentSpec { ft, ..plain }),
            ]
        });
    sweep(args, cases)
}

fn ft(mode: CheckpointMode, checkpoint_every: u32, max_recoveries: u32) -> Option<FtSettings> {
    Some(FtSettings {
        mode,
        checkpoint_every,
        max_recoveries,
    })
}

/// Checkpoint-strategy ablation labels (the rows [`crate::claims`] reads).
pub mod ckpt {
    pub const BASELINE: &str = "no FT (baseline)";
    pub const PER_VALUE: &str = "per-value, every call (paper)";
    pub const PER_VALUE_5: &str = "per-value, every 5th call";
    pub const BULK: &str = "bulk, every call (future work (a))";
    pub const BULK_5: &str = "bulk, every 5th call";
}

/// **Checkpointing strategy.** The paper checkpoints "after each method
/// call" through an unoptimized per-value store and names optimization as
/// future work: per-value vs bulk transport, every call vs every 5th, on
/// the 100-dim / 7-worker problem, unloaded.
pub fn ckpt_sweep(args: &RunArgs) -> Vec<Row> {
    use CheckpointMode::{Bulk, None as NoCkpt, PerValue};
    let strategies = [
        (ckpt::BASELINE, None),
        (ckpt::PER_VALUE, ft(PerValue, 1, 4)),
        (ckpt::PER_VALUE_5, ft(PerValue, 5, 4)),
        (ckpt::BULK, ft(Bulk, 1, 4)),
        (ckpt::BULK_5, ft(Bulk, 5, 4)),
        ("FT proxies, no checkpointing", ft(NoCkpt, 1, 4)),
    ];
    let spec = |ft| ExperimentSpec {
        ft,
        ..ExperimentSpec::dim100(NamingMode::Winner)
    };
    sweep(args, strategies.map(|(label, ft)| (label, spec(ft))))
}

/// Policy ablation labels (the rows [`crate::claims`] reads) and load.
pub mod policy {
    pub const LOADED: usize = 3;
    pub const BEST_PERFORMANCE: &str = "best-performance (paper)";
    pub const UNIFORM: &str = "uniform-random";
}

/// **Selection policy.** The paper's system manager picks "the machine
/// with the currently best performance"; this compares it with
/// least-loaded, weighted-random, uniform-random and the plain
/// (load-oblivious) service, with [`policy::LOADED`] of 10 hosts loaded.
pub fn policy_sweep(args: &RunArgs) -> Vec<Row> {
    use WinnerPolicy::{BestPerformance, LeastLoaded, Uniform, WeightedRandom};
    let winner = |policy| ExperimentSpec {
        policy,
        ..ExperimentSpec::dim100(NamingMode::Winner)
    };
    let policies = [
        (policy::BEST_PERFORMANCE, winner(BestPerformance)),
        ("least-loaded", winner(LeastLoaded)),
        ("weighted-random", winner(WeightedRandom)),
        (policy::UNIFORM, winner(Uniform)),
        (
            "plain naming (round-robin)",
            ExperimentSpec::dim100(NamingMode::Plain),
        ),
    ];
    sweep(
        args,
        policies.map(|(label, spec)| (label, spec.loaded(policy::LOADED))),
    )
}

/// Recovery ablation labels (the rows [`crate::claims`] reads).
pub mod recovery {
    pub const SLOW_TIMEOUT: &str = "crash, FT bulk, 60 s timeout";
    pub const SHORT_TIMEOUT: &str = "crash, FT bulk, short timeout";
}

/// **Recovery cost.** A worker host crashes 40 % into the FT-free
/// baseline's runtime, so it lands mid-run at any scale; the FT proxies
/// recover. Both checkpoint transports, and the bulk cell at two request
/// timeouts: the ORB finds a silent peer out by asking its host
/// (keepalive probes), so the two must cost the same.
pub fn recovery_sweep(args: &RunArgs) -> Vec<Row> {
    let base = ExperimentSpec::dim100(NamingMode::Winner);
    let mut rows = sweep(args, [("no crash, no FT (baseline)", base.clone())]);
    let baseline = rows[0].runtime;
    let crash = Some(CrashPlan {
        after: SimDuration::from_secs_f64(baseline * 0.4),
        now_host_index: 0, // the first NOW host: always holds a worker slot
        restart_after: None,
    });
    // A timeout bounds one call, so it does not scale with the run. The
    // short one must still outlast the keepalive verdict when the crash
    // lands after few calls and the endpoint's round-trip deviation has
    // not decayed (at `--quick`, 0.55 s did not).
    let slow = SimDuration::from_secs(60);
    let short = SimDuration::from_secs(1);
    let bulk = |every| ft(CheckpointMode::Bulk, every, 6);
    let per_value = ft(CheckpointMode::PerValue, 1, 6);
    let cases = [
        ("no crash, FT bulk", bulk(1), None, slow),
        (recovery::SLOW_TIMEOUT, bulk(1), crash, slow),
        (recovery::SHORT_TIMEOUT, bulk(1), crash, short),
        (
            "crash, FT bulk, every 5th call, short timeout",
            bulk(5),
            crash,
            short,
        ),
        (
            "crash, FT per-value (paper), short timeout",
            per_value,
            crash,
            short,
        ),
    ];
    let spec = |(label, ft, crash, request_timeout)| {
        (
            label,
            ExperimentSpec {
                ft,
                crash,
                request_timeout,
                ..base.clone()
            },
        )
    };
    rows.extend(sweep(args, cases.map(spec)));
    rows
}

/// **Checkpoint-store replication.** The paper deploys a single
/// checkpoint service, a single point of failure its own Section 5
/// acknowledges. Bulk checkpoints after every call under Plain naming
/// (deterministic store binding, so store index 0 is the primary), at 1,
/// 2 and 3 replicas, healthy and with the primary store host crashing at
/// +0.6 s and a worker host at +1.5 s.
pub fn replication_sweep(args: &RunArgs) -> Vec<Row> {
    let cell = |(replicas, faults): (usize, bool)| {
        let mut spec = ExperimentSpec::dim100(NamingMode::Plain);
        spec.ft = ft(CheckpointMode::Bulk, 1, 6);
        // After both crashes a recovering proxy re-resolves onto the idle
        // worker server on the dead store host, which the manager never
        // called, and a first contact waits this out once (58 s more at
        // the default).
        spec.request_timeout = SimDuration::from_secs(2);
        spec.store_replicas = replicas;
        if faults {
            spec.store_crash = Some(StoreCrashPlan {
                after: SimDuration::from_millis(600),
                store_host_index: 0,
            });
            spec.crash = Some(CrashPlan {
                after: SimDuration::from_millis(1500),
                now_host_index: 0,
                restart_after: None,
            });
        }
        let what = ["no faults", "store + worker crash"][usize::from(faults)];
        (format!("{replicas} replica(s), {what}"), spec)
    };
    let cells = [
        (1, false),
        (2, false),
        (3, false),
        (2, true),
        (3, true),
        (1, true),
    ];
    sweep(args, cells.map(cell))
}
