//! The benchmark's vocabulary: workload and metric names, units, clocks,
//! regression bounds, and which end-to-end metric each per-layer metric is
//! expected to move. `BENCHMARK.json` at the repo root is generated from
//! these tables (`--print-benchmark-json`; a test keeps the two equal).

use crate::json::Value;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while tuning: later claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 7;
/// Timed reps per run at least; more are added until `--seconds` of
/// measured time have accumulated.
pub const MIN_REPS: usize = 3;
/// Upper limit on timed reps, whatever `--seconds` says.
pub const MAX_REPS: usize = 40;
/// `run_seconds` in `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// A workload's name and the reason it exists.
pub struct WorkloadSpec {
    /// Fixed name.
    pub name: &'static str,
    /// One line: what it isolates.
    pub why: &'static str,
}

/// The five workloads, in report order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "rpc_small",
        why: "50 000 echo round trips of 8 doubles: per-message cost only (thread handoff, GIOP framing); bytes are negligible",
    },
    WorkloadSpec {
        name: "rpc_bulk",
        why: "8 000 echo round trips of 64 KiB: per-byte cost (CDR copies, Msg moves) on the same path; messages are few",
    },
    WorkloadSpec {
        name: "fig3_load",
        why: "Figure 3 cell (100-dim, 7 workers, 10 hosts, 2 and 4 loaded, Plain vs Winner): wall is optimiser numerics, so handoff changes must not show",
    },
    WorkloadSpec {
        name: "table1_ft",
        why: "Table 1 worst-case row with and without checkpointing proxies: FT proxy, checkpoint service and store dominate both clocks",
    },
    WorkloadSpec {
        name: "crash_recovery",
        why: "600 deposits through an FT proxy over a 3-replica store while the serving host is crashed 20 times: the only workload that restores",
    },
];

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// The modelled NOW's time: a pure function of the seed.
    Virtual,
    /// CPU time the simulator itself used on this machine: what the
    /// bounded time metrics are read from.
    Cpu,
    /// The simulator's elapsed time on this machine; stretches with
    /// whatever else the machine is doing.
    Wall,
    /// A count or size: deterministic unless noted.
    Count,
}

/// Direction of improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
pub struct MetricSpec {
    /// Name, cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Clock.
    pub clock: Clock,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Whether two runs of one commit on one seed must agree exactly.
    pub exact: bool,
    /// Workloads the metric is defined on (empty = all).
    pub on: &'static [&'static str],
    /// Definition, and for per-layer metrics the end-to-end metric it
    /// should move and where.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        clock,
        bound: Some(bound),
        exact: matches!(clock, Clock::Virtual),
        on: &[],
        what,
    }
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`): none is ever 0 and each has a regression bound.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Clock::Cpu, 0.25,
        "CPU s (user + system, all threads) from a rep's start to the client's first measured operation (kernel construction, service boot, Winner warm-up, store group formation, warm-up calls); median over the timed reps"),
    e2e("cpu_s", "s", Clock::Cpu, 0.25,
        "CPU s (user + system, all threads) of the measured phase; median over the timed reps. Equals wall_s on an idle machine: the simulator runs one thread at a time and never blocks on I/O"),
    e2e("peak_rss_mb", "MB", Clock::Count, 0.20,
        "VmHWM of the workload's own process after the timed reps"),
    e2e("virt_runtime_s", "s", Clock::Virtual, 0.25,
        "virtual s of the measured phase (Figure 3's y-value; summed over a rep's cells)"),
    e2e("virt_op_p50_us", "us", Clock::Virtual, 0.01,
        "median virtual latency of a client-visible operation, exact (nearest rank over every operation of a rep)"),
    e2e("virt_op_p95_us", "us", Clock::Virtual, 0.25,
        "95th-percentile virtual latency of a client-visible operation, exact"),
];

const fn headline(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock: Clock::Virtual,
        bound: None,
        exact: true,
        on,
        what,
    }
}

/// End-to-end metrics `BENCHMARK.json` cannot list under `end_to_end`,
/// whose metrics must be reported by every workload, never be 0, and hold
/// a run-to-run spread inside their bound on a shared machine: the ones
/// that exist on some workloads only, and `wall_s`. They are printed and
/// stored with the end-to-end metrics (absent where they do not apply) and
/// listed under `per_layer`.
pub const HEADLINE: [MetricSpec; 6] = [
    MetricSpec {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        clock: Clock::Wall,
        bound: None,
        exact: false,
        on: &[],
        what: "wall s of the measured phase; median over the timed reps. Reported beside cpu_s, not judged: it doubles whenever something else wants the pinned CPU",
    },
    headline("ft_overhead_ratio", "ratio", Better::Lower, &["table1_ft"],
        "with-proxy / without-proxy virtual runtime (paper: more than 3x; committed results_table1.txt: 3.95x)"),
    headline("winner_gain_pct", "%", Better::Higher, &["fig3_load"],
        "mean over the load levels of 100*(plain - winner)/plain virtual runtime (paper: about 40 % best, about 15 % average)"),
    headline("recovery_ms_p50", "ms", Better::Lower, &["crash_recovery"],
        "median virtual ms from a fault instant to the ack of the first deposit the proxy had to recover for; n = crashes"),
    headline("wasted_work_ppm", "ppm", Better::Lower, &["crash_recovery"],
        "sum of those outage intervals over virt_runtime_s, integer parts per million (Dwork-Halpern-Waarts work vs useful work)"),
    headline("failed_ops_ppm", "ppm", Better::Lower, &[],
        "operations that surfaced an exception or a wrong result, plus failed output checks, per million attempted; must be 0"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    exact: bool,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock,
        bound: None,
        exact,
        on: &[],
        what,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Cpu, Virtual, Wall};

/// The per-layer metrics (layer = crate), from the traced pass.
pub const PER_LAYER: [MetricSpec; 60] = [
    // simnet → wall_s on rpc_small (most), table1_ft, crash_recovery; not on fig3_load.
    layer("simnet.events", "count", Lower, Count, true, "kernel events processed in a rep -> wall_s"),
    layer("simnet.handoffs", "count", Lower, Count, true, "kernel-to-process-thread handoffs (sched.handoff marks) in a rep -> wall_s on rpc_small"),
    layer("simnet.handoffs_per_op", "ratio", Lower, Count, true, "handoffs per client-visible operation"),
    layer("simnet.handoff_wall_ns", "ns", Lower, Wall, false, "wall ns parked in sched.handoff minus the CPU time the process threads themselves used: the cost of switching -> wall_s on rpc_small, table1_ft, crash_recovery; minor on fig3_load"),
    layer("simnet.event_wall_ns", "ns", Lower, Wall, false, "wall ns inside event.* marks (event dispatch)"),
    layer("simnet.syscall_wall_ns", "ns", Lower, Wall, false, "wall ns inside sys.* marks (syscall handling)"),
    layer("simnet.wall_ns_per_event", "ns", Lower, Wall, false, "wall ns of Kernel::run_* per event"),
    layer("simnet.msgs_delivered", "count", Lower, Count, true, "messages delivered in a rep"),
    layer("simnet.msgs_dropped", "count", Lower, Count, true, "messages dropped (dead destination, down host)"),
    layer("simnet.procs_spawned", "count", Lower, Count, true, "simulated processes (= OS threads) spawned -> peak_rss_mb everywhere"),
    layer("simnet.event_queue_peak", "count", Lower, Count, true, "peak event-queue length"),
    layer("simnet.runnable_peak", "count", Lower, Count, true, "peak runnable-queue length"),
    layer("simnet.mailbox_peak", "count", Lower, Count, true, "peak mailbox depth"),
    // cdr → wall_s on rpc_bulk; no movement predicted on rpc_small.
    layer("cdr.encode_ns_8d", "ns", Lower, Wall, false, "cdr::to_bytes of sequence<double> x 8, ns per call"),
    layer("cdr.decode_ns_8d", "ns", Lower, Wall, false, "cdr::from_bytes of the same"),
    layer("cdr.encode_ns_8192d", "ns", Lower, Wall, false, "cdr::to_bytes of sequence<double> x 8192 -> wall_s on rpc_bulk"),
    layer("cdr.decode_ns_8192d", "ns", Lower, Wall, false, "cdr::from_bytes of the same -> wall_s on rpc_bulk"),
    layer("cdr.payload_bytes_per_op", "B", Lower, Count, true, "CDR bytes of one client-visible operation's arguments plus results"),
    // orb → wall_s and virt_op_p50_us on both rpc_*; msgs_per_op also → ft_overhead_ratio.
    layer("orb.giop_encode_ns_64B", "ns", Lower, Wall, false, "giop::Message::encode of a Request with a 64-byte body"),
    layer("orb.giop_decode_ns_64B", "ns", Lower, Wall, false, "giop::Message::decode of the same frame"),
    layer("orb.giop_encode_ns_64KiB", "ns", Lower, Wall, false, "Message::encode with a 64 KiB body -> wall_s on rpc_bulk"),
    layer("orb.giop_decode_ns_64KiB", "ns", Lower, Wall, false, "Message::decode of the same frame -> wall_s on rpc_bulk"),
    layer("orb.requests", "count", Lower, Count, true, "synchronous invocations made by instrumented processes (orb.invoke_ns count)"),
    layer("orb.msgs_per_op", "ratio", Lower, Count, true, "messages delivered during the measured phase per client-visible operation -> wall_s, virt_op_p50_us on rpc_*; ft_overhead_ratio on table1_ft"),
    layer("orb.comm_failures", "count", Lower, Count, true, "COMM_FAILUREs raised on client paths"),
    layer("orb.timeouts", "count", Lower, Count, true, "of those, request timeouts"),
    // naming + winner → winner_gain_pct and virt_runtime_s on fig3_load; flat elsewhere.
    layer("naming.resolves", "count", Lower, Count, true, "resolve calls served"),
    layer("naming.resolve_virt_ns_p50", "ns", Lower, Virtual, true, "median virtual ns of a serve:resolve span (includes the nested Winner select)"),
    layer("naming.winner_picks", "count", Higher, Count, true, "group resolves answered by Winner's choice"),
    layer("naming.fallback_picks", "count", Lower, Count, true, "group resolves that fell back to round-robin"),
    layer("winner.reports", "count", Lower, Count, true, "load reports received by the system manager"),
    layer("winner.selections", "count", Lower, Count, true, "host selections made"),
    layer("winner.stale_reports", "count", Lower, Count, true, "reports rejected as out of sequence"),
    layer("winner.select_wall_ns_10hosts", "ns", Lower, Wall, false, "BestPerformance::select over 10 synthetic HostViews, ns per call"),
    layer("winner.select_wall_ns_1000hosts", "ns", Lower, Wall, false, "the same over 1000 HostViews"),
    layer("winner.workers_on_loaded_hosts", "count", Lower, Count, true, "workers Winner-mode cells placed on hosts carrying background load -> winner_gain_pct on fig3_load"),
    // ft → ft_overhead_ratio, virt_op_p50_us on table1_ft; recovery_ms_p50, wasted_work_ppm on crash_recovery.
    layer("ft.checkpoints", "count", Lower, Count, true, "checkpoints stored by FT proxies"),
    layer("ft.rpcs_per_checkpoint", "ratio", Lower, Count, true, "checkpoint-store RPCs per checkpoint -> ft_overhead_ratio"),
    layer("ft.checkpoint_bytes_mean", "B", Lower, Count, true, "mean checkpoint size, exact (sum/count of ft.checkpoint_bytes; its 13-bucket histogram cannot give an exact median)"),
    layer("ft.checkpoint_self_virt_ns", "ns", Lower, Virtual, true, "virtual self time of ft.checkpoint spans -> ft_overhead_ratio, virt_op_p50_us on table1_ft"),
    layer("ft.recoveries", "count", Lower, Count, true, "recoveries performed by FT proxies"),
    layer("ft.recover_virt_ns_p50", "ns", Lower, Virtual, true, "median virtual ns of an ft.recover span"),
    layer("ft.restore_virt_ns_p50", "ns", Lower, Virtual, true, "median virtual ns of an ft.restore span (store reads + push into the replica) -> recovery_ms_p50"),
    layer("ft.factory_creates", "count", Lower, Count, true, "instances created through factories"),
    layer("ft.backoff_virt_ns", "ns", Lower, Virtual, true, "virtual ns slept in recovery backoff -> wasted_work_ppm"),
    layer("ft.store_retargets", "count", Lower, Count, true, "checkpoint-store failovers followed"),
    layer("ft.duplicate_suppressed", "count", Lower, Count, true, "restores skipped as duplicates"),
    // store → ft_overhead_ratio on table1_ft (writes); recovery_ms_p50 on crash_recovery (reads).
    layer("store.store_value_serves", "count", Lower, Count, true, "store_value requests served"),
    layer("store.store_value_self_virt_ns", "ns", Lower, Virtual, true, "virtual self time of serve:store_value spans -> ft_overhead_ratio"),
    layer("store.retrieve_serves", "count", Lower, Count, true, "retrieve and retrieve_value requests served -> recovery_ms_p50"),
    layer("store.repl_acks", "count", Lower, Count, true, "replication acks received by coordinators"),
    layer("store.repl_failures", "count", Lower, Count, true, "replication RPCs that failed"),
    layer("store.quorum_failures", "count", Lower, Count, true, "writes that missed their quorum"),
    layer("store.gc_epochs", "count", Lower, Count, true, "epochs garbage-collected"),
    // optim → wall_s and virt_runtime_s on fig3_load.
    layer("optim.solve_serves", "count", Lower, Count, true, "solve requests served by workers"),
    layer("optim.solve_self_virt_ns", "ns", Lower, Virtual, true, "virtual self time of serve:solve spans -> virt_runtime_s on fig3_load"),
    layer("optim.complex_box_wall_ns_10k_iters", "ns", Lower, Wall, false, "ComplexBox::run of 10 000 iterations on a 15-dim block -> wall_s on fig3_load"),
    // diagnostics for wall_s on every workload.
    layer("host.user_s", "s", Lower, Cpu, false, "user CPU s per timed rep (/proc/self/stat)"),
    layer("host.sys_s", "s", Lower, Cpu, false, "system CPU s per timed rep; the futex cost of handoff lives here"),
    layer("obs.trace_overhead_pct", "%", Lower, Cpu, false, "100*(traced - untraced)/untraced cpu_s"),
];

/// Look a metric up by name in all three tables.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(&HEADLINE)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
}

/// Whether `metric` is defined on `workload`.
pub fn applies(metric: &MetricSpec, workload: &str) -> bool {
    metric.on.is_empty() || metric.on.contains(&workload)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let entry = |m: &MetricSpec| {
        let mut fields = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.word())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Value::Num(b)));
        }
        Value::obj(fields)
    };
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(entry).collect()),
        ),
        (
            "per_layer",
            Value::Arr(HEADLINE.iter().chain(&PER_LAYER).map(entry).collect()),
        ),
    ])
    .pretty()
}
