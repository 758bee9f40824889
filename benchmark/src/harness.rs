//! How a run is shaped, for every workload alike.
//!
//! One discarded warm-up rep, then at least [`MIN_REPS`] timed reps of the
//! identical seed-generated input, more until `--seconds` of measured
//! time have accumulated. Time metrics are the median rep, with the reps'
//! minimum and quartiles beside it, and are read from the process's CPU
//! clock (see [`crate::trace::process_cpu_ns`] for why); the virtual
//! section must be byte-identical across all reps or the run fails. With tracing on, one further rep runs with
//! the kernel's profile hook installed and an `Obs` sink handed to every
//! process, and the layer probes run; end-to-end metrics always come from
//! the untraced reps.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use obs::Metric;

use crate::json::Value;
use crate::probes;
use crate::results::{Measured, Metrics, RepSummary, WorkloadResult};
use crate::spec::{self, MAX_REPS, MIN_REPS};
use crate::stats::percentile;
use crate::trace::{peak_rss_mb, process_cpu_s, OpWall, Tracer};
use crate::workloads::{LayerSample, RepCx, Workload};

/// What a run is asked to do.
pub struct RunOpts {
    /// Fed to the input generators and nothing else.
    pub seed: u64,
    /// Measured wall time to accumulate over the timed reps.
    pub seconds: f64,
    /// Also run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Timed reps at least (tests lower it).
    pub min_reps: usize,
    /// Where `trace_<workload>.json` goes; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl RunOpts {
    /// The defaults of `run.sh` without arguments.
    pub fn new(seed: u64) -> Self {
        RunOpts {
            seed,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            min_reps: MIN_REPS,
            out_dir: None,
        }
    }
}

/// Run one workload as described in the module docs.
pub fn run_workload(w: &dyn Workload, opts: &RunOpts) -> WorkloadResult {
    let mut off = Tracer::new(false);
    let untraced = |off: &mut Tracer| {
        w.rep(
            opts.seed,
            &mut RepCx {
                tracer: off,
                op_wall: None,
            },
        )
    };

    // Warm-up: fills the allocator and page cache, and carries the checks
    // that need not be repeated.
    let warm = untraced(&mut off);
    let mut check_failures = warm.virt.check_failures.clone();
    check_failures.extend(w.cross_check(opts.seed, &warm));

    let cpu_before = process_cpu_s();
    let (mut setup_s, mut cpu_s, mut wall_s) = (Vec::new(), Vec::new(), Vec::new());
    while wall_s.len() < opts.min_reps
        || (wall_s.iter().sum::<f64>() < opts.seconds && wall_s.len() < MAX_REPS)
    {
        let rep = untraced(&mut off);
        if rep.virt != warm.virt {
            check_failures.push(format!(
                "virtual section of timed rep {} differs from the warm-up rep's",
                wall_s.len() + 1
            ));
        }
        setup_s.push(rep.time.setup_cpu_ns as f64 / 1e9);
        cpu_s.push(rep.time.measure_cpu_ns as f64 / 1e9);
        wall_s.push(rep.time.measure_wall_ns as f64 / 1e9);
    }
    let cpu_after = process_cpu_s();
    let reps = wall_s.len();
    let rss = peak_rss_mb();

    let virt = &warm.virt;
    let over_reps = |seconds: &[f64]| {
        let summary = RepSummary::of(seconds);
        Measured {
            value: summary.median,
            unit: "s".to_string(),
            reps: Some(summary),
            n: seconds.len() as u64,
        }
    };
    let cpu = over_reps(&cpu_s);
    let median_rep_cpu_s = cpu.value;
    let mut end_to_end: Metrics = vec![
        ("setup_s".into(), over_reps(&setup_s)),
        ("cpu_s".into(), cpu),
        (
            "peak_rss_mb".into(),
            Measured::exact(rss.unwrap_or(0.0), "MB", 1),
        ),
        (
            "virt_runtime_s".into(),
            Measured::exact(virt.runtime_ns as f64 / 1e9, "s", 1),
        ),
    ];
    let mut sorted_ops = virt.op_ns.clone();
    sorted_ops.sort_unstable();
    if sorted_ops.is_empty() {
        check_failures.push("no client-visible operation was timed".into());
        sorted_ops.push(0);
    }
    for (name, p) in [("virt_op_p50_us", 50), ("virt_op_p95_us", 95)] {
        end_to_end.push((
            name.into(),
            Measured::exact(
                percentile(&sorted_ops, p) as f64 / 1e3,
                "us",
                sorted_ops.len() as u64,
            ),
        ));
    }
    if rss.is_none() {
        check_failures.push("cannot read VmHWM from /proc/self/status".into());
    }
    for m in &spec::HEADLINE {
        let value = match m.name {
            "wall_s" => Some(over_reps(&wall_s)),
            "failed_ops_ppm" => Some(Measured::exact(
                (virt.failed * 1_000_000 / virt.attempted.max(1)) as f64,
                m.unit,
                1,
            )),
            name => virt
                .headline
                .get(name)
                .map(|v| Measured::exact(*v, m.unit, 1)),
        };
        match value {
            Some(v) => end_to_end.push((m.name.into(), v)),
            None if spec::applies(m, w.name()) && !m.on.is_empty() => {
                check_failures.push(format!("{} was not measured", m.name));
            }
            None => {}
        }
    }

    let mut per_layer = Metrics::new();
    if opts.trace {
        let host_cpu = cpu_before
            .zip(cpu_after)
            .map(|((u0, s0), (u1, s1))| ((u1 - u0) / reps as f64, (s1 - s0) / reps as f64));
        let traced = traced_pass(w, opts, median_rep_cpu_s, host_cpu);
        check_failures.extend(
            traced
                .check_failures
                .into_iter()
                .map(|f| format!("traced rep: {f}")),
        );
        per_layer = traced.metrics;
    }

    WorkloadResult {
        name: w.name().to_string(),
        reps: reps as u64,
        attempted: virt.attempted,
        failed: virt.failed + (check_failures.len() - virt.check_failures.len()) as u64,
        check_failures,
        end_to_end,
        per_layer,
    }
}

struct TracedPass {
    metrics: Metrics,
    /// Failed output checks of the traced rep. (Its virtual *times* may
    /// differ from the untraced reps': handing processes an `Obs` sink
    /// adds a trace context to every request. Its outputs must still be
    /// correct.)
    check_failures: Vec<String>,
}

/// The traced rep plus the layer probes; writes `trace_<workload>.json`.
fn traced_pass(
    w: &dyn Workload,
    opts: &RunOpts,
    untraced_cpu_s: f64,
    host_cpu: Option<(f64, f64)>,
) -> TracedPass {
    let mut tracer = Tracer::new(true);
    let op_wall = Rc::new(RefCell::new(OpWall::default()));
    tracer.enter(w.name(), "harness");
    tracer.enter("traced rep", "harness");
    let rep = w.rep(
        opts.seed,
        &mut RepCx {
            tracer: &mut tracer,
            op_wall: Some(Rc::clone(&op_wall)),
        },
    );
    tracer.exit();
    tracer.enter("probes", "harness");
    let probes = probes::run_all(&mut tracer);
    tracer.exit();
    tracer.exit();
    let op_wall = op_wall.borrow();

    let ops = rep.virt.attempted.max(1) as f64;
    let l = &rep.layers;
    let (handoffs, _) = op_wall.sum("sched.handoff");
    let (_, event_ns) = op_wall.sum("event.");
    let (_, syscall_ns) = op_wall.sum("sys.");
    let run_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("Kernel::run_"))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    // Wall time inside Kernel::run_* that is neither the kernel's own event
    // and syscall work nor user-mode execution of process code: what it
    // costs to hand the CPU back and forth, futex system calls on both
    // sides included. (On one CPU a woken process often runs before the
    // kernel reaches its `sched.handoff` mark, so the marks alone split
    // this time arbitrarily between "handoff" and the run loop.)
    let handoff_ns = run_ns
        .saturating_sub(event_ns + syscall_ns)
        .saturating_sub(l.threads.total_user_ns());
    let flat = virtual_self_ns(l);
    let self_ns = |name: &str| flat.get(name).map_or(0, |r| r.1) as f64;
    let serves = |name: &str| flat.get(name).map_or(0, |r| r.0) as f64;
    let checkpoints = l
        .extra
        .get("ft.checkpoints")
        .copied()
        .unwrap_or_else(|| serves("ft.checkpoint"));
    let traced_cpu_s = rep.time.measure_cpu_ns as f64 / 1e9;

    let mut values: BTreeMap<&str, f64> = BTreeMap::from([
        ("simnet.events", l.events as f64),
        ("simnet.handoffs", handoffs as f64),
        ("simnet.handoffs_per_op", handoffs as f64 / ops),
        ("simnet.handoff_wall_ns", handoff_ns as f64),
        ("simnet.event_wall_ns", event_ns as f64),
        ("simnet.syscall_wall_ns", syscall_ns as f64),
        (
            "simnet.wall_ns_per_event",
            run_ns as f64 / l.events.max(1) as f64,
        ),
        ("simnet.msgs_delivered", l.msgs_delivered as f64),
        ("simnet.msgs_dropped", l.msgs_dropped as f64),
        ("simnet.procs_spawned", l.procs_spawned as f64),
        ("simnet.event_queue_peak", l.event_queue_peak as f64),
        ("simnet.runnable_peak", l.runnable_peak as f64),
        ("simnet.mailbox_peak", l.mailbox_peak as f64),
        ("orb.requests", histogram(l, "orb.invoke_ns").count as f64),
        ("orb.msgs_per_op", l.msgs_measured as f64 / ops),
        ("orb.comm_failures", l.counter("orb.comm_failures") as f64),
        ("orb.timeouts", l.counter("orb.timeouts") as f64),
        ("naming.resolves", l.counter("naming.resolves") as f64),
        (
            "naming.resolve_virt_ns_p50",
            span_p50(l, &["serve:resolve"]),
        ),
        (
            "naming.winner_picks",
            l.counter("naming.winner_picks") as f64,
        ),
        (
            "naming.fallback_picks",
            l.counter("naming.fallback_picks") as f64,
        ),
        ("winner.reports", l.counter("winner.reports") as f64),
        ("winner.selections", l.counter("winner.selections") as f64),
        (
            "winner.stale_reports",
            l.counter("winner.stale_reports") as f64,
        ),
        ("ft.checkpoints", checkpoints),
        (
            "ft.rpcs_per_checkpoint",
            if checkpoints > 0.0 {
                l.counter("ft.checkpoint_rpcs") as f64 / checkpoints
            } else {
                0.0
            },
        ),
        ("ft.checkpoint_bytes_mean", {
            let h = histogram(l, "ft.checkpoint_bytes");
            h.sum as f64 / h.count.max(1) as f64
        }),
        ("ft.checkpoint_self_virt_ns", self_ns("ft.checkpoint")),
        ("ft.recoveries", l.counter("ft.recoveries") as f64),
        ("ft.recover_virt_ns_p50", span_p50(l, &["ft.recover"])),
        ("ft.restore_virt_ns_p50", span_p50(l, &["ft.restore"])),
        ("ft.factory_creates", l.counter("ft.factory_creates") as f64),
        (
            "ft.backoff_virt_ns",
            histogram(l, "ft.backoff_ns").sum as f64,
        ),
        ("ft.store_retargets", l.counter("ft.store_retargets") as f64),
        (
            "ft.duplicate_suppressed",
            l.counter("ft.duplicate_suppressed") as f64,
        ),
        ("store.store_value_serves", serves("serve:store_value")),
        (
            "store.store_value_self_virt_ns",
            self_ns("serve:store_value"),
        ),
        (
            "store.retrieve_serves",
            serves("serve:retrieve") + serves("serve:retrieve_value"),
        ),
        ("store.repl_acks", l.counter("store.repl_acks") as f64),
        (
            "store.repl_failures",
            l.counter("store.repl_failures") as f64,
        ),
        (
            "store.quorum_failures",
            l.counter("store.quorum_failures") as f64,
        ),
        ("store.gc_epochs", l.counter("store.gc_epochs") as f64),
        ("optim.solve_serves", serves("serve:solve")),
        ("optim.solve_self_virt_ns", self_ns("serve:solve")),
        (
            "obs.trace_overhead_pct",
            100.0 * (traced_cpu_s - untraced_cpu_s) / untraced_cpu_s,
        ),
    ]);
    if let Some((user, sys)) = host_cpu {
        values.insert("host.user_s", user);
        values.insert("host.sys_s", sys);
    }
    values.extend(probes);
    values.extend(l.extra.iter().map(|(k, v)| (*k, *v)));

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), Measured::exact(v, m.unit, 1))
        })
        .collect();

    if let Some(dir) = &opts.out_dir {
        let doc = trace_document(
            w.name(),
            opts.seed,
            &tracer,
            &op_wall,
            l,
            &flat,
            WallSplit {
                event_ns,
                syscall_ns,
                handoff_ns,
            },
        );
        write_file(&dir.join(format!("trace_{}.json", w.name())), &doc.pretty());
    }
    let mut check_failures = rep.virt.check_failures.clone();
    if rep.virt.failed as usize > check_failures.len() {
        check_failures.push(format!(
            "{} operations failed",
            rep.virt.failed as usize - check_failures.len()
        ));
    }
    TracedPass {
        metrics,
        check_failures,
    }
}

/// `(count, self ns)` per span name, summed over the rep's sinks.
fn virtual_self_ns(l: &LayerSample) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for sink in &l.sinks {
        for row in sink.flat_profile() {
            let e = out.entry(row.name).or_insert((0, 0));
            e.0 += row.count;
            e.1 += row.self_ns;
        }
    }
    out
}

/// Exact median virtual duration of the spans with one of `names`; 0
/// when there are none.
fn span_p50(l: &LayerSample, names: &[&str]) -> f64 {
    let mut ns: Vec<u64> = l
        .sinks
        .iter()
        .flat_map(|s| s.spans())
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    percentile(&ns, 50) as f64
}

/// Count and sum of a histogram — its exact part — merged over the rep's
/// sinks; both 0 when it was never observed.
#[derive(Default)]
struct HistSummary {
    count: u64,
    sum: u64,
}

fn histogram(l: &LayerSample, name: &str) -> HistSummary {
    let mut out = HistSummary::default();
    for sink in &l.sinks {
        if let Some(Metric::Histogram(h)) = sink.metric(name) {
            out.count += h.count;
            out.sum += h.sum;
        }
    }
    out
}

/// The layer (crate) a recorded virtual span belongs to.
fn layer_of_span(name: &str) -> &'static str {
    let op = name.strip_prefix("serve:").unwrap_or(name);
    match op {
        _ if name.starts_with("ft.") => "ft",
        _ if name.starts_with("store.") => "store",
        _ if name.starts_with("manager.") => "optim",
        "store" | "store_value" | "retrieve" | "retrieve_value" | "delete" | "value_count"
        | "repl_store" | "repl_store_value" | "repl_delete" | "repl_get" | "gc"
        | "store_status" => "store",
        "create" | "retire_forward" | "instances" | "get_checkpoint" | "restore_checkpoint" => "ft",
        "solve" => "optim",
        "report" | "select" | "snapshot" => "winner",
        "resolve"
        | "bind"
        | "rebind"
        | "unbind"
        | "bind_context"
        | "bind_new_context"
        | "bind_group_member"
        | "unbind_group_member"
        | "group_members"
        | "group_view"
        | "list" => "naming",
        _ => "app",
    }
}

struct WallSplit {
    event_ns: u64,
    syscall_ns: u64,
    handoff_ns: u64,
}

/// The content of `trace_<workload>.json`: the harness-side spans, and a
/// flat table of self time per layer on both clocks.
fn trace_document(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    op_wall: &OpWall,
    l: &LayerSample,
    flat: &BTreeMap<String, (u64, u64)>,
    split: WallSplit,
) -> Value {
    // Wall: the harness spans' self time, with the time inside
    // Kernel::run_* split further by the kernel's marks and the process
    // threads' own CPU time.
    let mut wall: BTreeMap<String, u64> = tracer
        .self_ns_by_layer()
        .into_iter()
        .map(|(k, v)| (format!("{k} (harness span self time)"), v))
        .collect();
    wall.remove("simnet (harness span self time)");
    wall.insert("simnet.event".into(), split.event_ns);
    wall.insert("simnet.syscall".into(), split.syscall_ns);
    wall.insert("simnet.handoff".into(), split.handoff_ns);
    for (role, ns) in &l.threads.user_ns {
        wall.insert(format!("proc.{role} (user-mode CPU)"), *ns);
    }
    wall.retain(|_, ns| *ns > 0);
    let mut wall_rows: Vec<(String, u64)> = wall.into_iter().collect();
    wall_rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut virt_by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, (_, self_ns)) in flat {
        *virt_by_layer.entry(layer_of_span(name)).or_insert(0) += self_ns;
    }
    let mut span_rows: Vec<(&String, &(u64, u64))> = flat.iter().collect();
    span_rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
    let mut layer_rows: Vec<(&str, u64)> = virt_by_layer.into_iter().collect();
    layer_rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    let table = |rows: Vec<(String, f64)>| {
        Value::Arr(
            rows.into_iter()
                .map(|(name, ns)| {
                    Value::obj([("row", Value::Str(name)), ("self_ns", Value::Num(ns))])
                })
                .collect(),
        )
    };
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(seed as f64)),
        (
            "wall_self_ns",
            table(wall_rows.into_iter().map(|(k, v)| (k, v as f64)).collect()),
        ),
        (
            "virtual_self_ns_by_layer",
            table(
                layer_rows
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v as f64))
                    .collect(),
            ),
        ),
        (
            "virtual_self_ns_by_span",
            Value::Arr(
                span_rows
                    .into_iter()
                    .map(|(name, (count, self_ns))| {
                        Value::obj([
                            ("row", Value::str(name)),
                            ("layer", Value::str(layer_of_span(name))),
                            ("count", Value::Num(*count as f64)),
                            ("self_ns", Value::Num(*self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "kernel_ops",
            Value::Arr(
                op_wall
                    .totals
                    .iter()
                    .map(|(op, (count, ns))| {
                        Value::obj([
                            ("op", Value::str(*op)),
                            ("count", Value::Num(*count as f64)),
                            ("wall_ns", Value::Num(*ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("spans", tracer.spans_json(workload)),
    ])
}

/// Write `text` to `path`, creating the directory; a failure ends the
/// run (the files are the run's product).
pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}
