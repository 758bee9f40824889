//! Integration tests for live monitoring (DESIGN.md §10) over the
//! assembled stack: attaching the monitor does not change the run, a
//! partition costs the doctor's stream nothing, and the recovery-budget
//! invariant fires on the crash cell once tightened.
//!
//! These live at the workspace root rather than in `ldft-monitor` because
//! they need the whole cluster from `corba-runtime`. (The file keeps the
//! name it had when events crossed the simulated LAN to a channel object.)

use corba_runtime::{run_experiment, CrashPlan, ExperimentSpec, NamingMode};
use monitor::{Event, EventBody, MonitorConfig, MonitorHandle, KERNEL_PID};
use optim::FtSettings;
use simnet::{Ctx, Fault, Kernel, KernelConfig, SimDuration, SimTime};

/// The reference cell of the `doctor` binary and `--trace-out` (30-dim,
/// 3 workers on exactly 3 hosts, Winner naming, FT proxies), healthy or
/// with the mid-run worker-host crash, at test scale.
fn reference_cell(crash: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner);
    spec.worker_iters = 150;
    spec.available_hosts = spec.workers;
    spec.ft = Some(FtSettings::default());
    spec.request_timeout = SimDuration::from_secs(2);
    if crash {
        spec.crash = Some(CrashPlan {
            after: SimDuration::from_millis(200),
            now_host_index: 0,
            restart_after: Some(SimDuration::from_secs(2)),
        });
    }
    spec.seed(1)
}

#[test]
fn a_monitored_run_is_the_unmonitored_run() {
    // The doctor must certify the run it is asked about: same virtual end
    // time, same optimum, same placements, same recovery counts.
    for crash in [false, true] {
        let bare = run_experiment(&reference_cell(crash)).expect("cell runs");
        let mut spec = reference_cell(crash);
        spec.monitor = Some(MonitorConfig::default());
        let watched = run_experiment(&spec).expect("monitored cell runs");
        assert_eq!(
            format!("{:?}", watched.report),
            format!("{:?}", bare.report),
            "crash={crash}: monitoring changed the run"
        );
        assert_eq!(watched.started_at, bare.started_at);
        assert_eq!(watched.loaded, bare.loaded);
        let events = watched.monitor.expect("monitor was configured").events();
        assert!(events
            .iter()
            .any(|e| matches!(e.body, EventBody::RequestDone { .. })));
    }
}

/// `runnable` of every load report `host` emitted, in stream order.
fn load_reports(stream: &[Event], host: u32) -> Vec<u32> {
    stream
        .iter()
        .filter(|e| e.host == host && e.pid != KERNEL_PID)
        .map(|e| match &e.body {
            EventBody::LoadReport { runnable, .. } => *runnable,
            other => panic!("unexpected event {other:?}"),
        })
        .collect()
}

#[test]
fn a_partitioned_emitter_loses_nothing_and_needs_no_flush() {
    // Host 2 is cut off from the infra host (and everyone else) for 70 ms
    // of its 160 ms stream. Emission never crosses the network, so the
    // outage window is in the doctor's stream as it happens — not lost,
    // and not delivered in a burst after the heal.
    let mut kernel = Kernel::new(KernelConfig {
        seed: 11,
        ..KernelConfig::default()
    });
    let hosts = kernel.add_hosts(3);
    let mon = MonitorHandle::new(MonitorConfig::default(), None);
    {
        let mon = mon.clone();
        kernel.set_event_hook(move |t, kev| mon.on_kernel_event(t, kev));
    }
    for (host, first_ms) in [(hosts[1], 10), (hosts[2], 11)] {
        let mon = mon.clone();
        kernel.spawn(host, format!("emitter-{host}"), move |ctx: &mut Ctx| {
            if ctx.sleep(SimDuration::from_millis(first_ms)).is_err() {
                return;
            }
            for n in 0..40u32 {
                mon.emit(
                    ctx,
                    EventBody::LoadReport {
                        runnable: n,
                        load_milli: 0,
                        cpu_milli: 0,
                    },
                );
                if ctx.sleep(SimDuration::from_millis(4)).is_err() {
                    return;
                }
            }
        });
    }
    let (cut_at, heal_at) = (50_000_000, 120_000_000);
    for (at, blocked) in [(cut_at, true), (heal_at, false)] {
        kernel.schedule_fault(
            SimTime::from_nanos(at),
            Fault::PartitionGroup {
                side: vec![hosts[2]],
                blocked,
            },
        );
    }

    // Stop at the heal instant: host 2 has emitted at 11, 15, … 119 ms,
    // and all 28 are already there, the 18 of the outage window included.
    kernel.run_until(SimTime::from_nanos(heal_at));
    let at_heal = mon.events();
    assert_eq!(load_reports(&at_heal, 2), (0..28).collect::<Vec<u32>>());
    let in_outage = at_heal
        .iter()
        .filter(|e| e.host == 2 && e.pid != KERNEL_PID && e.time_ns >= cut_at)
        .count();
    assert_eq!(in_outage, 18);

    let end = kernel.run_for(SimDuration::from_secs(1));
    mon.finalize(end);
    let stream = mon.events();
    assert!(
        stream.windows(2).all(|w| w[0].time_ns <= w[1].time_ns),
        "stream out of time order"
    );
    for host in [1, 2] {
        assert_eq!(load_reports(&stream, host), (0..40).collect::<Vec<u32>>());
    }
    // The kernel's partition lifecycle is in the same stream, in place.
    let at = |kind| stream.iter().find(|e| e.body.kind() == kind);
    assert_eq!(at("partition-start").map(|e| e.time_ns), Some(cut_at));
    assert_eq!(at("partition-heal").map(|e| e.time_ns), Some(heal_at));
    assert_eq!(mon.violations(), 0, "{}", mon.report());
}

#[test]
fn recovery_budget_invariant_fires_on_slow_recovery() {
    // The reference crash cell, with the recovery budget tightened from
    // 10000x mean service latency to nothing: an episode is resolve +
    // create + one restore push, 3 ms against this cell's 23 ms mean
    // `solve`, so no whole multiple trips here. The injected crash must
    // trip the recovery-budget invariant and dump a post-mortem.
    let mut spec = reference_cell(true);
    spec.monitor = Some(MonitorConfig {
        recovery_budget_multiple: 0,
        ..MonitorConfig::default()
    });
    let outcome = run_experiment(&spec).expect("crash cell runs");
    let handle = outcome.monitor.expect("monitor was configured");
    assert!(
        handle.violations() >= 1,
        "tight recovery budget did not fire:\n{}",
        handle.report()
    );
    let report = handle.report();
    assert!(report.contains("recovery-budget"));
    assert!(report.contains("VIOLATION"));
    assert!(
        handle
            .dumps()
            .concat()
            .contains("invariant violated: recovery-budget"),
        "violation did not trigger a post-mortem dump"
    );
}
