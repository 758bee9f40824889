//! Integration tests for live monitoring (DESIGN.md §8) over the
//! assembled stack: asking for the doctor does not change the run, and a
//! partition costs the event log nothing.
//!
//! These live at the workspace root rather than in `ldft-monitor` because
//! they need the whole cluster from `corba-runtime`. (The file keeps the
//! name it had when events crossed the simulated LAN to a channel object.)

use corba_runtime::{run_experiment, CrashPlan, ExperimentSpec, NamingMode};
use monitor::MonitorConfig;
use obs::{Event, EventBody, Obs, ProcessObs, KERNEL_PID};
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
    // time, same optimum, same placements, same recovery counts — and,
    // since every run records its events, the doctor read off the
    // unmonitored run's log afterwards says exactly what it said live.
    for crash in [false, true] {
        let bare = run_experiment(&reference_cell(crash)).expect("cell runs");
        let mut spec = reference_cell(crash);
        spec.monitor = Some(MonitorConfig);
        let watched = run_experiment(&spec).expect("monitored cell runs");
        assert_eq!(
            format!("{:?}", watched.report),
            format!("{:?}", bare.report),
            "crash={crash}: monitoring changed the run"
        );
        assert_eq!(watched.started_at, bare.started_at);
        assert_eq!(watched.loaded, bare.loaded);
        let events = bare.obs.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.body, EventBody::RequestDone { .. })));
        let live = watched.doctor.expect("monitor was configured");
        // The run ends when the manager does.
        let end = bare.started_at + bare.report.elapsed;
        let after = monitor::diagnose(&bare.obs, end);
        assert_eq!(after.report, live.report, "crash={crash}");
        assert_eq!(after.dumps, live.dumps, "crash={crash}");
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
    // of its 160 ms stream. Recording never crosses the network, so the
    // outage window is in the event log as it happens — not lost, and not
    // delivered in a burst after the heal.
    let mut kernel = Kernel::new(KernelConfig {
        seed: 11,
        ..KernelConfig::default()
    });
    let hosts = kernel.add_hosts(3);
    let sink = Obs::new();
    {
        let sink = sink.clone();
        kernel.set_event_hook(move |t, kev| sink.kernel_event(t, kev));
    }
    for (host, first_ms) in [(hosts[1], 10), (hosts[2], 11)] {
        let sink = sink.clone();
        kernel.spawn(host, format!("emitter-{host}"), move |ctx: &mut Ctx| {
            let events = ProcessObs::new(sink, ctx);
            if ctx.sleep(SimDuration::from_millis(first_ms)).is_err() {
                return;
            }
            for n in 0..40u32 {
                events.event(
                    ctx.now(),
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
    let at_heal = sink.events();
    assert_eq!(load_reports(&at_heal, 2), (0..28).collect::<Vec<u32>>());
    let in_outage = at_heal
        .iter()
        .filter(|e| e.host == 2 && e.pid != KERNEL_PID && e.time_ns >= cut_at)
        .count();
    assert_eq!(in_outage, 18);

    let end = kernel.run_for(SimDuration::from_secs(1));
    let stream = sink.events();
    assert!(
        stream.windows(2).all(|w| w[0].time_ns <= w[1].time_ns),
        "stream out of time order"
    );
    for host in [1, 2] {
        assert_eq!(load_reports(&stream, host), (0..40).collect::<Vec<u32>>());
    }
    // The kernel's partition lifecycle is in the same log, in place.
    let at = |kind| stream.iter().find(|e| e.body.kind() == kind);
    assert_eq!(at("partition-start").map(|e| e.time_ns), Some(cut_at));
    assert_eq!(at("partition-heal").map(|e| e.time_ns), Some(heal_at));
    let doctor = monitor::diagnose(&sink, end);
    assert_eq!(doctor.violations, 0, "{}", doctor.report);
}
