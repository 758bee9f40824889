//! Integration tests for the live-monitoring event channel (DESIGN.md
//! §10): cross-host delivery order, subscriber backpressure accounting,
//! and the doctor's recovery-budget invariant over the assembled stack.
//!
//! These live at the workspace root rather than in `ldft-monitor` because
//! the ordering harness needs a real simulated network (the monitor crate
//! deliberately sees only `orb`), and the invariant test needs the whole
//! cluster from `corba-runtime`.

use std::cell::RefCell;
use std::rc::Rc;

use corba_runtime::{run_experiment, CrashPlan, ExperimentSpec, NamingMode};
use monitor::{
    ChannelState, Event, EventBody, EventChannel, MonitorConfig, Publisher, Subscription,
    EVENT_CHANNEL_TYPE,
};
use obs::Obs;
use optim::FtSettings;
use orb::{Ior, ObjectRef, Orb};
use simnet::{Ctx, Fault, Kernel, KernelConfig, Shared, SimDuration, SimTime};

/// Outcome of one mini-cluster monitoring run: the wide subscriber's
/// delivered stream, the channel's `(received, dropped)` stats, and the
/// metrics export.
struct MiniRun {
    delivered: Vec<Event>,
    received: u64,
    dropped: u64,
    metrics_text: String,
}

/// Boot a three-host bed — the channel on host 0, one publisher each on
/// hosts 1 and 2 with asymmetric network latency — and let the publishers
/// interleave load reports. Host 2's link is slow enough that its pushes
/// *arrive* after host 1 events published later, so delivered order only
/// matches publish order if the watermark actually reorders.
fn mini_run(wide_depth: u32, tiny_depth: u32) -> MiniRun {
    let mut kernel = Kernel::new(KernelConfig {
        seed: 7,
        ..KernelConfig::default()
    });
    let hosts = kernel.add_hosts(3);
    // Host 2 -> channel: 2 ms one-way, dwarfing the 1 ms publish stagger
    // between the two publishers (host 1 keeps the 150 µs LAN default).
    kernel.set_link_latency(hosts[2], hosts[0], SimDuration::from_millis(2));

    let cfg = MonitorConfig {
        // Must exceed the slowest link's delay for order restoration.
        reorder_slack: SimDuration::from_millis(10),
        ..MonitorConfig::default()
    };
    let obs = Obs::new();
    let state = Shared::new(ChannelState::new(cfg, Some(obs.clone())));
    let wide = state.lock().subscribe(wide_depth);
    let _tiny = state.lock().subscribe(tiny_depth);
    let cell: Shared<Option<String>> = Shared::new(None);

    {
        let state = state.clone();
        let cell = cell.clone();
        kernel.spawn(hosts[0], "channel", move |ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let poa = orb::Poa::new();
            let key = poa.activate(
                EVENT_CHANNEL_TYPE,
                Rc::new(RefCell::new(monitor::EventChannelSkeleton(
                    EventChannel::new(state),
                ))),
            );
            cell.put(orb.ior(EVENT_CHANNEL_TYPE, key).stringify());
            let _ = orb.serve_forever(ctx, &poa);
        });
    }
    for (i, host) in hosts.iter().enumerate().skip(1) {
        let cell = cell.clone();
        kernel.spawn(*host, format!("pub-h{i}"), move |ctx: &mut Ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let publisher = Publisher::new(cell, ctx);
            // Host 1 publishes at 10, 14, 18 … ms; host 2 at 11, 15, 19 …
            if ctx.sleep(SimDuration::from_millis(9 + i as u64)).is_err() {
                return;
            }
            for n in 0..10u32 {
                let sent = publisher.publish(
                    &mut orb,
                    ctx,
                    EventBody::LoadReport {
                        runnable: n,
                        load_milli: 0,
                        cpu_milli: 0,
                    },
                );
                if sent.is_err() || ctx.sleep(SimDuration::from_millis(4)).is_err() {
                    return;
                }
            }
        });
    }

    kernel.run_for(SimDuration::from_secs(1));
    let now = kernel.now();
    let mut st = state.lock();
    st.finalize(now);
    let delivered = st.pull(wide, 1_000);
    let (received, dropped) = st.stats();
    MiniRun {
        delivered,
        received,
        dropped,
        metrics_text: obs.metrics_text(),
    }
}

#[test]
fn cross_host_delivery_matches_publish_order() {
    let run = mini_run(64, 64);
    assert_eq!(run.received, 20, "both publishers' events arrived");
    let events = &run.delivered;
    assert_eq!(events.len(), 20);
    // Published order is total under the (time, host, pid, seq) key;
    // delivered order must equal it despite host 2's slow link inverting
    // arrival order for every adjacent pair.
    assert!(
        events.windows(2).all(|w| w[0].key() < w[1].key()),
        "delivered out of publish order"
    );
    // The interleave actually happened: hosts alternate in time.
    let host_pattern: Vec<u32> = events.iter().map(|e| e.host).collect();
    assert_eq!(&host_pattern[..4], &[1, 2, 1, 2]);
}

#[test]
fn subscriber_backpressure_drops_deterministically_into_metrics() {
    // A depth-3 ring over 20 events keeps the newest 3 and drops 17,
    // every run, and the channel surfaces the count as a counter.
    let a = mini_run(64, 3);
    let b = mini_run(64, 3);
    assert_eq!(a.dropped, 17);
    assert_eq!(b.dropped, 17);
    assert!(
        a.metrics_text.contains("counter monitor.sub_dropped 17"),
        "drop counter missing from metrics export:\n{}",
        a.metrics_text
    );
    // Same seed, same wiring: the entire delivered stream and metrics
    // export are reproducible byte for byte.
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.metrics_text, b.metrics_text);
}

#[test]
fn remote_subscriber_pulls_over_the_wire() {
    // A consumer on a third host goes through the typed `Subscription`
    // client (`subscribe`/`pull`/`stats` in idl/monitor.idl) instead of
    // touching `ChannelState` directly, and sees exactly the stream the
    // watermark has released.
    let mut kernel = Kernel::new(KernelConfig {
        seed: 9,
        ..KernelConfig::default()
    });
    let hosts = kernel.add_hosts(3);
    let state = Shared::new(ChannelState::new(MonitorConfig::default(), None));
    let cell: Shared<Option<String>> = Shared::new(None);
    let out: Shared<Option<(Vec<Event>, u64, u64)>> = Shared::new(None);

    {
        let state = state.clone();
        let cell = cell.clone();
        kernel.spawn(hosts[0], "channel", move |ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let poa = orb::Poa::new();
            let key = poa.activate(
                EVENT_CHANNEL_TYPE,
                Rc::new(RefCell::new(monitor::EventChannelSkeleton(
                    EventChannel::new(state),
                ))),
            );
            cell.put(orb.ior(EVENT_CHANNEL_TYPE, key).stringify());
            let _ = orb.serve_forever(ctx, &poa);
        });
    }
    {
        let cell = cell.clone();
        kernel.spawn(hosts[1], "pub", move |ctx: &mut Ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let publisher = Publisher::new(cell, ctx);
            if ctx.sleep(SimDuration::from_millis(10)).is_err() {
                return;
            }
            for n in 0..10u32 {
                let sent = publisher.publish(
                    &mut orb,
                    ctx,
                    EventBody::LoadReport {
                        runnable: n,
                        load_milli: 0,
                        cpu_milli: 0,
                    },
                );
                if sent.is_err() || ctx.sleep(SimDuration::from_millis(4)).is_err() {
                    return;
                }
            }
            // A late straggler pushes the 2 ms watermark far past the ten
            // events above, so they are all released before the pull.
            if ctx.sleep(SimDuration::from_millis(250)).is_err() {
                return;
            }
            let _ = publisher.publish(
                &mut orb,
                ctx,
                EventBody::LoadReport {
                    runnable: 99,
                    load_milli: 0,
                    cpu_milli: 0,
                },
            );
        });
    }
    {
        let cell = cell.clone();
        let out = out.clone();
        kernel.spawn(hosts[2], "sub", move |ctx: &mut Ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            // Attach before any event clears the watermark, so the ring
            // sees the whole released stream.
            let ior = loop {
                if let Some(s) = cell.get() {
                    break Ior::destringify(&s).unwrap();
                }
                if ctx.sleep(SimDuration::from_millis(1)).is_err() {
                    return;
                }
            };
            let sub = Subscription::attach(ObjectRef::new(ior), &mut orb, ctx, 64)
                .unwrap()
                .unwrap();
            if ctx.sleep(SimDuration::from_millis(500)).is_err() {
                return;
            }
            let events = sub.pull(&mut orb, ctx, 100).unwrap().unwrap();
            let stats = sub.stats(&mut orb, ctx).unwrap().unwrap();
            // Done observing: release the server-side ring. The id must
            // still be live, and a second detach would find it gone.
            assert!(sub.detach(&mut orb, ctx).unwrap().unwrap());
            out.put((events, stats.0, stats.1));
        });
    }

    kernel.run_for(SimDuration::from_secs(1));
    let (events, received, dropped) = out.get().expect("subscriber ran to completion");
    assert_eq!(received, 11, "ten reports plus the straggler ingested");
    assert_eq!(dropped, 0, "depth 64 never overflows");
    assert_eq!(
        events.len(),
        10,
        "released stream at pull time: the straggler is still behind the watermark"
    );
    assert!(
        events.windows(2).all(|w| w[0].key() < w[1].key()),
        "pulled out of publish order"
    );
    let runnables: Vec<u32> = events
        .iter()
        .map(|e| match e.body {
            EventBody::LoadReport { runnable, .. } => runnable,
            _ => panic!("unexpected event body"),
        })
        .collect();
    assert_eq!(runnables, (0..10).collect::<Vec<u32>>());
}

#[test]
fn partition_heal_flush_stays_in_publish_order() {
    // Regression for watermark reordering across a partition: host 2's
    // publisher is cut off from the channel mid-stream, buffers its outage
    // window (reliable mode), and re-delivers it after the heal. Without
    // the watermark hold the channel's clock — advanced by host 1's
    // uninterrupted stream — would have released right past the outage
    // window, and the flush would land behind the watermark as late,
    // out-of-order events.
    let mut kernel = Kernel::new(KernelConfig {
        seed: 11,
        ..KernelConfig::default()
    });
    let hosts = kernel.add_hosts(3);
    let cfg = MonitorConfig {
        reorder_slack: SimDuration::from_millis(10),
        // Covers one publisher retry cycle (10 ms push timeout + 4 ms
        // publish stagger) with room to spare.
        heal_flush_grace: SimDuration::from_millis(60),
        ..MonitorConfig::default()
    };
    let obs = Obs::new();
    let state = Shared::new(ChannelState::new(cfg, Some(obs.clone())));
    let wide = state.lock().subscribe(256);
    {
        // Kernel lifecycle events reach the channel directly; partition
        // start/heal install and lift the watermark holds.
        let state = state.clone();
        kernel.set_event_hook(move |t, kev| state.lock().ingest_kernel(t, kev));
    }
    let cell: Shared<Option<String>> = Shared::new(None);
    {
        let state = state.clone();
        let cell = cell.clone();
        kernel.spawn(hosts[0], "channel", move |ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let poa = orb::Poa::new();
            let key = poa.activate(
                EVENT_CHANNEL_TYPE,
                Rc::new(RefCell::new(monitor::EventChannelSkeleton(
                    EventChannel::new(state),
                ))),
            );
            cell.put(orb.ior(EVENT_CHANNEL_TYPE, key).stringify());
            let _ = orb.serve_forever(ctx, &poa);
        });
    }
    {
        // Host 1: steady oneway publisher, never partitioned — its stream
        // keeps the channel clock moving through the outage.
        let cell = cell.clone();
        kernel.spawn(hosts[1], "pub-steady", move |ctx: &mut Ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let publisher = Publisher::new(cell, ctx);
            if ctx.sleep(SimDuration::from_millis(10)).is_err() {
                return;
            }
            for n in 0..40u32 {
                let sent = publisher.publish(
                    &mut orb,
                    ctx,
                    EventBody::LoadReport {
                        runnable: n,
                        load_milli: 0,
                        cpu_milli: 0,
                    },
                );
                if sent.is_err() || ctx.sleep(SimDuration::from_millis(4)).is_err() {
                    return;
                }
            }
        });
    }
    let backlog_out: Shared<Option<(usize, u64)>> = Shared::new(None);
    {
        // Host 2: reliable publisher behind the cut. The short push
        // timeout makes each failed push re-queue within a publish period.
        let cell = cell.clone();
        let bout = backlog_out.clone();
        kernel.spawn(hosts[2], "pub-cutoff", move |ctx: &mut Ctx| {
            let mut orb = Orb::new(
                ctx,
                orb::OrbConfig {
                    request_timeout: SimDuration::from_millis(10),
                    ..orb::OrbConfig::default()
                },
            );
            if orb.listen(ctx).is_err() {
                return;
            }
            let publisher = Publisher::reliable(cell, ctx);
            if ctx.sleep(SimDuration::from_millis(11)).is_err() {
                return;
            }
            for n in 0..40u32 {
                let sent = publisher.publish(
                    &mut orb,
                    ctx,
                    EventBody::LoadReport {
                        runnable: n,
                        load_milli: 0,
                        cpu_milli: 0,
                    },
                );
                if sent.is_err() || ctx.sleep(SimDuration::from_millis(4)).is_err() {
                    return;
                }
            }
            // Drain the buffer: the last batch may still be in flight.
            for _ in 0..200 {
                if publisher.backlog().0 == 0 {
                    break;
                }
                if publisher.pump(&mut orb, ctx).is_err()
                    || ctx.sleep(SimDuration::from_millis(5)).is_err()
                {
                    return;
                }
            }
            bout.put(publisher.backlog());
        });
    }
    // Cut host 2 off from the channel side for 70 ms of the stream.
    kernel.schedule_fault(
        SimTime::from_nanos(50_000_000),
        Fault::PartitionGroup {
            side: vec![hosts[2]],
            blocked: true,
        },
    );
    kernel.schedule_fault(
        SimTime::from_nanos(120_000_000),
        Fault::PartitionGroup {
            side: vec![hosts[2]],
            blocked: false,
        },
    );

    kernel.run_for(SimDuration::from_secs(1));
    let now = kernel.now();
    let mut st = state.lock();
    st.finalize(now);
    let delivered = st.pull(wide, 1_000);

    // The publisher delivered everything it buffered, with retries.
    let (backlog, retries) = backlog_out.get().expect("cut-off publisher drained");
    assert_eq!(backlog, 0, "outage buffer never fully flushed");
    assert!(retries >= 1, "the cut never forced a re-queue");
    // Released order is publish order across the heal...
    assert!(
        delivered.windows(2).all(|w| w[0].key() < w[1].key()),
        "delivered out of publish order"
    );
    // ...and nothing from the outage window was counted late: the hold
    // kept the watermark at the cut time until the flush grace expired.
    let metrics = obs.metrics_text();
    assert!(
        metrics.contains("gauge monitor.late_events 0"),
        "flushed events landed behind the watermark:\n{metrics}"
    );
    // Both full streams are present and per-host ordered.
    for host in [1u32, 2] {
        let runnables: Vec<u32> = delivered
            .iter()
            .filter(|e| e.host == host && e.pid != monitor::KERNEL_PID)
            .map(|e| match &e.body {
                EventBody::LoadReport { runnable, .. } => *runnable,
                other => panic!("unexpected publisher event {other:?}"),
            })
            .collect();
        assert_eq!(runnables, (0..40).collect::<Vec<u32>>(), "host {host}");
    }
    // The kernel's partition lifecycle made it into the same stream.
    assert!(delivered
        .iter()
        .any(|e| matches!(e.body, EventBody::PartitionStart { .. })));
    assert!(delivered
        .iter()
        .any(|e| matches!(e.body, EventBody::PartitionHeal { .. })));
    assert_eq!(st.violation_count(), 0, "{}", st.render_report());
}

#[test]
fn recovery_budget_invariant_fires_on_slow_recovery() {
    // The reference crash cell, with the recovery budget tightened from
    // 10000x mean service latency to 1x: timeout-based failure detection
    // alone costs well over one mean service time, so the injected crash
    // must trip the recovery-budget invariant and dump a post-mortem.
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner);
    spec.worker_iters = 150;
    spec.available_hosts = spec.workers;
    spec.ft = Some(FtSettings::default());
    spec.request_timeout = SimDuration::from_secs(2);
    spec.monitor = Some(MonitorConfig {
        recovery_budget_multiple: 1,
        ..MonitorConfig::default()
    });
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(200),
        now_host_index: 0,
        restart_after: Some(SimDuration::from_secs(2)),
    });
    let outcome = run_experiment(&spec.seed(1)).expect("crash cell runs");
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
            .contains("invariant violated: recovery-budget"),
        "violation did not trigger a post-mortem dump"
    );
}
