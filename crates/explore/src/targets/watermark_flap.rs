//! Cell: monitor watermark reorder under a flapping publisher.
//!
//! The event channel on host 0, a steady oneway publisher on host 1, and
//! a reliable (buffering) publisher on host 2 that is cut off by *two*
//! partition cycles mid-stream. Each heal flushes the outage buffer; the
//! watermark hold must keep the released stream in publish order both
//! times, and the flushed events must not be counted late.
//!
//! Oracles: the cut-off publisher fully drains its backlog; the released
//! stream is totally ordered under the event key; both publishers'
//! streams arrive complete and per-host ordered; the channel records no
//! watermark violations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use monitor::{
    ChannelState, EventBody, EventChannel, MonitorConfig, Publisher, EVENT_CHANNEL_TYPE, KERNEL_PID,
};
use orb::{Orb, OrbConfig};
use simnet::{Ctx, Fault, Kernel, Shared, SimDuration, SimResult, SimTime};

use crate::targets::{instrument, RunOutcome, Target};
use crate::Fnv;

const SEED: u64 = 13;
/// Events each publisher emits, one per 4 ms.
const EVENTS: u32 = 24;
/// Backlog pump budget after the publish stream ends.
const PUMP_MAX_ATTEMPTS: u32 = 200;

/// See the module docs.
pub struct WatermarkFlap;

impl Target for WatermarkFlap {
    fn name(&self) -> &'static str {
        "watermark_flap"
    }

    fn seed(&self) -> u64 {
        SEED
    }

    fn run(&self, plan: &BTreeMap<u64, usize>) -> RunOutcome {
        run_cell(plan)
    }
}

fn publish_stream(
    publisher: &Publisher,
    orb: &mut Orb,
    ctx: &mut Ctx,
    first_delay_ms: u64,
) -> SimResult<()> {
    ctx.sleep(SimDuration::from_millis(first_delay_ms))?;
    for n in 0..EVENTS {
        publisher.publish(
            orb,
            ctx,
            EventBody::LoadReport {
                runnable: n,
                load_milli: 0,
                cpu_milli: 0,
            },
        )?;
        ctx.sleep(SimDuration::from_millis(4))?;
    }
    Ok(())
}

fn run_cell(plan: &BTreeMap<u64, usize>) -> RunOutcome {
    let mut sim = Kernel::with_seed(SEED);
    let cfg = MonitorConfig {
        reorder_slack: SimDuration::from_millis(10),
        // Covers one publisher retry cycle (10 ms push timeout + 4 ms
        // publish stagger) with room to spare.
        heal_flush_grace: SimDuration::from_millis(60),
        ..MonitorConfig::default()
    };
    let state = Shared::new(ChannelState::new(cfg, None));
    let wide = state.lock().subscribe(512);
    let choices = {
        let state = state.clone();
        instrument(&mut sim, plan, move |now, ev| {
            state.lock().ingest_kernel(now, ev)
        })
    };
    let hosts = sim.add_hosts(3);
    let cell: Shared<Option<String>> = Shared::new(None);

    {
        let state = state.clone();
        let cell = cell.clone();
        sim.spawn(hosts[0], "channel", move |ctx| {
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
        // keeps the channel clock moving through both outages.
        let cell = cell.clone();
        sim.spawn(hosts[1], "pub-steady", move |ctx: &mut Ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let publisher = Publisher::new(cell, ctx);
            let _ = publish_stream(&publisher, &mut orb, ctx, 10);
        });
    }
    let backlog_out: Shared<Option<(usize, u64)>> = Shared::new(None);
    {
        // Host 2: reliable publisher behind the flapping cut. The short
        // push timeout makes each failed push re-queue within a period.
        let cell = cell.clone();
        let bout = backlog_out.clone();
        sim.spawn(hosts[2], "pub-cutoff", move |ctx: &mut Ctx| {
            let mut orb = Orb::new(
                ctx,
                OrbConfig {
                    request_timeout: SimDuration::from_millis(10),
                    ..OrbConfig::default()
                },
            );
            if orb.listen(ctx).is_err() {
                return;
            }
            let publisher = Publisher::reliable(cell, ctx);
            // Same phase as pub-steady: both publishers' sleeps expire and
            // both pushes land co-temporally, so every period is a genuine
            // schedule tie for the explorer to pivot on.
            if publish_stream(&publisher, &mut orb, ctx, 10).is_err() {
                return;
            }
            // Drain the outage buffer: the last batch may still be queued.
            let mut attempts = 0u32;
            while attempts < PUMP_MAX_ATTEMPTS {
                attempts += 1;
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

    // Two flap cycles across the 107 ms publish stream: cut 20–45 ms and
    // again 60–80 ms.
    for (at_ms, blocked) in [(20u64, true), (45, false), (60, true), (80, false)] {
        sim.schedule_fault(
            SimTime::from_nanos(at_ms * 1_000_000),
            Fault::PartitionGroup {
                side: vec![hosts[2]],
                blocked,
            },
        );
    }

    sim.run_for(SimDuration::from_millis(600));
    let end = sim.now();
    let mut st = state.lock();
    st.finalize(end);
    let delivered = st.pull(wide, 4_096);
    let (received, dropped) = st.stats();
    let channel_violations = st.violation_count();
    let report = st.render_report();
    drop(st);

    let mut violations = Vec::new();
    let drained = backlog_out.get();
    match drained {
        None => violations.push("cut-off publisher never finished draining".to_string()),
        Some((backlog, _retries)) if backlog != 0 => {
            violations.push(format!("outage buffer never fully flushed: {backlog} left"));
        }
        Some(_) => {}
    }
    if !delivered.windows(2).all(|w| w[0].key() < w[1].key()) {
        violations.push("released stream out of publish order".to_string());
    }
    for host in [1u32, 2] {
        let runnables: Vec<u32> = delivered
            .iter()
            .filter(|e| e.host == host && e.pid != KERNEL_PID)
            .filter_map(|e| match &e.body {
                EventBody::LoadReport { runnable, .. } => Some(*runnable),
                _ => None,
            })
            .collect();
        if runnables != (0..EVENTS).collect::<Vec<u32>>() {
            violations.push(format!(
                "host {host} stream incomplete or disordered: {runnables:?}"
            ));
        }
    }
    if channel_violations > 0 {
        violations.push(format!(
            "channel recorded {channel_violations} violation(s):\n{report}"
        ));
    }

    let mut h = Fnv::new();
    h.write_str("watermark_flap");
    h.write_u64(received);
    h.write_u64(dropped);
    h.write_u64(channel_violations);
    h.write_u64(delivered.len() as u64);
    for e in &delivered {
        h.write_str(&format!("{:?}|{:?}", e.key(), e.body));
    }
    if let Some((backlog, retries)) = drained {
        h.write_u64(backlog as u64);
        h.write_u64(retries);
    }

    RunOutcome {
        digest: h.finish(),
        violations,
        log: choices.get(),
        end_ns: end.as_nanos(),
    }
}
