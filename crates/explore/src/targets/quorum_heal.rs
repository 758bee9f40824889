//! Cell: quorum writes across a healing partition.
//!
//! One naming host, three store replicas, one driver. The driver writes
//! eight epoch-versioned checkpoints through the naming group while a
//! partition cuts replica 2 off mid-stream and heals before the run
//! ends. Writes during the cut fail their all-replica quorum (after the
//! replication timeout) and are retried by the driver until acked, so
//! every acked epoch must be durable under *any* schedule.
//!
//! Oracles: the driver completes; every epoch eventually acks; the final
//! read-back equals the newest acked epoch; the doctor records no
//! invariant violations.

use std::collections::BTreeMap;

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{Checkpoint, CheckpointClient, CHECKPOINT_SERVICE_NAME};
use orb::{Orb, OrbConfig};
use simnet::{Ctx, Fault, HostConfig, HostId, Kernel, Shared, SimDuration, SimResult, SimTime};
use store::{spawn_replicated_store, StoreConfig};

use crate::targets::{instrument, RunOutcome, Target};
use crate::Fnv;

const SEED: u64 = 11;
const EPOCHS: u64 = 8;
/// Retry budget for the driver's resolve/store/read loops; with 10 ms
/// retry sleeps this is a multi-second window against a ≤ 50 ms cut.
const RETRY_MAX_ATTEMPTS: u32 = 400;

/// See the module docs.
pub struct QuorumHeal;

impl Target for QuorumHeal {
    fn name(&self) -> &'static str {
        "quorum_heal"
    }

    fn seed(&self) -> u64 {
        SEED
    }

    fn run(&self, plan: &BTreeMap<u64, usize>) -> RunOutcome {
        run_cell(plan)
    }
}

/// The driver's observable history: what the paper's durability claim is
/// stated over.
#[derive(Clone, Debug, Default)]
struct DriverOut {
    /// Newest epoch that got a quorum ack.
    acked: cdr::Epoch,
    /// Store attempts per epoch (1 = first try acked).
    attempts_per_epoch: Vec<u32>,
    /// Epoch of the record read back after the heal.
    final_epoch: cdr::Epoch,
    /// The driver ran its whole script (no wedged retry loop).
    completed: bool,
}

fn resolve_store(
    orb: &mut Orb,
    ctx: &mut Ctx,
    naming_host: HostId,
) -> SimResult<Option<CheckpointClient>> {
    let ns = NamingClient::root(naming_host);
    let mut attempts = 0u32;
    while attempts < RETRY_MAX_ATTEMPTS {
        match ns.resolve(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))? {
            Ok(obj) => return Ok(Some(CheckpointClient::new(obj))),
            Err(_) => {
                attempts += 1;
                ctx.sleep(SimDuration::from_millis(10))?;
            }
        }
    }
    Ok(None)
}

fn drive(ctx: &mut Ctx, naming_host: HostId, out: Shared<DriverOut>) -> SimResult<()> {
    // Boot window: naming + replicas bind within a few ms of t=0.
    ctx.sleep(SimDuration::from_millis(100))?;
    // The reply deadline dominating every remote call below.
    let mut orb = Orb::new(
        ctx,
        OrbConfig {
            request_timeout: SimDuration::from_millis(500),
        },
    );
    let Some(mut client) = resolve_store(&mut orb, ctx, naming_host)? else {
        return Ok(());
    };
    let mut s = DriverOut::default();
    let mut epoch = cdr::Epoch::ZERO;
    for _ in 0..EPOCHS {
        epoch = epoch.next();
        let ckpt = Checkpoint {
            object_id: "heal-obj".into(),
            epoch,
            state: epoch.get().to_be_bytes().to_vec(),
            stamp_ns: ctx.now().as_nanos(),
        };
        // Retry through the cut: a write that cannot assemble its quorum
        // fails after the replication timeout and is retried (same
        // epoch — replicas apply it idempotently) until the heal lets a
        // quorum form again.
        let mut attempts = 0u32;
        while attempts < RETRY_MAX_ATTEMPTS {
            attempts += 1;
            match client.store(&mut orb, ctx, &ckpt)? {
                Ok(()) => {
                    s.acked = epoch;
                    break;
                }
                Err(_) => {
                    ctx.sleep(SimDuration::from_millis(10))?;
                    let Some(next) = resolve_store(&mut orb, ctx, naming_host)? else {
                        out.replace(s);
                        return Ok(());
                    };
                    client = next;
                }
            }
        }
        s.attempts_per_epoch.push(attempts);
        if s.acked != epoch {
            // Wedged: report what we have; the oracle flags it.
            out.replace(s);
            return Ok(());
        }
        ctx.sleep(SimDuration::from_millis(15))?;
    }
    // The dust has settled: the newest acked epoch must be durable.
    let mut attempts = 0u32;
    while attempts < RETRY_MAX_ATTEMPTS {
        attempts += 1;
        if let Ok(Some(c)) = client.retrieve(&mut orb, ctx, "heal-obj")? {
            s.final_epoch = c.epoch;
            s.completed = true;
            break;
        }
        ctx.sleep(SimDuration::from_millis(10))?;
        let Some(next) = resolve_store(&mut orb, ctx, naming_host)? else {
            break;
        };
        client = next;
    }
    out.replace(s);
    Ok(())
}

fn run_cell(plan: &BTreeMap<u64, usize>) -> RunOutcome {
    let mut sim = Kernel::with_seed(SEED);
    // Blind spot: the doctor here reads kernel events only. The store
    // replicas record view changes and quorum writes on their ORBs' sinks,
    // and they run without one, so quorum-health (and, with no FT proxy in
    // the cell, restore-freshness and recovery-budget) cannot fire. A sink
    // puts a span context on every request frame, which moves the explore
    // corpus (ROADMAP item 4).
    let flight = obs::Obs::new();
    let choices = {
        let flight = flight.clone();
        instrument(&mut sim, plan, move |now, ev| flight.kernel_event(now, ev))
    };

    let naming_host = sim.add_host(HostConfig::new("infra"));
    let replica_hosts: Vec<HostId> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("store{i}"))))
        .collect();
    let driver_host = sim.add_host(HostConfig::new("driver"));

    sim.spawn(naming_host, "naming", move |ctx| {
        cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None)
    });
    let store_cfg = StoreConfig {
        // A dead peer stalls a write for at most this long before the
        // quorum check fails it back to the driver's retry loop.
        repl_timeout: SimDuration::from_millis(40),
        ..StoreConfig::default()
    };
    spawn_replicated_store(&mut sim, &replica_hosts, naming_host, store_cfg, None);

    // Cut replica 2 off from everyone at 130 ms, heal at 180 ms — the
    // middle of the driver's write stream.
    let cut = vec![replica_hosts[2]];
    sim.schedule_fault(
        SimTime::from_nanos(130_000_000),
        Fault::PartitionGroup {
            side: cut.clone(),
            blocked: true,
        },
    );
    sim.schedule_fault(
        SimTime::from_nanos(180_000_000),
        Fault::PartitionGroup {
            side: cut,
            blocked: false,
        },
    );

    let out: Shared<DriverOut> = Shared::new(DriverOut::default());
    let driver = {
        let out = out.clone();
        sim.spawn(driver_host, "driver", move |ctx| {
            drive(ctx, naming_host, out)
        })
    };
    let end = sim.run_until_exit(driver);
    let doctor = monitor::diagnose(&flight, end);

    let s = out.get();
    let mut violations = Vec::new();
    if !s.completed {
        violations.push("driver wedged: write or read-back retries exhausted".to_string());
    }
    if s.acked.get() != EPOCHS {
        violations.push(format!("only {}/{EPOCHS} epochs acked", s.acked.get()));
    }
    if s.completed && s.final_epoch != s.acked {
        violations.push(format!(
            "acked epoch {} lost across the heal (read back {})",
            s.acked.get(),
            s.final_epoch.get()
        ));
    }
    if doctor.violations > 0 {
        violations.push(format!(
            "doctor recorded {} invariant violation(s):\n{}",
            doctor.violations, doctor.report
        ));
    }

    let mut h = Fnv::new();
    h.write_str("quorum_heal");
    h.write_u64(s.acked.get());
    h.write_u64(s.final_epoch.get());
    h.write_u64(u64::from(s.completed));
    h.write_u64(s.attempts_per_epoch.len() as u64);
    for a in &s.attempts_per_epoch {
        h.write_u64(*a as u64);
    }
    h.write_u64(doctor.violations);
    h.write_u64(end.as_nanos());

    RunOutcome {
        digest: h.finish(),
        violations,
        log: choices.get(),
        end_ns: end.as_nanos(),
    }
}
