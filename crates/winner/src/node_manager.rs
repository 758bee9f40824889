//! The Winner **node manager**: one per workstation, "periodically
//! measuring the node's performance and system load … collected by the
//! host operating system", and sending it to the system manager (§2).

use monitor::{EventBody, MonitorHandle};
use orb::{Ior, ObjectRef, Orb};
use rand::Rng;
use simnet::{Ctx, SimDuration, SimResult};

use crate::client::SystemManagerClient;
use crate::protocol::LoadReport;

/// CPU work spent taking one sample (reading `/proc` is not free).
const SAMPLE_COST: f64 = 50e-6;

/// Node manager tuning.
#[derive(Clone, Debug)]
pub struct NodeManagerConfig {
    /// Reference to the system manager.
    pub system_manager: Ior,
    /// Sampling/report period.
    pub interval: SimDuration,
    /// When set, each load sample is also emitted to the run's monitor.
    pub monitor: Option<MonitorHandle>,
}

impl NodeManagerConfig {
    /// Defaults: 1 s period, no monitoring.
    pub fn new(system_manager: Ior) -> Self {
        NodeManagerConfig {
            system_manager,
            interval: SimDuration::from_secs(1),
            monitor: None,
        }
    }
}

/// The body of a node manager process: sample the local host, report,
/// sleep, repeat. Runs until killed. Reports are `oneway`, so a crashed or
/// unreachable system manager never blocks the node manager.
pub fn run_node_manager(ctx: &mut Ctx, cfg: NodeManagerConfig) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    let client = SystemManagerClient::new(ObjectRef::new(cfg.system_manager.clone()));
    // Stagger node managers so reports do not arrive in lockstep.
    let jitter_ns = ctx.rng().random_range(0..cfg.interval.as_nanos().max(1));
    ctx.sleep(SimDuration::from_nanos(jitter_ns))?;
    let mut seq = 0u64;
    loop {
        ctx.compute(SAMPLE_COST)?;
        let host = ctx.host();
        let Some(snap) = ctx.host_info(host)? else {
            // A process's own host must exist; if the kernel disagrees,
            // skip this sample rather than killing the node manager.
            ctx.sleep(cfg.interval)?;
            continue;
        };
        seq += 1;
        let report = LoadReport {
            host: host.0,
            speed: snap.speed,
            runnable: snap.runnable,
            load_avg: snap.load_avg,
            cpu_util: snap.cpu_util,
            seq,
            // The node's *wall clock*, which a fault-injected skew shifts
            // away from virtual time — exactly what a real node manager
            // reading the local clock would report.
            stamp_ns: ctx.now().as_nanos() as i64 + snap.clock_skew_ns,
        };
        client.report(&mut orb, ctx, &report)?;
        if let Some(mon) = &cfg.monitor {
            mon.emit(
                ctx,
                EventBody::LoadReport {
                    runnable: snap.runnable,
                    load_milli: monitor::milli(snap.load_avg),
                    cpu_milli: monitor::milli(snap.cpu_util),
                },
            );
        }
        ctx.sleep(cfg.interval)?;
    }
}
