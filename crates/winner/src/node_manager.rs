//! The Winner **node manager**: one per workstation, "periodically
//! measuring the node's performance and system load … collected by the
//! host operating system", and sending it to the system manager (§2).

use obs::{EventBody, Obs, ProcessObs};
use orb::{Ior, ObjectRef, Orb};
use rand::Rng;
use simnet::{Ctx, SimDuration, SimResult};

use crate::client::SystemManagerClient;
use crate::protocol::LoadReport;

/// CPU work spent taking one sample (reading `/proc` is not free).
const SAMPLE_COST: f64 = 50e-6;
/// Sampling/report period.
const INTERVAL: SimDuration = SimDuration::from_secs(1);

/// The body of a node manager process: sample the local host, report to
/// `system_manager`, sleep, repeat. Runs until killed. Reports are
/// `oneway`, so a crashed or unreachable system manager never blocks the
/// node manager. Each sample
/// is recorded into `obs`, when present, as a `load-report` event; the
/// node manager opens no span, so its report frames carry no trace
/// context and the sink changes nothing that runs.
pub fn run_node_manager(ctx: &mut Ctx, system_manager: Ior, obs: Option<Obs>) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(ProcessObs::from_sink(obs, ctx));
    let client = SystemManagerClient::new(ObjectRef::new(system_manager));
    // Stagger node managers so reports do not arrive in lockstep.
    let jitter_ns = ctx.rng().random_range(0..INTERVAL.as_nanos());
    ctx.sleep(SimDuration::from_nanos(jitter_ns))?;
    let mut seq = 0u64;
    loop {
        ctx.compute(SAMPLE_COST)?;
        let host = ctx.host();
        let Some(snap) = ctx.host_info(host)? else {
            // A process's own host must exist; if the kernel disagrees,
            // skip this sample rather than killing the node manager.
            ctx.sleep(INTERVAL)?;
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
        orb.obs().event(
            ctx.now(),
            EventBody::LoadReport {
                runnable: snap.runnable,
                load_milli: obs::milli(snap.load_avg),
                cpu_milli: obs::milli(snap.cpu_util),
            },
        );
        ctx.sleep(INTERVAL)?;
    }
}
