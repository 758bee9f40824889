//! A heartbeat failure detector — an extension beyond the paper's
//! COMM_FAILURE-only detection.
//!
//! The paper detects failures lazily: a client only learns a server died
//! when its next call raises `COMM_FAILURE`. This detector probes a service
//! group proactively (GIOP `LocateRequest` pings) and removes dead
//! replicas from the naming service, so the *next* resolve already avoids
//! them.

use simnet::Shared;

use cosnaming::{Name, NamingClient};
use orb::{Orb, SystemException};
use simnet::{Ctx, HostId, SimDuration, SimResult};

/// Detector tuning.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// The service group to watch.
    pub group: Name,
    /// Probe period.
    pub period: SimDuration,
    /// Consecutive failed probes before a member is evicted.
    pub suspect_after: u32,
}

impl DetectorConfig {
    /// Watch one group with a 1 s period, evicting after 2 missed probes.
    pub fn new(group: Name) -> Self {
        DetectorConfig {
            group,
            period: SimDuration::from_secs(1),
            suspect_after: 2,
        }
    }
}

/// Shared counters (the detector runs as its own process).
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectorStats {
    /// Probes sent.
    pub probes: u64,
    /// Probes that failed.
    pub failed_probes: u64,
    /// Members evicted from their groups.
    pub evictions: u64,
}

/// The detector process body: probe every member of the watched group,
/// evicting members that fail `suspect_after` consecutive probes. With a
/// `sink`, probe outcomes and evictions are exported as `detector.*`
/// counters so failover episodes (e.g. a checkpoint-store replica
/// dropping out) show up in metrics.
pub fn run_detector_obs(
    ctx: &mut Ctx,
    naming_host: HostId,
    cfg: DetectorConfig,
    stats: Shared<DetectorStats>,
    sink: Option<obs::Obs>,
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::from_sink(sink, ctx));
    let ns = NamingClient::root(naming_host);
    let mut misses: std::collections::BTreeMap<orb::Ior, u32> = std::collections::BTreeMap::new();
    loop {
        // Naming unavailable: nothing to probe this round.
        let members = ns.group_members(&mut orb, ctx, &cfg.group)?;
        for member in members.unwrap_or_default() {
            stats.lock().probes += 1;
            let alive = matches!(
                orb.locate(ctx, &member)?,
                Ok(true)
                    | Err(orb::Exception::System(SystemException {
                        kind: orb::SysKind::Transient,
                        ..
                    }))
            );
            if alive {
                misses.remove(&member);
                continue;
            }
            stats.lock().failed_probes += 1;
            orb.obs().counter_add("detector.failed_probes", 1);
            let count = misses.entry(member.clone()).or_insert(0);
            *count += 1;
            if *count >= cfg.suspect_after {
                misses.remove(&member);
                if ns
                    .unbind_group_member(&mut orb, ctx, &cfg.group, &member)?
                    .is_ok()
                {
                    stats.lock().evictions += 1;
                    orb.obs().counter_add("detector.evictions", 1);
                }
            }
        }
        ctx.sleep(cfg.period)?;
    }
}
