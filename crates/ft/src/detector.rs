//! A heartbeat failure detector — an extension beyond the paper's
//! COMM_FAILURE-only detection.
//!
//! The paper detects failures lazily: a client only learns a server died
//! when its next call raises `COMM_FAILURE`. This detector probes service
//! groups proactively (GIOP `LocateRequest` pings) and removes dead
//! replicas from the naming service, so the *next* resolve already avoids
//! them. The recovery-latency ablation benchmark compares both modes.

use simnet::Shared;

use cosnaming::{Name, NamingClient};
use orb::{Orb, SystemException};
use simnet::{Ctx, HostId, SimDuration, SimResult};

/// Detector tuning.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// The service groups to watch.
    pub groups: Vec<Name>,
    /// Probe period.
    pub period: SimDuration,
    /// Consecutive failed probes before a member is evicted.
    pub suspect_after: u32,
}

impl DetectorConfig {
    /// Watch one group with a 1 s period, evicting after 2 missed probes.
    pub fn new(group: Name) -> Self {
        DetectorConfig {
            groups: vec![group],
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

/// The detector process body: probe every member of every watched group,
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
    if let Some(sink) = sink {
        orb.set_obs(obs::ProcessObs::new(sink, ctx));
    }
    let ns = NamingClient::root(naming_host);
    let mut misses: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
    loop {
        for group in &cfg.groups {
            let members = match ns.group_members(&mut orb, ctx, group)? {
                Ok(m) => m,
                Err(_) => continue, // naming unavailable; retry next round
            };
            for member in members {
                stats.lock().probes += 1;
                let alive = matches!(
                    orb.locate(ctx, &member)?,
                    Ok(true)
                        | Err(orb::Exception::System(SystemException {
                            kind: orb::SysKind::Transient,
                            ..
                        }))
                );
                let key = member.stringify();
                if alive {
                    misses.remove(&key);
                    continue;
                }
                stats.lock().failed_probes += 1;
                if let Some(o) = orb.obs().cloned() {
                    o.counter_add("detector.failed_probes", 1);
                }
                let count = misses.entry(key.clone()).or_insert(0);
                *count += 1;
                if *count >= cfg.suspect_after {
                    misses.remove(&key);
                    if ns
                        .unbind_group_member(&mut orb, ctx, group, &member)?
                        .is_ok()
                    {
                        stats.lock().evictions += 1;
                        if let Some(o) = orb.obs().cloned() {
                            o.counter_add("detector.evictions", 1);
                        }
                    }
                }
            }
        }
        ctx.sleep(cfg.period)?;
    }
}
