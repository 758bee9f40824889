//! Deployment helper: spawn N store replicas on distinct hosts, all
//! bound into the single `"CheckpointService"` naming group, plus (when
//! replicated) a store-side failure detector that evicts dead replicas.

use cosnaming::Name;
use ftproxy::{DetectorConfig, CHECKPOINT_SERVICE_NAME};
use simnet::{Ctx, HostId, Kernel, Shared, SimDuration, SimResult};

use crate::protocol::StoreConfig;
use crate::replica::run_store_replica;

/// Probe period of the store-side failure detector: a replica is evicted
/// after `StoreConfig::suspect_after` periods of silence.
pub const DETECTOR_PERIOD: SimDuration = SimDuration::from_millis(250);

/// Spawn one [`crate::StoreReplica`] process per host in `hosts`, each
/// joining the `"CheckpointService"` naming group on `naming_host`, and —
/// when there is more than one replica — a failure-detector process on
/// `naming_host` that probes the group and evicts replicas that stop
/// answering. Clients resolve the *group name* exactly as they would the
/// paper's single store; which replica they get is the naming service's
/// choice, and failover is a re-resolve.
pub fn spawn_replicated_store(
    kernel: &mut Kernel,
    hosts: &[HostId],
    naming_host: HostId,
    cfg: StoreConfig,
    sink: Option<obs::Obs>,
) {
    for (i, &h) in hosts.iter().enumerate() {
        let cfg = cfg.clone();
        let sink = sink.clone();
        kernel.spawn(h, format!("store-replica-{i}"), move |ctx| {
            run_store_replica(ctx, naming_host, cfg, sink)
        });
    }
    if hosts.len() > 1 {
        kernel.spawn(naming_host, "store-detector", move |ctx| {
            run_store_detector(ctx, naming_host, &cfg, sink)
        });
    }
}

/// The store-side failure detector's process body: probe the
/// `"CheckpointService"` group every [`DETECTOR_PERIOD`] and evict the
/// replicas that miss `cfg.suspect_after` probes in a row. Its probe and
/// eviction counts go to `sink` as `detector.*` counters.
pub fn run_store_detector(
    ctx: &mut Ctx,
    naming_host: HostId,
    cfg: &StoreConfig,
    sink: Option<obs::Obs>,
) -> SimResult<()> {
    let det_cfg = DetectorConfig {
        group: Name::simple(CHECKPOINT_SERVICE_NAME),
        period: DETECTOR_PERIOD,
        suspect_after: cfg.suspect_after,
    };
    ftproxy::run_detector_obs(ctx, naming_host, det_cfg, Shared::default(), sink)
}
