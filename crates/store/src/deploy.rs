//! Deployment helper: spawn N store replicas on distinct hosts, all
//! bound into the single `"CheckpointService"` naming group, plus (when
//! replicated) a store-side failure detector that evicts dead replicas.

use cosnaming::Name;
use ftproxy::{DetectorConfig, DetectorStats, CHECKPOINT_SERVICE_NAME};
use simnet::{HostId, Kernel, Shared, SimDuration};

use crate::protocol::StoreConfig;
use crate::replica::run_store_replica;

/// Probe period of the store-side failure detector.
const DETECTOR_PERIOD: SimDuration = SimDuration::from_millis(250);

/// What [`spawn_replicated_store`] set up.
pub struct StoreDeployment {
    /// The hosts carrying one replica each.
    pub hosts: Vec<HostId>,
    /// Stats of the store-side failure detector, or `None` when the
    /// deployment is single-replica (nothing to fail over to, so no
    /// detector is spawned and the legacy lazy detection applies).
    pub detector_stats: Option<Shared<DetectorStats>>,
}

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
) -> StoreDeployment {
    for (i, &h) in hosts.iter().enumerate() {
        let cfg = cfg.clone();
        let sink = sink.clone();
        kernel.spawn(h, format!("store-replica-{i}"), move |ctx| {
            run_store_replica(ctx, naming_host, cfg, sink)
        });
    }
    let detector_stats = if hosts.len() > 1 {
        let stats = Shared::new(DetectorStats::default());
        let det_stats = stats.clone();
        let det_sink = sink;
        let det_cfg = DetectorConfig {
            groups: vec![Name::simple(CHECKPOINT_SERVICE_NAME)],
            period: DETECTOR_PERIOD,
            suspect_after: cfg.suspect_after,
        };
        kernel.spawn(naming_host, "store-detector", move |ctx| {
            ftproxy::run_detector_obs(ctx, naming_host, det_cfg, det_stats, det_sink)
        });
        Some(stats)
    } else {
        None
    };
    StoreDeployment {
        hosts: hosts.to_vec(),
        detector_stats,
    }
}
