//! Simulated processes run on a program-wide pool of OS threads: a cell
//! built a second time in the same program starts no thread, and runs as
//! the first did, to the byte. A test binary of its own, so no concurrent
//! test takes the idle threads.

use corba_runtime::{Cluster, ClusterConfig, NamingMode};
use optim::{run_manager, FtSettings, ManagerConfig};
use simnet::{SimDuration, SimTime};

/// One Table-1-style cell — Winner naming, FT proxies, the checkpoint
/// service — run to the manager's exit and dropped. Returns the OS threads
/// its kernel started and its trace and metrics exports.
fn cell() -> (u64, String, String) {
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: 5,
        seed: 7,
        naming: NamingMode::Winner,
        ..ClusterConfig::default()
    });
    let mcfg = ManagerConfig {
        worker_iters: 2_000,
        manager_iters: 3,
        seed: 7,
        ft: Some(FtSettings::default()),
        request_timeout: SimDuration::from_secs(5),
        obs: Some(cluster.obs.clone()),
        ..ManagerConfig::new(12, 3, cluster.infra)
    };
    let manager = cluster.kernel.spawn_at(
        SimTime::ZERO + SimDuration::from_secs(2),
        cluster.infra,
        "manager",
        Box::new(move |ctx: &mut simnet::Ctx| {
            let _ = run_manager(ctx, &mcfg);
        }),
    );
    cluster.kernel.run_until_exit(manager);
    let started = cluster.kernel.stats().threads_started;
    let spawned = cluster.kernel.stats().spawned;
    assert!(
        started <= spawned,
        "{started} threads for {spawned} processes"
    );
    (
        started,
        cluster.obs.chrome_trace_json(),
        cluster.obs.metrics_text(),
    )
}

#[test]
fn a_second_cell_runs_on_the_first_cells_threads() {
    let (first, trace, metrics) = cell();
    assert!(first > 0, "the first cell started no thread");
    let (second, trace_again, metrics_again) = cell();
    assert_eq!(second, 0, "the second cell started {second} threads");
    assert!(trace.contains("manager.run"), "{trace}");
    assert_eq!(trace, trace_again);
    assert_eq!(metrics, metrics_again);
}
