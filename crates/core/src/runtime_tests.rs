//! Integration tests of the assembled runtime: full cluster boots, and the
//! paper's headline qualitative claims on small configurations.

use simnet::{Fault, Shared, SimDuration, SimTime};
use store::{ChaosConfig, FaultFamily};

use crate::runtime::{Cluster, ClusterConfig, NamingMode};
use crate::scenario::{run_experiment, ExperimentSpec};

fn quick(naming: NamingMode) -> ExperimentSpec {
    ExperimentSpec {
        worker_iters: 3_000,
        manager_iters: 4,
        warmup: SimDuration::from_secs(4),
        ..ExperimentSpec::dim30(naming)
    }
}

#[test]
fn winner_cluster_boots_and_completes_a_run() {
    let outcome = run_experiment(&quick(NamingMode::Winner)).expect("experiment run failed");
    assert_eq!(outcome.report.best_point.len(), 30);
    assert!(outcome.report.elapsed.as_secs_f64() > 0.0);
    assert_eq!(outcome.report.placements.len(), 3);
}

#[test]
fn plain_cluster_boots_and_completes_a_run() {
    let outcome = run_experiment(&quick(NamingMode::Plain)).expect("experiment run failed");
    assert_eq!(outcome.report.best_point.len(), 30);
    // Plain mode must not deploy Winner.
    assert_eq!(outcome.report.recoveries, 0);
}

/// The paper's central claim, in miniature: with background load on some
/// hosts, the Winner-integrated naming service places workers on idle
/// machines and the run is faster than with the plain naming service.
#[test]
fn winner_beats_plain_under_partial_load() {
    let spec_w = quick(NamingMode::Winner).loaded(2).seed(42);
    let spec_p = quick(NamingMode::Plain).loaded(2).seed(42);
    let w = run_experiment(&spec_w).expect("experiment run failed");
    let p = run_experiment(&spec_p).expect("experiment run failed");
    // Same load placement (same seed): at 2/10 loaded hosts and only 3
    // workers on 6 available hosts, Winner should fully avoid the load.
    // Plain placement may or may not collide, so require ≤ only; across
    // the bench's seed set the strict inequality shows up on average.
    let tw = w.report.elapsed.as_secs_f64();
    let tp = p.report.elapsed.as_secs_f64();
    assert!(
        tw <= tp * 1.02,
        "winner={tw}s plain={tp}s — Winner must never be slower"
    );
    // Winner's placements avoid every loaded host.
    for placed in &w.report.placements {
        assert!(
            !w.loaded.contains(placed),
            "worker placed on loaded host {placed}: placements {:?} loaded {:?}",
            w.report.placements,
            w.loaded
        );
    }
}

#[test]
fn ft_experiment_runs_with_proxies() {
    let mut spec = quick(NamingMode::Winner);
    spec.ft = Some(optim::FtSettings::default());
    let outcome = run_experiment(&spec).expect("experiment run failed");
    assert!(outcome.report.checkpoints > 0);
    // FT must cost time but not correctness.
    assert_eq!(outcome.report.best_point.len(), 30);
}

#[test]
fn ft_overhead_is_visible_and_positive() {
    let plain = run_experiment(&quick(NamingMode::Winner).seed(7)).expect("experiment run failed");
    let mut ft_spec = quick(NamingMode::Winner).seed(7);
    ft_spec.ft = Some(optim::FtSettings::default());
    let ft = run_experiment(&ft_spec).expect("experiment run failed");
    let tp = plain.report.elapsed.as_secs_f64();
    let tf = ft.report.elapsed.as_secs_f64();
    assert!(
        tf > tp,
        "proxy indirection and checkpointing must cost time: plain={tp} ft={tf}"
    );
}

#[test]
fn same_seed_reproduces_bit_identical_results() {
    let spec = quick(NamingMode::Winner).loaded(2).seed(99);
    let a = run_experiment(&spec).expect("experiment run failed");
    let b = run_experiment(&spec).expect("experiment run failed");
    assert_eq!(a.report.elapsed, b.report.elapsed);
    assert_eq!(a.report.best_value, b.report.best_value);
    assert_eq!(a.report.placements, b.report.placements);
    assert_eq!(a.loaded, b.loaded);
}

#[test]
#[should_panic(expected = "bad worker host index")]
fn infra_host_cannot_run_workers() {
    let _ = crate::runtime::Cluster::build(crate::runtime::ClusterConfig {
        hosts: 3,
        worker_hosts: vec![0], // host 0 is reserved for infrastructure
        ..crate::runtime::ClusterConfig::default()
    });
}

#[test]
fn heterogeneous_speeds_are_applied() {
    let mut cluster = crate::runtime::Cluster::build(crate::runtime::ClusterConfig {
        hosts: 3,
        speeds: vec![1.0, 2.0, 0.5],
        seed: 5,
        naming: NamingMode::Plain,
        ..crate::runtime::ClusterConfig::default()
    });
    // Read as a node manager reads them, from a process.
    let speeds = Shared::new(Vec::new());
    let (out, hosts) = (speeds.clone(), cluster.hosts.clone());
    let reader = cluster.kernel.spawn(cluster.infra, "reader", move |ctx| {
        ctx.sleep(SimDuration::from_secs(1))?;
        for h in hosts {
            let speed = ctx.host_info(h)?.map(|s| s.speed);
            out.with(|v| v.push(speed));
        }
        Ok(())
    });
    cluster.kernel.run_until_exit(reader);
    assert_eq!(speeds.get(), vec![Some(1.0), Some(2.0), Some(0.5)]);
}

/// A chaos `RestartHost` on a store host reboots that host's services:
/// its replica, evicted while the host was down, joins the
/// `CheckpointService` group again, and its node manager, gone stale at the
/// system manager, reports again. The node manager counts its reports
/// from 1 again; Winner takes them once its record of the host is stale,
/// so the host reads alive within the staleness window (3.5 s) plus one
/// report period of its reboot — also after a long first life (a crash at
/// 11 s follows at least 10 reports).
#[test]
fn a_restarted_store_host_rejoins_the_group_and_reports_again() {
    for crash_at in [1, 11].map(SimDuration::from_secs) {
        let mut cluster = Cluster::build(ClusterConfig {
            hosts: 1 + 3,
            seed: 3,
            store_replicas: 3,
            chaos: Some(ChaosConfig {
                seed: 5,
                start: SimTime::ZERO + crash_at,
                end: SimTime::ZERO + crash_at + SimDuration::from_secs(11),
                // One slot: the next one would fall past `end`.
                mean_interval: SimDuration::from_secs(30),
                // Longer than Winner's 3.5 s staleness window.
                restart_after: Some(SimDuration::from_secs(4)),
                max_concurrent_down: 1,
                family: FaultFamily::Crash,
            }),
            ..ClusterConfig::default()
        });
        let [crash, restart] = &cluster.chaos_plan.events[..] else {
            panic!("one crash and its restart: {:?}", cluster.chaos_plan.events);
        };
        let Fault::CrashHost(victim) = crash.fault else {
            panic!("not a crash: {crash:?}");
        };
        assert_eq!(crash.at, SimTime::ZERO + crash_at);
        assert_eq!(restart.fault, Fault::RestartHost(victim));
        assert!(cluster.store_hosts.contains(&victim));

        // Sampled just before the reboot and 4.5 s after it: is the
        // victim's replica in the group, and is its load data fresh at
        // Winner?
        let samples = [
            SimTime::from_nanos(restart.at.as_nanos() - 200_000_000),
            restart.at + SimDuration::from_millis(4_500),
        ];
        let (infra, sysmgr) = (cluster.infra, cluster.sysmgr_ior.clone());
        let seen: Shared<Vec<(bool, bool)>> = Shared::default();
        let out = seen.clone();
        let probe = cluster.kernel.spawn(infra, "probe", move |ctx| {
            let mut orb = orb::Orb::init(ctx);
            let winner = winner::SystemManagerClient::from_ior(sysmgr.get().unwrap());
            let group = cosnaming::Name::simple(ftproxy::CHECKPOINT_SERVICE_NAME);
            for at in samples {
                ctx.sleep(at.since(ctx.now()))?;
                let members = cosnaming::NamingClient::root(infra)
                    .group_members(&mut orb, ctx, &group)?
                    .unwrap();
                let status = winner.snapshot(&mut orb, ctx)?.unwrap();
                out.with(|v| {
                    v.push((
                        members.iter().any(|ior| ior.host == victim),
                        status.iter().any(|s| s.host == victim.0 && s.alive),
                    ))
                });
            }
            Ok(())
        });
        cluster.kernel.run_until_exit(probe);
        assert_eq!(
            seen.get(),
            vec![(false, false), (true, true)],
            "crash at {crash_at:?}; down: evicted and stale; rebooted: a group member reporting load"
        );
    }
}
