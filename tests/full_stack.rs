//! Cross-crate integration tests: the full runtime (simnet, orb, winner,
//! naming, ft, optim) exercised through the public `corba_runtime` API,
//! asserting the paper's qualitative results at test scale.

use corba_runtime::{
    run_experiment, Cluster, ClusterConfig, CrashPlan, ExperimentSpec, NamingMode, WinnerPolicy,
};
use optim::FtSettings;
use simnet::SimDuration;

fn quick30(naming: NamingMode) -> ExperimentSpec {
    ExperimentSpec {
        worker_iters: 2_000,
        manager_iters: 4,
        ..ExperimentSpec::dim30(naming)
    }
}

fn quick100(naming: NamingMode) -> ExperimentSpec {
    ExperimentSpec {
        worker_iters: 2_000,
        manager_iters: 4,
        ..ExperimentSpec::dim100(naming)
    }
}

/// Figure 3's left half in miniature: with 2 of 10 hosts loaded and only
/// 3 workers needed, Winner matches its own unloaded runtime while plain
/// naming (averaged over seeds) degrades.
#[test]
fn fig3_shape_30dim() {
    let seeds = [11u64, 12, 13];
    let mut winner_unloaded = 0.0;
    let mut winner_loaded = 0.0;
    let mut plain_loaded = 0.0;
    for &s in &seeds {
        winner_unloaded += run_experiment(&quick30(NamingMode::Winner).seed(s))
            .expect("experiment run failed")
            .report
            .elapsed
            .as_secs_f64();
        winner_loaded += run_experiment(&quick30(NamingMode::Winner).loaded(3).seed(s))
            .expect("experiment run failed")
            .report
            .elapsed
            .as_secs_f64();
        plain_loaded += run_experiment(&quick30(NamingMode::Plain).loaded(3).seed(s))
            .expect("experiment run failed")
            .report
            .elapsed
            .as_secs_f64();
    }
    let n = seeds.len() as f64;
    let (wu, wl, pl) = (winner_unloaded / n, winner_loaded / n, plain_loaded / n);
    // Winner under partial load ≈ Winner unloaded (free hosts remain).
    assert!(
        wl < wu * 1.15,
        "Winner did not avoid load: unloaded={wu:.3}s loaded={wl:.3}s"
    );
    // Plain degrades visibly on average.
    assert!(
        pl > wl * 1.2,
        "plain did not degrade: plain={pl:.3}s winner={wl:.3}s"
    );
}

/// Figure 3's convergence: when load saturates the NOW (8 of 10 hosts),
/// both services are forced onto loaded hosts and the gap closes.
#[test]
fn fig3_convergence_at_high_load() {
    let w = run_experiment(&quick100(NamingMode::Winner).loaded(8).seed(21))
        .expect("experiment run failed");
    let p = run_experiment(&quick100(NamingMode::Plain).loaded(8).seed(21))
        .expect("experiment run failed");
    let (tw, tp) = (
        w.report.elapsed.as_secs_f64(),
        p.report.elapsed.as_secs_f64(),
    );
    assert!(
        (tw - tp).abs() / tp < 0.25,
        "curves should converge at saturation: winner={tw:.3} plain={tp:.3}"
    );
}

/// Table 1's mechanism: constant per-call FT overhead ⇒ the relative
/// overhead falls as worker calls get longer.
#[test]
fn table1_overhead_declines_with_call_length() {
    let mut ratios = Vec::new();
    for iters in [1_000u64, 4_000] {
        let mut plain = quick100(NamingMode::Winner).seed(5);
        plain.worker_iters = iters;
        let mut ft = plain.clone();
        ft.ft = Some(FtSettings::default());
        let tp = run_experiment(&plain)
            .expect("experiment run failed")
            .report
            .elapsed
            .as_secs_f64();
        let tf = run_experiment(&ft)
            .expect("experiment run failed")
            .report
            .elapsed
            .as_secs_f64();
        ratios.push(tf / tp);
    }
    assert!(
        ratios[0] > ratios[1],
        "relative overhead must decline: {ratios:?}"
    );
    assert!(ratios[1] > 1.0, "FT always costs something: {ratios:?}");
}

/// The crash cell: a worker host dies mid-run under FT proxies.
fn crash_cell() -> ExperimentSpec {
    // Plain naming gives deterministic placements (NOW hosts 1..7), so the
    // crash of NOW host 1 is guaranteed to hit a worker in use.
    let mut spec = quick100(NamingMode::Plain).seed(9);
    spec.worker_iters = 5_000;
    spec.ft = Some(FtSettings {
        mode: ftproxy::CheckpointMode::Bulk,
        checkpoint_every: 1,
        max_recoveries: 6,
    });
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(600),
        now_host_index: 0,
        restart_after: None,
    });
    spec
}

/// A mid-run host crash with FT proxies: the run completes and the
/// decomposition identity still holds.
#[test]
fn crash_recovery_preserves_results() {
    let outcome = run_experiment(&crash_cell()).expect("experiment run failed");
    let r = &outcome.report;
    assert!(r.recoveries > 0, "the crash must be felt: {r:?}");
    assert_eq!(r.best_point.len(), 100);
    let direct =
        <optim::Rosenbrock as optim::Problem>::eval(&optim::Rosenbrock::new(100), &r.best_point);
    assert!(
        (direct - r.best_value).abs() < 1e-6 * (1.0 + direct.abs()),
        "decomposition broken after recovery: {} vs {}",
        direct,
        r.best_value
    );
}

/// Recovery is transparent: a crash that lands between a worker's reply
/// and the proxy's checkpoint fetch leaves the answer the fault-free run
/// gives, to the bit. Two cells of the crash sweep (NOW host × instant ×
/// checkpoint mode) that hit that window.
#[test]
fn a_crash_before_the_checkpoint_fetch_changes_no_answer() {
    for (mode, host, at_ms) in [
        (ftproxy::CheckpointMode::Bulk, 1, 309),
        (ftproxy::CheckpointMode::PerValue, 2, 420),
    ] {
        let mut spec = crash_cell();
        spec.ft = spec.ft.map(|ft| FtSettings { mode, ..ft });
        spec.crash = None;
        let clean = run_experiment(&spec).expect("experiment run failed").report;
        spec.crash = Some(CrashPlan {
            after: SimDuration::from_millis(at_ms),
            now_host_index: host,
            restart_after: None,
        });
        let r = run_experiment(&spec).expect("experiment run failed").report;
        assert!(r.recoveries > 0, "the crash must be felt: {r:?}");
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&r.best_point) == bits(&clean.best_point)
                && r.manager_iterations == clean.manager_iterations,
            "{mode:?}, host {host} at {at_ms} ms: best {} against {}, {} checkpoints for {} calls",
            r.best_value,
            clean.best_value,
            r.checkpoints,
            r.worker_calls
        );
    }
}

/// How long the manager waits on a dead worker is the ORB's finding (the
/// worker's host stops answering keepalives), not `request_timeout`'s: the
/// crash cell ends at the same virtual instant, give or take 1 %, whether
/// that constant is the default minute or 2 s.
#[test]
fn crash_detection_does_not_wait_out_the_request_timeout() {
    let ends_at = |timeout_s| {
        let mut spec = crash_cell();
        spec.request_timeout = SimDuration::from_secs(timeout_s);
        let outcome = run_experiment(&spec).expect("experiment run failed");
        assert!(outcome.report.recoveries > 0, "{:?}", outcome.report);
        outcome.report.elapsed.as_secs_f64()
    };
    let (minute, short) = (ends_at(60), ends_at(2));
    assert!(
        (minute - short).abs() <= 0.01 * short,
        "60 s timeout: {minute:.3} s, 2 s timeout: {short:.3} s"
    );
}

/// The Winner policy knob reaches the system manager: a uniform-random
/// policy under load is slower than best-performance.
#[test]
fn policy_choice_matters_under_load() {
    let mut best = quick100(NamingMode::Winner).loaded(4).seed(17);
    best.policy = WinnerPolicy::BestPerformance;
    let mut uniform = best.clone();
    uniform.policy = WinnerPolicy::Uniform;
    let tb = run_experiment(&best)
        .expect("experiment run failed")
        .report
        .elapsed
        .as_secs_f64();
    let tu = run_experiment(&uniform)
        .expect("experiment run failed")
        .report
        .elapsed
        .as_secs_f64();
    assert!(
        tu >= tb,
        "uniform placement cannot beat best-performance: best={tb:.3} uniform={tu:.3}"
    );
}

/// Host restarts bring capacity back: crash a host, restart it, and the
/// cluster keeps functioning end to end.
#[test]
fn host_restart_is_survivable() {
    let mut spec = quick30(NamingMode::Winner).seed(23);
    spec.ft = Some(FtSettings {
        mode: ftproxy::CheckpointMode::Bulk,
        checkpoint_every: 1,
        max_recoveries: 6,
    });
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(300),
        now_host_index: 1,
        restart_after: Some(SimDuration::from_secs(2)),
    });
    let outcome = run_experiment(&spec).expect("experiment run failed");
    assert_eq!(outcome.report.best_point.len(), 30);
}

/// The cluster builder honours explicit worker-host restrictions (the
/// paper's "6 workstations were available").
#[test]
fn worker_host_restriction_is_respected() {
    let outcome =
        run_experiment(&quick30(NamingMode::Winner).seed(3)).expect("experiment run failed");
    for placed in &outcome.report.placements {
        assert!(
            (1..=6).contains(placed),
            "worker on unavailable host: {:?}",
            outcome.report.placements
        );
    }
}

/// Direct cluster API: background load is visible through Winner's
/// snapshot (sanity of the monitoring path used by every experiment).
#[test]
fn cluster_monitoring_sees_load() {
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: 4,
        naming: NamingMode::Winner,
        seed: 77,
        ..ClusterConfig::default()
    });
    let loaded_host = cluster.hosts[2];
    cluster.add_background_load(loaded_host);
    // Read as a node manager reads them, from a process, after 6 s.
    let snaps = simnet::Shared::new(Vec::new());
    let (out, hosts) = (snaps.clone(), [loaded_host, cluster.hosts[3]]);
    let reader = cluster.kernel.spawn(cluster.infra, "reader", move |ctx| {
        ctx.sleep(SimDuration::from_secs(6))?;
        for h in hosts {
            let snap = ctx.host_info(h)?.expect("a cluster host");
            out.with(|v| v.push(snap));
        }
        Ok(())
    });
    cluster.kernel.run_until_exit(reader);
    let [snap, idle] = snaps.get()[..] else {
        panic!("two hosts read")
    };
    assert!(snap.load_avg > 0.8, "{snap:?}");
    assert!(idle.load_avg < 0.3, "{idle:?}");
}

/// Scale smoke test: the runtime handles a larger metacomputer than the
/// paper's testbed (25 NOW hosts, 16 workers) without trouble.
#[test]
fn scales_beyond_the_papers_testbed() {
    let spec = ExperimentSpec {
        n: 120,
        workers: 16,
        worker_iters: 1_000,
        manager_iters: 3,
        now_hosts: 25,
        available_hosts: 25,
        loaded_hosts: 5,
        ..ExperimentSpec::dim100(NamingMode::Winner)
    };
    let outcome = run_experiment(&spec.seed(31)).expect("experiment run failed");
    let r = &outcome.report;
    assert_eq!(r.best_point.len(), 120);
    assert_eq!(r.placements.len(), 16);
    // Winner placement avoids all five loaded hosts (20 free ≥ 16 workers).
    for placed in &r.placements {
        assert!(
            !outcome.loaded.contains(placed),
            "worker on loaded host: {:?} loaded {:?}",
            r.placements,
            outcome.loaded
        );
    }
}

/// The numerics are part of the model: how many outer evaluations a run
/// takes — hence every runtime in Figure 3 and Table 1 — depends on every
/// rounding in `optim`. One `--quick`-sized 30-dim / 3-worker cell, pinned
/// to the bit, so a change to the floating-point operation order trips a
/// test and not just a table in EXPERIMENTS.md. If this fails, regenerate
/// `results/` and say in the PR that the model moved.
#[test]
fn numerics_are_pinned_through_the_whole_stack() {
    let spec = ExperimentSpec {
        worker_iters: 2_000,
        ..ExperimentSpec::dim30(NamingMode::Winner)
    };
    let r = run_experiment(&spec).expect("experiment run failed").report;
    assert_eq!(r.best_value.to_bits(), 0x404e_7632_b182_2a89);
    assert_eq!((r.manager_evals, r.worker_calls), (19, 57));
}
