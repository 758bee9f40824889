//! In-simulation integration tests of the full Winner pipeline: node
//! managers sampling real (simulated) hosts, the system manager ranking
//! them, and clients selecting placement targets.

use std::sync::{Arc, Mutex};

use simnet::{Fault, HostConfig, Kernel, Pid, SimDuration, SimTime};

use crate::policy::BestPerformance;
use crate::{run_node_manager, run_system_manager_obs, SystemManagerClient};

type Cell<T> = Arc<Mutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(Mutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// Boot a cluster: system manager on host 0, node managers everywhere.
/// Returns the IOR cell.
fn boot(sim: &mut Kernel, n_hosts: usize) -> (Vec<simnet::HostId>, Cell<Option<String>>) {
    let hosts: Vec<_> = (0..n_hosts)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let ior = cell::<Option<String>>();
    let io = ior.clone();
    sim.spawn(hosts[0], "winner-sysmgr", move |ctx| {
        let _ = run_system_manager_obs(ctx, Box::new(BestPerformance), None, |i| {
            *io.lock().unwrap() = Some(i.stringify());
        });
    });
    for &h in &hosts {
        let io = ior.clone();
        sim.spawn(h, format!("winner-nm-{h}"), move |ctx| {
            // Wait for the system manager to publish its IOR.
            while io.lock().unwrap().is_none() {
                if ctx.sleep(secs(0.01)).is_err() {
                    return;
                }
            }
            let s = io.lock().unwrap().clone().unwrap();
            let _ = run_node_manager(ctx, orb::Ior::destringify(&s).unwrap(), None);
        });
    }
    (hosts, ior)
}

fn client_from(ior: &Cell<Option<String>>) -> SystemManagerClient {
    let s = ior.lock().unwrap().clone().expect("sysmgr up");
    SystemManagerClient::from_ior(orb::Ior::destringify(&s).unwrap())
}

#[test]
fn selection_avoids_loaded_hosts() {
    let mut sim = Kernel::with_seed(11);
    let (hosts, ior) = boot(&mut sim, 4);
    // Background load on hosts 1 and 2.
    for &h in &hosts[1..3] {
        sim.spawn(h, "spinner", |ctx| {
            let _ = ctx.spin_forever();
        });
    }
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let i = ior.clone();
    let driver = sim.spawn(hosts[3], "driver", move |ctx| {
        ctx.sleep(secs(5.0)).unwrap(); // let reports accumulate
        let mut orb = orb::Orb::init(ctx);
        let client = client_from(&i);
        for _ in 0..2 {
            let pick = client.select(&mut orb, ctx, &[]).unwrap().unwrap();
            o.lock().unwrap().push(pick.unwrap());
        }
    });
    sim.run_until_exit(driver);
    let picks = out.lock().unwrap().clone();
    // Both picks must avoid the loaded hosts 1 and 2, and reservations
    // must spread them over the two idle hosts 0 and 3.
    assert_eq!(picks.len(), 2);
    assert!(picks.iter().all(|&p| p == 0 || p == 3), "{picks:?}");
    assert_ne!(picks[0], picks[1], "{picks:?}");
}

#[test]
fn crashed_host_goes_stale_and_is_avoided() {
    let mut sim = Kernel::with_seed(11);
    let (hosts, ior) = boot(&mut sim, 3);
    // Host 2 crashes at t=3 (taking its node manager with it).
    sim.schedule_fault(SimTime::ZERO + secs(3.0), Fault::CrashHost(hosts[2]));
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let i = ior.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(10.0)).unwrap(); // past crash + staleness window
        let mut orb = orb::Orb::init(ctx);
        let client = client_from(&i);
        for _ in 0..6 {
            let pick = client.select(&mut orb, ctx, &[]).unwrap().unwrap();
            o.lock().unwrap().push(pick.unwrap());
        }
    });
    sim.run_until_exit(driver);
    let picks = out.lock().unwrap().clone();
    assert_eq!(picks.len(), 6);
    assert!(picks.iter().all(|&p| p != 2), "{picks:?}");
}

#[test]
fn snapshot_reflects_cluster_state() {
    let mut sim = Kernel::with_seed(11);
    let (hosts, ior) = boot(&mut sim, 3);
    sim.spawn(hosts[1], "spinner", |ctx| {
        let _ = ctx.spin_forever();
    });
    let out = cell::<Vec<(u32, bool, f64)>>();
    let o = out.clone();
    let i = ior.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(8.0)).unwrap();
        let mut orb = orb::Orb::init(ctx);
        let client = client_from(&i);
        let snap = client.snapshot(&mut orb, ctx).unwrap().unwrap();
        for s in snap {
            o.lock().unwrap().push((s.host, s.alive, s.load_avg));
        }
    });
    sim.run_until_exit(driver);
    let snap = out.lock().unwrap().clone();
    assert_eq!(snap.len(), 3);
    for (host, alive, load) in &snap {
        assert!(alive, "host {host} not alive");
        if *host == 1 {
            assert!(*load > 0.8, "spinner host load {load}");
        } else {
            assert!(*load < 0.3, "idle host {host} load {load}");
        }
    }
}

#[test]
fn candidate_restriction_is_respected_end_to_end() {
    let mut sim = Kernel::with_seed(11);
    let (hosts, ior) = boot(&mut sim, 4);
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let i = ior.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(5.0)).unwrap();
        let mut orb = orb::Orb::init(ctx);
        let client = client_from(&i);
        for _ in 0..4 {
            let pick = client
                .select(&mut orb, ctx, &[1, 2])
                .unwrap()
                .unwrap()
                .unwrap();
            o.lock().unwrap().push(pick);
        }
    });
    sim.run_until_exit(driver);
    assert!(out.lock().unwrap().iter().all(|&p| p == 1 || p == 2));
}

#[test]
fn dead_system_manager_yields_comm_failure() {
    let mut sim = Kernel::with_seed(11);
    let (hosts, ior) = boot(&mut sim, 2);
    // Kill the system manager process (pid 0 is the first spawn).
    sim.schedule_fault(SimTime::ZERO + secs(2.0), Fault::KillProcess(Pid(0)));
    let out = cell::<Option<bool>>();
    let o = out.clone();
    let i = ior.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(4.0)).unwrap();
        let mut orb = orb::Orb::init(ctx);
        let client = client_from(&i);
        let r = client.select(&mut orb, ctx, &[]).unwrap();
        *o.lock().unwrap() = Some(r.unwrap_err().is_comm_failure());
    });
    sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), Some(true));
}

#[test]
fn node_managers_survive_a_dead_system_manager() {
    // Reports are oneway: node managers must keep running (and resume
    // being useful) even while the system manager is away.
    let mut sim = Kernel::with_seed(13);
    let (hosts, ior) = boot(&mut sim, 2);
    // Kill the system manager at t=2 (pid 0 = first spawn in boot()).
    sim.schedule_fault(SimTime::ZERO + secs(2.0), Fault::KillProcess(Pid(0)));
    let out = cell::<Option<u64>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        // Long after the kill, the node managers are still alive and
        // reporting into the void.
        ctx.sleep(secs(10.0)).unwrap();
        let _ = ior;
        *o.lock().unwrap() = Some(ctx.now().as_nanos());
    });
    sim.run_until_exit(driver);
    assert!(out.lock().unwrap().is_some());
    // Node manager processes (pids 1..=2) are still alive.
    assert!(!sim.proc_dead(Pid(1)));
    assert!(!sim.proc_dead(Pid(2)));
}
