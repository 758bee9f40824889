//! In-simulation tests of the naming service: standard COS Naming
//! behaviour, group bindings, and Winner-driven load-distributing resolve.

use std::sync::{Arc, Mutex};

use orb::{Exception, Ior, ObjectKey, Orb, OrbConfig, SysKind::CommFailure};
use simnet::{Fault, HostConfig, HostId, Kernel, Pid, Port, SimDuration, SimTime};
use winner::BestPerformance;

use crate::client::{NamingClient, REGISTER_BACKOFF, REGISTER_MAX_ATTEMPTS};
use crate::context::LbMode;
use crate::name::{Name, NameComponent};
use crate::server::run_naming_service_obs;
use crate::{AlreadyBound, EmptyGroup, NotFound};

type Cell<T> = Arc<Mutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(Mutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// A dummy object reference living on `host` (no live server needed for
/// pure naming tests).
fn fake_ior(host: HostId, key: u64) -> Ior {
    Ior::new("IDL:Test/Svc:1.0", host, Port(4000), ObjectKey(key))
}

/// Boot hosts with a plain naming service on host 0.
fn boot_plain(sim: &mut Kernel, n: usize) -> Vec<HostId> {
    let hosts: Vec<_> = (0..n)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    hosts
}

/// Boot the load-distributing naming service on `host`, once the Winner
/// system manager has published its IOR into `sysmgr_ior`.
fn boot_winner_naming(sim: &mut Kernel, host: HostId, sysmgr_ior: &Cell<Option<Ior>>) {
    let sm = sysmgr_ior.clone();
    sim.spawn(host, "naming", move |ctx| {
        while sm.lock().unwrap().is_none() {
            if ctx.sleep(secs(0.005)).is_err() {
                return;
            }
        }
        let s = sm.lock().unwrap().clone().unwrap();
        let _ = run_naming_service_obs(ctx, LbMode::Winner { system_manager: s }, None);
    });
}

#[test]
fn bind_resolve_round_trip() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 2);
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let target = fake_ior(hosts[1], 7);
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let name = Name::simple("Calc");
        ns.bind(&mut orb, ctx, &name, &target).unwrap().unwrap();
        let obj = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
        o.lock()
            .unwrap()
            .push(format!("resolved:{}", obj.ior == target));
        let again = ns.bind(&mut orb, ctx, &name, &target).unwrap();
        o.lock().unwrap().push(format!(
            "already-bound:{}",
            AlreadyBound::extract(&again.unwrap_err()).is_some()
        ));
        let unknown = ns.resolve(&mut orb, ctx, &Name::simple("Nope")).unwrap();
        o.lock().unwrap().push(format!(
            "unknown:{}",
            NotFound::extract(&unknown.unwrap_err()).is_some()
        ));
    });
    sim.run_until_exit(driver);
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "resolved:true".to_string(),
            "already-bound:true".to_string(),
            "unknown:true".to_string()
        ]
    );
}

/// `apps/solver`: a name of two components.
fn apps_solver() -> Name {
    Name(vec![NameComponent::id("apps"), NameComponent::id("solver")])
}

/// The context is flat: a name of two components has nothing to follow,
/// so every operation on it is `NotFound(missing_node)` naming the whole
/// name, even when its first component is bound.
#[test]
fn a_two_component_name_is_not_found() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 2);
    let out = cell::<Vec<Option<NotFound>>>();
    let o = out.clone();
    let obj = fake_ior(hosts[1], 3);
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        ns.bind(&mut orb, ctx, &Name::simple("apps"), &obj)
            .unwrap()
            .unwrap();
        let deep = apps_solver();
        let nf = |r: Result<_, orb::Exception>| r.err().and_then(|e| NotFound::extract(&e));
        let resolved = ns.resolve(&mut orb, ctx, &deep).unwrap().map(drop);
        let bound = ns.bind(&mut orb, ctx, &deep, &obj).unwrap();
        let joined = ns.bind_group_member(&mut orb, ctx, &deep, &obj).unwrap();
        *o.lock().unwrap() = vec![nf(resolved), nf(bound), nf(joined)];
    });
    sim.run_until_exit(driver);
    let missing = NotFound {
        why: crate::NotFoundReason::missing_node,
        rest_of_name: apps_solver(),
    };
    assert_eq!(*out.lock().unwrap(), vec![Some(missing); 3]);
}

#[test]
fn bind_twice_raises_already_bound_and_rebind_replaces() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 2);
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    let a = fake_ior(hosts[1], 1);
    let b = fake_ior(hosts[1], 2);
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let name = Name::simple("Svc");
        ns.bind(&mut orb, ctx, &name, &a).unwrap().unwrap();
        let again = ns.bind(&mut orb, ctx, &name, &b).unwrap();
        o.lock()
            .unwrap()
            .push(AlreadyBound::extract(&again.unwrap_err()).is_some());
        ns.rebind(&mut orb, ctx, &name, &b).unwrap().unwrap();
        let got = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
        o.lock().unwrap().push(got.ior == b);
    });
    sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), vec![true, true]);
}

#[test]
fn plain_group_resolution_round_robins() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 4);
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let members: Vec<Ior> = (1..4).map(|i| fake_ior(hosts[i], i as u64)).collect();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let name = Name::simple("Workers");
        for m in &members {
            ns.bind_group_member(&mut orb, ctx, &name, m)
                .unwrap()
                .unwrap();
        }
        for _ in 0..6 {
            let got = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
            o.lock().unwrap().push(got.ior.host.0);
        }
    });
    sim.run_until_exit(driver);
    let picks = out.lock().unwrap().clone();
    assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
}

#[test]
fn membership_changes_keep_the_round_robin_walk_in_order() {
    // A bind or unbind behind or ahead of the cursor must not make the
    // walk skip a member or pick one twice, and clients that take each
    // resolved member out of the group (as FT proxies adopt theirs) must
    // still walk the hosts in order.
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 8);
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let members: Vec<Ior> = (1..8).map(|i| fake_ior(hosts[i], i as u64)).collect();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let name = Name::simple("Workers");
        let bind = |orb: &mut Orb, ctx: &mut simnet::Ctx, m: &Ior| {
            ns.bind_group_member(orb, ctx, &name, m).unwrap().unwrap();
        };
        let unbind = |orb: &mut Orb, ctx: &mut simnet::Ctx, m: &Ior| {
            ns.unbind_group_member(orb, ctx, &name, m).unwrap().unwrap();
        };
        let resolve = |orb: &mut Orb, ctx: &mut simnet::Ctx| {
            let got = ns.resolve(orb, ctx, &name).unwrap().unwrap().ior;
            o.lock().unwrap().push(got.host.0);
            got
        };
        for i in [0, 2, 3, 4] {
            bind(&mut orb, ctx, &members[i]);
        }
        // 1, 3; then host 2 joins behind the cursor and host 5 leaves
        // ahead of it: 4, 1, 2.
        for _ in 0..2 {
            resolve(&mut orb, ctx);
        }
        bind(&mut orb, ctx, &members[1]);
        unbind(&mut orb, ctx, &members[4]);
        for _ in 0..3 {
            resolve(&mut orb, ctx);
        }
        // Hosts 5–7 join ahead of the cursor; each pick is then adopted.
        for m in &members[4..] {
            bind(&mut orb, ctx, m);
        }
        for _ in 0..7 {
            let got = resolve(&mut orb, ctx);
            unbind(&mut orb, ctx, &got);
        }
    });
    sim.run_until_exit(driver);
    let walk = [1, 3, 4, 1, 2, 3, 4, 5, 6, 7, 1, 2];
    assert_eq!(*out.lock().unwrap(), walk);
}

#[test]
fn group_member_management() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 3);
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let m1 = fake_ior(hosts[1], 1);
    let m2 = fake_ior(hosts[2], 2);
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let name = Name::simple("G");
        ns.bind_group_member(&mut orb, ctx, &name, &m1)
            .unwrap()
            .unwrap();
        ns.bind_group_member(&mut orb, ctx, &name, &m2)
            .unwrap()
            .unwrap();
        // Duplicate member registration is rejected.
        let dup = ns.bind_group_member(&mut orb, ctx, &name, &m1).unwrap();
        o.lock().unwrap().push(format!(
            "dup:{}",
            AlreadyBound::extract(&dup.unwrap_err()).is_some()
        ));
        let members = ns.group_members(&mut orb, ctx, &name).unwrap().unwrap();
        o.lock().unwrap().push(format!("n:{}", members.len()));
        ns.unbind_group_member(&mut orb, ctx, &name, &m1)
            .unwrap()
            .unwrap();
        let members = ns.group_members(&mut orb, ctx, &name).unwrap().unwrap();
        o.lock().unwrap().push(format!("after:{}", members.len()));
        // Remove the last member: resolve now raises EmptyGroup.
        ns.unbind_group_member(&mut orb, ctx, &name, &m2)
            .unwrap()
            .unwrap();
        let r = ns.resolve(&mut orb, ctx, &name).unwrap();
        o.lock().unwrap().push(format!(
            "empty:{}",
            EmptyGroup::extract(&r.unwrap_err()).is_some()
        ));
    });
    sim.run_until_exit(driver);
    assert_eq!(
        *out.lock().unwrap(),
        vec!["dup:true", "n:2", "after:1", "empty:true"]
    );
}

/// Full-stack test of the paper's mechanism: Winner-backed resolution
/// avoids hosts with background load, transparently to the client.
#[test]
fn winner_resolution_avoids_loaded_hosts() {
    let mut sim = Kernel::with_seed(3);
    let hosts: Vec<_> = (0..5)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    // Winner system manager on host 0.
    let sysmgr_ior = cell::<Option<Ior>>();
    let sm = sysmgr_ior.clone();
    sim.spawn(hosts[0], "winner-sysmgr", move |ctx| {
        let _ = winner::run_system_manager_obs(ctx, Box::new(BestPerformance), None, |i| {
            *sm.lock().unwrap() = Some(i);
        });
    });
    // Node managers everywhere.
    for &h in &hosts {
        let sm = sysmgr_ior.clone();
        sim.spawn(h, "winner-nm", move |ctx| {
            while sm.lock().unwrap().is_none() {
                if ctx.sleep(secs(0.005)).is_err() {
                    return;
                }
            }
            let s = sm.lock().unwrap().clone().unwrap();
            let _ = winner::run_node_manager(ctx, s, None);
        });
    }
    // Load-distributing naming service on host 0.
    boot_winner_naming(&mut sim, hosts[0], &sysmgr_ior);
    // Background load on hosts 1 and 2.
    for &h in &hosts[1..3] {
        sim.spawn(h, "spinner", |ctx| {
            let _ = ctx.spin_forever();
        });
    }
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let group_hosts = hosts.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(5.0)).unwrap(); // let Winner gather load reports
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(group_hosts[0]);
        let name = Name::simple("Workers");
        // One replica per host 1..=4.
        for (i, &h) in group_hosts[1..].iter().enumerate() {
            ns.bind_group_member(&mut orb, ctx, &name, &fake_ior(h, i as u64))
                .unwrap()
                .unwrap();
        }
        // Two resolves: both must land on the idle hosts 3 and 4, spread
        // by the reservation mechanism.
        for _ in 0..2 {
            let got = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
            o.lock().unwrap().push(got.ior.host.0);
        }
    });
    sim.run_until_exit(driver);
    let picks = out.lock().unwrap().clone();
    assert_eq!(picks.len(), 2);
    assert!(picks.iter().all(|&h| h == 3 || h == 4), "{picks:?}");
    assert_ne!(picks[0], picks[1], "{picks:?}");
}

/// The paper's robustness claim: with Winner unreachable, the modified
/// naming service degrades to plain behaviour instead of failing.
#[test]
fn winner_fallback_when_system_manager_dies() {
    let mut sim = Kernel::with_seed(3);
    let hosts: Vec<_> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let sysmgr_ior = cell::<Option<Ior>>();
    let sm = sysmgr_ior.clone();
    sim.spawn(hosts[0], "winner-sysmgr", move |ctx| {
        let _ = winner::run_system_manager_obs(ctx, Box::new(BestPerformance), None, |i| {
            *sm.lock().unwrap() = Some(i);
        });
    });
    boot_winner_naming(&mut sim, hosts[0], &sysmgr_ior);
    // Kill the system manager early (pid 0).
    sim.schedule_fault(SimTime::ZERO + secs(0.5), Fault::KillProcess(Pid(0)));
    let out = cell::<Vec<u32>>();
    let o = out.clone();
    let hs = hosts.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hs[0]);
        let name = Name::simple("Workers");
        for (i, &h) in hs[1..].iter().enumerate() {
            ns.bind_group_member(&mut orb, ctx, &name, &fake_ior(h, i as u64))
                .unwrap()
                .unwrap();
        }
        for _ in 0..4 {
            let got = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
            o.lock().unwrap().push(got.ior.host.0);
        }
    });
    sim.run_until_exit(driver);
    // Round-robin fallback over hosts 1,2.
    assert_eq!(*out.lock().unwrap(), vec![1, 2, 1, 2]);
}

/// A boot-registration helper as a plain fn, so one harness drives both.
type Register = fn(
    &NamingClient,
    &mut Orb,
    &mut simnet::Ctx,
    &Name,
    &Ior,
) -> simnet::SimResult<Result<(), orb::Exception>>;

/// Run `register` against a naming host that is down. Returns whether it
/// gave up with the `COMM_FAILURE`, the requests it sent, and the virtual
/// time it spent *between* them: replies time out after 10 ms, so
/// everything that is not reply wait is backoff and marshalling.
fn register_against_dead_naming(register: Register) -> (bool, u64, SimDuration) {
    let timeout = SimDuration::from_millis(10);
    let mut sim = Kernel::with_seed(2);
    let hosts = sim.add_hosts(2);
    sim.schedule_fault(SimTime::ZERO, Fault::CrashHost(hosts[0]));
    let out = cell::<Option<(bool, u64, SimDuration)>>();
    let o = out.clone();
    let me = fake_ior(hosts[1], 1);
    sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let cfg = OrbConfig {
            request_timeout: timeout,
        };
        let mut orb = Orb::new(ctx, cfg);
        let ns = NamingClient::root(hosts[0]);
        let t0 = ctx.now();
        let gave_up = register(&ns, &mut orb, ctx, &Name::simple("Svc"), &me).unwrap();
        let sent = orb.stats().requests_sent;
        let between = ctx.now().since(t0) - timeout.saturating_mul(sent);
        let comm_failure =
            gave_up.is_err_and(|e| matches!(e, Exception::System(s) if s.kind == CommFailure));
        *o.lock().unwrap() = Some((comm_failure, sent, between));
    });
    // Twice the whole budget: a helper still retrying then has no bound.
    let budget = (REGISTER_BACKOFF + timeout).saturating_mul(u64::from(REGISTER_MAX_ATTEMPTS));
    sim.run_until(SimTime::ZERO + budget + budget);
    let observed = *out.lock().unwrap();
    observed.expect("still retrying after twice the registration budget")
}

#[test]
fn boot_registration_retries_stop_at_the_budget_and_back_off_in_between() {
    let helpers: [(&str, Register); 2] = [
        ("rebind_retry", NamingClient::rebind_retry),
        (
            "bind_group_member_retry",
            NamingClient::bind_group_member_retry,
        ),
    ];
    for (helper, register) in helpers {
        let (comm_failure, sent, between) = register_against_dead_naming(register);
        assert!(
            comm_failure,
            "{helper}: the last naming error is the answer"
        );
        assert_eq!(sent, u64::from(REGISTER_MAX_ATTEMPTS), "{helper}");
        let paced = REGISTER_BACKOFF.saturating_mul(u64::from(REGISTER_MAX_ATTEMPTS) - 1);
        assert!(between >= paced, "{helper}: {between:?} < {paced:?}");
    }
}

#[test]
fn bind_group_member_retry_takes_already_bound_as_success() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 2);
    let out = cell::<Option<(bool, u64, usize)>>();
    let o = out.clone();
    let member = fake_ior(hosts[1], 1);
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let name = Name::simple("G");
        // A previous incarnation's registration is still there.
        ns.bind_group_member(&mut orb, ctx, &name, &member)
            .unwrap()
            .unwrap();
        let before = orb.stats().requests_sent;
        let again = ns
            .bind_group_member_retry(&mut orb, ctx, &name, &member)
            .unwrap();
        let sent = orb.stats().requests_sent - before;
        let members = ns.group_members(&mut orb, ctx, &name).unwrap().unwrap();
        *o.lock().unwrap() = Some((again.is_ok(), sent, members.len()));
    });
    sim.run_until_exit(driver);
    // Success on the first answer: no retry, no second membership.
    assert_eq!(*out.lock().unwrap(), Some((true, 1, 1)));
}
