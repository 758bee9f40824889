//! In-simulation tests of the naming service: standard COS Naming
//! behaviour, group bindings, and Winner-driven load-distributing resolve.

use std::sync::{Arc, Mutex};

use orb::{CostModel, Ior, ObjectKey, Orb, OrbConfig};
use simnet::{Fault, HostConfig, HostId, Kernel, Pid, Port, SimDuration, SimTime};
use winner::BestPerformance;

use crate::client::{NamingClient, REGISTER_BACKOFF, REGISTER_MAX_ATTEMPTS};
use crate::context::LbMode;
use crate::name::Name;
use crate::protocol::{AlreadyBound, EmptyGroup, NotFound};
use crate::server::run_naming_service_obs;

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
fn boot_winner_naming(sim: &mut Kernel, host: HostId, sysmgr_ior: &Cell<Option<String>>) {
    let sm = sysmgr_ior.clone();
    sim.spawn(host, "naming", move |ctx| {
        while sm.lock().unwrap().is_none() {
            if ctx.sleep(secs(0.005)).is_err() {
                return;
            }
        }
        let s = sm.lock().unwrap().clone().unwrap();
        let _ = run_naming_service_obs(
            ctx,
            LbMode::Winner {
                system_manager: Ior::destringify(&s).unwrap(),
            },
            None,
        );
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
            AlreadyBound::matches(&again.unwrap_err())
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

/// The context is flat: a name of two components has nothing to follow,
/// so every operation on it is `NotFound(MissingNode)` naming the whole
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
        let deep = Name::parse("apps/solver").unwrap();
        let nf = |r: Result<_, orb::Exception>| r.err().and_then(|e| NotFound::extract(&e));
        let resolved = ns.resolve(&mut orb, ctx, &deep).unwrap().map(drop);
        let bound = ns.bind(&mut orb, ctx, &deep, &obj).unwrap();
        let joined = ns.bind_group_member(&mut orb, ctx, &deep, &obj).unwrap();
        *o.lock().unwrap() = vec![nf(resolved), nf(bound), nf(joined)];
    });
    sim.run_until_exit(driver);
    let missing = NotFound {
        why: crate::protocol::NotFoundReason::MissingNode,
        rest_of_name: Name::parse("apps/solver").unwrap(),
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
            .push(AlreadyBound::matches(&again.unwrap_err()));
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
        o.lock()
            .unwrap()
            .push(format!("dup:{}", AlreadyBound::matches(&dup.unwrap_err())));
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
        o.lock()
            .unwrap()
            .push(format!("empty:{}", EmptyGroup::matches(&r.unwrap_err())));
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
    let sysmgr_ior = cell::<Option<String>>();
    let sm = sysmgr_ior.clone();
    sim.spawn(hosts[0], "winner-sysmgr", move |ctx| {
        let _ = winner::run_system_manager_obs(ctx, Box::new(BestPerformance), None, |i| {
            *sm.lock().unwrap() = Some(i.stringify());
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
            let _ = winner::run_node_manager(ctx, Ior::destringify(&s).unwrap(), None);
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
    let sysmgr_ior = cell::<Option<String>>();
    let sm = sysmgr_ior.clone();
    sim.spawn(hosts[0], "winner-sysmgr", move |ctx| {
        let _ = winner::run_system_manager_obs(ctx, Box::new(BestPerformance), None, |i| {
            *sm.lock().unwrap() = Some(i.stringify());
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

#[test]
fn resolve_str_rejects_invalid_names() {
    let mut sim = Kernel::with_seed(2);
    let hosts = boot_plain(&mut sim, 2);
    let out = cell::<Option<bool>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(hosts[0]);
        let r = ns.resolve_str(&mut orb, ctx, "a//b").unwrap();
        *o.lock().unwrap() = Some(crate::protocol::InvalidName::matches(&r.unwrap_err()));
    });
    sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), Some(true));
}

/// The §2 trader baseline: offers are exported per type, `query` returns
/// all of them, and the *client* performs the load-aware selection — the
/// code-intrusive alternative the paper's naming integration avoids. It
/// also costs the client more virtual time per placed reference than one
/// `resolve` on the Winner-integrated naming service (EXPERIMENTS.md,
/// "Trader baseline", quotes the two latencies asserted here).
#[test]
fn trader_baseline_with_decentralized_selection() {
    let mut sim = Kernel::with_seed(4);
    let hosts: Vec<_> = (0..4)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    // Winner stack (the decentralized client needs the snapshot).
    let sysmgr_ior = cell::<Option<String>>();
    let sm = sysmgr_ior.clone();
    sim.spawn(h0, "winner-sysmgr", move |ctx| {
        let _ = winner::run_system_manager_obs(ctx, Box::new(BestPerformance), None, |i| {
            *sm.lock().unwrap() = Some(i.stringify());
        });
    });
    for &h in &hosts {
        let sm = sysmgr_ior.clone();
        sim.spawn(h, "winner-nm", move |ctx| {
            while sm.lock().unwrap().is_none() {
                if ctx.sleep(secs(0.005)).is_err() {
                    return;
                }
            }
            let s = sm.lock().unwrap().clone().unwrap();
            let _ = winner::run_node_manager(ctx, Ior::destringify(&s).unwrap(), None);
        });
    }
    // The trader itself.
    let trader_ior = cell::<Option<String>>();
    let t = trader_ior.clone();
    sim.spawn(h0, "trader", move |ctx| {
        let _ = crate::trader::run_trader(ctx, |i| {
            *t.lock().unwrap() = Some(i.stringify());
        });
    });
    // The paper's design beside it: the Winner-integrated naming service.
    boot_winner_naming(&mut sim, h0, &sysmgr_ior);
    // Background load on ws1.
    sim.spawn(hosts[1], "spinner", |ctx| {
        let _ = ctx.spin_forever();
    });

    let out = cell::<Vec<String>>();
    let o = out.clone();
    let placement_ns = cell::<(u64, u64)>();
    let p = placement_ns.clone();
    let (ti, si) = (trader_ior.clone(), sysmgr_ior.clone());
    let offer_hosts = hosts.clone();
    let driver = sim.spawn(hosts[2], "client", move |ctx| {
        ctx.sleep(secs(5.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let trader = crate::LookupStub::new(orb::ObjectRef::new(
            Ior::destringify(&ti.lock().unwrap().clone().unwrap()).unwrap(),
        ));
        // Export one offer per host 1..=3.
        for (i, &h) in offer_hosts[1..].iter().enumerate() {
            trader
                .export(&mut orb, ctx, "Solver", &fake_ior(h, i as u64))
                .unwrap()
                .unwrap();
        }
        let offers = trader.query(&mut orb, ctx, "Solver").unwrap().unwrap();
        o.lock().unwrap().push(format!("offers:{}", offers.len()));
        // Decentralized selection: the client evaluates the load itself.
        let sysmgr = winner::SystemManagerClient::from_ior(
            Ior::destringify(&si.lock().unwrap().clone().unwrap()).unwrap(),
        );
        let pick = crate::trader::select_best_offer(&mut orb, ctx, &offers, &sysmgr)
            .unwrap()
            .unwrap()
            .unwrap();
        o.lock().unwrap().push(format!("pick:ws{}", pick.host.0));
        // What the client waits for a placed reference, both ways, over
        // the same three candidates: one `resolve` (the naming service
        // makes the nested `select`) vs `query` + load `snapshot` +
        // scoring in the client.
        let ns = NamingClient::root(h0);
        let name = Name::simple("Solver");
        for (i, &h) in offer_hosts[1..].iter().enumerate() {
            ns.bind_group_member(&mut orb, ctx, &name, &fake_ior(h, i as u64))
                .unwrap()
                .unwrap();
        }
        let t0 = ctx.now();
        let placed = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
        let t1 = ctx.now();
        let offers = trader.query(&mut orb, ctx, "Solver").unwrap().unwrap();
        let pick = crate::trader::select_best_offer(&mut orb, ctx, &offers, &sysmgr)
            .unwrap()
            .unwrap()
            .unwrap();
        let t2 = ctx.now();
        let loaded = offer_hosts[1];
        assert!(placed.ior.host != loaded && pick.host != loaded);
        *p.lock().unwrap() = (t1.as_nanos() - t0.as_nanos(), t2.as_nanos() - t1.as_nanos());
        // Withdraw and re-query.
        trader
            .withdraw(&mut orb, ctx, "Solver", &offers[0])
            .unwrap()
            .unwrap();
        let offers = trader.query(&mut orb, ctx, "Solver").unwrap().unwrap();
        o.lock().unwrap().push(format!("after:{}", offers.len()));
        // Unknown type: empty, selection yields None.
        let none = trader.query(&mut orb, ctx, "Nope").unwrap().unwrap();
        let sel = crate::trader::select_best_offer(&mut orb, ctx, &none, &sysmgr)
            .unwrap()
            .unwrap();
        o.lock().unwrap().push(format!("none:{}", sel.is_none()));
    });
    sim.run_until_exit(driver);
    let log = out.lock().unwrap().clone();
    assert_eq!(log[0], "offers:3");
    // The loaded host ws1 must not be picked (ws2/ws3 are idle).
    assert!(log[1] == "pick:ws2" || log[1] == "pick:ws3", "{log:?}");
    assert_eq!(log[2], "after:2");
    assert_eq!(log[3], "none:true");
    let (resolve_ns, trader_ns) = *placement_ns.lock().unwrap();
    assert!(
        0 < resolve_ns && resolve_ns < trader_ns,
        "one resolve ({resolve_ns} ns) must cost the client less than \
         query + snapshot + scoring ({trader_ns} ns)"
    );
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
/// time it spent *between* them: replies time out after 10 ms on a
/// zero-cost ORB, so everything that is not reply wait is backoff.
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
            cost: CostModel::free(),
            request_timeout: timeout,
            ..OrbConfig::default()
        };
        let mut orb = Orb::new(ctx, cfg);
        let ns = NamingClient::root(hosts[0]);
        let t0 = ctx.now();
        let gave_up = register(&ns, &mut orb, ctx, &Name::simple("Svc"), &me).unwrap();
        let sent = orb.stats().requests_sent;
        let between = ctx.now().since(t0) - timeout.saturating_mul(sent);
        let comm_failure = gave_up.is_err_and(|e| e.is_comm_failure());
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
