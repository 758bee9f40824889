//! Tests for the replicated store: what a replica keeps per key, the chaos
//! plan generator, and end-to-end replication + failover on the simulated
//! cluster.

use std::sync::{Arc, Mutex};

use cdr::{Any, Epoch, TypeCode, Value};
use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::per_value::{self, HEADER_KEY};
use ftproxy::{Checkpoint, CheckpointClient, CHECKPOINT_SERVICE_NAME};
use orb::{Exception, Orb, SysKind, SystemException};
use simnet::{Fault, HostConfig, HostId, Kernel, SimDuration, SimTime};

use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::deploy::spawn_replicated_store;
use crate::protocol::StoreConfig;
use crate::replica::StoreReplica;

type Cell<T> = Arc<Mutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(Mutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

fn ckpt(id: &str, epoch: u64, state: &[u8]) -> Checkpoint {
    Checkpoint {
        object_id: id.to_string(),
        epoch: Epoch(epoch),
        state: state.to_vec(),
        stamp_ns: 0,
    }
}

fn header_any(epoch: u64) -> Any {
    per_value::Header {
        len: 8,
        epoch: Epoch(epoch),
        chunk: 4,
    }
    .to_any()
}

// ---------------------------------------------------------------------
// Local state rules (no kernel)
// ---------------------------------------------------------------------

#[test]
fn a_bulk_object_keeps_only_its_newest_epoch() {
    let mut r = StoreReplica::alone();
    for e in 1..=4 {
        r.apply_bulk(ckpt("obj", e, b"state"));
    }
    r.apply_bulk(ckpt("obj", 2, b"older"));
    let newest = r.local_newest("obj").unwrap();
    assert_eq!((newest.epoch, &newest.state[..]), (Epoch(4), &b"state"[..]));
    r.apply_bulk(ckpt("obj", 4, b"rewrite"));
    let newest = r.local_newest("obj").unwrap();
    assert_eq!(
        (newest.epoch, &newest.state[..]),
        (Epoch(4), &b"rewrite"[..])
    );
}

// ---------------------------------------------------------------------
// Chaos plan generator
// ---------------------------------------------------------------------

#[test]
fn chaos_plan_is_deterministic_in_the_seed() {
    let targets = [HostId(1), HostId(2), HostId(3)];
    let cfg = ChaosConfig::default();
    let a = ChaosPlan::generate(&cfg, &targets);
    let b = ChaosPlan::generate(&cfg, &targets);
    assert_eq!(a.events, b.events, "same seed, same plan");
    assert!(a.crashes() > 0, "the default window injects something");
    let c = ChaosPlan::generate(&ChaosConfig { seed: 99, ..cfg }, &targets);
    assert_ne!(a.events, c.events, "different seed, different plan");
}

#[test]
fn chaos_plan_respects_max_concurrent_down() {
    let targets = [HostId(1), HostId(2), HostId(3), HostId(4)];
    let cfg = ChaosConfig {
        seed: 11,
        start: SimTime::from_nanos(0),
        end: SimTime::from_nanos(120_000_000_000),
        mean_interval: SimDuration::from_millis(400),
        restart_after: Some(SimDuration::from_secs(2)),
        max_concurrent_down: 2,
        ..ChaosConfig::default()
    };
    let plan = ChaosPlan::generate(&cfg, &targets);
    assert!(plan.crashes() >= 10, "dense schedule: {}", plan.crashes());
    let mut down: Vec<HostId> = Vec::new();
    for e in &plan.events {
        match e.fault {
            Fault::CrashHost(h) => {
                assert!(!down.contains(&h), "host crashed while already down");
                down.push(h);
                assert!(
                    down.len() <= 2,
                    "more than max_concurrent_down at {:?}",
                    e.at
                );
            }
            Fault::RestartHost(h) => down.retain(|&d| d != h),
            _ => {}
        }
    }
}

#[test]
fn chaos_without_restart_crashes_each_host_at_most_once() {
    let targets = [HostId(1), HostId(2), HostId(3)];
    let cfg = ChaosConfig {
        seed: 3,
        restart_after: None,
        max_concurrent_down: 3,
        end: SimTime::from_nanos(300_000_000_000),
        mean_interval: SimDuration::from_secs(1),
        ..ChaosConfig::default()
    };
    let plan = ChaosPlan::generate(&cfg, &targets);
    let mut crashed: Vec<HostId> = Vec::new();
    for e in &plan.events {
        match e.fault {
            Fault::CrashHost(h) => {
                assert!(!crashed.contains(&h));
                crashed.push(h);
            }
            Fault::RestartHost(_) => panic!("no restarts without restart_after"),
            _ => {}
        }
    }
    assert_eq!(crashed.len(), 3, "eventually every target dies");
}

// ---------------------------------------------------------------------
// End-to-end replication on the simulated cluster
// ---------------------------------------------------------------------

/// Boot naming on `h0` and N store replicas on the remaining hosts.
fn store_bed(sim: &mut Kernel, n_replicas: usize, cfg: StoreConfig) -> Vec<HostId> {
    let hosts: Vec<_> = (0..=n_replicas)
        .map(|i| sim.add_host(HostConfig::new(format!("sh{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    spawn_replicated_store(sim, &hosts[1..], h0, cfg, None);
    hosts
}

/// Resolve a `CheckpointClient` against the store group (driver side).
fn resolve_store(orb: &mut Orb, ctx: &mut simnet::Ctx, naming_host: HostId) -> CheckpointClient {
    let ns = NamingClient::root(naming_host);
    loop {
        match ns
            .resolve(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))
            .unwrap()
        {
            Ok(obj) => return CheckpointClient::new(obj),
            Err(_) => ctx.sleep(secs(0.05)).unwrap(),
        }
    }
}

/// The store group's members, asked of the naming service on
/// `naming_host`.
fn group_members(orb: &mut Orb, ctx: &mut simnet::Ctx, naming_host: HostId) -> Vec<orb::Ior> {
    NamingClient::root(naming_host)
        .group_members(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))
        .unwrap()
        .unwrap()
}

/// Boot naming and the paper's checkpoint service — a replica alone —
/// on one host, and run `drive` against it from a second process.
/// Returns what the naming service recorded.
fn with_lone_store(
    drive: impl FnOnce(&mut Orb, &mut simnet::Ctx, &CheckpointClient) + Send + 'static,
) -> obs::Obs {
    let naming = obs::Obs::default();
    let mut sim = Kernel::with_seed(3);
    let h0 = sim.add_host(HostConfig::new("sh0"));
    let sink = naming.clone();
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, Some(sink));
    });
    sim.spawn(h0, "checkpoint-service", move |ctx| {
        let _ = crate::run_checkpoint_service(ctx, h0, None);
    });
    let done = cell::<bool>();
    let d = done.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        drive(&mut orb, ctx, &client);
        *d.lock().unwrap() = true;
    });
    sim.run_until_exit(driver);
    assert!(*done.lock().unwrap(), "the driver ran to the end");
    naming
}

#[test]
fn a_lone_replica_keeps_the_checkpoint_service_contract() {
    let naming = with_lone_store(|orb, ctx, c| {
        assert!(c.retrieve(orb, ctx, "w1").unwrap().unwrap().is_none());
        c.store(orb, ctx, &ckpt("w1", 1, b"one")).unwrap().unwrap();
        c.store(orb, ctx, &ckpt("w2", 1, b"two")).unwrap().unwrap();
        c.store(orb, ctx, &ckpt("w1", 2, b"newer"))
            .unwrap()
            .unwrap();
        let got = c.retrieve(orb, ctx, "w1").unwrap().unwrap().unwrap();
        assert_eq!((got.epoch, got.state.as_slice()), (Epoch(2), &b"newer"[..]));
        let w2 = c.retrieve(orb, ctx, "w2").unwrap().unwrap().unwrap();
        assert_eq!((w2.epoch, w2.state.as_slice()), (Epoch(1), &b"two"[..]));

        let double = |v| Any {
            tc: TypeCode::Double,
            value: Value::Double(v),
        };
        for (key, v) in [("x0", 1.5), ("x1", 2.5), ("x0", 9.0)] {
            c.store_value(orb, ctx, "w1", key, &double(v))
                .unwrap()
                .unwrap();
        }
        let x0 = c.retrieve_value(orb, ctx, "w1", "x0").unwrap().unwrap();
        assert_eq!(x0, Some(double(9.0)), "a value is replaced by key");
        let x1 = c.retrieve_value(orb, ctx, "w1", "x1").unwrap().unwrap();
        assert_eq!(x1, Some(double(2.5)));
        assert!(c
            .retrieve_value(orb, ctx, "w1", "nope")
            .unwrap()
            .unwrap()
            .is_none());
    });
    // Its writes read no membership view: a plain binding, as the paper's.
    assert!(naming.spans_named("serve:group_view").is_empty());
    assert!(!naming.spans_named("serve:resolve").is_empty());
}

#[test]
fn replicated_store_survives_primary_replica_crash() {
    let mut sim = Kernel::with_seed(21);
    let hosts = store_bed(&mut sim, 3, StoreConfig::default());
    let h0 = hosts[0];
    let out = cell::<Option<(Epoch, Vec<u8>)>>();
    let o = out.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        client
            .store(&mut orb, ctx, &ckpt("obj", 7, b"payload"))
            .unwrap()
            .unwrap();
        // Kill whichever replica we were talking to: the record must
        // survive on the backups.
        let primary = client.obj.ior.host;
        ctx.crash_host(primary).unwrap();
        // Give the detector time to evict the corpse from the group.
        ctx.sleep(secs(2.0)).unwrap();
        let client = resolve_store(&mut orb, ctx, h0);
        assert_ne!(client.obj.ior.host, primary, "failover left the corpse");
        let got = client.retrieve(&mut orb, ctx, "obj").unwrap().unwrap();
        let c = got.expect("backup replica must hold the record");
        *o.lock().unwrap() = Some((c.epoch, c.state));
    });
    sim.run_until_exit(driver);
    let (epoch, state) = out.lock().unwrap().clone().unwrap();
    assert_eq!(epoch, Epoch(7));
    assert_eq!(state, b"payload");
}

#[test]
fn single_replica_store_loses_data_on_crash() {
    let mut sim = Kernel::with_seed(21);
    let hosts = store_bed(&mut sim, 1, StoreConfig::default());
    let h0 = hosts[0];
    let failed = cell::<bool>();
    let f = failed.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        client
            .store(&mut orb, ctx, &ckpt("obj", 7, b"payload"))
            .unwrap()
            .unwrap();
        ctx.crash_host(client.obj.ior.host).unwrap();
        ctx.sleep(secs(2.0)).unwrap();
        // The paper's deployment: one store, nothing to fail over to.
        let r = client.retrieve(&mut orb, ctx, "obj").unwrap();
        *f.lock().unwrap() = matches!(
            r,
            Err(Exception::System(SystemException {
                kind: SysKind::CommFailure,
                ..
            }))
        );
    });
    sim.run_until_exit(driver);
    assert!(
        *failed.lock().unwrap(),
        "a single-replica store must fail once its host dies"
    );
}

#[test]
fn write_replicates_to_every_view_member() {
    let mut sim = Kernel::with_seed(5);
    let hosts = store_bed(&mut sim, 3, StoreConfig::default());
    let h0 = hosts[0];
    let counts = cell::<Vec<(Option<Epoch>, bool)>>();
    let c = counts.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        client
            .store(&mut orb, ctx, &ckpt("a", 1, b"x"))
            .unwrap()
            .unwrap();
        client
            .store_value(&mut orb, ctx, "a", HEADER_KEY, &header_any(1))
            .unwrap()
            .unwrap();
        // Ask every group member directly for what it holds locally.
        let members = group_members(&mut orb, ctx, h0);
        assert_eq!(members.len(), 3);
        for m in members {
            let member = CheckpointClient::new(orb::ObjectRef::new(m));
            let bulk = member.retrieve(&mut orb, ctx, "a").unwrap().unwrap();
            let value = member.retrieve_value(&mut orb, ctx, "a", HEADER_KEY);
            let value = value.unwrap().unwrap();
            c.lock()
                .unwrap()
                .push((bulk.map(|b| b.epoch), value == Some(header_any(1))));
        }
    });
    sim.run_until_exit(driver);
    let counts = counts.lock().unwrap().clone();
    assert_eq!(
        counts,
        vec![(Some(Epoch(1)), true); 3],
        "every replica holds the bulk record and the value"
    );
}

#[test]
fn a_coordinator_rereads_its_view_only_after_the_ttl() {
    // The membership view a coordinator fetched serves its writes for
    // 100 ms (`VIEW_TTL`, the literal here on purpose): writes 50 and
    // 99 ms after the fetch read no view, the one 101 ms after it does.
    let mut sim = Kernel::with_seed(5);
    let hosts: Vec<_> = (0..4)
        .map(|i| sim.add_host(HostConfig::new(format!("sh{i}"))))
        .collect();
    let h0 = hosts[0];
    let naming = obs::Obs::default();
    let sink = naming.clone();
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, Some(sink));
    });
    spawn_replicated_store(&mut sim, &hosts[1..], h0, StoreConfig::default(), None);
    let fetches = cell::<Vec<usize>>();
    let (f, seen) = (fetches.clone(), naming.clone());
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        let first = ctx.now();
        for (epoch, after_ms) in [(1, 0), (2, 50), (3, 99), (4, 101)] {
            let at = first + SimDuration::from_millis(after_ms);
            ctx.sleep(at.since(ctx.now())).unwrap();
            client
                .store(&mut orb, ctx, &ckpt("obj", epoch, b"x"))
                .unwrap()
                .unwrap();
            f.lock()
                .unwrap()
                .push(seen.spans_named("serve:group_view").len());
        }
    });
    sim.run_until_exit(driver);
    assert_eq!(*fetches.lock().unwrap(), vec![1, 1, 1, 2]);
}

#[test]
fn unreachable_quorum_fails_the_write() {
    // Two replicas, a quorum of both and no detector: crash the backup
    // and write before any eviction can shrink the view.
    let mut sim = Kernel::with_seed(9);
    let mut hosts = Vec::new();
    for i in 0..3 {
        hosts.push(sim.add_host(HostConfig::new(format!("sh{i}"))));
    }
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    // Replicas only — no detector, so the view keeps both members.
    for (i, &h) in hosts[1..].iter().enumerate() {
        sim.spawn(h, format!("store-replica-{i}"), move |ctx| {
            let _ = crate::replica::run_store_replica(ctx, h0, None);
        });
    }
    let out = cell::<Option<bool>>();
    let o = out.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        let coordinator = client.obj.ior.host;
        let peer = if coordinator == hosts[1] {
            hosts[2]
        } else {
            hosts[1]
        };
        ctx.crash_host(peer).unwrap();
        let r = client.store(&mut orb, ctx, &ckpt("obj", 1, b"x")).unwrap();
        *o.lock().unwrap() = Some(matches!(
            r,
            Err(Exception::System(SystemException {
                kind: SysKind::Transient,
                ..
            }))
        ));
    });
    sim.run_until_exit(driver);
    assert_eq!(
        *out.lock().unwrap(),
        Some(true),
        "W=2 with one dead peer must raise TRANSIENT"
    );
}

#[test]
fn replicated_runs_are_deterministic() {
    fn run(seed: u64) -> (Epoch, Vec<u8>) {
        let mut sim = Kernel::with_seed(seed);
        let hosts = store_bed(&mut sim, 3, StoreConfig::default());
        let h0 = hosts[0];
        let out = cell::<Option<(Epoch, Vec<u8>)>>();
        let o = out.clone();
        let driver = sim.spawn(h0, "driver", move |ctx| {
            ctx.sleep(secs(1.0)).unwrap();
            let mut orb = Orb::init(ctx);
            let client = resolve_store(&mut orb, ctx, h0);
            for e in 1..=4u64 {
                client
                    .store(&mut orb, ctx, &ckpt("obj", e, format!("s{e}").as_bytes()))
                    .unwrap()
                    .unwrap();
            }
            let primary = client.obj.ior.host;
            ctx.crash_host(primary).unwrap();
            ctx.sleep(secs(2.0)).unwrap();
            let client = resolve_store(&mut orb, ctx, h0);
            let c = client
                .retrieve(&mut orb, ctx, "obj")
                .unwrap()
                .unwrap()
                .unwrap();
            *o.lock().unwrap() = Some((c.epoch, c.state));
        });
        sim.run_until_exit(driver);
        let got = out.lock().unwrap().clone().unwrap();
        got
    }
    let a = run(33);
    let b = run(33);
    assert_eq!(a, b, "same seed, same failover outcome");
    assert_eq!(a.0, Epoch(4), "newest acked epoch survives the crash");
}

#[test]
fn partition_heal_keeps_a_single_linear_epoch_history() {
    // Five replicas; cut {s1, s2} plus a minority-side client away from
    // naming and the majority, write on BOTH sides, then heal. The
    // minority coordinator cannot confirm a membership view, so its
    // write must fail cleanly — no divergent epoch left behind — and
    // after the heal every replica's newest record lies on the single
    // acked chain (a stale prefix on the evicted minority is fine;
    // a branch is not).
    let mut sim = Kernel::with_seed(17);
    let hosts = store_bed(&mut sim, 5, StoreConfig::default());
    let h0 = hosts[0];
    let (s1, s2) = (hosts[1], hosts[2]);
    let ha = sim.add_host(HostConfig::new("client-minority"));
    let hb = sim.add_host(HostConfig::new("client-majority"));
    sim.schedule_fault(
        SimTime::from_nanos(2_000_000_000),
        Fault::PartitionGroup {
            side: vec![s1, s2, ha],
            blocked: true,
        },
    );
    sim.schedule_fault(
        SimTime::from_nanos(8_000_000_000),
        Fault::PartitionGroup {
            side: vec![s1, s2, ha],
            blocked: false,
        },
    );

    let minority_write_failed = cell::<Option<bool>>();
    let majority_acked = cell::<Option<bool>>();
    let sweep = cell::<Vec<(HostId, bool, u64, Vec<u8>)>>();

    let ma = majority_acked.clone();
    sim.spawn(hb, "majority-client", move |ctx| {
        // Mid-partition: the detector has evicted the minority replicas
        // by now, so the shrunken view still reaches quorum.
        ctx.sleep(secs(4.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut attempts = 0u32;
        loop {
            let client = resolve_store(&mut orb, ctx, h0);
            match client
                .store(&mut orb, ctx, &ckpt("obj", 10, b"majority"))
                .unwrap()
            {
                Ok(()) => break,
                Err(_) => {
                    attempts += 1;
                    assert!(attempts < 100, "majority write wedged during partition");
                    ctx.sleep(secs(0.1)).unwrap();
                }
            }
        }
        *ma.lock().unwrap() = Some(true);
    });

    let f = minority_write_failed.clone();
    let sw = sweep.clone();
    let driver_a = sim.spawn(ha, "minority-client", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let members = ns
            .group_members(&mut orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))
            .unwrap()
            .unwrap();
        assert_eq!(members.len(), 5, "all replicas registered before the cut");
        // Talk to the replica on s1 directly — our side of the cut.
        let m = members.iter().find(|m| m.host == s1).unwrap().clone();
        let client = CheckpointClient::new(orb::ObjectRef::new(m));
        client
            .store(&mut orb, ctx, &ckpt("obj", 5, b"pre"))
            .unwrap()
            .unwrap();
        // t ≈ 3 s: inside the partition, past the coordinator's view TTL.
        // The coordinator cannot reach naming, must not coordinate solo.
        ctx.sleep(secs(2.0)).unwrap();
        let r = client
            .store(&mut orb, ctx, &ckpt("obj", 6, b"split-brain"))
            .unwrap();
        *f.lock().unwrap() = Some(r.is_err());
        // Past the heal: write through the (shrunken) group, then audit
        // every original replica's newest record.
        ctx.sleep(secs(5.0)).unwrap();
        let mut attempts = 0u32;
        loop {
            let client = resolve_store(&mut orb, ctx, h0);
            match client
                .store(&mut orb, ctx, &ckpt("obj", 11, b"post"))
                .unwrap()
            {
                Ok(()) => break,
                Err(_) => {
                    attempts += 1;
                    assert!(attempts < 100, "post-heal write wedged");
                    ctx.sleep(secs(0.1)).unwrap();
                }
            }
        }
        for m in &members {
            let member = CheckpointClient::new(orb::ObjectRef::new(m.clone()));
            let c = member.retrieve(&mut orb, ctx, "obj").unwrap().unwrap();
            let found = c.is_some();
            let (epoch, state) = c.map_or((0, Vec::new()), |c| (c.epoch.get(), c.state));
            sw.lock().unwrap().push((m.host, found, epoch, state));
        }
    });
    sim.run_until_exit(driver_a);

    assert_eq!(
        *minority_write_failed.lock().unwrap(),
        Some(true),
        "a coordinator that cannot confirm the view must not ack"
    );
    assert_eq!(*majority_acked.lock().unwrap(), Some(true));
    let sweep = sweep.lock().unwrap().clone();
    assert_eq!(sweep.len(), 5);
    for (host, found, epoch, state) in sweep {
        assert!(found, "replica on {host:?} lost the object");
        if host == s1 || host == s2 {
            assert_eq!(
                (epoch, state.as_slice()),
                (5, &b"pre"[..]),
                "minority replica on {host:?} holds an epoch off the acked chain"
            );
        } else {
            assert_eq!(
                (epoch, state.as_slice()),
                (11, &b"post"[..]),
                "majority replica on {host:?} missed the post-heal chain"
            );
        }
    }
}

#[test]
fn every_replica_answers_retrieve_with_the_newest_epoch() {
    // Audit every group member directly: each holds the replicated
    // newest epoch of a record written three times.
    let mut sim = Kernel::with_seed(5);
    let hosts = store_bed(&mut sim, 2, StoreConfig::default());
    let h0 = hosts[0];
    let out = cell::<Vec<Option<Epoch>>>();
    let o = out.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let client = resolve_store(&mut orb, ctx, h0);
        for e in 1..=3u64 {
            client
                .store(&mut orb, ctx, &ckpt("obj", e, b"s"))
                .unwrap()
                .unwrap();
        }
        let members = group_members(&mut orb, ctx, h0);
        assert_eq!(members.len(), 2);
        for m in members {
            let member = CheckpointClient::new(orb::ObjectRef::new(m));
            let c = member.retrieve(&mut orb, ctx, "obj").unwrap().unwrap();
            o.lock().unwrap().push(c.map(|c| c.epoch));
        }
    });
    sim.run_until_exit(driver);
    assert_eq!(
        *out.lock().unwrap(),
        vec![Some(Epoch(3)); 2],
        "both replicas: newest epoch 3 visible"
    );
}
