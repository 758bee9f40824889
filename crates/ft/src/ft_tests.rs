//! End-to-end fault-tolerance tests on the simulated cluster: proxy
//! checkpoint/recovery, DII request proxies and the failure detector.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use cosnaming::{LbMode, Name, NamingClient};
use orb::{reply, CallCtx, Exception, Orb, Servant, SystemException};
use simnet::{HostConfig, HostId, Kernel, SimDuration};

use crate::detector::{run_detector_obs, DetectorConfig, DetectorStats};
use crate::factory::{factory_name, FactoryClient};
use crate::per_value;
use crate::proxy::{CheckpointMode, FtProxy, FtProxyConfig, ProxyEnv};
use crate::request_proxy::FtRequest;
use crate::service::CheckpointClient;

type Cell<T> = Arc<Mutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(Mutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

// ---------------------------------------------------------------------
// A stateful test service: an accumulating counter with optional padding
// state (to give checkpoints size) and a slow operation (to kill servers
// mid-call).
// ---------------------------------------------------------------------

const COUNTER_TYPE: &str = "IDL:Test/Counter:1.0";

#[derive(Default)]
struct Counter {
    value: i64,
    pad: Vec<f64>,
    /// Set by `refuse_checkpoints`: `get_checkpoint` then answers
    /// `TRANSIENT` (a checkpoint fetch that fails on a live servant).
    refuse_checkpoints: bool,
}

impl Servant for Counter {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "inc" => {
                let (delta,): (i64,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                self.value += delta;
                reply(&self.value)
            }
            "slow_inc" => {
                let (delta, work): (i64, f64) =
                    cdr::from_bytes(args).map_err(SystemException::marshal)?;
                call.ctx
                    .compute(work)
                    .map_err(|_| SystemException::comm_failure("killed"))?;
                self.value += delta;
                reply(&self.value)
            }
            "get" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
                reply(&self.value)
            }
            "set_pad" => {
                let (n,): (u32,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                self.pad = vec![0.5; n as usize];
                reply(&())
            }
            "refuse_checkpoints" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
                self.refuse_checkpoints = true;
                reply(&())
            }
            "get_checkpoint" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
                if self.refuse_checkpoints {
                    return Err(SystemException::transient("checkpoint refused").into());
                }
                reply(&cdr::to_bytes(&(self.value, self.pad.clone())))
            }
            "restore_checkpoint" => {
                let (state,): (Vec<u8>,) =
                    cdr::from_bytes(args).map_err(SystemException::marshal)?;
                let (value, pad): (i64, Vec<f64>) =
                    cdr::from_bytes(&state).map_err(SystemException::marshal)?;
                self.value = value;
                self.pad = pad;
                reply(&())
            }
            other => Err(SystemException::bad_operation(other).into()),
        }
    }
}

// ---------------------------------------------------------------------
// Test-bed boot
// ---------------------------------------------------------------------

/// The test's view of the checkpoint store servant: how many reads it
/// served, and a switch that makes it refuse writes.
#[derive(Clone, Default)]
struct StoreProbe {
    reads: Cell<u64>,
    writes_left: Cell<Option<u64>>,
}

impl StoreProbe {
    /// `retrieve` + `retrieve_value` calls served so far.
    fn reads(&self) -> u64 {
        *self.reads.lock().unwrap()
    }

    /// `n` more writes land; every later one is answered `TRANSIENT`.
    fn refuse_writes_after(&self, n: u64) {
        *self.writes_left.lock().unwrap() = Some(n);
    }

    fn accept_writes(&self) {
        *self.writes_left.lock().unwrap() = None;
    }
}

/// The checkpoint service behind a [`StoreProbe`].
struct ProbedStore {
    inner: store::ReplicationSkeleton<store::StoreReplica>,
    probe: StoreProbe,
}

impl Servant for ProbedStore {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "retrieve" | "retrieve_value" => *self.probe.reads.lock().unwrap() += 1,
            "store" | "store_value" => {
                if let Some(left) = self.probe.writes_left.lock().unwrap().as_mut() {
                    if *left == 0 {
                        return Err(SystemException::transient("store refuses writes").into());
                    }
                    *left -= 1;
                }
            }
            _ => {}
        }
        self.inner.dispatch(call, op, args)
    }
}

/// Spawn the checkpoint service and register it under "CheckpointService":
/// `store::run_checkpoint_service`, but serving a servant `probe` watches.
fn spawn_ckpt_obs(sim: &mut Kernel, host: HostId, obs: Option<obs::Obs>, probe: StoreProbe) {
    sim.spawn(host, "ckpt-svc", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.set_obs(obs::ProcessObs::from_sink(obs, ctx));
        orb.listen(ctx).unwrap();
        let poa = orb::Poa::new();
        let key = poa.activate(
            crate::service::CHECKPOINT_SERVICE_TYPE,
            Rc::new(RefCell::new(ProbedStore {
                inner: store::ReplicationSkeleton(store::StoreReplica::alone(
                    store::StoreConfig::default(),
                )),
                probe,
            })),
        );
        let ior = orb.ior(crate::service::CHECKPOINT_SERVICE_TYPE, key);
        let ns = NamingClient::root(host);
        loop {
            match ns.rebind(&mut orb, ctx, &Name::simple("CheckpointService"), &ior) {
                Ok(Ok(())) => break,
                Ok(Err(_)) => {
                    if ctx.sleep(secs(0.05)).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        let _ = orb.serve_forever(ctx, &poa);
    });
}

fn spawn_factories_obs(
    sim: &mut Kernel,
    hosts: &[HostId],
    naming_host: HostId,
    obs: Option<obs::Obs>,
) {
    for &h in hosts {
        let obs = obs.clone();
        sim.spawn(h, format!("factory-{h}"), move |ctx| {
            let builder: crate::factory::ServantBuilder = Box::new(|_call, ty| {
                (ty == "Counter").then(|| {
                    (
                        Rc::new(RefCell::new(Counter::default())) as Rc<RefCell<dyn Servant>>,
                        COUNTER_TYPE.to_string(),
                    )
                })
            });
            let _ = crate::factory::run_factory_obs(ctx, naming_host, builder, obs);
        });
    }
}

/// Build the standard cluster: plain naming + checkpoint svc + factories.
fn standard_bed(sim: &mut Kernel, n_hosts: usize) -> Vec<HostId> {
    probed_bed(sim, n_hosts, None).0
}

/// [`standard_bed`] with every infrastructure process wired to `obs`,
/// and the probe into its checkpoint store.
fn probed_bed(
    sim: &mut Kernel,
    n_hosts: usize,
    obs: Option<obs::Obs>,
) -> (Vec<HostId>, StoreProbe) {
    let hosts: Vec<_> = (0..n_hosts)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    let naming_obs = obs.clone();
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, naming_obs);
    });
    let probe = StoreProbe::default();
    spawn_ckpt_obs(sim, h0, obs.clone(), probe.clone());
    // Factories on the worker hosts only: the infra host (naming,
    // checkpoint service) does not run application services.
    spawn_factories_obs(sim, &hosts[1..], h0, obs);
    (hosts, probe)
}

/// Resolve the checkpoint client from the naming service (driver side).
fn ckpt_client(orb: &mut Orb, ctx: &mut simnet::Ctx, naming_host: HostId) -> CheckpointClient {
    let ns = NamingClient::root(naming_host);
    loop {
        match ns
            .resolve(orb, ctx, &Name::simple("CheckpointService"))
            .unwrap()
        {
            Ok(obj) => return CheckpointClient::new(obj),
            Err(_) => ctx.sleep(secs(0.05)).unwrap(),
        }
    }
}

fn proxy_for(
    naming_host: HostId,
    orb: &mut Orb,
    ctx: &mut simnet::Ctx,
    mode: CheckpointMode,
) -> FtProxy {
    let ckpt = ckpt_client(orb, ctx, naming_host);
    let mut cfg = FtProxyConfig::new(Name::simple("Counters"), "Counter", "counter-1");
    cfg.mode = mode;
    FtProxy::new(cfg, NamingClient::root(naming_host), ckpt)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn proxy_creates_instance_calls_and_checkpoints() {
    let mut sim = Kernel::with_seed(5);
    let hosts = standard_bed(&mut sim, 3);
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let stats_out = cell::<Option<(u64, u64, u64)>>();
    let so = stats_out.clone();
    let h0 = hosts[0];
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap(); // services boot
        let mut orb = Orb::init(ctx);
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for _ in 0..3 {
            let v: i64 = proxy.call(&mut env, "inc", &(2i64,)).unwrap().unwrap();
            o.lock().unwrap().push(v);
        }
        let s = proxy.stats;
        *so.lock().unwrap() = Some((s.calls, s.checkpoints, s.factory_creates));
    });
    sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), vec![2, 4, 6]);
    let (calls, ckpts, creates) = stats_out.lock().unwrap().unwrap();
    assert_eq!(calls, 3);
    assert_eq!(ckpts, 3); // after every call (the paper)
    assert_eq!(creates, 1); // one factory instantiation
}

#[test]
fn proxy_recovers_state_after_host_crash() {
    let mut sim = Kernel::with_seed(5);
    let hosts = standard_bed(&mut sim, 3);
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let h0 = hosts[0];
    let crash_cell = cell::<Option<u32>>(); // host to crash, chosen at runtime
    let cc = crash_cell.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for i in 0..5i64 {
            let v: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
            o.lock().unwrap().push(v);
            if i == 2 {
                // Crash the host the counter lives on (never h0, where all
                // the infrastructure lives — exclude it from creation by
                // crashing whatever host the proxy actually picked).
                let victim = proxy.current_target().unwrap().ior.host;
                assert_ne!(victim, h0, "no factory runs on the infra host");
                *cc.lock().unwrap() = Some(victim.0);
                env.ctx.crash_host(victim).unwrap();
            }
        }
        *so.lock().unwrap() = Some(proxy.stats);
    });
    sim.run_until_exit(driver);
    // Counter continuity: 1,2,3 then crash; restored state 3 → 4,5.
    assert_eq!(*out.lock().unwrap(), vec![1, 2, 3, 4, 5]);
    let s = stats_out.lock().unwrap().unwrap();
    assert!(s.recoveries >= 1, "{s:?}");
    assert_eq!(s.factory_creates, 2, "{s:?}");
    assert!(s.restores >= 1, "{s:?}");
    assert!(crash_cell.lock().unwrap().is_some());
}

/// A counter servant that counts how many times a checkpoint was
/// restored into it — server-side evidence for duplicate-application
/// tests, where the client's view of a restore (acked or not) can
/// disagree with what actually happened.
struct RestoreCountingCounter {
    inner: Counter,
    restores: Cell<u64>,
}

impl Servant for RestoreCountingCounter {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        if op == "restore_checkpoint" {
            *self.restores.lock().unwrap() += 1;
        }
        self.inner.dispatch(call, op, args)
    }
}

/// Spawn a standalone counter replica bound into the "Counters" group.
fn spawn_counter_member(sim: &mut Kernel, host: HostId, naming_host: HostId, restores: Cell<u64>) {
    sim.spawn(host, format!("counter-{host}"), move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = orb::Poa::new();
        let key = poa.activate(
            COUNTER_TYPE,
            Rc::new(RefCell::new(RestoreCountingCounter {
                inner: Counter::default(),
                restores,
            })),
        );
        let ior = orb.ior(COUNTER_TYPE, key);
        let ns = NamingClient::root(naming_host);
        ns.bind_group_member_retry(&mut orb, ctx, &Name::simple("Counters"), &ior)
            .unwrap()
            .unwrap();
        let _ = orb.serve_forever(ctx, &poa);
    });
}

#[test]
fn one_way_partition_does_not_double_restore() {
    // The reply path from both counter hosts to the client dies while
    // the request path stays up: every invoke still executes server-side
    // but looks failed client-side, so the proxy keeps retargeting. It
    // must not push the same checkpoint epoch into a replica twice — the
    // first push applied; only its ack was lost.
    let mut sim = Kernel::with_seed(7);
    let (hosts, store) = probed_bed(&mut sim, 4, None);
    let h0 = hosts[0];
    let hd = sim.add_host(HostConfig::new("client"));
    let c2_restores = cell::<u64>();
    let c3_restores = cell::<u64>();
    spawn_counter_member(&mut sim, hosts[2], h0, c2_restores.clone());
    spawn_counter_member(&mut sim, hosts[3], h0, c3_restores.clone());
    // t = 5 s: replies from both counter hosts stop reaching the client.
    for &h in &hosts[2..] {
        sim.schedule_fault(
            simnet::SimTime::from_nanos(5_000_000_000),
            simnet::Fault::DropOneWay {
                from: h,
                to: hd,
                blocked: true,
            },
        );
    }
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let sink = obs::Obs::default();
    let driver_obs = sink.clone();
    let driver = sim.spawn(hd, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        orb.set_obs(obs::ProcessObs::new(driver_obs, ctx));
        let ckpt = ckpt_client(&mut orb, ctx, h0);
        let mut cfg = FtProxyConfig::new(Name::simple("Counters"), "Counter", "counter-1");
        cfg.mode = CheckpointMode::Bulk;
        cfg.max_recoveries_per_call = 6;
        let mut proxy = FtProxy::new(cfg, NamingClient::root(h0), ckpt);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for _ in 0..2 {
            let v: i64 = proxy.call(&mut env, "inc", &(2i64,)).unwrap().unwrap();
            o.lock().unwrap().push(v);
        }
        env.ctx.sleep(secs(5.0)).unwrap(); // into the one-way cut
        for _ in 0..2 {
            let v: i64 = proxy.call(&mut env, "inc", &(2i64,)).unwrap().unwrap();
            o.lock().unwrap().push(v);
        }
        *so.lock().unwrap() = Some(proxy.stats);
    });
    sim.run_until_exit(driver);
    // Counter continuity: the cut-off replicas' unacked increments are
    // invisible; the surviving chain restores epoch-2 state (value 4).
    assert_eq!(*out.lock().unwrap(), vec![2, 4, 6, 8]);
    let s = stats_out.lock().unwrap().unwrap();
    assert_eq!(sink.counter("ft.duplicate_suppressed"), 1, "{s:?}");
    assert_eq!(
        *c3_restores.lock().unwrap(),
        1,
        "the replica behind the one-way cut saw a duplicate restore"
    );
    assert_eq!(*c2_restores.lock().unwrap(), 0);
    assert!(s.recoveries >= 2, "{s:?}");
    // Every push, the suppressed one included, came from the proxy's own
    // copy: only the first bind looked into the store.
    assert_eq!(store.reads(), 1);
}

#[test]
fn bulk_mode_recovers_identically() {
    let mut sim = Kernel::with_seed(6);
    let hosts = standard_bed(&mut sim, 3);
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let h0 = hosts[0];
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::Bulk);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        // Give the state some size.
        let _: () = proxy.call(&mut env, "set_pad", &(64u32,)).unwrap().unwrap();
        for i in 0..4i64 {
            let v: i64 = proxy.call(&mut env, "inc", &(10i64,)).unwrap().unwrap();
            o.lock().unwrap().push(v);
            if i == 1 {
                let victim = proxy.current_target().unwrap().ior.host;
                assert_ne!(victim, h0, "counter must not land on infra host");
                env.ctx.crash_host(victim).unwrap();
            }
        }
        // Pad must survive the recovery too.
        let v: i64 = proxy.call(&mut env, "get", &()).unwrap().unwrap();
        o.lock().unwrap().push(v);
    });
    sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), vec![10, 20, 30, 40, 40]);
}

#[test]
fn stateless_mode_takes_no_checkpoints() {
    let mut sim = Kernel::with_seed(5);
    let hosts = standard_bed(&mut sim, 2);
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let h0 = hosts[0];
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::None);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for _ in 0..3 {
            let _: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        }
        *so.lock().unwrap() = Some(proxy.stats);
    });
    sim.run_until_exit(driver);
    let s = stats_out.lock().unwrap().unwrap();
    assert_eq!(s.checkpoints, 0);
    assert_eq!(s.calls, 3);
}

#[test]
fn checkpoint_every_k_reduces_checkpoints() {
    let mut sim = Kernel::with_seed(5);
    let hosts = standard_bed(&mut sim, 2);
    let stats_out = cell::<Option<u64>>();
    let so = stats_out.clone();
    let h0 = hosts[0];
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let ckpt = ckpt_client(&mut orb, ctx, h0);
        let mut cfg = FtProxyConfig::new(Name::simple("Counters"), "Counter", "counter-k");
        cfg.mode = CheckpointMode::Bulk;
        cfg.checkpoint_every = 3;
        let mut proxy = FtProxy::new(cfg, NamingClient::root(h0), ckpt);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for _ in 0..7 {
            let _: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        }
        *so.lock().unwrap() = Some(proxy.stats.checkpoints);
    });
    sim.run_until_exit(driver);
    assert_eq!(stats_out.lock().unwrap().unwrap(), 2); // after calls 3 and 6
}

#[test]
fn request_proxy_recovers_deferred_call() {
    let mut sim = Kernel::with_seed(7);
    let hosts = standard_bed(&mut sim, 3);
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let h0 = hosts[0];
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        // The timeout must exceed the 2s server computation, otherwise
        // even healthy calls "fail"; detection is timeout-based here.
        let mut orb = Orb::new(
            ctx,
            orb::OrbConfig {
                request_timeout: secs(5.0),
                ..orb::OrbConfig::default()
            },
        );
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        // Establish state: value = 5, checkpointed.
        let v: i64 = proxy.call(&mut env, "inc", &(5i64,)).unwrap().unwrap();
        o.lock().unwrap().push(v);
        let victim = proxy.current_target().unwrap().ior.host;
        assert_ne!(victim, h0);
        // Fire a deferred slow call (2s of CPU), then crash the server
        // mid-call: the reply never arrives, the request proxy recovers
        // and re-executes against the restored replica.
        let mut req = FtRequest::new("slow_inc");
        req.add_typed(&3i64).add_typed(&2.0f64);
        req.send_deferred(&mut proxy, &mut env).unwrap();
        env.ctx.sleep(secs(0.5)).unwrap();
        env.ctx.crash_host(victim).unwrap();
        let v: i64 = req
            .get_response_typed(&mut proxy, &mut env)
            .unwrap()
            .unwrap();
        o.lock().unwrap().push(v);
        o.lock().unwrap().push(proxy.stats.recoveries as i64);
    });
    sim.run_until_exit(driver);
    let log = out.lock().unwrap().clone();
    // 5 (first inc), then 8 (restored 5 + 3), with ≥1 recovery attempt.
    assert_eq!(log[0], 5);
    assert_eq!(log[1], 8);
    assert!(log[2] >= 1, "{log:?}");
}

#[test]
fn late_argument_poisons_request_with_bad_inv_order() {
    // Adding an argument after send is caller misuse. The chained
    // builder API cannot return an error from add_typed itself, so the
    // request is poisoned and the *outcome* is BAD_INV_ORDER — a
    // diagnosable exception instead of a sim-wide panic.
    let mut sim = Kernel::with_seed(7);
    let hosts = standard_bed(&mut sim, 2);
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    let h0 = hosts[0];
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::None);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let mut req = FtRequest::new("slow_inc");
        req.add_typed(&1i64).add_typed(&1.0f64);
        req.send_deferred(&mut proxy, &mut env).unwrap();
        req.add_typed(&9i64); // too late: poisons the request
        let outcome = req.get_response(&mut proxy, &mut env).unwrap();
        let poisoned = matches!(
            outcome,
            Err(orb::Exception::System(ref s)) if s.kind == orb::SysKind::BadInvOrder
        );
        o.lock().unwrap().push(poisoned);
    });
    sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), vec![true]);
}

#[test]
fn detector_evicts_dead_members() {
    let mut sim = Kernel::with_seed(8);
    let hosts = standard_bed(&mut sim, 3);
    let h0 = hosts[0];
    let stats = simnet::Shared::new(DetectorStats::default());
    let st = stats.clone();
    sim.spawn(h0, "detector", move |ctx| {
        ctx.sleep(secs(1.5)).unwrap();
        let _ = run_detector_obs(
            ctx,
            h0,
            DetectorConfig {
                group: Name::simple("Counters"),
                period: secs(0.5),
                suspect_after: 2,
            },
            st,
            None,
        );
    });
    let remaining = cell::<Option<usize>>();
    let rem = remaining.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        // Create two replicas directly through both non-infra factories.
        let ns = NamingClient::root(h0);
        let group = Name::simple("Counters");
        for &h in &[hosts[1], hosts[2]] {
            let f = ns
                .resolve(&mut orb, ctx, &factory_name(h))
                .unwrap()
                .unwrap();
            let fc = FactoryClient::new(f);
            let ior = fc
                .create(&mut orb, ctx, "Counter")
                .unwrap()
                .unwrap()
                .unwrap();
            assert_eq!(ior.host, h, "each factory creates on its own host");
            ns.bind_group_member(&mut orb, ctx, &group, &ior)
                .unwrap()
                .unwrap();
        }
        // Kill host 2: its replica becomes unreachable.
        ctx.crash_host(hosts[2]).unwrap();
        ctx.sleep(secs(5.0)).unwrap(); // detector rounds
        let members = ns.group_members(&mut orb, ctx, &group).unwrap().unwrap();
        *rem.lock().unwrap() = Some(members.len());
    });
    sim.run_until_exit(driver);
    assert_eq!(*remaining.lock().unwrap(), Some(1));
    let s = *stats.lock();
    assert!(s.evictions >= 1, "{s:?}");
    assert!(s.probes > 0);
}

#[test]
fn checkpoint_service_failure_degrades_gracefully() {
    // If the checkpoint store dies, calls keep succeeding; the proxy
    // counts checkpoint failures instead of failing the application.
    let mut sim = Kernel::with_seed(10);
    let hosts = standard_bed(&mut sim, 3);
    let h0 = hosts[0];
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let values = cell::<Vec<i64>>();
    let vo = values.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::new(
            ctx,
            orb::OrbConfig {
                request_timeout: secs(0.5), // fast checkpoint failure
                ..orb::OrbConfig::default()
            },
        );
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::Bulk);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let v: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        vo.lock().unwrap().push(v);
        // Kill the checkpoint service process (spawned second on h0:
        // naming is pid 0, ckpt-svc pid 1).
        env.ctx.kill(simnet::Pid(1)).unwrap();
        for _ in 0..2 {
            let v: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
            vo.lock().unwrap().push(v);
        }
        *so.lock().unwrap() = Some(proxy.stats);
    });
    sim.run_until_exit(driver);
    assert_eq!(*values.lock().unwrap(), vec![1, 2, 3]);
    let s = stats_out.lock().unwrap().unwrap();
    assert_eq!(s.calls, 3);
    assert_eq!(s.checkpoints, 1, "{s:?}");
    assert_eq!(s.checkpoint_failures, 2, "{s:?}");
}

#[test]
fn failed_checkpoint_stays_due_until_it_succeeds() {
    // Regression: a failed checkpoint attempt must not reset the
    // every-k counter. Once a checkpoint is due, each following
    // successful call retries it until one lands.
    let mut sim = Kernel::with_seed(11);
    let hosts = standard_bed(&mut sim, 2);
    let h0 = hosts[0];
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let driver = sim.spawn(hosts[1], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::new(
            ctx,
            orb::OrbConfig {
                request_timeout: secs(0.5), // fast checkpoint failure
                ..orb::OrbConfig::default()
            },
        );
        let ckpt = ckpt_client(&mut orb, ctx, h0);
        let mut cfg = FtProxyConfig::new(Name::simple("Counters"), "Counter", "counter-due");
        cfg.mode = CheckpointMode::Bulk;
        cfg.checkpoint_every = 2;
        let mut proxy = FtProxy::new(cfg, NamingClient::root(h0), ckpt);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        // Call 1: not yet due (k = 2).
        let _: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        // Kill the checkpoint service (spawned second on h0: naming is
        // pid 0, ckpt-svc pid 1) before the checkpoint comes due.
        env.ctx.kill(simnet::Pid(1)).unwrap();
        for _ in 0..3 {
            let _: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        }
        *so.lock().unwrap() = Some(proxy.stats);
    });
    sim.run_until_exit(driver);
    let s = stats_out.lock().unwrap().unwrap();
    assert_eq!(s.calls, 4);
    assert_eq!(s.checkpoints, 0, "{s:?}");
    // Calls 2, 3 and 4 must each attempt (and fail): the checkpoint stays
    // due. The old behaviour cleared the counter on the failed attempt and
    // only retried every k calls (2 attempts here instead of 3).
    assert_eq!(s.checkpoint_failures, 3, "{s:?}");
}

#[test]
fn mixed_epoch_checkpoint_chunks_are_rejected() {
    // Regression: per-value reassembly previously validated only the total
    // length, so a chunk from a different checkpoint epoch with the same
    // size was silently stitched into a torn state. Each chunk now carries
    // its epoch and a mismatch discards the checkpoint as corrupt.
    let mut sim = Kernel::with_seed(13);
    let hosts = standard_bed(&mut sim, 3);
    let h0 = hosts[0];
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
        let ckpt = ckpt_client(&mut orb, ctx, h0);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let v: i64 = proxy.call(&mut env, "inc", &(5i64,)).unwrap().unwrap();
        o.lock().unwrap().push(v);
        // Tamper: re-tag the first chunk with a foreign epoch, keeping its
        // bytes (and therefore the reassembled length) identical.
        let w0 = per_value::chunk_key(0);
        let stored = ckpt
            .retrieve_value(env.orb, env.ctx, "counter-1", &w0)
            .unwrap()
            .unwrap()
            .unwrap();
        let (_, data) = per_value::read_chunk(&stored).expect("a chunk");
        let tampered = per_value::chunk(cdr::Epoch(77), data);
        ckpt.store_value(env.orb, env.ctx, "counter-1", &w0, &tampered)
            .unwrap()
            .unwrap();
        // A proxy with no copy of its own reads the store on its first
        // bind: it must reject the torn checkpoint and push nothing
        // rather than restore mixed-epoch state.
        let mut fresh = proxy_for(h0, env.orb, env.ctx, CheckpointMode::PerValue);
        let v: i64 = fresh.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        o.lock().unwrap().push(v);
        assert_eq!(fresh.stats.restores, 0, "{:?}", fresh.stats);
    });
    sim.run_until_exit(driver);
    // 5, then 6 on the same, untouched replica: the epoch mismatch was
    // detected and nothing was restored.
    assert_eq!(*out.lock().unwrap(), vec![5, 6]);
}

/// The epochs of the `StateRestored` events a traced proxy recorded.
fn restored_epochs(sink: &obs::Obs) -> Vec<u64> {
    sink.events()
        .into_iter()
        .filter_map(|e| match e.body {
            obs::EventBody::StateRestored { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect()
}

#[test]
fn torn_checkpoint_recovers_the_last_acked_state() {
    // The store refuses a write half-way through a per-value checkpoint:
    // header and first chunk now say epoch 3, the other chunks still
    // epoch 2. Read back, that is a mixed-epoch checkpoint — rejected, so
    // a replacement restored from the store would silently start cold.
    // The proxy's own copy of the last *acked* checkpoint is whole.
    let mut sim = Kernel::with_seed(17);
    let (hosts, store) = probed_bed(&mut sim, 3, None);
    let h0 = hosts[0];
    let sink = obs::Obs::new();
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let record_to = sink.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        orb.set_obs(obs::ProcessObs::new(record_to, ctx));
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        // 144 bytes of state: three 64-byte values per checkpoint.
        let _: () = proxy.call(&mut env, "set_pad", &(16u32,)).unwrap().unwrap();
        let v: i64 = proxy.call(&mut env, "inc", &(5i64,)).unwrap().unwrap();
        o.lock().unwrap().push(v);
        store.refuse_writes_after(2); // header and w0 land, w1 does not
        let v: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        o.lock().unwrap().push(v);
        store.accept_writes();
        let victim = proxy.current_target().unwrap().ior.host;
        env.ctx.crash_host(victim).unwrap();
        let v: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        o.lock().unwrap().push(v);
        *so.lock().unwrap() = Some(proxy.stats);
    });
    let end = sim.run_until_exit(driver);
    // The second inc was acked to the caller but never checkpointed (the
    // window ROADMAP item 2 is about); the replacement resumes from the
    // acked 5, not from 0.
    assert_eq!(*out.lock().unwrap(), vec![5, 6, 6]);
    let s = stats_out.lock().unwrap().unwrap();
    assert_eq!(
        (s.checkpoint_failures, s.recoveries, s.restores),
        (1, 1, 1),
        "{s:?}"
    );
    // First bind cold, recovery to epoch 2 (set_pad, inc) — and the
    // doctor's restore-freshness agrees.
    assert_eq!(restored_epochs(&sink), vec![0, 2]);
    let doctor = monitor::diagnose(&sink, end);
    assert_eq!(doctor.violations, 0, "{}", doctor.report);
}

#[test]
fn warm_recovery_reads_nothing_a_fresh_proxy_reads_the_store() {
    for mode in [CheckpointMode::PerValue, CheckpointMode::Bulk] {
        let mut sim = Kernel::with_seed(19);
        let (hosts, store) = probed_bed(&mut sim, 3, None);
        let h0 = hosts[0];
        let driver = sim.spawn(hosts[0], "driver", move |ctx| {
            ctx.sleep(secs(1.0)).unwrap();
            let mut orb = Orb::init(ctx);
            let mut proxy = proxy_for(h0, &mut orb, ctx, mode);
            let mut env = ProxyEnv { orb: &mut orb, ctx };
            let v: i64 = proxy.call(&mut env, "inc", &(5i64,)).unwrap().unwrap();
            assert_eq!(v, 5);
            // The first bind looked into the store (and found nothing).
            let cold = store.reads();
            assert_eq!(cold, 1, "{mode:?}");
            let victim = proxy.current_target().unwrap().ior.host;
            env.ctx.crash_host(victim).unwrap();
            let v: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
            assert_eq!((v, proxy.stats.restores), (6, 1), "{mode:?}");
            assert_eq!(
                store.reads(),
                cold,
                "{mode:?}: a warm recovery read the store"
            );
            // Behind the proxy's back the replica moves on; a fresh proxy
            // for the same object has no copy, so what it pushes on its
            // first bind is what the store holds: 6.
            let replica = proxy.current_target().unwrap().clone();
            let v: i64 = replica
                .call(env.orb, env.ctx, "inc", &(100i64,))
                .unwrap()
                .unwrap();
            assert_eq!(v, 106);
            let mut fresh = proxy_for(h0, env.orb, env.ctx, mode);
            let v: i64 = fresh.call(&mut env, "get", &()).unwrap().unwrap();
            assert_eq!((v, fresh.stats.restores), (6, 1), "{mode:?}");
            assert!(store.reads() > cold, "{mode:?}");
        });
        sim.run_until_exit(driver);
    }
}

#[test]
fn a_fresh_proxy_continues_the_epochs_it_finds() {
    // The replicated store keeps the newest epochs and answers the newest.
    // A proxy taking over an object restores epoch 5; its own next write
    // must be epoch 6, or the store trims it at once — and still acks it —
    // and the proxy after it restores the old epoch 5 again.
    let mut sim = Kernel::with_seed(23);
    let hosts: Vec<_> = (0..6)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    store::spawn_replicated_store(
        &mut sim,
        &hosts[3..],
        h0,
        store::StoreConfig::default(),
        None,
    );
    spawn_factories_obs(&mut sim, &hosts[1..3], h0, None);
    let out = cell::<Vec<(i64, u64)>>();
    let o = out.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let mut first = proxy_for(h0, env.orb, env.ctx, CheckpointMode::Bulk);
        for _ in 0..5 {
            let _: i64 = first.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
        }
        for delta in [10i64, 100] {
            let mut fresh = proxy_for(h0, env.orb, env.ctx, CheckpointMode::Bulk);
            let v: i64 = fresh.call(&mut env, "inc", &(delta,)).unwrap().unwrap();
            o.lock().unwrap().push((v, fresh.stats.restores));
        }
    });
    sim.run_until_exit(driver);
    // Each fresh proxy restored what the one before it acked.
    assert_eq!(*out.lock().unwrap(), vec![(15, 1), (115, 1)]);
}

#[test]
fn an_absurd_header_length_starts_a_fresh_proxy_cold() {
    // A per-value header's `len` is only what the store says. Reserved up
    // front, `u64::MAX` overflowed the capacity and 2^62 aborted the
    // process on allocation; with no chunk behind the header, a fresh
    // proxy must simply start its replica cold.
    for len in [u64::MAX, 1 << 62] {
        let mut sim = Kernel::with_seed(23);
        let (hosts, store) = probed_bed(&mut sim, 3, None);
        let h0 = hosts[0];
        let out = cell::<Option<(i64, u64, u64)>>();
        let o = out.clone();
        let driver = sim.spawn(hosts[0], "driver", move |ctx| {
            ctx.sleep(secs(1.0)).unwrap();
            let mut orb = Orb::init(ctx);
            let header = per_value::Header {
                len,
                epoch: cdr::Epoch(1),
                chunk: 64,
            }
            .to_any();
            ckpt_client(&mut orb, ctx, h0)
                .store_value(&mut orb, ctx, "counter-1", per_value::HEADER_KEY, &header)
                .unwrap()
                .unwrap();
            let mut fresh = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
            let mut env = ProxyEnv { orb: &mut orb, ctx };
            let v: i64 = fresh.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
            *o.lock().unwrap() = Some((v, fresh.stats.restores, store.reads()));
        });
        sim.run_until_exit(driver);
        // The header and the missing first chunk were read; nothing was
        // pushed, so the counter started from 0.
        assert_eq!(*out.lock().unwrap(), Some((1, 0, 2)), "len {len}");
    }
}

#[test]
fn failed_checkpoints_leave_the_acked_copy_alone() {
    // Neither a refused store write nor a failed `get_checkpoint` fetch
    // replaces the copy recovery restores from. (That a re-push of the
    // same `(ior, epoch)` from the copy is still suppressed is
    // `one_way_partition_does_not_double_restore`.)
    let mut sim = Kernel::with_seed(23);
    let (hosts, store) = probed_bed(&mut sim, 3, None);
    let h0 = hosts[0];
    let sink = obs::Obs::new();
    let out = cell::<Vec<i64>>();
    let o = out.clone();
    let stats_out = cell::<Option<crate::proxy::FtProxyStats>>();
    let so = stats_out.clone();
    let record_to = sink.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        orb.set_obs(obs::ProcessObs::new(record_to, ctx));
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::Bulk);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let inc = |proxy: &mut FtProxy, env: &mut ProxyEnv<'_>, by: i64| {
            let v: i64 = proxy.call(env, "inc", &(by,)).unwrap().unwrap();
            o.lock().unwrap().push(v);
        };
        inc(&mut proxy, &mut env, 5); // epoch 1, acked
        store.refuse_writes_after(0);
        inc(&mut proxy, &mut env, 1); // store write refused
        store.accept_writes();
        let _: () = proxy
            .call(&mut env, "refuse_checkpoints", &())
            .unwrap()
            .unwrap();
        inc(&mut proxy, &mut env, 1); // checkpoint fetch refused
        let reads = store.reads();
        let victim = proxy.current_target().unwrap().ior.host;
        env.ctx.crash_host(victim).unwrap();
        inc(&mut proxy, &mut env, 1);
        assert_eq!(store.reads(), reads, "recovery read the store");
        *so.lock().unwrap() = Some(proxy.stats);
    });
    let end = sim.run_until_exit(driver);
    assert_eq!(*out.lock().unwrap(), vec![5, 6, 7, 6]);
    let s = stats_out.lock().unwrap().unwrap();
    // One refused write, two refused fetches (the `refuse_checkpoints`
    // call's own checkpoint, then the inc's).
    assert_eq!(
        (s.checkpoint_failures, s.recoveries, s.restores),
        (3, 1, 1),
        "{s:?}"
    );
    assert_eq!(restored_epochs(&sink), vec![0, 1]);
    let doctor = monitor::diagnose(&sink, end);
    assert_eq!(doctor.violations, 0, "{}", doctor.report);
}

/// The fault schedules of `both_call_styles_run_one_recovery_engine` and
/// `recovery_backoff_is_bounded_and_deterministic`.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    /// The serving host dies while a call executes on it.
    ServerDiesMidCall,
    /// The only factory host dies, so every re-acquire fails.
    FactoryHostDies,
    /// The stored checkpoint does not decode: `restore_checkpoint` answers
    /// `MARSHAL`, which no retry can cure.
    RestoreRefused,
}

/// Everything a client can observe of one schedule.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<i64, Exception>,
    stats: crate::proxy::FtProxyStats,
    events: Vec<obs::EventBody>,
    elapsed_ns: u64,
}

/// One `i64` operation through either call style.
fn call_via<A: cdr::CdrWrite>(
    deferred: bool,
    proxy: &mut FtProxy,
    env: &mut ProxyEnv<'_>,
    op: &str,
    args: &A,
) -> Result<i64, Exception> {
    if deferred {
        let mut req = FtRequest::new(op);
        req.add_typed(args);
        req.send_deferred(proxy, env).unwrap();
        req.get_response_typed(proxy, env).unwrap()
    } else {
        proxy.call(env, op, args).unwrap()
    }
}

/// One schedule with the driver recording into `sink` and every
/// infrastructure process into `infra`. An untraced driver records no
/// events.
fn run_schedule_obs(
    schedule: Schedule,
    deferred: bool,
    sink: Option<obs::Obs>,
    infra: Option<obs::Obs>,
) -> Observed {
    let mut sim = Kernel::with_seed(31);
    let n_hosts = match schedule {
        Schedule::FactoryHostDies => 2,
        _ => 3,
    };
    let hosts = probed_bed(&mut sim, n_hosts, infra).0;
    let h0 = hosts[0];
    let out = cell::<Option<(Result<i64, Exception>, crate::proxy::FtProxyStats, u64)>>();
    let o = out.clone();
    let events = sink.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        // Above `slow_inc`'s 2 s of server CPU, so only a crash fails it.
        let mut orb = Orb::new(
            ctx,
            orb::OrbConfig {
                request_timeout: secs(5.0),
                ..orb::OrbConfig::default()
            },
        );
        orb.set_obs(obs::ProcessObs::from_sink(sink, ctx));
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::Bulk);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let start = env.ctx.now();
        let outcome = match schedule {
            Schedule::ServerDiesMidCall => {
                call_via(deferred, &mut proxy, &mut env, "inc", &(5i64,)).unwrap();
                let victim = proxy.current_target().unwrap().ior.host;
                env.ctx
                    .spawn(h0, "assassin", move |c| {
                        c.sleep(secs(0.5)).unwrap();
                        c.crash_host(victim).unwrap();
                    })
                    .unwrap();
                call_via(deferred, &mut proxy, &mut env, "slow_inc", &(3i64, 2.0f64))
            }
            Schedule::FactoryHostDies => {
                call_via(deferred, &mut proxy, &mut env, "inc", &(1i64,)).unwrap();
                env.ctx.crash_host(hosts[1]).unwrap();
                call_via(deferred, &mut proxy, &mut env, "inc", &(1i64,))
            }
            Schedule::RestoreRefused => {
                let torn = crate::Checkpoint {
                    object_id: "counter-1".into(),
                    epoch: cdr::Epoch(1),
                    state: vec![0xff],
                    stamp_ns: 0,
                };
                let ckpt = ckpt_client(env.orb, env.ctx, h0);
                ckpt.store(env.orb, env.ctx, &torn).unwrap().unwrap();
                let first = call_via(deferred, &mut proxy, &mut env, "inc", &(1i64,));
                // The refused replica stays bound: the next call must be
                // refused again, not run on unrestored state.
                let again = call_via(deferred, &mut proxy, &mut env, "inc", &(1i64,));
                assert_eq!(first, again);
                first
            }
        };
        let elapsed = env.ctx.now().since(start).as_nanos();
        *o.lock().unwrap() = Some((outcome, proxy.stats, elapsed));
    });
    sim.run_until_exit(driver);
    let (outcome, stats, elapsed_ns) = out.lock().unwrap().take().unwrap();
    Observed {
        outcome,
        stats,
        events: events
            .map(|s| s.events().into_iter().map(|e| e.body).collect())
            .unwrap_or_default(),
        elapsed_ns,
    }
}

#[test]
fn recovery_backoff_is_bounded_and_deterministic() {
    // The only factory host dies: recovery has nowhere to go and burns
    // every attempt, backing off in between.
    let (sink, again) = (obs::Obs::default(), obs::Obs::default());
    let a = run_schedule_obs(Schedule::FactoryHostDies, false, Some(sink.clone()), None);
    // Same seed ⇒ identical schedule, jitter included.
    let b = run_schedule_obs(Schedule::FactoryHostDies, false, Some(again.clone()), None);
    assert_eq!(a, b);
    let backoff_ns = sink.metric("ft.backoff_ns");
    assert_eq!(backoff_ns, again.metric("ft.backoff_ns"));
    // max_recoveries_per_call = 3 ⇒ the first re-acquire goes out at once
    // and two backoffs of ~50 and ~100 virtual milliseconds (each ±10%
    // jitter) pace the other two. Read off the sleeps themselves, not the
    // call's duration: how long the four failures take to *detect* is the
    // ORB's business.
    assert_eq!(sink.counter("ft.backoffs"), 2, "{a:?}");
    let Some(obs::Metric::Histogram(h)) = backoff_ns else {
        panic!("ft.backoff_ns not recorded: {a:?}");
    };
    let decade = |upper: u64| {
        let i = obs::BUCKET_BOUNDS.iter().position(|&b| b == upper);
        h.counts[i.expect("a bucket bound")]
    };
    // 45–55 ms falls in the (10 ms, 100 ms] bucket, 90–110 ms in that
    // one or in (100 ms, 1 s].
    let (short, long) = (decade(100_000_000), decade(1_000_000_000));
    assert!(
        h.count == 2
            && short + long == 2
            && short >= 1
            && (135_000_000..=165_000_000).contains(&h.sum),
        "backoffs off the 0/50/100 ms ± 10 % schedule: {h:?}"
    );
}

/// `o`'s events with every duration zeroed: all a traced client's span
/// context may move.
fn untimed(o: &Observed) -> Vec<obs::EventBody> {
    use obs::EventBody::{CheckpointStored, RecoveryFinished, RequestDone};
    let mut events = o.events.clone();
    for e in &mut events {
        if let RecoveryFinished { dur_ns, .. } | CheckpointStored { dur_ns, .. } = e {
            *dur_ns = 0;
        } else if let RequestDone {
            wait_ns,
            service_ns,
            ckpt_ns,
            ..
        } = e
        {
            (*wait_ns, *service_ns, *ckpt_ns) = (0, 0, 0);
        }
    }
    events
}

#[test]
fn both_call_styles_run_one_recovery_engine() {
    use obs::EventBody::{FailureDetected, RecoveryFinished, RecoveryStarted};
    for schedule in [
        Schedule::ServerDiesMidCall,
        Schedule::FactoryHostDies,
        Schedule::RestoreRefused,
    ] {
        // Untraced, the two call styles are one run to the nanosecond.
        let bare = run_schedule_obs(schedule, false, None, None);
        assert_eq!(
            bare,
            run_schedule_obs(schedule, true, None, None),
            "{schedule:?}"
        );
        assert!(bare.events.is_empty(), "an untraced proxy recorded events");
        let sink = obs::Obs::default();
        let sync = run_schedule_obs(schedule, false, Some(sink.clone()), None);
        for deferred in [false, true] {
            // A sink changes what is recorded, never what runs: with every
            // server recording, the run is the untraced one to the
            // nanosecond.
            let servers = obs::Obs::default();
            let traced = run_schedule_obs(schedule, deferred, None, Some(servers.clone()));
            assert_eq!(bare, traced, "{schedule:?}, deferred: {deferred}");
            assert!(
                !servers.spans_named("serve:create").is_empty(),
                "{schedule:?}"
            );
            // A traced client's requests also carry its span (a 20-byte
            // service context, marshalled and sent like any other byte),
            // so there only the timings may move; either style records
            // the same events, attempts, reasons, epochs and targets
            // included.
            let client = obs::Obs::default();
            let traced = run_schedule_obs(schedule, deferred, Some(client.clone()), None);
            assert_eq!((&traced.outcome, traced.stats), (&bare.outcome, bare.stats));
            assert_eq!(
                untimed(&traced),
                untimed(&sync),
                "{schedule:?}, deferred: {deferred}"
            );
            assert!(!client.spans_named("ft.restore").is_empty(), "{schedule:?}");
        }
        let Observed {
            outcome,
            stats,
            events,
            ..
        } = sync;
        let detected = events
            .iter()
            .filter(|e| matches!(e, FailureDetected { .. }))
            .count();
        let started: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                RecoveryStarted { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        match schedule {
            Schedule::ServerDiesMidCall => {
                assert_eq!(outcome, Ok(8)); // restored 5, then + 3
                assert_eq!((stats.recoveries, stats.target_failures), (1, 0));
                assert_eq!((detected, started), (1, vec![1]));
                assert!(events.iter().any(|e| matches!(e, RecoveryFinished { .. })));
            }
            Schedule::FactoryHostDies => {
                // The failed invoke and two failed re-acquires each start a
                // recovery; the third failed re-acquire is the outcome.
                assert!(outcome.is_err_and(|e| e.is_recoverable()));
                assert_eq!((stats.recoveries, stats.target_failures), (3, 3));
                assert_eq!((detected, started), (3, vec![1, 2, 3]));
            }
            Schedule::RestoreRefused => {
                // Exactly one attempt per call: nothing to recover from, no
                // retry, and no duplicate-epoch suppression on the second.
                assert!(outcome.is_err_and(|e| !e.is_recoverable()));
                assert_eq!((stats.factory_creates, stats.target_failures), (1, 2));
                assert_eq!((stats.recoveries, stats.calls), (0, 0));
                let counted = ["ft.backoffs", "ft.duplicate_suppressed"].map(|c| sink.counter(c));
                assert_eq!(counted, [0, 0]);
                assert_eq!((detected, started), (0, vec![]));
            }
        }
    }
}

#[test]
fn span_tree_covers_crash_recover_retry() {
    // One causal trace must cover the whole recovery episode: the failing
    // call, the recovery, the (naming-resolved) factory creation, the
    // checkpoint restore, and the retried dispatch on the fresh replica.
    let mut sim = Kernel::with_seed(5);
    let sink = obs::Obs::default();
    let (hosts, _) = probed_bed(&mut sim, 3, Some(sink.clone()));
    let h0 = hosts[0];
    let driver_obs = sink.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        orb.set_obs(obs::ProcessObs::new(driver_obs, ctx));
        let mut proxy = proxy_for(h0, &mut orb, ctx, CheckpointMode::PerValue);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for i in 0..3i64 {
            let _: i64 = proxy.call(&mut env, "inc", &(1i64,)).unwrap().unwrap();
            if i == 1 {
                let victim = proxy.current_target().unwrap().ior.host;
                env.ctx.crash_host(victim).unwrap();
            }
        }
    });
    sim.run_until_exit(driver);
    let spans = sink.spans();
    let recover = spans
        .iter()
        .find(|s| s.name == "ft.recover")
        .expect("recovery must be recorded");
    let mut trace: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == recover.trace_id)
        .collect();
    trace.sort_by_key(|s| (s.start_ns, s.span_id));
    let names: Vec<&str> = trace.iter().map(|s| s.name.as_str()).collect();
    let pos = |n: &str| {
        names
            .iter()
            .position(|&x| x == n)
            .unwrap_or_else(|| panic!("{n} missing from trace: {names:?}"))
    };
    // Causal order within the episode's trace.
    let call = pos("ft.call:inc");
    let rec = pos("ft.recover");
    let create = pos("ft.factory_create");
    let restore = pos("ft.restore");
    assert!(call < rec && rec < create && create < restore, "{names:?}");
    // Recovery goes back through the naming service…
    assert!(
        names.iter().skip(rec).any(|&n| n == "serve:resolve"),
        "{names:?}"
    );
    // …and ends with the retried dispatch on the new replica.
    assert!(
        names.iter().skip(restore).any(|&n| n == "serve:inc"),
        "{names:?}"
    );
    // The failing call is the root of its trace.
    let root = &trace[call];
    assert!(root.parent.is_none(), "{root:?}");
    // Server-side spans joined via the propagated context, one hop out.
    let serve = trace
        .iter()
        .find(|s| s.name == "serve:resolve")
        .expect("checked above");
    assert_eq!(serve.hop, 1, "{serve:?}");
    assert!(serve.parent.is_some(), "{serve:?}");
}

#[test]
fn detector_tolerates_transient_misses() {
    // suspect_after = 3: a single missed probe (brief partition) must not
    // evict a healthy member.
    let mut sim = Kernel::with_seed(12);
    let hosts = standard_bed(&mut sim, 3);
    let h0 = hosts[0];
    let stats = simnet::Shared::new(DetectorStats::default());
    let st = stats.clone();
    sim.spawn(h0, "detector", move |ctx| {
        ctx.sleep(secs(1.5)).unwrap();
        let _ = run_detector_obs(
            ctx,
            h0,
            DetectorConfig {
                group: Name::simple("Counters"),
                period: secs(0.5),
                suspect_after: 3,
            },
            st,
            None,
        );
    });
    let remaining = cell::<Option<usize>>();
    let rem = remaining.clone();
    let driver = sim.spawn(hosts[0], "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let group = Name::simple("Counters");
        let f = ns
            .resolve(&mut orb, ctx, &factory_name(hosts[1]))
            .unwrap()
            .unwrap();
        let ior = FactoryClient::new(f)
            .create(&mut orb, ctx, "Counter")
            .unwrap()
            .unwrap()
            .unwrap();
        ns.bind_group_member(&mut orb, ctx, &group, &ior)
            .unwrap()
            .unwrap();
        // Briefly cut the detector's path to the member (one probe round).
        ctx.set_partition(h0, hosts[1], true).unwrap();
        ctx.sleep(secs(0.7)).unwrap();
        ctx.set_partition(h0, hosts[1], false).unwrap();
        ctx.sleep(secs(4.0)).unwrap();
        let members = ns.group_members(&mut orb, ctx, &group).unwrap().unwrap();
        *rem.lock().unwrap() = Some(members.len());
    });
    sim.run_until_exit(driver);
    assert_eq!(*remaining.lock().unwrap(), Some(1), "member was evicted");
    let s = *stats.lock();
    assert!(s.failed_probes >= 1, "{s:?}");
    assert_eq!(s.evictions, 0, "{s:?}");
}
