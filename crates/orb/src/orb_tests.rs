//! End-to-end ORB tests running on the simulated network: request/reply,
//! exceptions, DII parallelism, failure detection, and cost accounting.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use obs::{SpanContext, TRACE_CONTEXT_ID};
use simnet::{Addr, Fault, HostId, Kernel, SimDuration, SimTime};
use std::sync::Mutex as StdMutex;

use crate::{
    reply, CallCtx, DiiRequest, Exception, Ior, Message, ObjectKey, ObjectRef, Orb, OrbConfig, Poa,
    ReplyBody, Servant, ServiceContext, SysKind, SystemException, UserException,
};

/// Whether `e` is `COMM_FAILURE`.
fn comm_failure(e: &crate::Exception) -> bool {
    matches!(e, crate::Exception::System(s) if s.kind == crate::SysKind::CommFailure)
}

type Cell<T> = Arc<StdMutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(StdMutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// A calculator servant used throughout: `add(f64,f64)->f64`,
/// `fail()` raises a user exception, `work(f64)` burns CPU,
/// `protocol_errors()` reads its own ORB's count of unparseable frames.
struct Calc;

const CALC_TYPE: &str = "IDL:Test/Calc:1.0";
const DIV_BY_ZERO: &str = "IDL:Test/Calc/DivByZero:1.0";

impl Servant for Calc {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "add" => {
                let (a, b): (f64, f64) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                reply(&(a + b))
            }
            "div" => {
                let (a, b): (f64, f64) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                if b == 0.0 {
                    return Err(UserException::new(DIV_BY_ZERO, &()).into());
                }
                reply(&(a / b))
            }
            "work" => {
                let units: f64 = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                call.ctx.compute(units).expect("killed mid-dispatch");
                reply(&units)
            }
            "protocol_errors" => reply(&call.orb.stats().protocol_errors),
            other => Err(SystemException::bad_operation(other).into()),
        }
    }
}

/// Spawn a calc server on `host`, publishing its stringified IOR into the
/// cell (servers publish IORs out-of-band in these tests; higher layers use
/// the naming service).
fn spawn_calc(sim: &mut Kernel, host: HostId, ior_out: Cell<Option<Ior>>) {
    spawn_calc_cfg(sim, host, ior_out, OrbConfig::default());
}

fn spawn_calc_cfg(sim: &mut Kernel, host: HostId, ior_out: Cell<Option<Ior>>, cfg: OrbConfig) {
    spawn_servant(sim, host, ior_out, cfg, Calc);
}

/// Spawn a server of `servant` under the calculator's type id.
fn spawn_servant(
    sim: &mut Kernel,
    host: HostId,
    ior_out: Cell<Option<Ior>>,
    cfg: OrbConfig,
    servant: impl Servant + Send + 'static,
) {
    sim.spawn(host, "calc-server", move |ctx| {
        let mut orb = Orb::new(ctx, cfg);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(CALC_TYPE, Rc::new(RefCell::new(servant)));
        *ior_out.lock().unwrap() = Some(orb.ior(CALC_TYPE, key));
        let _ = orb.serve_forever(ctx, &poa);
    });
}

fn resolve(ior_cell: &Cell<Option<Ior>>) -> ObjectRef {
    let s = ior_cell
        .lock()
        .unwrap()
        .clone()
        .expect("server published IOR");
    ObjectRef::new(s)
}

#[test]
fn typed_call_round_trip() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<f64>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let r: f64 = obj
            .call(&mut orb, ctx, "add", &(2.0, 3.5))
            .unwrap()
            .unwrap();
        *o.lock().unwrap() = Some(r);
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock().unwrap(), Some(5.5));
}

#[test]
fn user_exception_propagates() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<String>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "div", &(1.0, 0.0)).unwrap();
        if let Err(Exception::User(u)) = r {
            *o.lock().unwrap() = Some(u.id);
        }
    });
    sim.run_until_exit(client);
    assert_eq!(out.lock().unwrap().as_deref(), Some(DIV_BY_ZERO));
}

#[test]
fn unknown_operation_raises_bad_operation() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<SysKind>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "frobnicate", &()).unwrap();
        if let Err(Exception::System(s)) = r {
            *o.lock().unwrap() = Some(s.kind);
        }
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock().unwrap(), Some(SysKind::BadOperation));
}

#[test]
fn stale_key_raises_object_not_exist() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<SysKind>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let mut obj = resolve(&i);
        obj.ior.key = crate::ObjectKey(9999); // forge a stale key
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        if let Err(Exception::System(s)) = r {
            *o.lock().unwrap() = Some(s.kind);
        }
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock().unwrap(), Some(SysKind::ObjectNotExist));
}

#[test]
fn dead_server_process_gives_fast_comm_failure() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    // Kill the server process shortly after boot (host stays up → RST).
    sim.schedule_fault(
        SimTime::ZERO + secs(0.5),
        Fault::KillProcess(simnet::Pid(0)),
    );
    let out = cell::<Option<(bool, f64)>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let t0 = ctx.now();
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        let dt = ctx.now().since(t0).as_secs_f64();
        *o.lock().unwrap() = Some((comm_failure(&r.unwrap_err()), dt));
    });
    sim.run_until_exit(client);
    let (is_cf, dt) = out.lock().unwrap().unwrap();
    assert!(is_cf);
    // RST detection is fast: well under the 2s request timeout.
    assert!(dt < 0.1, "dt={dt}");
}

#[test]
fn crashed_host_gives_comm_failure_after_timeout() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    sim.schedule_fault(SimTime::ZERO + secs(0.5), Fault::CrashHost(hs[1]));
    let out = cell::<Option<(bool, f64)>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let t0 = ctx.now();
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        let dt = ctx.now().since(t0).as_secs_f64();
        *o.lock().unwrap() = Some((comm_failure(&r.unwrap_err()), dt));
    });
    sim.run_until_exit(client);
    let (is_cf, dt) = out.lock().unwrap().unwrap();
    assert!(is_cf);
    // Timeout-path detection: ~the 2s request timeout.
    assert!((1.9..2.2).contains(&dt), "dt={dt}");
}

#[test]
fn dii_deferred_requests_run_in_parallel() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(3);
    let ior1 = cell();
    let ior2 = cell();
    let cfg = OrbConfig {
        request_timeout: secs(30.0),
    };
    spawn_calc_cfg(&mut sim, hs[1], ior1.clone(), cfg.clone());
    spawn_calc_cfg(&mut sim, hs[2], ior2.clone(), cfg.clone());
    let out = cell::<Option<(f64, f64, f64)>>();
    let o = out.clone();
    let (i1, i2) = (ior1.clone(), ior2.clone());
    let client = sim.spawn(hs[0], "manager", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::new(ctx, cfg);
        let w1 = resolve(&i1);
        let w2 = resolve(&i2);
        let t0 = ctx.now();
        // Each worker burns 2 CPU-seconds; deferred fan-out should cost
        // ~2s wall, not ~4s.
        let mut r1 =
            DiiRequest::send_deferred(&mut orb, ctx, &w1.ior, "work", &2.0f64, &[]).unwrap();
        let mut r2 =
            DiiRequest::send_deferred(&mut orb, ctx, &w2.ior, "work", &2.0f64, &[]).unwrap();
        let v1 = r1.get_response(&mut orb, ctx).unwrap().unwrap();
        let v2 = r2.get_response(&mut orb, ctx).unwrap().unwrap();
        let dt = ctx.now().since(t0).as_secs_f64();
        let v1: f64 = cdr::from_bytes(&v1).unwrap();
        let v2: f64 = cdr::from_bytes(&v2).unwrap();
        *o.lock().unwrap() = Some((v1, v2, dt));
    });
    sim.run_until_exit(client);
    let (v1, v2, dt) = out.lock().unwrap().unwrap();
    assert_eq!((v1, v2), (2.0, 2.0));
    // The two 2 s computations overlap; the rest is the default cost of a
    // round trip, four 60 us marshal steps and two 150 us hops.
    assert!(
        (2.0005..2.0007).contains(&dt),
        "deferred calls did not overlap: dt={dt}"
    );
}

#[test]
fn dii_poll_response_is_nonblocking() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let mut r =
            DiiRequest::send_deferred(&mut orb, ctx, &obj.ior, "work", &1.0f64, &[]).unwrap();
        // Immediately after sending: not done.
        o.lock()
            .unwrap()
            .push(r.poll_response(&mut orb, ctx).unwrap());
        ctx.sleep(secs(2.0)).unwrap();
        // After the work duration: done without blocking.
        o.lock()
            .unwrap()
            .push(r.poll_response(&mut orb, ctx).unwrap());
        let v = r.result::<f64>().unwrap().unwrap();
        assert_eq!(v, 1.0);
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock().unwrap(), vec![false, true]);
}

#[test]
fn oneway_does_not_wait() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<f64>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let t0 = ctx.now();
        // 5 CPU-seconds of server work, fired as oneway: client returns
        // immediately (only its own marshal cost).
        obj.oneway(&mut orb, ctx, "work", &5.0f64).unwrap();
        *o.lock().unwrap() = Some(ctx.now().since(t0).as_secs_f64());
    });
    sim.run_until_exit(client);
    assert!(out.lock().unwrap().unwrap() < 0.01);
}

#[test]
fn locate_reports_liveness() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "prober", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        // Live object.
        o.lock()
            .unwrap()
            .push(format!("{:?}", orb.locate(ctx, &obj.ior).unwrap()));
        // Live server, stale key.
        let mut stale = obj.ior.clone();
        stale.key = crate::ObjectKey(4242);
        o.lock()
            .unwrap()
            .push(format!("{:?}", orb.locate(ctx, &stale).unwrap()));
    });
    sim.run_until_exit(client);
    let log = out.lock().unwrap().clone();
    assert_eq!(log, vec!["Ok(true)", "Ok(false)"]);
}

#[test]
fn nested_calls_from_servant() {
    // Servant B's operation calls servant A on another host mid-dispatch.
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(3);
    let calc_ior = cell();
    spawn_calc(&mut sim, hs[1], calc_ior.clone());

    struct Doubler {
        calc: Cell<Option<Ior>>,
    }
    impl Servant for Doubler {
        fn dispatch(
            &mut self,
            call: &mut CallCtx<'_>,
            op: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, Exception> {
            assert_eq!(op, "double_add");
            let (a, b): (f64, f64) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
            let s = self.calc.lock().unwrap().clone().expect("calc up");
            let calc = ObjectRef::new(s);
            let sum: f64 = calc
                .call(call.orb, call.ctx, "add", &(a, b))
                .expect("not killed")?;
            reply(&(sum * 2.0))
        }
    }

    let dbl_ior = cell();
    let d = dbl_ior.clone();
    let c = calc_ior.clone();
    sim.spawn(hs[2], "doubler", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(
            "IDL:Test/Doubler:1.0",
            Rc::new(RefCell::new(Doubler { calc: c })),
        );
        *d.lock().unwrap() = Some(orb.ior("IDL:Test/Doubler:1.0", key));
        let _ = orb.serve_forever(ctx, &poa);
    });

    let out = cell::<Option<f64>>();
    let o = out.clone();
    let i = dbl_ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.05)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let v: f64 = obj
            .call(&mut orb, ctx, "double_add", &(1.5, 2.5))
            .unwrap()
            .unwrap();
        *o.lock().unwrap() = Some(v);
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock().unwrap(), Some(8.0));
}

/// A calc server whose ORB records into `sink`, through `attach` handles
/// set one after the other.
fn spawn_traced_calc(
    sim: &mut Kernel,
    host: HostId,
    ior_out: Cell<Option<Ior>>,
    sink: obs::Obs,
    attach: usize,
) {
    sim.spawn(host, "calc-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        for _ in 0..attach {
            orb.set_obs(obs::ProcessObs::new(sink.clone(), ctx));
        }
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(CALC_TYPE, Rc::new(RefCell::new(Calc)));
        *ior_out.lock().unwrap() = Some(orb.ior(CALC_TYPE, key));
        let _ = orb.serve_forever(ctx, &poa);
    });
}

#[test]
fn a_request_carries_its_callers_span_and_is_served_under_it() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(3);
    let sink = obs::Obs::new();
    let calc = cell();
    spawn_traced_calc(&mut sim, hs[1], calc.clone(), sink.clone(), 1);
    // A tap on `hs[2]` keeps every frame it is sent and answers none.
    let (tap, frames) = (cell::<Option<Ior>>(), cell::<Vec<Vec<u8>>>());
    let (publish, keep) = (tap.clone(), frames.clone());
    sim.spawn(hs[2], "tap", move |ctx| {
        let port = ctx.bind_port().unwrap();
        let me = Ior::new(CALC_TYPE, ctx.host(), port, ObjectKey(1));
        *publish.lock().unwrap() = Some(me);
        while let Ok(msg) = ctx.recv() {
            keep.lock().unwrap().extend(msg.data().map(<[u8]>::to_vec));
        }
    });
    let client_sink = sink.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let (calc, tap) = (resolve(&calc), resolve(&tap).ior);
        let po = obs::ProcessObs::new(client_sink, ctx);
        let mut orb = Orb::init(ctx);
        orb.set_obs(po.clone());
        po.begin(ctx.now(), "call");
        let _: f64 = calc
            .call(&mut orb, ctx, "add", &(1.0, 2.0))
            .unwrap()
            .unwrap();
        orb.invoke_oneway(ctx, &tap, "add", &(1.0, 2.0), &[])
            .unwrap();
        po.end(ctx.now());
        // Requests 3 of the traced ORB, made under no span, and 1 of an
        // ORB whose handle has no sink, made inside a span it was asked
        // to open.
        orb.invoke_oneway(ctx, &tap, "add", &(1.0, 2.0), &[])
            .unwrap();
        let no_sink = obs::ProcessObs::from_sink(None, ctx);
        let mut unobserved = Orb::init(ctx);
        unobserved.set_obs(no_sink.clone());
        no_sink.begin(ctx.now(), "unrecorded");
        unobserved
            .invoke_oneway(ctx, &tap, "add", &(1.0, 2.0), &[])
            .unwrap();
        no_sink.end(ctx.now());
        ctx.sleep(secs(0.01)).unwrap();
    });
    sim.run_until_exit(client);

    let call = &sink.spans_named("call")[0];
    let serve = sink.spans_named("serve:add");
    assert_eq!(serve.len(), 1, "{serve:?}");
    let under = (serve[0].trace_id, serve[0].parent, serve[0].hop);
    assert_eq!(under, (call.trace_id, Some(call.span_id), 1));

    let frames = frames.lock().unwrap().clone();
    let [traced, no_span, no_sink] = &frames[..] else {
        panic!("the tap got {} frames", frames.len());
    };
    let Ok(Message::Request {
        service_contexts, ..
    }) = Message::decode(traced)
    else {
        panic!("not a request");
    };
    let ids: Vec<u32> = service_contexts.iter().map(|sc| sc.id).collect();
    assert_eq!(ids, [TRACE_CONTEXT_ID]);
    let carried = SpanContext::from_bytes(&service_contexts[0].data);
    let span = SpanContext {
        trace_id: call.trace_id,
        span_id: call.span_id,
        hop: 0,
    };
    assert_eq!(carried, Some(span));
    let bare = |id| Message::encode_call(id, false, ObjectKey(1), "add", &(1.0, 2.0), &[]);
    assert_eq!(*no_span, bare(3));
    assert_eq!(*no_sink, bare(1));
    assert_eq!(sink.spans().len(), 2, "only `call` and `serve:add`");
}

#[test]
fn a_second_handle_replaces_the_first() {
    // Attaching a handle twice must not trace a served request twice.
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let sink = obs::Obs::new();
    let ior = cell();
    spawn_traced_calc(&mut sim, hs[1], ior.clone(), sink.clone(), 2);
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&ior);
        for _ in 0..3 {
            let _: f64 = obj
                .call(&mut orb, ctx, "add", &(1.0, 2.0))
                .unwrap()
                .unwrap();
        }
    });
    sim.run_until_exit(client);
    assert_eq!(sink.spans_named("serve:add").len(), 3);
}

#[test]
fn marshal_cost_is_charged() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<f64>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let t0 = ctx.now();
        let _: f64 = obj
            .call(&mut orb, ctx, "add", &(1.0, 2.0))
            .unwrap()
            .unwrap();
        *o.lock().unwrap() = Some(ctx.now().since(t0).as_secs_f64());
    });
    sim.run_until_exit(client);
    let dt = out.lock().unwrap().unwrap();
    // Default cost model: 4 marshal steps ≈ 240us + 2× remote latency.
    assert!(dt > 200e-6, "dt={dt}");
    assert!(dt < 2e-3, "dt={dt}");
}

#[test]
fn partition_mid_call_times_out_with_comm_failure() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    let cfg = OrbConfig {
        request_timeout: secs(1.0),
    };
    spawn_calc_cfg(&mut sim, hs[1], ior.clone(), cfg.clone());
    // Partitioned from 5 ms to 1.5 s: the first call times out, the one
    // after the heal succeeds.
    sim.schedule_fault(
        SimTime::ZERO + secs(0.005),
        Fault::Partition(hs[0], hs[1], true),
    );
    sim.schedule_fault(
        SimTime::ZERO + secs(1.5),
        Fault::Partition(hs[0], hs[1], false),
    );
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::new(ctx, cfg);
        let obj = resolve(&i);
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        o.lock()
            .unwrap()
            .push(format!("partitioned:{}", comm_failure(&r.unwrap_err())));
        ctx.sleep(secs(0.5)).unwrap();
        let r: f64 = obj
            .call(&mut orb, ctx, "add", &(1.0, 1.0))
            .unwrap()
            .unwrap();
        o.lock().unwrap().push(format!("healed:{r}"));
    });
    sim.run_until_exit(client);
    assert_eq!(
        *out.lock().unwrap(),
        vec!["partitioned:true".to_string(), "healed:2".to_string()]
    );
}

#[test]
fn oneway_to_dead_endpoint_does_not_fail_the_caller() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let out = cell::<bool>();
    let o = out.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        let mut orb = Orb::init(ctx);
        // Nothing listens at this endpoint; oneway is fire-and-forget.
        let ghost = Ior::new("IDL:T:1.0", hs[1], simnet::Port(4444), crate::ObjectKey(1));
        let obj = ObjectRef::new(ghost);
        obj.oneway(&mut orb, ctx, "report", &(1u32,)).unwrap();
        // The pending RST must not confuse a later unrelated call path.
        ctx.sleep(secs(0.1)).unwrap();
        *o.lock().unwrap() = true;
    });
    sim.run_until_exit(client);
    assert!(*out.lock().unwrap());
}

#[test]
fn stats_track_failures_and_oneways() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<(u64, u64, u64)>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let _: f64 = obj
            .call(&mut orb, ctx, "add", &(1.0, 1.0))
            .unwrap()
            .unwrap();
        obj.oneway(&mut orb, ctx, "work", &0.0f64).unwrap();
        let mut dead = obj.clone();
        dead.ior.port = simnet::Port(59999);
        let _ = dead
            .call::<_, f64>(&mut orb, ctx, "add", &(1.0, 1.0))
            .unwrap();
        let s = orb.stats();
        *o.lock().unwrap() = Some((s.requests_sent, s.oneways_sent, s.comm_failures));
    });
    sim.run_until_exit(client);
    assert_eq!(out.lock().unwrap().unwrap(), (2, 1, 1));
}

#[test]
fn two_clients_share_one_server() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(3);
    let ior = cell();
    let cfg = OrbConfig {
        request_timeout: secs(60.0),
    };
    spawn_calc_cfg(&mut sim, hs[2], ior.clone(), cfg.clone());
    let done = cell::<Vec<f64>>();
    for (c, &host) in hs.iter().take(2).enumerate() {
        let i = ior.clone();
        let d = done.clone();
        let cfg = cfg.clone();
        sim.spawn(host, format!("client{c}"), move |ctx| {
            ctx.sleep(secs(0.01)).unwrap();
            let mut orb = Orb::new(ctx, cfg);
            let obj = resolve(&i);
            // Server work is serialized in the single-threaded server.
            let _: f64 = obj.call(&mut orb, ctx, "work", &1.0f64).unwrap().unwrap();
            d.lock().unwrap().push(ctx.now().as_secs_f64());
        });
    }
    sim.run_until_idle();
    let mut times = done.lock().unwrap().clone();
    times.sort_by(f64::total_cmp);
    // First client done at ~1s (from 10 ms, plus the default cost of a
    // round trip, ≈ 0.55 ms); second waits for the first: ~2s.
    assert!((1.0105..1.0106).contains(&times[0]), "{times:?}");
    assert!((2.0106..2.0107).contains(&times[1]), "{times:?}");
}

// ----------------------------------------------------------------------
// Failure detection on an endpoint with a round-trip history
// ----------------------------------------------------------------------

/// What the client saw of the call under test.
struct Seen {
    /// The result, or the `COMM_FAILURE`'s detail.
    outcome: Result<f64, String>,
    /// Virtual seconds the call took.
    dt: f64,
    stats: crate::OrbStats,
}

/// Ten `add` calls give the server's endpoint a history (a round trip is
/// ≈ 0.6 ms on the default LAN and cost model); at t = 1 s the client
/// makes `call`. `fault` (given `[client host, server host]`; the server is
/// `Pid(0)`) is scheduled at an absolute instant.
fn call_after_history(
    fault: impl FnOnce(&[HostId]) -> Option<(f64, Fault)>,
    call: impl FnOnce(&ObjectRef, &mut Orb, &mut simnet::Ctx) -> Result<f64, Exception> + Send + 'static,
) -> Seen {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    if let Some((at, fault)) = fault(&hs) {
        sim.schedule_fault(SimTime::ZERO + secs(at), fault);
    }
    let out = cell::<Option<Seen>>();
    let o = out.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&ior);
        for _ in 0..10 {
            let _: f64 = obj
                .call(&mut orb, ctx, "add", &(1.0, 1.0))
                .unwrap()
                .unwrap();
        }
        ctx.sleep(SimTime::from_nanos(1_000_000_000).since(ctx.now()))
            .unwrap();
        let t0 = ctx.now();
        let outcome = call(&obj, &mut orb, ctx).map_err(|e| match e {
            Exception::System(s) if s.kind == SysKind::CommFailure => s.detail,
            other => panic!("not a COMM_FAILURE: {other:?}"),
        });
        *o.lock().unwrap() = Some(Seen {
            outcome,
            dt: ctx.now().since(t0).as_secs_f64(),
            stats: orb.stats(),
        });
    });
    sim.run_until_exit(client);
    let seen = out.lock().unwrap().take().expect("client finished");
    seen
}

fn add(obj: &ObjectRef, orb: &mut Orb, ctx: &mut simnet::Ctx) -> Result<f64, Exception> {
    obj.call(orb, ctx, "add", &(1.0, 1.0)).unwrap()
}

#[test]
fn crashed_host_with_history_is_found_out_by_probes() {
    let seen = call_after_history(|hs| Some((0.9, Fault::CrashHost(hs[1]))), add);
    assert_eq!(seen.outcome, Err("peer unreachable".into()));
    // 2 s (the request timeout) without probes.
    assert!(seen.dt < 0.1, "dt={}", seen.dt);
    assert_eq!(seen.stats.probes_sent, 5);
}

#[test]
fn first_contact_with_a_host_found_silent_is_probed_at_once() {
    // Another endpoint on the crashed host (a factory, say) never answered
    // this client: without the host's verdict it would wait out the 2 s
    // request timeout.
    let seen = call_after_history(
        |hs| Some((0.9, Fault::CrashHost(hs[1]))),
        |obj, orb, ctx| {
            assert!(add(obj, orb, ctx).is_err());
            let elsewhere = Ior {
                port: simnet::Port(obj.ior.port.0 + 1),
                ..obj.ior.clone()
            };
            add(&ObjectRef::new(elsewhere), orb, ctx)
        },
    );
    assert_eq!(seen.outcome, Err("peer unreachable".into()));
    assert!(seen.dt < 0.2, "dt={}", seen.dt);
    assert_eq!(seen.stats.probes_sent, 10);
}

#[test]
fn slow_servant_is_waited_for_not_failed() {
    // 300 × the endpoint's usual round trip, well inside the deadline.
    let seen = call_after_history(
        |_| None,
        |obj, orb, ctx| obj.call(orb, ctx, "work", &0.18f64).unwrap(),
    );
    assert_eq!(seen.outcome, Ok(0.18));
    assert_eq!(seen.stats.comm_failures, 0);
    // Each answered probe doubles the patience: ⌈log₂ 300⌉ + 1 at most.
    assert!(
        (1..=10).contains(&seen.stats.probes_sent),
        "probes={}",
        seen.stats.probes_sent
    );
}

#[test]
fn killed_server_holding_the_request_is_refused_not_silent() {
    // The request is delivered and being worked on when the process dies
    // (host up): no RST comes for a message already taken, only for the
    // next keepalive.
    let seen = call_after_history(
        |_| Some((1.05, Fault::KillProcess(simnet::Pid(0)))),
        |obj, orb, ctx| obj.call(orb, ctx, "work", &1.0f64).unwrap(),
    );
    assert_eq!(seen.outcome, Err("connection refused".into()));
    // Killed 50 ms into the call; 2 s (the request timeout) without probes.
    assert!(seen.dt < 0.15, "dt={}", seen.dt);
}

#[test]
fn degraded_link_is_ridden_out() {
    // +5 ms each way on a link whose round trip was 0.3 ms: the reply is
    // late by every measure the client has, and still comes.
    let seen = call_after_history(
        |hs| {
            let degrade = Fault::DegradeLink {
                a: hs[0],
                b: hs[1],
                extra_latency: SimDuration::from_millis(5),
                drop_milli: 0,
            };
            Some((0.9, degrade))
        },
        add,
    );
    assert_eq!(seen.outcome, Ok(2.0));
    assert_eq!(seen.stats.comm_failures, 0);
    assert!(seen.stats.probes_sent >= 1, "the reply was not late?");
}

#[test]
fn lost_return_path_is_unreachable() {
    // Requests and keepalives arrive; nothing comes back.
    let seen = call_after_history(
        |hs| {
            let drop = Fault::DropOneWay {
                from: hs[1],
                to: hs[0],
                blocked: true,
            };
            Some((0.9, drop))
        },
        add,
    );
    assert_eq!(seen.outcome, Err("peer unreachable".into()));
    assert!(seen.dt < 0.1, "dt={}", seen.dt);
}

#[test]
fn late_reply_is_dropped_and_counted() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<(bool, f64, usize, u64)>>();
    let o = out.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let cfg = OrbConfig {
            request_timeout: secs(0.1),
        };
        let mut orb = Orb::new(ctx, cfg);
        let obj = resolve(&ior);
        // Answered after 0.3 s: 0.2 s past the deadline.
        let slow: Result<f64, _> = obj.call(&mut orb, ctx, "work", &0.3f64).unwrap();
        ctx.sleep(secs(0.4)).unwrap();
        // The late reply sits in the mailbox; this call reads past it.
        let sum: f64 = obj
            .call(&mut orb, ctx, "add", &(1.0, 1.0))
            .unwrap()
            .unwrap();
        let s = orb.stats();
        *o.lock().unwrap() = Some((
            comm_failure(&slow.unwrap_err()),
            sum,
            orb.stashed_replies(),
            s.late_replies,
        ));
    });
    sim.run_until_exit(client);
    assert_eq!(out.lock().unwrap().unwrap(), (true, 2.0, 0, 1));
}

// ----------------------------------------------------------------------
// Frames that lie
// ----------------------------------------------------------------------

/// `frame` with its body octets lying about their length: a count of
/// 2^32 − 1, a count one past the rest of the frame, and the frame cut
/// inside the body. The body must not be empty.
fn hostile_bodies(frame: &[u8]) -> Vec<Vec<u8>> {
    let (_, body) = Message::parse(frame).expect("a well-formed frame");
    assert!(!body.is_empty());
    let count_at = body.start - 4..body.start;
    let with_count = |n: u32| {
        let mut f = frame.to_vec();
        f[count_at.clone()].copy_from_slice(&n.to_le_bytes());
        f
    };
    vec![
        with_count(u32::MAX),
        with_count((frame.len() - body.start + 1) as u32),
        frame[..body.start + body.len() / 2].to_vec(),
    ]
}

/// Send `frames` raw to the calc server, traced into `sink` if given,
/// then ask it how many frames it could not parse and for one sum.
/// Returns the count, how many raw frames were answered, and the sum.
fn send_raw_then_call(
    sink: Option<obs::Obs>,
    frames: impl FnOnce(&Ior) -> Vec<Vec<u8>> + Send + 'static,
) -> (u64, u64, f64) {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    match sink {
        Some(sink) => spawn_traced_calc(&mut sim, hs[1], ior.clone(), sink, 1),
        None => spawn_calc(&mut sim, hs[1], ior.clone()),
    }
    let out = cell::<Option<(u64, u64, f64)>>();
    let o = out.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&ior);
        for frame in frames(&obj.ior) {
            ctx.send(Addr::Endpoint(obj.ior.host, obj.ior.port), frame)
                .unwrap();
        }
        let errors: u64 = obj
            .call(&mut orb, ctx, "protocol_errors", &())
            .unwrap()
            .unwrap();
        let sum: f64 = obj
            .call(&mut orb, ctx, "add", &(2.0, 3.0))
            .unwrap()
            .unwrap();
        // A reply to a raw frame has no pending call to go to.
        *o.lock().unwrap() = Some((errors, orb.stats().late_replies, sum));
    });
    sim.run_until_exit(client);
    let seen = out.lock().unwrap().expect("client finished");
    seen
}

/// A request for `add(1, 2)`, as any client would send it.
fn add_request(target: &Ior) -> Vec<u8> {
    let args = cdr::to_bytes(&(1.0, 2.0));
    Message::encode_request(999, true, target.key, "add", &args, &[])
}

#[test]
fn a_frame_in_the_other_byte_order_is_refused_and_counted() {
    let seen = send_raw_then_call(None, |target| {
        let mut frame = add_request(target);
        frame[6] = 0; // GIOP's flag for big-endian
        vec![frame]
    });
    assert_eq!(seen, (1, 0, 5.0));
}

#[test]
fn request_bodies_that_lie_about_their_length_are_dropped() {
    let seen = send_raw_then_call(None, |target| hostile_bodies(&add_request(target)));
    assert_eq!(seen, (3, 0, 5.0));
}

#[test]
fn hostile_trace_contexts_are_served_under_a_sane_span() {
    let sink = obs::Obs::new();
    let seen = send_raw_then_call(Some(sink.clone()), |target| {
        let args = cdr::to_bytes(&(1.0, 2.0));
        let context = |trace_id, span_id, hop| SpanContext {
            trace_id,
            span_id,
            hop,
        };
        let request = |id, contexts: Vec<Vec<u8>>| {
            let contexts: Vec<ServiceContext> = contexts
                .into_iter()
                .map(|data| ServiceContext {
                    id: TRACE_CONTEXT_ID,
                    data,
                })
                .collect();
            Message::encode_request(id, true, target.key, "add", &args, &contexts)
        };
        // Smallest frame first: a shorter frame sent at the same instant
        // arrives sooner.
        vec![
            request(991, vec![vec![7; 19]]),
            request(992, vec![context(40, 41, u32::MAX).to_bytes()]),
            request(
                993,
                vec![context(50, 51, 2).to_bytes(), context(60, 61, 5).to_bytes()],
            ),
        ]
    });
    assert_eq!(seen, (0, 3, 5.0));
    let served: Vec<_> = sink
        .spans_named("serve:add")
        .iter()
        .map(|s| (s.trace_id, s.parent, s.hop))
        .collect();
    assert_eq!(served.len(), 4, "three raw requests and the sum");
    // A context of the wrong size starts a fresh trace (the sink's first),
    // the hop saturates, and of two contexts the first counts.
    let want = [(1, None, 0), (40, Some(41), u32::MAX), (50, Some(51), 3)];
    assert_eq!(served[..3], want);
}

#[test]
fn reply_bodies_that_lie_fail_the_call_not_the_client() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    // A server that answers every request with `4.0`, the first four
    // times in a frame that lies: three about the result's length, one
    // with a well-framed result that claims 2^32 − 1 doubles.
    let ior = cell::<Option<Ior>>();
    let publish = ior.clone();
    sim.spawn(hs[1], "liar", move |ctx| {
        let port = ctx.bind_port().unwrap();
        let me = Ior::new(CALC_TYPE, ctx.host(), port, ObjectKey(1));
        *publish.lock().unwrap() = Some(me);
        for answer in 0.. {
            let Ok(msg) = ctx.recv() else { return };
            let Some(Ok(Message::Request { request_id, .. })) = msg.data().map(Message::decode)
            else {
                continue;
            };
            let result = |body: Vec<u8>| {
                Message::Reply {
                    request_id,
                    status: ReplyBody::NoException(body),
                    service_contexts: vec![],
                }
                .encode()
            };
            let honest = result(cdr::to_bytes(&4.0f64));
            let mut lies = hostile_bodies(&honest);
            let mut bomb = u32::MAX.to_le_bytes().to_vec();
            bomb.extend_from_slice(&[0; 8]);
            lies.push(result(bomb));
            let frame = lies.get(answer).cloned().unwrap_or(honest);
            ctx.send(Addr::Pid(msg.from), frame).unwrap();
        }
    });
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let cfg = OrbConfig {
            request_timeout: secs(0.1),
        };
        let mut orb = Orb::new(ctx, cfg);
        let obj = resolve(&ior);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
            seen.push(format!("{:?}", r.map_err(|e| comm_failure(&e))));
        }
        let r: Result<Vec<f64>, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        seen.push(match r {
            Err(Exception::System(s)) => format!("{:?}", s.kind),
            other => format!("{other:?}"),
        });
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        seen.push(format!("{r:?}"));
        seen.push(format!("protocol_errors:{}", orb.stats().protocol_errors));
        *o.lock().unwrap() = seen;
    });
    sim.run_until_exit(client);
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "Err(true)",
            "Err(true)",
            "Err(true)",
            "Marshal",
            "Ok(4.0)",
            "protocol_errors:3"
        ]
    );
}
