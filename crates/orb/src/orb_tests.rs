//! End-to-end ORB tests running on the simulated network: request/reply,
//! exceptions, DII parallelism, failure detection, forwarding, and cost
//! accounting.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use obs::{SpanContext, TRACE_CONTEXT_ID};
use simnet::{Addr, Fault, HostId, Kernel, SimDuration, SimTime};
use std::sync::Mutex as StdMutex;

use crate::{
    forward_to, reply, CallCtx, CostModel, DiiRequest, Exception, Ior, Message, ObjectKey,
    ObjectRef, Orb, OrbConfig, Poa, ReplyBody, Servant, SysKind, SystemException, UserException,
};

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
                    return Err(UserException::tag(DIV_BY_ZERO).into());
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
fn spawn_calc(sim: &mut Kernel, host: HostId, ior_out: Cell<Option<String>>) {
    spawn_calc_cfg(sim, host, ior_out, OrbConfig::default());
}

fn spawn_calc_cfg(sim: &mut Kernel, host: HostId, ior_out: Cell<Option<String>>, cfg: OrbConfig) {
    spawn_servant(sim, host, ior_out, cfg, Calc);
}

/// Spawn a server of `servant` under the calculator's type id.
fn spawn_servant(
    sim: &mut Kernel,
    host: HostId,
    ior_out: Cell<Option<String>>,
    cfg: OrbConfig,
    servant: impl Servant + Send + 'static,
) {
    sim.spawn(host, "calc-server", move |ctx| {
        let mut orb = Orb::new(ctx, cfg);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(CALC_TYPE, Rc::new(RefCell::new(servant)));
        *ior_out.lock().unwrap() = Some(orb.ior(CALC_TYPE, key).stringify());
        let _ = orb.serve_forever(ctx, &poa);
    });
}

fn resolve(ior_cell: &Cell<Option<String>>) -> ObjectRef {
    let s = ior_cell
        .lock()
        .unwrap()
        .clone()
        .expect("server published IOR");
    ObjectRef::new(Ior::destringify(&s).unwrap())
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
        *o.lock().unwrap() = Some((r.unwrap_err().is_comm_failure(), dt));
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
        *o.lock().unwrap() = Some((r.unwrap_err().is_comm_failure(), dt));
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
    // Zero-cost ORB so the timing assertion is exact-ish.
    let cfg = OrbConfig {
        cost: CostModel::free(),
        request_timeout: secs(30.0),
        ..OrbConfig::default()
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
        let mut r1 = DiiRequest::new(w1.ior.clone(), "work");
        r1.add_typed(&2.0f64);
        let mut r2 = DiiRequest::new(w2.ior.clone(), "work");
        r2.add_typed(&2.0f64);
        r1.send_deferred(&mut orb, ctx).unwrap();
        r2.send_deferred(&mut orb, ctx).unwrap();
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
    assert!(dt < 2.5, "deferred calls did not overlap: dt={dt}");
    assert!(dt >= 2.0, "dt={dt}");
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
        let mut r = DiiRequest::new(obj.ior.clone(), "work");
        r.add_typed(&1.0f64);
        r.send_deferred(&mut orb, ctx).unwrap();
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
fn ping_reports_liveness() {
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
            .push(format!("{:?}", obj.ping(&mut orb, ctx).unwrap()));
        // Live server, stale key.
        let mut stale = obj.clone();
        stale.ior.key = crate::ObjectKey(4242);
        o.lock()
            .unwrap()
            .push(format!("{:?}", stale.ping(&mut orb, ctx).unwrap()));
    });
    sim.run_until_exit(client);
    let log = out.lock().unwrap().clone();
    assert_eq!(log, vec!["Ok(true)", "Ok(false)"]);
}

#[test]
fn location_forward_is_followed() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(3);

    /// The real location: a calculator that keeps every body it is handed.
    struct RecordingCalc {
        bodies: Cell<Vec<Vec<u8>>>,
    }
    impl Servant for RecordingCalc {
        fn dispatch(
            &mut self,
            call: &mut CallCtx<'_>,
            op: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, Exception> {
            self.bodies.lock().unwrap().push(args.to_vec());
            Calc.dispatch(call, op, args)
        }
    }

    let real_ior = cell();
    let received = cell::<Vec<Vec<u8>>>();
    let real = RecordingCalc {
        bodies: received.clone(),
    };
    spawn_servant(
        &mut sim,
        hs[2],
        real_ior.clone(),
        OrbConfig::default(),
        real,
    );

    /// A forwarding agent: every operation forwards to the real location.
    struct Forwarder {
        to: Cell<Option<String>>,
    }
    impl Servant for Forwarder {
        fn dispatch(
            &mut self,
            _call: &mut CallCtx<'_>,
            _op: &str,
            _args: &[u8],
        ) -> Result<Vec<u8>, Exception> {
            let s = self.to.lock().unwrap().clone().expect("real server up");
            Err(forward_to(&Ior::destringify(&s).unwrap()))
        }
    }

    let fwd_ior = cell();
    let f = fwd_ior.clone();
    let r = real_ior.clone();
    sim.spawn(hs[1], "forwarder", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(CALC_TYPE, Rc::new(RefCell::new(Forwarder { to: r })));
        *f.lock().unwrap() = Some(orb.ior(CALC_TYPE, key).stringify());
        let _ = orb.serve_forever(ctx, &poa);
    });

    let out = cell::<Option<f64>>();
    let o = out.clone();
    let i = fwd_ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.05)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let v: f64 = obj
            .call(&mut orb, ctx, "add", &(4.0, 4.0))
            .unwrap()
            .unwrap();
        *o.lock().unwrap() = Some(v);
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock().unwrap(), Some(8.0));
    // The re-sent request carried the caller's body, whole and once.
    assert_eq!(*received.lock().unwrap(), vec![cdr::to_bytes(&(4.0, 4.0))]);
}

#[test]
fn nested_calls_from_servant() {
    // Servant B's operation calls servant A on another host mid-dispatch.
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(3);
    let calc_ior = cell();
    spawn_calc(&mut sim, hs[1], calc_ior.clone());

    struct Doubler {
        calc: Cell<Option<String>>,
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
            let calc = ObjectRef::new(Ior::destringify(&s).unwrap());
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
        *d.lock().unwrap() = Some(orb.ior("IDL:Test/Doubler:1.0", key).stringify());
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
    ior_out: Cell<Option<String>>,
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
        *ior_out.lock().unwrap() = Some(orb.ior(CALC_TYPE, key).stringify());
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
    let (tap, frames) = (cell::<Option<String>>(), cell::<Vec<Vec<u8>>>());
    let (publish, keep) = (tap.clone(), frames.clone());
    sim.spawn(hs[2], "tap", move |ctx| {
        let port = ctx.bind_port().unwrap();
        let me = Ior::new(CALC_TYPE, ctx.host(), port, ObjectKey(1));
        *publish.lock().unwrap() = Some(me.stringify());
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
        orb.invoke_oneway(ctx, &tap, "add", &(1.0, 2.0)).unwrap();
        po.end(ctx.now());
        // Requests 3 of the traced ORB, made under no span, and 1 of an
        // ORB whose handle has no sink, made inside a span it was asked
        // to open.
        orb.invoke_oneway(ctx, &tap, "add", &(1.0, 2.0)).unwrap();
        let no_sink = obs::ProcessObs::from_sink(None, ctx);
        let mut unobserved = Orb::init(ctx);
        unobserved.set_obs(no_sink.clone());
        no_sink.begin(ctx.now(), "unrecorded");
        unobserved
            .invoke_oneway(ctx, &tap, "add", &(1.0, 2.0))
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
        ..OrbConfig::default()
    };
    spawn_calc_cfg(&mut sim, hs[1], ior.clone(), cfg.clone());
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::new(ctx, cfg);
        let obj = resolve(&i);
        // Partition, call (times out), heal, call again (succeeds).
        ctx.set_partition(hs[0], hs[1], true).unwrap();
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        o.lock()
            .unwrap()
            .push(format!("partitioned:{}", r.unwrap_err().is_comm_failure()));
        ctx.set_partition(hs[0], hs[1], false).unwrap();
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
fn forward_loops_are_bounded() {
    // A forwarder that forwards to itself: the client must give up with
    // TRANSIENT after forward_limit hops, not loop forever.
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);

    struct SelfForwarder {
        me: Rc<RefCell<Option<Ior>>>,
        bodies: Cell<Vec<Vec<u8>>>,
    }
    impl Servant for SelfForwarder {
        fn dispatch(
            &mut self,
            _call: &mut CallCtx<'_>,
            _op: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, Exception> {
            self.bodies.lock().unwrap().push(args.to_vec());
            Err(forward_to(self.me.borrow().as_ref().expect("set at boot")))
        }
    }

    let ior = cell::<Option<String>>();
    let i = ior.clone();
    let received = cell::<Vec<Vec<u8>>>();
    let bodies = received.clone();
    sim.spawn(hs[1], "loop-forwarder", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let me: Rc<RefCell<Option<Ior>>> = Rc::new(RefCell::new(None));
        let key = poa.activate(
            CALC_TYPE,
            Rc::new(RefCell::new(SelfForwarder {
                me: me.clone(),
                bodies,
            })),
        );
        let self_ior = orb.ior(CALC_TYPE, key);
        *me.borrow_mut() = Some(self_ior.clone());
        *i.lock().unwrap() = Some(self_ior.stringify());
        let _ = orb.serve_forever(ctx, &poa);
    });

    let out = cell::<Option<String>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
        if let Err(Exception::System(s)) = r {
            *o.lock().unwrap() = Some(format!("{:?}:{}", s.kind, s.detail));
        }
    });
    sim.run_until_exit(client);
    let got = out.lock().unwrap().clone().unwrap();
    assert!(got.contains("Transient"), "{got}");
    assert!(got.contains("forward"), "{got}");
    // The first attempt and each of the `forward_limit` re-sends carried
    // the caller's body.
    let attempts = OrbConfig::default().forward_limit as usize + 1;
    assert_eq!(
        *received.lock().unwrap(),
        vec![cdr::to_bytes(&(1.0, 1.0)); attempts]
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
        cost: CostModel::free(),
        request_timeout: secs(60.0),
        ..OrbConfig::default()
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
    // First client done at ~1s; second waits for the first: ~2s.
    assert!((times[0] - 1.0).abs() < 0.05, "{times:?}");
    assert!((times[1] - 2.0).abs() < 0.05, "{times:?}");
}

#[test]
fn try_serve_supports_polling_servers() {
    // A server that interleaves serving with its own periodic work, using
    // the non-blocking try_serve.
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell::<Option<String>>();
    let ticks = cell::<u32>();
    let i = ior.clone();
    let t = ticks.clone();
    sim.spawn(hs[1], "polling-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(CALC_TYPE, Rc::new(RefCell::new(Calc)));
        *i.lock().unwrap() = Some(orb.ior(CALC_TYPE, key).stringify());
        loop {
            // Drain any inbound requests without blocking…
            while orb.try_serve(ctx, &poa).unwrap() {}
            // …then do "own work".
            *t.lock().unwrap() += 1;
            if ctx.sleep(secs(0.05)).is_err() {
                return;
            }
        }
    });
    let out = cell::<Option<f64>>();
    let o = out.clone();
    let i = ior.clone();
    let client = sim.spawn(hs[0], "client", move |ctx| {
        ctx.sleep(secs(0.2)).unwrap();
        let mut orb = Orb::init(ctx);
        let obj = resolve(&i);
        let v: f64 = obj
            .call(&mut orb, ctx, "add", &(1.0, 2.0))
            .unwrap()
            .unwrap();
        *o.lock().unwrap() = Some(v);
    });
    sim.run_until_exit(client);
    assert_eq!(out.lock().unwrap().unwrap(), 3.0);
    assert!(
        *ticks.lock().unwrap() >= 4,
        "server kept doing its own work"
    );
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
            ..OrbConfig::default()
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
            slow.unwrap_err().is_comm_failure(),
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

/// Send `frames` raw to the calc server, then ask it how many frames it
/// could not parse and for one sum.
fn send_raw_then_call(frames: impl FnOnce(&Ior) -> Vec<Vec<u8>> + Send + 'static) -> (u64, f64) {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    let ior = cell();
    spawn_calc(&mut sim, hs[1], ior.clone());
    let out = cell::<Option<(u64, f64)>>();
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
        *o.lock().unwrap() = Some((errors, sum));
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
    let seen = send_raw_then_call(|target| {
        let mut frame = add_request(target);
        frame[6] = 0; // GIOP's flag for big-endian
        vec![frame]
    });
    assert_eq!(seen, (1, 5.0));
}

#[test]
fn request_bodies_that_lie_about_their_length_are_dropped() {
    let seen = send_raw_then_call(|target| hostile_bodies(&add_request(target)));
    assert_eq!(seen, (3, 5.0));
}

#[test]
fn reply_bodies_that_lie_fail_the_call_not_the_client() {
    let mut sim = Kernel::with_seed(1);
    let hs = sim.add_hosts(2);
    // A server that answers every request with `4.0`, the first four
    // times in a frame that lies: three about the result's length, one
    // with a well-framed result that claims 2^32 − 1 doubles.
    let ior = cell::<Option<String>>();
    let publish = ior.clone();
    sim.spawn(hs[1], "liar", move |ctx| {
        let port = ctx.bind_port().unwrap();
        let me = Ior::new(CALC_TYPE, ctx.host(), port, ObjectKey(1));
        *publish.lock().unwrap() = Some(me.stringify());
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
            ..OrbConfig::default()
        };
        let mut orb = Orb::new(ctx, cfg);
        let obj = resolve(&ior);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let r: Result<f64, _> = obj.call(&mut orb, ctx, "add", &(1.0, 1.0)).unwrap();
            seen.push(format!("{:?}", r.map_err(|e| e.is_comm_failure())));
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
