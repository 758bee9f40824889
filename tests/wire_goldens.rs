//! One request body and one reply body per contract interface, pinned as
//! committed hex. The bytes were captured from the hand-written stubs and
//! dispatch tables this repository had before its servants and clients
//! moved onto `idlc` output, and re-captured once when CDR became
//! little-endian — each kept its length and decodes to the values it
//! decoded to before; the generated stubs and skeletons
//! below must keep producing and answering exactly them. Beside
//! `crates/orb/tests/wire_golden.rs` (one whole GIOP frame), this pins
//! what goes *inside* the frame for each of the interfaces.
//!
//! Every servant sits behind a [`Tap`] that records `(op, args, reply)`
//! of each dispatch, so both directions come from one real round trip
//! over the simulated network.

use std::cell::RefCell;
use std::rc::Rc;

use cdr::{Any, Epoch};
use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{
    per_value, Checkpoint, CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, FtRequest,
    ProxyEnv,
};
use orb::{CallCtx, Exception, Ior, ObjectRef, Orb, Poa, Servant, ServiceContext};
use simnet::{HostConfig, HostId, Kernel, Shared, SimDuration};

/// `(op, request body, reply body)` in dispatch order.
type Log = Shared<Vec<(String, Vec<u8>, Vec<u8>)>>;

/// Records every dispatch of the servant behind it.
struct Tap {
    inner: Rc<RefCell<dyn Servant>>,
    log: Log,
}

impl Servant for Tap {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        let reply = self.inner.borrow_mut().dispatch(call, op, args)?;
        self.log
            .lock()
            .push((op.to_string(), args.to_vec(), reply.clone()));
        Ok(reply)
    }
}

/// `(request contexts, reply contexts)` of each dispatch, as hex.
type ContextLog = Shared<Vec<(String, String)>>;

/// Records the service contexts in and out of the servant behind it.
struct ContextTap {
    inner: Rc<RefCell<dyn Servant>>,
    log: ContextLog,
}

fn contexts_hex(contexts: &[ServiceContext]) -> String {
    let each = contexts
        .iter()
        .map(|sc| format!("{:08x}:{}", sc.id, hex(&sc.data)));
    each.collect::<Vec<_>>().join(" ")
}

impl Servant for ContextTap {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        let reply = self.inner.borrow_mut().dispatch(call, op, args)?;
        let seen = (
            contexts_hex(call.contexts),
            contexts_hex(&call.reply_contexts),
        );
        self.log.lock().push(seen);
        Ok(reply)
    }
}

/// Activate `servant` behind a [`Tap`]; the handle reaches it afterwards.
fn tap<S: Servant + 'static>(
    poa: &Poa,
    orb: &Orb,
    log: &Log,
    type_id: &str,
    servant: S,
) -> (Ior, Rc<RefCell<S>>) {
    let inner = Rc::new(RefCell::new(servant));
    let tapped = Rc::new(RefCell::new(Tap {
        inner: inner.clone(),
        log: log.clone(),
    }));
    (orb.ior(type_id, poa.activate(type_id, tapped)), inner)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The last recorded dispatch of `op`, as `(request hex, reply hex)`.
fn last(log: &Log, op: &str) -> (String, String) {
    let log = log.lock();
    let (_, args, reply) = log
        .iter()
        .rev()
        .find(|(o, _, _)| o == op)
        .unwrap_or_else(|| panic!("no `{op}` dispatch recorded"));
    (hex(args), hex(reply))
}

fn assert_golden(log: &Log, op: &str, request: &str, reply: &str) {
    let (got_request, got_reply) = last(log, op);
    assert_eq!(got_request, request, "`{op}` request body moved");
    assert_eq!(got_reply, reply, "`{op}` reply body moved");
}

/// IORs of the tapped servants, published by the server process.
#[derive(Clone)]
struct Served {
    context: Ior,
    system_manager: Ior,
    checkpoint_service: Ior,
    factory: Ior,
    worker: Ior,
    ft_worker: Ior,
}

fn serve_all(
    ctx: &mut simnet::Ctx,
    log: Log,
    contexts: ContextLog,
    served: Shared<Option<Served>>,
) {
    let mut orb = Orb::init(ctx);
    orb.listen(ctx).unwrap();
    let poa = Poa::new();
    let all = Served {
        context: tap(
            &poa,
            &orb,
            &log,
            cosnaming::NAMING_CONTEXT_TYPE,
            cosnaming::NamingContextSkeleton(cosnaming::NamingContext::new(LbMode::Plain)),
        )
        .0,
        system_manager: tap(
            &poa,
            &orb,
            &log,
            winner::SYSTEM_MANAGER_TYPE,
            winner::SystemManagerSkeleton(winner::SystemManager::new(Box::new(
                winner::BestPerformance,
            ))),
        )
        .0,
        checkpoint_service: tap(
            &poa,
            &orb,
            &log,
            ftproxy::CHECKPOINT_SERVICE_TYPE,
            ftproxy::CheckpointServiceSkeleton(store::StoreReplica::alone()),
        )
        .0,
        factory: tap(
            &poa,
            &orb,
            &log,
            ftproxy::FACTORY_TYPE,
            ftproxy::ServiceFactorySkeleton(ftproxy::ServiceFactory::new(optim::worker_builder())),
        )
        .0,
        worker: tap(
            &poa,
            &orb,
            &log,
            optim::WORKER_TYPE,
            optim::WorkerSkeleton(optim::WorkerServant::new()),
        )
        .0,
        ft_worker: {
            let worker = Rc::new(RefCell::new(optim::WorkerSkeleton(
                optim::WorkerServant::new(),
            )));
            let tapped = ContextTap {
                inner: ftproxy::FtServant::wrap(worker),
                log: contexts,
            };
            let key = poa.activate(optim::WORKER_TYPE, Rc::new(RefCell::new(tapped)));
            orb.ior(optim::WORKER_TYPE, key)
        },
    };
    // Object keys count up per POA, and `create`'s golden carries the key
    // of the worker it creates mid-test. It was captured over eight
    // servants and after `list` had created an iterator; six servants are
    // left and nothing creates before it, so spend three keys.
    for _ in 0..3 {
        let spare = Rc::new(RefCell::new(cosnaming::NamingContextSkeleton(
            cosnaming::NamingContext::new(LbMode::Plain),
        )));
        poa.activate(cosnaming::NAMING_CONTEXT_TYPE, spare);
    }
    served.replace(Some(all));
    let _ = orb.serve_forever(ctx, &poa);
}

/// A store replica whose dispatches are tapped (what `run_store_replica`
/// does, plus the tap).
fn serve_tapped_replica(ctx: &mut simnet::Ctx, naming_host: HostId, log: Log) {
    let mut orb = Orb::init(ctx);
    orb.listen(ctx).unwrap();
    let poa = Poa::new();
    let (ior, replica) = tap(
        &poa,
        &orb,
        &log,
        ftproxy::CHECKPOINT_SERVICE_TYPE,
        store::ReplicationSkeleton(store::StoreReplica::new(naming_host)),
    );
    replica.borrow_mut().0.self_ior = Some(ior.clone());
    NamingClient::root(naming_host)
        .bind_group_member_retry(
            &mut orb,
            ctx,
            &Name::simple(ftproxy::CHECKPOINT_SERVICE_NAME),
            &ior,
        )
        .unwrap()
        .unwrap();
    let _ = orb.serve_forever(ctx, &poa);
}

fn header_any(epoch: u64) -> Any {
    per_value::Header {
        len: 8,
        epoch: Epoch(epoch),
        chunk: 4,
    }
    .to_any()
}

#[test]
fn request_and_reply_bodies_match_the_committed_bytes() {
    let mut sim = Kernel::with_seed(5);
    let h0 = sim.add_host(HostConfig::new("h0"));
    let log: Log = Shared::new(Vec::new());
    let served: Shared<Option<Served>> = Shared::new(None);

    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    let contexts: ContextLog = Shared::new(Vec::new());
    let (l, c, s) = (log.clone(), contexts.clone(), served.clone());
    sim.spawn(h0, "servants", move |ctx| serve_all(ctx, l, c, s));
    // Two replicas in the store group: whichever coordinates a write fans
    // it out to the other as a `repl_*` request.
    for i in 0..2 {
        let l = log.clone();
        sim.spawn(h0, format!("replica-{i}"), move |ctx| {
            serve_tapped_replica(ctx, h0, l)
        });
    }

    let client_log = log.clone();
    let client = sim.spawn(h0, "client", move |ctx| {
        let log = client_log;
        ctx.sleep(SimDuration::from_millis(500)).unwrap();
        let mut orb = Orb::init(ctx);
        let s = served.lock().clone().expect("servants are up");
        let obj = |ior: &Ior| ObjectRef::new(ior.clone());
        let some_ior = Ior::new("IDL:Some/Thing:1.0", h0, simnet::Port(7), orb::ObjectKey(9));

        // -- CosNaming::NamingContext: `resolve` ------------------------
        let ns = NamingClient::new(obj(&s.context));
        let name = Name::simple("a");
        ns.bind(&mut orb, ctx, &name, &some_ior).unwrap().unwrap();
        let got = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
        assert_eq!(got.ior, some_ior);
        assert_golden(
            &log,
            "resolve",
            "0100000002000000610000000100000000",
            "\
             1300000049444c3a536f6d652f5468696e673a312e30000000000000\
             070000000900000000000000",
        );

        // -- Winner::SystemManager: `select` with no host known ---------
        let sm = winner::SystemManagerClient::new(obj(&s.system_manager));
        assert_eq!(sm.select(&mut orb, ctx, &[3, 4]).unwrap().unwrap(), None);
        assert_golden(
            &log,
            "select",
            "020000000300000004000000",
            "0000000000000000",
        );
        // The deferred paths put the same bytes on the wire: a DII request,
        // and a fault-tolerant one, whose kept body every (re)send writes.
        log.lock().clear();
        let hosts = (vec![3u32, 4],);
        let mut dii =
            orb::DiiRequest::send_deferred(&mut orb, ctx, &s.system_manager, "select", &hosts, &[])
                .unwrap();
        dii.get_response(&mut orb, ctx).unwrap().unwrap();
        assert_golden(
            &log,
            "select",
            "020000000300000004000000",
            "0000000000000000",
        );
        log.lock().clear();
        let group = Name::simple("Selectors");
        NamingClient::root(h0)
            .bind_group_member(&mut orb, ctx, &group, &s.system_manager)
            .unwrap()
            .unwrap();
        let mut cfg = FtProxyConfig::new(group, "SystemManager", "selector");
        cfg.mode = CheckpointMode::None;
        let ckpt = CheckpointClient::new(obj(&s.checkpoint_service));
        let mut proxy = FtProxy::new(cfg, NamingClient::root(h0), ckpt);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let mut ft = FtRequest::send_deferred(&mut proxy, &mut env, "select", &hosts).unwrap();
        ft.get_response(&mut proxy, &mut env).unwrap().unwrap();
        assert_golden(
            &log,
            "select",
            "020000000300000004000000",
            "0000000000000000",
        );

        // -- FT::CheckpointService: `retrieve` of an unknown object -----
        let ckpt = CheckpointClient::new(obj(&s.checkpoint_service));
        assert_eq!(
            ckpt.retrieve(&mut orb, ctx, "nobody").unwrap().unwrap(),
            None
        );
        assert_golden(
            &log,
            "retrieve",
            "070000006e6f626f647900",
            "\
             00000000070000006e6f626f6479000000000000000000000000000000000000\
             0000000000000000",
        );

        // -- FT::ServiceFactory: `create` -------------------------------
        let factory = ftproxy::FactoryClient::new(obj(&s.factory));
        let made = factory
            .create(&mut orb, ctx, optim::WORKER_SERVICE_TYPE)
            .unwrap()
            .unwrap();
        assert!(made.is_some());
        assert_golden(
            &log,
            "create",
            "0c0000004f7074696d576f726b657200",
            "\
             010000001500000049444c3a4f7074696d2f576f726b65723a312e3000000000\
             00000000000400000a00000000000000",
        );

        // -- Optim::Worker: `solve` -------------------------------------
        let worker = optim::WorkerStub::new(obj(&s.worker));
        let spec = optim::SolveSpec {
            problem_id: 1,
            dim: 2,
            left: Some(0.5),
            right: None,
            iters: 3,
            seed: 11,
            reset: true,
        };
        worker.solve(&mut orb, ctx, &spec).unwrap().unwrap();
        assert_golden(
            &log,
            "solve",
            "\
             01000000020000000100000000000000000000000000e03f0000000000000000\
             03000000000000000b0000000000000001",
            "\
             bc816d8e973e25400200000000000000c06bbdedc97b85bf0228dcd90f7dc4bf\
             03000000000000000900000000000000",
        );

        // -- The FT protocol's two service contexts ---------------------
        // A fresh proxy finds epoch 1 stored, so its first request carries
        // that state to restore (`restore_checkpoint`'s argument body), and
        // asks for the state after the call, which the reply carries back
        // (`get_checkpoint`'s result body). The call's own bodies are the
        // plain `solve`'s.
        let ckpt = CheckpointClient::new(obj(&s.checkpoint_service));
        let stored = Checkpoint {
            object_id: "ft-worker".into(),
            epoch: Epoch(1),
            state: cdr::to_bytes(&(7u32, 0u32)), // seven solves, no population
            stamp_ns: 0,
        };
        ckpt.store(&mut orb, ctx, &stored).unwrap().unwrap();
        let group = Name::simple("FtWorkers");
        NamingClient::root(h0)
            .bind_group_member(&mut orb, ctx, &group, &s.ft_worker)
            .unwrap()
            .unwrap();
        let mut cfg = FtProxyConfig::new(group, optim::WORKER_SERVICE_TYPE, "ft-worker");
        cfg.mode = CheckpointMode::Bulk;
        let mut proxy = FtProxy::new(cfg, NamingClient::root(h0), ckpt);
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        let spec = optim::SolveSpec {
            problem_id: 1,
            dim: 1,
            left: None,
            right: None,
            iters: 1,
            seed: 11,
            reset: true,
        };
        let _: optim::SolveResult = proxy
            .call(&mut env, optim::WorkerStub::OP_SOLVE, &spec)
            .unwrap()
            .unwrap();
        assert_eq!((proxy.stats.restores, proxy.stats.checkpoints), (1, 1));
        let (request, reply) = contexts.lock().last().cloned().expect("a dispatch");
        assert_eq!(
            request, "4c444652:080000000700000000000000 4c444643:",
            "the FT request contexts moved"
        );
        // The state after the call: `solve_count` 8, the restored seven
        // plus this solve, and the population it left.
        assert_eq!(
            reply,
            "4c444643:\
             4800000008000000010000000100000002000000d2217ed65b0ff13f3cb47bce\
             c811f13f02000000000000000000000000000000000000000000000001000000\
             000000000b00000000000000",
            "the FT reply context moved"
        );

        // -- Store::Replication: the coordinator's fan-out --------------
        // The client's `store` / `store_value` reach one replica, which
        // re-sends the request body, view-stamped, to its peer.
        let store = loop {
            let found = NamingClient::root(h0)
                .group_members(
                    &mut orb,
                    ctx,
                    &Name::simple(ftproxy::CHECKPOINT_SERVICE_NAME),
                )
                .unwrap();
            match found {
                Ok(members) if members.len() == 2 => {
                    break CheckpointClient::new(ObjectRef::new(members[0].clone()))
                }
                _ => ctx.sleep(SimDuration::from_millis(50)).unwrap(),
            }
        };
        store
            .store(
                &mut orb,
                ctx,
                &Checkpoint {
                    object_id: "acct".into(),
                    epoch: Epoch(2),
                    state: vec![1, 2, 3, 4, 5],
                    stamp_ns: 77,
                },
            )
            .unwrap()
            .unwrap();
        assert_golden(
            &log,
            "repl_store",
            "\
             0200000000000000300000000500000061636374000000000000000002000000\
             00000000050000000102030405000000000000004d00000000000000",
            "",
        );
        store
            .store_value(&mut orb, ctx, "acct", per_value::HEADER_KEY, &header_any(2))
            .unwrap()
            .unwrap();
        assert_golden(
            &log,
            "repl_store_value",
            "\
             0200000000000000780000000500000061636374000000000700000068656164\
             657200000d0000000b000000436b707448656164657200000300000004000000\
             6c656e00080000000600000065706f636800000008000000060000006368756e\
             6b00000008000000000000000800000000000000020000000000000004000000\
             00000000",
            "",
        );
        // Captured while an octet sequence in an `any` was still one
        // `Value::Octet` per byte.
        store
            .store_value(
                &mut orb,
                ctx,
                "acct",
                &per_value::chunk_key(0),
                &per_value::chunk(Epoch(2), &[1, 2, 3, 4, 5]),
            )
            .unwrap()
            .unwrap();
        assert_golden(
            &log,
            "repl_store_value",
            "\
             0200000000000000610000000500000061636374000000000300000077300000\
             0d0000000a000000436b70744368756e6b000000020000000600000065706f63\
             68000000080000000500000064617461000000000c0000000200000002000000\
             00000000050000000102030405",
            "",
        );
    });
    sim.run_until_exit(client);
}
