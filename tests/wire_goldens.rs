//! One request body and one reply body per contract interface, pinned as
//! committed hex. The bytes were captured from the hand-written stubs and
//! dispatch tables this repository had before its servants and clients
//! moved onto `idlc` output, and re-captured once when CDR became
//! little-endian — each kept its length and decodes to the values it
//! decoded to before; the generated stubs and skeletons
//! below must keep producing and answering exactly them. Beside
//! `crates/orb/tests/wire_golden.rs` (one whole GIOP frame), this pins
//! what goes *inside* the frame for each of the eight interfaces.
//!
//! Every servant sits behind a [`Tap`] that records `(op, args, reply)`
//! of each dispatch, so both directions come from one real round trip
//! over the simulated network.

use std::cell::RefCell;
use std::rc::Rc;

use cdr::{Any, Epoch};
use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{per_value, Checkpoint, CheckpointClient};
use orb::{CallCtx, Exception, Ior, ObjectRef, Orb, Poa, Servant};
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
    iterator: Ior,
    trader: Ior,
    system_manager: Ior,
    checkpoint_service: Ior,
    factory: Ior,
    worker: Ior,
}

fn serve_all(ctx: &mut simnet::Ctx, log: Log, served: Shared<Option<Served>>) {
    let mut orb = Orb::init(ctx);
    orb.listen(ctx).unwrap();
    let poa = Poa::new();
    let binding = |id: &str| cosnaming::Binding {
        name: Name::simple(id),
        binding_type: cosnaming::BindingType::nobject,
    };
    let all = Served {
        context: tap(
            &poa,
            &orb,
            &log,
            cosnaming::NAMING_CONTEXT_TYPE,
            cosnaming::NamingContextSkeleton(cosnaming::NamingContext::root(
                cosnaming::NamingTree::new(),
                LbMode::Plain,
            )),
        )
        .0,
        iterator: tap(
            &poa,
            &orb,
            &log,
            "IDL:CosNaming/BindingIterator:1.0",
            cosnaming::BindingIteratorSkeleton(cosnaming::iterator::BindingIterator::new(vec![
                binding("left-over"),
            ])),
        )
        .0,
        trader: tap(
            &poa,
            &orb,
            &log,
            cosnaming::TRADER_TYPE,
            cosnaming::LookupSkeleton(cosnaming::Trader::new()),
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
            ftproxy::CheckpointServiceSkeleton(store::StoreReplica::alone(
                store::StoreConfig::default(),
            )),
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
    };
    // Object keys count up per POA, and two goldens carry the key of an
    // object created mid-test (`list`'s iterator, `create`'s worker). They
    // were captured over eight servants; seven are left, so spend one key.
    let spare = Rc::new(RefCell::new(cosnaming::LookupSkeleton(
        cosnaming::Trader::new(),
    )));
    poa.deactivate(poa.activate(cosnaming::TRADER_TYPE, spare));
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
        store::ReplicationSkeleton(store::StoreReplica::new(
            store::StoreConfig::default(),
            naming_host,
        )),
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
    let (l, s) = (log.clone(), served.clone());
    sim.spawn(h0, "servants", move |ctx| serve_all(ctx, l, s));
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

        // -- CosNaming::NamingContext: `list` ---------------------------
        let ns = NamingClient::new(obj(&s.context));
        for id in ["a", "b", "c"] {
            ns.bind(&mut orb, ctx, &Name::simple(id), &some_ior)
                .unwrap()
                .unwrap();
        }
        let (page, rest) = ns.list(&mut orb, ctx, 2).unwrap().unwrap();
        assert_eq!(page.len(), 2);
        assert!(rest.is_some(), "the third binding goes to an iterator");
        assert_golden(
            &log,
            "list",
            "02000000",
            "\
             0200000001000000020000006100000001000000000000000000000001000000\
             0200000062000000010000000000000000000000010000002200000049444c3a\
             436f734e616d696e672f42696e64696e674974657261746f723a312e30000000\
             00000000000400000900000000000000",
        );

        // -- CosNaming::BindingIterator: `next_one` ---------------------
        let it = cosnaming::BindingIteratorClient::new(obj(&s.iterator));
        assert!(it.next_one(&mut orb, ctx).unwrap().unwrap().is_some());
        assert_golden(
            &log,
            "next_one",
            "",
            "\
             01000000010000000a0000006c6566742d6f7665720000000100000000000000\
             00000000",
        );

        // -- CosTrading::Lookup: `query` --------------------------------
        let trader = cosnaming::LookupStub::new(obj(&s.trader));
        trader
            .export(&mut orb, ctx, "Printer", &some_ior)
            .unwrap()
            .unwrap();
        assert_eq!(
            trader.query(&mut orb, ctx, "Printer").unwrap().unwrap(),
            vec![some_ior.clone()]
        );
        assert_golden(
            &log,
            "query",
            "080000005072696e74657200",
            "\
             010000001300000049444c3a536f6d652f5468696e673a312e30000000000000\
             07000000000000000900000000000000",
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
