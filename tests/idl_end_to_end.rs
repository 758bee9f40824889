//! End-to-end test of the IDL tool chain. Every checked-in generated file
//! — `crates/*/src/generated.rs`, each produced by `idlc` from the
//! contract its crate owns — must stay in sync with the compiler's current
//! output; every generated skeleton must answer hostile bytes with a
//! system exception; and the generated code of the product contracts must
//! actually work — skeleton, stub, user exceptions and fault-tolerant
//! proxy — against the live ORB on the simulated network.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use cosnaming::{AlreadyBound, EmptyGroup, InvalidName, LbMode, Name, NamingClient, NotFound};
use ftproxy::{CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, ProxyEnv};
use optim::{ComplexState, SolveSpec, WorkerFtProxy, WorkerServant, WorkerSkeleton, WorkerStub};
use orb::{Orb, Poa};
use simnet::{HostConfig, HostId, Kernel, SimDuration};

/// A worker's checkpoint: its solve count, then its cached populations.
type WorkerState = (u32, Vec<(u32, ComplexState)>);

fn worker_state(bytes: &[u8]) -> (u32, usize) {
    let (solves, populations): WorkerState = cdr::from_bytes(bytes).expect("a worker state");
    (solves, populations.len())
}

/// A small subproblem; `reset: false` warm-starts from the cached
/// population.
fn spec(reset: bool) -> SolveSpec {
    SolveSpec {
        problem_id: 1,
        dim: 2,
        left: None,
        right: None,
        iters: 20,
        seed: 11,
        reset,
    }
}

/// A worker behind its generated skeleton, as an ORB servant.
fn worker_servant() -> Rc<RefCell<WorkerSkeleton<WorkerServant>>> {
    Rc::new(RefCell::new(WorkerSkeleton(WorkerServant::new())))
}

/// One line of `idl/generated.txt`: a checked-in file and the `idlc`
/// arguments that produce it.
struct Generated {
    out: String,
    args: String,
    ft_proxies: bool,
    /// Imports first; the first `imports` of them are not emitted.
    files: Vec<String>,
    imports: usize,
}

fn generated() -> Vec<Generated> {
    let manifest = repo_file("idl/generated.txt");
    let rows = manifest
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    rows.map(|row| {
        let (out, args) = row.split_once(' ').expect("output, then arguments");
        let mut g = Generated {
            out: out.to_string(),
            args: args.trim().to_string(),
            ft_proxies: true,
            files: Vec::new(),
            imports: 0,
        };
        for arg in args.split_whitespace() {
            match arg {
                "--no-ft-proxies" => g.ft_proxies = false,
                "--" => g.imports = g.files.len(),
                path => g.files.push(path.to_string()),
            }
        }
        g
    })
    .collect()
}

fn repo_file(path: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn generated_files_are_in_sync_with_idlc() {
    let all = generated();
    assert_eq!(all.len(), 5, "one per contract-owning crate");
    for g in all {
        let files: Vec<(String, String)> = g
            .files
            .iter()
            .map(|path| (path.clone(), repo_file(path)))
            .collect();
        let out = &g.out;
        let current = idlc::compile_files(&files, g.imports, g.ft_proxies)
            .unwrap_or_else(|e| panic!("{out}: {e}"));
        assert!(
            current == repo_file(out),
            "{out} is stale — regenerate with `cargo run -p idlc -- {} -o {out}`",
            g.args
        );
    }
}

/// One servant of every contract interface behind its generated skeleton.
fn skeletons() -> Vec<(&'static str, Box<dyn orb::Servant>)> {
    vec![
        (
            "NamingContext",
            Box::new(cosnaming::NamingContextSkeleton(
                cosnaming::NamingContext::new(LbMode::Plain),
            )),
        ),
        (
            "SystemManager",
            Box::new(winner::SystemManagerSkeleton(winner::SystemManager::new(
                Box::new(winner::BestPerformance),
            ))),
        ),
        (
            "CheckpointService",
            Box::new(ftproxy::CheckpointServiceSkeleton(
                store::StoreReplica::alone(),
            )),
        ),
        (
            "ServiceFactory",
            Box::new(ftproxy::ServiceFactorySkeleton(
                ftproxy::ServiceFactory::new(Box::new(|_, _| None)),
            )),
        ),
        (
            "Replication",
            Box::new(store::ReplicationSkeleton(store::StoreReplica::new(
                HostId(0),
            ))),
        ),
        ("Worker", Box::new(WorkerSkeleton(WorkerServant::new()))),
    ]
}

#[test]
fn skeletons_answer_hostile_bytes_with_system_exceptions() {
    // The wire names of every interface, inherited ones included, straight
    // from the contracts: (interface, op, has in-parameters).
    let paths: std::collections::BTreeSet<String> =
        generated().into_iter().flat_map(|g| g.files).collect();
    let sources: Vec<String> = paths.iter().map(|p| repo_file(p)).collect();
    let unit = idlc::parse_unit(sources.iter().map(String::as_str)).expect("contracts parse");
    let model = idlc::check(&unit).expect("contracts check");
    let mut ops: Vec<(String, String, bool)> = Vec::new();
    let mut declared = 0; // each op once, at the interface declaring it
    for item in &model.items {
        if let idlc::Item::Interface { def, all_ops, .. } = item {
            declared += def.ops.len();
            for op in all_ops {
                let ins = op.params.iter().any(|p| p.dir == idlc::ast::Direction::In);
                ops.push((def.name.clone(), op.name.clone(), ins));
            }
        }
    }
    assert!(
        ops.len() >= declared + 4,
        "every contract op, Replication's inherited ones too"
    );

    let verdicts = Arc::new(Mutex::new(Vec::<String>::new()));
    let out = verdicts.clone();
    let mut sim = Kernel::with_seed(1);
    let h0 = sim.add_host(HostConfig::new("h0"));
    let probe = sim.spawn(h0, "probe", move |ctx| {
        let mut orb = Orb::init(ctx);
        let poa = Poa::new();
        let from = ctx.pid();
        let mut table = skeletons();
        let mut said = out.lock().unwrap();
        let interfaces: std::collections::BTreeSet<&str> =
            ops.iter().map(|(i, _, _)| i.as_str()).collect();
        for iface in interfaces {
            if !table.iter().any(|(name, _)| *name == iface) {
                said.push(format!("{iface}: no skeleton in the table"));
            }
        }
        for (iface, servant) in &mut table {
            let mut dispatch = |op: &str, args: &[u8]| {
                let mut call = orb::CallCtx {
                    ctx: &mut *ctx,
                    orb: &mut orb,
                    poa: &poa,
                    from,
                    key: orb::ObjectKey(1),
                    args,
                    contexts: &[],
                    reply_contexts: Vec::new(),
                };
                match servant.dispatch(&mut call, op, args) {
                    Err(orb::Exception::System(e)) => Ok(e.kind),
                    other => Err(format!("{other:?}")),
                }
            };
            if dispatch("no_such_operation", &[]) != Ok(orb::SysKind::BadOperation) {
                said.push(format!("{iface}: unknown op not BAD_OPERATION"));
            }
            for (_, op, has_ins) in ops.iter().filter(|(i, _, _)| i == iface) {
                // Truncated where parameters are expected; trailing
                // garbage where none are.
                let bodies: &[&[u8]] = if *has_ins { &[&[], &[1]] } else { &[&[0xFF]] };
                for body in bodies {
                    let got = dispatch(op, body);
                    if got != Ok(orb::SysKind::Marshal) {
                        said.push(format!("{iface}::{op} on {body:?}: {got:?}, not MARSHAL"));
                    }
                }
            }
        }

        // The octets of a checkpoint chunk inside an `any`, as `store_value`
        // and `repl_store_value` carry them: a count of 2^32 - 1, and a
        // request cut inside the octets, are MARSHAL; the well-formed
        // request after them is served and read back.
        let chunk = ftproxy::per_value::chunk(cdr::Epoch(3), &[7; 64]);
        let w0 = ftproxy::per_value::chunk_key(0);
        let good = cdr::to_bytes(&("acct", w0.as_str(), &chunk));
        let count_at = good.len() - 64 - 4;
        let mut bomb = good.clone();
        bomb[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let cut = good[..good.len() - 9].to_vec();
        let repl = |body: &Vec<u8>| cdr::to_bytes(&(0u64, body));
        let requests = [
            ("CheckpointService", "store_value", bomb.clone()),
            ("CheckpointService", "store_value", cut.clone()),
            ("Replication", "store_value", bomb.clone()),
            ("Replication", "store_value", cut.clone()),
            ("Replication", "repl_store_value", repl(&bomb)),
            ("Replication", "repl_store_value", repl(&cut)),
        ];
        let mut call = |iface: &str, op: &str, args: &[u8]| {
            let servant = &mut table.iter_mut().find(|(name, _)| *name == iface).unwrap().1;
            let mut call = orb::CallCtx {
                ctx: &mut *ctx,
                orb: &mut orb,
                poa: &poa,
                from,
                key: orb::ObjectKey(1),
                args,
                contexts: &[],
                reply_contexts: Vec::new(),
            };
            servant.dispatch(&mut call, op, args)
        };
        for (iface, op, body) in &requests {
            match call(iface, op, body) {
                Err(orb::Exception::System(e)) if e.kind == orb::SysKind::Marshal => {}
                other => said.push(format!("{iface}::{op} on hostile octets: {other:?}")),
            }
        }
        let read_back = cdr::to_bytes(&("acct", w0.as_str()));
        for (iface, op, body) in [
            ("CheckpointService", "store_value", good.clone()),
            ("Replication", "repl_store_value", repl(&good)),
        ] {
            let stored = call(iface, op, &body)
                .and_then(|_| call(iface, "retrieve_value", &read_back))
                .map(|reply| cdr::from_bytes::<(bool, cdr::Any)>(&reply));
            if stored != Ok(Ok((true, chunk.clone()))) {
                said.push(format!("{iface}::{op} after hostile octets: {stored:?}"));
            }
        }
    });
    sim.run_until_exit(probe);
    let verdicts = verdicts.lock().unwrap();
    assert!(verdicts.is_empty(), "{}", verdicts.join("\n"));
}

/// `frame` with its body octets lying about their length: a count of
/// 2^32 − 1, a count one past the rest of the frame, and the frame cut
/// inside the body.
fn hostile_bodies(frame: &[u8]) -> Vec<Vec<u8>> {
    let (_, body) = orb::Message::parse(frame).expect("a well-formed frame");
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

/// `restore_checkpoint`'s state claiming 2^32 − 1 octets (4 GiB): framed
/// honestly, so only the skeleton or the stub can refuse it — and must,
/// before allocating anything of that size.
fn restore_bomb() -> Vec<u8> {
    let mut args = cdr::to_bytes(&(vec![1u8, 2],));
    args[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    args
}

#[test]
fn frames_whose_bodies_lie_fail_one_call_at_either_end() {
    use orb::{Message, ReplyBody};
    use simnet::Addr;

    let mut sim = Kernel::with_seed(33);
    let hosts: Vec<_> = (0..2)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let iors: Arc<Mutex<Vec<orb::Ior>>> = Arc::new(Mutex::new(Vec::new()));
    // A live worker behind its generated skeleton.
    let publish = iors.clone();
    sim.spawn(hosts[1], "worker-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(WorkerStub::REPO_ID, worker_servant());
        publish
            .lock()
            .unwrap()
            .push(orb.ior(WorkerStub::REPO_ID, key));
        let _ = orb.serve_forever(ctx, &poa);
    });
    // A worker whose first four replies lie: three about the result's
    // length, one with a well-framed state claiming 2^32 − 1 octets.
    let publish = iors.clone();
    sim.spawn(hosts[1], "liar", move |ctx| {
        let port = ctx.bind_port().unwrap();
        let me = orb::Ior::new(WorkerStub::REPO_ID, ctx.host(), port, orb::ObjectKey(1));
        publish.lock().unwrap().push(me);
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
            let honest = result(cdr::to_bytes(&vec![10u8, 20]));
            let mut lies = hostile_bodies(&honest);
            let mut bomb = u32::MAX.to_le_bytes().to_vec();
            bomb.extend_from_slice(&[0; 12]);
            lies.push(result(bomb));
            let frame = lies.get(answer).cloned().unwrap_or(honest);
            ctx.send(Addr::Pid(msg.from), frame).unwrap();
        }
    });

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(hosts[0], "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(10)).unwrap();
        let (worker, liar) = match &iors.lock().unwrap()[..] {
            [worker, liar] => (worker.clone(), liar.clone()),
            other => panic!("servers not up: {other:?}"),
        };
        let say = |s: String| o.lock().unwrap().push(s);
        // The live server: three lying request frames are dropped, a bomb
        // inside an honest frame is MARSHAL, and a stub call is served.
        let at = Addr::Endpoint(worker.host, worker.port);
        let honest = Message::encode_request(
            7,
            true,
            worker.key,
            WorkerStub::OP_RESTORE_CHECKPOINT,
            &restore_bomb(),
            &[],
        );
        for frame in hostile_bodies(&honest) {
            ctx.send(at, frame).unwrap();
        }
        ctx.send(at, honest).unwrap();
        let answer = ctx.recv().unwrap();
        say(match answer.data().map(Message::decode) {
            Some(Ok(Message::Reply {
                request_id: 7,
                status: ReplyBody::SystemException(e),
                ..
            })) => format!("{:?}", e.kind),
            other => format!("{other:?}"),
        });
        let mut orb = Orb::init(ctx);
        let stub = WorkerStub::new(orb::ObjectRef::new(worker));
        let state = stub.get_checkpoint(&mut orb, ctx).unwrap();
        say(format!("{:?}", state.map(|s| worker_state(&s))));
        // The live client: each lying reply fails its call with a system
        // exception, and the next call is served.
        let mut stub = WorkerStub::new(orb::ObjectRef::new(liar));
        stub.deadline = Some(SimDuration::from_millis(100));
        for _ in 0..5 {
            say(match stub.get_checkpoint(&mut orb, ctx).unwrap() {
                Err(orb::Exception::System(e)) => format!("{:?}", e.kind),
                other => format!("{other:?}"),
            });
        }
        say(format!("protocol_errors:{}", orb.stats().protocol_errors));
    });
    sim.run_until_exit(client);
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "Marshal",
            "Ok((0, 0))",
            "CommFailure",
            "CommFailure",
            "CommFailure",
            "Marshal",
            "Ok([10, 20])",
            "protocol_errors:3",
        ]
    );
}

/// The FT protocol's two service contexts, lying: a frame cut inside a
/// context and a context claiming 2^32 − 1 bytes are dropped; a duplicated
/// context is `BAD_PARAM`; a restore whose state does not decode, or
/// whose octets claim 2^32 − 1 bytes, is `MARSHAL`, and the call is not
/// run. None panics the server or allocates what the count claims, and
/// the well-formed request after them is served, restored and
/// checkpointed.
#[test]
fn ft_contexts_answer_hostile_bytes_with_system_exceptions() {
    use ftproxy::{FtServant, CHECKPOINT_CONTEXT_ID, RESTORE_CONTEXT_ID};
    use orb::{Message, ReplyBody, ServiceContext};
    use simnet::Addr;

    let mut sim = Kernel::with_seed(34);
    let hosts: Vec<_> = (0..2)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let published: Arc<Mutex<Option<orb::Ior>>> = Arc::new(Mutex::new(None));
    let publish = published.clone();
    sim.spawn(hosts[1], "worker-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(WorkerStub::REPO_ID, FtServant::wrap(worker_servant()));
        *publish.lock().unwrap() = Some(orb.ior(WorkerStub::REPO_ID, key));
        let _ = orb.serve_forever(ctx, &poa);
    });

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(hosts[0], "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(10)).unwrap();
        let worker = published.lock().unwrap().clone().expect("server up");
        let at = Addr::Endpoint(worker.host, worker.port);
        let restore = |data: Vec<u8>| ServiceContext {
            id: RESTORE_CONTEXT_ID,
            data,
        };
        let checkpoint = ServiceContext {
            id: CHECKPOINT_CONTEXT_ID,
            data: Vec::new(),
        };
        // Three solves done, no population cached.
        let state = cdr::to_bytes(&(3u32, Vec::<(u32, ComplexState)>::new()));
        let good = restore(cdr::to_bytes(&(&state,)));
        let solve = |id: u64, contexts: &[ServiceContext]| {
            let args = cdr::to_bytes(&spec(true));
            Message::encode_request(id, true, worker.key, WorkerStub::OP_SOLVE, &args, contexts)
        };
        // The restore context last: its data ends the frame, its count
        // the four bytes before.
        let honest = solve(1, std::slice::from_ref(&good));
        let count_at = honest.len() - good.data.len() - 4;
        let mut bomb = honest.clone();
        bomb[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let cut = honest[..honest.len() - 3].to_vec();
        let mut inner_bomb = cdr::to_bytes(&(&state,));
        inner_bomb[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let frames = [
            cut,
            bomb,
            solve(2, &[good.clone(), good.clone()]),
            solve(3, &[checkpoint.clone(), checkpoint.clone()]),
            solve(4, &[restore(vec![0xff])]),
            solve(5, &[restore(inner_bomb)]),
            solve(6, &[restore(cdr::to_bytes(&(vec![1u8, 2],)))]),
            solve(7, &[good, checkpoint]),
        ];
        for frame in frames {
            ctx.send(at, frame).unwrap();
        }
        // Frames of different sizes may arrive out of send order: take
        // the six answers, then sort them by request id.
        let mut said = o.lock().unwrap();
        while said.len() < 6 {
            let answer = ctx.recv().unwrap();
            let Some(Ok(Message::Reply {
                request_id,
                status,
                service_contexts,
            })) = answer.data().map(Message::decode)
            else {
                said.push(format!("not a reply: {answer:?}"));
                break;
            };
            said.push(match status {
                ReplyBody::SystemException(e) => format!("{request_id}:{:?}", e.kind),
                ReplyBody::NoException(body) => {
                    let result: optim::SolveResult = cdr::from_bytes(&body).unwrap();
                    let saved: Vec<u8> = service_contexts
                        .iter()
                        .find(|sc| sc.id == CHECKPOINT_CONTEXT_ID)
                        .map(|sc| cdr::from_bytes(&sc.data).unwrap())
                        .unwrap_or_default();
                    let (solves, populations) = worker_state(&saved);
                    format!(
                        "{request_id}:{}:{solves}:{populations}",
                        result.best_point.len()
                    )
                }
                other => format!("{request_id}:{other:?}"),
            });
        }
        said.sort();
    });
    sim.run_until_exit(client);
    // The restored three solves plus this one, and no solve of a refused
    // request among them.
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "2:BadParam",
            "3:BadParam",
            "4:Marshal",
            "5:Marshal",
            "6:Marshal",
            "7:2:4:1"
        ]
    );
}

#[test]
fn generated_stub_and_skeleton_work_over_the_orb() {
    let mut sim = Kernel::with_seed(31);
    let hosts: Vec<_> = (0..2)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    sim.spawn(hosts[1], "worker-server", move |ctx| {
        let _ = optim::run_worker_server_obs(ctx, h0, None);
    });
    let manager: Arc<Mutex<Option<orb::Ior>>> = Arc::new(Mutex::new(None));
    let publish = manager.clone();
    sim.spawn(h0, "system-manager", move |ctx| {
        let policy = Box::new(winner::BestPerformance);
        let _ = winner::run_system_manager_obs(ctx, policy, None, |ior| {
            *publish.lock().unwrap() = Some(ior)
        });
    });

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(h0, "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(500)).unwrap();
        let say = |s: String| o.lock().unwrap().push(s);
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let workers = optim::worker_group();
        let obj = ns.resolve(&mut orb, ctx, &workers).unwrap().unwrap();
        let worker = WorkerStub::new(obj);

        // Structs in and out.
        let solved = worker.solve(&mut orb, ctx, &spec(true)).unwrap().unwrap();
        say(format!(
            "solve:{}:{}",
            solved.iterations,
            solved.best_point.len()
        ));
        // A sequence out, and in.
        let state = worker.get_checkpoint(&mut orb, ctx).unwrap().unwrap();
        say(format!("checkpoint:{:?}", worker_state(&state)));
        let fresh = cdr::to_bytes(&(5u32, Vec::<(u32, ComplexState)>::new()));
        worker
            .restore_checkpoint(&mut orb, ctx, &fresh)
            .unwrap()
            .unwrap();
        let state = worker.get_checkpoint(&mut orb, ctx).unwrap().unwrap();
        say(format!("restored:{:?}", worker_state(&state)));
        // Two out-parameters become a tuple.
        let (revision, members) = ns.group_view(&mut orb, ctx, &workers).unwrap().unwrap();
        say(format!("view:{revision}:{}", members.len()));

        // User exceptions, through the generated exception types.
        let nobody = Name::simple("nobody");
        let err = ns.resolve(&mut orb, ctx, &nobody).unwrap().unwrap_err();
        let nf = NotFound::extract(&err).expect("NotFound");
        say(format!(
            "not_found:{:?}:{}",
            nf.why, nf.rest_of_name.0[0].id
        ));
        let err = ns
            .resolve(&mut orb, ctx, &Name(vec![]))
            .unwrap()
            .unwrap_err();
        say(format!("invalid:{:?}", InvalidName::extract(&err)));
        let some = members[0].clone();
        let err = ns
            .bind_group_member(&mut orb, ctx, &workers, &some)
            .unwrap()
            .unwrap_err();
        say(format!("bound:{:?}", AlreadyBound::extract(&err)));
        ns.unbind_group_member(&mut orb, ctx, &workers, &some)
            .unwrap()
            .unwrap();
        let err = ns.resolve(&mut orb, ctx, &workers).unwrap().unwrap_err();
        say(format!("empty:{:?}", EmptyGroup::extract(&err)));
        assert!(NotFound::extract(&err).is_none());

        // Oneway: the report lands before the snapshot that shows it.
        let sm = manager.lock().unwrap().clone().expect("system manager up");
        let sm = winner::SystemManagerClient::from_ior(sm);
        let report = winner::LoadReport {
            host: 1,
            speed: 1.0,
            runnable: 0,
            load_avg: 0.0,
            cpu_util: 0.0,
            seq: 1,
            stamp_ns: ctx.now().as_nanos() as i64,
        };
        sm.report(&mut orb, ctx, &report).unwrap();
        let snapshot = sm.snapshot(&mut orb, ctx).unwrap().unwrap();
        let hosts: Vec<u32> = snapshot.iter().map(|h| h.host).collect();
        say(format!("snapshot:{hosts:?}"));
    });
    sim.run_until_exit(client);
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "solve:20:2",
            "checkpoint:(1, 1)",
            "restored:(5, 0)",
            "view:1:1",
            "not_found:missing_node:nobody",
            "invalid:Some(InvalidName)",
            "bound:Some(AlreadyBound)",
            "empty:Some(EmptyGroup)",
            "snapshot:[1]",
        ]
    );
}

#[test]
fn generated_ft_proxy_recovers_from_a_crash() {
    let mut sim = Kernel::with_seed(32);
    let hosts: Vec<_> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let h0 = hosts[0];
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    // Checkpoint service, registered under the well-known name.
    sim.spawn(h0, "ckpt", move |ctx| {
        let _ = store::run_checkpoint_service(ctx, h0, None);
    });
    // Factories on both worker hosts, able to build workers.
    for &h in &hosts[1..] {
        sim.spawn(h, format!("factory-{h}"), move |ctx| {
            let _ = ftproxy::run_factory_obs(ctx, h0, optim::worker_builder(), None);
        });
    }

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(h0, "client", move |ctx| {
        ctx.sleep(SimDuration::from_secs(1)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let ckpt = loop {
            match ns
                .resolve(&mut orb, ctx, &Name::simple("CheckpointService"))
                .unwrap()
            {
                Ok(obj) => break CheckpointClient::new(obj),
                Err(_) => ctx.sleep(SimDuration::from_millis(50)).unwrap(),
            }
        };
        let group = Name::simple("WorkerGroup");
        let mut cfg = FtProxyConfig::new(group, optim::WORKER_SERVICE_TYPE, "worker-1");
        cfg.mode = CheckpointMode::Bulk;
        let mut worker = WorkerFtProxy::new(FtProxy::new(cfg, NamingClient::root(h0), ckpt));
        let mut env = ProxyEnv { orb: &mut orb, ctx };

        // Build up state through the generated proxy.
        worker.solve(&mut env, &spec(true)).unwrap().unwrap();
        worker.solve(&mut env, &spec(false)).unwrap().unwrap();
        // Crash the host the worker lives on.
        let victim = worker.inner.current_target().unwrap().ior.host;
        env.ctx.crash_host(victim).unwrap();
        // The next call recovers transparently; the solves and the
        // population were checkpointed.
        let state = worker.get_checkpoint(&mut env).unwrap().unwrap();
        o.lock()
            .unwrap()
            .push(format!("after-crash:{:?}", worker_state(&state)));
        let s = worker.inner.stats;
        o.lock().unwrap().push(format!(
            "recoveries:{} restores:{}",
            s.recoveries, s.restores
        ));
    });
    sim.run_until_exit(client);
    let log = out.lock().unwrap().clone();
    assert_eq!(log[0], "after-crash:(2, 1)", "{log:?}");
    assert_eq!(log[1], "recoveries:1 restores:1", "{log:?}");
}
