//! End-to-end test of the IDL tool chain. Every checked-in generated file
//! — `generated/calculator.rs` here and `crates/*/src/generated.rs`, each
//! produced by `idlc` from the contract its crate owns — must stay in
//! sync with the compiler's current output; every generated skeleton must
//! answer hostile bytes with a system exception; and the calculator's
//! must compile and actually work — trait, skeleton, stub and
//! fault-tolerant proxy — against the live ORB on the simulated network.

include!("generated/calculator.rs");

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, ProxyEnv};
use orb::{Orb, Poa};
use simnet::{HostConfig, HostId, Kernel, SimDuration};

use Demo::{Calculator, CalculatorFtProxy, CalculatorSkeleton, CalculatorStub, MathError};

/// The application's implementation of the generated `Calculator` trait.
#[derive(Default)]
struct CalcImpl {
    op_count: u32,
    precision: f64,
    last: f64,
}

impl Calculator for CalcImpl {
    fn add(&mut self, _c: &mut orb::CallCtx<'_>, a: f64, b: f64) -> Result<f64, orb::Exception> {
        self.op_count += 1;
        self.last = a + b;
        Ok(self.last)
    }

    fn div(&mut self, _c: &mut orb::CallCtx<'_>, a: f64, b: f64) -> Result<f64, orb::Exception> {
        if b == 0.0 {
            return Err(MathError {
                reason: "division by zero".into(),
            }
            .raise());
        }
        self.op_count += 1;
        self.last = a / b;
        Ok(self.last)
    }

    fn scale(
        &mut self,
        _c: &mut orb::CallCtx<'_>,
        values: Vec<f64>,
        factor: f64,
    ) -> Result<Vec<f64>, orb::Exception> {
        self.op_count += 1;
        Ok(values.into_iter().map(|v| v * factor).collect())
    }

    fn stats(&mut self, _c: &mut orb::CallCtx<'_>) -> Result<(u32, f64), orb::Exception> {
        Ok((self.op_count, self.last))
    }

    fn log(&mut self, _c: &mut orb::CallCtx<'_>, _message: String) -> Result<(), orb::Exception> {
        Ok(())
    }

    fn get_op_count(&mut self, _c: &mut orb::CallCtx<'_>) -> Result<u32, orb::Exception> {
        Ok(self.op_count)
    }

    fn get_precision(&mut self, _c: &mut orb::CallCtx<'_>) -> Result<f64, orb::Exception> {
        Ok(self.precision)
    }

    fn set_precision(
        &mut self,
        _c: &mut orb::CallCtx<'_>,
        value: f64,
    ) -> Result<(), orb::Exception> {
        self.precision = value;
        Ok(())
    }

    fn get_checkpoint(&mut self, _c: &mut orb::CallCtx<'_>) -> Result<Vec<u8>, orb::Exception> {
        Ok(cdr::to_bytes(&(self.op_count, self.precision, self.last)))
    }

    fn restore_checkpoint(
        &mut self,
        _c: &mut orb::CallCtx<'_>,
        state: Vec<u8>,
    ) -> Result<(), orb::Exception> {
        let (op_count, precision, last) =
            cdr::from_bytes(&state).map_err(orb::SystemException::marshal)?;
        self.op_count = op_count;
        self.precision = precision;
        self.last = last;
        Ok(())
    }
}

/// One line of `idl/generated.txt`, the list the "generated code is
/// current" CI step runs: a checked-in file and the `idlc` arguments that
/// produce it.
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
    assert_eq!(all.len(), 6, "five crates and tests/generated");
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
    let tree = cosnaming::NamingTree::new();
    vec![
        (
            "Calculator",
            Box::new(CalculatorSkeleton(CalcImpl::default())),
        ),
        (
            "BindingIterator",
            Box::new(cosnaming::BindingIteratorSkeleton(
                cosnaming::iterator::BindingIterator::new(Vec::new()),
            )),
        ),
        (
            "NamingContext",
            Box::new(cosnaming::NamingContextSkeleton(
                cosnaming::NamingContext::root(tree, LbMode::Plain),
            )),
        ),
        (
            "Lookup",
            Box::new(cosnaming::LookupSkeleton(cosnaming::Trader::new())),
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
                store::StoreReplica::alone(store::StoreConfig::default()),
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
                store::StoreConfig::default(),
                HostId(0),
            ))),
        ),
        (
            "Worker",
            Box::new(optim::WorkerSkeleton(optim::WorkerServant::new())),
        ),
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
        if let idlc::Item::Interface {
            def,
            all_ops,
            all_attrs,
            ..
        } = item
        {
            declared += idlc::ast::wire_ops(&def.ops, &def.attrs).len();
            for op in idlc::ast::wire_ops(all_ops, all_attrs) {
                let ins = op.params.iter().any(|p| p.dir != idlc::ast::Direction::Out);
                ops.push((def.name.clone(), op.name, ins));
            }
        }
    }
    assert!(
        ops.len() >= declared + 7,
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

/// The calculator's `scale` parameters with `values` claiming 2^32 − 1
/// doubles (32 GiB): framed honestly, so only the skeleton or the stub
/// can refuse them — and must, before allocating anything of that size.
fn scale_bomb() -> Vec<u8> {
    let mut args = cdr::to_bytes(&(vec![1.0f64, 2.0], 10.0f64));
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
    // A live calculator behind its generated skeleton.
    let publish = iors.clone();
    sim.spawn(hosts[1], "calc-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(
            CalculatorStub::REPO_ID,
            Rc::new(RefCell::new(CalculatorSkeleton(CalcImpl::default()))),
        );
        publish
            .lock()
            .unwrap()
            .push(orb.ior(CalculatorStub::REPO_ID, key));
        let _ = orb.serve_forever(ctx, &poa);
    });
    // A calculator whose first four replies lie: three about the result's
    // length, one with a well-framed result claiming 2^32 − 1 doubles.
    let publish = iors.clone();
    sim.spawn(hosts[1], "liar", move |ctx| {
        let port = ctx.bind_port().unwrap();
        let me = orb::Ior::new(CalculatorStub::REPO_ID, ctx.host(), port, orb::ObjectKey(1));
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
                }
                .encode()
            };
            let honest = result(cdr::to_bytes(&vec![10.0f64, 20.0]));
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
        let (calc, liar) = match &iors.lock().unwrap()[..] {
            [calc, liar] => (calc.clone(), liar.clone()),
            other => panic!("servers not up: {other:?}"),
        };
        let say = |s: String| o.lock().unwrap().push(s);
        // The live server: three lying request frames are dropped, a bomb
        // inside an honest frame is MARSHAL, and a stub call is served.
        let at = Addr::Endpoint(calc.host, calc.port);
        let honest = Message::encode_request(7, true, calc.key, "scale", &scale_bomb(), &[]);
        for frame in hostile_bodies(&honest) {
            ctx.send(at, frame).unwrap();
        }
        ctx.send(at, honest).unwrap();
        let answer = ctx.recv().unwrap();
        say(match answer.data().map(Message::decode) {
            Some(Ok(Message::Reply {
                request_id: 7,
                status: ReplyBody::SystemException(e),
            })) => format!("{:?}", e.kind),
            other => format!("{other:?}"),
        });
        let mut orb = Orb::init(ctx);
        let stub = CalculatorStub::new(orb::ObjectRef::new(calc));
        let scaled = stub.scale(&mut orb, ctx, &vec![1.0, 2.0], &10.0).unwrap();
        say(format!("{scaled:?}"));
        // The live client: each lying reply fails its call with a system
        // exception, and the next call is served.
        let mut stub = CalculatorStub::new(orb::ObjectRef::new(liar));
        stub.deadline = Some(SimDuration::from_millis(100));
        for _ in 0..5 {
            say(
                match stub.scale(&mut orb, ctx, &vec![1.0, 2.0], &10.0).unwrap() {
                    Err(orb::Exception::System(e)) => format!("{:?}", e.kind),
                    other => format!("{other:?}"),
                },
            );
        }
        say(format!("protocol_errors:{}", orb.stats().protocol_errors));
    });
    sim.run_until_exit(client);
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "Marshal",
            "Ok([10.0, 20.0])",
            "CommFailure",
            "CommFailure",
            "CommFailure",
            "Marshal",
            "Ok([10.0, 20.0])",
            "protocol_errors:3",
        ]
    );
}

fn spawn_server(sim: &mut Kernel, host: HostId, naming_host: HostId) {
    sim.spawn(host, "calc-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate(
            CalculatorStub::REPO_ID,
            Rc::new(RefCell::new(CalculatorSkeleton(CalcImpl::default()))),
        );
        let ior = orb.ior(CalculatorStub::REPO_ID, key);
        let ns = NamingClient::root(naming_host);
        loop {
            match ns.bind_group_member(&mut orb, ctx, &Name::simple("Calcs"), &ior) {
                Ok(Ok(())) => break,
                Ok(Err(_)) => ctx.sleep(SimDuration::from_millis(50)).unwrap(),
                Err(_) => return,
            }
        }
        let _ = orb.serve_forever(ctx, &poa);
    });
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
    spawn_server(&mut sim, hosts[1], h0);

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(h0, "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(500)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let obj = ns.resolve_str(&mut orb, ctx, "Calcs").unwrap().unwrap();
        let calc = CalculatorStub::new(obj);

        // Plain operation.
        let sum = calc.add(&mut orb, ctx, &2.0, &3.25).unwrap().unwrap();
        o.lock().unwrap().push(format!("add:{sum}"));
        // Sequence in/out.
        let scaled = calc
            .scale(&mut orb, ctx, &vec![1.0, 2.0], &10.0)
            .unwrap()
            .unwrap();
        o.lock().unwrap().push(format!("scale:{scaled:?}"));
        // User exception via the generated exception type.
        let err = calc.div(&mut orb, ctx, &1.0, &0.0).unwrap().unwrap_err();
        let math = MathError::extract(&err).expect("typed exception");
        o.lock().unwrap().push(format!("div:{}", math.reason));
        // Attributes (generated _get_/_set_ operations).
        calc.set_precision(&mut orb, ctx, &0.01).unwrap().unwrap();
        let p = calc.get_precision(&mut orb, ctx).unwrap().unwrap();
        let n = calc.get_op_count(&mut orb, ctx).unwrap().unwrap();
        o.lock().unwrap().push(format!("attrs:{p}:{n}"));
        // Multiple out-parameters become a tuple.
        let (ops, last) = calc.stats(&mut orb, ctx).unwrap().unwrap();
        o.lock().unwrap().push(format!("stats:{ops}:{last}"));
        // Oneway.
        calc.log(&mut orb, ctx, "hello").unwrap();
    });
    sim.run_until_exit(client);
    assert_eq!(
        *out.lock().unwrap(),
        vec![
            "add:5.25",
            "scale:[10.0, 20.0]",
            "div:division by zero",
            "attrs:0.01:2",
            "stats:2:5.25",
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
        let _ = store::run_checkpoint_service(ctx, h0, store::StoreConfig::default(), None);
    });
    // Factories on both worker hosts, able to build generated skeletons.
    for &h in &hosts[1..] {
        sim.spawn(h, format!("factory-{h}"), move |ctx| {
            let builder: ftproxy::ServantBuilder = Box::new(|_call, ty| {
                (ty == "Calculator").then(|| {
                    (
                        Rc::new(RefCell::new(CalculatorSkeleton(CalcImpl::default())))
                            as Rc<RefCell<dyn orb::Servant>>,
                        CalculatorStub::REPO_ID.to_string(),
                    )
                })
            });
            let _ = ftproxy::run_factory_obs(ctx, h0, builder, None);
        });
    }

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(h0, "client", move |ctx| {
        ctx.sleep(SimDuration::from_secs(1)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let ckpt = loop {
            match ns.resolve_str(&mut orb, ctx, "CheckpointService").unwrap() {
                Ok(obj) => break CheckpointClient::new(obj),
                Err(_) => ctx.sleep(SimDuration::from_millis(50)).unwrap(),
            }
        };
        let mut cfg = FtProxyConfig::new(Name::simple("CalcGroup"), "Calculator", "calc-1");
        cfg.mode = CheckpointMode::Bulk;
        let mut calc = CalculatorFtProxy::new(FtProxy::new(cfg, NamingClient::root(h0), ckpt));
        let mut env = ProxyEnv { orb: &mut orb, ctx };

        // Build up state through the generated proxy.
        let _ = calc.add(&mut env, &1.0, &1.0).unwrap().unwrap();
        let _ = calc.add(&mut env, &2.0, &2.0).unwrap().unwrap();
        // Crash the host the calculator lives on.
        let victim = calc.inner.current_target().unwrap().ior.host;
        env.ctx.crash_host(victim).unwrap();
        // The next call recovers transparently; op_count was checkpointed.
        let (ops, last) = calc.stats(&mut env).unwrap().unwrap();
        o.lock().unwrap().push(format!("after-crash:{ops}:{last}"));
        let s = calc.inner.stats;
        o.lock().unwrap().push(format!(
            "recoveries:{} restores:{}",
            s.recoveries, s.restores
        ));
    });
    sim.run_until_exit(client);
    let log = out.lock().unwrap().clone();
    assert_eq!(log[0], "after-crash:2:4", "{log:?}");
    assert_eq!(log[1], "recoveries:1 restores:1", "{log:?}");
}
