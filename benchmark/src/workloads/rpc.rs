//! `rpc_small` and `rpc_bulk`: synchronous `sequence<double>` echo round
//! trips between two hosts — the ORB/GIOP/CDR/`simnet::Msg` path and
//! nothing else (`ft`, `naming`, `winner`, `optim` do no work).
//!
//! The two differ only in what dominates: `rpc_small` sends many 8-double
//! messages (per-message cost: thread handoff, GIOP framing), `rpc_bulk`
//! few 8192-double ones (per-byte cost: CDR copies, `Msg` payload moves).
//! A change that trades one cost for the other shows as a gain on one and
//! a loss on the other.

use std::cell::RefCell;
use std::rc::Rc;

use obs::ProcessObs;
use orb::{reply, CallCtx, Exception, Ior, ObjectRef, Orb, Poa, Servant, SystemException};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::{HostConfig, Kernel, KernelConfig, NetConfig, Shared, SimDuration, SimTime};

use super::{lan_latency, LayerSample, PhaseTime, Rep, RepCx, Virtual, Workload};
use crate::trace::{Stopwatch, ThreadCpu};

/// The echo workload at one size.
pub struct Rpc {
    name: &'static str,
    rounds: u32,
    doubles: usize,
    /// Unmeasured round trips issued during set-up, so the first measured
    /// one finds allocator, caches and both threads warm — and so
    /// `setup_s` is tens of milliseconds of the same code path, not
    /// microseconds of thread spawning.
    warmup: u32,
    /// Virtual instant of the first measured round trip. The warm-up must
    /// be over by then (checked); idle virtual time costs no wall time.
    t0: SimTime,
}

impl Rpc {
    /// 50 000 round trips of 8 doubles.
    pub fn small() -> Self {
        Rpc {
            name: "rpc_small",
            rounds: 50_000,
            doubles: 8,
            warmup: 1_000,
            t0: SimTime::from_nanos(2_000_000_000),
        }
    }

    /// 8 000 round trips of 8192 doubles (64 KiB each way).
    pub fn bulk() -> Self {
        Rpc {
            name: "rpc_bulk",
            rounds: 8_000,
            doubles: 8192,
            warmup: 150,
            t0: SimTime::from_nanos(8_000_000_000),
        }
    }

    /// The same workload with another round-trip count (tests).
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self.warmup = self.warmup.min(rounds / 10);
        self
    }
}

struct Echo;

impl Servant for Echo {
    fn dispatch(
        &mut self,
        _call: &mut CallCtx<'_>,
        _op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        let (v,): (Vec<f64>,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
        reply(&v)
    }
}

/// What the client process hands back.
#[derive(Default)]
struct ClientOut {
    op_ns: Vec<u64>,
    failed: u64,
    started: u64,
    ended: u64,
    comm_failures: u64,
    warmup_overran: bool,
    cpu: ThreadCpu,
}

impl Workload for Rpc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rep(&self, seed: u64, cx: &mut RepCx<'_>) -> Rep {
        let rep_start = Stopwatch::start();
        let traced = cx.traced();
        let sink = cx.sink();
        let mut layers = LayerSample::default();
        let mut time = PhaseTime::default();

        cx.tracer.enter("Kernel::new + spawn", "simnet");
        let mut sim = Kernel::new(KernelConfig {
            seed,
            net: NetConfig {
                latency_remote: lan_latency(seed),
                ..NetConfig::default()
            },
            ..KernelConfig::default()
        });
        cx.instrument(&mut sim);
        let a = sim.add_host(HostConfig::new("a"));
        let b = sim.add_host(HostConfig::new("b"));
        let ior_cell: Shared<Option<String>> = Shared::new(None);
        let publish = ior_cell.clone();
        let server_sink = sink.clone();
        sim.spawn(b, "server", move |ctx| {
            let mut orb = Orb::init(ctx);
            if let Some(s) = server_sink {
                orb.set_obs(ProcessObs::new(s, ctx));
            }
            orb.listen(ctx).expect("server binds");
            let poa = Poa::new();
            let key = poa.activate("IDL:Echo:1.0", Rc::new(RefCell::new(Echo)));
            publish.put(orb.ior("IDL:Echo:1.0", key).stringify());
            let _ = orb.serve_forever(ctx, &poa);
        });

        let t0 = self.t0;
        let out: Shared<ClientOut> = Shared::new(ClientOut::default());
        let result = out.clone();
        let (rounds, doubles, warmup) = (self.rounds, self.doubles, self.warmup);
        let client_sink = sink.clone();
        let client = sim.spawn(a, "client", move |ctx| {
            // Let the server bind its port.
            ctx.sleep(SimDuration::from_millis(1))
                .expect("client lives");
            let mut orb = Orb::init(ctx);
            if let Some(s) = client_sink {
                orb.set_obs(ProcessObs::new(s, ctx));
            }
            let ior = ior_cell.get().expect("server published its IOR");
            let obj = ObjectRef::new(Ior::destringify(&ior).expect("IOR parses"));
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut payload: Vec<f64> = (0..doubles)
                .map(|_| rng.random_range(-1.0e3..1.0e3))
                .collect();
            for _ in 0..warmup {
                let _: Result<Vec<f64>, Exception> = obj
                    .call(&mut orb, ctx, "echo", &(&payload,))
                    .expect("client lives");
            }
            let mut o = ClientOut {
                op_ns: Vec::with_capacity(rounds as usize),
                warmup_overran: ctx.now() > t0,
                ..ClientOut::default()
            };
            // The first measured operation is issued at exactly t0.
            ctx.sleep(t0.since(ctx.now())).expect("client lives");
            o.started = ctx.now().as_nanos();
            for i in 0..rounds {
                // Every request differs from the last, so a stale or
                // mixed-up reply cannot pass the check below.
                payload[i as usize % doubles] = f64::from(i);
                let t = ctx.now();
                let r: Result<Vec<f64>, Exception> = obj
                    .call(&mut orb, ctx, "echo", &(&payload,))
                    .expect("client lives");
                o.op_ns.push(ctx.now().since(t).as_nanos());
                if r.ok().as_ref() != Some(&payload) {
                    o.failed += 1;
                }
            }
            o.ended = ctx.now().as_nanos();
            o.comm_failures = orb.stats().comm_failures;
            if traced {
                o.cpu.sample_current();
            }
            result.replace(o);
        });
        cx.tracer.exit();

        cx.run_phases(&mut sim, t0, client, rep_start, &mut time, &mut layers);
        drop(sim);

        let o = out.replace(ClientOut::default());
        layers.threads.add(&o.cpu);
        layers.sinks.extend(sink);
        let request = cdr::to_bytes(&(&vec![0.0f64; self.doubles],)).len();
        let reply_len = cdr::to_bytes(&vec![0.0f64; self.doubles]).len();
        layers
            .extra
            .insert("cdr.payload_bytes_per_op", (request + reply_len) as f64);
        let mut virt = Virtual {
            runtime_ns: o.ended - o.started,
            attempted: u64::from(self.rounds),
            failed: o.failed,
            op_ns: o.op_ns,
            ..Virtual::default()
        };
        if virt.op_ns.len() as u64 != virt.attempted {
            virt.fail(format!(
                "client issued {} of {} round trips",
                virt.op_ns.len(),
                virt.attempted
            ));
        }
        if o.warmup_overran {
            virt.fail(format!("warm-up was still running at t0 = {}", self.t0));
        }
        if o.comm_failures != 0 {
            virt.fail(format!(
                "{} COMM_FAILUREs on a healthy LAN",
                o.comm_failures
            ));
        }
        Rep { time, virt, layers }
    }
}
