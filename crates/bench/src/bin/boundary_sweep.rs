//! Crash at every message boundary (DESIGN.md §13).
//!
//! The cell: infra host 0 runs naming and the checkpoint service, hosts
//! 1–3 run service factories, and a driver on a host of its own makes
//! 8 `inc` calls on a checkpointed counter through an FT proxy. The only
//! fault is the kernel's send trigger (`Kernel::crash_after_sends`): for
//! each checkpoint mode and each worker host, the sweep crashes that host
//! right after its *n*-th sent frame, for every *n* from 1 until a run
//! ends with no host crash (the host sent fewer than *n* frames, so that
//! run is the fault-free one).
//!
//! Recovery is transparent when the client cannot tell: a run differs if
//! its replies are not the fault-free `1..=8`, or if the doctor, which
//! reads the driver's FT events and the kernel's, records an invariant
//! violation (restore-freshness, recovery-budget, …). The bin prints one
//! row per mode × host, then "N of M differ" and each differing run by
//! (mode, host, n, crash instant), and exits 1 if any run differs.
//!
//! Usage: `cargo run --release -p ldft-bench --bin boundary_sweep`

use std::cell::RefCell;
use std::rc::Rc;

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{
    run_factory_obs, CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, ProxyEnv,
    ServantBuilder, CHECKPOINT_SERVICE_NAME,
};
use obs::{EventBody, Obs, ProcessObs};
use orb::{reply, CallCtx, Exception, Orb, OrbConfig, Servant, SystemException};
use simnet::{Ctx, HostConfig, HostId, Kernel, KernelEvent, Shared, SimDuration, SimResult};

const SEED: u64 = 17;
/// `inc` calls the driver makes; the fault-free replies are `1..=INCS`.
const INCS: i64 = 8;
const COUNTER_TYPE: &str = "IDL:Sweep/Counter:1.0";

/// An accumulating counter whose whole state rides in its checkpoint.
#[derive(Default)]
struct Counter {
    value: i64,
}

impl Servant for Counter {
    fn dispatch(
        &mut self,
        _call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "inc" => {
                let (delta,): (i64,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                self.value += delta;
                reply(&self.value)
            }
            "get_checkpoint" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
                reply(&cdr::to_bytes(&(self.value,)))
            }
            "restore_checkpoint" => {
                let (state,): (Vec<u8>,) =
                    cdr::from_bytes(args).map_err(SystemException::marshal)?;
                let (value,): (i64,) = cdr::from_bytes(&state).map_err(SystemException::marshal)?;
                self.value = value;
                reply(&())
            }
            other => Err(SystemException::bad_operation(other).into()),
        }
    }
}

/// Resolve the checkpoint service, waiting up to 10 s for it to register.
fn resolve_ckpt(
    orb: &mut Orb,
    ctx: &mut Ctx,
    naming: HostId,
) -> SimResult<Option<CheckpointClient>> {
    let ns = NamingClient::root(naming);
    for _ in 0..200 {
        match ns.resolve(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))? {
            Ok(obj) => return Ok(Some(CheckpointClient::new(obj))),
            Err(_) => ctx.sleep(SimDuration::from_millis(50))?,
        }
    }
    Ok(None)
}

/// The client: `INCS` increments through an FT proxy, stopping at the
/// first call that fails; `replies` gets each answer.
fn drive(
    ctx: &mut Ctx,
    naming: HostId,
    mode: CheckpointMode,
    flight: Obs,
    replies: Shared<Vec<i64>>,
) -> SimResult<()> {
    ctx.sleep(SimDuration::from_millis(500))?; // services boot
    let cfg = OrbConfig {
        request_timeout: SimDuration::from_secs(2),
    };
    let mut orb = Orb::new(ctx, cfg);
    orb.set_obs(ProcessObs::new(flight, ctx));
    let Some(ckpt) = resolve_ckpt(&mut orb, ctx, naming)? else {
        return Ok(());
    };
    let mut cfg = FtProxyConfig::new(Name::simple("Counters"), "Counter", "counter-1");
    cfg.mode = mode;
    let mut proxy = FtProxy::new(cfg, NamingClient::root(naming), ckpt);
    let mut env = ProxyEnv { orb: &mut orb, ctx };
    for _ in 0..INCS {
        match proxy.call::<_, i64>(&mut env, "inc", &(1i64,))? {
            Ok(v) => replies.with(|r| r.push(v)),
            Err(_) => break,
        }
    }
    Ok(())
}

/// What one run came to.
struct Outcome {
    replies: Vec<i64>,
    /// When the trigger crashed its host, if it fired.
    crash_ns: Option<u64>,
    violations: u64,
}

/// One run of the cell, `mode`-checkpointed, with the send trigger armed
/// at `(host, n)`.
fn run(mode: CheckpointMode, host: HostId, n: u64) -> Outcome {
    let mut sim = Kernel::with_seed(SEED);
    let flight = Obs::new();
    let f = flight.clone();
    sim.set_event_hook(move |now, ev| f.kernel_event(now, ev));
    let infra = sim.add_host(HostConfig::new("infra"));
    let workers: Vec<HostId> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let client = sim.add_host(HostConfig::new("client"));
    sim.spawn(infra, "naming", |ctx| {
        cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None)
    });
    sim.spawn(infra, "ckpt-svc", move |ctx| {
        store::run_checkpoint_service(ctx, infra, None)
    });
    for &w in &workers {
        sim.spawn(w, format!("factory-{w}"), move |ctx| {
            let builder: ServantBuilder = Box::new(|_call, ty| {
                (ty == "Counter").then(|| {
                    let servant = Rc::new(RefCell::new(Counter::default()));
                    (
                        servant as Rc<RefCell<dyn Servant>>,
                        COUNTER_TYPE.to_string(),
                    )
                })
            });
            run_factory_obs(ctx, infra, builder, None)
        });
    }
    sim.crash_after_sends(host, n);
    let replies = Shared::new(Vec::new());
    let driver = {
        let (flight, replies) = (flight.clone(), replies.clone());
        sim.spawn(client, "driver", move |ctx| {
            drive(ctx, infra, mode, flight, replies)
        })
    };
    let end = sim.run_until_exit(driver);
    let crash_ns = flight.events().iter().find_map(|e| {
        matches!(e.body, EventBody::Kernel(KernelEvent::HostCrash(_))).then_some(e.time_ns)
    });
    Outcome {
        replies: replies.get(),
        crash_ns,
        violations: monitor::diagnose(&flight, end).violations,
    }
}

fn main() {
    let expected: Vec<i64> = (1..=INCS).collect();
    let (mut tried, mut differing) = (0u64, Vec::new());
    println!(
        "{:<9} {:<5} {:>10} {:>7}",
        "mode", "host", "boundaries", "differ"
    );
    for mode in [CheckpointMode::PerValue, CheckpointMode::Bulk] {
        for host in [1, 2, 3].map(HostId) {
            let (mut n, mut differ) = (1, 0);
            loop {
                let out = run(mode, host, n);
                let bad = out.replies != expected || out.violations > 0;
                let Some(at) = out.crash_ns else {
                    if bad {
                        differing.push(format!(
                            "{mode:?} fault-free run: replies {:?}, {} doctor violation(s)",
                            out.replies, out.violations
                        ));
                    }
                    break;
                };
                if bad {
                    differ += 1;
                    differing.push(format!(
                        "{mode:?} {host} n={n} crash at {at}ns: replies {:?}, {} doctor violation(s)",
                        out.replies,
                        out.violations
                    ));
                }
                n += 1;
            }
            tried += n - 1;
            let mode = format!("{mode:?}");
            println!(
                "{mode:<9} {:<5} {:>10} {differ:>7}",
                host.to_string(),
                n - 1
            );
        }
    }
    println!("{} of {tried} differ", differing.len());
    for line in &differing {
        println!("  {line}");
    }
    if !differing.is_empty() {
        std::process::exit(1);
    }
}
