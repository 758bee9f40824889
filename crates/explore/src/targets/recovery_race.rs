//! Cell: FT-proxy recovery racing the checkpoint store.
//!
//! Infra host 0 runs naming plus the checkpoint service; hosts 1 and 2
//! run service factories; the driver sits on its own host. The driver
//! increments a checkpointed counter through the FT proxy (per-value
//! checkpointing — every call pushes an epoch to the store) and crashes
//! the host its counter lives on mid-stream. The proxy must detect the
//! failure, re-instantiate the counter from its newest checkpoint on the
//! surviving factory host, and continue — under any interleaving of the
//! crash fault, the in-flight checkpoint push, and the recovery RPCs.
//!
//! Oracles: the increment sequence is continuous (`1..=N` — restored
//! state lost no acked increment and replayed none twice); at least one
//! recovery and one restore happened; the doctor records no invariant
//! violations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{
    run_factory_obs, CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, FtProxyStats,
    ProxyEnv, ServantBuilder, CHECKPOINT_SERVICE_NAME,
};
use orb::{reply, CallCtx, Exception, Orb, OrbConfig, Servant, SystemException};
use simnet::{Ctx, HostConfig, HostId, Kernel, Shared, SimDuration, SimResult};

use crate::targets::{instrument, RunOutcome, Target};
use crate::Fnv;

const SEED: u64 = 17;
/// Increments the driver issues; the crash lands in the middle.
const INCS: i64 = 8;
/// Checkpoint-service resolve retry budget (50 ms sleeps → multi-second
/// window).
const RETRY_MAX_ATTEMPTS: u32 = 200;

const COUNTER_TYPE: &str = "IDL:Explore/Counter:1.0";

/// See the module docs.
pub struct RecoveryRace;

impl Target for RecoveryRace {
    fn name(&self) -> &'static str {
        "recovery_race"
    }

    fn seed(&self) -> u64 {
        SEED
    }

    fn run(&self, plan: &BTreeMap<u64, usize>) -> RunOutcome {
        run_cell(plan)
    }
}

/// The stateful service under test: an accumulating counter whose whole
/// state rides in its checkpoint.
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
            "get" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
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

/// What the driver observed.
#[derive(Clone, Debug, Default)]
struct DriverOut {
    /// Counter values returned by the increments, in call order.
    values: Vec<i64>,
    /// Host the crash was injected on.
    victim: Option<u32>,
    /// Proxy statistics after the stream.
    stats: Option<FtProxyStats>,
    /// The driver ran its whole script.
    completed: bool,
}

fn spawn_factory(sim: &mut Kernel, host: HostId, naming_host: HostId) {
    sim.spawn(host, format!("factory-{host}"), move |ctx| {
        let builder: ServantBuilder = Box::new(|_call, ty| {
            (ty == "Counter").then(|| {
                (
                    Rc::new(RefCell::new(Counter::default())) as Rc<RefCell<dyn Servant>>,
                    COUNTER_TYPE.to_string(),
                )
            })
        });
        run_factory_obs(ctx, naming_host, builder, None)
    });
}

fn resolve_ckpt(
    orb: &mut Orb,
    ctx: &mut Ctx,
    naming_host: HostId,
) -> SimResult<Option<CheckpointClient>> {
    let ns = NamingClient::root(naming_host);
    let mut attempts = 0u32;
    while attempts < RETRY_MAX_ATTEMPTS {
        attempts += 1;
        match ns.resolve(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))? {
            Ok(obj) => return Ok(Some(CheckpointClient::new(obj))),
            Err(_) => ctx.sleep(SimDuration::from_millis(50))?,
        }
    }
    Ok(None)
}

fn drive(
    ctx: &mut Ctx,
    naming_host: HostId,
    infra: HostId,
    out: Shared<DriverOut>,
) -> SimResult<()> {
    ctx.sleep(SimDuration::from_millis(500))?; // services boot
                                               // The reply deadline dominating every remote call below.
    let mut orb = Orb::new(
        ctx,
        OrbConfig {
            request_timeout: SimDuration::from_secs(2),
        },
    );
    let Some(ckpt) = resolve_ckpt(&mut orb, ctx, naming_host)? else {
        return Ok(());
    };
    let mut cfg = FtProxyConfig::new(Name::simple("Counters"), "Counter", "counter-1");
    cfg.mode = CheckpointMode::PerValue;
    let mut proxy = FtProxy::new(cfg, NamingClient::root(naming_host), ckpt);
    let mut s = DriverOut::default();
    let mut env = ProxyEnv { orb: &mut orb, ctx };
    for i in 1..=INCS {
        match proxy.call::<_, i64>(&mut env, "inc", &(1i64,))? {
            Ok(v) => s.values.push(v),
            Err(_) => break,
        }
        if i == INCS / 2 {
            // Crash the host the counter lives on — never the infra host
            // (factories only run on the worker hosts).
            let Some(target) = proxy.current_target() else {
                break;
            };
            let victim = target.ior.host;
            if victim == infra {
                break;
            }
            s.victim = Some(victim.0);
            env.ctx.crash_host(victim)?;
        }
    }
    s.completed = s.values.len() == INCS as usize;
    s.stats = Some(proxy.stats);
    out.replace(s);
    Ok(())
}

fn run_cell(plan: &BTreeMap<u64, usize>) -> RunOutcome {
    let mut sim = Kernel::with_seed(SEED);
    // Blind spot: the doctor here reads kernel events only. The driver's
    // `FtProxy` records its events on its ORB's sink, and that ORB has
    // none, so restore-freshness and recovery-budget cannot fire in this
    // cell. A sink puts a span context on every request frame, which moves
    // the explore corpus (ROADMAP item 4).
    let flight = obs::Obs::new();
    let choices = {
        let flight = flight.clone();
        instrument(&mut sim, plan, move |now, ev| flight.kernel_event(now, ev))
    };

    let infra = sim.add_host(HostConfig::new("infra"));
    let workers: Vec<HostId> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let driver_host = sim.add_host(HostConfig::new("client"));

    sim.spawn(infra, "naming", move |ctx| {
        cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None)
    });
    sim.spawn(infra, "ckpt-svc", move |ctx| {
        store::run_checkpoint_service(ctx, infra, store::StoreConfig::default(), None)
    });
    for &w in &workers {
        spawn_factory(&mut sim, w, infra);
    }

    let out: Shared<DriverOut> = Shared::new(DriverOut::default());
    let driver = {
        let out = out.clone();
        sim.spawn(driver_host, "driver", move |ctx| {
            drive(ctx, infra, infra, out)
        })
    };
    let end = sim.run_until_exit(driver);
    let doctor = monitor::diagnose(&flight, end);

    let s = out.get();
    let mut violations = Vec::new();
    let expected: Vec<i64> = (1..=INCS).collect();
    if s.values != expected {
        violations.push(format!(
            "counter continuity broken: got {:?}, want {expected:?}",
            s.values
        ));
    }
    if s.victim.is_none() {
        violations.push("crash was never injected (no proxy target)".to_string());
    }
    match &s.stats {
        Some(st) => {
            if st.recoveries < 1 {
                violations.push(format!("no recovery despite the crash: {st:?}"));
            }
        }
        None => violations.push("driver never reported stats".to_string()),
    }
    if doctor.violations > 0 {
        violations.push(format!(
            "doctor recorded {} invariant violation(s):\n{}",
            doctor.violations, doctor.report
        ));
    }

    let mut h = Fnv::new();
    h.write_str("recovery_race");
    h.write_u64(s.values.len() as u64);
    for v in &s.values {
        h.write_u64(*v as u64);
    }
    h.write_u64(s.victim.map_or(0, |v| 1 + v as u64));
    if let Some(st) = &s.stats {
        for c in [
            st.calls,
            st.checkpoints,
            st.checkpoint_failures,
            st.recoveries,
        ] {
            h.write_u64(c);
        }
    }
    h.write_u64(doctor.violations);
    h.write_u64(end.as_nanos());

    RunOutcome {
        digest: h.finish(),
        violations,
        log: choices.get(),
        end_ns: end.as_nanos(),
    }
}
