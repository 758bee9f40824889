//! The optimization **manager**: coordinates the decomposed Rosenbrock
//! minimization across worker services, as in the paper's §4.
//!
//! The manager runs a (low-dimensional) Complex Box optimization over the
//! coordination variables. Every objective evaluation fans one `solve`
//! request out to each worker **in parallel** through deferred DII
//! requests — this is where the application's parallelism comes from — and
//! combines the returned block minima. Workers are located through the
//! naming service: with the load-distributing service each resolve lands
//! on the currently best host; with fault tolerance enabled every call
//! goes through the checkpointing proxies instead of plain stubs.

use cosnaming::{Name, NamingClient};
use ftproxy::{
    CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, FtRequest, ProxyEnv,
    CHECKPOINT_SERVICE_NAME,
};
use orb::{DiiRequest, Exception, Orb, OrbConfig, SystemException};
use simnet::{Ctx, HostId, SimDuration, SimResult};

use crate::complex_box::{AskTellComplex, ComplexBoxConfig};
use crate::decompose::DecomposedRosenbrock;
use crate::protocol::{worker_group, SolveResult, SolveSpec, WorkerStub, WORKER_SERVICE_TYPE};

/// Fault-tolerance settings for the manager's worker calls.
#[derive(Clone, Debug)]
pub struct FtSettings {
    /// Checkpoint transport mode.
    pub mode: CheckpointMode,
    /// Checkpoint after every `k`-th call.
    pub checkpoint_every: u32,
    /// Recovery attempts per call.
    pub max_recoveries: u32,
}

impl Default for FtSettings {
    fn default() -> Self {
        FtSettings {
            mode: CheckpointMode::PerValue, // the paper's prototype
            checkpoint_every: 1,
            max_recoveries: 4,
        }
    }
}

/// Reply deadline for checkpoint-store operations, distinct from the
/// worker-call timeout: a dead store is detected on the store's latency
/// envelope, not the worker's much longer one.
const STORE_DEADLINE: SimDuration = SimDuration::from_secs(5);
/// Store failover attempts per store operation: on a recoverable store
/// failure the proxies re-resolve [`CHECKPOINT_SERVICE_NAME`] (a
/// replicated deployment rebinds it to a live backup) and retry.
const STORE_RETRIES: u32 = 2;

/// Manager configuration.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Full problem dimension.
    pub n: usize,
    /// Number of worker subproblems.
    pub workers: usize,
    /// Complex Box iterations per worker call (Table 1's sweep knob).
    pub worker_iters: u64,
    /// Reflection iterations of the manager's outer optimization.
    pub manager_iters: u64,
    /// Seed for the outer optimization and the workers.
    pub seed: u64,
    /// Host of the naming service.
    pub naming_host: HostId,
    /// ORB request timeout (must exceed the longest worker call).
    pub request_timeout: SimDuration,
    /// `Some` = route calls through fault-tolerant proxies.
    pub ft: Option<FtSettings>,
    /// Observability sink: when present, the run is traced (`manager.run`
    /// root span, one `manager.eval` per outer objective evaluation, and
    /// everything the ORB and proxies record downstream — with FT on, the
    /// worker proxies' failure / recovery / checkpoint / request events).
    pub obs: Option<obs::Obs>,
}

impl ManagerConfig {
    /// The paper's two scenarios use `new(30, 3, …)` and `new(100, 7, …)`.
    pub fn new(n: usize, workers: usize, naming_host: HostId) -> Self {
        ManagerConfig {
            n,
            workers,
            worker_iters: 20_000,
            manager_iters: 12,
            seed: 0xD15C0,
            naming_host,
            request_timeout: SimDuration::from_secs(120),
            ft: None,
            obs: None,
        }
    }
}

/// The outcome of one distributed optimization run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Best combined objective value found.
    pub best_value: f64,
    /// The assembled full-dimensional point achieving it.
    pub best_point: Vec<f64>,
    /// Virtual time the run took (the paper's Figure 3 / Table 1 metric).
    pub elapsed: SimDuration,
    /// Outer reflection iterations completed.
    pub manager_iterations: u64,
    /// Outer objective evaluations.
    pub manager_evals: u64,
    /// Worker `solve` calls issued.
    pub worker_calls: u64,
    /// Recoveries performed by FT proxies (0 without FT).
    pub recoveries: u64,
    /// Checkpoints taken by FT proxies (0 without FT).
    pub checkpoints: u64,
    /// Checkpoint-store failovers (re-resolves of the store name after a
    /// recoverable store failure; 0 without FT or with a healthy store).
    pub store_retargets: u64,
    /// The hosts each worker slot was initially placed on (diagnostics).
    pub placements: Vec<u32>,
}

/// The manager's workers: generated stubs, or FT proxies when fault
/// tolerance is on. Both fan out with deferred requests (all workers
/// compute concurrently), so the calls go through `DiiRequest` /
/// `FtRequest` under the generated op-name constants rather than through
/// the synchronous typed methods.
enum Handles {
    Plain(Vec<WorkerStub>),
    Ft(Vec<FtProxy>),
}

/// One manager-side objective evaluation: combined value + block points.
type EvalOutcome = SimResult<Result<(f64, Vec<Vec<f64>>), Exception>>;

/// Run a distributed decomposed-Rosenbrock optimization from the current
/// process. The outer `Result` is process liveness; the inner is the
/// CORBA-level outcome.
pub fn run_manager(ctx: &mut Ctx, cfg: &ManagerConfig) -> SimResult<Result<RunReport, Exception>> {
    let mut orb = Orb::new(
        ctx,
        OrbConfig {
            request_timeout: cfg.request_timeout,
            ..OrbConfig::default()
        },
    );
    let o = obs::ProcessObs::from_sink(cfg.obs.clone(), ctx);
    orb.set_obs(o.clone());
    o.begin(ctx.now(), "manager.run");
    let out = run_manager_with_orb(ctx, cfg, &mut orb);
    o.finish(ctx.now(), matches!(&out, Ok(Ok(_))));
    out
}

fn run_manager_with_orb(
    ctx: &mut Ctx,
    cfg: &ManagerConfig,
    orb: &mut Orb,
) -> SimResult<Result<RunReport, Exception>> {
    let t0 = ctx.now();
    let ns = NamingClient::root(cfg.naming_host);
    let decomposition = DecomposedRosenbrock::new(cfg.n, cfg.workers);

    // ---- acquire worker handles --------------------------------------
    let mut placements = Vec::with_capacity(cfg.workers);
    let mut handles = match &cfg.ft {
        None => {
            let mut stubs = Vec::with_capacity(cfg.workers);
            for _ in 0..cfg.workers {
                match ns.resolve(orb, ctx, &worker_group())? {
                    Ok(obj) => {
                        placements.push(obj.ior.host.0);
                        stubs.push(WorkerStub::new(obj));
                    }
                    Err(e) => return Ok(Err(e)),
                }
            }
            Handles::Plain(stubs)
        }
        Some(ft) => {
            let ckpt = match ns.resolve(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))? {
                Ok(obj) => CheckpointClient::new(obj).with_deadline(Some(STORE_DEADLINE)),
                Err(e) => return Ok(Err(e)),
            };
            let mut proxies = Vec::with_capacity(cfg.workers);
            for w in 0..cfg.workers {
                let mut pcfg = FtProxyConfig::new(
                    worker_group(),
                    WORKER_SERVICE_TYPE,
                    format!("opt-worker-{w}"),
                );
                pcfg.mode = ft.mode;
                pcfg.checkpoint_every = ft.checkpoint_every.max(1);
                pcfg.max_recoveries_per_call = ft.max_recoveries;
                pcfg.store_retries = STORE_RETRIES;
                let mut proxy =
                    FtProxy::new(pcfg, NamingClient::root(cfg.naming_host), ckpt.clone());
                // Bind eagerly so each proxy gets a distinct placement
                // (the naming service spreads consecutive resolves).
                let mut env = ProxyEnv {
                    orb: &mut *orb,
                    ctx,
                };
                match proxy.ensure_target(&mut env)? {
                    Ok(obj) => placements.push(obj.ior.host.0),
                    Err(e) => return Ok(Err(e)),
                }
                proxies.push(proxy);
            }
            Handles::Ft(proxies)
        }
    };

    // ---- the outer optimization over coordination variables ----------
    let mut worker_calls = 0u64;
    let mut best_value = f64::INFINITY;
    let mut best_point = Vec::new();
    let mdim = decomposition.partition.manager_dim();

    let eval_coords = |coords: &[f64],
                       orb: &mut Orb,
                       ctx: &mut Ctx,
                       handles: &mut Handles,
                       worker_calls: &mut u64|
     -> EvalOutcome {
        let specs: Vec<SolveSpec> = (0..cfg.workers)
            .map(|w| {
                let sub = decomposition.subproblem(w, coords);
                SolveSpec {
                    problem_id: w as u32,
                    dim: sub.dim as u32,
                    left: sub.left,
                    right: sub.right,
                    iters: cfg.worker_iters,
                    seed: cfg.seed,
                    reset: false,
                }
            })
            .collect();
        *worker_calls += cfg.workers as u64;
        let results: Vec<SolveResult> = match handles {
            Handles::Plain(stubs) => {
                // Deferred DII fan-out: all workers compute concurrently.
                let mut reqs: Vec<DiiRequest> = Vec::with_capacity(cfg.workers);
                for (w, spec) in specs.iter().enumerate() {
                    let mut r = DiiRequest::new(stubs[w].obj.ior.clone(), WorkerStub::OP_SOLVE);
                    r.add_typed(spec);
                    r.send_deferred(orb, ctx)?;
                    reqs.push(r);
                }
                let mut out = Vec::with_capacity(cfg.workers);
                for mut r in reqs {
                    match r.get_response(orb, ctx)? {
                        Ok(bytes) => match cdr::from_bytes::<SolveResult>(&bytes) {
                            Ok(res) => out.push(res),
                            Err(e) => {
                                return Ok(Err(Exception::System(SystemException::marshal(e))))
                            }
                        },
                        Err(e) => return Ok(Err(e)),
                    }
                }
                out
            }
            Handles::Ft(proxies) => {
                let mut reqs: Vec<FtRequest> = Vec::with_capacity(cfg.workers);
                for (w, spec) in specs.iter().enumerate() {
                    let mut r = FtRequest::new(WorkerStub::OP_SOLVE);
                    r.add_typed(spec);
                    let mut env = ProxyEnv { orb, ctx };
                    r.send_deferred(&mut proxies[w], &mut env)?;
                    reqs.push(r);
                }
                let mut out = Vec::with_capacity(cfg.workers);
                for (w, mut r) in reqs.into_iter().enumerate() {
                    let mut env = ProxyEnv { orb, ctx };
                    match r.get_response_typed::<SolveResult>(&mut proxies[w], &mut env)? {
                        Ok(res) => out.push(res),
                        Err(e) => return Ok(Err(e)),
                    }
                }
                out
            }
        };
        let block_values: Vec<f64> = results.iter().map(|r| r.best_value).collect();
        let block_points: Vec<Vec<f64>> = results.into_iter().map(|r| r.best_point).collect();
        Ok(Ok((decomposition.combine(&block_values), block_points)))
    };

    let o = orb.obs().clone();
    let (manager_iterations, manager_evals) = if mdim == 0 {
        // Degenerate single-worker case: one combined solve.
        o.begin(ctx.now(), "manager.eval");
        let r = eval_coords(&[], &mut *orb, ctx, &mut handles, &mut worker_calls)?;
        o.end(ctx.now());
        match r {
            Ok((v, blocks)) => {
                best_value = v;
                best_point = decomposition.assemble(&[], &blocks);
                (0, 1)
            }
            Err(e) => return Ok(Err(e)),
        }
    } else {
        let mut outer = AskTellComplex::new(
            decomposition.manager_bounds(),
            ComplexBoxConfig {
                seed: cfg.seed,
                ..ComplexBoxConfig::default()
            },
        );
        while outer.iterations() < cfg.manager_iters {
            let coords = outer.ask();
            o.begin(ctx.now(), "manager.eval");
            let r = eval_coords(coords, &mut *orb, ctx, &mut handles, &mut worker_calls)?;
            o.end(ctx.now());
            match r {
                Ok((v, blocks)) => {
                    if v < best_value {
                        best_value = v;
                        best_point = decomposition.assemble(coords, &blocks);
                    }
                    outer.tell(v);
                }
                Err(e) => return Ok(Err(e)),
            }
        }
        (outer.iterations(), outer.evals())
    };

    let (recoveries, checkpoints, store_retargets) = match &handles {
        Handles::Plain(_) => (0, 0, 0),
        Handles::Ft(proxies) => proxies.iter().fold((0, 0, 0), |(r, c, s), p| {
            (
                r + p.stats.recoveries,
                c + p.stats.checkpoints,
                s + p.stats.store_retargets,
            )
        }),
    };
    Ok(Ok(RunReport {
        best_value,
        best_point,
        elapsed: ctx.now().since(t0),
        manager_iterations,
        manager_evals,
        worker_calls,
        recoveries,
        checkpoints,
        store_retargets,
        placements,
    }))
}
