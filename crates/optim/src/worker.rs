//! The optimization **worker** servant: a stateful CORBA service running
//! the sequential Complex Box algorithm on assigned subproblems.
//!
//! State (the per-subproblem populations) persists across `solve` calls —
//! the manager's successive calls warm-start from the previous population
//! — which is exactly why the paper needs checkpointing proxies: losing a
//! worker loses accumulated optimization progress unless its state was
//! saved. The servant therefore implements the checkpoint convention
//! (`get_checkpoint` / `restore_checkpoint`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cosnaming::NamingClient;
use orb::{CallCtx, Exception, Orb, Poa, Servant, SystemException};
use simnet::{Ctx, HostId, SimResult};

use crate::complex_box::{ComplexBox, ComplexBoxConfig, ComplexState};
use crate::decompose::SubRosenbrock;
use crate::protocol::{worker_group, Optim, SolveResult, SolveSpec, WorkerSkeleton, WORKER_TYPE};

/// CPU work units per Complex Box iteration per problem dimension: the
/// worker's cost model (it translates algorithm work into simulated time;
/// the algorithm itself runs for real). Calibrated so a 14-dim subproblem
/// runs ≈10 ms of CPU per 1000 iterations — the right order for a late-90s
/// workstation evaluating an O(dim) objective a couple of times per
/// iteration.
const PER_ITER_PER_DIM: f64 = 7.0e-7;

/// The worker servant.
#[derive(Default)]
pub struct WorkerServant {
    /// Cached optimizer state per subproblem id.
    state: BTreeMap<u32, ComplexState>,
    /// Solves served. Only the checkpoint carries it.
    solve_count: u32,
}

impl WorkerServant {
    /// A fresh worker.
    pub fn new() -> Self {
        Self::default()
    }
}

fn bad_param(detail: &str) -> Exception {
    SystemException::new(orb::SysKind::BadParam, orb::Completion::No, detail).into()
}

impl Optim::Worker for WorkerServant {
    fn solve(&mut self, call: &mut CallCtx<'_>, spec: SolveSpec) -> Result<SolveResult, Exception> {
        if spec.dim == 0 {
            return Err(bad_param("zero-dimensional subproblem"));
        }
        let problem = SubRosenbrock::new(spec.dim as usize, spec.left, spec.right);
        let cfg = ComplexBoxConfig {
            seed: spec.seed ^ u64::from(spec.problem_id).wrapping_mul(0x9E37_79B9),
            ..ComplexBoxConfig::default()
        };
        // Model the CPU cost of the whole solve (iterations × dimension).
        let work = spec.iters as f64 * spec.dim as f64 * PER_ITER_PER_DIM;
        call.ctx
            .compute(work)
            .map_err(|_| SystemException::comm_failure("killed mid-solve"))?;

        // The cached population moves into the optimizer and back. One
        // that does not fit this `dim` (a checkpoint is whatever decoded)
        // is dropped for a cold start, never reinterpreted.
        let cached = (!spec.reset)
            .then(|| self.state.remove(&spec.problem_id))
            .flatten()
            .filter(|s| s.fits(spec.dim as usize));
        let mut opt = match cached {
            // Warm start: keep the population, re-evaluate under the new
            // coordination values.
            Some(s) => ComplexBox::from_points(&problem, cfg, s.points, s.iterations, s.evals),
            None => ComplexBox::new(&problem, cfg),
        };
        let best_value = opt.run(spec.iters);
        let result = SolveResult {
            best_value,
            best_point: opt.best().0.to_vec(),
            iterations: opt.iterations(),
            evals: opt.evals(),
        };
        self.state.insert(spec.problem_id, opt.into_state());
        self.solve_count += 1;
        Ok(result)
    }

    /// Serialize the full worker state (checkpoint payload).
    fn get_checkpoint(&mut self, _call: &mut CallCtx<'_>) -> Result<Vec<u8>, Exception> {
        // BTreeMap iteration is already key-ordered, so the payload bytes
        // are deterministic without an explicit sort.
        let entries: Vec<(&u32, &ComplexState)> = self.state.iter().collect();
        Ok(cdr::to_bytes(&(self.solve_count, entries)))
    }

    /// Replace the whole worker state from a checkpoint. A restore into
    /// an instance that serves another proxy would clobber that proxy's
    /// populations, and the run would end on a different best point; the
    /// FT proxy adopts each instance for itself alone, so none does.
    fn restore_checkpoint(
        &mut self,
        _call: &mut CallCtx<'_>,
        state: Vec<u8>,
    ) -> Result<(), Exception> {
        let (solve_count, entries): (u32, Vec<(u32, ComplexState)>) =
            cdr::from_bytes(&state).map_err(SystemException::marshal)?;
        // Which `dim` an entry is for is only known at its next `solve`
        // (`ComplexState::fits`); what can be told here is whether it is a
        // population of any dimension at all.
        if entries
            .iter()
            .any(|(_, s)| s.values.len() < 2 || s.points.len() % s.values.len() != 0)
        {
            return Err(bad_param("checkpoint entry is not a population"));
        }
        self.solve_count = solve_count;
        self.state = entries.into_iter().collect();
        Ok(())
    }
}

/// A factory builder that can instantiate workers (register under the
/// service type [`WORKER_SERVICE_TYPE`](crate::protocol::WORKER_SERVICE_TYPE)).
pub fn worker_builder() -> ftproxy::ServantBuilder {
    Box::new(move |_call, ty| {
        (ty == crate::protocol::WORKER_SERVICE_TYPE).then(|| {
            (
                Rc::new(RefCell::new(WorkerSkeleton(WorkerServant::new())))
                    as Rc<RefCell<dyn Servant>>,
                WORKER_TYPE.to_string(),
            )
        })
    })
}

/// The body of a standalone worker server process: activate one worker
/// (behind an [`ftproxy::FtServant`]), register it in the `Workers`
/// group, serve forever. Serve spans are recorded into `obs` if present.
pub fn run_worker_server_obs(
    ctx: &mut Ctx,
    naming_host: HostId,
    obs: Option<obs::Obs>,
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::from_sink(obs, ctx));
    orb.listen(ctx)?;
    let poa = Poa::new();
    let servant = Rc::new(RefCell::new(WorkerSkeleton(WorkerServant::new())));
    let key = poa.activate(WORKER_TYPE, ftproxy::FtServant::wrap(servant));
    let ior = orb.ior(WORKER_TYPE, key);
    let ns = NamingClient::root(naming_host);
    // Bounded boot registration; see `NamingClient::bind_group_member_retry`.
    if ns
        .bind_group_member_retry(&mut orb, ctx, &worker_group(), &ior)?
        .is_err()
    {
        // Registration budget exhausted: an unregistered worker never
        // receives work — die instead of spinning.
        return Err(simnet::Killed);
    }
    orb.serve_forever(ctx, &poa)
}
