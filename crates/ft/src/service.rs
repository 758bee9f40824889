//! The checkpoint service servant and its typed client.

use cdr::Any;
use cosnaming::{Name, NamingClient};
use orb::{CallCtx, Exception, ObjectRef, Orb, SystemException};
use simnet::{Ctx, HostId, SimDuration, SimResult};

use crate::checkpoint::{Backend, Checkpoint, MemBackend};
use crate::protocol::FT::{self, CheckpointServiceSkeleton, CheckpointServiceStub};

/// Repository id of the checkpoint service.
pub const CHECKPOINT_SERVICE_TYPE: &str = CheckpointServiceStub::REPO_ID;

/// The well-known name the checkpoint service is registered under.
pub const CHECKPOINT_SERVICE_NAME: &str = "CheckpointService";

/// Cost model of the store: the paper's implementation was "rather
/// inefficient" and "not optimized for speed in any way"; these knobs
/// reproduce that (and let the ablation benchmark show what optimizing
/// buys).
#[derive(Clone, Copy, Debug)]
pub struct StoreCosts {
    /// CPU work per bulk store/retrieve, plus per byte of state.
    pub bulk_fixed: f64,
    /// CPU work per state byte on the bulk path.
    pub bulk_per_byte: f64,
    /// CPU work per `store_value`/`retrieve_value` call. Deliberately
    /// expensive: the proof-of-concept stores values one at a time.
    pub value_fixed: f64,
}

impl Default for StoreCosts {
    fn default() -> Self {
        StoreCosts {
            bulk_fixed: 100e-6,
            bulk_per_byte: 5e-8, // ~20 MB/s
            value_fixed: 500e-6,
        }
    }
}

/// The checkpoint service servant.
pub struct CheckpointService {
    backend: Box<dyn Backend>,
    costs: StoreCosts,
    /// Bulk stores served.
    pub stores: u64,
    /// Per-value stores served.
    pub value_stores: u64,
}

impl CheckpointService {
    /// A service over the given backend.
    pub fn new(backend: Box<dyn Backend>, costs: StoreCosts) -> Self {
        CheckpointService {
            backend,
            costs,
            stores: 0,
            value_stores: 0,
        }
    }

    /// The paper's configuration: in-memory backend, default costs.
    pub fn in_memory() -> Self {
        CheckpointService::new(Box::new(MemBackend::new()), StoreCosts::default())
    }
}

fn io_err(e: std::io::Error) -> Exception {
    Exception::System(SystemException::new(
        orb::SysKind::Internal,
        orb::Completion::Maybe,
        format!("checkpoint store I/O error: {e}"),
    ))
}

fn killed() -> Exception {
    SystemException::comm_failure("killed").into()
}

/// What `retrieve` answers beside `false` when nothing is stored under
/// `object_id`.
pub fn no_checkpoint(object_id: String) -> Checkpoint {
    Checkpoint {
        object_id,
        epoch: cdr::Epoch::ZERO,
        state: Vec::new(),
        stamp_ns: 0,
    }
}

impl FT::CheckpointService for CheckpointService {
    fn store(&mut self, call: &mut CallCtx<'_>, c: Checkpoint) -> Result<(), Exception> {
        let work = self.costs.bulk_fixed + self.costs.bulk_per_byte * c.state.len() as f64;
        call.ctx.compute(work).map_err(|_| killed())?;
        self.stores += 1;
        self.backend.store(c).map_err(io_err)
    }

    fn retrieve(
        &mut self,
        call: &mut CallCtx<'_>,
        object_id: String,
    ) -> Result<(bool, Checkpoint), Exception> {
        let got = self.backend.retrieve(&object_id).map_err(io_err)?;
        let work = self.costs.bulk_fixed
            + self.costs.bulk_per_byte * got.as_ref().map_or(0, |c| c.state.len()) as f64;
        call.ctx.compute(work).map_err(|_| killed())?;
        Ok(match got {
            Some(c) => (true, c),
            None => (false, no_checkpoint(object_id)),
        })
    }

    fn delete(&mut self, _call: &mut CallCtx<'_>, object_id: String) -> Result<bool, Exception> {
        self.backend.delete(&object_id).map_err(io_err)
    }

    fn list(&mut self, _call: &mut CallCtx<'_>) -> Result<Vec<String>, Exception> {
        self.backend.list().map_err(io_err)
    }

    fn store_value(
        &mut self,
        call: &mut CallCtx<'_>,
        object_id: String,
        key: String,
        value: Any,
    ) -> Result<(), Exception> {
        call.ctx
            .compute(self.costs.value_fixed)
            .map_err(|_| killed())?;
        self.value_stores += 1;
        self.backend
            .store_value(&object_id, &key, value)
            .map_err(io_err)
    }

    fn retrieve_value(
        &mut self,
        call: &mut CallCtx<'_>,
        object_id: String,
        key: String,
    ) -> Result<(bool, Any), Exception> {
        call.ctx
            .compute(self.costs.value_fixed)
            .map_err(|_| killed())?;
        let got = self.backend.retrieve_value(&object_id, &key);
        Ok(match got.map_err(io_err)? {
            Some(v) => (true, v),
            None => (false, Any::boolean(false)),
        })
    }

    fn value_count(
        &mut self,
        _call: &mut CallCtx<'_>,
        object_id: String,
    ) -> Result<u32, Exception> {
        self.backend.value_count(&object_id).map_err(io_err)
    }
}

/// Client for the checkpoint service: the generated
/// [`CheckpointServiceStub`] (`store`, `delete`, `list`, `store_value`,
/// `value_count` through `Deref`) with the two `(found, value)` replies
/// folded into `Option`s.
///
/// Store operations carry their own reply deadline (`with_deadline`),
/// distinct from the proxy's call timeout: a slow store
/// must not masquerade as a dead worker, and a dead store must be detected
/// on the store's own latency envelope.
#[derive(Clone, Debug)]
pub struct CheckpointClient {
    stub: CheckpointServiceStub,
}

impl std::ops::Deref for CheckpointClient {
    type Target = CheckpointServiceStub;
    fn deref(&self) -> &CheckpointServiceStub {
        &self.stub
    }
}

impl CheckpointClient {
    /// Wrap a reference.
    pub fn new(obj: ObjectRef) -> Self {
        CheckpointClient {
            stub: CheckpointServiceStub::new(obj),
        }
    }

    /// Set a per-operation reply deadline for all store calls.
    pub fn with_deadline(self, deadline: Option<SimDuration>) -> Self {
        CheckpointClient {
            stub: self.stub.with_deadline(deadline),
        }
    }

    /// Point this client at another replica of the store, keeping the
    /// deadline.
    pub fn retarget(&mut self, obj: ObjectRef) {
        self.stub.obj = obj;
    }

    /// Retrieve a bulk checkpoint.
    pub fn retrieve(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        id: &str,
    ) -> SimResult<Result<Option<Checkpoint>, Exception>> {
        let r = self.stub.retrieve(orb, ctx, id)?;
        Ok(r.map(|(found, c)| found.then_some(c)))
    }

    /// Retrieve one named value.
    pub fn retrieve_value(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        id: &str,
        key: &str,
    ) -> SimResult<Result<Option<Any>, Exception>> {
        let r = self.stub.retrieve_value(orb, ctx, id, key)?;
        Ok(r.map(|(found, v)| found.then_some(v)))
    }
}

/// The body of a checkpoint server process: activate the servant, register
/// it under [`CHECKPOINT_SERVICE_NAME`] (rebinding, retried while naming
/// boots), serve forever. Serve spans are recorded into `obs` when present.
pub fn run_checkpoint_service(
    ctx: &mut Ctx,
    naming_host: HostId,
    service: CheckpointService,
    obs: Option<obs::Obs>,
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::from_sink(obs, ctx));
    orb.listen(ctx)?;
    let poa = orb::Poa::new();
    let servant = std::rc::Rc::new(std::cell::RefCell::new(CheckpointServiceSkeleton(service)));
    let key = poa.activate(CHECKPOINT_SERVICE_TYPE, servant);
    let ior = orb.ior(CHECKPOINT_SERVICE_TYPE, key);
    let name = Name::simple(CHECKPOINT_SERVICE_NAME);
    if NamingClient::root(naming_host)
        .rebind_retry(&mut orb, ctx, &name, &ior)?
        .is_err()
    {
        // Registration budget exhausted: an unregistered store never
        // receives checkpoints — die instead of spinning.
        return Err(simnet::Killed);
    }
    orb.serve_forever(ctx, &poa)
}
