//! Per-host service factories.
//!
//! The paper's proxies "start a new server (using the checkpoint) in case
//! of a failure". Something must be able to start server objects on a
//! chosen host: the **service factory**, one per workstation. Recovery
//! resolves the factory group through the load-distributing naming
//! service, so replacement instances land on the currently
//! best-performing host.

use std::cell::RefCell;
use std::rc::Rc;

use cosnaming::{Name, NamingClient};
use orb::{CallCtx, Exception, Ior, ObjectKey, ObjectRef, Orb, Poa, Servant};
use simnet::{Ctx, HostId, SimResult};

use crate::protocol::FT::{self, ServiceFactorySkeleton, ServiceFactoryStub};

/// Repository id of the factory interface.
pub const FACTORY_TYPE: &str = ServiceFactoryStub::REPO_ID;

/// The group name all factories register under (resolved load-balanced).
pub fn factory_group() -> Name {
    Name::simple("Factories")
}

/// The per-host name of a factory (resolved when a specific host is
/// wanted).
pub fn factory_name(host: HostId) -> Name {
    Name::simple(format!("Factory-h{}", host.0))
}

/// Builds servants by service-type string. Returns the servant and its
/// repository type id.
pub type ServantBuilder =
    Box<dyn FnMut(&mut CallCtx<'_>, &str) -> Option<(Rc<RefCell<dyn Servant>>, String)>>;

/// The factory servant.
pub struct ServiceFactory {
    make: ServantBuilder,
    /// Instances created by this factory.
    pub created: u64,
}

impl ServiceFactory {
    /// A factory using the given builder.
    pub fn new(make: ServantBuilder) -> Self {
        ServiceFactory { make, created: 0 }
    }
}

impl FT::ServiceFactory for ServiceFactory {
    fn create(
        &mut self,
        call: &mut CallCtx<'_>,
        service_type: String,
    ) -> Result<(bool, Ior), Exception> {
        Ok(match (self.make)(call, &service_type) {
            Some((servant, type_id)) => {
                self.created += 1;
                let key = call.poa.activate(type_id.clone(), servant);
                (true, call.orb.ior(type_id, key))
            }
            None => (
                false,
                Ior::new("", simnet::HostId(0), simnet::Port(0), ObjectKey(0)),
            ),
        })
    }

    fn instances(&mut self, _call: &mut CallCtx<'_>) -> Result<u32, Exception> {
        Ok(self.created as u32)
    }
}

/// Client for a service factory: the generated [`ServiceFactoryStub`]
/// (`instances` through `Deref`) with `create` answering an `Option`.
#[derive(Clone, Debug)]
pub struct FactoryClient {
    stub: ServiceFactoryStub,
}

impl std::ops::Deref for FactoryClient {
    type Target = ServiceFactoryStub;
    fn deref(&self) -> &ServiceFactoryStub {
        &self.stub
    }
}

impl FactoryClient {
    /// Wrap a reference.
    pub fn new(obj: ObjectRef) -> Self {
        FactoryClient {
            stub: ServiceFactoryStub::new(obj),
        }
    }

    /// Create a new instance of `service_type` on the factory's host.
    pub fn create(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        service_type: &str,
    ) -> SimResult<Result<Option<Ior>, Exception>> {
        let r = self.stub.create(orb, ctx, service_type)?;
        Ok(r.map(|(ok, ior)| ok.then_some(ior)))
    }
}

/// The body of a factory process: serve `create` requests and register the
/// factory in the naming service (per-host name + the `Factories` group).
/// Serve spans are recorded into `obs` when present.
pub fn run_factory_obs(
    ctx: &mut Ctx,
    naming_host: HostId,
    make: ServantBuilder,
    obs: Option<obs::Obs>,
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::from_sink(obs, ctx));
    orb.listen(ctx)?;
    let poa = Poa::new();
    let servant = Rc::new(RefCell::new(ServiceFactorySkeleton(ServiceFactory::new(
        make,
    ))));
    let key = poa.activate(FACTORY_TYPE, servant);
    let ior = orb.ior(FACTORY_TYPE, key);

    let ns = NamingClient::root(naming_host);
    let host = ctx.host();
    // Register with the naming service, retrying (bounded) while it
    // boots. The per-host binding uses rebind to replace any stale
    // registration from a previous incarnation of this host.
    if ns
        .rebind_retry(&mut orb, ctx, &factory_name(host), &ior)?
        .is_err()
        || ns
            .bind_group_member_retry(&mut orb, ctx, &factory_group(), &ior)?
            .is_err()
    {
        // Registration budget exhausted: an unregistered factory can
        // never be asked to spawn anything — die instead of spinning.
        return Err(simnet::Killed);
    }
    orb.serve_forever(ctx, &poa)
}
