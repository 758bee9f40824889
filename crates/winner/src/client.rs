//! The system manager's typed client and its server process body.

use orb::{Exception, Ior, ObjectRef, Orb};
use simnet::{Ctx, SimResult};

use crate::protocol::{
    SelectRequest, SystemManagerSkeleton, SystemManagerStub, SYSTEM_MANAGER_TYPE,
};
use crate::system_manager::SystemManager;

/// Client for `Winner::SystemManager`: the generated stub (`report`,
/// `snapshot` through `Deref`) with `select` answering an `Option`.
#[derive(Clone, Debug)]
pub struct SystemManagerClient {
    stub: SystemManagerStub,
}

impl std::ops::Deref for SystemManagerClient {
    type Target = SystemManagerStub;
    fn deref(&self) -> &SystemManagerStub {
        &self.stub
    }
}

impl SystemManagerClient {
    /// Wrap a reference.
    pub fn new(obj: ObjectRef) -> Self {
        SystemManagerClient {
            stub: SystemManagerStub::new(obj),
        }
    }

    /// Wrap an IOR.
    pub fn from_ior(ior: Ior) -> Self {
        SystemManagerClient {
            stub: SystemManagerStub::from_ior(ior),
        }
    }

    /// Best host among `candidates` (empty = any), or `None` when no
    /// candidate has fresh load data.
    pub fn select(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        candidates: &[u32],
    ) -> SimResult<Result<Option<u32>, Exception>> {
        let req = SelectRequest {
            candidates: candidates.to_vec(),
        };
        let r = self.stub.select(orb, ctx, &req)?;
        Ok(r.map(|(found, host)| found.then_some(host)))
    }
}

/// The body of a system manager server process: activate the servant,
/// publish its IOR through `publish`, then serve forever. Serve spans and
/// selection metrics are recorded into `obs` when present, placements are
/// emitted to `monitor`.
pub fn run_system_manager_obs(
    ctx: &mut Ctx,
    monitor: Option<monitor::MonitorHandle>,
    policy: Box<dyn crate::policy::SelectionPolicy>,
    obs: Option<obs::Obs>,
    publish: impl FnOnce(Ior),
) -> SimResult<()> {
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::from_sink(obs, ctx));
    orb.listen(ctx)?;
    let poa = orb::Poa::new();
    let manager = SystemManager::new(monitor, policy);
    let servant = std::rc::Rc::new(std::cell::RefCell::new(SystemManagerSkeleton(manager)));
    let key = poa.activate(SYSTEM_MANAGER_TYPE, servant);
    publish(orb.ior(SYSTEM_MANAGER_TYPE, key));
    orb.serve_forever(ctx, &poa)
}
