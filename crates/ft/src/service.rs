//! The checkpoint service's typed client. The servant is `ldft-store`'s
//! `StoreReplica`: alone, it is the paper's single service.

use cdr::Any;
use orb::{Exception, ObjectRef, Orb};
use simnet::{Ctx, SimDuration, SimResult};

use crate::protocol::Checkpoint;
use crate::protocol::FT::CheckpointServiceStub;

/// Repository id of the checkpoint service.
pub const CHECKPOINT_SERVICE_TYPE: &str = CheckpointServiceStub::REPO_ID;

/// The well-known name the checkpoint service is registered under.
pub const CHECKPOINT_SERVICE_NAME: &str = "CheckpointService";

/// Client for the checkpoint service: the generated
/// [`CheckpointServiceStub`] (`store` and `store_value` through `Deref`)
/// with the two `(found, value)` replies folded into `Option`s.
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
