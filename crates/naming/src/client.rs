//! Typed client for the naming service, plus the bootstrap helper that
//! builds the initial root-context reference from just a host (the
//! `corbaloc::host:2809/NameService` convention).

use orb::{Exception, Ior, ObjectRef, Orb};
use simnet::{Ctx, HostId, SimDuration, SimResult};

use crate::name::Name;
use crate::protocol::CosNaming::NamingContextStub;
use crate::protocol::{AlreadyBound, NAMING_CONTEXT_TYPE, NAMING_PORT, ROOT_CONTEXT_KEY};

/// Boot-registration retry budget for the `*_retry` helpers. At the
/// [`REGISTER_BACKOFF`] pace this is a 60 s sim-time budget — orders of
/// magnitude beyond any boot sequence, so exhausting it means the naming
/// host is gone for good and the caller should stop pretending otherwise.
pub const REGISTER_MAX_ATTEMPTS: u32 = 600;

/// Backoff between boot-registration attempts.
pub const REGISTER_BACKOFF: SimDuration = SimDuration::from_millis(100);

/// The initial reference to the root context of the naming service on
/// `host` — what `resolve_initial_references("NameService")` would return.
pub fn initial_naming_ior(host: HostId) -> Ior {
    Ior::new(NAMING_CONTEXT_TYPE, host, NAMING_PORT, ROOT_CONTEXT_KEY)
}

/// Client for a naming context: the generated [`NamingContextStub`]
/// (`bind`, `rebind` and the group operations through `Deref`)
/// with the operations that answer object references returning usable
/// handles, plus the bounded boot-registration retries.
#[derive(Clone, Debug)]
pub struct NamingClient {
    stub: NamingContextStub,
}

impl std::ops::Deref for NamingClient {
    type Target = NamingContextStub;
    fn deref(&self) -> &NamingContextStub {
        &self.stub
    }
}

impl NamingClient {
    /// Wrap a context reference.
    pub fn new(obj: ObjectRef) -> Self {
        NamingClient {
            stub: NamingContextStub::new(obj),
        }
    }

    /// Client for the root context of the naming service on `host`.
    pub fn root(host: HostId) -> Self {
        NamingClient {
            stub: NamingContextStub::from_ior(initial_naming_ior(host)),
        }
    }

    /// `Object resolve(in Name n)`.
    pub fn resolve(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        name: &Name,
    ) -> SimResult<Result<ObjectRef, Exception>> {
        Ok(self.stub.resolve(orb, ctx, name)?.map(ObjectRef::new))
    }

    /// `rebind`, retried with backoff while the naming service boots.
    /// Bounded: after [`REGISTER_MAX_ATTEMPTS`] failures the last naming
    /// error is returned instead of spinning forever against a host that
    /// is never coming back.
    pub fn rebind_retry(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        name: &Name,
        ior: &Ior,
    ) -> SimResult<Result<(), Exception>> {
        let mut attempts = 0u32;
        loop {
            match self.stub.rebind(orb, ctx, name, ior)? {
                Ok(()) => return Ok(Ok(())),
                Err(e) if attempts + 1 >= REGISTER_MAX_ATTEMPTS => return Ok(Err(e)),
                Err(_naming_still_booting) => {
                    attempts += 1;
                    ctx.sleep(REGISTER_BACKOFF)?;
                }
            }
        }
    }

    /// `bind_group_member`, retried with backoff while the naming service
    /// boots, with the same [`REGISTER_MAX_ATTEMPTS`] budget as
    /// [`NamingClient::rebind_retry`]. An `AlreadyBound` reply means a
    /// previous incarnation's registration survived — success as far as
    /// boot is concerned.
    pub fn bind_group_member_retry(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        name: &Name,
        ior: &Ior,
    ) -> SimResult<Result<(), Exception>> {
        let mut attempts = 0u32;
        loop {
            match self.stub.bind_group_member(orb, ctx, name, ior)? {
                Ok(()) => return Ok(Ok(())),
                Err(e) if AlreadyBound::matches(&e) => return Ok(Ok(())),
                Err(e) if attempts + 1 >= REGISTER_MAX_ATTEMPTS => return Ok(Err(e)),
                Err(_naming_still_booting) => {
                    attempts += 1;
                    ctx.sleep(REGISTER_BACKOFF)?;
                }
            }
        }
    }
}
