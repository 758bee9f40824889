//! `ObjectRef`: the client-side handle to a remote object. The typed stubs
//! `idlc` generates are thin wrappers over this.

use cdr::{CdrRead, CdrWrite};
use simnet::{Ctx, SimDuration, SimResult};

use crate::core::Orb;
use crate::exceptions::{Exception, SystemException};
use crate::ior::Ior;

/// A client-side reference to one CORBA object.
#[derive(Clone, PartialEq, Debug)]
pub struct ObjectRef {
    /// The interoperable reference this handle denotes.
    pub ior: Ior,
}

impl ObjectRef {
    /// Wrap an IOR.
    pub fn new(ior: Ior) -> Self {
        ObjectRef { ior }
    }

    /// Invoke `operation` with typed in-parameters and a typed result.
    /// This is the call path every static stub uses: `args` are marshalled
    /// straight into the request frame, and the result is decoded from the
    /// reply frame it arrived in.
    pub fn call<A: CdrWrite, R: CdrRead>(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        operation: &str,
        args: &A,
    ) -> SimResult<Result<R, Exception>> {
        self.call_with_timeout(orb, ctx, operation, args, None)
    }

    /// [`ObjectRef::call`] with a per-call reply deadline overriding the
    /// ORB-wide `request_timeout` (used where one client talks to services
    /// with different latency envelopes, e.g. worker vs checkpoint store).
    pub fn call_with_timeout<A: CdrWrite, R: CdrRead>(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        operation: &str,
        args: &A,
        timeout: Option<SimDuration>,
    ) -> SimResult<Result<R, Exception>> {
        match orb.invoke_with_timeout(ctx, &self.ior, operation, args, timeout)? {
            Ok(bytes) => {
                Ok(cdr::from_bytes(&bytes)
                    .map_err(|e| Exception::System(SystemException::marshal(e))))
            }
            Err(e) => Ok(Err(e)),
        }
    }

    /// Invoke a `oneway` operation (fire and forget).
    pub fn oneway<A: CdrWrite>(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        operation: &str,
        args: &A,
    ) -> SimResult<()> {
        orb.invoke_oneway(ctx, &self.ior, operation, args, &[])
    }
}
