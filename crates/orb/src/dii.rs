//! The Dynamic Invocation Interface: request objects with deferred
//! (asynchronous) invocation.
//!
//! The paper uses DII request objects for asynchronous method invocation
//! and wraps them in *request proxies* for fault tolerance (§3, Fig. 2).
//! The distributed optimization manager fans one `solve` request out to
//! each worker via `send_deferred`, then collects results with
//! `get_response` — that is where the application's parallelism comes from.
//!
//! Wire compatibility: a DII request produces exactly the bytes a static
//! stub would, because its arguments are marshalled as the stub's are.

use cdr::{CdrEncoder, CdrRead, CdrWrite};
use simnet::{Ctx, SimResult};

use crate::core::Orb;
use crate::exceptions::{Exception, SystemException};
use crate::giop::{Body, Verbatim};
use crate::ior::Ior;

/// The lifecycle of a DII request.
#[derive(Debug, Clone, PartialEq)]
enum State {
    /// Arguments are still being added.
    Building,
    /// `send_deferred` has fired; the reply is outstanding.
    Sent { req_id: u64 },
    /// The outcome is available.
    Done(Result<Body, Exception>),
}

/// A dynamic request object (CORBA `Request`).
pub struct DiiRequest {
    target: Ior,
    operation: String,
    args: CdrEncoder,
    state: State,
}

impl DiiRequest {
    /// Create a request against `target` for `operation`.
    pub fn new(target: Ior, operation: impl Into<String>) -> Self {
        DiiRequest {
            target,
            operation: operation.into(),
            args: CdrEncoder::new(),
            state: State::Building,
        }
    }

    /// The operation name.
    pub fn operation(&self) -> &str {
        &self.operation
    }

    /// The target reference.
    pub fn target(&self) -> &Ior {
        &self.target
    }

    /// Append a statically-typed argument.
    ///
    /// # Panics
    /// If the request was already sent.
    pub fn add_typed<T: CdrWrite>(&mut self, arg: &T) -> &mut Self {
        assert_eq!(self.state, State::Building, "request already sent");
        arg.write(&mut self.args);
        self
    }

    /// Append an already-encoded parameter list. Only valid on an empty
    /// argument buffer (used by the fault-tolerant request proxies, which
    /// keep the encoded arguments around for re-sends).
    ///
    /// # Panics
    /// If the request was already sent or arguments were already added.
    pub fn add_encoded(&mut self, body: &[u8]) -> &mut Self {
        assert_eq!(self.state, State::Building, "request already sent");
        assert!(self.args.is_empty(), "add_encoded on non-empty arguments");
        self.args.write_raw(body);
        self
    }

    /// Fire the request without waiting (CORBA `send_deferred`).
    pub fn send_deferred(&mut self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<()> {
        assert_eq!(self.state, State::Building, "request already sent");
        let body = Verbatim(self.args.as_bytes());
        let req_id = orb.send_request(ctx, &self.target, &self.operation, &body, true)?;
        self.state = State::Sent { req_id };
        Ok(())
    }

    /// Non-blocking check (CORBA `poll_response`): has the outcome
    /// arrived? Never advances virtual time.
    pub fn poll_response(&mut self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<bool> {
        match self.state {
            State::Building => Ok(false),
            State::Done(_) => Ok(true),
            State::Sent { req_id } => match orb.poll_reply(ctx, req_id)? {
                None => Ok(false),
                Some(r) => {
                    self.state = State::Done(r);
                    Ok(true)
                }
            },
        }
    }

    /// Block for the outcome (CORBA `get_response`); once it is in, hand
    /// it back at once. `BAD_INV_ORDER` if the request was never sent.
    pub fn get_response(
        &mut self,
        orb: &mut Orb,
        ctx: &mut Ctx,
    ) -> SimResult<Result<Body, Exception>> {
        match self.state {
            State::Building => Ok(Err(Exception::System(SystemException::bad_inv_order(
                "get_response before send_deferred",
            )))),
            State::Done(ref r) => Ok(r.clone()),
            State::Sent { req_id } => {
                let r = orb.await_reply(ctx, req_id)?;
                self.state = State::Done(r.clone());
                Ok(r)
            }
        }
    }

    /// The outcome, decoded to a typed result, if it has arrived.
    pub fn result<T: CdrRead>(&self) -> Option<Result<T, Exception>> {
        match &self.state {
            State::Done(Ok(bytes)) => Some(
                cdr::from_bytes(bytes).map_err(|e| Exception::System(SystemException::marshal(e))),
            ),
            State::Done(Err(e)) => Some(Err(e.clone())),
            _ => None,
        }
    }

    /// Whether the outcome is available.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ior::ObjectKey;
    use simnet::{HostId, Port};

    fn target() -> Ior {
        Ior::new("IDL:T:1.0", HostId(0), Port(1), ObjectKey(1))
    }

    #[test]
    #[should_panic(expected = "request already sent")]
    fn add_typed_after_done_panics() {
        let mut r = DiiRequest::new(target(), "f");
        r.state = State::Done(Ok(Vec::new().into()));
        r.add_typed(&1i32);
    }

    #[test]
    fn result_decodes_done_state() {
        let mut r = DiiRequest::new(target(), "f");
        r.state = State::Done(Ok(cdr::to_bytes(&7.5f64).into()));
        assert_eq!(r.result::<f64>().unwrap().unwrap(), 7.5);
        assert!(r.is_done());
    }
}
