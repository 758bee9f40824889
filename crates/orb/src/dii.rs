//! The Dynamic Invocation Interface: request objects with deferred
//! (asynchronous) invocation.
//!
//! The paper uses DII request objects for asynchronous method invocation
//! and wraps them in *request proxies* for fault tolerance (§3, Fig. 2).
//! The distributed optimization manager fans one `solve` request out to
//! each worker via `send_deferred`, then collects results with
//! `get_response` — that is where the application's parallelism comes from.
//!
//! A request is sent when it is made: [`DiiRequest::send_deferred`] takes
//! the target, operation, arguments and any service contexts of the
//! caller's (the FT protocol's), so a request object is only ever
//! in flight or done. Its arguments are marshalled straight into the frame
//! through the path a static stub's call takes, so both produce the same
//! bytes (`tests/wire_goldens.rs` pins it).

use cdr::{CdrRead, CdrWrite};
use simnet::{Ctx, SimResult};

use crate::core::Orb;
use crate::exceptions::{Exception, SystemException};
use crate::giop::{Body, ServiceContext};
use crate::ior::Ior;

/// The lifecycle of a DII request: it is sent when it is made.
enum State {
    /// The reply is outstanding.
    Sent { req_id: u64 },
    /// The outcome is available.
    Done(Result<Body, Exception>),
}

/// A dynamic request object (CORBA `Request`).
pub struct DiiRequest {
    state: State,
}

impl DiiRequest {
    /// Marshal `args` straight into a request for `operation` on `target`,
    /// `contexts` after the current span's, and fire it without waiting
    /// (CORBA `send_deferred`).
    pub fn send_deferred(
        orb: &mut Orb,
        ctx: &mut Ctx,
        target: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        contexts: &[ServiceContext],
    ) -> SimResult<DiiRequest> {
        let wait = Some(orb.request_timeout());
        let req_id = orb.send_request(ctx, target, operation, args, wait, contexts)?;
        Ok(DiiRequest {
            state: State::Sent { req_id },
        })
    }

    /// Non-blocking check (CORBA `poll_response`): has the outcome
    /// arrived? Never advances virtual time.
    pub fn poll_response(&mut self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<bool> {
        match self.state {
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
    /// it back at once.
    pub fn get_response(
        &mut self,
        orb: &mut Orb,
        ctx: &mut Ctx,
    ) -> SimResult<Result<Body, Exception>> {
        match self.state {
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

    #[test]
    fn result_decodes_done_state() {
        let r = DiiRequest {
            state: State::Done(Ok(cdr::to_bytes(&7.5f64).into())),
        };
        assert_eq!(r.result::<f64>().unwrap().unwrap(), 7.5);
        assert!(r.is_done());
    }
}
