//! Fault-tolerant **request proxies** for the Dynamic Invocation
//! Interface — the right-hand side of the paper's Fig. 2.
//!
//! A client using DII "does not call the server object's methods directly,
//! but uses so-called request objects instead … To enable fault tolerance
//! in this case, request proxies are used just like the object proxies."
//! An [`FtRequest`] wraps a [`DiiRequest`]: on a recoverable failure the
//! request is re-sent to a freshly resolved (or factory-created) replica,
//! carrying the checkpoint it restores; on success the state the reply
//! brought back is stored when a checkpoint was due. Like a DII request it
//! is sent when it is made: [`FtRequest::send_deferred`] marshals the
//! arguments once and keeps them, and each (re)send writes them straight
//! into its frame, the proxy's FT service contexts after them.
//!
//! This is the crate's one recovery engine (DESIGN.md §3 has the state
//! diagram): a synchronous [`FtProxy::call`] is an `FtRequest` sent and
//! awaited at once, so both call styles count, publish, back off and trace
//! identically: one `ft.call:{op}` span, off the span stack while in
//! flight, so requests fanned out together are siblings.

use cdr::{CdrRead, CdrWrite};
use obs::{Detached, EventBody};
use orb::{Body, DiiRequest, Exception, SystemException, Verbatim};
use simnet::{SimResult, SimTime};

use crate::proxy::{Asked, FtProxy, ProxyEnv};

/// Decode a reply body; a body that does not decode is `MARSHAL`.
pub(crate) fn decode_reply<R: CdrRead>(reply: Result<Body, Exception>) -> Result<R, Exception> {
    let bytes = reply?;
    cdr::from_bytes(&bytes).map_err(|e| Exception::System(SystemException::marshal(e)))
}

/// A fault-tolerant deferred request. It is sent when it is made, so it is
/// only ever in flight or done.
pub struct FtRequest {
    call: Call,
    state: State,
    /// The request's `ft.call:{op}` span while the request is in flight.
    span: Option<Detached>,
}

/// Where a request stands.
enum State {
    /// Sent to the current target; the reply is outstanding.
    InFlight(DiiRequest),
    /// The outcome.
    Done(Result<Body, Exception>),
}

/// What a request keeps across its attempts.
struct Call {
    operation: String,
    /// The marshalled arguments, written into each (re)sent frame.
    body: Vec<u8>,
    attempts: u32,
    /// What the attempt in flight asked of its target.
    asked: Asked,
    // Monitoring timestamps: request creation, the winning (re)send, and
    // the start of the current recovery episode, if any.
    started: SimTime,
    sent: Option<SimTime>,
    recovering_since: Option<SimTime>,
}

impl FtRequest {
    /// Marshal `args` for `operation` and fire the request at the proxy's
    /// current (or freshly acquired) target without waiting.
    pub fn send_deferred<A: CdrWrite + ?Sized>(
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
        operation: &str,
        args: &A,
    ) -> SimResult<FtRequest> {
        let o = env.orb.obs().clone();
        o.begin(env.ctx.now(), format_args!("ft.call:{operation}"));
        let mut call = Call {
            operation: operation.into(),
            body: cdr::to_bytes(args),
            attempts: 0,
            asked: Asked::default(),
            started: env.ctx.now(),
            sent: None,
            recovering_since: None,
        };
        let state = match call.try_send(proxy, env)? {
            Ok(inner) => State::InFlight(inner),
            Err(e) => call.settle(Err(e), proxy, env)?,
        };
        let span = match &state {
            State::InFlight(_) => o.detach(),
            State::Done(out) => {
                o.finish(env.ctx.now(), out.is_ok());
                None
            }
        };
        Ok(FtRequest { call, state, span })
    }

    /// Block until the outcome is available, recovering as needed.
    pub fn get_response(
        &mut self,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<Body, Exception>> {
        let o = env.orb.obs().clone();
        let traced = self.span.take().map(|span| o.attach(span)).is_some();
        loop {
            let inner = match &mut self.state {
                State::Done(done) => {
                    if traced {
                        o.finish(env.ctx.now(), done.is_ok());
                    }
                    return Ok(done.clone());
                }
                State::InFlight(inner) => inner,
            };
            let outcome = inner.get_response(env.orb, env.ctx)?;
            self.state = self.call.settle(outcome, proxy, env)?;
        }
    }

    /// Typed variant of [`FtRequest::get_response`].
    pub fn get_response_typed<R: CdrRead>(
        &mut self,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<R, Exception>> {
        Ok(decode_reply(self.get_response(proxy, env)?))
    }
}

impl Call {
    /// Acquire a target and fire the request at it, the kept body written
    /// straight into the frame and the proxy's FT contexts after it.
    /// Acquiring can itself hit a dead replica or a dead factory: that is
    /// counted and handed back as this attempt's failure, like any other.
    fn try_send(
        &mut self,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<DiiRequest, Exception>> {
        let target = match proxy.ensure_target(env)? {
            Ok(t) => t,
            Err(e) => {
                proxy.stats.target_failures += 1;
                return Ok(Err(e));
            }
        };
        let (asked, contexts) = proxy.request_contexts();
        self.asked = asked;
        self.sent = Some(env.ctx.now());
        let args = Verbatim(&self.body);
        let req = DiiRequest::send_deferred(
            env.orb,
            env.ctx,
            &target.ior,
            &self.operation,
            &args,
            &contexts,
        )?;
        Ok(Ok(req))
    }

    /// A reply arrived: the restore it carried applied, and the state it
    /// asked for is stored. The call is done, counted and published, and
    /// its recovery episode closed, only once `after_success` lets it be;
    /// the episode ends at the reply.
    fn finish(
        &mut self,
        bytes: Body,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<Body, Exception>> {
        let served = env.ctx.now();
        if let Some(epoch) = self.asked.restore {
            proxy.restored(env, epoch);
        }
        if let Err(e) = proxy.after_success(env, &bytes, self.asked.checkpoint)? {
            return Ok(Err(e));
        }
        if let Some(since) = self.recovering_since.take() {
            let dur_ns = served.since(since).as_nanos();
            env.orb.obs().observe("ft.recovery_ns", dur_ns);
            proxy.emit(env, |target| EventBody::RecoveryFinished { target, dur_ns });
        }
        proxy.stats.calls += 1;
        // Critical-path attribution: everything before the winning send
        // is queue-wait (backoff, resolve, factory creation, locate),
        // send-to-reply is service, and whatever `after_success` appended
        // is checkpoint overhead.
        let started = self.started;
        let sent = self.sent.unwrap_or(served);
        let ckpt_ns = env.ctx.now().since(served).as_nanos();
        proxy.emit(env, |target| EventBody::RequestDone {
            target,
            wait_ns: sent.since(started).as_nanos(),
            service_ns: served.since(sent).as_nanos(),
            ckpt_ns,
        });
        Ok(Ok(bytes))
    }

    /// The recovery engine: settle one attempt's outcome. Success stores
    /// the state the reply brought and, unless the reply lacked the state
    /// it was asked for, ends the request. A failure, while it is
    /// recoverable and attempts remain, is published, the dead target is
    /// dropped, and the request is re-acquired and re-sent — at once the
    /// first time, after a backoff from then on, since a failed acquire
    /// is the next failure. Otherwise the failure is the request's
    /// outcome.
    fn settle(
        &mut self,
        outcome: Result<Body, Exception>,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<State> {
        let mut failure = match outcome {
            Ok(bytes) => match self.finish(bytes, proxy, env)? {
                Ok(bytes) => return Ok(State::Done(Ok(bytes))),
                // The state did not come back: this attempt failed, and
                // the call is redone on a replica restored to the state
                // before it.
                Err(e) => e,
            },
            Err(e) => e,
        };
        // What it cost to learn that the target is gone: the failed
        // attempt, from its send to this verdict. (A request whose first
        // acquire failed sent nothing; its time is already inside the
        // recovery episode.)
        if failure.is_recoverable() {
            if let Some(sent) = self.sent {
                env.orb
                    .obs()
                    .observe("ft.detect_ns", env.ctx.now().since(sent).as_nanos());
            }
        }
        loop {
            if !failure.is_recoverable() || self.attempts >= proxy.config().max_recoveries_per_call
            {
                return Ok(State::Done(Err(failure)));
            }
            self.attempts += 1;
            self.recovering_since.get_or_insert(env.ctx.now());
            proxy.emit(env, |target| EventBody::FailureDetected {
                target,
                reason: FtProxy::failure_reason(&failure),
            });
            let attempt = self.attempts;
            proxy.emit(env, |target| EventBody::RecoveryStarted { target, attempt });
            proxy.recover(env);
            // The first re-acquire goes out at once: the ladder paces
            // retries of a failed acquire, it does not delay the first.
            if self.attempts > 1 {
                proxy.backoff_sleep(env, self.attempts - 2)?;
            }
            match self.try_send(proxy, env)? {
                Ok(inner) => return Ok(State::InFlight(inner)),
                Err(e) => failure = e,
            }
        }
    }
}
