//! Fault-tolerant **request proxies** for the Dynamic Invocation
//! Interface — the right-hand side of the paper's Fig. 2.
//!
//! A client using DII "does not call the server object's methods directly,
//! but uses so-called request objects instead … To enable fault tolerance
//! in this case, request proxies are used just like the object proxies."
//! An [`FtRequest`] wraps a [`DiiRequest`]: on a recoverable failure the
//! request is re-sent to a freshly resolved (or factory-created,
//! checkpoint-restored) replica; on success the proxy's
//! checkpoint-after-call policy runs.
//!
//! This is the crate's one recovery engine (DESIGN.md §3 has the state
//! diagram): a synchronous [`FtProxy::call`] is an `FtRequest` sent and
//! awaited at once, so both call styles count, publish and back off
//! identically.

use cdr::{CdrEncoder, CdrRead, CdrWrite};
use obs::EventBody;
use orb::{Body, DiiRequest, Exception, SystemException};
use simnet::{SimResult, SimTime};

use crate::proxy::{FtProxy, ProxyEnv};

/// Decode a reply body; a body that does not decode is `MARSHAL`.
pub(crate) fn decode_reply<R: CdrRead>(reply: Result<Body, Exception>) -> Result<R, Exception> {
    let bytes = reply?;
    cdr::from_bytes(&bytes).map_err(|e| Exception::System(SystemException::marshal(e)))
}

/// A fault-tolerant deferred request.
pub struct FtRequest {
    operation: String,
    body: Vec<u8>,
    args: Option<CdrEncoder>,
    inner: Option<DiiRequest>,
    /// Set when an argument is added after the request was sent; the
    /// outcome then becomes `BAD_INV_ORDER` instead of a panic.
    poisoned: bool,
    attempts: u32,
    done: Option<Result<Body, Exception>>,
    // Monitoring timestamps: request creation, the winning (re)send, and
    // the start of the current recovery episode, if any.
    started: Option<SimTime>,
    sent: Option<SimTime>,
    recovering_since: Option<SimTime>,
}

impl FtRequest {
    /// A new request for `operation`; add arguments, then `send_deferred`.
    pub fn new(operation: impl Into<String>) -> Self {
        FtRequest {
            operation: operation.into(),
            body: Vec::new(),
            args: Some(CdrEncoder::new()),
            inner: None,
            poisoned: false,
            attempts: 0,
            done: None,
            started: None,
            sent: None,
            recovering_since: None,
        }
    }

    /// A request over an already-encoded parameter list: what
    /// [`FtProxy::call_raw`] sends.
    pub(crate) fn with_body(operation: &str, body: Vec<u8>) -> Self {
        FtRequest {
            body,
            args: None,
            ..FtRequest::new(operation)
        }
    }

    /// Append a statically-typed argument.
    ///
    /// Adding an argument after the request was sent is a caller error;
    /// the chained `&mut Self` API cannot carry a `Result`, so the
    /// request is poisoned and its outcome becomes `BAD_INV_ORDER`.
    pub fn add_typed<T: CdrWrite>(&mut self, arg: &T) -> &mut Self {
        match self.args.as_mut() {
            Some(enc) => arg.write(enc),
            None => self.poisoned = true,
        }
        self
    }

    /// Replace the outcome with `BAD_INV_ORDER` if the builder was
    /// misused; returns whether it was.
    fn check_poisoned(&mut self) -> bool {
        if self.poisoned {
            self.done = Some(Err(Exception::System(SystemException::bad_inv_order(
                "argument added after send_deferred",
            ))));
        }
        self.poisoned
    }

    /// Fire the request at the proxy's current (or freshly acquired)
    /// target without waiting.
    pub fn send_deferred(&mut self, proxy: &mut FtProxy, env: &mut ProxyEnv<'_>) -> SimResult<()> {
        if self.check_poisoned() {
            return Ok(());
        }
        if let Some(enc) = self.args.take() {
            self.body = enc.into_bytes();
        }
        self.started.get_or_insert(env.ctx.now());
        if let Err(e) = self.try_send(proxy, env)? {
            self.settle(Err(e), proxy, env)?;
        }
        Ok(())
    }

    /// Acquire a target and fire the request at it. Acquiring can itself
    /// hit a dead replica or a dead factory: that is counted and handed
    /// back as this attempt's failure, like any other.
    fn try_send(
        &mut self,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<(), Exception>> {
        let target = match proxy.ensure_target(env)? {
            Ok(t) => t,
            Err(e) => {
                proxy.stats.target_failures += 1;
                return Ok(Err(e));
            }
        };
        let mut req = DiiRequest::new(target.ior, self.operation.clone());
        req.add_encoded(&self.body);
        self.sent = Some(env.ctx.now());
        req.send_deferred(env.orb, env.ctx)?;
        self.inner = Some(req);
        Ok(Ok(()))
    }

    /// Block until the outcome is available, recovering as needed.
    pub fn get_response(
        &mut self,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<Body, Exception>> {
        self.check_poisoned();
        loop {
            if let Some(done) = &self.done {
                return Ok(done.clone());
            }
            let Some(inner) = self.inner.as_mut() else {
                return Ok(Err(Exception::System(SystemException::bad_inv_order(
                    "get_response before send_deferred",
                ))));
            };
            let outcome = inner.get_response(env.orb, env.ctx)?;
            self.settle(outcome, proxy, env)?;
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

    /// A reply arrived: run the checkpoint policy. The call is done,
    /// counted and published, and its recovery episode closed, only once
    /// `after_success` lets it be; the episode ends at the reply.
    fn finish(
        &mut self,
        bytes: Body,
        proxy: &mut FtProxy,
        env: &mut ProxyEnv<'_>,
    ) -> SimResult<Result<(), Exception>> {
        let served = env.ctx.now();
        if let Err(e) = proxy.after_success(env)? {
            return Ok(Err(e));
        }
        if let Some(since) = self.recovering_since.take() {
            let dur_ns = served.since(since).as_nanos();
            env.orb.obs().observe("ft.recovery_ns", dur_ns);
            proxy.emit(env, |target| EventBody::RecoveryFinished { target, dur_ns });
        }
        proxy.stats.calls += 1;
        // Critical-path attribution: everything before the winning send
        // is queue-wait (backoff, resolve, factory creation, restore),
        // send-to-reply is service, and whatever `after_success` appended
        // is checkpoint overhead.
        let started = self.started.unwrap_or(served);
        let sent = self.sent.unwrap_or(served);
        let ckpt_ns = env.ctx.now().since(served).as_nanos();
        proxy.emit(env, |target| EventBody::RequestDone {
            target,
            wait_ns: sent.since(started).as_nanos(),
            service_ns: served.since(sent).as_nanos(),
            ckpt_ns,
        });
        self.done = Some(Ok(bytes));
        Ok(Ok(()))
    }

    /// The recovery engine: settle one attempt's outcome. Success runs
    /// the checkpoint policy and, unless the checkpoint fetch found the
    /// target dead, ends the request. A failure, while it is
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
    ) -> SimResult<()> {
        let mut failure = match outcome {
            Ok(bytes) => match self.finish(bytes, proxy, env)? {
                Ok(()) => return Ok(()),
                // The target died before its state was fetched: this
                // attempt failed, and the call is redone on a replica
                // restored to the state before it.
                Err(e) => e,
            },
            Err(e) => e,
        };
        // What it cost to learn that the target is gone: the failed
        // attempt, from its send to this verdict. (A failed acquire sent
        // nothing; its time is already inside the recovery episode.)
        if self.inner.take().is_some() && failure.is_recoverable() {
            if let Some(sent) = self.sent {
                env.orb
                    .obs()
                    .observe("ft.detect_ns", env.ctx.now().since(sent).as_nanos());
            }
        }
        loop {
            if !failure.is_recoverable() || self.attempts >= proxy.config().max_recoveries_per_call
            {
                self.done = Some(Err(failure));
                return Ok(());
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
                Ok(()) => return Ok(()),
                Err(e) => failure = e,
            }
        }
    }
}
