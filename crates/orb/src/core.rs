//! The ORB itself: client invocation path, server dispatch loop, and the
//! message pump connecting both to the simulated network.
//!
//! One [`Orb`] lives in each process that speaks CORBA. A pure client never
//! listens; a server calls [`Orb::listen`] and then [`Orb::serve_forever`]
//! (or [`Orb::serve_one`]). A process can be both — a servant may make
//! nested outgoing calls through [`CallCtx::orb`](crate::poa::CallCtx)
//! while inbound requests queue behind it, exactly like a single-threaded
//! ORB mainloop.
//!
//! # Failure semantics
//!
//! * Request to a **dead server process** (host up): the simulated network
//!   bounces an RST and the client raises `COMM_FAILURE` after one RTT.
//! * Request to a **crashed host** or across a partition: silence. Once
//!   the reply is late by the endpoint's own round-trip history the client
//!   asks the peer's *host* with keepalive probes ([`Ctx::probe`]): an
//!   answer means the server is slow, not gone, and the client waits on;
//!   [`PROBES`] silences in a row raise `COMM_FAILURE` "peer unreachable".
//!   See [`Rtt`] for the clock. An endpoint that never answered has no
//!   history to scale by: there, and for a peer whose host keeps answering
//!   while its server says nothing, `COMM_FAILURE` comes when the request
//!   timeout expires — unless its host was found silent since it last
//!   answered anything: then the host is probed at once.
//! * Object key unknown to a live server (e.g. minted by an earlier
//!   incarnation of it): `OBJECT_NOT_EXIST`.
//!
//! These are exactly the error surfaces the paper's fault-tolerant proxies
//! are built against.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cdr::CdrWrite;
use simnet::{Addr, Ctx, HostId, Pid, Port, SimDuration, SimResult, SimTime};

use obs::{ProcessObs, SpanContext, TRACE_CONTEXT_ID};

use crate::exceptions::{Exception, SystemException};
use crate::giop::{Body, Message, ReplyBody, ServiceContext};
use crate::ior::{Ior, ObjectKey};
use crate::poa::{CallCtx, Poa};

/// Fixed CPU work per marshal or demarshal step (one per message end), in
/// work units (seconds on a speed-1.0 host): plausible for a late-90s ORB
/// on a late-90s workstation. The paper observes that the
/// proxy/checkpoint "overhead is constant for each method call"; this is
/// that constant.
const MARSHAL_FIXED: f64 = 60e-6;
/// CPU work per payload byte: ~50 MB/s marshalling throughput.
const MARSHAL_PER_BYTE: f64 = 2e-8;

/// Work units for one marshal/demarshal step (one per message end) of
/// `bytes` payload bytes.
fn marshal_step(bytes: usize) -> f64 {
    MARSHAL_FIXED + MARSHAL_PER_BYTE * bytes as f64
}

/// ORB configuration.
#[derive(Clone, Debug)]
pub struct OrbConfig {
    /// How long a synchronous call waits for a reply before raising
    /// `COMM_FAILURE`. (CORBA 2 had no TIMEOUT exception; timeouts surface
    /// as communication failures, which is what the paper's proxies catch.)
    /// It bounds a live-but-stuck peer and a first contact; a peer that has
    /// answered before and falls silent is found out sooner (module docs).
    pub request_timeout: SimDuration,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            request_timeout: SimDuration::from_millis(2000),
        }
    }
}

/// Counters the ORB accumulates; used by benchmarks and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrbStats {
    /// Synchronous/deferred requests sent.
    pub requests_sent: u64,
    /// Oneway requests sent.
    pub oneways_sent: u64,
    /// `COMM_FAILURE`s raised on the client path.
    pub comm_failures: u64,
    /// Frames that failed to parse (dropped unanswered).
    pub protocol_errors: u64,
    /// Keepalive probes sent because a reply was late.
    pub probes_sent: u64,
    /// Replies dropped on arrival: their request had already failed.
    pub late_replies: u64,
}

struct Pending {
    endpoint: (HostId, Port),
    sent: SimTime,
    deadline: SimTime,
}

/// Why a pending request failed. Each is a `COMM_FAILURE` to the caller.
#[derive(Clone, Copy)]
enum Failure {
    /// The deadline passed: the peer had no history, or its host kept
    /// answering probes while the reply never came.
    TimedOut,
    /// The peer's host answered with an RST: nothing listens on the port.
    Refused,
    /// [`PROBES`] keepalives in a row went unanswered.
    Unreachable,
    UnknownRequest,
}

impl Failure {
    fn detail(self) -> &'static str {
        match self {
            Failure::TimedOut => "request timed out",
            Failure::Refused => "connection refused",
            Failure::Unreachable => "peer unreachable",
            Failure::UnknownRequest => "await_reply on unknown request",
        }
    }

    fn counter(self) -> Option<&'static str> {
        match self {
            Failure::TimedOut => Some("orb.timeouts"),
            Failure::Refused => Some("orb.rsts"),
            Failure::Unreachable => Some("orb.unreachable"),
            Failure::UnknownRequest => None,
        }
    }
}

/// How far the suspicion of one awaited request has got.
#[derive(Default)]
struct Suspicion {
    /// Set when the peer's host answered a keepalive: when the reply, if
    /// still missing, becomes suspicious again.
    again_at: Option<SimTime>,
    /// The probe round under way: keepalives sent, and when the newest is
    /// given up on.
    round: Option<(u32, SimTime)>,
}

/// Keepalives sent, one after the other, before a silent host is declared
/// unreachable. The first waits twice the smallest round trip the endpoint
/// ever showed and each next one twice as long as the one before; an
/// answer to *any* of them counts until the last wait is over. So a false
/// verdict needs five keepalives (or their answers) lost in a row, and the
/// last one alone rides out a 32-fold jump of the path's round trip — at
/// the price of 62 smallest round trips of silence before a dead host is
/// called dead.
const PROBES: u32 = 5;

/// The round-trip history of one endpoint: Jacobson/Karels smoothed mean
/// and deviation (gains ⅛ and ¼, as TCP's RFC 6298) of request-to-reply
/// times, and the smallest round trip seen, in nanoseconds.
///
/// A round trip here includes the servant's work, so the deviation term
/// does what it does for TCP: an endpoint whose calls vary is given more
/// time before silence means anything.
#[derive(Clone, Copy)]
struct Rtt {
    srtt: u64,
    rttvar: u64,
    min: u64,
}

impl Rtt {
    fn first(sample: u64) -> Rtt {
        Rtt {
            srtt: sample,
            rttvar: sample / 2,
            min: sample,
        }
    }

    fn update(&mut self, sample: u64) {
        self.rttvar = self.rttvar - self.rttvar / 4 + self.srtt.abs_diff(sample) / 4;
        self.srtt = self.srtt - self.srtt / 8 + sample / 8;
        self.min = self.min.min(sample);
    }

    /// How long after sending a missing reply becomes suspicious: twice
    /// the mean plus four deviations. TCP retransmits at mean + 4 dev; the
    /// extra mean is because a wrong guess here interrupts nobody — it
    /// costs two kernel messages — but should still be rare on a steady
    /// endpoint, whose deviation decays to nothing.
    fn patience(&self) -> SimDuration {
        SimDuration::from_nanos(2 * self.srtt + 4 * self.rttvar)
    }

    /// How long keepalive number `n` (from 0) of a round is waited for.
    fn probe_wait(&self, n: u32) -> SimDuration {
        SimDuration::from_nanos(self.min).saturating_mul(2 << n)
    }
}

/// A server-bound message awaiting `serve_one`: who sent it, its fields,
/// and — for a request — its parameters where the frame delivered them.
struct Inbound {
    from: Pid,
    msg: Message,
    body: Body,
}

/// The Object Request Broker for one simulated process.
pub struct Orb {
    cfg: OrbConfig,
    host: HostId,
    port: Option<Port>,
    next_req: u64,
    /// Inbound server-bound messages awaiting `serve_one`.
    backlog: VecDeque<Inbound>,
    /// Replies that arrived for requests other than the one being awaited.
    replies: BTreeMap<u64, Result<Body, Exception>>,
    /// Requests in flight (synchronous or deferred).
    pending: BTreeMap<u64, Pending>,
    /// Endpoints that bounced an RST.
    rsts: BTreeSet<(HostId, Port)>,
    /// Endpoints whose host answered a keepalive probe.
    alive: BTreeSet<(HostId, Port)>,
    /// Round-trip history per endpoint that has ever replied.
    rtt: BTreeMap<(HostId, Port), Rtt>,
    /// Hosts whose probes went unanswered, with the history that timed
    /// them; a host leaves when it answers a probe or a request again.
    silent: BTreeMap<HostId, Rtt>,
    stats: OrbStats,
    obs: ProcessObs,
}

impl Orb {
    /// Create an ORB for the current process.
    pub fn new(ctx: &Ctx, cfg: OrbConfig) -> Self {
        Orb {
            cfg,
            host: ctx.host(),
            port: None,
            next_req: 1,
            backlog: VecDeque::new(),
            replies: BTreeMap::new(),
            pending: BTreeMap::new(),
            rsts: BTreeSet::new(),
            alive: BTreeSet::new(),
            rtt: BTreeMap::new(),
            silent: BTreeMap::new(),
            stats: OrbStats::default(),
            obs: ProcessObs::default(),
        }
    }

    /// Create an ORB with default configuration.
    pub fn init(ctx: &Ctx) -> Self {
        Orb::new(ctx, OrbConfig::default())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> OrbStats {
        self.stats
    }

    /// Replies held for a caller that has not asked for them yet.
    #[cfg(test)]
    pub(crate) fn stashed_replies(&self) -> usize {
        self.replies.len()
    }

    /// Replace the observability handle (a new ORB's records nothing).
    /// With a sink the ORB propagates spans over the wire — a request
    /// carries the current span as a [`TRACE_CONTEXT_ID`] service context,
    /// and each served request is a `serve:{operation}` span under its
    /// caller's — and records its own metrics (invoke latency, timeouts,
    /// RSTs).
    pub fn set_obs(&mut self, po: ProcessObs) {
        self.obs = po;
    }

    /// The observability handle. Application code above the ORB (naming,
    /// FT proxies, managers) records through this; without a sink it
    /// records nothing.
    pub fn obs(&self) -> &ProcessObs {
        &self.obs
    }

    // ------------------------------------------------------------------
    // Server side
    // ------------------------------------------------------------------

    /// Bind an ephemeral listening port. Required before building IORs or
    /// serving.
    pub fn listen(&mut self, ctx: &mut Ctx) -> SimResult<Port> {
        let port = ctx.bind_port()?;
        self.port = Some(port);
        Ok(port)
    }

    /// Bind a well-known listening port (e.g. 2809 for the naming
    /// service). Returns `None` if the port is taken.
    pub fn listen_on(&mut self, ctx: &mut Ctx, port: Port) -> SimResult<Option<Port>> {
        let got = ctx.bind_port_exact(port)?;
        if let Some(p) = got {
            self.port = Some(p);
        }
        Ok(got)
    }

    /// The bound listening endpoint, if any.
    pub fn endpoint(&self) -> Option<(HostId, Port)> {
        self.port.map(|p| (self.host, p))
    }

    /// Build a reference to an object activated in this process.
    ///
    /// # Panics
    /// If the ORB is not listening.
    #[expect(
        clippy::expect_used,
        reason = "P1 waiver, documented API contract: minting an IOR before listen() has no meaningful endpoint to encode; returning Result would push an unreachable error arm into every server; re-audited 2026-08, expiry 2027-06"
    )]
    pub fn ior(&self, type_id: impl Into<String>, key: ObjectKey) -> Ior {
        let port = self.port.expect("Orb::ior requires listen() first");
        Ior::new(type_id, self.host, port, key)
    }

    /// Serve inbound requests until killed. The usual tail of a server
    /// process body.
    pub fn serve_forever(&mut self, ctx: &mut Ctx, poa: &Poa) -> SimResult<()> {
        loop {
            self.serve_one(ctx, poa)?;
        }
    }

    /// Block for one inbound message and handle it.
    pub fn serve_one(&mut self, ctx: &mut Ctx, poa: &Poa) -> SimResult<()> {
        loop {
            if let Some(inbound) = self.backlog.pop_front() {
                self.handle_inbound(ctx, poa, inbound)?;
                return Ok(());
            }
            let msg = ctx.recv()?;
            self.absorb(ctx.now(), msg);
        }
    }

    fn handle_inbound(&mut self, ctx: &mut Ctx, poa: &Poa, inbound: Inbound) -> SimResult<()> {
        let Inbound { from, msg, body } = inbound;
        match msg {
            Message::Request {
                request_id,
                response_expected,
                object_key,
                operation,
                service_contexts,
                ..
            } => {
                // Demarshal cost for the request body.
                ctx.compute(marshal_step(body.len()))?;
                let parent = service_contexts
                    .iter()
                    .find(|sc| sc.id == TRACE_CONTEXT_ID)
                    .and_then(|sc| SpanContext::from_bytes(&sc.data));
                self.obs
                    .begin_remote(ctx.now(), format_args!("serve:{operation}"), parent);
                let result = match poa.lookup(object_key) {
                    None => Err(Exception::System(SystemException::object_not_exist(
                        format!("{object_key:?}"),
                    ))),
                    Some((servant, _tid)) => {
                        let mut call = CallCtx {
                            ctx,
                            orb: self,
                            poa,
                            from,
                            key: object_key,
                            args: &body,
                            contexts: &service_contexts,
                            reply_contexts: Vec::new(),
                        };
                        let mut s = servant.borrow_mut();
                        let out = s.dispatch(&mut call, &operation, &body);
                        out.map(|body| (body, call.reply_contexts))
                    }
                };
                let ok = result.is_ok();
                if response_expected {
                    let (status, service_contexts) = match result {
                        Ok((body, contexts)) => (ReplyBody::NoException(body), contexts),
                        Err(Exception::User(u)) => (ReplyBody::UserException(u), Vec::new()),
                        Err(Exception::System(s)) => (ReplyBody::SystemException(s), Vec::new()),
                    };
                    let frame = Message::Reply {
                        request_id,
                        status,
                        service_contexts,
                    }
                    .encode();
                    ctx.compute(marshal_step(frame.len()))?;
                    ctx.send(Addr::Pid(from), frame)?;
                }
                self.obs.finish(ctx.now(), ok);
                Ok(())
            }
            Message::LocateRequest {
                request_id,
                object_key,
            } => {
                let frame = Message::LocateReply {
                    request_id,
                    found: poa.contains(object_key),
                }
                .encode();
                ctx.send(Addr::Pid(from), frame)?;
                Ok(())
            }
            Message::Reply { .. } | Message::LocateReply { .. } => {
                // absorb() routes replies away from the backlog; reaching
                // here is a routing bug. Drop the frame rather than
                // panicking the sim — a reply nobody waits for is inert.
                debug_assert!(false, "absorb() routes replies away from the backlog");
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    /// Synchronously invoke `operation` on the object `ior` refers to.
    /// `args` are marshalled straight into the request frame, and the
    /// reply's result is read where its frame delivered it. `timeout`
    /// overrides the configured `request_timeout` for this call: the FT
    /// checkpoint client uses it so a slow store does not masquerade as a
    /// dead worker (and vice versa). The outer `Result` is the simulation
    /// liveness (`Err(Killed)` when this process dies); the inner is the
    /// CORBA outcome.
    pub fn invoke_with_timeout(
        &mut self,
        ctx: &mut Ctx,
        ior: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        timeout: Option<SimDuration>,
    ) -> SimResult<Result<Body, Exception>> {
        let start = ctx.now();
        let wait = timeout.unwrap_or(self.cfg.request_timeout);
        let req_id = self.send_request(ctx, ior, operation, args, Some(wait), &[])?;
        let out = self.await_reply(ctx, req_id)?;
        self.obs
            .observe("orb.invoke_ns", ctx.now().since(start).as_nanos());
        Ok(out)
    }

    /// The configured `request_timeout`: how long a reply is awaited.
    pub(crate) fn request_timeout(&self) -> SimDuration {
        self.cfg.request_timeout
    }

    /// Send a request frame, `args` marshalled straight into it, under the
    /// current span and with the caller's `contexts` after the span's. With
    /// a `wait` a response is awaited that long; without one the request is
    /// a oneway. Returns the request id.
    pub(crate) fn send_request(
        &mut self,
        ctx: &mut Ctx,
        target: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        wait: Option<SimDuration>,
        contexts: &[ServiceContext],
    ) -> SimResult<u64> {
        // The span this request is made under rides on its frame.
        let mut service_contexts = match self.obs.current() {
            Some(cur) => vec![ServiceContext {
                id: TRACE_CONTEXT_ID,
                data: cur.to_bytes(),
            }],
            None => Vec::new(),
        };
        service_contexts.extend_from_slice(contexts);
        self.send_frame(ctx, target, wait, true, |req_id| {
            Message::encode_call(
                req_id,
                wait.is_some(),
                target.key,
                operation,
                args,
                &service_contexts,
            )
        })
    }

    /// The one place a request is tracked: send the frame `encode` writes
    /// for a fresh request id to `target`, after a marshal step for it if
    /// `marshal`. With a `wait` the request is pending until its reply (or
    /// failure) is taken or `wait` runs out; without one it is a oneway.
    /// Returns the request id.
    fn send_frame(
        &mut self,
        ctx: &mut Ctx,
        target: &Ior,
        wait: Option<SimDuration>,
        marshal: bool,
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> SimResult<u64> {
        let endpoint = (target.host, target.port);
        // About to find out whether the endpoint is alive: drop stale RSTs.
        self.rsts.remove(&endpoint);
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = encode(req_id);
        if marshal {
            ctx.compute(marshal_step(frame.len()))?;
        }
        match wait {
            Some(wait) => {
                self.stats.requests_sent += 1;
                self.pending.insert(
                    req_id,
                    Pending {
                        endpoint,
                        sent: ctx.now(),
                        deadline: ctx.now() + wait,
                    },
                );
            }
            None => self.stats.oneways_sent += 1,
        }
        ctx.send(Addr::Endpoint(target.host, target.port), frame)?;
        Ok(req_id)
    }

    /// Block until the reply for `req_id` arrives (or fails). This is the
    /// only place a client blocks ([`Orb::locate`] waits here too), so
    /// every caller times silence the same way (module docs).
    pub(crate) fn await_reply(
        &mut self,
        ctx: &mut Ctx,
        req_id: u64,
    ) -> SimResult<Result<Body, Exception>> {
        let mut suspicion = Suspicion::default();
        loop {
            if let Some(outcome) = self.check_pending(ctx, req_id)? {
                return Ok(outcome);
            }
            let Some(p) = self.pending.get(&req_id) else {
                // Unknown request id: bookkeeping bug. Surface it as a
                // COMM_FAILURE on this call instead of panicking.
                return Ok(self.fail_pending(req_id, Failure::UnknownRequest));
            };
            let (endpoint, sent, deadline) = (p.endpoint, p.sent, p.deadline);
            let now = ctx.now();
            if now >= deadline {
                return Ok(self.fail_pending(req_id, Failure::TimedOut));
            }
            let mut wake = deadline;
            // An endpoint that never replied has no history to scale
            // silence by; the deadline is its only clock (TCP's initial RTO).
            // Its host may have been found silent since, though (a new
            // endpoint on a crashed host): then its silence is suspect at
            // once, and probed on the clock that found the host silent.
            let rtt = self.rtt.get(&endpoint).copied().or_else(|| {
                let silent = self.silent.get(&endpoint.0)?;
                Some(Rtt {
                    srtt: 0,
                    rttvar: 0,
                    ..*silent
                })
            });
            if let Some(rtt) = rtt {
                match self.probe_when_due(ctx, endpoint, sent, rtt, &mut suspicion)? {
                    Some(until) => wake = wake.min(until),
                    None => {
                        self.silent.insert(endpoint.0, rtt);
                        return Ok(self.fail_pending(req_id, Failure::Unreachable));
                    }
                }
            }
            // A timeout needs no arm: the loop reads the clock.
            if let Some(msg) = ctx.recv_timeout(wake.since(now))? {
                self.absorb(ctx.now(), msg);
            }
        }
    }

    /// No reply yet from `endpoint` to the request sent at `sent`: send
    /// the next keepalive if one is due, and say until when the silence is
    /// unremarkable — `None` once [`PROBES`] keepalives went unanswered.
    fn probe_when_due(
        &mut self,
        ctx: &mut Ctx,
        endpoint: (HostId, Port),
        sent: SimTime,
        rtt: Rtt,
        s: &mut Suspicion,
    ) -> SimResult<Option<SimTime>> {
        let now = ctx.now();
        if s.round.is_some() && self.alive.remove(&endpoint) {
            // Slow, not gone: it gets as long again as it has had.
            s.round = None;
            s.again_at = Some(now + now.since(sent));
        }
        let suspect_at = s.again_at.unwrap_or(sent + rtt.patience());
        let probes = match s.round {
            None if now < suspect_at => return Ok(Some(suspect_at)),
            Some((_, until)) if now < until => return Ok(Some(until)),
            Some((PROBES, _)) => return Ok(None),
            None => {
                self.alive.remove(&endpoint); // an answer left from an earlier round
                0
            }
            Some((probes, _)) => probes,
        };
        ctx.probe(endpoint.0, endpoint.1)?;
        self.stats.probes_sent += 1;
        self.obs.counter_add("orb.probes", 1);
        let until = now + rtt.probe_wait(probes);
        s.round = Some((probes + 1, until));
        Ok(Some(until))
    }

    /// Non-blocking: has the reply for `req_id` arrived (or its endpoint
    /// failed)? Drains the mailbox without advancing time.
    pub(crate) fn poll_reply(
        &mut self,
        ctx: &mut Ctx,
        req_id: u64,
    ) -> SimResult<Option<Result<Body, Exception>>> {
        while let Some(msg) = ctx.try_recv()? {
            self.absorb(ctx.now(), msg);
        }
        if let Some(outcome) = self.check_pending(ctx, req_id)? {
            return Ok(Some(outcome));
        }
        // A deferred request can also "complete" by timing out.
        if let Some(p) = self.pending.get(&req_id) {
            if ctx.now() >= p.deadline {
                return Ok(Some(self.fail_pending(req_id, Failure::TimedOut)));
            }
        }
        Ok(None)
    }

    /// Check stashed replies and RSTs for a pending request.
    fn check_pending(
        &mut self,
        ctx: &mut Ctx,
        req_id: u64,
    ) -> SimResult<Option<Result<Body, Exception>>> {
        if let Some(outcome) = self.replies.remove(&req_id) {
            self.pending.remove(&req_id);
            if let Ok(body) = &outcome {
                ctx.compute(marshal_step(body.demarshalled_len()))?;
            }
            return Ok(Some(outcome));
        }
        if let Some(p) = self.pending.get(&req_id) {
            if self.rsts.contains(&p.endpoint) {
                return Ok(Some(self.fail_pending(req_id, Failure::Refused)));
            }
        }
        Ok(None)
    }

    fn fail_pending(&mut self, req_id: u64, why: Failure) -> Result<Body, Exception> {
        self.pending.remove(&req_id);
        self.stats.comm_failures += 1;
        self.obs.counter_add("orb.comm_failures", 1);
        if let Some(counter) = why.counter() {
            self.obs.counter_add(counter, 1);
        }
        Err(Exception::System(SystemException::comm_failure(
            why.detail(),
        )))
    }

    /// Route one raw network message received at `now`: replies, RSTs and
    /// keepalive answers are recorded, server-bound messages are queued
    /// for `serve_one`. A frame is parsed where it lies and its body stays
    /// in it; one that does not parse is counted and dropped.
    fn absorb(&mut self, now: SimTime, msg: simnet::Msg) {
        let frame = match msg.payload {
            simnet::Payload::Rst { host, port } => {
                self.rsts.insert((host, port));
                return;
            }
            simnet::Payload::Alive { host, port } => {
                self.alive.insert((host, port));
                self.silent.remove(&host);
                return;
            }
            simnet::Payload::Data(frame) => frame,
        };
        let Ok((parsed, range)) = Message::parse(&frame) else {
            self.stats.protocol_errors += 1;
            return;
        };
        let body = Body::new(frame, range);
        match parsed {
            Message::Reply {
                request_id,
                status,
                service_contexts,
            } => {
                let outcome = match status {
                    ReplyBody::NoException(_) => Ok(body.with_contexts(service_contexts)),
                    ReplyBody::UserException(u) => Err(Exception::User(u)),
                    ReplyBody::SystemException(s) => Err(Exception::System(s)),
                };
                self.stash_reply(now, request_id, outcome);
            }
            Message::LocateReply { request_id, found } => {
                // Represent locate replies through the same reply table.
                let outcome = if found {
                    Ok(cdr::to_bytes(&true).into())
                } else {
                    Err(Exception::System(SystemException::object_not_exist(
                        "locate: not here",
                    )))
                };
                self.stash_reply(now, request_id, outcome);
            }
            msg_in => self.backlog.push_back(Inbound {
                from: msg.from,
                msg: msg_in,
                body,
            }),
        }
    }

    /// Keep a reply that arrived at `now` for whoever awaits it, and feed
    /// its round trip to the endpoint's history — here, on arrival: a
    /// deferred reply can sit stashed long before it is awaited. A reply
    /// whose request already failed is dropped; nobody will ask for it.
    fn stash_reply(&mut self, now: SimTime, request_id: u64, outcome: Result<Body, Exception>) {
        let Some(p) = self.pending.get(&request_id) else {
            self.stats.late_replies += 1;
            self.obs.counter_add("orb.late_replies", 1);
            return;
        };
        let sample = now.since(p.sent).as_nanos();
        self.silent.remove(&p.endpoint.0);
        self.rtt
            .entry(p.endpoint)
            .and_modify(|rtt| rtt.update(sample))
            .or_insert_with(|| Rtt::first(sample));
        self.replies.insert(request_id, outcome);
    }

    /// Send a `oneway` request, `args` marshalled straight into its frame
    /// and `contexts` after the current span's: no reply, no failure
    /// report (fire and forget, like the Winner node-manager load reports).
    pub fn invoke_oneway(
        &mut self,
        ctx: &mut Ctx,
        ior: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        contexts: &[ServiceContext],
    ) -> SimResult<()> {
        self.send_request(ctx, ior, operation, args, None, contexts)?;
        Ok(())
    }

    /// Liveness probe via GIOP `LocateRequest`: `Ok(true)` if the object is
    /// active at its endpoint, `Ok(false)` if the endpoint answers but the
    /// object is gone, `Err(COMM_FAILURE)` if the endpoint is dead.
    pub fn locate(&mut self, ctx: &mut Ctx, ior: &Ior) -> SimResult<Result<bool, Exception>> {
        let wait = Some(self.cfg.request_timeout);
        let req_id = self.send_frame(ctx, ior, wait, false, |request_id| {
            Message::LocateRequest {
                request_id,
                object_key: ior.key,
            }
            .encode()
        })?;
        match self.await_reply(ctx, req_id)? {
            Ok(_) => Ok(Ok(true)),
            Err(Exception::System(SystemException {
                kind: crate::exceptions::SysKind::ObjectNotExist,
                ..
            })) => Ok(Ok(false)),
            Err(e) => Ok(Err(e)),
        }
    }
}
