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
//!   timeout expires.
//! * Stale object key on a live server (e.g. after a service was
//!   deactivated): `OBJECT_NOT_EXIST`.
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

/// CPU cost model for marshalling and ORB dispatch, in work units
/// (seconds on a speed-1.0 host).
///
/// The paper observes that the proxy/checkpoint "overhead is constant for
/// each method call"; that constant is made explicit here.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed CPU work per marshal or demarshal step (one per message end).
    pub marshal_fixed: f64,
    /// CPU work per payload byte (inverse of marshalling throughput).
    pub marshal_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // ~60 us fixed per step and ~50 MB/s marshalling throughput,
        // plausible for a late-90s ORB on a late-90s workstation.
        CostModel {
            marshal_fixed: 60e-6,
            marshal_per_byte: 2e-8,
        }
    }
}

impl CostModel {
    /// Work units for one marshal/demarshal step of `bytes` payload bytes.
    pub fn step(&self, bytes: usize) -> f64 {
        self.marshal_fixed + self.marshal_per_byte * bytes as f64
    }

    /// A zero-cost model (useful in unit tests that assert exact timings).
    pub fn free() -> Self {
        CostModel {
            marshal_fixed: 0.0,
            marshal_per_byte: 0.0,
        }
    }
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
    /// Maximum `LocationForward` hops per logical invocation.
    pub forward_limit: u32,
    /// Marshalling cost model.
    pub cost: CostModel,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            request_timeout: SimDuration::from_millis(2000),
            forward_limit: 8,
            cost: CostModel::default(),
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
    /// Replies received and consumed.
    pub replies_received: u64,
    /// `COMM_FAILURE`s raised on the client path.
    pub comm_failures: u64,
    /// Requests dispatched to servants.
    pub requests_served: u64,
    /// Locate (ping) requests answered.
    pub locates_served: u64,
    /// Frames that failed to parse (dropped unanswered).
    pub protocol_errors: u64,
    /// Keepalive probes sent because a reply was late.
    pub probes_sent: u64,
    /// Replies dropped on arrival: their request had already failed.
    pub late_replies: u64,
}

/// Reserved user-exception id a servant raises (via [`forward_to`]) to make
/// the ORB send a GIOP `LocationForward` reply.
pub const FORWARD_ID: &str = "_orb:LocationForward";

/// Build the dispatch error that turns into a `LocationForward` reply
/// pointing clients at `new_location`.
pub fn forward_to(new_location: &Ior) -> Exception {
    Exception::User(crate::exceptions::UserException::new(
        FORWARD_ID,
        new_location,
    ))
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
    replies: BTreeMap<u64, Outcome>,
    /// Requests in flight (synchronous or deferred).
    pending: BTreeMap<u64, Pending>,
    /// Endpoints that bounced an RST.
    rsts: BTreeSet<(HostId, Port)>,
    /// Endpoints whose host answered a keepalive probe.
    alive: BTreeSet<(HostId, Port)>,
    /// Round-trip history per endpoint that has ever replied.
    rtt: BTreeMap<(HostId, Port), Rtt>,
    stats: OrbStats,
    obs: ProcessObs,
}

pub(crate) enum Outcome {
    Done(Result<Body, Exception>),
    Forward(Ior),
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
            stats: OrbStats::default(),
            obs: ProcessObs::default(),
        }
    }

    /// Create an ORB with default configuration.
    pub fn init(ctx: &Ctx) -> Self {
        Orb::new(ctx, OrbConfig::default())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &OrbConfig {
        &self.cfg
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
    pub fn ior(&self, type_id: impl Into<String>, key: ObjectKey) -> Ior {
        // ldft-lint: allow(P1, documented API contract: minting an IOR before listen() has no meaningful endpoint to encode; re-audited 2026-08 — returning Result would push an unreachable error arm into every server, expiry 2027-06)
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

    /// Handle one inbound message if one is queued or immediately
    /// available; returns whether anything was handled. Does not block.
    pub fn try_serve(&mut self, ctx: &mut Ctx, poa: &Poa) -> SimResult<bool> {
        loop {
            if let Some(inbound) = self.backlog.pop_front() {
                self.handle_inbound(ctx, poa, inbound)?;
                return Ok(true);
            }
            match ctx.try_recv()? {
                Some(msg) => self.absorb(ctx.now(), msg),
                None => return Ok(false),
            }
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
                ctx.compute(self.cfg.cost.step(body.len()))?;
                self.stats.requests_served += 1;
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
                        };
                        let mut s = servant.borrow_mut();
                        s.dispatch(&mut call, &operation, &body)
                    }
                };
                let ok = result.is_ok();
                if response_expected {
                    let status = match result {
                        Ok(body) => ReplyBody::NoException(body),
                        Err(Exception::User(u)) if u.id == FORWARD_ID => match u.members::<Ior>() {
                            Ok(ior) => ReplyBody::LocationForward(ior),
                            Err(e) => ReplyBody::SystemException(SystemException::marshal(e)),
                        },
                        Err(Exception::User(u)) => ReplyBody::UserException(u),
                        Err(Exception::System(s)) => ReplyBody::SystemException(s),
                    };
                    let frame = Message::Reply { request_id, status }.encode();
                    ctx.compute(self.cfg.cost.step(frame.len()))?;
                    ctx.send(Addr::Pid(from), frame)?;
                }
                self.obs.finish(ctx.now(), ok);
                Ok(())
            }
            Message::LocateRequest {
                request_id,
                object_key,
            } => {
                self.stats.locates_served += 1;
                let frame = Message::LocateReply {
                    request_id,
                    found: poa.contains(object_key),
                }
                .encode();
                ctx.send(Addr::Pid(from), frame)?;
                Ok(())
            }
            // Cancels and closes need no action in this ORB: requests are
            // handled atomically.
            Message::CancelRequest { .. } | Message::CloseConnection => Ok(()),
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

    /// Synchronously invoke `operation` on the object `ior` refers to,
    /// following location forwards. `args` are marshalled straight into
    /// each request frame, and the reply's result is read where its frame
    /// delivered it. The outer `Result` is the simulation liveness
    /// (`Err(Killed)` when this process dies); the inner is the CORBA
    /// outcome.
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx,
        ior: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
    ) -> SimResult<Result<Body, Exception>> {
        self.invoke_with_timeout(ctx, ior, operation, args, None)
    }

    /// [`Orb::invoke`] with a per-call reply deadline overriding the
    /// configured `request_timeout`. The FT checkpoint client uses this so a
    /// slow store does not masquerade as a dead worker (and vice versa).
    pub fn invoke_with_timeout(
        &mut self,
        ctx: &mut Ctx,
        ior: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        timeout: Option<SimDuration>,
    ) -> SimResult<Result<Body, Exception>> {
        let start = ctx.now();
        let out = self.invoke_forwarding(ctx, ior, operation, args, timeout)?;
        self.obs
            .observe("orb.invoke_ns", ctx.now().since(start).as_nanos());
        Ok(out)
    }

    fn invoke_forwarding(
        &mut self,
        ctx: &mut Ctx,
        ior: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        timeout: Option<SimDuration>,
    ) -> SimResult<Result<Body, Exception>> {
        let mut target = std::borrow::Cow::Borrowed(ior);
        for _ in 0..=self.cfg.forward_limit {
            let req_id =
                self.send_request_with_timeout(ctx, &target, operation, args, true, timeout)?;
            match self.await_reply(ctx, req_id)? {
                Outcome::Done(r) => return Ok(r),
                Outcome::Forward(next) => target = std::borrow::Cow::Owned(next),
            }
        }
        Ok(Err(Exception::System(SystemException::transient(
            "too many location forwards",
        ))))
    }

    /// Send a request frame; registers it in `pending` when a response is
    /// expected. Returns the request id.
    pub(crate) fn send_request(
        &mut self,
        ctx: &mut Ctx,
        target: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        response_expected: bool,
    ) -> SimResult<u64> {
        self.send_request_with_timeout(ctx, target, operation, args, response_expected, None)
    }

    pub(crate) fn send_request_with_timeout(
        &mut self,
        ctx: &mut Ctx,
        target: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
        response_expected: bool,
        timeout: Option<SimDuration>,
    ) -> SimResult<u64> {
        let endpoint = (target.host, target.port);
        // About to find out whether the endpoint is alive: drop stale RSTs.
        self.rsts.remove(&endpoint);
        let req_id = self.next_req;
        self.next_req += 1;
        // The span this request is made under rides on its frame.
        let service_contexts = match self.obs.current() {
            Some(cur) => vec![ServiceContext {
                id: TRACE_CONTEXT_ID,
                data: cur.to_bytes(),
            }],
            None => Vec::new(),
        };
        let frame = Message::encode_call(
            req_id,
            response_expected,
            target.key,
            operation,
            args,
            &service_contexts,
        );
        ctx.compute(self.cfg.cost.step(frame.len()))?;
        if response_expected {
            self.stats.requests_sent += 1;
            self.pending.insert(
                req_id,
                Pending {
                    endpoint,
                    sent: ctx.now(),
                    deadline: ctx.now() + timeout.unwrap_or(self.cfg.request_timeout),
                },
            );
        } else {
            self.stats.oneways_sent += 1;
        }
        ctx.send(Addr::Endpoint(target.host, target.port), frame)?;
        Ok(req_id)
    }

    /// Block until the reply for `req_id` arrives (or fails). This is the
    /// only place a client blocks ([`Orb::locate`] waits here too), so
    /// every caller times silence the same way (module docs).
    pub(crate) fn await_reply(&mut self, ctx: &mut Ctx, req_id: u64) -> SimResult<Outcome> {
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
            if let Some(rtt) = self.rtt.get(&endpoint).copied() {
                match self.probe_when_due(ctx, endpoint, sent, rtt, &mut suspicion)? {
                    Some(until) => wake = wake.min(until),
                    None => return Ok(self.fail_pending(req_id, Failure::Unreachable)),
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
    pub(crate) fn poll_reply(&mut self, ctx: &mut Ctx, req_id: u64) -> SimResult<Option<Outcome>> {
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
    fn check_pending(&mut self, ctx: &mut Ctx, req_id: u64) -> SimResult<Option<Outcome>> {
        if let Some(outcome) = self.replies.remove(&req_id) {
            self.pending.remove(&req_id);
            self.stats.replies_received += 1;
            if let Outcome::Done(Ok(body)) = &outcome {
                ctx.compute(self.cfg.cost.step(body.len()))?;
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

    fn fail_pending(&mut self, req_id: u64, why: Failure) -> Outcome {
        self.pending.remove(&req_id);
        self.stats.comm_failures += 1;
        self.obs.counter_add("orb.comm_failures", 1);
        if let Some(counter) = why.counter() {
            self.obs.counter_add(counter, 1);
        }
        Outcome::Done(Err(Exception::System(SystemException::comm_failure(
            why.detail(),
        ))))
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
            Message::Reply { request_id, status } => {
                let outcome = match status {
                    ReplyBody::NoException(_) => Outcome::Done(Ok(body)),
                    ReplyBody::UserException(u) => Outcome::Done(Err(Exception::User(u))),
                    ReplyBody::SystemException(s) => Outcome::Done(Err(Exception::System(s))),
                    ReplyBody::LocationForward(ior) => Outcome::Forward(ior),
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
                self.stash_reply(now, request_id, Outcome::Done(outcome));
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
    fn stash_reply(&mut self, now: SimTime, request_id: u64, outcome: Outcome) {
        let Some(p) = self.pending.get(&request_id) else {
            self.stats.late_replies += 1;
            self.obs.counter_add("orb.late_replies", 1);
            return;
        };
        let sample = now.since(p.sent).as_nanos();
        self.rtt
            .entry(p.endpoint)
            .and_modify(|rtt| rtt.update(sample))
            .or_insert_with(|| Rtt::first(sample));
        self.replies.insert(request_id, outcome);
    }

    /// Send a `oneway` request, `args` marshalled straight into its frame:
    /// no reply, no failure report (fire and forget, like the Winner
    /// node-manager load reports).
    pub fn invoke_oneway(
        &mut self,
        ctx: &mut Ctx,
        ior: &Ior,
        operation: &str,
        args: &dyn CdrWrite,
    ) -> SimResult<()> {
        self.send_request(ctx, ior, operation, args, false)?;
        Ok(())
    }

    /// Liveness probe via GIOP `LocateRequest`: `Ok(true)` if the object is
    /// active at its endpoint, `Ok(false)` if the endpoint answers but the
    /// object is gone, `Err(COMM_FAILURE)` if the endpoint is dead.
    pub fn locate(&mut self, ctx: &mut Ctx, ior: &Ior) -> SimResult<Result<bool, Exception>> {
        let endpoint = (ior.host, ior.port);
        self.rsts.remove(&endpoint);
        let req_id = self.next_req;
        self.next_req += 1;
        let frame = Message::LocateRequest {
            request_id: req_id,
            object_key: ior.key,
        }
        .encode();
        self.stats.requests_sent += 1;
        self.pending.insert(
            req_id,
            Pending {
                endpoint,
                sent: ctx.now(),
                deadline: ctx.now() + self.cfg.request_timeout,
            },
        );
        ctx.send(Addr::Endpoint(ior.host, ior.port), frame)?;
        match self.await_reply(ctx, req_id)? {
            Outcome::Done(Ok(_)) => Ok(Ok(true)),
            Outcome::Done(Err(Exception::System(SystemException {
                kind: crate::exceptions::SysKind::ObjectNotExist,
                ..
            }))) => Ok(Ok(false)),
            Outcome::Done(Err(e)) => Ok(Err(e)),
            Outcome::Forward(_) => Ok(Ok(true)),
        }
    }
}
