//! The publisher half: a small client any process (or servant) embeds to
//! push typed events at the channel.
//!
//! Publishers learn the channel's address from a [`Shared`] cell the
//! channel fills once it is serving (the same pattern the Winner system
//! manager uses for its IOR). Until the cell is filled, events buffer
//! locally and flush — original timestamps intact — on the first publish
//! after the address appears; the channel counts any that arrive behind
//! its watermark as late instead of dropping them.
//!
//! Pushes are `oneway` by default, so publishing never blocks: servants
//! can publish from inside `dispatch` without nesting a synchronous call.
//!
//! # Reliable mode
//!
//! Oneway pushes vanish silently when the path to the channel is cut, so
//! a publisher behind a partition loses its outage window entirely. The
//! opt-in **reliable** mode ([`Publisher::reliable`]) instead pushes each
//! batch as a deferred DII request and keeps the batch buffered until the
//! channel acks it; a failed push (`COMM_FAILURE` on timeout) re-queues
//! the batch ahead of newer events, original timestamps intact, and the
//! next publish (or an explicit [`Publisher::pump`]) re-sends it.
//! Publishing still never blocks — the ack is polled, not awaited.
//! Delivery is at-least-once: a push that applied but whose ack was lost
//! is re-sent, and the channel's pending `BTreeMap` dedups re-sends by
//! the `(time, host, pid, seq)` key while they sit behind the watermark.

use std::cell::RefCell;
use std::rc::Rc;

use orb::{DiiRequest, Ior, Orb};
use simnet::{Ctx, Shared, SimResult};

use crate::events::{Event, EventBody, EventChannelStub};

struct PubInner {
    cell: Shared<Option<String>>,
    ior: Option<Ior>,
    pending: Vec<Event>,
    seq: u64,
    host: u32,
    pid: u32,
    /// `false` = classic oneway pushes; `true` = acked deferred pushes
    /// with retry.
    reliable: bool,
    /// Reliable mode only: the outstanding push and the batch it carries,
    /// kept for re-queueing if the push fails.
    inflight: Option<(DiiRequest, Vec<Event>)>,
    /// Reliable mode only: batches re-queued after a failed push.
    retries: u64,
}

/// A handle for publishing events. Cheap to clone; clones share one
/// per-process sequence counter, so several publishers in one process
/// (e.g. the manager's per-worker FT proxies) never collide on the
/// `(time, host, pid, seq)` stream key.
#[derive(Clone)]
pub struct Publisher(Rc<RefCell<PubInner>>);

impl Publisher {
    /// Publisher for the process behind `ctx`, pushing to the channel
    /// whose IOR will appear in `cell`.
    pub fn new(cell: Shared<Option<String>>, ctx: &Ctx) -> Self {
        Self::with_mode(cell, ctx, false)
    }

    /// Like [`Publisher::new`], but pushes are acked and retried (see the
    /// module docs on reliable mode). Use for publishers that must survive
    /// a partition between them and the channel with their event stream
    /// intact.
    pub fn reliable(cell: Shared<Option<String>>, ctx: &Ctx) -> Self {
        Self::with_mode(cell, ctx, true)
    }

    fn with_mode(cell: Shared<Option<String>>, ctx: &Ctx, reliable: bool) -> Self {
        Publisher(Rc::new(RefCell::new(PubInner {
            cell,
            ior: None,
            pending: Vec::new(),
            seq: 0,
            host: ctx.host().0,
            pid: ctx.pid().0,
            reliable,
            inflight: None,
            retries: 0,
        })))
    }

    /// Stamp and push one event. Buffered while the channel address is
    /// unknown; otherwise sent immediately as a `oneway` batch (default
    /// mode) or an acked deferred batch (reliable mode).
    pub fn publish(&self, orb: &mut Orb, ctx: &mut Ctx, body: EventBody) -> SimResult<()> {
        let mut inner = self.0.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        let ev = Event {
            time_ns: ctx.now().as_nanos(),
            host: inner.host,
            pid: inner.pid,
            seq,
            body,
        };
        inner.pending.push(ev);
        inner.flush(orb, ctx)
    }

    /// Drive the retry machinery without publishing anything: poll the
    /// outstanding push and (re-)send the buffer if the path is free.
    /// Call periodically from publishers that go quiet for long stretches;
    /// a no-op in oneway mode and when nothing is buffered.
    pub fn pump(&self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<()> {
        self.0.borrow_mut().flush(orb, ctx)
    }

    /// `(buffered events, failed pushes re-queued)` — both 0 in oneway
    /// mode once the channel address is known.
    pub fn backlog(&self) -> (usize, u64) {
        let inner = self.0.borrow();
        let inflight = inner.inflight.as_ref().map_or(0, |(_, b)| b.len());
        (inner.pending.len() + inflight, inner.retries)
    }
}

impl PubInner {
    fn flush(&mut self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<()> {
        if self.ior.is_none() {
            let Some(s) = self.cell.get() else {
                return Ok(()); // channel not up yet; keep buffering
            };
            match Ior::destringify(&s) {
                Ok(ior) => self.ior = Some(ior),
                Err(_) => {
                    // The cell is only ever written with `Ior::stringify`
                    // output; an unparsable value means monitoring is
                    // broken — drop the buffer rather than grow forever.
                    self.pending.clear();
                    return Ok(());
                }
            }
        }
        let Some(ior) = self.ior.clone() else {
            return Ok(());
        };
        if !self.reliable {
            let batch = std::mem::take(&mut self.pending);
            let channel = EventChannelStub::from_ior(ior);
            return channel.push(orb, ctx, &batch);
        }
        // Reliable mode: at most one push outstanding, so batches arrive
        // in order and a failure re-queues cleanly.
        if let Some((mut req, batch)) = self.inflight.take() {
            if !req.poll_response(orb, ctx)? {
                self.inflight = Some((req, batch));
                return Ok(()); // ack still outstanding; keep buffering
            }
            if !matches!(req.result::<()>(), Some(Ok(()))) {
                // Push failed (timeout across the cut, channel restarting,
                // …): everything it carried goes back in front of newer
                // events, original stamps intact.
                self.retries += 1;
                let mut restored = batch;
                restored.append(&mut self.pending);
                self.pending = restored;
            }
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        let mut req = DiiRequest::new(ior, EventChannelStub::OP_PUSH);
        req.add_typed(&batch);
        req.send_deferred(orb, ctx)?;
        self.inflight = Some((req, batch));
        Ok(())
    }
}
