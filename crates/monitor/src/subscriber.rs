//! The pull half: a remote subscriber any tool process embeds to drain
//! the channel over the ORB (`IDL:Monitor/EventChannel:1.0`, ops
//! `subscribe`/`pull`/`stats` — see `idl/monitor.idl`).
//!
//! In-process consumers (the doctor, the channel's own tests) read
//! [`crate::ChannelState`] directly; this client exists for consumers on
//! *other* hosts — dashboards, the flight-recorder dump tool — which must
//! go through the wire like everyone else.

use orb::{Exception, ObjectRef, Orb};
use simnet::{Ctx, SimResult};

use crate::events::{Event, EventChannelStub};

/// A registered remote subscription: the channel stub plus the
/// subscriber id `subscribe` returned.
pub struct Subscription {
    channel: EventChannelStub,
    id: u32,
}

impl Subscription {
    /// Register with the channel behind `obj`, keeping a bounded ring of
    /// `depth` events server-side.
    pub fn attach(
        obj: ObjectRef,
        orb: &mut Orb,
        ctx: &mut Ctx,
        depth: u32,
    ) -> SimResult<Result<Subscription, Exception>> {
        let channel = EventChannelStub::new(obj);
        let id = channel.subscribe(orb, ctx, &depth)?;
        Ok(id.map(|id| Subscription { channel, id }))
    }

    /// The server-assigned subscriber id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Drain up to `max` events from this subscription's ring, in
    /// watermark (processed) order.
    pub fn pull(
        &self,
        orb: &mut Orb,
        ctx: &mut Ctx,
        max: u32,
    ) -> SimResult<Result<Vec<Event>, Exception>> {
        self.channel.pull(orb, ctx, &self.id, &max)
    }

    /// Channel-wide `(events ingested, subscriber-ring drops)`.
    pub fn stats(&self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<Result<(u64, u64), Exception>> {
        self.channel.stats(orb, ctx)
    }

    /// Deregister: drop the server-side ring. Consumes the subscription;
    /// returns whether the id was still live on the channel.
    pub fn detach(self, orb: &mut Orb, ctx: &mut Ctx) -> SimResult<Result<bool, Exception>> {
        self.channel.unsubscribe(orb, ctx, &self.id)
    }
}
