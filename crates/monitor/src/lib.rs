//! `ldft-monitor` — live cluster monitoring for the LD/FT runtime.
//!
//! Control-system CORBA deployments watch themselves through push-based
//! event channels; this crate is that shape for our cluster (DESIGN.md
//! §10):
//!
//! * an **event channel** — a normal CORBA object ([`EventChannel`])
//!   bound in naming as [`EVENT_CHANNEL_NAME`], to which the Winner node
//!   managers, the FT proxy, the store replicas, and the kernel itself
//!   publish typed [`Event`]s via `oneway push` batches;
//! * an **online doctor** ([`Doctor`]) consuming the stream in
//!   virtual-time publish order: per-request critical-path latency
//!   attribution plus four runtime invariants (recovery-time budget,
//!   quorum health, checkpoint freshness, load-placement sanity);
//! * a **flight recorder** keeping the last N events per host and dumping
//!   a deterministic post-mortem (event tails + open episodes + verdicts)
//!   on a host crash, an invariant violation, or the close of a recovery
//!   episode (so the dump spans the whole failure-detected → recovered
//!   arc, not just its onset).
//!
//! Everything is virtual-time deterministic: same seed ⇒ byte-identical
//! doctor report, so the report composes with the repo's double-run CI
//! `cmp` gates.
//!
//! The crate deliberately depends only on `simnet`/`cdr`/`orb`/`obs`; the
//! naming-service binding of the channel is wired where the cluster boots
//! (`corba-runtime`), keeping `winner`/`ft`/`store` free to depend on
//! this crate without a cycle through `cosnaming`.

mod channel;
mod doctor;
mod events;
mod publisher;
mod subscriber;

pub use channel::{ChannelState, EventChannel, MonitorHandle, KERNEL_PID};
pub use doctor::{Doctor, MonitorConfig};
pub use events::{
    milli, Event, EventBody, EventChannelSkeleton, EventChannelStub, Monitor, EVENT_CHANNEL_NAME,
    EVENT_CHANNEL_TYPE,
};
pub use publisher::Publisher;
pub use subscriber::Subscription;
