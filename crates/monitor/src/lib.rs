//! `ldft-monitor` — live cluster monitoring for the LD/FT runtime
//! (DESIGN.md §10).
//!
//! * a **handle** ([`MonitorHandle`]) every subsystem emits typed
//!   [`Event`]s into — the Winner node managers and system manager, the FT
//!   proxy, the store replicas, and (through the kernel's event hook) the
//!   kernel itself. Emission is an in-process call at the point where the
//!   event happens: no process, message or naming binding is added to the
//!   run being watched;
//! * an **online doctor** ([`Doctor`]) consuming the stream in emission
//!   order: per-request critical-path latency attribution plus the runtime
//!   invariants (recovery-time budget, quorum health, checkpoint
//!   freshness, load-placement sanity, partition health, healing time);
//! * a **flight recorder** keeping the last N events per host and dumping
//!   a deterministic post-mortem (event tails + open episodes + verdicts)
//!   on a host crash, an invariant violation, or the close of a recovery
//!   episode (so the dump spans the whole failure-detected → recovered
//!   arc, not just its onset).
//!
//! Everything is virtual-time deterministic: same seed ⇒ byte-identical
//! doctor report, so the report composes with the repo's double-run CI
//! `cmp` gates.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

mod doctor;
mod events;
mod handle;

pub use doctor::{Doctor, MonitorConfig};
pub use events::{milli, Event, EventBody, KERNEL_PID};
pub use handle::MonitorHandle;
