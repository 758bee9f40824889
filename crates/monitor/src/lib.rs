//! `ldft-monitor` — the doctor and the flight recorder for the LD/FT
//! runtime (DESIGN.md §8).
//!
//! Both are readers of the run's event log: the typed [`obs::Event`]s
//! that the Winner node and system managers, the FT proxy, the store
//! replicas and (through [`obs::Obs::kernel_event`]) the kernel record
//! into the one `obs` sink as things happen. [`diagnose`] replays that log
//! once, in record order, through
//!
//! * the **doctor**: per-request critical-path latency attribution plus
//!   the runtime invariants (recovery-time budget, quorum health,
//!   checkpoint freshness, restore freshness, load-placement sanity,
//!   partition health, healing time), and
//! * the **flight recorder**: the last N events per host, dumped as a
//!   deterministic post-mortem (event tails + open episodes + verdicts) on
//!   a host crash, an invariant violation, or the close of a recovery
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

mod diagnose;
mod doctor;

pub use diagnose::{diagnose, Diagnosis};
pub use doctor::MonitorConfig;
