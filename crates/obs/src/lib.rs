//! # obs — deterministic observability for the LD/FT runtime
//!
//! The paper's claims are mechanism claims: Winner's resolve avoids loaded
//! hosts, proxies checkpoint after each method call and recover via
//! re-resolve / restart / restore. This crate makes those mechanisms
//! visible as *data* instead of side-effect counters:
//!
//! * **Causal request tracing** — a [`SpanContext`] (trace id, parent span,
//!   hop count) rides in GIOP request service contexts, so one manager
//!   `solve` call can be followed through naming resolve → Winner select →
//!   worker dispatch → checkpoint store → recovery retry as a single tree
//!   of [`SpanRecord`]s.
//! * **Typed events** — the second record kind ([`Event`]): load reports,
//!   placements, the FT proxy's failure / recovery / checkpoint / restore
//!   life-cycle, quorum writes, and (through [`Obs::kernel_event`]) the
//!   kernel's own lifecycle and fault events. The doctor and the flight
//!   recorder in `ldft-monitor` are readers of this log.
//! * **A metrics registry** — counters, gauges and histograms over fixed
//!   bucket boundaries, all keyed by virtual time. No wall clock anywhere:
//!   the layer denies the same determinism lints (clippy's D1, D2 and D4
//!   paths, `clippy.toml`) as the code it observes, and two same-seed runs export byte-identical data.
//! * **Exporters** — Chrome `trace_event` JSON ([`Obs::chrome_trace_json`])
//!   and a plain-text metric dump ([`Obs::metrics_text`]), wired into the
//!   bench binaries behind `--trace-out` / `--metrics-out`.
//!
//! One [`Obs`] sink is shared by every process in a simulation (it is a
//! [`simnet::Shared`] cell, the sanctioned cross-process state); each
//! process holds a [`ProcessObs`] handle carrying its identity and its
//! open-span stack.
//!
//! Whether a process is observed is decided once, when its handle is made
//! ([`ProcessObs::from_sink`]): a handle without a sink records nothing,
//! never formats a span name and propagates no context. Every ORB holds a
//! handle, so code that records calls it unconditionally; only a metric
//! whose value costs work to compute asks [`ProcessObs::recording`] first.

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

mod event;
mod export;
mod metrics;
mod profile;
mod recorder;
mod span;

pub use event::{milli, Event, EventBody, KERNEL_PID};
pub use metrics::{Metric, BUCKET_BOUNDS};
pub use profile::FlatProfileEntry;
pub use recorder::{Obs, ProcessObs};
pub use span::{SpanContext, SpanRecord, TRACE_CONTEXT_ID};
