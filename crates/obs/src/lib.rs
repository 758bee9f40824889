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
//! * **A metrics registry** — counters, gauges and histograms over fixed
//!   bucket boundaries, all keyed by virtual time. No wall clock anywhere:
//!   the layer is subject to the same determinism rules (D1–D4) as the
//!   code it observes, and two same-seed runs export byte-identical data.
//! * **Exporters** — Chrome `trace_event` JSON ([`Obs::chrome_trace_json`])
//!   and plain-text/CSV metric dumps ([`Obs::metrics_text`],
//!   [`Obs::metrics_csv`]), wired into the bench binaries behind
//!   `--trace-out` / `--metrics-out`.
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

mod export;
mod metrics;
mod profile;
mod recorder;
mod span;

pub use metrics::{Metric, BUCKET_BOUNDS};
pub use profile::FlatProfileEntry;
pub use recorder::{Obs, ProcessObs};
pub use span::{SpanContext, SpanRecord, TRACE_CONTEXT_ID};
