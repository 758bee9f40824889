//! # orb — a miniature Object Request Broker
//!
//! A from-scratch CORBA-style ORB running over the [`simnet`] simulated
//! network of workstations. It provides the standard surfaces the IPPS 2000
//! paper's runtime support builds on:
//!
//! * [`Ior`] object references with the classic `IOR:…` stringified form.
//! * GIOP-lite framing ([`Message`]) with CDR bodies.
//! * A [`Poa`] object adapter dispatching to [`Servant`]s.
//! * Synchronous typed invocation through [`ObjectRef::call`] — the path
//!   static stubs use.
//! * The Dynamic Invocation Interface ([`DiiRequest`]): a deferred
//!   request is sent when it is made (`send_deferred`), then collected
//!   with `poll_response` / `get_response`.
//! * System exceptions, most importantly `COMM_FAILURE` — the paper's sole
//!   client-side failure signal, raised here on RST (dead server process)
//!   or timeout (crashed host / partition).
//! * Causal trace propagation through the one [`obs::ProcessObs`] every
//!   ORB holds (without a sink until [`Orb::set_obs`] gives it one), and
//!   a per-call CPU cost for marshalling, so experiments see realistic
//!   constant per-call overhead.

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

mod core;
mod dii;
mod exceptions;
mod giop;
mod ior;
mod object;
mod poa;

pub use crate::core::{Orb, OrbConfig, OrbStats};
pub use dii::DiiRequest;
pub use exceptions::{Completion, Exception, SysKind, SystemException, UserException};
pub use giop::{Body, FrameError, Message, ReplyBody, ServiceContext, Verbatim};
pub use ior::{Ior, IorParseError, ObjectKey};
pub use object::ObjectRef;
pub use poa::{reply, CallCtx, Poa, Servant};

#[cfg(test)]
mod orb_tests;
