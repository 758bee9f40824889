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
//! * The Dynamic Invocation Interface ([`DiiRequest`]) with
//!   `send_deferred` / `poll_response` / `get_response`.
//! * System exceptions, most importantly `COMM_FAILURE` — the paper's sole
//!   client-side failure signal, raised here on RST (dead server process)
//!   or timeout (crashed host / partition).
//! * Causal trace propagation through the one [`obs::ProcessObs`] every
//!   ORB holds (without a sink until [`Orb::set_obs`] gives it one), and
//!   per-call CPU cost modelling ([`CostModel`])
//!   so experiments see realistic constant per-call overhead.

mod core;
mod dii;
mod exceptions;
mod giop;
mod ior;
mod object;
mod poa;

pub use crate::core::{forward_to, CostModel, Orb, OrbConfig, OrbStats, FORWARD_ID};
pub use dii::DiiRequest;
pub use exceptions::{Completion, Exception, SysKind, SystemException, UserException};
pub use giop::{Body, FrameError, Message, ReplyBody, ServiceContext};
pub use ior::{Ior, IorParseError, ObjectKey};
pub use object::ObjectRef;
pub use poa::{reply, CallCtx, Poa, Servant};

#[cfg(test)]
mod orb_tests;
