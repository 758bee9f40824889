//! # cosnaming — COS Naming with integrated load distribution
//!
//! The paper's first contribution (§2): a CORBA naming service that is
//! wire-compatible with the OMG COS Naming interface but performs **load
//! distribution inside `resolve`**. Servers register replicas of a service
//! under one name (*group bindings*); when a client resolves that name,
//! the service asks the Winner system manager for the host with the best
//! current performance and returns the replica living there. Clients keep
//! using the standard `resolve` call — the mechanism is fully transparent
//! and works with any ORB, because the naming service "is not an integral
//! part of a CORBA ORB but is always implemented as a CORBA service".
//!
//! When Winner is unreachable (or in [`LbMode::Plain`]), resolution falls
//! back to round-robin — matching the paper's observation that the
//! modified service is never worse than the unmodified one.
//!
//! * [`run_naming_service_obs`] — server process body (port 2809, root key 1).
//! * [`NamingClient`] — typed client (standard ops + group extensions),
//!   over the [`NamingContextStub`] `idlc` generates from `idl/naming.idl`.
//! * [`Name`] — a sequence of `(id, kind)` components; the flat context
//!   answers one-component names.

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

pub mod client;
pub mod context;
pub mod name;
pub mod protocol;
pub mod server;

pub use client::{initial_naming_ior, NamingClient};
pub use context::{LbMode, NamingContext};
pub use name::{Name, NameComponent};
pub use protocol::CosNaming::{NamingContextSkeleton, NamingContextStub};
pub use protocol::{
    AlreadyBound, CosNaming, EmptyGroup, InvalidName, NotFound, NotFoundReason,
    NAMING_CONTEXT_TYPE, NAMING_PORT, ROOT_CONTEXT_KEY,
};
pub use server::run_naming_service_obs;

#[cfg(test)]
mod naming_tests;
