//! # winner — the Winner resource-management system
//!
//! A reproduction of the Winner RMS the paper's load-distributing naming
//! service relies on (Arndt/Freisleben/Kielmann/Thilo, PDCS'98): one
//! **node manager** per workstation periodically measures the host's load
//! and reports it to a central **system manager**, which can then
//! "determine the machine with the currently best performance".
//!
//! * [`run_node_manager`] — the per-host measurement daemon.
//! * [`SystemManager`] — the central servant; ranks hosts, answers
//!   `select` with placement **reservations** so back-to-back selections
//!   spread across machines, and expires hosts whose reports go stale.
//! * [`policy`] — pluggable selection policies; `BestPerformance` is the
//!   paper's, the others are the policy ablation's baselines.
//! * [`SystemManagerClient`] — the typed client used by the naming
//!   service and by tools, over the [`SystemManagerStub`] `idlc`
//!   generates from `idl/winner.idl`.

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
pub mod node_manager;
pub mod policy;
pub mod protocol;
pub mod system_manager;

pub use client::{run_system_manager_obs, SystemManagerClient};
pub use node_manager::run_node_manager;
pub use policy::{
    performance_score_of, BestPerformance, HostView, LeastLoaded, SelectionPolicy, Uniform,
    WeightedRandom,
};
pub use protocol::{
    HostStatus, LoadReport, SelectRequest, SystemManagerSkeleton, SystemManagerStub, Winner,
    SYSTEM_MANAGER_NAME, SYSTEM_MANAGER_TYPE,
};
pub use system_manager::{ReportOutcome, SystemManager};

#[cfg(test)]
mod winner_tests;
