//! # corba-runtime — the assembled runtime support system
//!
//! The umbrella crate of this reproduction of *"CORBA Based Runtime
//! Support for Load Distribution and Fault Tolerance"* (IPPS 2000): it
//! wires the substrates ([`simnet`], [`orb`], [`winner`], [`cosnaming`],
//! [`ftproxy`], [`optim`]) into a bootable cluster and provides the
//! parameterized experiment scenarios behind the paper's Figure 3 and
//! Table 1.
//!
//! ```no_run
//! use corba_runtime::{Cluster, ClusterConfig, NamingMode};
//!
//! let mut cluster = Cluster::build(ClusterConfig {
//!     hosts: 11,                      // 10-workstation NOW + infra host
//!     naming: NamingMode::Winner,     // the paper's naming service
//!     ..ClusterConfig::default()
//! });
//! let h = cluster.hosts[3];
//! cluster.add_background_load(h);
//! let deadline = cluster.kernel.now() + simnet::SimDuration::from_secs(10);
//! cluster.kernel.run_until(deadline);
//! ```

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

pub mod runtime;
pub mod scenario;

pub use runtime::{publish_kernel_profile, Cluster, ClusterConfig, NamingMode, WinnerPolicy};
pub use scenario::{
    averaged_runtime, run_experiment, CrashPlan, ExperimentOutcome, ExperimentSpec, StoreCrashPlan,
};

#[cfg(test)]
mod runtime_tests;
