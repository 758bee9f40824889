//! # ldft-store — the checkpoint service, alone or replicated
//!
//! The paper's whole fault-tolerance story hangs off a checkpoint service
//! it admits is "an unoptimized in-memory map": one CORBA object on one
//! host. [`run_checkpoint_service`] deploys exactly that — a
//! [`StoreReplica::alone`] under a plain binding, charging that store's CPU
//! costs (constants in `replica.rs`). But the component that makes workers
//! survive crashes is then itself a single point of failure — an FT proxy
//! that loses its store loses every epoch it ever saved. The same servant,
//! replicated, removes it:
//!
//! * [`StoreReplica`] — a `CheckpointService`-compatible servant that
//!   **replicates** every write to its peer replicas with quorum
//!   acknowledgement before reporting success, and keeps **one record per
//!   key**: the newest epoch of each object's bulk checkpoint, the last
//!   write of each named value.
//! * [`spawn_replicated_store`] — deploys N replicas on distinct simnet
//!   hosts, all bound as members of the *same* naming-service group name
//!   (`"CheckpointService"`) — the paper's own multi-binding `resolve`
//!   trick, reused for the store — plus a replica-side failure detector
//!   (reusing [`ftproxy::run_detector_obs`]) that evicts dead replicas so
//!   the next `resolve` already avoids them.
//! * [`chaos`] — a deterministic fault-injection harness: a seeded
//!   schedule of one [`FaultFamily`] (crashes, partitions, drops,
//!   degradation, flaps, skew), precomputed as a [`ChaosPlan`] and applied
//!   via `Kernel::schedule_fault`, that never disrupts more replicas than
//!   `max_concurrent_down`.
//!
//! Coordination is **leaderless**: whichever replica a client's `resolve`
//! picked coordinates that write, applying locally and fanning out to the
//! peers currently bound in the group (the *view*). Quorums are evaluated
//! against the view — detector eviction is a view change — so a surviving
//! replica keeps accepting writes instead of deadlocking on dead peers
//! (cf. Dwork/Halpern/Waarts: recovery cost, not crash count, dominates
//! useful work). See DESIGN.md §9 for the protocol rules.

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

pub mod chaos;
pub mod deploy;
pub mod protocol;
pub mod replica;

pub use chaos::{ChaosConfig, ChaosPlan, FaultFamily};
pub use deploy::{run_store_detector, spawn_replicated_store, DETECTOR_PERIOD};
pub use protocol::{ReplicationSkeleton, ReplicationStub, Store, StoreConfig};
pub use replica::{run_checkpoint_service, run_store_replica, StoreReplica};

#[cfg(test)]
mod store_tests;
