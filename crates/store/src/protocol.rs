//! Replication protocol surface and the store configuration.
//!
//! The contract is `idl/store.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it. `Store::Replication` inherits
//! `FT::CheckpointService`: a [`crate::StoreReplica`] is a checkpoint
//! service to its clients and additionally serves the `repl_*`
//! operations, which are only ever sent replica-to-replica — they apply a
//! record locally and never fan out further, so replication cannot loop.
//!
//! Both `repl_*` ops are writes and share one wire shape:
//! `(unsigned long long view_revision, sequence<octet> body)` — the
//! naming group's membership revision the coordinator acted on, then the
//! original client request body. A replica that has witnessed a newer
//! revision rejects the write with `TRANSIENT`, so a coordinator still on
//! a pre-partition-heal view cannot assemble a quorum.

use simnet::SimDuration;

// `Store` names `FT::Checkpoint` and inherits `FT::CheckpointService`.
use ftproxy::FT;

include!("generated.rs");
pub use Store::{ReplicationSkeleton, ReplicationStub};

/// Configuration one replica (and the deployment helper) runs with.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Reply deadline for one replica-to-replica replication RPC. Bounds
    /// how long a write blocks on a dead peer before the quorum check.
    pub repl_timeout: SimDuration,
    /// Consecutive failed probes before the detector evicts a replica.
    pub suspect_after: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            repl_timeout: SimDuration::from_millis(300),
            suspect_after: 2,
        }
    }
}
