//! Replication protocol surface and the store configuration.
//!
//! The contract is `idl/store.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it. `Store::Replication` inherits
//! `FT::CheckpointService`: a [`crate::StoreReplica`] is a checkpoint
//! service to its clients and additionally serves the `repl_*`
//! operations, which are only ever sent replica-to-replica — they apply a
//! record locally and never fan out further, so replication cannot loop.
//!
//! The three `repl_*` *write* ops share one wire shape:
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
    /// Write quorum W: a coordinated write succeeds once `W_eff` replicas
    /// (counting the coordinator) acked, where `W_eff = min(W, view)` and
    /// the view is the set of replicas currently bound in the naming
    /// group. `usize::MAX` (the default) means "every replica in the
    /// view" — reads can then be served locally by any live replica.
    pub write_quorum: usize,
    /// Epochs retained per object id (K). Older bulk epochs are trimmed
    /// on write; per-value chunks more than K-1 epochs behind the newest
    /// header are reclaimed.
    pub retain_epochs: usize,
    /// Reply deadline for one replica-to-replica replication RPC. Bounds
    /// how long a write blocks on a dead peer before the quorum check.
    pub repl_timeout: SimDuration,
    /// Consecutive failed probes before the detector evicts a replica.
    pub suspect_after: u32,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            write_quorum: usize::MAX,
            retain_epochs: 2,
            repl_timeout: SimDuration::from_millis(300),
            suspect_after: 2,
        }
    }
}

impl StoreConfig {
    /// Set the write quorum.
    pub fn with_write_quorum(mut self, w: usize) -> Self {
        self.write_quorum = w.max(1);
        self
    }

    /// Set the number of retained epochs per object.
    pub fn with_retain_epochs(mut self, k: usize) -> Self {
        self.retain_epochs = k.max(1);
        self
    }

    /// Set the replica-to-replica replication RPC deadline.
    pub fn with_repl_timeout(mut self, t: SimDuration) -> Self {
        self.repl_timeout = t;
        self
    }
}
