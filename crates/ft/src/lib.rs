//! # ftproxy — fault tolerance by checkpointing proxies
//!
//! The paper's second contribution (§3): fault tolerance for long-running
//! parallel applications **without replication** — "it is a good
//! compromise to restrict fault tolerance to checkpointing and
//! restarting". The pieces:
//!
//! * [`CheckpointClient`] — the client of the paper's "simple service for
//!   storing checkpointing data" (`FT::CheckpointService`, served by
//!   `ldft-store`'s `StoreReplica`).
//! * [`FtProxy`] — the client-side proxy "derived from the stub class":
//!   checkpoint after each successful call, catch `COMM_FAILURE`, resolve
//!   a fresh replica through the (load-distributing) naming service or
//!   create one via a [`ServiceFactory`], retry with the checkpoint.
//! * [`FtServant`] — the server half: the checkpoint comes back with the
//!   call's reply and the restore rides the retried request, as two GIOP
//!   service contexts, so a checkpointed call is one round trip.
//! * [`FtRequest`] — the request proxy giving the same semantics to
//!   asynchronous DII invocations (Fig. 2), and the one recovery engine:
//!   an `FtProxy` call is an `FtRequest` sent and awaited at once.
//! * [`run_detector_obs`] — a proactive heartbeat failure detector
//!   (extension; the paper only detects failures via `COMM_FAILURE`).

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

pub mod detector;
pub mod factory;
pub mod per_value;
pub mod protocol;
pub mod proxy;
pub mod request_proxy;
pub mod servant;
pub mod service;

pub use detector::{run_detector_obs, DetectorConfig, DetectorStats};
pub use factory::{
    factory_group, factory_name, run_factory_obs, FactoryClient, ServantBuilder, ServiceFactory,
    FACTORY_TYPE,
};
pub use protocol::Checkpoint;
pub use protocol::FT::{
    self, CheckpointServiceSkeleton, CheckpointServiceStub, ServiceFactorySkeleton,
    ServiceFactoryStub,
};
pub use proxy::{CheckpointMode, FtProxy, FtProxyConfig, FtProxyStats, ProxyEnv};
pub use request_proxy::FtRequest;
pub use servant::{FtServant, CHECKPOINT_CONTEXT_ID, RESTORE_CONTEXT_ID};
pub use service::{CheckpointClient, CHECKPOINT_SERVICE_NAME, CHECKPOINT_SERVICE_TYPE};

#[cfg(test)]
mod ft_tests;
