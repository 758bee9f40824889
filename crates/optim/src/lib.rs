//! # optim — parallel nonlinear optimization on the CORBA runtime
//!
//! The paper's application layer (§4): minimization of the decomposed
//! Rosenbrock function with "multiple instances of a sequential
//! implementation of the Complex Box algorithm" coordinated by a manager.
//!
//! * [`ComplexBox`] — the sequential Complex method (Box 1965), with a
//!   checkpointable [`ComplexState`] and an ask/tell variant
//!   ([`AskTellComplex`]) for remote objective evaluations.
//! * [`Rosenbrock`] and friends — the benchmark functions.
//! * [`DecomposedRosenbrock`] — the manager/worker split: `W` blocks plus
//!   `W−1` coordination variables (30 → 10/9/9 + 2, exactly the paper).
//! * [`WorkerServant`] / [`run_worker_server_obs`] — the stateful CORBA worker
//!   with the `get_checkpoint`/`restore_checkpoint` convention the FT
//!   proxies rely on.
//! * [`run_manager`] — the distributed manager: resolves workers through
//!   the (load-distributing) naming service, fans out parallel DII
//!   `solve` calls, optionally through fault-tolerant proxies.

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

pub mod complex_box;
pub mod decompose;
pub mod functions;
pub mod manager;
pub mod problem;
pub mod protocol;
pub mod worker;

pub use complex_box::{AskTellComplex, ComplexBox, ComplexBoxConfig, ComplexState};
pub use decompose::{DecomposedRosenbrock, Partition, SubRosenbrock};
pub use functions::{Rastrigin, Rosenbrock, Sphere};
pub use manager::{run_manager, FtSettings, ManagerConfig, RunReport};
pub use problem::{Bounds, Problem};
pub use protocol::{
    worker_group, Optim, SolveResult, SolveSpec, WorkerFtProxy, WorkerSkeleton, WorkerStub,
    WORKER_SERVICE_TYPE, WORKER_TYPE,
};
pub use worker::{run_worker_server_obs, worker_builder, WorkerServant};

#[cfg(test)]
mod optim_tests;
