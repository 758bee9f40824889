//! Wire protocol between the optimization manager and its workers.
//!
//! The contract is `idl/optim.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it: [`SolveSpec`], [`SolveResult`], and the
//! `Worker` trait and skeleton, the [`WorkerStub`] the manager holds (its
//! op-name constants also label the deferred fan-out) and the typed
//! [`WorkerFtProxy`] for synchronous fault-tolerant callers.

use cosnaming::Name;

/// `native OptionalDouble`: a coordination value that may be absent.
pub type OptionalDouble = Option<f64>;

include!("generated.rs");
pub use Optim::{SolveResult, SolveSpec, WorkerFtProxy, WorkerSkeleton, WorkerStub};

/// Repository id of the worker interface.
pub const WORKER_TYPE: &str = WorkerStub::REPO_ID;

/// Service-type string factories use to instantiate workers.
pub const WORKER_SERVICE_TYPE: &str = "OptimWorker";

/// The group name workers register under.
pub fn worker_group() -> Name {
    Name::simple("Workers")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trip() {
        let s = SolveSpec {
            problem_id: 2,
            dim: 9,
            left: Some(0.5),
            right: None,
            iters: 10_000,
            seed: 7,
            reset: false,
        };
        let back: SolveSpec = cdr::from_bytes(&cdr::to_bytes(&s)).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn result_round_trip() {
        let r = SolveResult {
            best_value: 1.25,
            best_point: vec![0.1, 0.2],
            iterations: 100,
            evals: 140,
        };
        let back: SolveResult = cdr::from_bytes(&cdr::to_bytes(&r)).unwrap();
        assert_eq!(r, back);
    }
}
