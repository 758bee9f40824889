//! Wire types of the Winner resource-management protocol (CDR-encoded,
//! carried over the ORB).
//!
//! The contract is `idl/winner.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it: the [`LoadReport`] a node manager sends, the
//! [`HostStatus`] rows of a `snapshot`, the [`SelectRequest`], and the
//! `SystemManager` trait, skeleton and stub.

include!("generated.rs");
pub use Winner::{HostStatus, LoadReport, SelectRequest, SystemManagerSkeleton, SystemManagerStub};

/// Repository id of the system manager interface.
pub const SYSTEM_MANAGER_TYPE: &str = SystemManagerStub::REPO_ID;

/// The well-known name the system manager is registered under in the
/// naming service.
pub const SYSTEM_MANAGER_NAME: &str = "WinnerSystemManager";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_report_round_trip() {
        let r = LoadReport {
            host: 3,
            speed: 1.5,
            runnable: 2,
            load_avg: 1.8,
            cpu_util: 0.9,
            seq: 17,
            stamp_ns: -3_000_000,
        };
        let back: LoadReport = cdr::from_bytes(&cdr::to_bytes(&r)).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn select_request_round_trip() {
        let r = SelectRequest {
            candidates: vec![1, 2, 3],
        };
        let back: SelectRequest = cdr::from_bytes(&cdr::to_bytes(&r)).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn host_status_round_trip() {
        let s = HostStatus {
            host: 1,
            speed: 2.0,
            load_avg: 0.5,
            cpu_util: 0.4,
            runnable: 1,
            reservations: 1.0,
            alive: true,
            score: 1.33,
        };
        let back: HostStatus = cdr::from_bytes(&cdr::to_bytes(&s)).unwrap();
        assert_eq!(s, back);
    }
}
