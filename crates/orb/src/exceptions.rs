//! CORBA exceptions: system exceptions (raised by the ORB) and user
//! exceptions (raised by servants and declared in IDL).
//!
//! The paper's fault-tolerance mechanism hinges on exactly one of these:
//! `CORBA::COMM_FAILURE`, "the only way to detect an error on the client
//! side" — thrown when a client calls a service that is no longer
//! reachable. The FT proxies catch it and drive recovery.

use cdr::{CdrDecoder, CdrEncoder, CdrRead, CdrResult, CdrWrite};
use std::fmt;

cdr::cdr_enum!(
    /// How far the operation had proceeded when the exception was raised.
    Completion {
        /// The operation completed before the exception.
        Yes = 0,
        /// The operation never started.
        No = 1,
        /// Unknown — the dangerous case for non-idempotent operations.
        Maybe = 2,
    }
);

cdr::cdr_enum!(
    /// The standard system exception kinds used in this repository
    /// (a subset of the CORBA 2 list).
    SysKind {
        /// Communication failure: connection refused, reset, or timed out.
        CommFailure = 0,
        /// Transient condition; the request may be retried.
        Transient = 1,
        /// The object key does not denote an existing object.
        ObjectNotExist = 2,
        /// The operation name is not known to the target object.
        BadOperation = 3,
        /// Marshalling or unmarshalling failed.
        Marshal = 4,
        /// The operation exists but is not implemented.
        NoImplement = 5,
        /// An invalid parameter was passed.
        BadParam = 6,
        /// ORB-internal error.
        Internal = 7,
    }
);

/// A CORBA system exception.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemException {
    /// Which standard exception this is.
    pub kind: SysKind,
    /// Completion status of the failed operation.
    pub completed: Completion,
    /// Human-readable detail (maps onto the CORBA minor code).
    pub detail: String,
}

impl SystemException {
    /// Construct an exception of the given kind.
    pub fn new(kind: SysKind, completed: Completion, detail: impl Into<String>) -> Self {
        SystemException {
            kind,
            completed,
            detail: detail.into(),
        }
    }

    /// `INTERNAL`: an ORB-side invariant failed. Raised instead of
    /// panicking so a runtime bug degrades one request, not the whole sim.
    pub fn internal(detail: impl Into<String>) -> Self {
        SystemException::new(SysKind::Internal, Completion::Maybe, detail)
    }

    /// `COMM_FAILURE` with unknown completion (the network gave no answer).
    pub fn comm_failure(detail: impl Into<String>) -> Self {
        SystemException::new(SysKind::CommFailure, Completion::Maybe, detail)
    }

    /// `TRANSIENT`: retry may succeed.
    pub fn transient(detail: impl Into<String>) -> Self {
        SystemException::new(SysKind::Transient, Completion::No, detail)
    }

    /// `OBJECT_NOT_EXIST` for a stale or bogus object key.
    pub fn object_not_exist(detail: impl Into<String>) -> Self {
        SystemException::new(SysKind::ObjectNotExist, Completion::No, detail)
    }

    /// `BAD_OPERATION` for an unknown operation name.
    pub fn bad_operation(op: &str) -> Self {
        SystemException::new(
            SysKind::BadOperation,
            Completion::No,
            format!("operation {op:?}"),
        )
    }

    /// `MARSHAL` for a malformed request or reply body.
    pub fn marshal(detail: impl fmt::Display) -> Self {
        SystemException::new(SysKind::Marshal, Completion::No, detail.to_string())
    }
}

impl fmt::Display for SystemException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CORBA::{:?} (completed={:?}): {}",
            self.kind, self.completed, self.detail
        )
    }
}

impl std::error::Error for SystemException {}

impl CdrWrite for SystemException {
    fn write(&self, enc: &mut CdrEncoder) {
        self.kind.write(enc);
        self.completed.write(enc);
        enc.write_string(&self.detail);
    }
}

impl CdrRead for SystemException {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(SystemException {
            kind: SysKind::read(dec)?,
            completed: Completion::read(dec)?,
            detail: dec.read_string()?,
        })
    }
}

/// A user exception: the IDL-declared repository id plus its marshalled
/// members (decoded by the typed stub that knows the declaration).
#[derive(Clone, Debug, PartialEq)]
pub struct UserException {
    /// Repository id, e.g. `IDL:CosNaming/NamingContext/NotFound:1.0`.
    pub id: String,
    /// CDR-encoded exception members.
    pub body: Vec<u8>,
}

impl UserException {
    /// Build a user exception with typed members.
    pub fn new<T: CdrWrite>(id: impl Into<String>, members: &T) -> Self {
        UserException {
            id: id.into(),
            body: cdr::to_bytes(members),
        }
    }

    /// Build a user exception with no members.
    pub fn tag(id: impl Into<String>) -> Self {
        UserException {
            id: id.into(),
            body: Vec::new(),
        }
    }

    /// Decode the members, if the caller knows the declared type.
    pub fn members<T: CdrRead>(&self) -> CdrResult<T> {
        cdr::from_bytes(&self.body)
    }
}

impl fmt::Display for UserException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user exception {}", self.id)
    }
}

impl std::error::Error for UserException {}

impl CdrWrite for UserException {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_string(&self.id);
        enc.write_bytes(&self.body);
    }
}

impl CdrRead for UserException {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(UserException {
            id: dec.read_string()?,
            body: dec.read_octets()?.to_vec(),
        })
    }
}

/// Either kind of exception, as surfaced to a client.
#[derive(Clone, Debug, PartialEq)]
pub enum Exception {
    /// Raised by the ORB or the server runtime.
    System(SystemException),
    /// Raised by the servant and declared in IDL.
    User(UserException),
}

impl Exception {
    /// Whether a retry against a fresh reference could plausibly succeed
    /// (`COMM_FAILURE`, `TRANSIENT`, or `OBJECT_NOT_EXIST` from a stale
    /// reference).
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            Exception::System(SystemException {
                kind: SysKind::CommFailure | SysKind::Transient | SysKind::ObjectNotExist,
                ..
            })
        )
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::System(e) => e.fmt(f),
            Exception::User(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Exception {}

impl From<SystemException> for Exception {
    fn from(e: SystemException) -> Self {
        Exception::System(e)
    }
}

impl From<UserException> for Exception {
    fn from(e: UserException) -> Self {
        Exception::User(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_exception_round_trip() {
        let e = SystemException::comm_failure("connection reset");
        let back: SystemException = cdr::from_bytes(&cdr::to_bytes(&e)).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn user_exception_members_round_trip() {
        cdr::cdr_struct!(NotFound {
            why: u32,
            rest: String
        });
        let members = NotFound {
            why: 2,
            rest: "a/b".into(),
        };
        let ex = UserException::new("IDL:CosNaming/NamingContext/NotFound:1.0", &members);
        let back: UserException = cdr::from_bytes(&cdr::to_bytes(&ex)).unwrap();
        assert_eq!(ex, back);
        assert_eq!(back.members::<NotFound>().unwrap(), members);
    }

    #[test]
    fn comm_failure_classification() {
        let cf: Exception = SystemException::comm_failure("x").into();
        assert!(cf.is_recoverable());
        let bo: Exception = SystemException::bad_operation("solve").into();
        assert!(!bo.is_recoverable());
        let ue: Exception = UserException::tag("IDL:X:1.0").into();
        assert!(!ue.is_recoverable());
    }

    #[test]
    fn display_formats() {
        let e = SystemException::comm_failure("timeout");
        assert!(format!("{e}").contains("CommFailure"));
        let u = UserException::tag("IDL:X:1.0");
        assert!(format!("{u}").contains("IDL:X:1.0"));
    }
}
