//! Wire protocol of the naming service, following the OMG COS Naming
//! specification (plus the group-binding extension that carries the
//! paper's load distribution).
//!
//! The contract is `idl/naming.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it: [`NameComponent`](CosNaming::NameComponent)
//! and the trait, skeleton and stub of `CosNaming::NamingContext`. The
//! user exceptions are hand-written here.

use cdr::cdr_enum;
use orb::{Exception, UserException};

// `native Name` of the contract.
pub use crate::name::Name;

include!("generated.rs");

/// Repository id of the (load-distributing) naming context interface.
pub const NAMING_CONTEXT_TYPE: &str = CosNaming::NamingContextStub::REPO_ID;

/// The conventional port of the naming service (CORBA's IANA-registered
/// 2809), so clients can bootstrap with nothing but a host name.
pub const NAMING_PORT: simnet::Port = simnet::Port(2809);

/// Object key of the root context in a freshly booted naming server (the
/// first object activated in its adapter).
pub const ROOT_CONTEXT_KEY: orb::ObjectKey = orb::ObjectKey(1);

cdr_enum!(
    /// Why a `resolve`/`bind` failed with `NotFound`: of the COS Naming
    /// enum, the one reason a flat context raises (wire value 0).
    NotFoundReason {
        /// A component was missing entirely.
        MissingNode = 0,
    }
);

/// `NotFound` user exception.
#[derive(Clone, Debug, PartialEq)]
pub struct NotFound {
    /// Failure reason.
    pub why: NotFoundReason,
    /// The part of the name that could not be followed.
    pub rest_of_name: Name,
}

impl NotFound {
    /// Repository id.
    pub const REPO_ID: &'static str = "IDL:CosNaming/NamingContext/NotFound:1.0";

    /// Raise as an ORB exception.
    pub fn raise(self) -> Exception {
        Exception::User(UserException::new(
            Self::REPO_ID,
            &(self.why, self.rest_of_name),
        ))
    }

    /// Extract from an ORB exception.
    pub fn extract(e: &Exception) -> Option<NotFound> {
        match e {
            Exception::User(u) if u.id == Self::REPO_ID => {
                let (why, rest_of_name) = u.members().ok()?;
                Some(NotFound { why, rest_of_name })
            }
            _ => None,
        }
    }
}

macro_rules! tag_exception {
    ($(#[$meta:meta])* $name:ident, $id:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
        pub struct $name;

        impl $name {
            /// Repository id.
            pub const REPO_ID: &'static str = $id;

            /// Raise as an ORB exception.
            pub fn raise(self) -> Exception {
                Exception::User(UserException::tag(Self::REPO_ID))
            }

            /// Whether `e` is this exception.
            pub fn matches(e: &Exception) -> bool {
                matches!(e, Exception::User(u) if u.id == Self::REPO_ID)
            }
        }
    };
}

tag_exception!(
    /// The name is already bound.
    AlreadyBound,
    "IDL:CosNaming/NamingContext/AlreadyBound:1.0"
);
tag_exception!(
    /// A structurally invalid name.
    InvalidName,
    "IDL:CosNaming/NamingContext/InvalidName:1.0"
);
tag_exception!(
    /// Extension: the group has no live members to resolve to.
    EmptyGroup,
    "IDL:CosNaming/LoadBalancedContext/EmptyGroup:1.0"
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameComponent;

    #[test]
    fn not_found_round_trip() {
        let nf = NotFound {
            why: NotFoundReason::MissingNode,
            rest_of_name: Name(vec![NameComponent::id("x")]),
        };
        let e = nf.clone().raise();
        assert_eq!(NotFound::extract(&e), Some(nf));
        assert!(!AlreadyBound::matches(&e));
    }

    #[test]
    fn tag_exceptions_match() {
        let e = AlreadyBound.raise();
        assert!(AlreadyBound::matches(&e));
        assert!(NotFound::extract(&e).is_none());
        assert!(InvalidName::matches(&InvalidName.raise()));
        assert!(EmptyGroup::matches(&EmptyGroup.raise()));
    }
}
