//! Wire protocol of the naming service, following the OMG COS Naming
//! specification (plus the group-binding extension that carries the
//! paper's load distribution).
//!
//! The contract is `idl/naming.idl`; `generated.rs`, included below, is
//! `idlc`'s output for it: [`NameComponent`](CosNaming::NameComponent),
//! the user exceptions, and the trait, skeleton and stub of
//! `CosNaming::NamingContext`.

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

#[cfg(test)]
mod tests {
    use super::CosNaming::{AlreadyBound, NotFound, NotFoundReason};
    use crate::name::{Name, NameComponent};

    #[test]
    fn exceptions_round_trip_and_tell_each_other_apart() {
        let nf = NotFound {
            why: NotFoundReason::missing_node,
            rest_of_name: Name(vec![NameComponent::id("x")]),
        };
        let e = nf.clone().raise();
        assert_eq!(NotFound::extract(&e), Some(nf));
        assert!(AlreadyBound::extract(&e).is_none());
        let e = AlreadyBound {}.raise();
        assert_eq!(AlreadyBound::extract(&e), Some(AlreadyBound {}));
        assert!(NotFound::extract(&e).is_none());
    }
}
