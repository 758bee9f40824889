//! The object adapter: maps object keys to servants, in the spirit of the
//! CORBA Portable Object Adapter.
//!
//! A [`Poa`] lives inside one server process. Servants are stored behind
//! `Rc<RefCell<…>>` so a servant can be dispatched while other servants are
//! activated (e.g. a factory activating a new servant during `create`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cdr::CdrWrite;
use simnet::{Ctx, Pid};

use crate::exceptions::Exception;
use crate::giop::ServiceContext;
use crate::ior::ObjectKey;

/// The context handed to a servant for one dispatch: the simulation handle
/// (to model CPU cost or sleep), the process's ORB (to make nested calls),
/// the adapter (to activate further objects), call metadata, and the
/// request's service contexts in and the reply's out.
pub struct CallCtx<'a> {
    /// Simulation handle of the server process.
    pub ctx: &'a mut Ctx,
    /// The server process's ORB, for nested outgoing calls.
    pub orb: &'a mut crate::core::Orb,
    /// The adapter the target object lives in.
    pub poa: &'a Poa,
    /// The calling process.
    pub from: Pid,
    /// The target object's key.
    pub key: ObjectKey,
    /// The request's in-parameter body as it arrived — the `args` the
    /// servant's `dispatch` is handed — for a servant that passes the
    /// request on unchanged (a store coordinator's fan-out).
    pub args: &'a [u8],
    /// The request's service contexts as they arrived.
    pub contexts: &'a [ServiceContext],
    /// Service contexts the reply carries back; a successful reply only.
    pub reply_contexts: Vec<ServiceContext>,
}

/// A CORBA servant: application code dispatching operations by name.
pub trait Servant {
    /// Handle one operation. `args` is the CDR-encoded in-parameter body;
    /// the return value is the CDR-encoded result body.
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception>;
}

/// Helper for servants: encode a typed result body.
pub fn reply<T: CdrWrite>(value: &T) -> Result<Vec<u8>, Exception> {
    Ok(cdr::to_bytes(value))
}

/// A servant as the adapter holds it.
type ServantRef = Rc<RefCell<dyn Servant>>;

struct Entry {
    servant: ServantRef,
    type_id: Rc<str>,
}

struct Inner {
    next_key: u64,
    servants: BTreeMap<ObjectKey, Entry>,
}

/// An object adapter.
pub struct Poa {
    inner: RefCell<Inner>,
}

impl Default for Poa {
    fn default() -> Self {
        Poa::new()
    }
}

impl Poa {
    /// An empty adapter.
    pub fn new() -> Self {
        Poa {
            inner: RefCell::new(Inner {
                next_key: 1,
                servants: BTreeMap::new(),
            }),
        }
    }

    /// Activate a servant under a fresh object key.
    pub fn activate(
        &self,
        type_id: impl Into<String>,
        servant: Rc<RefCell<dyn Servant>>,
    ) -> ObjectKey {
        let mut inner = self.inner.borrow_mut();
        let key = ObjectKey(inner.next_key);
        inner.next_key += 1;
        inner.servants.insert(
            key,
            Entry {
                servant,
                type_id: type_id.into().into(),
            },
        );
        key
    }

    /// Whether an object key is active (answers `LocateRequest`s).
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.inner.borrow().servants.contains_key(&key)
    }

    /// Look up a servant and its type id. Both are `Rc`s, cloned out so
    /// the map borrow is released before dispatch without copying a string.
    pub(crate) fn lookup(&self, key: ObjectKey) -> Option<(ServantRef, Rc<str>)> {
        let inner = self.inner.borrow();
        inner
            .servants
            .get(&key)
            .map(|e| (e.servant.clone(), e.type_id.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Servant for Echo {
        fn dispatch(
            &mut self,
            _call: &mut CallCtx<'_>,
            _op: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, Exception> {
            Ok(args.to_vec())
        }
    }

    #[test]
    fn activate_assigns_fresh_keys() {
        let poa = Poa::new();
        let k1 = poa.activate("IDL:Echo:1.0", Rc::new(RefCell::new(Echo)));
        let k2 = poa.activate("IDL:Echo:1.0", Rc::new(RefCell::new(Echo)));
        assert_ne!(k1, k2);
        assert!(poa.contains(k1) && poa.contains(k2));
    }

    #[test]
    fn lookup_returns_type_id() {
        let poa = Poa::new();
        let k = poa.activate("IDL:Echo:1.0", Rc::new(RefCell::new(Echo)));
        let (_, tid) = poa.lookup(k).unwrap();
        assert_eq!(&*tid, "IDL:Echo:1.0");
        assert!(poa.lookup(ObjectKey(999)).is_none());
    }
}
