//! Deterministic cross-process shared state.
//!
//! Sim processes are OS threads, but only the one holding the kernel's
//! baton runs (see `kernel`'s module docs), so access to state shared
//! between processes is always serialized by the scheduler. A `Mutex` is
//! still required for *soundness* (the `Send`/`Sync` bounds on process
//! bodies), never for mutual exclusion — the only thread that can meet a
//! running process at a lock is a killed one unwinding off the baton — and
//! locking order cannot affect simulation outcomes. The kernel's own state
//! (`kernel::Core`) lives in a `Shared` cell too.
//!
//! `Shared<T>` packages that idiom so the rest of the workspace never
//! touches `std::sync::Mutex` directly: the sim crates deny clippy's D4
//! paths (`clippy.toml`), which ban OS synchronization primitives in
//! sim-process code, and this module — inside the kernel crate, which
//! implements the serialization guarantee — is the one sanctioned
//! implementation, waived by the `expect` below.

#![expect(
    clippy::disallowed_types,
    reason = "D4 waiver: Shared is the one Mutex the sim crates use, for Send/Sync soundness only; re-audited 2026-10, expiry 2027-06"
)]

use std::sync::{Arc, Mutex, MutexGuard};

/// A clonable cell shared between sim processes.
///
/// Clones refer to the same value. Locking never blocks in practice (the
/// kernel runs one process at a time) and is poison-transparent: a sim
/// process that panicked while holding the guard does not wedge the others,
/// which matters for fault-injection runs that kill processes mid-step.
#[derive(Debug, Default)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Shared<T> {
    /// Create a new shared cell holding `value`.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Mutex::new(value)))
    }

    /// Lock the cell. Poison-transparent; see the type docs.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Run `f` with exclusive access to the value.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock())
    }

    /// Replace the value, returning the previous one.
    pub fn replace(&self, value: T) -> T {
        std::mem::replace(&mut self.lock(), value)
    }
}

impl<T: Clone> Shared<T> {
    /// Clone the current value out of the cell.
    pub fn get(&self) -> T {
        self.lock().clone()
    }
}

impl<T> Shared<Option<T>> {
    /// Take the value out of an optional cell, leaving `None`.
    pub fn take(&self) -> Option<T> {
        self.lock().take()
    }

    /// Store `Some(value)`, returning any previous value.
    pub fn put(&self, value: T) -> Option<T> {
        self.lock().replace(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_alias_the_same_value() {
        let a = Shared::new(1u32);
        let b = a.clone();
        *b.lock() += 41;
        assert_eq!(a.get(), 42);
    }

    #[test]
    fn with_and_replace() {
        let s = Shared::new(vec![1, 2]);
        s.with(|v| v.push(3));
        assert_eq!(s.get(), vec![1, 2, 3]);
        assert_eq!(s.replace(vec![9]), vec![1, 2, 3]);
        assert_eq!(s.get(), vec![9]);
    }

    #[test]
    fn optional_cell_take_and_put() {
        let s: Shared<Option<&str>> = Shared::new(None);
        assert_eq!(s.put("ior"), None);
        assert_eq!(s.take(), Some("ior"));
        assert_eq!(s.take(), None);
    }

    #[test]
    fn poison_transparency() {
        let s = Shared::new(0u32);
        let s2 = s.clone();
        let _ = std::thread::spawn(move || {
            let _guard = s2.lock();
            panic!("poison the lock");
        })
        .join();
        *s.lock() = 7; // must not panic
        assert_eq!(s.get(), 7);
    }
}
