//! Deterministic cross-process shared state, and the run-time check of
//! its lock discipline.
//!
//! Sim processes run on OS threads, but only the one holding the kernel's
//! baton runs (see `kernel`'s module docs), so access to state shared
//! between processes is always serialized by the scheduler. A `Mutex` is
//! still required for *soundness* (the `Send`/`Sync` bounds on process
//! bodies), never for mutual exclusion, and locking order cannot affect
//! simulation outcomes.
//!
//! That guarantee is what makes two rules checkable exactly, here and in
//! the kernel, instead of approximated by a static pass:
//!
//! - **No re-entry.** Every live guard records its cell and the line that
//!   took it in a per-thread list. Locking a cell this thread already holds
//!   panics with "Shared re-entered at X; held since Y", where a
//!   `std::sync::Mutex` would deadlock silently.
//! - **No yield while holding.** A syscall that can pass the baton
//!   (`sleep`, `compute`, `recv`, `recv_timeout`) panics when the calling
//!   thread holds a guard, whether or not that call would have blocked, and
//!   so do `Kernel::run_*` on the driver thread. An immediate syscall
//!   (`send`, `probe`, `spawn`, …) under a guard is allowed.
//!
//! So the running process never meets a cell held by another *live*
//! process, and an acquisition-order inversion cannot deadlock. A cell
//! held by another thread is waited for: that thread can only be a killed
//! process unwinding off the baton. The one residual is such an unwinding
//! process nesting two cells in the opposite order to the running one.
//!
//! The kernel's own state (`kernel::Core`) lives in a `Shared` cell too,
//! locked through [`Shared::lock_untracked`]: it is the mechanism, and a
//! process's syscalls run under it.
//!
//! `Shared<T>` packages the idiom so the rest of the workspace never
//! touches `std::sync::Mutex` directly: the sim crates deny clippy's D4
//! paths (`clippy.toml`), which ban OS synchronization primitives in
//! sim-process code, and this module — inside the kernel crate, which
//! implements the serialization guarantee — is the one sanctioned
//! implementation, waived by the `expect` below.

#![expect(
    clippy::disallowed_types,
    reason = "D4 waiver: Shared is the one Mutex the sim crates use, for Send/Sync soundness only; re-audited 2026-10, expiry 2027-06"
)]

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::{Arc, Mutex, MutexGuard};

type Site = &'static Location<'static>;

thread_local! {
    /// The guards this thread holds: `(cell address, where it was locked)`.
    static HELD: RefCell<Vec<(usize, Site)>> = const { RefCell::new(Vec::new()) };
}

/// A clonable cell shared between sim processes.
///
/// Clones refer to the same value. Locking is poison-transparent: a sim
/// process that panicked while holding the guard does not wedge the others,
/// which matters for fault-injection runs that kill processes mid-step.
#[derive(Debug, Default)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

/// A live lock on a [`Shared`] cell; unlocks when dropped.
pub struct SharedGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    cell: usize,
}

impl<T> Deref for SharedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for SharedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for SharedGuard<'_, T> {
    fn drop(&mut self) {
        // `try_with`: a guard dropped while the thread's locals are torn
        // down has nothing left to unregister from.
        let _torn_down = HELD.try_with(|held| held.borrow_mut().retain(|&(c, _)| c != self.cell));
    }
}

impl<T> Shared<T> {
    /// Create a new shared cell holding `value`.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Mutex::new(value)))
    }

    /// Lock the cell. Panics if this thread already holds it (module docs);
    /// poison-transparent (type docs).
    #[track_caller]
    pub fn lock(&self) -> SharedGuard<'_, T> {
        let cell = Arc::as_ptr(&self.0) as *const () as usize;
        let here = Location::caller();
        let held = HELD.with(|held| held.borrow().iter().find(|&&(c, _)| c == cell).copied());
        if let Some((_, since)) = held {
            violation(format_args!(
                "Shared re-entered at {here}; held since {since}"
            ));
        }
        let inner = self.lock_untracked();
        HELD.with(|held| held.borrow_mut().push((cell, here)));
        SharedGuard { inner, cell }
    }

    /// Lock the cell without the bookkeeping of [`Shared::lock`]: for the
    /// kernel's own core only (module docs).
    pub(crate) fn lock_untracked(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Run `f` with exclusive access to the value.
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock())
    }

    /// Replace the value, returning the previous one.
    #[track_caller]
    pub fn replace(&self, value: T) -> T {
        std::mem::replace(&mut *self.lock(), value)
    }
}

impl<T: Clone> Shared<T> {
    /// Clone the current value out of the cell.
    #[track_caller]
    pub fn get(&self) -> T {
        self.lock().clone()
    }
}

impl<T> Shared<Option<T>> {
    /// Take the value out of an optional cell, leaving `None`.
    #[track_caller]
    pub fn take(&self) -> Option<T> {
        self.lock().take()
    }

    /// Store `Some(value)`, returning any previous value.
    #[track_caller]
    pub fn put(&self, value: T) -> Option<T> {
        self.lock().replace(value)
    }
}

/// Panic if this thread holds a `Shared` guard: `what`, called at `at`,
/// can pass the baton (module docs).
pub(crate) fn assert_unheld(what: std::fmt::Arguments, at: Site) {
    if let Some((_, since)) = HELD.with(|held| held.borrow().first().copied()) {
        violation(format_args!(
            "{what} at {at} while holding the Shared guard taken at {since}"
        ));
    }
}

/// Debug-assert that this thread holds no `Shared` guard: a pooled thread
/// between two processes' bodies (`pool`).
pub(crate) fn debug_assert_none_held() {
    if cfg!(debug_assertions) {
        if let Some((_, since)) = HELD.with(|held| held.borrow().first().copied()) {
            violation(format_args!(
                "a process body ended holding the Shared guard taken at {since}"
            ));
        }
    }
}

#[cold]
#[expect(
    clippy::panic,
    reason = "P1 waiver, by design: a broken Shared lock discipline is a bug that would otherwise hang the run; the panic names both lines instead; expiry 2027-06"
)]
fn violation(msg: std::fmt::Arguments) -> ! {
    panic!("{msg}")
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

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let payload = payload.expect_err("no panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn locking_a_held_cell_names_both_lines() {
        let (s, line) = (Shared::new(0u32), line!());
        let msg = panic_message(|| {
            s.with(|_| {
                let _inner = s.lock();
            })
        });
        let at = |n| format!("{}:{}:", file!(), line + n);
        assert!(
            msg.starts_with(&format!("Shared re-entered at {}", at(3))),
            "{msg}"
        );
        assert!(msg.contains(&format!("; held since {}", at(2))), "{msg}");
        // The unwind released the guard; a clone is the same cell; two
        // distinct cells nest.
        let (alias, other) = (s.clone(), Shared::new(2));
        let guard = alias.lock();
        assert_eq!(*guard + other.get(), 2);
        assert!(panic_message(|| drop(s.lock())).starts_with("Shared re-entered"));
        drop(guard);
        assert_unheld(format_args!("test"), Location::caller());
    }

    #[test]
    fn a_cell_held_by_another_thread_is_waited_for() {
        let s = Shared::new(0u32);
        let guard = s.lock();
        let s2 = s.clone();
        let waiter = std::thread::spawn(move || {
            *s2.lock() += 1;
        });
        // The waiter blocks rather than panics until this guard goes.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished());
        drop(guard);
        waiter.join().expect("the waiter must not panic");
        assert_eq!(s.get(), 1);
    }
}
