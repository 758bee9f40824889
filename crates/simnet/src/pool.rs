//! The OS threads simulated processes run on: one pool for the whole
//! program, shared by every kernel in it.
//!
//! A process's body runs on a pooled thread from its start event until it
//! ends (exits, panics, or unwinds after a kill). The thread then parks in
//! the pool until any kernel starts another process, so a program that
//! builds one cluster after another starts OS threads only for its first.
//! A new thread is started only when none is idle: the pool grows to the
//! most bodies ever running at once and never shrinks.
//!
//! Every wake-up here is re-checked: a kernel's stale `unpark` may reach a
//! thread that already runs another kernel's process (`Kernel::drop`), so
//! each `park` in the crate sits in a loop over its own condition.

#![expect(
    clippy::disallowed_types,
    reason = "D4 waiver: the kernel runs each sim process on a pooled OS thread and hands them one baton; the pool's locks only hand a thread its next body and report a body's end; re-audited 2026-10, expiry 2027-06"
)]

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

/// A body handed to a pooled thread, the process's name, and where it
/// reports its end.
struct Job {
    name: String,
    body: Box<dyn FnOnce() + Send>,
    end: Arc<End>,
}

/// Where a parked thread finds its next job.
type Slot = Arc<Mutex<Option<Job>>>;

/// A parked thread.
struct Idle {
    /// The process it ran last.
    name: String,
    thread: Thread,
    slot: Slot,
}

/// The parked threads, longest idle first.
static IDLE: Mutex<Vec<Idle>> = Mutex::new(Vec::new());

#[derive(Default)]
struct End {
    ended: Mutex<bool>,
    cv: Condvar,
}

/// One process's body on its pooled thread: the thread, and whether the
/// body has ended.
pub(crate) struct Task {
    thread: Thread,
    end: Arc<End>,
}

impl Task {
    /// The thread the body runs on — until it ends; after that the thread
    /// may run another process.
    pub(crate) fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Whether the body has ended and its thread is back in the pool.
    pub(crate) fn ended(&self) -> bool {
        *lock(&self.end.ended)
    }

    /// Wait until the body has ended and its thread is back in the pool.
    pub(crate) fn wait(&self) {
        let mut ended = lock(&self.end.ended);
        while !*ended {
            ended = self
                .end
                .cv
                .wait(ended)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Run `body`, the body of a process called `name`, on an idle thread —
/// the one that last ran a process of that name, else the one idle
/// longest — or on a new one. Returns its task and whether a thread was
/// started. An idle thread keeps the deepest stack any of its processes
/// touched, so reuse by name keeps resident memory near one stack per role.
pub(crate) fn start(name: &str, body: Box<dyn FnOnce() + Send>) -> std::io::Result<(Task, bool)> {
    let end = Arc::new(End::default());
    let job = Job {
        name: name.to_string(),
        body,
        end: Arc::clone(&end),
    };
    let idle = {
        let mut idle = lock(&IDLE);
        let at = idle.iter().position(|t| t.name == name).unwrap_or(0);
        (at < idle.len()).then(|| idle.remove(at))
    };
    let (thread, started) = match idle {
        Some(t) => {
            *lock(&t.slot) = Some(job);
            t.thread.unpark();
            (t.thread, false)
        }
        None => {
            let slot = Arc::new(Mutex::new(Some(job)));
            let spawned = std::thread::Builder::new().spawn(move || work(slot))?;
            (spawned.thread().clone(), true)
        }
    };
    Ok((Task { thread, end }, started))
}

/// A pooled thread: run each job handed to it, then park in the pool.
fn work(slot: Slot) {
    loop {
        let Job { name, body, end } = loop {
            if let Some(job) = lock(&slot).take() {
                break job;
            }
            std::thread::park();
        };
        let ended = Ended(end);
        body();
        // The next body on this thread starts from a clean slate: its
        // panics are reported, and it holds no `Shared` guard.
        crate::process::SUPPRESS_PANIC_REPORT.with(|s| s.set(false));
        crate::shared::debug_assert_none_held();
        let thread = std::thread::current();
        let slot = Arc::clone(&slot);
        lock(&IDLE).push(Idle { name, thread, slot });
        // Back in the pool before the end is reported, so a kernel built
        // right after this one finds the thread idle.
        drop(ended);
    }
}

/// Reports the end of a body when dropped — also when the pooled thread
/// itself unwinds, so no waiter hangs on a thread that is gone.
struct Ended(Arc<End>);

impl Drop for Ended {
    fn drop(&mut self) {
        *lock(&self.0.ended) = true;
        self.0.cv.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
