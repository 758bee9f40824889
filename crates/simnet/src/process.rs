//! The process-side view of the simulation: the [`Ctx`] handle and the
//! syscall/resume vocabulary between a process and the kernel core.
//!
//! Every simulated process runs on an OS thread of its own while it lives
//! (a pooled one, see `pool`), but only the thread that holds the kernel's
//! baton executes (see `kernel`'s module docs): a process runs from one
//! blocking syscall to the next. This gives deterministic execution while
//! letting application code (ORB server loops, optimization workers, ...)
//! be written in ordinary direct style.

use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cpu::HostSnapshot;
use crate::ids::{Addr, HostId, Pid, Port};
use crate::kernel::{wake, Core, Turn};
use crate::msg::Msg;
use crate::shared::Shared;
use crate::time::{SimDuration, SimTime};

/// The body of a simulated process.
pub type ProcessBody = Box<dyn FnOnce(&mut Ctx) + Send + 'static>;

/// What a process body passed to `spawn` returns: `()`, or the
/// [`SimResult`] of a body that propagates [`Killed`] with `?`. Either way
/// the process just ends there. Sealed to exactly these two types, so no
/// body ends by dropping another `Result`, such as a remote exception:
///
/// ```compile_fail
/// let mut sim = simnet::Kernel::with_seed(1);
/// let h = sim.add_host(simnet::HostConfig::new("h"));
/// sim.spawn(h, "p", |_| -> simnet::SimResult<Result<(), String>> { Ok(Ok(())) });
/// ```
pub trait ProcessExit: sealed::Sealed {}

impl ProcessExit for () {}

impl ProcessExit for SimResult<()> {}

mod sealed {
    use super::{Killed, SimResult};

    pub trait Sealed {
        fn end(self);
    }

    impl Sealed for () {
        fn end(self) {}
    }

    impl Sealed for SimResult<()> {
        fn end(self) {
            // `Err(Killed)` is how a killed body unwinds: nothing is lost.
            match self {
                Ok(()) | Err(Killed) => {}
            }
        }
    }
}

/// Box a `spawn` body as a [`ProcessBody`].
pub(crate) fn boxed<R: ProcessExit>(
    body: impl FnOnce(&mut Ctx) -> R + Send + 'static,
) -> ProcessBody {
    Box::new(move |ctx| body(ctx).end())
}

/// Error returned from every blocking operation of a process that has been
/// killed (or whose host has crashed, or whose kernel has shut down).
///
/// Application code should propagate this upward with `?`; the process
/// thread then unwinds cleanly and the kernel reaps it. This mirrors how a
/// Unix process sees `EINTR`/`SIGKILL`-adjacent conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Killed;

impl fmt::Display for Killed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("process killed")
    }
}

impl std::error::Error for Killed {}

/// Result of a simulation syscall.
pub type SimResult<T> = Result<T, Killed>;

/// Requests a process makes to the kernel.
pub(crate) enum Syscall {
    Sleep(SimDuration),
    /// Consume CPU work units on this process's host.
    /// `f64::INFINITY` spins forever (background load).
    Compute(f64),
    Send {
        to: Addr,
        data: Vec<u8>,
    },
    /// Keepalive to `(host, port)`, answered by that host's kernel.
    Probe {
        host: HostId,
        port: Port,
    },
    Recv {
        timeout: Option<SimDuration>,
    },
    TryRecv,
    BindPort,
    BindPortExact(Port),
    Spawn {
        host: HostId,
        name: String,
        body: ProcessBody,
    },
    CrashHost(HostId),
    RestartHost(HostId),
    HostInfo(HostId),
    Exit,
    /// The process body panicked (a bug, not a kill): the kernel re-raises
    /// this on the main thread to fail fast.
    Panicked(String),
}

impl fmt::Debug for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Syscall::Sleep(_) => "Sleep",
            Syscall::Compute(_) => "Compute",
            Syscall::Send { .. } => "Send",
            Syscall::Probe { .. } => "Probe",
            Syscall::Recv { .. } => "Recv",
            Syscall::TryRecv => "TryRecv",
            Syscall::BindPort => "BindPort",
            Syscall::BindPortExact(_) => "BindPortExact",
            Syscall::Spawn { .. } => "Spawn",
            Syscall::CrashHost(_) => "CrashHost",
            Syscall::RestartHost(_) => "RestartHost",
            Syscall::HostInfo(_) => "HostInfo",
            Syscall::Exit => "Exit",
            Syscall::Panicked(_) => "Panicked",
        };
        f.write_str(name)
    }
}

/// Kernel replies that resume a blocked process.
#[derive(Debug)]
pub(crate) enum Resume {
    /// First resume: start executing the body.
    Start { now: SimTime },
    /// A sleep or compute finished.
    Done { now: SimTime },
    /// A message arrived (reply to `Recv`/`TryRecv`).
    Msg { now: SimTime, msg: Msg },
    /// `Recv` timed out, or `TryRecv` found the mailbox empty.
    Empty { now: SimTime },
    /// Reply carrying a port.
    PortV { now: SimTime, port: Option<Port> },
    /// Reply carrying a pid (spawn).
    PidV { now: SimTime, pid: Pid },
    /// Reply carrying host info.
    Host {
        now: SimTime,
        snap: Option<HostSnapshot>,
    },
    /// Generic acknowledgement of an immediate syscall.
    Ok { now: SimTime },
}

impl Resume {
    fn now(&self) -> SimTime {
        match self {
            Resume::Start { now }
            | Resume::Done { now }
            | Resume::Msg { now, .. }
            | Resume::Empty { now }
            | Resume::PortV { now, .. }
            | Resume::PidV { now, .. }
            | Resume::Host { now, .. }
            | Resume::Ok { now } => *now,
        }
    }
}

thread_local! {
    /// Set once this thread's process has been killed: the global panic hook
    /// then suppresses the report for the expected kill-unwind panic
    /// (e.g. `.unwrap()` on a syscall result). The pool clears it before
    /// the thread runs its next process.
    pub(crate) static SUPPRESS_PANIC_REPORT: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// Handle through which a simulated process interacts with the world:
/// virtual time, CPU, network, process control, and deterministic
/// randomness.
pub struct Ctx {
    pid: Pid,
    host: HostId,
    now: SimTime,
    dead: bool,
    /// Inside `Core::syscall`: a panic now is the kernel's, not the body's.
    in_kernel: bool,
    core: Shared<Core>,
    rng: SmallRng,
}

impl Ctx {
    pub(crate) fn new(pid: Pid, host: HostId, seed: u64, core: Shared<Core>) -> Self {
        // Derive a per-process RNG deterministically from the kernel seed
        // and the (deterministically assigned) pid.
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((pid.0 as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        Ctx {
            pid,
            host,
            now: SimTime::ZERO,
            dead: false,
            in_kernel: false,
            core,
            rng: SmallRng::seed_from_u64(mixed),
        }
    }

    /// Wait for the initial `Start` resume. Called by the thread wrapper
    /// before the body runs.
    pub(crate) fn wait_start(&mut self) -> SimResult<()> {
        match self.wait_turn()? {
            Resume::Start { now } => {
                self.now = now;
                Ok(())
            }
            other => Err(self.bad_resume("start", &other)),
        }
    }

    /// Park until this process holds the baton, then take what its blocked
    /// syscall returns — or learn that it was killed meanwhile (a kill, a
    /// host crash and `Kernel::drop` unpark the thread too).
    fn wait_turn(&mut self) -> SimResult<Resume> {
        loop {
            let turn = self.core.lock_untracked().take_turn(self.pid);
            match turn {
                Some(Ok(resume)) => return Ok(resume),
                Some(Err(Killed)) => {
                    self.mark_dead();
                    return Err(Killed);
                }
                None => std::thread::park(),
            }
        }
    }

    fn mark_dead(&mut self) {
        self.dead = true;
        SUPPRESS_PANIC_REPORT.with(|s| s.set(true));
    }

    /// A resume that does not match the outstanding syscall means the
    /// kernel and this process disagree about the protocol state — an
    /// internal bug. The process reports it and treats itself as killed
    /// rather than panicking: a panic here would take down the whole sim
    /// run instead of one process.
    #[cold]
    fn bad_resume(&mut self, syscall: &str, got: &Resume) -> Killed {
        eprintln!(
            "simnet: protocol error on pid {:?}: {syscall} resumed with {got:?}; treating process as killed",
            self.pid
        );
        self.mark_dead();
        Killed
    }

    /// Whether this process has been killed.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// Make syscall `sc`. One that can pass the baton panics under a live
    /// `Shared` guard (`shared`'s module docs), naming the caller.
    #[track_caller]
    fn call(&mut self, sc: Syscall) -> SimResult<Resume> {
        if self.dead {
            return Err(Killed);
        }
        if let Syscall::Sleep(_) | Syscall::Compute(_) | Syscall::Recv { .. } = sc {
            let at = std::panic::Location::caller();
            crate::shared::assert_unheld(format_args!("blocking syscall {sc:?}"), at);
        }
        let resume = match self.enter(sc) {
            Turn::Go(resume) => resume,
            Turn::Wait(next) => {
                wake(next);
                self.wait_turn()?
            }
        };
        self.now = resume.now();
        Ok(resume)
    }

    fn enter(&mut self, sc: Syscall) -> Turn {
        self.in_kernel = true;
        let turn = self.core.lock_untracked().syscall(&self.core, self.pid, sc);
        self.in_kernel = false;
        turn
    }

    /// Tell the kernel that the body is over — it returned (`Exit`) or
    /// panicked for real, not as a kill unwind (`Panicked`) — and give the
    /// baton up for good. Called by the thread wrapper; waits for nothing.
    pub(crate) fn leave(&mut self, sc: Syscall) {
        if self.dead {
            return;
        }
        let turn = match sc {
            Syscall::Panicked(msg) if self.in_kernel => {
                Turn::Wait(self.core.lock_untracked().kernel_fault(self.pid, msg))
            }
            sc => self.enter(sc),
        };
        if let Turn::Wait(next) = turn {
            wake(next);
        }
    }

    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The host this process runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Current virtual time. Free: refreshed on every kernel interaction.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-process random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Suspend for a span of virtual time.
    #[track_caller]
    pub fn sleep(&mut self, d: SimDuration) -> SimResult<()> {
        match self.call(Syscall::Sleep(d))? {
            Resume::Done { .. } => Ok(()),
            other => Err(self.bad_resume("sleep", &other)),
        }
    }

    /// Consume `work` CPU work units on this host, sharing the CPU with all
    /// other runnable jobs. Virtual time advances accordingly.
    #[track_caller]
    pub fn compute(&mut self, work: f64) -> SimResult<()> {
        assert!(
            work >= 0.0 && !work.is_nan(),
            "compute work must be non-negative, got {work}"
        );
        if work == 0.0 {
            return Ok(());
        }
        match self.call(Syscall::Compute(work))? {
            Resume::Done { .. } => Ok(()),
            other => Err(self.bad_resume("compute", &other)),
        }
    }

    /// Spin on the CPU forever (a background-load process). Only returns
    /// when the process is killed, so the `Ok` branch is unreachable and the
    /// caller can simply `return` afterwards.
    #[track_caller]
    pub fn spin_forever(&mut self) -> SimResult<()> {
        self.compute(f64::INFINITY)
    }

    /// Send a fire-and-forget message. Delivery takes network latency plus
    /// transfer time; sending to a dead endpoint produces an RST (port
    /// closed, host up) or silence (host down).
    pub fn send(&mut self, to: Addr, data: Vec<u8>) -> SimResult<()> {
        match self.call(Syscall::Send { to, data })? {
            Resume::Ok { .. } => Ok(()),
            other => Err(self.bad_resume("send", &other)),
        }
    }

    /// Ask the kernel of `host` whether `(host, port)` is there: a
    /// zero-byte keepalive that no process ever receives. One network
    /// round trip later this process's mailbox gets
    /// [`Payload::Alive`](crate::Payload::Alive) (port bound) or
    /// [`Payload::Rst`](crate::Payload::Rst) (host up, port closed) — or
    /// nothing, when the host is down or either direction of the link is
    /// cut. Costs no CPU on either host and does not block.
    pub fn probe(&mut self, host: HostId, port: Port) -> SimResult<()> {
        match self.call(Syscall::Probe { host, port })? {
            Resume::Ok { .. } => Ok(()),
            other => Err(self.bad_resume("probe", &other)),
        }
    }

    /// Block until a message arrives.
    #[track_caller]
    pub fn recv(&mut self) -> SimResult<Msg> {
        match self.call(Syscall::Recv { timeout: None })? {
            Resume::Msg { msg, .. } => Ok(msg),
            other => Err(self.bad_resume("recv", &other)),
        }
    }

    /// Block until a message arrives or `timeout` elapses.
    #[track_caller]
    pub fn recv_timeout(&mut self, timeout: SimDuration) -> SimResult<Option<Msg>> {
        match self.call(Syscall::Recv {
            timeout: Some(timeout),
        })? {
            Resume::Msg { msg, .. } => Ok(Some(msg)),
            Resume::Empty { .. } => Ok(None),
            other => Err(self.bad_resume("recv_timeout", &other)),
        }
    }

    /// Non-blocking receive: returns immediately with a queued message, if
    /// any. Does not advance virtual time.
    pub fn try_recv(&mut self) -> SimResult<Option<Msg>> {
        match self.call(Syscall::TryRecv)? {
            Resume::Msg { msg, .. } => Ok(Some(msg)),
            Resume::Empty { .. } => Ok(None),
            other => Err(self.bad_resume("try_recv", &other)),
        }
    }

    /// Bind an ephemeral port on this host; messages to
    /// `Addr::Endpoint(host, port)` are then delivered to this process.
    pub fn bind_port(&mut self) -> SimResult<Port> {
        match self.call(Syscall::BindPort)? {
            Resume::PortV {
                port: Some(port), ..
            } => Ok(port),
            other => Err(self.bad_resume("bind_port", &other)),
        }
    }

    /// Bind a specific port on this host. Returns `None` if it is taken.
    pub fn bind_port_exact(&mut self, port: Port) -> SimResult<Option<Port>> {
        match self.call(Syscall::BindPortExact(port))? {
            Resume::PortV { port, .. } => Ok(port),
            other => Err(self.bad_resume("bind_port_exact", &other)),
        }
    }

    /// Spawn a new process on `host`. The process starts at the current
    /// virtual instant. If the host is down the pid is returned but the
    /// process never runs.
    pub fn spawn<R: ProcessExit>(
        &mut self,
        host: HostId,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) -> R + Send + 'static,
    ) -> SimResult<Pid> {
        match self.call(Syscall::Spawn {
            host,
            name: name.into(),
            body: boxed(body),
        })? {
            Resume::PidV { pid, .. } => Ok(pid),
            other => Err(self.bad_resume("spawn", &other)),
        }
    }

    /// Crash a host: all its processes die, its ports unbind, in-flight
    /// messages to it are lost.
    pub fn crash_host(&mut self, host: HostId) -> SimResult<()> {
        match self.call(Syscall::CrashHost(host))? {
            Resume::Ok { .. } => Ok(()),
            other => Err(self.bad_resume("crash_host", &other)),
        }
    }

    /// Bring a crashed host back up (empty: processes must be respawned).
    pub fn restart_host(&mut self, host: HostId) -> SimResult<()> {
        match self.call(Syscall::RestartHost(host))? {
            Resume::Ok { .. } => Ok(()),
            other => Err(self.bad_resume("restart_host", &other)),
        }
    }

    /// Read a host's load metrics, as a node manager reads from the OS.
    /// Returns `None` for unknown hosts.
    pub fn host_info(&mut self, host: HostId) -> SimResult<Option<HostSnapshot>> {
        match self.call(Syscall::HostInfo(host))? {
            Resume::Host { snap, .. } => Ok(snap),
            other => Err(self.bad_resume("host_info", &other)),
        }
    }
}
