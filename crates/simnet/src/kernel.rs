//! The discrete-event kernel: virtual clock, event queue, and the
//! scheduler that runs simulated processes one at a time.
//!
//! # Execution model
//!
//! The kernel owns all simulation state (`Core`) outright, and one loop
//! works on it: the scheduler in `Kernel::run_*`, on the caller's thread
//! ("the driver"). Each process body runs as a fiber (`fiber`) on that
//! same thread, with a stack of its own from the thread's pool. The loop
//! (`Core::advance`: drain the runnable queue, check the stop rule, pop and
//! handle the next event) picks the process that is due and gives it its
//! turn (`Core::turn`): it resumes the fiber with what its blocked syscall
//! returns (`Resume`), and the body runs until its next syscall, which
//! switches back with the `Syscall`. `handle_syscall` serves it: an
//! immediate one answers `Some(Resume)` and the same fiber is resumed at
//! once; a blocking one answers `None` and the loop goes on. A switch is a
//! user-mode stack switch, about 16 ns each way; no OS thread is involved.
//!
//! Kills are deterministic too. A killed process's fiber moves to
//! `Core::reaped`, and the loop resumes it with `Err(Killed)` — to unwind
//! on its own stack, running its destructors — before it resumes any other
//! process: the caller of a killing syscall first, if it killed itself, so
//! the guards it holds are gone before another body's destructors run. A
//! killed process never switches again, and neither does a body that
//! unwinds a panic (its syscalls return `Err(Killed)`), so std's
//! per-thread panic count never spans two bodies. A body's panic is caught
//! on its fiber and re-raised by the loop; so is a panic of the kernel's
//! own code inside a syscall, and `max_events` tripping.
//!
//! The event hook and the profile hook both run in the loop, between
//! turns: the hook sees `event.*` and `sys.*` marks around the kernel's own
//! work and `sched.handoff` around each resume, and installing either
//! changes nothing the loop decides.

//! # Determinism
//!
//! Events are ordered by `(time, sequence-number)`, the sequence number
//! being a monotone insertion counter, so ties break in insertion order.
//! Exactly one process executes at any moment, and only between two of its
//! syscalls; killed processes unwind at fixed points of the loop. Which
//! stack a process runs on cannot be observed from inside the simulation.
//! Per-process RNGs are
//! seeded from the kernel seed and the deterministically-assigned pid. Two
//! runs with the same seed and the same program therefore produce identical
//! traces, with or without observers installed.
//!
//! A `compute` alone on its host finishes inside its syscall when nothing
//! can happen first (`Core::complete_alone`): its completion check would be
//! the next event popped, alone at its instant, so skipping the queue takes
//! no decision the queue would have taken differently — not even a tie —
//! and leaves every other event's order unchanged.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::cpu::{HostConfig, HostState};
use crate::fiber::{Fiber, Step};
use crate::ids::{Addr, HostId, Pid, Port};
use crate::msg::{Msg, Payload};
use crate::process::{
    boxed, Ctx, Killed, ProcFiber, ProcessBody, ProcessExit, Resume, SimResult, Syscall,
    SUPPRESS_PANIC_REPORT,
};
use crate::time::{SimDuration, SimTime};

/// One-way latency between processes on the same host. With the
/// bandwidth below and the default remote latency, it is the timing of a
/// late-90s switched 100 Mbit/s workstation LAN, the environment of the
/// paper's Winner cluster.
const LATENCY_LOCAL: SimDuration = SimDuration::from_micros(20);
/// Link bandwidth in bytes per second (100 Mbit/s): a message takes
/// `size / BANDWIDTH` on top of its latency.
const BANDWIDTH: f64 = 12_500_000.0;
/// Time constant of the per-host load-average EWMA.
const LOAD_EWMA_TAU: SimDuration = SimDuration::from_secs(2);

/// Network timing model.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// One-way latency between different hosts on the LAN.
    pub latency_remote: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_remote: SimDuration::from_micros(150),
        }
    }
}

/// Kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Master seed for all per-process RNGs.
    pub seed: u64,
    /// Network timing model.
    pub net: NetConfig,
    /// Safety valve: the run aborts (panics) after this many events, which
    /// catches accidental infinite event loops in tests.
    pub max_events: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            seed: 0xC0FFEE,
            net: NetConfig::default(),
            max_events: 50_000_000,
        }
    }
}

/// Counters accumulated over a run; useful in benchmarks and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Events processed.
    pub events: u64,
    /// Messages delivered to a mailbox or a blocked receiver.
    pub msgs_delivered: u64,
    /// Messages dropped (dead destination, down host, or partition).
    pub msgs_dropped: u64,
    /// RST notifications generated for sends and keepalives to closed ports.
    pub rsts: u64,
    /// Processes spawned.
    pub spawned: u64,
    /// Processes killed (by a `KillProcess` fault, host crash, or kernel
    /// shutdown).
    pub killed: u64,
    /// Fiber stacks mapped for this kernel's processes: zero when idle
    /// stacks of the thread's pool ran them all. Unlike the counters above
    /// it depends on what ran before on the thread, not on the seed.
    pub stacks_mapped: u64,
}

/// A fault-injection command, schedulable at an absolute virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Kill one process.
    KillProcess(Pid),
    /// Crash a host: every process on it dies, its ports unbind.
    CrashHost(HostId),
    /// Bring a crashed host back up (empty).
    RestartHost(HostId),
    /// Block or heal the link between two hosts.
    Partition(HostId, HostId, bool),
    /// Block or heal every link between `side` and the rest of the host
    /// set (a named-sides group partition, not just one pairwise link).
    /// Healing removes exactly the pairwise blocks the matching block
    /// installed.
    PartitionGroup {
        /// Hosts on one side of the cut.
        side: Vec<HostId>,
        /// `true` to install the cut, `false` to heal it.
        blocked: bool,
    },
    /// Block or restore message flow in one direction only: requests from
    /// `from` still reach `to`'s peers, but nothing flows back (the
    /// asymmetric gray failure that makes a live server look dead).
    DropOneWay {
        /// Messages *from* this host are dropped …
        from: HostId,
        /// … when addressed to this host.
        to: HostId,
        /// `true` to install the drop, `false` to restore the direction.
        blocked: bool,
    },
    /// Degrade the link between two hosts (both directions): add one-way
    /// latency and drop each message with probability `drop_milli`/1000
    /// (drawn from the kernel's own seeded RNG, so runs stay
    /// deterministic). Zero latency and zero drop restores the link.
    DegradeLink {
        /// One endpoint.
        a: HostId,
        /// The other endpoint.
        b: HostId,
        /// Extra one-way latency added on top of the latency model.
        extra_latency: SimDuration,
        /// Per-message drop probability in thousandths (0..=1000).
        drop_milli: u32,
    },
    /// Skew the host's wall clock by this many nanoseconds relative to
    /// virtual time. Surfaces in [`crate::HostSnapshot::clock_skew_ns`];
    /// readers that stamp wall-clock times (Winner load reports) pick it
    /// up from there. Zero restores an honest clock.
    SetClockSkew(HostId, i64),
}

#[derive(Debug)]
enum EventKind {
    Start(Pid),
    Timer {
        pid: Pid,
        epoch: u64,
    },
    Deliver(Msg),
    /// A keepalive from `from` reaches `host`, whose kernel answers it.
    Probe {
        from: Pid,
        host: HostId,
        port: Port,
    },
    CpuCheck {
        host: HostId,
        epoch: u64,
    },
    Fault(Fault),
}

struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, o: &Self) -> bool {
        self.time == o.time && self.seq == o.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Event {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(o.time, o.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Block {
    Sleep,
    Recv,
    Compute,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Created; its fiber not yet made.
    NotStarted,
    /// Waiting in a blocking syscall.
    Blocked(Block),
    /// Has a pending resume and sits in the runnable queue.
    Runnable,
    /// Currently executing (it is `Core::running`).
    Running,
    /// Exited or killed.
    Dead,
}

struct Proc {
    name: String,
    host: HostId,
    status: Status,
    mailbox: VecDeque<Msg>,
    /// The process's body on its fiber, from its start event until it
    /// ends, is killed (then the fiber moves to `Core::reaped`) or the
    /// kernel is dropped.
    fiber: Option<ProcFiber>,
    body: Option<ProcessBody>,
    /// Invalidates in-flight timer events.
    timer_epoch: u64,
    ports: Vec<Port>,
    pending: Option<Resume>,
}

/// The simulation kernel. See the module docs for the execution model.
/// Not `Send`: its processes' fibers run on the thread that made them.
pub struct Kernel {
    core: Core,
    profile_hook: Option<ProfileHook>,
}

/// Everything the simulation is made of; the scheduler loop alone works
/// on it.
struct Core {
    cfg: KernelConfig,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    hosts: Vec<HostState>,
    port_map: BTreeMap<(HostId, Port), Pid>,
    next_port: Vec<u16>,
    procs: Vec<Proc>,
    runnable: VecDeque<Pid>,
    partitions: BTreeSet<(HostId, HostId)>,
    /// Directional drops: messages from `.0` to `.1` are discarded.
    oneway_blocks: BTreeSet<(HostId, HostId)>,
    /// Degraded (gray) links: extra one-way latency plus a per-message
    /// drop probability in thousandths, keyed by the ordered host pair.
    degraded: BTreeMap<(HostId, HostId), (SimDuration, u32)>,
    /// Kernel-owned RNG for degraded-link drop draws, seeded from the
    /// config seed so the fault layer stays a pure function of the seed.
    net_rng: rand::rngs::SmallRng,
    /// Per-link one-way latency overrides (WAN modelling).
    link_latency: BTreeMap<(HostId, HostId), SimDuration>,
    stats: KernelStats,
    peaks: Peaks,
    /// The current run's stop rule: stop before the first event later than
    /// `deadline`, and once process `exit_on` is dead.
    deadline: Option<SimTime>,
    exit_on: Option<Pid>,
    /// A sim process panicked; `run_inner` re-raises it on the driver.
    panicked: Option<(Pid, String)>,
    /// `max_events` tripped; `run_inner` raises it on the driver.
    runaway: bool,
    /// Called by the scheduler at each `emit`.
    event_hook: Option<EventHook>,
    /// An armed send trigger: crash this host once it has sent this many
    /// more frames (`Kernel::crash_after_sends`).
    send_trigger: Option<(HostId, u64)>,
    /// The process whose turn it is.
    running: Option<Pid>,
    /// The process that had the last turn of this run (`None`: none yet).
    last: Option<Pid>,
    /// Fibers of killed processes, to unwind before the next turn; the
    /// caller of the killing syscall first.
    reaped: VecDeque<ProcFiber>,
    process_switches: u64,
}

/// A structured process/host lifecycle or fault event. Each is emitted
/// once, to the event hook; its `Display` rendering (`spawn p0 name on
/// h0`, `kill p0`, `crash h1`, `partition h0-h1 cut`, ...) is the textual
/// trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelEvent {
    /// A process was spawned (its start event is scheduled).
    ProcSpawn {
        /// Pid assigned to the new process.
        pid: Pid,
        /// Process name.
        name: String,
        /// Host the process runs on.
        host: HostId,
    },
    /// A process was killed (by `kill`, host crash, or kernel shutdown).
    ProcKill {
        /// Pid of the killed process.
        pid: Pid,
        /// Process name.
        name: String,
        /// Host the process ran on.
        host: HostId,
    },
    /// A process body returned (clean exit).
    ProcExit {
        /// Pid of the exited process.
        pid: Pid,
        /// Process name.
        name: String,
        /// Host the process ran on.
        host: HostId,
    },
    /// A host crashed; every process on it was killed first (each with its
    /// own `ProcKill` event).
    HostCrash(HostId),
    /// A crashed host came back up (empty).
    HostRestart(HostId),
    /// A partition was installed: messages between `a`-side and `b`-side
    /// hosts are dropped (only `a` → `b` when `oneway`).
    PartitionStart {
        /// Hosts on the first side (the `from` side for one-way drops).
        a: Vec<HostId>,
        /// Hosts on the other side.
        b: Vec<HostId>,
        /// Whether only the `a` → `b` direction is blocked.
        oneway: bool,
    },
    /// A partition healed: the matching `PartitionStart` cut is gone.
    PartitionHeal {
        /// Hosts on the first side (the `from` side for one-way drops).
        a: Vec<HostId>,
        /// Hosts on the other side.
        b: Vec<HostId>,
        /// Whether only the `a` → `b` direction had been blocked.
        oneway: bool,
    },
    /// A link was degraded (extra latency and/or probabilistic drop).
    LinkDegraded(HostId, HostId),
    /// A degraded link was restored to the plain latency model.
    LinkRestored(HostId, HostId),
    /// A host's wall clock was skewed by this many nanoseconds (zero
    /// restores an honest clock).
    ClockSkewSet(HostId, i64),
}

impl std::fmt::Display for KernelEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelEvent::ProcSpawn { pid, name, host } => write!(f, "spawn {pid} {name} on {host}"),
            KernelEvent::ProcKill { pid, .. } => write!(f, "kill {pid}"),
            KernelEvent::ProcExit { pid, .. } => write!(f, "exit {pid}"),
            KernelEvent::HostCrash(h) => write!(f, "crash {h}"),
            KernelEvent::HostRestart(h) => write!(f, "restart {h}"),
            KernelEvent::PartitionStart { a, b, oneway }
            | KernelEvent::PartitionHeal { a, b, oneway } => {
                let cut = matches!(self, KernelEvent::PartitionStart { .. });
                let state = if cut { "cut" } else { "healed" };
                match (a.as_slice(), b.as_slice(), oneway) {
                    ([a], [b], true) => write!(f, "oneway-drop {a}->{b} {state}"),
                    ([a], [b], false) => write!(f, "partition {a}-{b} {state}"),
                    _ => write!(f, "partition-group {a:?} {state}"),
                }
            }
            KernelEvent::LinkDegraded(a, b) => write!(f, "link {a}-{b} degraded"),
            KernelEvent::LinkRestored(a, b) => write!(f, "link {a}-{b} restored"),
            KernelEvent::ClockSkewSet(h, skew_ns) => write!(f, "clock-skew {h} {skew_ns}ns"),
        }
    }
}

/// A structured event callback: `(virtual time, event)`, called by the
/// scheduler between process turns, as the event happens.
pub type EventHook = Box<dyn FnMut(SimTime, &KernelEvent) + Send>;

/// A profiling mark: the kernel is entering or leaving one unit of work.
/// Marks never nest — every `OpBegin` is followed by the matching `OpEnd`
/// before the next `OpBegin` — so a consumer needs no stack: remember the
/// wall instant at `OpBegin`, charge the difference to `op` at `OpEnd`.
///
/// The kernel itself never reads a wall clock (the simulation is a pure
/// function of the seed; `clippy.toml`'s D1 paths deny it here).
/// Wall-clock cost accounting is the *consumer's* job: the repo
/// benchmark's traced rep (`benchmark/src/trace.rs`) installs a hook that
/// timestamps each mark and aggregates per-op totals into its
/// `simnet.*_wall_ns` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileMark {
    /// The kernel is about to execute the named unit of work.
    OpBegin(&'static str),
    /// The unit of work finished.
    OpEnd(&'static str),
}

/// A profiling callback, invoked with paired [`ProfileMark`]s around every
/// event dispatch (`event.*`), every process syscall (`sys.*`), and every
/// resume of a process (`sched.handoff` — the process runs on its fiber
/// until its next syscall switches back).
pub type ProfileHook = Box<dyn FnMut(ProfileMark)>;

/// Per-process virtual-time CPU attribution, one entry per process that
/// ever held the CPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcCpu {
    /// The process.
    pub pid: Pid,
    /// Its name at spawn time.
    pub name: String,
    /// The host whose CPU it consumed.
    pub host: HostId,
    /// Virtual nanoseconds of CPU delivered to it (processor-sharing
    /// share, independent of host speed).
    pub cpu_ns: u64,
}

/// A deterministic profile of one run: who consumed the virtual CPU, and
/// how deep the kernel's queues ever got. Everything here is a pure
/// function of the seed — two same-seed runs snapshot identical profiles —
/// so the values are safe to feed into the byte-compared `obs` exports.
/// Wall-clock accounting deliberately lives outside this snapshot (see
/// [`ProfileMark`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// CPU attribution per process, ordered by pid.
    pub cpu_by_proc: Vec<ProcCpu>,
    /// Peak length of the runnable queue (processes with a pending resume
    /// waiting for the scheduler) — the virtual analogue of scheduler lag.
    pub runnable_peak: u64,
    /// Peak length of the event queue.
    pub event_queue_peak: u64,
    /// Peak depth of any process mailbox (messages queued behind a
    /// receiver that wasn't blocked in `recv`).
    pub mailbox_peak: u64,
}

/// Running queue-depth maxima, updated inline at the push sites (plain
/// fields so the updates stay legal under split borrows of `Kernel`).
#[derive(Clone, Copy, Debug, Default)]
struct Peaks {
    runnable: u64,
    event_queue: u64,
    mailbox: u64,
}

fn pair(a: HostId, b: HostId) -> (HostId, HostId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Stable op label for an event, used in profile marks.
fn event_op(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Start(_) => "event.start",
        EventKind::Timer { .. } => "event.timer",
        EventKind::Deliver(_) => "event.deliver",
        EventKind::Probe { .. } => "event.probe",
        EventKind::CpuCheck { .. } => "event.cpu_check",
        EventKind::Fault(_) => "event.fault",
    }
}

/// Stable op label for a syscall, used in profile marks.
fn syscall_op(sc: &Syscall) -> &'static str {
    match sc {
        Syscall::Sleep(_) => "sys.sleep",
        Syscall::Compute(_) => "sys.compute",
        Syscall::Send { .. } => "sys.send",
        Syscall::Probe { .. } => "sys.probe",
        Syscall::Recv { .. } => "sys.recv",
        Syscall::TryRecv => "sys.try_recv",
        Syscall::BindPort => "sys.bind_port",
        Syscall::BindPortExact(_) => "sys.bind_port",
        Syscall::Spawn { .. } => "sys.spawn",
        Syscall::CrashHost(_) => "sys.crash_host",
        Syscall::RestartHost(_) => "sys.restart_host",
        Syscall::HostInfo(_) => "sys.host_info",
        Syscall::Exit => "sys.exit",
        Syscall::Panicked(_) => "sys.exit",
    }
}

impl Kernel {
    /// Create a kernel with the given configuration.
    pub fn new(cfg: KernelConfig) -> Self {
        install_quiet_kill_hook();
        let net_rng = {
            use rand::SeedableRng as _;
            // Domain-separated from the per-process RNG streams.
            rand::rngs::SmallRng::seed_from_u64(cfg.seed ^ 0x6E65_745F_6472_6F70)
        };
        let core = Core {
            cfg,
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            hosts: Vec::new(),
            port_map: BTreeMap::new(),
            next_port: Vec::new(),
            procs: Vec::new(),
            runnable: VecDeque::new(),
            partitions: BTreeSet::new(),
            oneway_blocks: BTreeSet::new(),
            degraded: BTreeMap::new(),
            net_rng,
            link_latency: BTreeMap::new(),
            stats: KernelStats::default(),
            peaks: Peaks::default(),
            deadline: None,
            exit_on: None,
            panicked: None,
            runaway: false,
            event_hook: None,
            send_trigger: None,
            running: None,
            last: None,
            reaped: VecDeque::new(),
            process_switches: 0,
        };
        Kernel {
            core,
            profile_hook: None,
        }
    }

    /// Create a kernel with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Kernel::new(KernelConfig {
            seed,
            ..KernelConfig::default()
        })
    }

    /// Register a simulated workstation. Hosts can only be added before or
    /// between runs.
    pub fn add_host(&mut self, cfg: HostConfig) -> HostId {
        let core = &mut self.core;
        let id = HostId(core.hosts.len() as u32);
        core.hosts.push(HostState::new(cfg, LOAD_EWMA_TAU));
        core.next_port.push(1024);
        id
    }

    /// Convenience: add `n` identical hosts of unit speed.
    pub fn add_hosts(&mut self, n: usize) -> Vec<HostId> {
        (0..n)
            .map(|i| self.add_host(HostConfig::new(format!("node{i}"))))
            .collect()
    }

    /// All registered host ids.
    pub fn host_ids(&self) -> Vec<HostId> {
        self.core.host_ids()
    }

    /// Spawn a process on `host`, starting at the current virtual time.
    pub fn spawn<R: ProcessExit>(
        &mut self,
        host: HostId,
        name: impl Into<String>,
        body: impl FnOnce(&mut Ctx) -> R + Send + 'static,
    ) -> Pid {
        let now = self.now();
        self.spawn_at(now, host, name, boxed(body))
    }

    /// Spawn a process whose execution starts at absolute time `at`.
    pub fn spawn_at(
        &mut self,
        at: SimTime,
        host: HostId,
        name: impl Into<String>,
        body: ProcessBody,
    ) -> Pid {
        self.core.spawn_at(at, host, name.into(), body)
    }

    /// Schedule a fault-injection command at absolute time `at`.
    pub fn schedule_fault(&mut self, at: SimTime, fault: Fault) {
        let at = at.max(self.core.now);
        self.core.push_event(at, EventKind::Fault(fault));
    }

    /// Install a structured event callback invoked with `(time, event)` at
    /// every lifecycle and fault point, as the event happens (see
    /// [`EventHook`]). At most one hook is installed; a second call
    /// replaces the first.
    pub fn set_event_hook(&mut self, f: impl FnMut(SimTime, &KernelEvent) + Send + 'static) {
        self.core.event_hook = Some(Box::new(f));
    }

    /// Install a profiling callback fired with paired [`ProfileMark`]s
    /// around every event dispatch, syscall, and scheduler handoff. At most
    /// one hook is installed; a second call replaces the first. The hook
    /// runs in the scheduler loop (module docs) and changes nothing it
    /// decides.
    pub fn set_profile_hook(&mut self, f: impl FnMut(ProfileMark) + 'static) {
        self.profile_hook = Some(Box::new(f));
    }

    /// Crash `host` right after a process on it sends its `n`-th frame
    /// from now on (`n` ≥ 1): in the same instant, before any process on
    /// it runs again. Only frames a process sends count, not the RSTs and
    /// probe answers its kernel makes. One trigger is armed at a time; a
    /// second call replaces the first, and a trigger that never fires
    /// changes nothing.
    pub fn crash_after_sends(&mut self, host: HostId, n: u64) {
        self.core.send_trigger = Some((host, n));
    }

    /// Snapshot the deterministic run profile: per-process virtual CPU
    /// attribution and the kernel queue-depth peaks seen so far.
    pub fn profile(&self) -> KernelProfile {
        let core = &self.core;
        let mut cpu_by_proc = Vec::new();
        for (hi, hs) in core.hosts.iter().enumerate() {
            for (&pid, &cpu_ns) in &hs.cpu_by_pid {
                let name = core
                    .procs
                    .get(pid.0 as usize)
                    .map(|p| p.name.clone())
                    .unwrap_or_default();
                cpu_by_proc.push(ProcCpu {
                    pid,
                    name,
                    host: HostId(hi as u32),
                    cpu_ns,
                });
            }
        }
        cpu_by_proc.sort_by_key(|c| c.pid);
        KernelProfile {
            cpu_by_proc,
            runnable_peak: core.peaks.runnable,
            event_queue_peak: core.peaks.event_queue,
            mailbox_peak: core.peaks.mailbox,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> KernelStats {
        self.core.stats
    }

    /// How often the CPU has passed from one party to another: from one
    /// process to the next, from the driver to a run's first process and
    /// from its last back. A process that blocks and is the next one due
    /// runs on without a switch. Observers change nothing here.
    pub fn process_switches(&self) -> u64 {
        self.core.process_switches
    }

    /// Whether a process has exited or been killed.
    pub fn proc_dead(&self, pid: Pid) -> bool {
        self.core.proc_dead(pid)
    }

    /// Override the one-way latency between two hosts (symmetric). Used to
    /// model WAN links between LANs — the metacomputing scenario the paper
    /// lists as future work. Takes effect for messages sent after the call.
    pub fn set_link_latency(&mut self, a: HostId, b: HostId, latency: SimDuration) {
        self.core.link_latency.insert(pair(a, b), latency);
    }

    /// Run until the event queue is exhausted and no process is runnable.
    /// Returns the final virtual time.
    ///
    /// Like every `run_*` call, this returns only after the processes killed
    /// during the run have unwound, so what they did on the way out is the
    /// caller's to read. A body that swallows `Err(Killed)` and never
    /// returns therefore hangs the run.
    #[track_caller]
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_inner(None, None)
    }

    /// Run until the given process exits (or the queue empties first).
    #[track_caller]
    pub fn run_until_exit(&mut self, pid: Pid) -> SimTime {
        self.run_inner(None, Some(pid))
    }

    /// Run until virtual time reaches `deadline` (or the queue empties).
    /// The clock is advanced to exactly `deadline` when it is reached.
    #[track_caller]
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run_inner(Some(deadline), None);
        self.core.now = self.core.now.max(deadline);
        self.core.now
    }

    /// The scheduler loop: pick the process that is due, unwind what was
    /// killed, give it its turn — until the stop rule holds. Re-raises a
    /// process's panic and a runaway here, on the driver.
    #[track_caller]
    fn run_inner(&mut self, deadline: Option<SimTime>, exit_on: Option<Pid>) -> SimTime {
        let at = std::panic::Location::caller();
        crate::shared::assert_unheld(format_args!("Kernel::run_*"), at);
        let (core, hook) = (&mut self.core, &mut self.profile_hook);
        (core.deadline, core.exit_on) = (deadline, exit_on);
        loop {
            let next = core.advance(hook);
            core.unwind_reaped();
            match next {
                Some((pid, resume)) => core.turn(pid, resume, hook),
                None => break,
            }
        }
        // The CPU goes back to the driver.
        core.process_switches += u64::from(core.last.take().is_some());
        core.reraise();
        core.now
    }
}

fn mark(hook: &mut Option<ProfileHook>, m: ProfileMark) {
    if let Some(h) = hook {
        h(m);
    }
}

impl Core {
    fn host_ids(&self) -> Vec<HostId> {
        (0..self.hosts.len() as u32).map(HostId).collect()
    }

    fn spawn_at(&mut self, at: SimTime, host: HostId, name: String, body: ProcessBody) -> Pid {
        assert!((host.0 as usize) < self.hosts.len(), "unknown host {host}");
        let pid = Pid(self.procs.len() as u32);
        self.procs.push(Proc {
            name,
            host,
            status: Status::NotStarted,
            mailbox: VecDeque::new(),
            fiber: None,
            body: Some(body),
            timer_epoch: 0,
            ports: Vec::new(),
            pending: None,
        });
        self.stats.spawned += 1;
        self.emit_proc(pid, |pid, name, host| KernelEvent::ProcSpawn {
            pid,
            name,
            host,
        });
        self.push_event(at.max(self.now), EventKind::Start(pid));
        pid
    }

    /// Re-raise on the driver thread what must fail the run: a process's
    /// panic, or the `max_events` guard.
    #[expect(
        clippy::panic,
        reason = "P1 waiver, by design: a sim-process panic is re-raised on the driver thread so a bug fails the run instead of vanishing with one fiber, and the runaway-loop guard stops a truncated run from reporting results; a Result return would let callers ignore both; re-audited 2026-08, expiry 2027-06"
    )]
    fn reraise(&mut self) {
        if let Some((pid, msg)) = self.panicked.take() {
            let name = &self.procs[pid.0 as usize].name;
            panic!("simulated process {pid} ({name}) panicked: {msg}");
        }
        if self.runaway {
            panic!(
                "simnet: exceeded max_events={} at {:?} — runaway event loop?",
                self.cfg.max_events, self.now
            );
        }
    }

    fn proc_dead(&self, pid: Pid) -> bool {
        self.procs
            .get(pid.0 as usize)
            .is_none_or(|p| p.status == Status::Dead)
    }

    // ------------------------------------------------------------------
    // The scheduler loop and the turns
    // ------------------------------------------------------------------

    /// Step the scheduler loop until a process is due: it is now
    /// `running`, and its turn starts with the returned resume. `None`
    /// when the run stops: the stop rule holds, a process panicked or
    /// `max_events` tripped.
    fn advance(&mut self, hook: &mut Option<ProfileHook>) -> Option<(Pid, Resume)> {
        loop {
            if self.panicked.is_some() {
                return None;
            }
            if let Some(pid) = self.runnable.pop_front() {
                match self.begin_run(pid) {
                    Some(resume) => return Some((pid, resume)),
                    None => continue,
                }
            }
            if self.exit_on.is_some_and(|pid| self.proc_dead(pid)) {
                return None;
            }
            let Reverse(head) = self.events.peek()?;
            if self.deadline.is_some_and(|d| head.time > d) {
                return None;
            }
            let Reverse(ev) = self.events.pop()?;
            debug_assert!(ev.time >= self.now, "event in the past");
            self.now = ev.time;
            self.stats.events += 1;
            if self.stats.events > self.cfg.max_events {
                self.runaway = true;
                return None;
            }
            let op = event_op(&ev.kind);
            mark(hook, ProfileMark::OpBegin(op));
            self.handle_event(ev.kind);
            mark(hook, ProfileMark::OpEnd(op));
        }
    }

    /// Take `pid` off the runnable state: it becomes `running` and its
    /// turn starts with the returned resume. `None` if it was killed while
    /// queued.
    fn begin_run(&mut self, pid: Pid) -> Option<Resume> {
        let p = &mut self.procs[pid.0 as usize];
        if p.status != Status::Runnable {
            return None; // killed while queued
        }
        let resume = match (p.pending.take(), &p.fiber) {
            (Some(resume), Some(_)) => resume,
            _ => {
                // Runnable without a pending resume or without a fiber is
                // a scheduler bookkeeping bug; reap the process instead of
                // panicking the whole sim.
                p.status = Status::Dead;
                return None;
            }
        };
        p.status = Status::Running;
        self.running = Some(pid);
        Some(resume)
    }

    /// `pid`'s turn: resume its fiber with `resume`, serve each syscall it
    /// switches back with, and resume it again with the answer of an
    /// immediate one — until it blocks, ends or is gone.
    fn turn(&mut self, pid: Pid, resume: Resume, hook: &mut Option<ProfileHook>) {
        self.process_switches += u64::from(self.last != Some(pid));
        self.last = Some(pid);
        let mut input = Ok(resume);
        loop {
            mark(hook, ProfileMark::OpBegin("sched.handoff"));
            let step = match self.procs[pid.0 as usize].fiber.as_mut() {
                Some(fiber) => resume_fiber(fiber, input),
                None => None,
            };
            mark(hook, ProfileMark::OpEnd("sched.handoff"));
            let sc = match step {
                Some(Step::Yielded(sc)) => sc,
                Some(Step::Returned(sc)) => {
                    // The body is over; its stack is back in the pool.
                    self.procs[pid.0 as usize].fiber = None;
                    crate::shared::debug_assert_none_held();
                    sc
                }
                None => break,
            };
            let op = syscall_op(&sc);
            mark(hook, ProfileMark::OpBegin(op));
            let served = catch_unwind(AssertUnwindSafe(|| self.handle_syscall(pid, sc)));
            mark(hook, ProfileMark::OpEnd(op));
            match served {
                Ok(Some(resume)) => input = Ok(resume),
                Ok(None) => break,
                Err(payload) => {
                    // The kernel's own code panicked in the syscall (a bad
                    // argument such as an unknown host, or a kernel bug):
                    // the run fails like on a body panic, and the caller,
                    // mid-syscall, is killed so that it unwinds.
                    let msg = panic_text(payload.as_ref());
                    self.panicked = Some((pid, format!("kernel fault in its syscall: {msg}")));
                    self.do_kill(pid);
                    break;
                }
            }
        }
        self.running = None;
    }

    /// Resume every killed process's fiber with `Err(Killed)` until its
    /// body has unwound; its stack then goes back to the pool.
    fn unwind_reaped(&mut self) {
        while let Some(mut fiber) = self.reaped.pop_front() {
            while let Some(Step::Yielded(_)) = resume_fiber(&mut fiber, Err(Killed)) {}
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq, kind }));
        self.peaks.event_queue = self.peaks.event_queue.max(self.events.len() as u64);
    }

    /// The single emission point: the event hook gets the event here,
    /// stamped with the current instant.
    fn emit(&mut self, ev: KernelEvent) {
        if let Some(hook) = self.event_hook.as_mut() {
            hook(self.now, &ev);
        }
    }

    fn emit_proc(&mut self, pid: Pid, make: fn(Pid, String, HostId) -> KernelEvent) {
        if self.event_hook.is_some() {
            let p = &self.procs[pid.0 as usize];
            let (name, host) = (p.name.clone(), p.host);
            self.emit(make(pid, name, host));
        }
    }

    fn handle_event(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(pid) => self.start_process(pid),
            EventKind::Timer { pid, epoch } => self.fire_timer(pid, epoch),
            EventKind::Deliver(msg) => self.deliver(msg),
            EventKind::Probe { from, host, port } => self.answer_probe(from, host, port),
            EventKind::CpuCheck { host, epoch } => self.cpu_check(host, epoch),
            EventKind::Fault(f) => self.apply_fault(f),
        }
    }

    /// Give `pid`'s body a fiber and queue it.
    fn start_process(&mut self, pid: Pid) {
        let host;
        {
            let p = &mut self.procs[pid.0 as usize];
            if p.status != Status::NotStarted {
                return;
            }
            host = p.host;
        }
        if !self.hosts[host.0 as usize].up {
            // Boot on a dead host fails silently; the process never runs.
            let p = &mut self.procs[pid.0 as usize];
            p.status = Status::Dead;
            p.body = None;
            return;
        }
        let p = &mut self.procs[pid.0 as usize];
        let Some(body) = p.body.take() else {
            // NotStarted without a body is a bookkeeping bug; reap the
            // process instead of panicking the whole sim.
            p.status = Status::Dead;
            return;
        };
        let seed = self.cfg.seed;
        let run = move |first: SimResult<Resume>, fiber| {
            let mut ctx = Ctx::new(pid, host, seed, fiber);
            if ctx.start(first).is_err() {
                return Syscall::Exit;
            }
            match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                Ok(()) => Syscall::Exit,
                // The expected unwind after a kill (e.g. `.unwrap()` on a
                // syscall result).
                Err(_) if ctx.is_dead() => Syscall::Exit,
                Err(payload) => Syscall::Panicked(panic_text(payload.as_ref())),
            }
        };
        let (fiber, mapped) = match Fiber::new(&p.name, run) {
            Ok(made) => made,
            Err(e) => {
                // The OS refused to map a stack; the process can never
                // run. Reap it rather than panicking the driver.
                eprintln!("simnet: failed to map a stack for {pid}: {e}");
                p.status = Status::Dead;
                return;
            }
        };
        p.fiber = Some(fiber);
        p.pending = Some(Resume::Start { now: self.now });
        p.status = Status::Runnable;
        self.stats.stacks_mapped += u64::from(mapped);
        self.runnable.push_back(pid);
        self.peaks.runnable = self.peaks.runnable.max(self.runnable.len() as u64);
    }

    fn fire_timer(&mut self, pid: Pid, epoch: u64) {
        let now = self.now;
        let p = &mut self.procs[pid.0 as usize];
        if p.status == Status::Dead || p.timer_epoch != epoch {
            return;
        }
        match p.status {
            Status::Blocked(Block::Sleep) => {
                p.pending = Some(Resume::Done { now });
            }
            Status::Blocked(Block::Recv) => {
                p.pending = Some(Resume::Empty { now });
            }
            _ => return, // stale
        }
        p.timer_epoch += 1;
        p.status = Status::Runnable;
        self.runnable.push_back(pid);
        self.peaks.runnable = self.peaks.runnable.max(self.runnable.len() as u64);
    }

    fn deliver(&mut self, msg: Msg) {
        let target = match msg.to {
            Addr::Endpoint(h, port) => {
                let hs = match self.hosts.get(h.0 as usize) {
                    Some(hs) => hs,
                    None => {
                        self.stats.msgs_dropped += 1;
                        return;
                    }
                };
                if !hs.up || self.link_blocked(msg.from_host, h) {
                    self.stats.msgs_dropped += 1;
                    return;
                }
                match self.port_map.get(&(h, port)) {
                    Some(&pid) => pid,
                    None => {
                        // Port closed, host up: bounce an RST to the sender.
                        self.stats.rsts += 1;
                        self.bounce(msg.from, h, Payload::Rst { host: h, port });
                        return;
                    }
                }
            }
            Addr::Pid(pid) => pid,
        };
        let dst_host = match self.procs.get(target.0 as usize) {
            Some(p) if p.status != Status::Dead => p.host,
            _ => {
                self.stats.msgs_dropped += 1;
                return;
            }
        };
        if !self.hosts[dst_host.0 as usize].up || self.link_blocked(msg.from_host, dst_host) {
            self.stats.msgs_dropped += 1;
            return;
        }
        // Gray-failure drop: one draw per delivered message (this is the
        // single path every message funnels through).
        if msg.from_host != dst_host {
            if let Some(&(_, drop_milli)) = self.degraded.get(&pair(msg.from_host, dst_host)) {
                if drop_milli > 0 {
                    use rand::Rng as _;
                    if self.net_rng.random_range(0..1000u32) < drop_milli {
                        self.stats.msgs_dropped += 1;
                        return;
                    }
                }
            }
        }
        self.stats.msgs_delivered += 1;
        let now = self.now;
        let p = &mut self.procs[target.0 as usize];
        if p.status == Status::Blocked(Block::Recv) {
            p.timer_epoch += 1; // cancel any recv timeout
            p.pending = Some(Resume::Msg { now, msg });
            p.status = Status::Runnable;
            self.runnable.push_back(target);
            self.peaks.runnable = self.peaks.runnable.max(self.runnable.len() as u64);
        } else {
            p.mailbox.push_back(msg);
            self.peaks.mailbox = self.peaks.mailbox.max(p.mailbox.len() as u64);
        }
    }

    /// A keepalive arrived at `host`: its kernel says whether `port` is
    /// bound — if the host is up and the link let the keepalive through.
    /// The answer travels back through `deliver` like any message, so a
    /// cut or lossy return path silences it too.
    fn answer_probe(&mut self, from: Pid, host: HostId, port: Port) {
        let from_host = self.procs[from.0 as usize].host;
        let up = self.hosts.get(host.0 as usize).is_some_and(|hs| hs.up);
        if !up || self.link_blocked(from_host, host) {
            self.stats.msgs_dropped += 1;
            return;
        }
        let answer = if self.port_map.contains_key(&(host, port)) {
            Payload::Alive { host, port }
        } else {
            self.stats.rsts += 1;
            Payload::Rst { host, port }
        };
        self.bounce(from, host, answer);
    }

    /// `host`'s kernel answers process `to` with a zero-byte `payload`.
    fn bounce(&mut self, to: Pid, host: HostId, payload: Payload) {
        let sender = match self.procs.get(to.0 as usize) {
            Some(p) if p.status != Status::Dead => p,
            _ => return,
        };
        let lat = self.latency_between(sender.host, host);
        let answer = Msg {
            from: to,
            from_host: host,
            to: Addr::Pid(to),
            payload,
        };
        let at = self.now + lat;
        self.push_event(at, EventKind::Deliver(answer));
    }

    fn cpu_check(&mut self, host: HostId, epoch: u64) {
        let now = self.now;
        let hs = &mut self.hosts[host.0 as usize];
        if hs.cpu_epoch != epoch || !hs.up {
            return;
        }
        let (procs, runnable, peaks) = (&mut self.procs, &mut self.runnable, &mut self.peaks);
        hs.take_finished(now, |pid| {
            let p = &mut procs[pid.0 as usize];
            debug_assert_eq!(p.status, Status::Blocked(Block::Compute));
            p.pending = Some(Resume::Done { now });
            p.status = Status::Runnable;
            runnable.push_back(pid);
            peaks.runnable = peaks.runnable.max(runnable.len() as u64);
        });
        self.reschedule_cpu(host);
    }

    /// Finish `pid`'s just-added compute job here, without the event heap,
    /// if it is alone on its host and nothing can happen before it
    /// completes: no process is runnable, every queued event is strictly
    /// later, and neither the stop rule nor `max_events` would halt the
    /// run first. The `CpuCheck` it would have queued is then the next
    /// event popped, alone at its instant, with no tie to break — so this
    /// runs exactly what `cpu_check` would and counts the event, and the
    /// schedule is the heap's own.
    /// `None` (the job queued as usual) otherwise.
    fn complete_alone(&mut self, pid: Pid, host: HostId) -> Option<SimTime> {
        let hs = &self.hosts[host.0 as usize];
        if hs.runnable() != 1 {
            return None;
        }
        let at = hs.next_completion(self.now)?;
        let first = self.runnable.is_empty()
            && self
                .events
                .peek()
                .is_none_or(|Reverse(head)| head.time > at)
            && self.deadline.is_none_or(|d| at <= d)
            && !self.exit_on.is_some_and(|p| self.proc_dead(p))
            && self.stats.events < self.cfg.max_events;
        if !first {
            return None;
        }
        self.now = at;
        self.stats.events += 1;
        // None finishes only if a residue outlived the rounded-up instant;
        // the caller then queues the job again, as `cpu_check` reschedules.
        let finished = self.hosts[host.0 as usize].take_finished(at, |p| debug_assert_eq!(p, pid));
        (finished > 0).then_some(at)
    }

    fn reschedule_cpu(&mut self, host: HostId) {
        let now = self.now;
        let hs = &mut self.hosts[host.0 as usize];
        if !hs.up {
            return;
        }
        if let Some(t) = hs.next_completion(now) {
            let epoch = hs.cpu_epoch;
            self.push_event(t, EventKind::CpuCheck { host, epoch });
        }
    }

    /// Whether a message from `from` to `to` is currently cut off (by a
    /// symmetric partition or a directional drop).
    fn link_blocked(&self, from: HostId, to: HostId) -> bool {
        self.partitions.contains(&pair(from, to)) || self.oneway_blocks.contains(&(from, to))
    }

    fn apply_fault(&mut self, f: Fault) {
        match f {
            Fault::KillProcess(pid) => self.do_kill(pid),
            Fault::CrashHost(h) => self.do_crash_host(h),
            Fault::RestartHost(h) => {
                if let Some(hs) = self.hosts.get_mut(h.0 as usize) {
                    hs.up = true;
                }
                self.emit(KernelEvent::HostRestart(h));
            }
            Fault::Partition(a, b, blocked) => {
                if blocked {
                    self.partitions.insert(pair(a, b));
                } else {
                    self.partitions.remove(&pair(a, b));
                }
                self.emit_partition(vec![a], vec![b], false, blocked);
            }
            Fault::PartitionGroup { side, blocked } => {
                let other: Vec<HostId> = self
                    .host_ids()
                    .into_iter()
                    .filter(|h| !side.contains(h))
                    .collect();
                for &a in &side {
                    for &b in &other {
                        if blocked {
                            self.partitions.insert(pair(a, b));
                        } else {
                            self.partitions.remove(&pair(a, b));
                        }
                    }
                }
                self.emit_partition(side, other, false, blocked);
            }
            Fault::DropOneWay { from, to, blocked } => {
                if blocked {
                    self.oneway_blocks.insert((from, to));
                } else {
                    self.oneway_blocks.remove(&(from, to));
                }
                self.emit_partition(vec![from], vec![to], true, blocked);
            }
            Fault::DegradeLink {
                a,
                b,
                extra_latency,
                drop_milli,
            } => {
                if extra_latency == SimDuration::ZERO && drop_milli == 0 {
                    self.degraded.remove(&pair(a, b));
                    self.emit(KernelEvent::LinkRestored(a, b));
                } else {
                    self.degraded
                        .insert(pair(a, b), (extra_latency, drop_milli.min(1000)));
                    self.emit(KernelEvent::LinkDegraded(a, b));
                }
            }
            Fault::SetClockSkew(h, skew_ns) => {
                if let Some(hs) = self.hosts.get_mut(h.0 as usize) {
                    hs.clock_skew_ns = skew_ns;
                }
                self.emit(KernelEvent::ClockSkewSet(h, skew_ns));
            }
        }
    }

    /// Emit the partition lifecycle event for a just-applied cut or heal.
    fn emit_partition(&mut self, a: Vec<HostId>, b: Vec<HostId>, oneway: bool, blocked: bool) {
        let ev = if blocked {
            KernelEvent::PartitionStart { a, b, oneway }
        } else {
            KernelEvent::PartitionHeal { a, b, oneway }
        };
        self.emit(ev);
    }

    /// One-way latency for a message between two hosts under the current
    /// model (default local/remote, or a per-link override).
    fn latency_between(&self, a: HostId, b: HostId) -> SimDuration {
        let base = if let Some(&d) = self.link_latency.get(&pair(a, b)) {
            d
        } else if a == b {
            LATENCY_LOCAL
        } else {
            self.cfg.net.latency_remote
        };
        // Gray-failure degradation stacks on top of whatever the healthy
        // link latency is, so restoring the link restores the old value.
        match self.degraded.get(&pair(a, b)) {
            Some(&(extra, _)) => base + extra,
            None => base,
        }
    }

    fn do_kill(&mut self, pid: Pid) {
        let (host, ports);
        {
            let Some(p) = self.procs.get_mut(pid.0 as usize) else {
                return;
            };
            if p.status == Status::Dead {
                return;
            }
            host = p.host;
            p.status = Status::Dead;
            p.body = None;
            p.mailbox.clear();
            p.pending = None;
            p.timer_epoch += 1;
            ports = std::mem::take(&mut p.ports);
        }
        for port in ports {
            self.port_map.remove(&(host, port));
        }
        // Remove any CPU job and reschedule the host.
        let now = self.now;
        if self.hosts[host.0 as usize].remove_job(now, pid).is_some() {
            self.reschedule_cpu(host);
        }
        // The victim unwinds before any other process runs on; the caller
        // of this syscall, if it is the victim, first of all.
        if let Some(fiber) = self.procs[pid.0 as usize].fiber.take() {
            if self.running == Some(pid) {
                self.reaped.push_front(fiber);
            } else {
                self.reaped.push_back(fiber);
            }
        }
        self.stats.killed += 1;
        self.emit_proc(pid, |pid, name, host| KernelEvent::ProcKill {
            pid,
            name,
            host,
        });
    }

    fn do_crash_host(&mut self, h: HostId) {
        let Some(hs) = self.hosts.get_mut(h.0 as usize) else {
            return;
        };
        if !hs.up {
            return;
        }
        hs.up = false;
        let now = self.now;
        hs.clear_jobs(now);
        let victims: Vec<Pid> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.host == h && p.status != Status::Dead)
            .map(|(i, _)| Pid(i as u32))
            .collect();
        for pid in victims {
            self.do_kill(pid);
        }
        self.emit(KernelEvent::HostCrash(h));
    }

    // ------------------------------------------------------------------
    // Process execution
    // ------------------------------------------------------------------

    /// Serve `pid`'s syscall: what it returns, or `None` when `pid`
    /// blocked or is gone (it exited, panicked, killed itself or crashed
    /// its own host).
    fn handle_syscall(&mut self, pid: Pid, sc: Syscall) -> Option<Resume> {
        let now = self.now;
        match sc {
            Syscall::Sleep(d) => {
                let p = &mut self.procs[pid.0 as usize];
                p.timer_epoch += 1;
                let epoch = p.timer_epoch;
                p.status = Status::Blocked(Block::Sleep);
                self.push_event(now + d, EventKind::Timer { pid, epoch });
                None
            }
            Syscall::Compute(work) => {
                let host = self.procs[pid.0 as usize].host;
                self.hosts[host.0 as usize].add_job(now, pid, work);
                if let Some(done) = self.complete_alone(pid, host) {
                    return Some(Resume::Done { now: done });
                }
                self.procs[pid.0 as usize].status = Status::Blocked(Block::Compute);
                self.reschedule_cpu(host);
                None
            }
            Syscall::Send { to, data } => {
                self.do_send(pid, to, data);
                let host = self.procs[pid.0 as usize].host;
                if let Some((_, left)) = self.send_trigger.as_mut().filter(|(h, _)| *h == host) {
                    *left = left.saturating_sub(1);
                    if *left == 0 {
                        // The caller's own host crashed: it is gone.
                        self.send_trigger = None;
                        self.do_crash_host(host);
                        return None;
                    }
                }
                Some(Resume::Ok { now })
            }
            Syscall::Probe { host, port } => {
                let from_host = self.procs[pid.0 as usize].host;
                let at = now + self.latency_between(from_host, host);
                let from = pid;
                self.push_event(at, EventKind::Probe { from, host, port });
                Some(Resume::Ok { now })
            }
            Syscall::Recv { timeout } => {
                let p = &mut self.procs[pid.0 as usize];
                if let Some(msg) = p.mailbox.pop_front() {
                    return Some(Resume::Msg { now, msg });
                }
                p.status = Status::Blocked(Block::Recv);
                p.timer_epoch += 1;
                if let Some(d) = timeout {
                    let epoch = p.timer_epoch;
                    self.push_event(now + d, EventKind::Timer { pid, epoch });
                }
                None
            }
            Syscall::TryRecv => {
                let msg = self.procs[pid.0 as usize].mailbox.pop_front();
                Some(msg.map_or(Resume::Empty { now }, |msg| Resume::Msg { now, msg }))
            }
            Syscall::BindPort => {
                let host = self.procs[pid.0 as usize].host;
                let port = self.alloc_port(host);
                self.port_map.insert((host, port), pid);
                self.procs[pid.0 as usize].ports.push(port);
                Some(Resume::PortV {
                    now,
                    port: Some(port),
                })
            }
            Syscall::BindPortExact(port) => {
                let host = self.procs[pid.0 as usize].host;
                if let std::collections::btree_map::Entry::Vacant(e) =
                    self.port_map.entry((host, port))
                {
                    e.insert(pid);
                    self.procs[pid.0 as usize].ports.push(port);
                    Some(Resume::PortV {
                        now,
                        port: Some(port),
                    })
                } else {
                    Some(Resume::PortV { now, port: None })
                }
            }
            Syscall::Spawn { host, name, body } => {
                let child = self.spawn_at(now, host, name, body);
                Some(Resume::PidV { now, pid: child })
            }
            // A caller that crashed its own host is gone.
            Syscall::CrashHost(h) => {
                let self_host = self.procs[pid.0 as usize].host;
                self.do_crash_host(h);
                (self_host != h).then_some(Resume::Ok { now })
            }
            Syscall::RestartHost(h) => {
                self.apply_fault(Fault::RestartHost(h));
                Some(Resume::Ok { now })
            }
            Syscall::HostInfo(h) => {
                let snap = self.hosts.get_mut(h.0 as usize).map(|hs| hs.snapshot(now));
                Some(Resume::Host { now, snap })
            }
            Syscall::Exit => {
                self.finish_process(pid);
                None
            }
            Syscall::Panicked(msg) => {
                self.finish_process(pid);
                self.panicked = Some((pid, msg));
                None
            }
        }
    }

    fn do_send(&mut self, from: Pid, to: Addr, data: Vec<u8>) {
        let from_host = self.procs[from.0 as usize].host;
        let dst_host = match to {
            Addr::Endpoint(h, _) => Some(h),
            Addr::Pid(p) => self.procs.get(p.0 as usize).map(|pr| pr.host),
        };
        let lat = match dst_host {
            Some(h) => self.latency_between(from_host, h),
            None => self.cfg.net.latency_remote,
        };
        let xfer = SimDuration::from_secs_f64(data.len() as f64 / BANDWIDTH);
        let at = self.now + lat + xfer;
        let msg = Msg {
            from,
            from_host,
            to,
            payload: Payload::Data(data),
        };
        self.push_event(at, EventKind::Deliver(msg));
    }

    fn alloc_port(&mut self, host: HostId) -> Port {
        let hi = host.0 as usize;
        loop {
            let candidate = Port(self.next_port[hi]);
            self.next_port[hi] = self.next_port[hi].wrapping_add(1).max(1024);
            if !self.port_map.contains_key(&(host, candidate)) {
                return candidate;
            }
        }
    }

    /// Clean exit of a process (body returned or panicked): release
    /// resources; its fiber has returned.
    fn finish_process(&mut self, pid: Pid) {
        let (host, ports);
        {
            let p = &mut self.procs[pid.0 as usize];
            if p.status == Status::Dead {
                return;
            }
            host = p.host;
            p.status = Status::Dead;
            p.mailbox.clear();
            p.pending = None;
            p.timer_epoch += 1;
            ports = std::mem::take(&mut p.ports);
        }
        for port in ports {
            self.port_map.remove(&(host, port));
        }
        let now = self.now;
        if self.hosts[host.0 as usize].remove_job(now, pid).is_some() {
            self.reschedule_cpu(host);
        }
        self.emit_proc(pid, |pid, name, host| KernelEvent::ProcExit {
            pid,
            name,
            host,
        });
    }
}

impl Drop for Kernel {
    /// Unwind every process that is still in its body, in pid order after
    /// those killed last. Not while this thread unwinds a panic: a body
    /// must not run then (`Ctx::call`), so their fibers and stacks leak.
    fn drop(&mut self) {
        let core = &mut self.core;
        let live = core.procs.iter_mut().filter_map(|p| p.fiber.take());
        core.reaped.extend(live);
        if !std::thread::panicking() {
            core.unwind_reaped();
        }
    }
}

/// Resume a process's fiber with `input`, its panic reports suppressed
/// while it unwinds a kill. Inlined: see `fiber`'s module docs.
#[inline(always)]
fn resume_fiber(fiber: &mut ProcFiber, input: SimResult<Resume>) -> Option<Step<Syscall>> {
    SUPPRESS_PANIC_REPORT.with(|s| s.set(input.is_err()));
    let step = fiber.resume(input);
    SUPPRESS_PANIC_REPORT.with(|s| s.set(false));
    step
}

// ---------------------------------------------------------------------
// Quiet panic handling for killed processes
// ---------------------------------------------------------------------

fn install_quiet_kill_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_REPORT.with(|s| s.get()) {
                return;
            }
            previous(info);
        }));
    });
}

/// The message a panic payload carries.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
