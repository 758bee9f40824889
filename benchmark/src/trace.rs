//! Tracing from the outside: harness-side spans around every call the
//! benchmark makes into a layer, a wall-clock consumer for the kernel's
//! profile marks, and per-thread CPU sampling of the simulated processes.
//!
//! Nothing here is compiled into the crates under test. Spans stay in
//! memory and are written when the workload ends (`trace_<workload>.json`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use simnet::{Kernel, ProfileMark};

use crate::json::Value;

/// One harness-side span: a wall-clock interval around a call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct HSpan {
    /// What was called, e.g. `Cluster::build` or `Kernel::run_until_exit`.
    pub name: String,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, wall ns since the tracer was created.
    pub start_ns: u64,
    /// End, wall ns since the tracer was created.
    pub end_ns: u64,
}

/// Collects [`HSpan`]s. A disabled tracer (the untraced pass) records
/// nothing and costs one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<HSpan>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span. Nesting follows the call stack.
    pub fn span<R>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.enter(name, layer);
        let out = f();
        self.exit();
        out
    }

    /// Open a span; pair with [`Tracer::exit`]. For call sites where a
    /// closure would have to borrow the tracer twice.
    pub fn enter(&mut self, name: &str, layer: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(HSpan {
            name: name.to_string(),
            layer,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.stack.pop().expect("exit without enter");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[HSpan] {
        &self.spans
    }

    /// Self time (duration minus the part covered by direct children) per
    /// layer, wall ns.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self, workload: &str) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(&s.name)),
                        ("layer", Value::str(s.layer)),
                        ("workload", Value::str(workload)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Wall-clock totals per kernel operation, accumulated from the kernel's
/// [`ProfileMark`]s. The kernel never reads a wall clock itself; the
/// harness timestamps each mark. Marks never nest, so one pending
/// `Instant` suffices.
#[derive(Default)]
pub struct OpWall {
    pending: Option<(&'static str, Instant)>,
    /// `(count, wall ns)` per op name (`event.*`, `sys.*`, `sched.handoff`).
    pub totals: BTreeMap<&'static str, (u64, u64)>,
}

impl OpWall {
    /// Install a consumer on `kernel` that accumulates into the returned
    /// cell.
    pub fn install(kernel: &mut Kernel, into: &Rc<RefCell<OpWall>>) {
        let wall = Rc::clone(into);
        kernel.set_profile_hook(move |mark| wall.borrow_mut().on_mark(mark));
    }

    fn on_mark(&mut self, mark: ProfileMark) {
        match mark {
            ProfileMark::OpBegin(op) => self.pending = Some((op, Instant::now())),
            ProfileMark::OpEnd(op) => {
                if let Some((begun, at)) = self.pending.take() {
                    if begun == op {
                        let e = self.totals.entry(op).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += at.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
    }

    /// `(count, wall ns)` summed over every op whose name starts with
    /// `prefix`.
    pub fn sum(&self, prefix: &str) -> (u64, u64) {
        self.totals
            .iter()
            .filter(|(op, _)| op.starts_with(prefix))
            .fold((0, 0), |(n, ns), (_, &(c, w))| (n + c, ns + w))
    }
}

/// CPU time of the simulated-process threads, by role.
///
/// Every simulated process is an OS thread named `sim-p<pid>-<name>`
/// (truncated to 15 bytes by the kernel). The wall time the simulator
/// spends waiting for a process's next syscall is partly the process
/// actually computing (optimizer numerics, CDR, GIOP) and partly the cost
/// of the switch itself; subtracting the threads' own user-mode CPU time
/// separates the two. The user/system split comes from `/proc`'s tick
/// sampling (10 ms), so it is good to a few percent over a rep, no better.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadCpu {
    /// User-mode CPU ns per role.
    pub user_ns: BTreeMap<&'static str, u64>,
}

impl ThreadCpu {
    /// Add the counters of every live `sim-*` thread of this process.
    /// Threads that already exited (a finished client, processes on a
    /// crashed host) are not seen; harness-owned bodies add themselves
    /// with [`ThreadCpu::sample_current`] before returning.
    pub fn sample_live(&mut self) {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for entry in dir.flatten() {
            self.sample_task(&entry.path());
        }
    }

    /// Add the calling thread's counters (called from inside a simulated
    /// process body the harness owns, just before it returns).
    pub fn sample_current(&mut self) {
        self.sample_task(std::path::Path::new("/proc/thread-self"));
    }

    fn sample_task(&mut self, task: &std::path::Path) {
        let Ok(comm) = std::fs::read_to_string(task.join("comm")) else {
            return;
        };
        let Some(role) = role_of(comm.trim_end()) else {
            return;
        };
        if let Some(ns) = read_utime_ns(task) {
            *self.user_ns.entry(role).or_insert(0) += ns;
        }
    }

    /// Fold another sample in.
    pub fn add(&mut self, other: &ThreadCpu) {
        for (k, v) in &other.user_ns {
            *self.user_ns.entry(k).or_insert(0) += v;
        }
    }

    /// Total user-mode CPU ns over all roles.
    pub fn total_user_ns(&self) -> u64 {
        self.user_ns.values().sum()
    }
}

/// Map a thread name `sim-p<pid>-<process name…>` to the role (and so the
/// layer) its process plays. The name may be cut anywhere after the pid.
fn role_of(comm: &str) -> Option<&'static str> {
    let rest = comm.strip_prefix("sim-p")?;
    let name = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    let name = name.strip_prefix('-')?;
    const ROLES: [(&str, &str); 12] = [
        ("opt-w", "optim.worker"),
        ("store", "store.replica"),
        ("check", "ft.checkpoint_service"),
        ("facto", "ft.factory"),
        ("namin", "naming.service"),
        ("winne", "winner.manager"),
        ("manag", "client.manager"),
        ("clien", "client.driver"),
        ("serve", "orb.echo_server"),
        ("chaos", "harness.chaos"),
        ("bgloa", "simnet.bgload"),
        ("monit", "monitor.channel"),
    ];
    let key = &name[..name.len().min(5)];
    Some(
        ROLES
            .iter()
            .find(|(prefix, _)| prefix.starts_with(key) && !key.is_empty())
            .map_or("other", |(_, role)| role),
    )
}

fn read_utime_ns(task: &std::path::Path) -> Option<u64> {
    let s = std::fs::read_to_string(task.join("stat")).ok()?;
    // Fields after the parenthesised comm; utime is field 14 overall.
    let after = &s[s.rfind(')')? + 1..];
    let utime_ticks: u64 = after.split_whitespace().nth(11)?.parse().ok()?;
    Some(utime_ticks * (1_000_000_000 / CLK_TCK))
}

/// `sysconf(_SC_CLK_TCK)`; 100 on every Linux this runs on.
const CLK_TCK: u64 = 100;

/// CPU time this process has used so far, ns: user plus system, every
/// thread, exited ones included (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// This is the clock the time metrics are read from. The harness runs on
/// one pinned CPU of a shared machine; whenever anything else wants that
/// CPU — another process, or another guest taking the core from the
/// hypervisor — wall time stretches with it (measured: a busy loop on the
/// pinned CPU takes `rpc_small` from 1.4 to 2.7 s per rep and `fig3_load`
/// from 2.8 to 4.8 s), while the CPU time the simulator itself used moves
/// by a few percent. The simulator runs one thread at a time and never
/// blocks on I/O, so on an idle machine the two clocks agree.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), and the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Both clocks, started together.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    /// Start now.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    /// `(wall ns, CPU ns)` since the start.
    pub fn elapsed(&self) -> (u64, u64) {
        (
            self.wall.elapsed().as_nanos() as u64,
            process_cpu_ns() - self.cpu_ns,
        )
    }
}

/// User and system CPU seconds of this process so far (`/proc/self/stat`).
pub fn process_cpu_s() -> Option<(f64, f64)> {
    let s = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after = &s[s.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / CLK_TCK as f64, stime / CLK_TCK as f64))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
