//! # simnet — a deterministic simulated network of workstations
//!
//! `simnet` is the substrate on which this repository reproduces the IPPS
//! 2000 paper *"CORBA Based Runtime Support for Load Distribution and Fault
//! Tolerance"*. The paper's experiments ran on a NOW (network of
//! workstations) of 10 Unix machines; `simnet` provides the equivalent
//! environment as a deterministic discrete-event simulation:
//!
//! * **Hosts** with a single CPU each, shared among runnable jobs by
//!   processor sharing — a worker co-located with a background load process
//!   runs at half speed, which is exactly the physics behind the paper's
//!   Figure 3.
//! * **Processes** written in plain blocking style (each runs as a fiber on
//!   the driver's thread, resumed one at a time): `sleep`, `compute`,
//!   `send`, `recv`. x86-64 Linux only: the fiber switch is hand-written.
//! * **A LAN** with latency and bandwidth, port-addressed endpoints, RSTs
//!   for connections to dead servers, keepalive probes answered by the
//!   destination host's kernel ([`Ctx::probe`]), and partitions.
//! * **Fault injection**: process kills, host crashes (at an instant or
//!   right after a host's *n*-th sent frame) and restarts.
//! * **Load metrics** per host (runnable count, load average, utilization)
//!   — the data the Winner node managers sample.
//!
//! # Example
//!
//! ```
//! use simnet::{Kernel, HostConfig, SimDuration, Addr};
//!
//! let mut sim = Kernel::with_seed(42);
//! let a = sim.add_host(HostConfig::new("alice"));
//! let b = sim.add_host(HostConfig::new("bob"));
//!
//! sim.spawn(b, "server", move |ctx| {
//!     let port = ctx.bind_port_exact(simnet::Port(5000)).unwrap().unwrap();
//!     let msg = ctx.recv().unwrap();
//!     ctx.send(Addr::Pid(msg.from), b"pong".to_vec()).unwrap();
//!     let _ = port;
//! });
//! sim.spawn(a, "client", move |ctx| {
//!     ctx.sleep(SimDuration::from_millis(1)).unwrap(); // let server bind
//!     ctx.send(Addr::Endpoint(b, simnet::Port(5000)), b"ping".to_vec()).unwrap();
//!     let reply = ctx.recv().unwrap();
//!     assert_eq!(reply.data(), Some(&b"pong"[..]));
//! });
//! sim.run_until_idle();
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

mod cpu;
mod fiber;
mod ids;
mod kernel;
mod msg;
mod process;
mod shared;
mod time;

pub use cpu::{HostConfig, HostSnapshot};
pub use ids::{Addr, HostId, Pid, Port};
pub use kernel::{
    EventHook, Fault, Kernel, KernelConfig, KernelEvent, KernelProfile, KernelStats, NetConfig,
    ProcCpu, ProfileHook, ProfileMark,
};
pub use msg::{Msg, Payload};
pub use process::{Ctx, Killed, ProcessBody, ProcessExit, SimResult};
pub use shared::{Shared, SharedGuard};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod kernel_tests;
