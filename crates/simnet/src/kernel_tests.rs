//! End-to-end tests of the simulation kernel: timing, messaging, CPU
//! sharing, fault injection, and determinism.

use std::sync::Arc;

use crate::{
    Addr, Fault, HostConfig, Kernel, KernelConfig, Payload, Port, SimDuration, SimResult, SimTime,
};

/// Poison-transparent mutex whose `lock()` returns the guard directly;
/// keeps the tests dependency-free.
struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Shared cell for extracting results from simulated processes.
type Cell<T> = Arc<Mutex<T>>;

fn cell<T: Default>() -> Cell<T> {
    Arc::new(Mutex::new(T::default()))
}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// The run's counters but `stacks_mapped`, which depends on what ran on
/// this thread before, not on the seed.
fn seeded_stats(sim: &Kernel) -> String {
    let crate::KernelStats {
        events,
        msgs_delivered,
        msgs_dropped,
        rsts,
        spawned,
        killed,
        stacks_mapped: _,
    } = sim.stats();
    format!(
        "KernelStats {{ events: {events}, msgs_delivered: {msgs_delivered}, \
         msgs_dropped: {msgs_dropped}, rsts: {rsts}, spawned: {spawned}, killed: {killed} }}"
    )
}

#[test]
fn sleep_advances_virtual_time() {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<f64>>();
    let o = out.clone();
    sim.spawn(h, "sleeper", move |ctx| {
        ctx.sleep(secs(1.5)).unwrap();
        o.lock().push(ctx.now().as_secs_f64());
        ctx.sleep(secs(0.5)).unwrap();
        o.lock().push(ctx.now().as_secs_f64());
    });
    let end = sim.run_until_idle();
    assert_eq!(*out.lock(), vec![1.5, 2.0]);
    assert!((end.as_secs_f64() - 2.0).abs() < 1e-9);
}

#[test]
fn compute_takes_work_over_speed() {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("fast").speed(4.0));
    let out = cell::<f64>();
    let o = out.clone();
    sim.spawn(h, "worker", move |ctx| {
        ctx.compute(2.0).unwrap();
        *o.lock() = ctx.now().as_secs_f64();
    });
    sim.run_until_idle();
    assert!((*out.lock() - 0.5).abs() < 1e-6);
}

#[test]
fn concurrent_compute_shares_cpu() {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<(String, f64)>>();
    for name in ["p", "q"] {
        let o = out.clone();
        sim.spawn(h, name, move |ctx| {
            ctx.compute(1.0).unwrap();
            o.lock().push((name.to_string(), ctx.now().as_secs_f64()));
        });
    }
    sim.run_until_idle();
    let done = out.lock();
    // Two equal jobs sharing a unit-speed CPU both finish at t=2.
    assert_eq!(done.len(), 2);
    for (_, t) in done.iter() {
        assert!((t - 2.0).abs() < 1e-6, "{done:?}");
    }
}

#[test]
fn compute_on_two_hosts_is_independent() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<Vec<f64>>();
    for h in [a, b] {
        let o = out.clone();
        sim.spawn(h, "w", move |ctx| {
            ctx.compute(1.0).unwrap();
            o.lock().push(ctx.now().as_secs_f64());
        });
    }
    sim.run_until_idle();
    for t in out.lock().iter() {
        assert!((t - 1.0).abs() < 1e-6);
    }
}

#[test]
fn message_round_trip_with_latency() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<Option<(Vec<u8>, f64)>>();

    sim.spawn(b, "server", move |ctx| {
        ctx.bind_port_exact(Port(7)).unwrap().unwrap();
        let m = ctx.recv().unwrap();
        let mut data = m.data().unwrap().to_vec();
        data.reverse();
        ctx.send(Addr::Pid(m.from), data).unwrap();
    });
    let o = out.clone();
    sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(0.001)).unwrap();
        ctx.send(Addr::Endpoint(b, Port(7)), vec![1, 2, 3]).unwrap();
        let reply = ctx.recv().unwrap();
        *o.lock() = Some((reply.data().unwrap().to_vec(), ctx.now().as_secs_f64()));
    });
    sim.run_until_idle();
    let (data, t) = out.lock().clone().unwrap();
    assert_eq!(data, vec![3, 2, 1]);
    // Two remote hops at 150us each plus 3 bytes of transfer time.
    assert!(t > 0.001 + 2.0 * 150e-6 - 1e-9, "t={t}");
    assert!(t < 0.0015, "t={t}");
}

#[test]
fn send_to_closed_port_produces_rst() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<bool>();
    let o = out.clone();
    sim.spawn(a, "client", move |ctx| {
        ctx.send(Addr::Endpoint(b, Port(9)), vec![0]).unwrap();
        let m = ctx.recv().unwrap();
        *o.lock() = matches!(m.payload, Payload::Rst { host, port: Port(9) } if host == b);
    });
    sim.run_until_idle();
    assert!(*out.lock());
    assert_eq!(sim.stats().rsts, 1);
}

#[test]
fn send_to_down_host_is_dropped() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    sim.schedule_fault(SimTime::ZERO, Fault::CrashHost(b));
    let out = cell::<Option<bool>>();
    let o = out.clone();
    sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        ctx.send(Addr::Endpoint(b, Port(9)), vec![0]).unwrap();
        let got = ctx.recv_timeout(secs(1.0)).unwrap();
        *o.lock() = Some(got.is_some());
    });
    sim.run_until_idle();
    assert_eq!(*out.lock(), Some(false));
    assert_eq!(sim.stats().msgs_dropped, 1);
}

#[test]
fn probe_is_answered_by_the_host_not_the_process() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let mailbox_empty = cell::<Option<bool>>();
    let m = mailbox_empty.clone();
    let server = sim.spawn(b, "busy-server", move |ctx| {
        ctx.bind_port_exact(Port(7)).unwrap().unwrap();
        // Never in `recv` while the probes arrive.
        ctx.compute(0.01).unwrap();
        *m.lock() = Some(ctx.try_recv().unwrap().is_none());
    });
    let out = cell::<Vec<(&'static str, SimDuration)>>();
    let o = out.clone();
    sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(0.001)).unwrap();
        for port in [Port(7), Port(9)] {
            let t0 = ctx.now();
            ctx.probe(b, port).unwrap();
            let answer = match ctx.recv().unwrap().payload {
                Payload::Alive { host, port: p } if (host, p) == (b, port) => "alive",
                Payload::Rst { host, port: p } if (host, p) == (b, port) => "rst",
                other => panic!("unexpected answer {other:?}"),
            };
            o.lock().push((answer, ctx.now().since(t0)));
        }
    });
    sim.run_until_idle();
    // Exactly two hops of the 150 us LAN latency: zero bytes, no CPU.
    let rtt = SimDuration::from_micros(300);
    assert_eq!(*out.lock(), vec![("alive", rtt), ("rst", rtt)]);
    assert_eq!(*mailbox_empty.lock(), Some(true));
    // Nobody was charged CPU for them: the server's own 10 ms (rounded up
    // to the clock's nanosecond) is all there is.
    let cpu = sim.profile().cpu_by_proc;
    let charged: Vec<_> = cpu.iter().map(|c| (c.pid, c.cpu_ns)).collect();
    assert_eq!(charged, vec![(server, 10_000_001)]);
}

#[test]
fn probe_of_a_down_host_or_across_a_cut_is_silent() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let down = sim.add_host(HostConfig::new("down"));
    let cut = sim.add_host(HostConfig::new("cut"));
    sim.schedule_fault(SimTime::ZERO, Fault::CrashHost(down));
    // From 50 ms on keepalives still reach `cut`; the answers are lost.
    let lose_answers = Fault::DropOneWay {
        from: cut,
        to: a,
        blocked: true,
    };
    sim.schedule_fault(SimTime::ZERO + secs(0.05), lose_answers);
    sim.schedule_fault(SimTime::ZERO + secs(0.02), Fault::Partition(a, cut, true));
    sim.schedule_fault(SimTime::ZERO + secs(0.04), Fault::Partition(a, cut, false));
    sim.spawn(cut, "server", move |ctx| {
        ctx.bind_port_exact(Port(7)).unwrap().unwrap();
        let _ = ctx.recv();
    });
    fn answered(ctx: &mut crate::Ctx, host: crate::HostId) -> bool {
        ctx.probe(host, Port(7)).unwrap();
        ctx.recv_timeout(secs(0.01)).unwrap().is_some()
    }
    fn at(ctx: &mut crate::Ctx, t: f64) {
        let wait = (SimTime::ZERO + secs(t)).since(ctx.now());
        ctx.sleep(wait).unwrap();
    }
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    let client = sim.spawn(a, "client", move |ctx| {
        at(ctx, 0.001);
        let mut seen = vec![answered(ctx, down), answered(ctx, cut)];
        at(ctx, 0.021); // cut at 20 ms
        seen.push(answered(ctx, cut));
        at(ctx, 0.041); // healed at 40 ms
        seen.push(answered(ctx, cut));
        at(ctx, 0.061); // answers lost from 50 ms
        seen.push(answered(ctx, cut));
        *o.lock() = seen;
    });
    sim.run_until_exit(client);
    assert_eq!(*out.lock(), vec![false, true, false, true, false]);
    // The down host, the cut, and the lost answer.
    assert_eq!(sim.stats().msgs_dropped, 3);
}

#[test]
fn recv_timeout_fires_and_message_wins_race() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    let waiter = sim.spawn(a, "waiter", move |ctx| {
        // First: times out (no sender).
        let m1 = ctx.recv_timeout(secs(0.5)).unwrap();
        o.lock().push(m1.is_some());
        // Second: message arrives before the timeout.
        let m2 = ctx.recv_timeout(secs(10.0)).unwrap();
        o.lock().push(m2.is_some());
    });
    sim.spawn(a, "sender", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        ctx.send(Addr::Pid(waiter), vec![7]).unwrap();
    });
    sim.run_until_idle();
    assert_eq!(*out.lock(), vec![false, true]);
}

#[test]
fn try_recv_does_not_block() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    let target = sim.spawn(a, "poller", move |ctx| {
        o.lock().push(ctx.try_recv().unwrap().is_some());
        ctx.sleep(secs(1.0)).unwrap();
        o.lock().push(ctx.try_recv().unwrap().is_some());
    });
    sim.spawn(a, "sender", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        ctx.send(Addr::Pid(target), vec![1]).unwrap();
    });
    sim.run_until_idle();
    assert_eq!(*out.lock(), vec![false, true]);
}

#[test]
fn mailbox_queues_messages_in_order() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<u8>>();
    let o = out.clone();
    let target = sim.spawn(a, "late-reader", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        for _ in 0..3 {
            let m = ctx.recv().unwrap();
            o.lock().push(m.data().unwrap()[0]);
        }
    });
    sim.spawn(a, "sender", move |ctx| {
        for i in 0..3u8 {
            ctx.send(Addr::Pid(target), vec![i]).unwrap();
            ctx.sleep(secs(0.01)).unwrap();
        }
    });
    sim.run_until_idle();
    assert_eq!(*out.lock(), vec![0, 1, 2]);
}

#[test]
fn kill_process_interrupts_compute() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<String>>();
    let o = out.clone();
    let victim = sim.spawn(a, "victim", move |ctx| match ctx.compute(1000.0) {
        Ok(()) => o.lock().push("finished".into()),
        Err(_) => o.lock().push("killed".into()),
    });
    sim.schedule_fault(SimTime::ZERO + secs(1.0), Fault::KillProcess(victim));
    let o2 = out.clone();
    sim.spawn(a, "killer", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap();
        // After the kill this process has the CPU to itself.
        ctx.compute(1.0).unwrap();
        o2.lock().push(format!("t={:.3}", ctx.now().as_secs_f64()));
    });
    sim.run_until_idle();
    let log = out.lock().clone();
    assert!(log.contains(&"killed".to_string()), "{log:?}");
    // killer: 1s sleep + 1 unit at full speed = t=2.0
    assert!(log.contains(&"t=2.000".to_string()), "{log:?}");
    assert_eq!(sim.stats().killed, 1);
}

#[test]
fn killed_process_unwrap_panics_are_quiet_and_harmless() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let victim = sim.spawn(a, "victim", move |ctx| -> SimResult<()> {
        // unwrap() on the syscall result: panics when killed; the kernel
        // treats this as the expected kill unwind.
        loop {
            ctx.sleep(secs(0.1)).unwrap();
        }
    });
    sim.schedule_fault(SimTime::ZERO + secs(1.0), Fault::KillProcess(victim));
    sim.run_until_idle();
    assert!(sim.proc_dead(victim));
}

#[test]
#[should_panic(expected = "simulated process")]
fn process_bug_panics_propagate_to_the_driver() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    sim.spawn(a, "buggy", move |_ctx| -> SimResult<()> {
        panic!("application bug");
    });
    sim.run_until_idle();
}

/// A kernel-side panic inside a process's syscall is re-raised as the
/// kernel's, not the body's.
#[test]
#[should_panic(expected = "kernel fault in its syscall: unknown host h9")]
fn kernel_panics_in_a_syscall_propagate_to_the_driver() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    sim.spawn(a, "lost", move |ctx| {
        let _ = ctx.spawn(crate::HostId(9), "nowhere", |_| {});
    });
    sim.run_until_idle();
}

#[test]
fn host_crash_kills_processes_and_unbinds_ports() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<Vec<String>>();

    let o = out.clone();
    sim.spawn(b, "server", move |ctx| {
        ctx.bind_port_exact(Port(7)).unwrap().unwrap();
        let r = ctx.recv();
        o.lock().push(format!("server: {:?}", r.is_ok()));
    });
    sim.schedule_fault(SimTime::ZERO + secs(1.0), Fault::CrashHost(b));

    let o = out.clone();
    sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(2.0)).unwrap();
        ctx.send(Addr::Endpoint(b, Port(7)), vec![1]).unwrap();
        let got = ctx.recv_timeout(secs(1.0)).unwrap();
        o.lock().push(format!("client: {:?}", got.is_some()));
    });
    sim.run_until_idle();
    let log = out.lock().clone();
    assert!(log.contains(&"server: false".to_string()), "{log:?}");
    assert!(log.contains(&"client: false".to_string()), "{log:?}");
}

#[test]
fn host_restart_allows_new_processes() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    sim.schedule_fault(SimTime::ZERO + secs(1.0), Fault::CrashHost(b));
    sim.schedule_fault(SimTime::ZERO + secs(2.0), Fault::RestartHost(b));
    let out = cell::<bool>();
    let o = out.clone();
    sim.spawn(a, "driver", move |ctx| {
        ctx.sleep(secs(3.0)).unwrap();
        let oo = o.clone();
        ctx.spawn(b, "reborn", move |ctx2| {
            ctx2.compute(0.5).unwrap();
            *oo.lock() = true;
        })
        .unwrap();
    });
    sim.run_until_idle();
    assert!(*out.lock());
}

#[test]
fn spawn_on_down_host_never_runs() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    sim.schedule_fault(SimTime::ZERO, Fault::CrashHost(b));
    let out = cell::<bool>();
    let o = out.clone();
    sim.spawn(a, "driver", move |ctx| {
        ctx.sleep(secs(0.5)).unwrap();
        let oo = o.clone();
        let pid = ctx
            .spawn(b, "ghost", move |_| {
                *oo.lock() = true;
            })
            .unwrap();
        ctx.sleep(secs(0.5)).unwrap();
        let _ = pid;
    });
    sim.run_until_idle();
    assert!(!*out.lock());
}

#[test]
fn partition_blocks_and_heals() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<Vec<bool>>();

    sim.spawn(b, "server", move |ctx| {
        ctx.bind_port_exact(Port(7)).unwrap().unwrap();
        loop {
            let Ok(m) = ctx.recv() else { return };
            ctx.send(Addr::Pid(m.from), vec![9]).unwrap();
        }
    });
    sim.schedule_fault(SimTime::ZERO + secs(0.05), Fault::Partition(a, b, true));
    sim.schedule_fault(SimTime::ZERO + secs(0.65), Fault::Partition(a, b, false));
    let o = out.clone();
    sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(0.1)).unwrap();
        ctx.send(Addr::Endpoint(b, Port(7)), vec![1]).unwrap();
        let first = ctx.recv_timeout(secs(0.5)).unwrap();
        o.lock().push(first.is_some());
        ctx.sleep(secs(0.1)).unwrap(); // healed at 0.65 s
        ctx.send(Addr::Endpoint(b, Port(7)), vec![1]).unwrap();
        let second = ctx.recv_timeout(secs(0.5)).unwrap();
        o.lock().push(second.is_some());
    });
    sim.run_until_exit(crate::Pid(1));
    assert_eq!(*out.lock(), vec![false, true]);
}

#[test]
fn host_info_reports_background_load() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b").speed(2.0));
    let out = cell::<Vec<(u32, f64)>>();

    sim.spawn(b, "spinner", move |ctx| {
        let _ = ctx.spin_forever();
    });
    let o = out.clone();
    sim.spawn(a, "monitor", move |ctx| {
        ctx.sleep(secs(30.0)).unwrap();
        for h in [a, b] {
            let s = ctx.host_info(h).unwrap().unwrap();
            o.lock().push((s.runnable, s.load_avg));
        }
        let none = ctx.host_info(crate::HostId(99)).unwrap();
        assert!(none.is_none());
    });
    sim.run_until_idle();
    let v = out.lock().clone();
    assert_eq!(v[0].0, 0);
    assert!(v[0].1 < 0.01);
    assert_eq!(v[1].0, 1);
    assert!(v[1].1 > 0.99, "{v:?}");
}

#[test]
fn ephemeral_ports_are_distinct() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<u16>>();
    let o = out.clone();
    sim.spawn(a, "binder", move |ctx| {
        for _ in 0..5 {
            o.lock().push(ctx.bind_port().unwrap().0);
        }
    });
    sim.run_until_idle();
    let mut v = out.lock().clone();
    v.sort_unstable();
    v.dedup();
    assert_eq!(v.len(), 5);
}

#[test]
fn bind_port_exact_conflict_returns_none() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<Vec<bool>>();
    let o = out.clone();
    sim.spawn(a, "binder", move |ctx| {
        let first = ctx.bind_port_exact(Port(80)).unwrap();
        let second = ctx.bind_port_exact(Port(80)).unwrap();
        o.lock().push(first.is_some());
        o.lock().push(second.is_some());
    });
    sim.run_until_idle();
    assert_eq!(*out.lock(), vec![true, false]);
}

#[test]
fn run_until_exit_stops_with_background_activity() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    // A periodic background process that never exits.
    sim.spawn(a, "daemon", move |ctx| loop {
        if ctx.sleep(secs(0.5)).is_err() {
            return;
        }
    });
    let main = sim.spawn(a, "main", move |ctx| {
        ctx.sleep(secs(3.0)).unwrap();
    });
    let t = sim.run_until_exit(main);
    assert!((t.as_secs_f64() - 3.0).abs() < 1e-9);
    assert!(sim.proc_dead(main));
}

#[test]
fn run_until_advances_clock_to_deadline() {
    let mut sim = Kernel::with_seed(1);
    let _ = sim.add_host(HostConfig::new("a"));
    let t = sim.run_until(SimTime::ZERO + secs(5.0));
    assert!((t.as_secs_f64() - 5.0).abs() < 1e-9);
    assert_eq!(sim.now(), t);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run(seed: u64) -> Vec<(f64, u64)> {
        let mut sim = Kernel::with_seed(seed);
        let hosts = sim.add_hosts(4);
        let out = cell::<Vec<(f64, u64)>>();
        for (i, &h) in hosts.iter().enumerate() {
            let o = out.clone();
            let hosts = hosts.clone();
            sim.spawn(h, format!("p{i}"), move |ctx| {
                use rand::Rng;
                for _ in 0..20 {
                    let work: f64 = ctx.rng().random_range(0.01..0.1);
                    ctx.compute(work).unwrap();
                    let peer = hosts[ctx.rng().random_range(0..hosts.len())];
                    ctx.send(Addr::Endpoint(peer, Port(1)), vec![0; 16])
                        .unwrap();
                    let v: u64 = ctx.rng().random();
                    o.lock().push((ctx.now().as_secs_f64(), v));
                }
            });
        }
        sim.run_until_idle();
        let trace = out.lock().clone();
        trace
    }
    let a = run(7);
    let b = run(7);
    let c = run(8);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn stats_count_activity() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let target = sim.spawn(a, "sink", move |ctx| {
        let _ = ctx.recv();
    });
    sim.spawn(a, "src", move |ctx| {
        ctx.send(Addr::Pid(target), vec![1, 2]).unwrap();
    });
    sim.run_until_idle();
    let s = sim.stats();
    assert_eq!(s.msgs_delivered, 1);
    assert_eq!(s.spawned, 2);
    assert!(s.events >= 3);
}

#[test]
#[should_panic(expected = "max_events")]
fn runaway_event_loop_is_caught() {
    let mut sim = Kernel::new(KernelConfig {
        max_events: 100,
        ..KernelConfig::default()
    });
    let a = sim.add_host(HostConfig::new("a"));
    sim.spawn(a, "looper", move |ctx| -> SimResult<()> {
        loop {
            ctx.sleep(SimDuration::from_nanos(1)).unwrap();
        }
    });
    sim.run_until_idle();
}

#[test]
#[should_panic(expected = "max_events")]
fn a_lone_compute_counts_against_max_events() {
    // The start is event 1; the compute's completion would be event 2,
    // inline or not.
    let mut sim = Kernel::new(KernelConfig {
        max_events: 1,
        ..KernelConfig::default()
    });
    let a = sim.add_host(HostConfig::new("a"));
    sim.spawn(a, "worker", move |ctx| {
        let _ = ctx.compute(1.0);
    });
    sim.run_until_idle();
}

#[test]
fn rst_includes_transfer_payload_semantics() {
    // Payload bytes increase transfer time: a big message arrives later
    // than a small one sent at the same instant.
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<Vec<usize>>();
    let o = out.clone();
    let rx = sim.spawn(b, "rx", move |ctx| {
        for _ in 0..2 {
            let m = ctx.recv().unwrap();
            o.lock().push(m.data().unwrap().len());
        }
    });
    sim.spawn(a, "tx", move |ctx| {
        ctx.send(Addr::Pid(rx), vec![0; 1_000_000]).unwrap();
        ctx.send(Addr::Pid(rx), vec![0; 1]).unwrap();
    });
    sim.run_until_idle();
    // The 1-byte message overtakes the 1MB message.
    assert_eq!(*out.lock(), vec![1, 1_000_000]);
}

#[test]
fn link_latency_overrides_model_wan_links() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("lan1-a"));
    let b = sim.add_host(HostConfig::new("lan2-b"));
    // A 20 ms WAN link between the two "sites".
    sim.set_link_latency(a, b, secs(0.020));
    let out = cell::<Option<f64>>();
    let o = out.clone();
    sim.spawn(b, "echo", move |ctx| {
        ctx.bind_port_exact(Port(9)).unwrap().unwrap();
        let m = ctx.recv().unwrap();
        ctx.send(Addr::Pid(m.from), vec![1]).unwrap();
    });
    let client = sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(0.001)).unwrap();
        let t0 = ctx.now();
        ctx.send(Addr::Endpoint(b, Port(9)), vec![0]).unwrap();
        ctx.recv().unwrap();
        *o.lock() = Some(ctx.now().since(t0).as_secs_f64());
    });
    sim.run_until_exit(client);
    let rtt = (*out.lock()).unwrap();
    assert!(rtt >= 0.040, "WAN RTT must be ≥ 2×20ms: {rtt}");
    assert!(rtt < 0.045, "{rtt}");
}

#[test]
fn spawned_child_runs_on_target_host() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let out = cell::<Option<(u32, u32)>>();
    let o = out.clone();
    sim.spawn(a, "parent", move |ctx| {
        let oo = o.clone();
        ctx.spawn(b, "child", move |c| {
            *oo.lock() = Some((c.host().0, c.pid().0));
        })
        .unwrap();
        ctx.sleep(secs(0.1)).unwrap();
    });
    sim.run_until_idle();
    let (host, _pid) = out.lock().unwrap();
    assert_eq!(host, b.0);
}

#[test]
fn event_hook_observes_kills() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let lines = cell::<Vec<String>>();
    let l = lines.clone();
    sim.set_event_hook(move |t, ev| {
        l.lock().push(format!("{t}: {ev}"));
    });
    let victim = sim.spawn(a, "victim", |ctx| {
        let _ = ctx.spin_forever();
    });
    sim.schedule_fault(SimTime::ZERO + secs(1.0), Fault::KillProcess(victim));
    sim.run_until_idle();
    let log = lines.lock().clone();
    assert!(
        log.iter().any(|line| line.contains("kill p0")),
        "hook saw nothing: {log:?}"
    );
}

#[test]
fn trace_lines_are_the_events_rendered() {
    // The textual trace is the `Display` of each structured event.
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_hosts(3);
    let lines = cell::<Vec<String>>();
    let l = lines.clone();
    sim.set_event_hook(move |_, ev| l.lock().push(ev.to_string()));
    sim.spawn(h[1], "victim", |ctx| {
        let _ = ctx.spin_forever();
    });
    sim.spawn(h[0], "brief", |_| {});
    let group = Fault::PartitionGroup {
        side: vec![h[0]],
        blocked: true,
    };
    let faults = [
        Fault::Partition(h[0], h[1], true),
        group,
        Fault::SetClockSkew(h[2], -5),
        Fault::CrashHost(h[1]),
        Fault::RestartHost(h[1]),
    ];
    for (i, fault) in faults.into_iter().enumerate() {
        sim.schedule_fault(SimTime::ZERO + secs(1.0 + i as f64), fault);
    }
    sim.run_until_idle();
    let want = [
        "spawn p0 victim on h1",
        "spawn p1 brief on h0",
        "exit p1",
        "partition h0-h1 cut",
        "partition-group [h0] cut",
        "clock-skew h2 -5ns",
        "kill p0",
        "crash h1",
        "restart h1",
    ];
    assert_eq!(*lines.lock(), want);
}

#[test]
fn self_crash_host_terminates_the_process() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let out = cell::<bool>();
    let o = out.clone();
    let pid = sim.spawn(a, "host-suicide", move |ctx| {
        let here = ctx.host();
        if ctx.crash_host(here).is_err() {
            *o.lock() = true;
        }
    });
    sim.run_until_idle();
    assert!(sim.proc_dead(pid));
    drop(sim); // join the unwinding thread before asserting
    assert!(*out.lock());
}

// ---------------------------------------------------------------------
// Kernel profiling: CPU attribution, queue peaks, profile marks
// ---------------------------------------------------------------------

#[test]
fn cpu_attribution_follows_processor_sharing() {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let mut pids = Vec::new();
    for name in ["p", "q"] {
        pids.push(sim.spawn(h, name, move |ctx| {
            ctx.compute(1.0).unwrap();
        }));
    }
    sim.run_until_idle();
    let profile = sim.profile();
    // Two equal jobs share the unit CPU over [0, 2]; each is attributed
    // exactly half the elapsed virtual time.
    assert_eq!(profile.cpu_by_proc.len(), 2);
    for (c, pid) in profile.cpu_by_proc.iter().zip(&pids) {
        assert_eq!(c.pid, *pid);
        assert_eq!(c.host, h);
        let secs = c.cpu_ns as f64 / 1e9;
        assert!((secs - 1.0).abs() < 1e-3, "{:?}", profile.cpu_by_proc);
    }
}

#[test]
fn cpu_attribution_is_speed_independent() {
    // CPU share is measured in virtual seconds of CPU *time*, not work
    // units: a lone job on a 4x host occupies the CPU for work/speed.
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("fast").speed(4.0));
    let pid = sim.spawn(h, "w", move |ctx| {
        ctx.compute(2.0).unwrap();
    });
    sim.run_until_idle();
    let profile = sim.profile();
    assert_eq!(profile.cpu_by_proc.len(), 1);
    let c = &profile.cpu_by_proc[0];
    assert_eq!((c.pid, c.host), (pid, h));
    assert!((c.cpu_ns as f64 / 1e9 - 0.5).abs() < 1e-3);
}

#[test]
fn profile_reports_queue_peaks() {
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    let receiver = sim.spawn(a, "rx", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap(); // let the mailbox fill
        while ctx.try_recv().unwrap().is_some() {}
    });
    sim.spawn(a, "tx", move |ctx| {
        for _ in 0..3 {
            ctx.send(Addr::Pid(receiver), b"m".to_vec()).unwrap();
        }
    });
    sim.run_until_idle();
    let profile = sim.profile();
    assert!(profile.mailbox_peak >= 3, "{profile:?}");
    assert!(profile.event_queue_peak >= 1, "{profile:?}");
    assert!(profile.runnable_peak >= 1, "{profile:?}");
}

#[test]
fn profile_marks_pair_up_and_never_nest() {
    use crate::ProfileMark;
    let marks = cell::<Vec<ProfileMark>>();
    let m = marks.clone();
    let mut sim = Kernel::with_seed(1);
    let a = sim.add_host(HostConfig::new("a"));
    sim.set_profile_hook(move |mark| m.lock().push(mark));
    let server = sim.spawn(a, "server", move |ctx| {
        let _ = ctx.recv().unwrap();
    });
    sim.spawn(a, "client", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        ctx.compute(0.001).unwrap();
        ctx.send(Addr::Pid(server), b"hi".to_vec()).unwrap();
    });
    // A compute alone on its host may complete without the event heap;
    // this one shares the CPU with the client's, so a `CpuCheck` runs.
    sim.spawn(a, "twin", move |ctx| {
        ctx.sleep(secs(0.01)).unwrap();
        ctx.compute(0.001).unwrap();
    });
    sim.run_until_idle();
    let marks = marks.lock();
    assert!(!marks.is_empty());
    // Flat structure: every begin is immediately closed by its own end.
    let mut open: Option<&'static str> = None;
    let mut ops = std::collections::BTreeSet::new();
    for mark in marks.iter() {
        match *mark {
            ProfileMark::OpBegin(op) => {
                assert!(open.is_none(), "nested begin {op} inside {open:?}");
                open = Some(op);
            }
            ProfileMark::OpEnd(op) => {
                assert_eq!(open, Some(op), "unbalanced end {op}");
                ops.insert(op);
                open = None;
            }
        }
    }
    assert!(open.is_none(), "trailing unclosed {open:?}");
    for expected in [
        "sched.handoff",
        "sys.sleep",
        "sys.compute",
        "sys.send",
        "sys.recv",
        "sys.exit",
        "event.start",
        "event.timer",
        "event.deliver",
        "event.cpu_check",
    ] {
        assert!(ops.contains(expected), "missing op {expected}: {ops:?}");
    }
}

// ---------------------------------------------------------------------
// The send trigger: a crash right after a host's n-th frame
// ---------------------------------------------------------------------

#[test]
fn a_host_crashes_right_after_its_nth_send() {
    const N: u8 = 3;
    let mut sim = Kernel::with_seed(4);
    let h = sim.add_hosts(2);
    let lines = cell::<Vec<String>>();
    let l = lines.clone();
    sim.set_event_hook(move |t, ev| l.lock().push(format!("{} {ev}", t.as_nanos())));
    let got = cell::<Vec<u8>>();
    let g = got.clone();
    let sink = sim.spawn(h[1], "sink", move |ctx| {
        while let Ok(Some(m)) = ctx.recv_timeout(secs(1.0)) {
            g.lock().extend(m.data().unwrap_or_default());
        }
    });
    let sent_at = cell::<Vec<u64>>();
    let s = sent_at.clone();
    sim.spawn(h[0], "sender", move |ctx| {
        for tag in 1..=5u8 {
            ctx.sleep(SimDuration::from_millis(1))?;
            s.lock().push(ctx.now().as_nanos());
            ctx.send(Addr::Pid(sink), vec![tag])?;
        }
        Ok::<(), crate::Killed>(())
    });
    sim.crash_after_sends(h[0], u64::from(N));
    sim.run_until_idle();
    assert_eq!(*got.lock(), [1, 2, 3], "frames 1..=n arrive, none after");
    let nth = sent_at.lock()[usize::from(N) - 1];
    let crash = format!("{nth} crash h0");
    assert!(lines.lock().contains(&crash), "{:#?}", lines.lock());
}

// ---------------------------------------------------------------------
// A compute alone on its host completes without the event heap
// ---------------------------------------------------------------------

/// 1/256 s of work, exact in binary: on a unit-speed host a lone job ends
/// `SLICE_NS` after it starts (the whole nanoseconds rounded up, plus one).
const SLICE: f64 = 1.0 / 256.0;
const SLICE_NS: u64 = 3_906_251;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A body that sleeps `at`, then computes `SLICE` `times` times, noting
/// each completion.
fn sliced(
    notes: &Cell<Vec<String>>,
    name: &'static str,
    at: SimDuration,
    times: usize,
) -> impl FnOnce(&mut crate::Ctx) + Send + 'static {
    let notes = notes.clone();
    move |ctx| {
        if ctx.sleep(at).is_err() {
            return;
        }
        for _ in 0..times {
            if ctx.compute(SLICE).is_err() {
                return;
            }
            notes
                .lock()
                .push(format!("{} {name} computed", ctx.now().as_nanos()));
        }
    }
}

/// What a run of `inline_cell` comes to: the kernel trace, the stats, the
/// virtual CPU per process, the processes' notes, and where the two early
/// stops of the run left the clock and the notes.
type InlineOutcome = (Vec<String>, String, Vec<String>, Vec<String>, Vec<String>);

/// Every case the inline completion must decide as the heap would, one
/// phase each, nothing of one phase queued inside another:
/// - (a) 10 ms: a lone compute, twice;
/// - (b) 20 ms: two computes sharing a host, twice — the second pair
///   starts while the other process is still runnable;
/// - (c) 40 ms: a delivery due at exactly a compute's completion instant;
/// - (d) 50 ms: a crash of the computing host at its completion instant;
/// - (e) 60 ms: a `run_until` deadline one nanosecond before a completion;
/// - (f) 70 ms: a short compute joining a longer one on its host, nothing
///   queued before its completion but the longer one's superseded check;
/// - (g) 90 ms: `run_until_exit` of a process that leaves at the instant
///   its host-mate, still runnable, starts another compute.
fn inline_cell() -> InlineOutcome {
    let mut sim = Kernel::with_seed(33);
    let lines = cell::<Vec<String>>();
    let l = lines.clone();
    sim.set_event_hook(move |t, ev| l.lock().push(format!("{t} {ev}")));
    let h = sim.add_hosts(8);
    let notes = cell::<Vec<String>>();
    let computes = |name, at, times| sliced(&notes, name, at, times);
    sim.spawn(h[0], "lone", computes("lone", ms(10), 2));
    sim.spawn(h[1], "pair-a", computes("pair-a", ms(20), 2));
    sim.spawn(h[1], "pair-b", computes("pair-b", ms(20), 2));
    let n = notes.clone();
    let sink = sim.spawn(h[2], "sink", move |ctx| {
        if ctx.recv().is_ok() {
            n.lock()
                .push(format!("{} sink got it", ctx.now().as_nanos()));
        }
    });
    sim.set_link_latency(h[3], h[2], ms(1) + SimDuration::from_nanos(SLICE_NS));
    sim.spawn(h[3], "sender", move |ctx| {
        let _ = ctx
            .sleep(ms(40))
            .and_then(|()| ctx.send(Addr::Pid(sink), Vec::new()));
    });
    sim.spawn(h[2], "racer", computes("racer", ms(41), 1));
    sim.spawn(h[4], "victim", computes("victim", ms(50), 1));
    let slice = SimDuration::from_nanos(SLICE_NS);
    sim.schedule_fault(SimTime::ZERO + ms(50) + slice, Fault::CrashHost(h[4]));
    sim.spawn(h[5], "late", computes("late", ms(60), 1));
    let n = notes.clone();
    sim.spawn(h[6], "long", move |ctx| {
        if ctx.sleep(ms(70)).is_ok() && ctx.compute(4.0 * SLICE).is_ok() {
            n.lock()
                .push(format!("{} long computed", ctx.now().as_nanos()));
        }
    });
    sim.spawn(h[6], "short", computes("short", ms(71), 1));
    let exiter = sim.spawn(h[7], "exiter", computes("exiter", ms(90), 1));
    sim.spawn(h[7], "stayer", computes("stayer", ms(90), 2));
    let mut stops = Vec::new();
    let mut stop = |at: SimTime, notes: &Cell<Vec<String>>| {
        stops.push(format!(
            "{} after {} notes",
            at.as_nanos(),
            notes.lock().len()
        ));
    };
    let deadline = SimTime::ZERO + ms(60) + SimDuration::from_nanos(SLICE_NS - 1);
    stop(sim.run_until(deadline), &notes);
    stop(sim.run_until_exit(exiter), &notes);
    sim.run_until_idle();
    let cpu = sim
        .profile()
        .cpu_by_proc
        .iter()
        .map(|c| format!("{} {} {}", c.pid, c.name, c.cpu_ns))
        .collect();
    let lines = lines.lock().clone();
    let notes = notes.lock().clone();
    (lines, seeded_stats(&sim), cpu, notes, stops)
}

#[test]
fn a_lone_compute_completes_where_the_heap_would_have_it() {
    let (lines, stats, cpu, notes, stops) = inline_cell();
    // Captured at the commit before computes could complete inline.
    assert_eq!(lines, INLINE_TRACE, "{lines:#?}");
    assert_eq!(stats, INLINE_STATS);
    assert_eq!(cpu, INLINE_CPU, "{cpu:#?}");
    assert_eq!(notes, INLINE_NOTES, "{notes:#?}");
    assert_eq!(stops, INLINE_STOPS, "{stops:#?}");
}

// ---------------------------------------------------------------------
// Turns: process switches, observer equivalence, dying processes
// ---------------------------------------------------------------------

/// A two-host echo pair, `n` round trips: the client runs `compute, send,
/// recv, compute`, the server `recv, compute, compute, send` (the syscall
/// mix of one `rpc_small` round trip), with an event hook if `observed`,
/// and a profile hook if `profiled`. Returns the
/// kernel after the run and how many `sched.handoff` marks the profile hook
/// saw.
fn echo_pair(n: usize, observed: bool, profiled: bool) -> (Kernel, usize) {
    let mut sim = Kernel::with_seed(9);
    let handoffs = cell::<usize>();
    if observed {
        sim.set_event_hook(|_, _| {});
    }
    if profiled {
        let h = handoffs.clone();
        sim.set_profile_hook(move |mark| {
            *h.lock() += usize::from(mark == crate::ProfileMark::OpBegin("sched.handoff"));
        });
    }
    let a = sim.add_host(HostConfig::new("client"));
    let b = sim.add_host(HostConfig::new("server"));
    let server = sim.spawn(b, "server", move |ctx| {
        for _ in 0..n {
            let req = ctx.recv().unwrap();
            ctx.compute(1e-5).unwrap();
            ctx.compute(1e-5).unwrap();
            ctx.send(Addr::Pid(req.from), vec![0; 64]).unwrap();
        }
    });
    sim.spawn(a, "client", move |ctx| {
        for _ in 0..n {
            ctx.compute(1e-5).unwrap();
            ctx.send(Addr::Pid(server), vec![0; 64]).unwrap();
            ctx.recv().unwrap();
            ctx.compute(1e-5).unwrap();
        }
    });
    sim.run_until_idle();
    let seen = *handoffs.lock();
    (sim, seen)
}

#[test]
fn a_round_trip_costs_two_process_switches() {
    const N: u64 = 200;
    // No observers: the CPU passes from one process to the other when the
    // request reaches the server and when the reply reaches the client,
    // plus a handful of times around start-up and exit.
    let (bare, _) = echo_pair(N as usize, false, false);
    let switches = bare.process_switches();
    assert!(
        (2 * N..=2 * N + 8).contains(&switches),
        "{switches} process switches for {N} round trips"
    );
    // Both hooks run in the scheduler loop and change nothing it decides.
    // The profile hook sees one `sched.handoff` per resume: one per
    // syscall (8 per round trip + 2 exits).
    let (observed, _) = echo_pair(N as usize, true, false);
    assert_eq!(observed.process_switches(), switches);
    let (hooked, handoffs) = echo_pair(N as usize, false, true);
    assert_eq!(handoffs as u64, 8 * N + 2);
    assert_eq!(hooked.process_switches(), switches);
    for run in [&observed, &hooked] {
        assert_eq!(bare.now(), run.now());
        assert_eq!(bare.profile(), run.profile());
    }
}

/// What a run of `observed_cell` comes to — stats, profile, end time and
/// the `(time, note)`s the processes took — then what the event hook was
/// handed (empty unless installed).
type CellOutcome = (
    (String, crate::KernelProfile, SimTime, Vec<String>),
    Vec<String>,
);

/// One seed-fixed cell with a kill, a spawn from inside a process, a
/// `recv_timeout` that expires, a scheduled partition, a host crashed from
/// another host — and one crashed by a process that lives on it while it
/// is in its turn: four equal compute jobs on `h[3]` finish at the same
/// CpuCheck, `w0` takes another turn on the CPU, `w1` crashes the host
/// with `w0` blocked and `w2`, `w3` still in the runnable queue. `armed`
/// arms a send trigger on `h[3]` that counts `w0`'s one frame and never
/// fires.
fn observed_cell(events: bool, profile: bool, armed: bool) -> CellOutcome {
    let mut sim = Kernel::with_seed(21);
    let lines = cell::<Vec<String>>();
    if events {
        let l = lines.clone();
        sim.set_event_hook(move |t, ev| l.lock().push(format!("{t} {ev}")));
    }
    if profile {
        sim.set_profile_hook(|_| {});
    }
    let h = sim.add_hosts(4);
    if armed {
        sim.crash_after_sends(h[3], 2);
    }
    let notes = cell::<Vec<String>>();
    let note = |notes: &Cell<Vec<String>>, ctx: &crate::Ctx, what: &str| {
        notes.lock().push(format!("{} {what}", ctx.now()));
    };
    let spinner = sim.spawn(h[1], "spinner", |ctx| {
        let _ = ctx.spin_forever();
    });
    let n = notes.clone();
    let sink = sim.spawn(h[2], "sink", move |ctx| {
        while let Ok(Some(m)) = ctx.recv_timeout(secs(0.5)) {
            note(&n, ctx, &format!("sink got {:?}", m.data()));
        }
        note(&n, ctx, "sink timed out");
    });
    let (n, hosts) = (notes.clone(), h.clone());
    sim.spawn(h[0], "boss", move |ctx| {
        ctx.compute(0.01).unwrap();
        let child = ctx.spawn(hosts[1], "child", move |ctx| {
            let _ = ctx.send(Addr::Pid(sink), vec![9]);
            let _ = ctx.sleep(secs(10.0));
        });
        ctx.sleep(secs(0.1)).unwrap(); // the spinner is killed meanwhile
        note(&n, ctx, &format!("spinner killed, child is {child:?}"));
        ctx.compute(0.02).unwrap();
        ctx.crash_host(hosts[1]).unwrap();
        note(&n, ctx, "crashed h1");
        ctx.restart_host(hosts[1]).unwrap();
    });
    for i in 0..4u8 {
        let n = notes.clone();
        sim.spawn(h[3], format!("w{i}"), move |ctx| {
            // A victim leaves at its first `Err(Killed)`, silently.
            let _ = (|| {
                ctx.compute(0.05)?;
                note(&n, ctx, &format!("w{i} computed"));
                if i == 1 {
                    ctx.crash_host(ctx.host())?;
                }
                ctx.send(Addr::Pid(sink), vec![i])?;
                ctx.compute(0.05)
            })();
        });
    }
    sim.schedule_fault(SimTime::ZERO + secs(0.11), Fault::KillProcess(spinner));
    sim.schedule_fault(
        SimTime::ZERO + secs(0.3),
        Fault::Partition(h[0], h[2], true),
    );
    let end = sim.run_until_idle();
    let run = (seeded_stats(&sim), sim.profile(), end, notes.lock().clone());
    let lines = lines.lock().clone();
    (run, lines)
}

#[test]
fn observers_do_not_change_the_run() {
    let traced = observed_cell(true, false, false);
    let (run, lines) = &traced;
    // The trace and counters of this cell at the commit before the baton:
    // the kernel ran on a thread of its own then.
    assert_eq!(*lines, GOLDEN_CELL_TRACE, "{lines:#?}");
    assert_eq!(run.0, GOLDEN_CELL_STATS);
    // With a profile hook too: same lines, same timestamps, same order —
    // with a trigger armed that never fires.
    assert_eq!(traced, observed_cell(true, true, true));
    // And nothing but the recorded lines tells an observed run from a bare
    // one, nor an armed trigger that never fires from none.
    for (profile, armed) in [(false, false), (true, false), (false, true)] {
        assert_eq!(*run, observed_cell(false, profile, armed).0);
    }
}

const GOLDEN_CELL_TRACE: [&str; 20] = [
    "0.000000 spawn p0 spinner on h1",
    "0.000000 spawn p1 sink on h2",
    "0.000000 spawn p2 boss on h0",
    "0.000000 spawn p3 w0 on h3",
    "0.000000 spawn p4 w1 on h3",
    "0.000000 spawn p5 w2 on h3",
    "0.000000 spawn p6 w3 on h3",
    "0.010000 spawn p7 child on h1",
    "0.110000 kill p0",
    "0.130000 kill p7",
    "0.130000 crash h1",
    "0.130000 restart h1",
    "0.130000 exit p2",
    "0.200000 kill p3",
    "0.200000 kill p4",
    "0.200000 kill p5",
    "0.200000 kill p6",
    "0.200000 crash h3",
    "0.300000 partition h0-h2 cut",
    "0.700150 exit p1",
];
/// One event more than at that commit: the spinner's kill is a scheduled
/// fault now, an event of its own, where it was the boss's syscall.
const GOLDEN_CELL_STATS: &str =
    "KernelStats { events: 24, msgs_delivered: 2, msgs_dropped: 0, rsts: 0, spawned: 8, killed: 6 }";

#[test]
fn events_reach_the_hook_before_the_emitting_process_runs_on() {
    // `core::runtime`'s monitor is fed by the event hook and, directly, by
    // the processes: its stream is in order only if what a syscall emitted
    // is in the hook's hands by the time that syscall returns.
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_hosts(2);
    let seen = crate::Shared::new(Vec::<String>::new());
    let sink = seen.clone();
    sim.set_event_hook(move |_, ev| sink.with(|s| s.push(ev.to_string())));
    sim.spawn(h[1], "b", |ctx| {
        let _ = ctx.recv();
    });
    let read = cell::<Vec<String>>();
    let r = read.clone();
    sim.spawn(h[0], "a", move |ctx| {
        ctx.sleep(secs(0.1)).unwrap();
        ctx.crash_host(h[1]).unwrap();
        *r.lock() = seen.get();
    });
    sim.run_until_idle();
    let want = [
        "spawn p0 b on h1",
        "spawn p1 a on h0",
        "kill p0",
        "crash h1",
    ];
    assert_eq!(*read.lock(), want);
}

const INLINE_TRACE: [&str; 25] = [
    "0.000000 spawn p0 lone on h0",
    "0.000000 spawn p1 pair-a on h1",
    "0.000000 spawn p2 pair-b on h1",
    "0.000000 spawn p3 sink on h2",
    "0.000000 spawn p4 sender on h3",
    "0.000000 spawn p5 racer on h2",
    "0.000000 spawn p6 victim on h4",
    "0.000000 spawn p7 late on h5",
    "0.000000 spawn p8 long on h6",
    "0.000000 spawn p9 short on h6",
    "0.000000 spawn p10 exiter on h7",
    "0.000000 spawn p11 stayer on h7",
    "0.017813 exit p0",
    "0.035625 exit p1",
    "0.035625 exit p2",
    "0.040000 exit p4",
    "0.044906 exit p3",
    "0.044906 exit p5",
    "0.053906 kill p6",
    "0.053906 crash h4",
    "0.063906 exit p7",
    "0.078813 exit p9",
    "0.089531 exit p8",
    "0.097813 exit p10",
    "0.101719 exit p11",
];
const INLINE_STATS: &str =
    "KernelStats { events: 40, msgs_delivered: 1, msgs_dropped: 0, rsts: 0, spawned: 12, killed: 1 }";
const INLINE_CPU: [&str; 10] = [
    "p0 lone 7812502",
    "p1 pair-a 7812500",
    "p2 pair-b 7812500",
    "p5 racer 3906251",
    "p6 victim 3906251",
    "p7 late 3906251",
    "p8 long 15625001",
    "p9 short 3906250",
    "p10 exiter 3906250",
    "p11 stayer 7812501",
];
// The sink's delivery and the racer's completion share an instant; the
// delivery was queued first, so it runs first.
const INLINE_NOTES: [&str; 14] = [
    "13906251 lone computed",
    "17812502 lone computed",
    "27812501 pair-a computed",
    "27812501 pair-b computed",
    "35625002 pair-a computed",
    "35625002 pair-b computed",
    "44906251 sink got it",
    "44906251 racer computed",
    "63906251 late computed",
    "78812501 short computed",
    "89531252 long computed",
    "97812501 exiter computed",
    "97812501 stayer computed",
    "101718752 stayer computed",
];
const INLINE_STOPS: [&str; 2] = ["63906250 after 8 notes", "97812501 after 13 notes"];

// ---------------------------------------------------------------------
// Shared's lock discipline, checked at run time
// ---------------------------------------------------------------------

/// The message `run` panics with.
fn panic_message(run: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("the run must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

/// `file:line:` of the line of this file that ends with `marker`.
fn site_of(marker: &str) -> String {
    let src = include_str!("kernel_tests.rs");
    let at = src
        .lines()
        .position(|l| l.ends_with(marker))
        .expect("marker");
    format!("{}:{}:", file!(), at + 1)
}

/// What a run panics with whose one process runs `body` on a fresh cell.
fn holding(body: fn(&mut crate::Ctx, &crate::Shared<u32>) -> crate::SimResult<()>) -> String {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let cell = crate::Shared::new(0);
    sim.spawn(h, "holder", move |ctx| {
        let _ = body(ctx, &cell);
    });
    panic_message(|| {
        sim.run_until_idle();
    })
}

#[test]
fn a_guard_live_across_a_blocking_syscall_fails_the_run() {
    let cases = [
        holding(|ctx, c| {
            let _g = c.lock(); // held across sleep
            ctx.sleep(secs(1.0))
        }),
        holding(|ctx, c| {
            let _g = c.lock(); // held across compute
            ctx.compute(1.0)
        }),
        holding(|ctx, c| {
            let _g = c.lock(); // held across recv_timeout
            ctx.recv_timeout(secs(1.0)).map(drop)
        }),
        holding(|ctx, c| c.with(|_| ctx.sleep(secs(1.0)))), // a with that sleeps
    ];
    let want = [
        ("Sleep", "// held across sleep"),
        ("Compute", "// held across compute"),
        ("Recv", "// held across recv_timeout"),
        ("Sleep", "// a with that sleeps"),
    ];
    for (msg, (syscall, marker)) in cases.iter().zip(want) {
        let guard = format!(
            "while holding the Shared guard taken at {}",
            site_of(marker)
        );
        assert!(
            msg.contains(&format!("blocking syscall {syscall} at ")),
            "{msg}"
        );
        assert!(msg.contains(&guard), "{msg}");
    }
}

#[test]
fn a_guard_held_across_an_immediate_syscall_is_allowed() {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let cell = crate::Shared::new(0u32);
    let c = cell.clone();
    sim.spawn(h, "holder", move |ctx| {
        let mut g = c.lock();
        ctx.send(Addr::Pid(ctx.pid()), b"x".to_vec()).unwrap();
        ctx.probe(h, Port(1)).unwrap();
        *g += 1;
        drop(g);
        ctx.recv().unwrap();
        c.with(|n| *n += 1);
    });
    sim.run_until_idle();
    assert_eq!(cell.get(), 2);
}

/// A log line a process's destructor writes as it unwinds.
struct Unwinder(&'static str, crate::Shared<Vec<String>>);

impl Drop for Unwinder {
    fn drop(&mut self) {
        self.1.with(|log| log.push(format!("{} unwound", self.0)));
    }
}

/// Two victims blocked on `h[1]` — one killed by a scheduled fault, the
/// other by a host crash the killer makes from `h[0]` while it holds the
/// log's guard — and what the log reads after the run.
fn kill_and_log() -> Vec<String> {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_hosts(2);
    let log = crate::Shared::new(Vec::new());
    let mut victims = Vec::new();
    for name in ["v0", "v1"] {
        let unwinder = Unwinder(name, log.clone());
        victims.push(sim.spawn(h[1], name, move |ctx| {
            let _unwinder = unwinder;
            let _ = ctx.recv();
        }));
    }
    sim.schedule_fault(SimTime::ZERO + ms(1), Fault::KillProcess(victims[0]));
    let l = log.clone();
    sim.spawn(h[0], "killer", move |ctx| {
        ctx.sleep(ms(2)).unwrap(); // past the fault
        let mut held = l.lock();
        held.push("killer crashes h1".to_string());
        ctx.crash_host(h[1]).unwrap(); // an immediate syscall, under a guard
        held.push("killer runs on".to_string());
        drop(held);
        ctx.sleep(SimDuration::from_nanos(1)).unwrap();
        l.with(|log| log.push("killer's next turn".to_string()));
    });
    sim.run_until_idle();
    log.get()
}

#[test]
fn a_killed_process_unwinds_before_the_next_turn() {
    // Each victim's destructors run at a fixed point: before any process
    // takes its next turn, so never while the killer holds a guard.
    let want = [
        "v0 unwound",
        "killer crashes h1",
        "killer runs on",
        "v1 unwound",
        "killer's next turn",
    ];
    assert_eq!(kill_and_log(), want);
    assert_eq!(kill_and_log(), want);
}

#[test]
fn a_process_that_crashes_its_own_host_unwinds_first() {
    // The caller holds a guard in its killing syscall; its fellow victims'
    // destructors take the same cell, so they run after it has unwound.
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let log = crate::Shared::new(Vec::new());
    let unwinder = Unwinder("blocked", log.clone());
    sim.spawn(h, "blocked", move |ctx| {
        let _unwinder = unwinder;
        let _ = ctx.recv();
    });
    let unwinder = Unwinder("crasher", log.clone());
    let l = log.clone();
    sim.spawn(h, "crasher", move |ctx| -> SimResult<()> {
        let _unwinder = unwinder;
        ctx.sleep(ms(1))?;
        let _held = l.lock();
        ctx.crash_host(ctx.host())
    });
    sim.run_until_idle();
    assert_eq!(log.get(), ["crasher unwound", "blocked unwound"]);
}

#[test]
fn the_driver_holding_a_guard_cannot_run_the_kernel() {
    let mut sim = Kernel::with_seed(1);
    let cell = crate::Shared::new(0u32);
    let _g = cell.lock(); // the driver's guard
    let msg = panic_message(|| {
        sim.run_until(SimTime::ZERO + secs(1.0)); // the driver runs the kernel
    });
    let run = site_of("// the driver runs the kernel");
    let guard = site_of("// the driver's guard");
    assert!(msg.starts_with(&format!("Kernel::run_* at {run}")), "{msg}");
    assert!(msg.contains(&format!("guard taken at {guard}")), "{msg}");
}

// ---------------------------------------------------------------------
// Pooled stacks: each body starts clean; kernels on threads of their own
// ---------------------------------------------------------------------

const HYGIENE: [&str; 3] = ["hygiene-panicked", "hygiene-exited", "hygiene-killed"];

/// Three bodies end three ways: one panics under a `Shared` guard
/// (re-raised on the driver), one exits, and one is killed mid-`recv`
/// (its `unwrap` panics as a quiet kill unwind).
fn end_three_ways() {
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let shared = crate::Shared::new(0u32);
    let c = shared.clone();
    sim.spawn(h, HYGIENE[0], move |ctx| -> SimResult<()> {
        ctx.sleep(ms(1)).unwrap();
        let _held = c.lock();
        panic!("first panic");
    });
    let c = shared.clone();
    sim.spawn(h, HYGIENE[1], move |ctx| {
        ctx.sleep(ms(2)).unwrap();
        c.with(|n| *n += 1);
    });
    let victim = sim.spawn(h, HYGIENE[2], move |ctx| {
        ctx.recv().unwrap();
    });
    sim.schedule_fault(SimTime::ZERO + ms(3), Fault::KillProcess(victim));
    let msg = panic_message(|| {
        sim.run_until_idle();
    });
    assert!(
        msg.contains("(hygiene-panicked) panicked: first panic"),
        "{msg}"
    );
    sim.run_until_idle();
    assert!(sim.proc_dead(victim));
    assert_eq!(shared.get(), 1);
}

#[test]
fn pooled_stacks_run_each_next_process_clean() {
    // The next processes of those names run on those stacks. Each finds
    // its panics reported and no guard held (its `sleep` would fail the run
    // under one), and a panic of one is re-raised as before.
    end_three_ways();
    let second = cell::<Vec<(&str, bool)>>();
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    for name in HYGIENE {
        let s = second.clone();
        sim.spawn(h, name, move |ctx| {
            let quiet = crate::process::SUPPRESS_PANIC_REPORT.with(|q| q.get());
            s.lock().push((name, quiet));
            ctx.sleep(ms(1)).unwrap();
            if name == HYGIENE[0] {
                panic!("second panic");
            }
        });
    }
    let msg = panic_message(|| {
        sim.run_until_idle();
    });
    assert!(
        msg.contains("(hygiene-panicked) panicked: second panic"),
        "{msg}"
    );
    assert_eq!(sim.stats().stacks_mapped, 0, "a stack was mapped");
    let second = second.lock().clone();
    assert_eq!(second.len(), 3, "{second:?}");
    for (name, quiet) in second {
        assert!(!quiet, "{name} starts with its panics suppressed");
    }
}

#[test]
fn a_body_has_the_stack_headroom_of_a_thread() {
    // std gives a spawned thread 2 MiB; a body may touch 1 MiB and more.
    fn touch(depth: usize) -> u64 {
        let mut frame = [0u8; 64 << 10];
        frame[depth % 7] = depth as u8;
        let frame = std::hint::black_box(&mut frame);
        let below = if depth == 0 { 0 } else { touch(depth - 1) };
        below + u64::from(frame[depth % 7])
    }
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let sum = cell::<u64>();
    let s = sum.clone();
    sim.spawn(h, "deep", move |_ctx| {
        *s.lock() = touch(20); // 21 frames of 64 KiB: 1.3 MiB
    });
    sim.run_until_idle();
    assert_eq!(*sum.lock(), (0..=20).sum::<u64>());
}

#[test]
fn a_backtrace_in_a_body_ends_at_its_fiber() {
    // The walk stops at the fiber's root frame: it sees the body, and
    // nothing of the driver's stack below.
    let mut sim = Kernel::with_seed(1);
    let h = sim.add_host(HostConfig::new("a"));
    let trace = cell::<String>();
    let t = trace.clone();
    sim.spawn(h, "tracer", move |_ctx| {
        *t.lock() = std::backtrace::Backtrace::force_capture().to_string();
    });
    sim.run_until_idle();
    let trace = trace.lock().clone();
    assert!(
        trace.contains("a_backtrace_in_a_body_ends_at_its_fiber"),
        "{trace}"
    );
    assert!(!trace.contains("run_inner"), "{trace}");
}

/// One bit two OS threads raise for each other.
type Flag = Arc<std::sync::atomic::AtomicBool>;

fn flag(set: bool) -> Flag {
    Arc::new(std::sync::atomic::AtomicBool::new(set))
}

/// A cell run to 50 ms and handed back with processes still suspended in
/// it: a server that answers forever, a client of three calls, a sleeper
/// killed mid-sleep, and a holder that at 5 ms, in its turn, raises
/// `holding` and waits for `go` (the driver is inside `run_until` all that
/// while), then spawns a second client. Returns the undropped kernel and
/// what its event hook saw, then its counters.
fn cut_short(holding: &Flag, go: &Flag) -> (Kernel, Vec<String>) {
    use std::sync::atomic::Ordering::SeqCst;
    let mut sim = Kernel::with_seed(5);
    let lines = cell::<Vec<String>>();
    let l = lines.clone();
    sim.set_event_hook(move |t, ev| l.lock().push(format!("{t} {ev}")));
    let h = sim.add_hosts(2);
    let server = sim.spawn(h[1], "server", |ctx| -> SimResult<()> {
        loop {
            let req = ctx.recv()?;
            ctx.compute(1e-4)?;
            ctx.send(Addr::Pid(req.from), vec![0; 8])?;
        }
    });
    let client = move |ctx: &mut crate::Ctx| -> SimResult<()> {
        for _ in 0..3 {
            ctx.send(Addr::Pid(server), vec![0; 8])?;
            ctx.recv()?;
        }
        Ok(())
    };
    sim.spawn(h[0], "client", client);
    let sleeper = sim.spawn(h[0], "sleeper", |ctx| ctx.sleep(secs(1.0)));
    sim.schedule_fault(SimTime::ZERO + ms(2), Fault::KillProcess(sleeper));
    let (holding, go) = (holding.clone(), go.clone());
    sim.spawn(h[0], "holder", move |ctx| -> SimResult<()> {
        ctx.sleep(ms(5))?;
        holding.store(true, SeqCst);
        while !go.load(SeqCst) {
            std::thread::yield_now();
        }
        ctx.spawn(h[0], "late-client", client)?;
        Ok(())
    });
    sim.run_until(SimTime::ZERO + ms(50));
    let mut seen = lines.lock().clone();
    seen.push(seeded_stats(&sim));
    (sim, seen)
}

#[test]
fn two_kernels_on_two_threads_each_run_as_alone() {
    use std::sync::atomic::Ordering::SeqCst;
    let (kernel, solo) = cut_short(&flag(false), &flag(true));
    drop(kernel);
    assert!(solo.iter().any(|l| l.contains("late-client")), "{solo:#?}");
    // Each thread drops a kernel while the other's kernel is mid-run: its
    // holder is in its turn and waits for that drop.
    let (one_holds, one_dropped) = (flag(false), flag(false));
    let (two_holds, two_dropped) = (flag(false), flag(false));
    let one = {
        let (one_holds, one_dropped) = (one_holds.clone(), one_dropped.clone());
        let (two_holds, two_dropped) = (two_holds.clone(), two_dropped.clone());
        std::thread::spawn(move || {
            let (kernel, seen) = cut_short(&one_holds, &two_dropped);
            while !two_holds.load(SeqCst) {
                std::thread::yield_now();
            }
            drop(kernel);
            one_dropped.store(true, SeqCst);
            seen
        })
    };
    let two = std::thread::spawn(move || {
        let (kernel, first) = cut_short(&flag(false), &flag(true));
        while !one_holds.load(SeqCst) {
            std::thread::yield_now();
        }
        drop(kernel);
        two_dropped.store(true, SeqCst);
        let (kernel, second) = cut_short(&two_holds, &one_dropped);
        drop(kernel);
        [first, second]
    });
    let one = one.join().expect("thread one");
    let [first, second] = two.join().expect("thread two");
    for seen in [one, first, second] {
        assert_eq!(seen, solo);
    }
}
