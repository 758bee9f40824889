//! Determinism regression: a Figure-3-style experiment (Winner naming,
//! background load, a mid-run host crash + restart, distributed manager)
//! must produce a **byte-identical kernel event trace** when re-run with
//! the same seed — not merely the same summary numbers. This is the
//! property every result in the paper reproduction rests on, and the
//! property the sim crates' determinism lints (D1, D2 and D4 in
//! `clippy.toml`, denied at each crate root) and the seeded-only `rand`
//! shim (D3) exist to protect.

use corba_runtime::{Cluster, ClusterConfig, NamingMode};
use optim::{run_manager, FtSettings, ManagerConfig};
use simnet::{Fault, SimDuration, SimTime};

/// Run one small Figure-3-style cell and return the full kernel trace.
fn traced_run(seed: u64) -> String {
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: 5,
        seed,
        naming: NamingMode::Winner,
        ..ClusterConfig::default()
    });
    let trace: simnet::Shared<String> = simnet::Shared::new(String::new());
    let sink = trace.clone();
    cluster.kernel.set_event_hook(move |t, ev| {
        sink.with(|s| {
            use std::fmt::Write;
            let _ = writeln!(s, "{:.9} {ev}", t.as_secs_f64());
        });
    });

    // Background load on one host, as in the loaded-hosts sweep.
    let loaded = cluster.hosts[2];
    cluster.add_background_load_at(loaded, SimTime::ZERO + SimDuration::from_secs(2));

    // Crash a worker host mid-run and bring it back (exercises the kill /
    // crash / restart trace events and the FT recovery path). The manager
    // starts at t=4s, so both faults land inside its run.
    let victim = cluster.hosts[3];
    let crash_at = SimTime::ZERO + SimDuration::from_millis(4_050);
    cluster
        .kernel
        .schedule_fault(crash_at, Fault::CrashHost(victim));
    cluster.kernel.schedule_fault(
        crash_at + SimDuration::from_millis(50),
        Fault::RestartHost(victim),
    );

    let infra = cluster.infra;
    let mcfg = ManagerConfig {
        worker_iters: 2_000,
        manager_iters: 3,
        seed,
        ft: Some(FtSettings::default()),
        request_timeout: SimDuration::from_secs(5),
        ..ManagerConfig::new(12, 2, infra)
    };
    let manager = cluster.kernel.spawn_at(
        SimTime::ZERO + SimDuration::from_secs(4),
        infra,
        "manager",
        Box::new(move |ctx: &mut simnet::Ctx| {
            let _ = run_manager(ctx, &mcfg);
        }),
    );
    cluster.kernel.run_until_exit(manager);
    trace.get()
}

#[test]
fn same_seed_produces_byte_identical_trace() {
    let a = traced_run(11);
    let b = traced_run(11);
    assert!(!a.is_empty(), "tracer captured nothing");
    assert!(
        a.contains("spawn") && a.contains("crash") && a.contains("restart"),
        "trace is missing expected event kinds:\n{a}"
    );
    // Byte-identical, not just equal-length or same-summary.
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn different_seed_changes_the_trace() {
    assert_ne!(traced_run(11), traced_run(13));
}
