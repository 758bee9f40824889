//! End-to-end observability regression over the assembled stack: a
//! crash-recovery run must export (a) **one causal span tree** covering
//! the whole recovery episode — failing call → recovery → naming resolve
//! → factory create → checkpoint restore → retried dispatch — and (b)
//! **byte-identical** Chrome-trace and metrics exports when re-run with
//! the same seed. This is the observability analogue of
//! `determinism_trace.rs`: traces are only trustworthy evidence if they
//! are reproducible.

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{
    CheckpointClient, CheckpointService, FtProxy, FtProxyConfig, MemBackend, ProxyEnv, StoreCosts,
};
use obs::{Obs, ProcessObs};
use optim::{worker_builder, worker_group, WorkerCosts, WorkerFtProxy, WORKER_SERVICE_TYPE};
use orb::{Orb, OrbConfig};
use simnet::{HostConfig, Kernel, SimDuration};

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// Boot a minimal assembled bed — naming + checkpoint service on host 0,
/// the *sole* worker server on host 1, a factory on hosts 1 and 2 — and
/// drive an FT-proxied client through a crash of host 1. With no second
/// worker bound, recovery is forced down the full paper path: resolve,
/// factory create, checkpoint restore, retry. Host 1's factory dies with
/// it and is what the first re-acquire is handed, so the episode climbs
/// one rung of the backoff ladder — whose jitter is the one thing in this
/// cell the seed decides. Returns the shared sink.
fn run_crash_recovery_cell(seed: u64) -> Obs {
    let mut sim = Kernel::with_seed(seed);
    let sink = Obs::default();
    let hosts: Vec<_> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let (h0, h2) = (hosts[0], hosts[2]);

    let obs = sink.clone();
    sim.spawn(h0, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, Some(obs));
    });
    let obs = sink.clone();
    sim.spawn(h0, "ckpt-svc", move |ctx| {
        let service = CheckpointService::new(Box::new(MemBackend::new()), StoreCosts::default());
        let _ = ftproxy::run_checkpoint_service(ctx, h0, service, Some(obs));
    });
    let obs = sink.clone();
    sim.spawn(hosts[1], "opt-worker", move |ctx| {
        let _ = optim::run_worker_server_obs(ctx, h0, WorkerCosts::default(), Some(obs));
    });
    for h in [hosts[1], h2] {
        let obs = sink.clone();
        sim.spawn(h, "factory", move |ctx| {
            let _ = ftproxy::run_factory_obs(
                ctx,
                h0,
                worker_builder(WorkerCosts::default()),
                Some(obs),
            );
        });
    }

    let obs = sink.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap(); // services boot + register
        let mut orb = Orb::new(
            ctx,
            OrbConfig {
                request_timeout: secs(0.5),
                ..OrbConfig::default()
            },
        );
        orb.set_obs(ProcessObs::new(obs, ctx));
        let ns = NamingClient::root(h0);
        let ckpt = loop {
            match ns
                .resolve(
                    &mut orb,
                    ctx,
                    &Name::simple(ftproxy::CHECKPOINT_SERVICE_NAME),
                )
                .unwrap()
            {
                Ok(obj) => break CheckpointClient::new(obj),
                Err(_) => ctx.sleep(secs(0.05)).unwrap(),
            }
        };
        let cfg = FtProxyConfig::new(worker_group(), WORKER_SERVICE_TYPE, "worker-0");
        let mut proxy = WorkerFtProxy::new(FtProxy::new(cfg, NamingClient::root(h0), ckpt));
        let mut env = ProxyEnv { orb: &mut orb, ctx };
        for i in 0..3 {
            let n = proxy.get_solve_count(&mut env).unwrap().unwrap();
            assert_eq!(n, 0, "no solves were issued");
            if i == 1 {
                let victim = proxy.inner.current_target().unwrap().ior.host;
                env.ctx.crash_host(victim).unwrap();
            }
        }
        let stats = &proxy.inner.stats;
        assert!(stats.factory_creates >= 1, "{stats:?}");
        assert!(stats.restores >= 1, "{stats:?}");
    });
    sim.run_until_exit(driver);
    sink
}

#[test]
fn recovery_episode_is_one_causal_span_tree() {
    let sink = run_crash_recovery_cell(7);
    let spans = sink.spans();
    let recover = spans
        .iter()
        .find(|s| s.name == "ft.recover")
        .expect("recovery must be recorded");
    let mut trace: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == recover.trace_id)
        .collect();
    trace.sort_by_key(|s| (s.start_ns, s.span_id));
    let names: Vec<&str> = trace.iter().map(|s| s.name.as_str()).collect();
    let pos = |n: &str| {
        names
            .iter()
            .position(|&x| x == n)
            .unwrap_or_else(|| panic!("{n} missing from trace: {names:?}"))
    };
    // The paper's recovery sequence, in causal order, inside one trace.
    let call = pos("ft.call:_get_solve_count");
    let rec = pos("ft.recover");
    let create = pos("ft.factory_create");
    let restore = pos("ft.restore");
    assert!(call < rec && rec < create && create < restore, "{names:?}");
    // Recovery goes back through the naming service…
    assert!(
        names.iter().skip(rec).any(|&n| n == "serve:resolve"),
        "{names:?}"
    );
    // …and ends with the retried dispatch on the freshly created replica.
    assert!(
        names
            .iter()
            .skip(restore)
            .any(|&n| n == "serve:_get_solve_count"),
        "{names:?}"
    );
    // The failing client call is the root of the episode's trace, and the
    // server-side spans joined it via the propagated GIOP service context.
    assert!(trace[call].parent.is_none(), "{:?}", trace[call]);
    let serve = trace
        .iter()
        .find(|s| s.name == "serve:resolve")
        .expect("checked above");
    assert_eq!(serve.hop, 1, "{serve:?}");
    assert!(serve.parent.is_some(), "{serve:?}");
}

#[test]
fn same_seed_exports_are_byte_identical() {
    let a = run_crash_recovery_cell(7);
    let b = run_crash_recovery_cell(7);
    let (trace_a, trace_b) = (a.chrome_trace_json(), b.chrome_trace_json());
    assert!(!trace_a.is_empty(), "trace export is empty");
    assert_eq!(trace_a.as_bytes(), trace_b.as_bytes());
    let (metrics_a, metrics_b) = (a.metrics_text(), b.metrics_text());
    assert!(
        metrics_a.contains("ft.restores") && metrics_a.contains("orb.invoke_ns"),
        "{metrics_a}"
    );
    assert_eq!(metrics_a.as_bytes(), metrics_b.as_bytes());
}

#[test]
fn different_seed_changes_the_trace() {
    let a = run_crash_recovery_cell(7).chrome_trace_json();
    let b = run_crash_recovery_cell(9).chrome_trace_json();
    assert_ne!(a, b);
}
