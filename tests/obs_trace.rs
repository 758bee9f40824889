//! End-to-end observability regression over the assembled stack: a
//! crash-recovery run must export (a) **one causal span tree** covering
//! the whole recovery episode — failing call → recovery → naming resolve
//! → factory create → checkpoint restore → retried dispatch — and (b)
//! **byte-identical** Chrome-trace and metrics exports when re-run with
//! the same seed. This is the observability analogue of
//! `determinism_trace.rs`: traces are only trustworthy evidence if they
//! are reproducible.

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{CheckpointClient, FtProxy, FtProxyConfig, ProxyEnv};
use obs::{Obs, ProcessObs};
use optim::{worker_builder, worker_group, WorkerFtProxy, WORKER_SERVICE_TYPE};
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
        let _ = store::run_checkpoint_service(ctx, h0, Some(obs));
    });
    let obs = sink.clone();
    sim.spawn(hosts[1], "opt-worker", move |ctx| {
        let _ = optim::run_worker_server_obs(ctx, h0, Some(obs));
    });
    for h in [hosts[1], h2] {
        let obs = sink.clone();
        sim.spawn(h, "factory", move |ctx| {
            let _ = ftproxy::run_factory_obs(ctx, h0, worker_builder(), Some(obs));
        });
    }

    let obs = sink.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(secs(1.0)).unwrap(); // services boot + register
        let mut orb = Orb::new(
            ctx,
            OrbConfig {
                request_timeout: secs(0.5),
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
        let spec = optim::SolveSpec {
            problem_id: 0,
            dim: 4,
            left: None,
            right: None,
            iters: 10,
            seed: 1,
            reset: false,
        };
        for i in 0..3 {
            let r = proxy.solve(&mut env, &spec).unwrap().unwrap();
            assert_eq!(r.best_point.len(), 4);
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
    let call = pos("ft.call:solve");
    let rec = pos("ft.recover");
    let create = pos("ft.factory_create");
    let retried = pos("serve:solve");
    let restore = pos("ft.restore");
    assert!(
        call < rec && rec < create && create < retried && retried < restore,
        "{names:?}"
    );
    // Recovery goes back through the naming service…
    assert!(
        names.iter().skip(rec).any(|&n| n == "serve:resolve"),
        "{names:?}"
    );
    // …and ends with the retried dispatch on the freshly created replica,
    // which restores the checkpoint the request carries before it solves.
    assert_eq!(trace[restore].parent, Some(trace[retried].span_id));
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

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests of the cell's trace, metrics, flat profile and span list. How
/// the sink stores a span must not show in any of them.
fn export_digests(seed: u64) -> [u64; 4] {
    let sink = run_crash_recovery_cell(seed);
    [
        fnv(sink.chrome_trace_json().as_bytes()),
        fnv(sink.metrics_text().as_bytes()),
        fnv(sink.flat_profile_text(20).as_bytes()),
        fnv(format!("{:?}", sink.spans()).as_bytes()),
    ]
}

#[test]
fn pinned_exports_of_the_crash_cell() {
    let got = [export_digests(7), export_digests(9)];
    let want = [
        [
            0xed7e_e5b1_da2d_3392,
            0x9e3a_d76e_905f_7407,
            0x8ae4_d0fc_0b3a_4407,
            0xfff6_4282_22ec_9443,
        ],
        [
            0xeaf8_ec2e_f801_42a9,
            0x7b15_ed6d_a413_c06d,
            0x8ca7_ac26_a0a0_3dcb,
            0x5b18_5ff9_b003_4b83,
        ],
    ];
    assert_eq!(got, want, "the crash cell's exports moved: {got:#018x?}");
}

#[test]
fn different_seed_changes_the_trace() {
    let a = run_crash_recovery_cell(7).chrome_trace_json();
    let b = run_crash_recovery_cell(9).chrome_trace_json();
    assert_ne!(a, b);
}
