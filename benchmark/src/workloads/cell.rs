//! The harness's own driver for one experiment cell of the paper's
//! optimisation scenario, shared by `fig3_load` and `table1_ft`.
//!
//! It does what `corba_runtime::run_experiment` does — `Cluster::build`,
//! seed-chosen background load, `optim::run_manager` on the infra host —
//! but in two phases, so set-up and the measured phase are timed apart,
//! and with the profile hook installed in the traced pass. `fig3_load`
//! cross-checks every cell against `run_experiment` itself, so this
//! driver cannot drift from the published Figure 3 path unnoticed.

use corba_runtime::{Cluster, ClusterConfig, ExperimentSpec};
use optim::{run_manager, ManagerConfig, RunReport};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{HostId, Shared, SimDuration, SimTime};

use super::{LayerSample, PhaseTime, RepCx};
use crate::trace::Stopwatch;

/// What one cell produced.
pub struct CellOutcome {
    /// The manager's report, or why there is none.
    pub report: Result<RunReport, String>,
    /// The NOW hosts that carried background load.
    pub loaded: Vec<u32>,
    /// Virtual duration of every `manager.eval` span (one outer objective
    /// evaluation: a parallel fan-out of one `solve` per worker), in
    /// issue order.
    pub eval_ns: Vec<u64>,
}

/// Run one cell. `lan`, when given, replaces the one-way latency of every
/// link between two hosts (see [`super::lan_latency`]). CPU and wall time
/// are added to `time`, per-layer raw material to `layers`.
pub fn run_cell(
    spec: &ExperimentSpec,
    lan: Option<SimDuration>,
    cx: &mut RepCx<'_>,
    time: &mut PhaseTime,
    layers: &mut LayerSample,
) -> CellOutcome {
    assert!(
        spec.crash.is_none() && spec.store_crash.is_none() && spec.monitor.is_none(),
        "the benchmark cells are fault-free and unmonitored"
    );
    let cell_start = Stopwatch::start();
    let mut cluster = cx.tracer.span("Cluster::build", "core", || {
        Cluster::build(ClusterConfig {
            hosts: spec.now_hosts + 1, // + infra host
            naming: spec.naming.clone(),
            worker_hosts: (1..=spec.available_hosts).collect(),
            seed: spec.seed,
            policy: spec.policy,
            store_replicas: spec.store_replicas.max(1),
            ..ClusterConfig::default()
        })
    });
    cx.instrument(&mut cluster.kernel);
    if let Some(latency) = lan {
        for (i, &a) in cluster.hosts.iter().enumerate() {
            for &b in &cluster.hosts[i + 1..] {
                cluster.kernel.set_link_latency(a, b, latency);
            }
        }
    }

    // Background load on a seed-chosen subset of the NOW, starting half
    // way through Winner's warm-up — the same draw as `run_experiment`.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9));
    let mut now_hosts: Vec<HostId> = cluster.hosts[1..].to_vec();
    now_hosts.shuffle(&mut rng);
    let loaded: Vec<HostId> = now_hosts[..spec.loaded_hosts].to_vec();
    let load_start = SimTime::ZERO + SimDuration::from_secs_f64(spec.warmup.as_secs_f64() * 0.5);
    for &h in &loaded {
        cluster.add_background_load_at(h, load_start);
    }

    let report_cell: Shared<Option<Result<RunReport, String>>> = Shared::new(None);
    let out = report_cell.clone();
    let mcfg = ManagerConfig {
        n: spec.n,
        workers: spec.workers,
        worker_iters: spec.worker_iters,
        manager_iters: spec.manager_iters,
        seed: spec.seed,
        request_timeout: spec.request_timeout,
        ft: spec.ft.clone(),
        obs: Some(cluster.obs.clone()),
        ..ManagerConfig::new(spec.n, spec.workers, cluster.infra)
    };
    let started_at = SimTime::ZERO + spec.warmup;
    let manager = cluster.kernel.spawn_at(
        started_at,
        cluster.infra,
        "manager",
        Box::new(move |ctx: &mut simnet::Ctx| match run_manager(ctx, &mcfg) {
            Ok(Ok(report)) => {
                out.put(Ok(report));
            }
            Ok(Err(e)) => {
                out.put(Err(e.to_string()));
            }
            Err(_) => {} // killed: outcome stays empty
        }),
    );
    cx.run_phases(
        &mut cluster.kernel,
        started_at,
        manager,
        cell_start,
        time,
        layers,
    );

    let eval_ns = cluster
        .obs
        .spans_named("manager.eval")
        .iter()
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    layers.sinks.push(cluster.obs.clone());
    CellOutcome {
        report: report_cell
            .take()
            .unwrap_or_else(|| Err("manager was killed before reporting".into())),
        loaded: loaded.iter().map(|h| h.0).collect(),
        eval_ns,
    }
}
