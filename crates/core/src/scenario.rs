//! Turn-key experiment scenarios: the parameterized runs behind the
//! paper's Figure 3 and Table 1.
//!
//! A scenario boots a cluster (one infra host plus the NOW of worker
//! hosts), applies background load to a seed-chosen subset of the NOW,
//! lets Winner gather load reports, then runs the distributed optimization
//! manager and reports its virtual runtime — the metric on Figure 3's
//! y-axis.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use optim::{run_manager, FtSettings, ManagerConfig, RunReport};
use simnet::{SimDuration, SimTime};

use crate::runtime::{Cluster, ClusterConfig, NamingMode, WinnerPolicy};

/// One experiment cell.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Full problem dimension (30 or 100 in the paper).
    pub n: usize,
    /// Number of workers (3 or 7 in the paper).
    pub workers: usize,
    /// Complex Box iterations per worker call.
    pub worker_iters: u64,
    /// Outer manager iterations.
    pub manager_iters: u64,
    /// Size of the NOW (worker hosts; the paper used 10).
    pub now_hosts: usize,
    /// How many of the NOW hosts run worker services ("6 workstations
    /// were available" in the 30-dim scenario).
    pub available_hosts: usize,
    /// How many NOW hosts carry background load (Figure 3's x-axis).
    pub loaded_hosts: usize,
    /// Naming service flavour (Figure 3's two curve families).
    pub naming: NamingMode,
    /// Fault-tolerance proxies (Table 1's comparison), or plain stubs.
    pub ft: Option<FtSettings>,
    /// Seed (drives load placement, placement ties, and the optimizer).
    pub seed: u64,
    /// Time given to Winner to gather load data before the run starts.
    pub warmup: SimDuration,
    /// Winner selection policy (ignored in plain mode).
    pub policy: WinnerPolicy,
    /// ORB request timeout for the manager's calls. Failure detection on
    /// a crashed host is timeout-based (the paper's COMM_FAILURE path), so
    /// this bounds recovery latency.
    pub request_timeout: SimDuration,
    /// Optional fault injection: crash a NOW host mid-run.
    pub crash: Option<CrashPlan>,
    /// Checkpoint-store replication factor: 1 = the paper's single store
    /// on the infra host; ≥ 2 = a replicated `ldft-store` deployment.
    pub store_replicas: usize,
    /// Optional fault injection: crash a checkpoint-store host mid-run.
    pub store_crash: Option<StoreCrashPlan>,
    /// Live monitoring: run the online doctor + flight recorder with these
    /// thresholds over the events the run emits
    /// ([`ExperimentOutcome::monitor`] carries the finalized handle). The
    /// run itself — `report`, `started_at` — is the unmonitored one.
    pub monitor: Option<monitor::MonitorConfig>,
}

/// A scheduled mid-run crash of a checkpoint-store host.
#[derive(Clone, Copy, Debug)]
pub struct StoreCrashPlan {
    /// Delay after the manager starts.
    pub after: SimDuration,
    /// Index into the store deployment's hosts ([`Cluster::store_hosts`]).
    /// Index 0 is the member a plain group-resolve returns first — the
    /// replica an FT manager's checkpoint client is bound to ("the
    /// primary"). With `store_replicas: 1` the single store is placed on
    /// its own (non-infra) host for this scenario, so the crash isolates
    /// store loss from naming/manager loss — the single-point-of-failure
    /// baseline.
    pub store_host_index: usize,
}

/// A scheduled mid-run host crash.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// Delay after the manager starts.
    pub after: SimDuration,
    /// Index into the NOW hosts (0-based; host `index + 1` in the
    /// cluster, since host 0 is infra).
    pub now_host_index: usize,
    /// Restart the host this long after the crash (None = stays down).
    pub restart_after: Option<SimDuration>,
}

impl ExperimentSpec {
    /// The paper's 30-dimensional scenario: 3 workers (sub-dims 10/9/9),
    /// 6 available hosts.
    pub fn dim30(naming: NamingMode) -> Self {
        ExperimentSpec {
            n: 30,
            workers: 3,
            worker_iters: 20_000,
            manager_iters: 10,
            now_hosts: 10,
            available_hosts: 6,
            loaded_hosts: 0,
            naming,
            ft: None,
            seed: 1,
            warmup: SimDuration::from_secs(4),
            policy: WinnerPolicy::BestPerformance,
            request_timeout: SimDuration::from_secs(60),
            crash: None,
            store_replicas: 1,
            store_crash: None,
            monitor: None,
        }
    }

    /// The paper's 100-dimensional scenario: 7 workers, all 10 hosts.
    pub fn dim100(naming: NamingMode) -> Self {
        ExperimentSpec {
            n: 100,
            workers: 7,
            worker_iters: 20_000,
            manager_iters: 10,
            now_hosts: 10,
            available_hosts: 10,
            loaded_hosts: 0,
            naming,
            ft: None,
            seed: 1,
            warmup: SimDuration::from_secs(4),
            policy: WinnerPolicy::BestPerformance,
            request_timeout: SimDuration::from_secs(60),
            crash: None,
            store_replicas: 1,
            store_crash: None,
            monitor: None,
        }
    }

    /// Set the number of loaded hosts (Figure 3's x-axis).
    pub fn loaded(mut self, k: usize) -> Self {
        self.loaded_hosts = k;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The outcome of one scenario run.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// The manager's run report; `report.elapsed` is Figure 3's y-value.
    pub report: RunReport,
    /// Which NOW hosts carried background load.
    pub loaded: Vec<u32>,
    /// Virtual instant the manager started.
    pub started_at: SimTime,
    /// The cluster-wide observability sink: spans and metrics recorded by
    /// every process in the run (export with [`obs::Obs::chrome_trace_json`]
    /// / [`obs::Obs::metrics_text`]).
    pub obs: obs::Obs,
    /// The live-monitoring handle, already finalized, when
    /// [`ExperimentSpec::monitor`] was set. Render the doctor report
    /// with [`monitor::MonitorHandle::report`].
    pub monitor: Option<monitor::MonitorHandle>,
}

/// Run one experiment cell to completion.
///
/// # Errors
/// If the distributed manager itself fails (an unrecoverable CORBA
/// exception) or is killed before reporting — either way the cell
/// produced no valid measurement.
pub fn run_experiment(spec: &ExperimentSpec) -> Result<ExperimentOutcome, String> {
    assert!(spec.available_hosts <= spec.now_hosts);
    assert!(spec.loaded_hosts <= spec.now_hosts);
    // A store-crash scenario needs the store off the infra host (which
    // also carries naming and the manager): place even a single store on
    // the last NOW host then, so the crash isolates store loss.
    let store_hosts: Vec<usize> = if spec.store_crash.is_some() && spec.store_replicas <= 1 {
        vec![spec.now_hosts]
    } else {
        Vec::new()
    };
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: spec.now_hosts + 1, // + infra host
        naming: spec.naming.clone(),
        worker_hosts: (1..=spec.available_hosts).collect(),
        seed: spec.seed,
        policy: spec.policy,
        store_replicas: spec.store_replicas.max(1),
        store_hosts,
        monitor: spec.monitor.clone(),
        ..ClusterConfig::default()
    });

    // Background load on a seed-chosen subset of the NOW, as the paper
    // "generated a background load on 0, 2, 4, 6 or 8 hosts". A plain
    // naming service is oblivious to the choice; the Winner one avoids it.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9));
    let mut now_hosts: Vec<simnet::HostId> = cluster.hosts[1..].to_vec();
    now_hosts.shuffle(&mut rng);
    let loaded: Vec<simnet::HostId> = now_hosts[..spec.loaded_hosts].to_vec();
    // Load starts after service registration (t=0) but well before the
    // manager (warmup), so placement happens under load — as in the paper
    // — without skewing the boot-time registration order.
    let load_start = SimTime::ZERO + SimDuration::from_secs_f64(spec.warmup.as_secs_f64() * 0.5);
    for &h in &loaded {
        cluster.add_background_load_at(h, load_start);
    }

    // The manager runs on the infra host (its own CPU use is negligible:
    // it spends its time waiting on workers).
    let report_cell: simnet::Shared<Option<Result<RunReport, String>>> = simnet::Shared::new(None);
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
        monitor: cluster.monitor.clone(),
        ..ManagerConfig::new(spec.n, spec.workers, cluster.infra)
    };
    let started_at = SimTime::ZERO + spec.warmup;
    if let Some(crash) = spec.crash {
        let victim = cluster.hosts[crash.now_host_index + 1];
        let crash_at = started_at + crash.after;
        cluster
            .kernel
            .schedule_fault(crash_at, simnet::Fault::CrashHost(victim));
        if let Some(d) = crash.restart_after {
            cluster
                .kernel
                .schedule_fault(crash_at + d, simnet::Fault::RestartHost(victim));
        }
    }
    if let Some(sc) = spec.store_crash {
        let victim = cluster.store_hosts[sc.store_host_index];
        cluster
            .kernel
            .schedule_fault(started_at + sc.after, simnet::Fault::CrashHost(victim));
    }
    let infra = cluster.infra;
    let manager = cluster.kernel.spawn_at(
        started_at,
        infra,
        "manager",
        Box::new(move |ctx: &mut simnet::Ctx| {
            match run_manager(ctx, &mcfg) {
                Ok(Ok(report)) => {
                    out.put(Ok(report));
                }
                Ok(Err(e)) => {
                    out.put(Err(e.to_string()));
                }
                Err(_) => {} // killed: outcome stays empty
            }
        }),
    );
    cluster.kernel.run_until_exit(manager);
    if let Some(handle) = &cluster.monitor {
        handle.finalize(cluster.kernel.now());
    }
    crate::runtime::publish_kernel_profile(&cluster.kernel, &cluster.obs);
    let report = match report_cell.take() {
        Some(Ok(report)) => report,
        Some(Err(e)) => return Err(format!("experiment manager failed: {e}")),
        None => return Err("experiment manager was killed before reporting".into()),
    };
    Ok(ExperimentOutcome {
        report,
        loaded: loaded.iter().map(|h| h.0).collect(),
        started_at,
        obs: cluster.obs.clone(),
        monitor: cluster.monitor.clone(),
    })
}

/// Run a cell across several seeds and average the runtime (seconds).
/// Returns `(mean_runtime, runs)`.
///
/// # Errors
/// If any seed's run fails (see [`run_experiment`]).
pub fn averaged_runtime(
    spec: &ExperimentSpec,
    seeds: &[u64],
) -> Result<(f64, Vec<ExperimentOutcome>), String> {
    assert!(!seeds.is_empty());
    let mut runs = Vec::with_capacity(seeds.len());
    let mut total = 0.0;
    for &seed in seeds {
        let outcome = run_experiment(&spec.clone().seed(seed))?;
        total += outcome.report.elapsed.as_secs_f64();
        runs.push(outcome);
    }
    Ok((total / seeds.len() as f64, runs))
}
