//! Cluster boot: wires the whole runtime together on a simulated NOW.
//!
//! One call to [`Cluster::build`] reproduces the paper's deployment:
//!
//! * the **Winner** system manager and per-host node managers (when the
//!   load-distributing naming mode is selected),
//! * the **naming service** (plain or Winner-integrated) on the infra
//!   host's port 2809,
//! * the **checkpoint service**, registered as `"CheckpointService"`,
//! * a **service factory** per worker host (able to instantiate
//!   optimization workers), and
//! * one **optimization worker** server per worker host, registered in
//!   the `Workers` group.

use ftproxy::run_factory_obs;
use obs::Obs;
use optim::{run_worker_server_obs, worker_builder};
use orb::Ior;
use simnet::{Ctx, HostConfig, HostId, Kernel, KernelConfig, Shared, SimDuration};
use winner::{run_node_manager, run_system_manager_obs, NodeManagerConfig, SelectionPolicy};

/// Which naming service to deploy — the paper's comparison axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NamingMode {
    /// The unmodified, load-oblivious naming service (round-robin over
    /// group members).
    Plain,
    /// The paper's contribution: resolution driven by Winner load data.
    Winner,
}

/// Which selection policy the Winner system manager runs (the policy
/// ablation's axis). [`WinnerPolicy::BestPerformance`] is the paper's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WinnerPolicy {
    /// Maximize expected delivered speed (the paper's policy).
    BestPerformance,
    /// Minimize effective load, ignoring speed.
    LeastLoaded,
    /// Random, weighted by the performance score.
    WeightedRandom,
    /// Uniform random (load-oblivious, but still liveness-aware).
    Uniform,
}

impl WinnerPolicy {
    fn instantiate(self, seed: u64) -> Box<dyn SelectionPolicy> {
        match self {
            WinnerPolicy::BestPerformance => Box::new(winner::BestPerformance),
            WinnerPolicy::LeastLoaded => Box::new(winner::LeastLoaded),
            WinnerPolicy::WeightedRandom => Box::new(winner::WeightedRandom::new(seed)),
            WinnerPolicy::Uniform => Box::new(winner::Uniform::new(seed)),
        }
    }
}

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Total number of workstations (the paper's NOW had 10).
    pub hosts: usize,
    /// Per-host CPU speeds; length 1 = homogeneous.
    pub speeds: Vec<f64>,
    /// Simulation seed.
    pub seed: u64,
    /// Naming service flavour.
    pub naming: NamingMode,
    /// Hosts (by index, excluding 0) that run worker servers + factories.
    /// Empty = all hosts except the infra host. This models the paper's
    /// "6 workstations were available" restriction.
    pub worker_hosts: Vec<usize>,
    /// Checkpoint store replication factor. 1 = the paper's deployment
    /// (one service on the infra host, plain `rebind`); ≥ 2 = that many
    /// [`store::StoreReplica`]s behind the same name on distinct hosts,
    /// with quorum replication and a store-side failure detector.
    pub store_replicas: usize,
    /// Hosts (by index) carrying store replicas when `store_replicas ≥ 2`.
    /// Empty = automatic placement on the highest-numbered hosts (they are
    /// never the infra host, and load is typically spread from the front).
    pub store_hosts: Vec<usize>,
    /// Winner selection policy.
    pub policy: WinnerPolicy,
    /// Live monitoring: when set, every subsystem and the kernel emit
    /// their events into [`Cluster::monitor`], where the online doctor +
    /// flight recorder run with these thresholds. The run itself is the
    /// one an unmonitored cluster executes: no process or message is added.
    pub monitor: Option<monitor::MonitorConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: 10,
            speeds: vec![1.0],
            seed: 0xBEEF,
            naming: NamingMode::Winner,
            worker_hosts: Vec::new(),
            store_replicas: 1,
            store_hosts: Vec::new(),
            policy: WinnerPolicy::BestPerformance,
            monitor: None,
        }
    }
}

/// A booted cluster: the kernel plus the handles experiments need.
pub struct Cluster {
    /// The simulation kernel.
    pub kernel: Kernel,
    /// All hosts; `hosts[0]` is the infrastructure host.
    pub hosts: Vec<HostId>,
    /// The infrastructure host (naming, Winner, checkpoint service).
    pub infra: HostId,
    /// Hosts running worker servers and factories.
    pub worker_hosts: Vec<HostId>,
    /// Hosts carrying checkpoint-store replicas. `[infra]` in the
    /// single-store deployment; the replicated deployment's hosts (in
    /// placement order, so `store_hosts[0]` is the member a plain
    /// group-resolve returns first — "the primary") otherwise.
    pub store_hosts: Vec<HostId>,
    /// Stringified IOR of the Winner system manager (None in plain mode
    /// until published; always None when Winner is not deployed).
    pub sysmgr_ior: Shared<Option<String>>,
    /// The cluster-wide observability sink: every infrastructure process
    /// records its spans and metrics here. Hand it to managers
    /// ([`optim::ManagerConfig::obs`]) to get end-to-end causal traces.
    pub obs: Obs,
    /// Live-monitoring handle (doctor + flight recorder state) when
    /// [`ClusterConfig::monitor`] was set. Hand a clone to managers
    /// ([`optim::ManagerConfig::monitor`]) so their FT proxies emit too,
    /// and call [`monitor::MonitorHandle::finalize`] when the run ends.
    pub monitor: Option<monitor::MonitorHandle>,
    /// The configuration the cluster was built with.
    pub config: ClusterConfig,
}

impl Cluster {
    /// Boot a cluster per the configuration. Infrastructure lives on host
    /// 0; worker services live on `worker_hosts` (default: all others).
    pub fn build(config: ClusterConfig) -> Cluster {
        assert!(config.hosts >= 2, "need an infra host and ≥1 worker host");
        let mut kernel = Kernel::new(KernelConfig {
            seed: config.seed,
            ..KernelConfig::default()
        });
        let hosts: Vec<HostId> = (0..config.hosts)
            .map(|i| {
                let speed = config.speeds[i % config.speeds.len().max(1)];
                kernel.add_host(HostConfig::new(format!("ws{i}")).speed(speed))
            })
            .collect();
        let infra = hosts[0];
        let worker_hosts: Vec<HostId> = if config.worker_hosts.is_empty() {
            hosts[1..].to_vec()
        } else {
            config
                .worker_hosts
                .iter()
                .map(|&i| {
                    assert!(i != 0 && i < config.hosts, "bad worker host index {i}");
                    hosts[i]
                })
                .collect()
        };

        let sysmgr_ior: Shared<Option<String>> = Shared::new(None);
        let obs = Obs::default();

        // ---- live monitoring (opt-in) ----------------------------------
        // The kernel hook must be installed before the first spawn so the
        // boot itself (proc-spawn events) is on the record.
        let monitor_handle = config
            .monitor
            .clone()
            .map(|mcfg| monitor::MonitorHandle::new(mcfg, Some(obs.clone())));
        if let Some(handle) = monitor_handle.clone() {
            kernel.set_event_hook(move |now, ev| handle.on_kernel_event(now, ev));
        }

        // ---- Winner (only with the load-distributing naming service) ---
        if config.naming == NamingMode::Winner {
            let publish = sysmgr_ior.clone();
            let policy_kind = config.policy;
            let seed = config.seed;
            let sink = obs.clone();
            let monitor = monitor_handle.clone();
            kernel.spawn(infra, "winner-sysmgr", move |ctx| {
                let policy = policy_kind.instantiate(seed);
                run_system_manager_obs(ctx, monitor, policy, Some(sink), |ior| {
                    publish.put(ior.stringify());
                })
            });
            for &h in &hosts {
                let cell = sysmgr_ior.clone();
                let monitor = monitor_handle.clone();
                kernel.spawn(h, format!("winner-nm-{h}"), move |ctx| {
                    let mut cfg = NodeManagerConfig::new(wait_for_ior(ctx, &cell)?);
                    cfg.monitor = monitor;
                    run_node_manager(ctx, cfg)
                });
            }
        }

        // ---- naming service --------------------------------------------
        {
            let cell = sysmgr_ior.clone();
            let winner_mode = config.naming == NamingMode::Winner;
            let sink = obs.clone();
            kernel.spawn(infra, "naming", move |ctx| {
                let mode = if winner_mode {
                    cosnaming::LbMode::Winner {
                        system_manager: wait_for_ior(ctx, &cell)?,
                    }
                } else {
                    cosnaming::LbMode::Plain
                };
                cosnaming::run_naming_service_obs(ctx, mode, Some(sink))
            });
        }

        // ---- checkpoint service ----------------------------------------
        // Replicated deployment for ≥ 2 replicas, and for a single replica
        // explicitly placed off the infra host (store-crash baselines).
        let replicated = config.store_replicas >= 2 || !config.store_hosts.is_empty();
        let store_hosts: Vec<HostId> = if replicated {
            let chosen: Vec<HostId> = if config.store_hosts.is_empty() {
                // Automatic placement: the highest-numbered hosts. They are
                // never the infra host, and scenario code places background
                // load and workers from the front of the host list.
                let n = config.store_replicas.min(config.hosts - 1);
                (config.hosts - n..config.hosts).map(|i| hosts[i]).collect()
            } else {
                config
                    .store_hosts
                    .iter()
                    .map(|&i| {
                        assert!(i != 0 && i < config.hosts, "bad store host index {i}");
                        hosts[i]
                    })
                    .collect()
            };
            let scfg = store::StoreConfig {
                monitor: monitor_handle.clone(),
                ..store::StoreConfig::default()
            };
            store::spawn_replicated_store(&mut kernel, &chosen, infra, scfg, Some(obs.clone()));
            chosen
        } else {
            // The paper's deployment: one replica alone, with no monitor
            // and no detector.
            let sink = obs.clone();
            kernel.spawn(infra, "checkpoint-service", move |ctx| {
                let cfg = store::StoreConfig::default();
                store::run_checkpoint_service(ctx, infra, cfg, Some(sink))
            });
            vec![infra]
        };

        // ---- factories + workers on the worker hosts -------------------
        for &h in &worker_hosts {
            let sink = obs.clone();
            kernel.spawn(h, format!("factory-{h}"), move |ctx| {
                run_factory_obs(ctx, infra, worker_builder(), Some(sink))
            });
            let sink = obs.clone();
            kernel.spawn(h, format!("opt-worker-{h}"), move |ctx| {
                run_worker_server_obs(ctx, infra, Some(sink))
            });
        }

        Cluster {
            kernel,
            hosts,
            infra,
            worker_hosts,
            store_hosts,
            sysmgr_ior,
            obs,
            monitor: monitor_handle,
            config,
        }
    }

    /// Add a background load process (an infinite CPU spinner) on `host`.
    pub fn add_background_load(&mut self, host: HostId) {
        let now = self.kernel.now();
        self.add_background_load_at(host, now);
    }

    /// Add a background load process starting at absolute time `at`.
    pub fn add_background_load_at(&mut self, host: HostId, at: simnet::SimTime) {
        self.kernel.spawn_at(
            at,
            host,
            format!("bgload-{host}"),
            Box::new(|ctx: &mut Ctx| match ctx.spin_forever() {
                // Only a kill ends the spin.
                Ok(()) | Err(simnet::Killed) => {}
            }),
        );
    }
}

/// Wait (with polling) until the Winner system manager has published its
/// IOR.
fn wait_for_ior(ctx: &mut Ctx, cell: &Shared<Option<String>>) -> Result<Ior, simnet::Killed> {
    loop {
        if let Some(s) = cell.get() {
            return match Ior::destringify(&s) {
                Ok(ior) => Ok(ior),
                Err(e) => {
                    // The cell is only written with `Ior::stringify` output;
                    // an unparsable value means the publisher is broken, so
                    // stop this process rather than poll forever.
                    eprintln!("[core] published system-manager IOR is invalid: {e}");
                    debug_assert!(false, "published IOR failed to parse");
                    Err(simnet::Killed)
                }
            };
        }
        ctx.sleep(SimDuration::from_millis(5))?;
    }
}

/// Publish the kernel's deterministic run profile into the observability
/// sink: queue-depth peaks as `sched.*` gauges and per-process virtual CPU
/// attribution as `cpu.proc.<name>` counters (nanoseconds, summed over
/// same-named processes — all `worker` servers fold into one series).
///
/// Everything published is a pure function of the seed, so the metrics
/// exports stay byte-deterministic — which is exactly why the *wall-clock*
/// side of profiling (the [`simnet::ProfileMark`] consumer) is kept out of
/// the sink.
pub fn publish_kernel_profile(kernel: &Kernel, obs: &Obs) {
    let profile = kernel.profile();
    obs.gauge_set("sched.runnable_peak", profile.runnable_peak as f64);
    obs.gauge_set("sched.event_queue_peak", profile.event_queue_peak as f64);
    obs.gauge_set("sched.mailbox_peak", profile.mailbox_peak as f64);
    for c in &profile.cpu_by_proc {
        obs.counter_add(&format!("cpu.proc.{}", c.name), c.cpu_ns);
    }
}
