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
//!
//! Every boot process is one entry of a per-host service list. Under a
//! [`ClusterConfig::chaos`] workload the same list reboots a restarted
//! host: hosts boot empty, so whatever the list runs there is run again.

use std::sync::Arc;

use ftproxy::run_factory_obs;
use obs::Obs;
use optim::{run_worker_server_obs, worker_builder};
use orb::Ior;
use simnet::{
    Ctx, Fault, HostConfig, HostId, Kernel, KernelConfig, Shared, SimDuration, SimResult,
};
use store::{run_store_detector, run_store_replica, ChaosConfig, ChaosPlan};
use winner::{run_node_manager, run_system_manager_obs, SelectionPolicy};

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
    /// Fault workload: when set, a [`ChaosPlan`] of this config over every
    /// host but the infra host is scheduled, each restarted host reboots
    /// its services 100 ms after its `RestartHost`, and the store detector
    /// out-waits the plan's longest group cut.
    pub chaos: Option<ChaosConfig>,
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
            chaos: None,
        }
    }
}

/// A booted cluster: the kernel plus the handles experiments need.
pub struct Cluster {
    /// The simulation kernel. Its one event hook is taken: every kernel
    /// event goes to [`Cluster::obs`]'s event log, so read them there.
    /// Installing another hook replaces that one and leaves the log, and
    /// any [`monitor::diagnose`] over it, blind to hosts and processes.
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
    /// IOR of the Winner system manager (None until published; always
    /// None when Winner is not deployed).
    pub sysmgr_ior: Shared<Option<Ior>>,
    /// The cluster-wide observability sink: every infrastructure process
    /// records its spans, metrics and events here, and the kernel its
    /// lifecycle and fault events. Hand it to managers
    /// ([`optim::ManagerConfig::obs`]) to get end-to-end causal traces and
    /// the FT proxies' events; [`monitor::diagnose`] reads the event log.
    pub obs: Obs,
    /// The fault schedule [`ClusterConfig::chaos`] generated (empty without
    /// one).
    pub chaos_plan: ChaosPlan,
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

        let sysmgr_ior: Shared<Option<Ior>> = Shared::new(None);
        let obs = Obs::default();

        // The kernel's events go to the sink's event log. The hook must be
        // installed before the first spawn so the boot itself (proc-spawn
        // events) is on the record.
        {
            let sink = obs.clone();
            kernel.set_event_hook(move |now, ev| sink.kernel_event(now, ev));
        }
        let chaos_plan = config
            .chaos
            .as_ref()
            .map(|cfg| ChaosPlan::generate(cfg, &hosts[1..]))
            .unwrap_or_default();

        let mut services: Vec<Service> = Vec::new();

        // ---- Winner (only with the load-distributing naming service) ---
        if config.naming == NamingMode::Winner {
            let publish = sysmgr_ior.clone();
            let policy_kind = config.policy;
            let seed = config.seed;
            let sink = obs.clone();
            services.push(Service::new(infra, "winner-sysmgr", move |ctx| {
                let publish = publish.clone();
                let policy = policy_kind.instantiate(seed);
                run_system_manager_obs(ctx, policy, Some(sink.clone()), |ior| {
                    publish.put(ior);
                })
            }));
            for &h in &hosts {
                let (cell, sink) = (sysmgr_ior.clone(), obs.clone());
                services.push(Service::new(h, format!("winner-nm-{h}"), move |ctx| {
                    let system_manager = wait_for_ior(ctx, &cell)?;
                    run_node_manager(ctx, system_manager, Some(sink.clone()))
                }));
            }
        }

        // ---- naming service --------------------------------------------
        {
            let cell = sysmgr_ior.clone();
            let winner_mode = config.naming == NamingMode::Winner;
            let sink = obs.clone();
            services.push(Service::new(infra, "naming", move |ctx| {
                let mode = if winner_mode {
                    cosnaming::LbMode::Winner {
                        system_manager: wait_for_ior(ctx, &cell)?,
                    }
                } else {
                    cosnaming::LbMode::Plain
                };
                cosnaming::run_naming_service_obs(ctx, mode, Some(sink.clone()))
            }));
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
            let mut scfg = store::StoreConfig::default();
            scfg.suspect_after = scfg.suspect_after.max(out_wait_probes(&chaos_plan));
            for (i, &h) in chosen.iter().enumerate() {
                let sink = obs.clone();
                services.push(Service::new(h, format!("store-replica-{i}"), move |ctx| {
                    run_store_replica(ctx, infra, Some(sink.clone()))
                }));
            }
            if chosen.len() > 1 {
                let sink = obs.clone();
                services.push(Service::new(infra, "store-detector", move |ctx| {
                    run_store_detector(ctx, infra, &scfg, Some(sink.clone()))
                }));
            }
            chosen
        } else {
            // The paper's deployment: one replica alone, with no detector
            // (and no events: a lone replica's writes are quorums of one).
            let sink = obs.clone();
            services.push(Service::new(infra, "checkpoint-service", move |ctx| {
                store::run_checkpoint_service(ctx, infra, Some(sink.clone()))
            }));
            vec![infra]
        };

        // ---- factories + workers on the worker hosts -------------------
        for &h in &worker_hosts {
            let sink = obs.clone();
            services.push(Service::new(h, format!("factory-{h}"), move |ctx| {
                run_factory_obs(ctx, infra, worker_builder(), Some(sink.clone()))
            }));
            let sink = obs.clone();
            services.push(Service::new(h, format!("opt-worker-{h}"), move |ctx| {
                run_worker_server_obs(ctx, infra, Some(sink.clone()))
            }));
        }

        for service in &services {
            let body = service.body.clone();
            kernel.spawn(service.host, service.name.clone(), move |ctx| body(ctx));
        }
        if !chaos_plan.events.is_empty() {
            chaos_plan.schedule(&mut kernel);
            spawn_respawner(&mut kernel, infra, &chaos_plan, services);
        }

        Cluster {
            kernel,
            hosts,
            infra,
            worker_hosts,
            store_hosts,
            sysmgr_ior,
            obs,
            chaos_plan,
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

/// A boot process's body; it can run again, so a restarted host reboots
/// from the same service list.
type ServiceBody = Arc<dyn Fn(&mut Ctx) -> SimResult<()> + Send + Sync>;

/// One boot process: the host it runs on, its name and its body.
struct Service {
    host: HostId,
    name: String,
    body: ServiceBody,
}

impl Service {
    fn new(
        host: HostId,
        name: impl Into<String>,
        body: impl Fn(&mut Ctx) -> SimResult<()> + Send + Sync + 'static,
    ) -> Service {
        Service {
            host,
            name: name.into(),
            body: Arc::new(body),
        }
    }
}

/// Delay between a host's `RestartHost` and its services' reboot.
const REBOOT_DELAY: SimDuration = SimDuration::from_millis(100);

/// The init system: a supervisor on the never-faulted infra host that
/// walks the plan's restarts and, [`REBOOT_DELAY`] after each, spawns every
/// service the restarted host boots. Registering the processes up front
/// with `spawn_at` would not survive: a host crash reaps every process
/// registered on the host, booted or not. A reboot landing on a host a
/// flap train has already crashed again never runs — the train's last
/// restart wins.
fn spawn_respawner(kernel: &mut Kernel, infra: HostId, plan: &ChaosPlan, services: Vec<Service>) {
    let events = plan.events.clone();
    kernel.spawn(infra, "init-respawner", move |ctx| {
        for e in events {
            let Fault::RestartHost(host) = e.fault else {
                continue;
            };
            ctx.sleep(e.at.saturating_add(REBOOT_DELAY).since(ctx.now()))?;
            for service in services.iter().filter(|s| s.host == host) {
                let body = service.body.clone();
                ctx.spawn(host, service.name.clone(), move |ctx| body(ctx))?;
            }
        }
        Ok(())
    });
}

/// Consecutive missed probes before the store detector evicts a replica,
/// sized to out-wait the plan's longest group cut. A group cut hides its
/// side from the detector too, and nothing reboots an evicted replica when
/// the cut heals.
fn out_wait_probes(plan: &ChaosPlan) -> u32 {
    let longest_cut = plan
        .episodes
        .iter()
        .filter_map(|ep| match &ep[..] {
            [cut, .., heal] if matches!(cut.fault, Fault::PartitionGroup { .. }) => {
                Some(heal.at.since(cut.at).as_nanos())
            }
            _ => None,
        })
        .max()
        .unwrap_or(0);
    // A cut of L ns overlaps at most L / period + 1 probes.
    u32::try_from(longest_cut / store::DETECTOR_PERIOD.as_nanos() + 2).unwrap_or(u32::MAX)
}

/// Wait (with polling) until the Winner system manager has published its
/// IOR.
fn wait_for_ior(ctx: &mut Ctx, cell: &Shared<Option<Ior>>) -> Result<Ior, simnet::Killed> {
    loop {
        if let Some(ior) = cell.get() {
            return Ok(ior);
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
