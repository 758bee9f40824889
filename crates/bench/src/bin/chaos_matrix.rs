//! Fault-family × intensity sweep over the replicated checkpoint store:
//! every [`store::ChaosPlan`] family (crash/restart, pairwise partition,
//! group partition, one-way drop, gray-failure degradation, flap train,
//! clock skew) runs at a low and a high injection intensity against the
//! same workload — a driver writing epoch-versioned checkpoints through
//! the naming group while Winner node managers on the replica hosts
//! report load to a system manager. Each cell must end with the newest
//! acked epoch durable and **zero doctor invariant violations** (the
//! flight recorder ingests the kernel's lifecycle stream: every cut must
//! heal, and heal within budget), and two same-seed runs must produce
//! byte-identical observability exports (the CI determinism gate runs
//! this binary twice and `cmp`s the files).
//!
//! Recovery model: hosts boot *empty* after `RestartHost`, so an "init
//! system" respawn is scheduled 100 ms after each restart — a fresh
//! replica re-binds into the naming group (view change) and is
//! repopulated by subsequent quorum writes; a fresh node manager resumes
//! load reports. For bounded *network* cuts (the group-partition family)
//! the failure detector is instead tuned to out-wait the episode, the
//! standard defense against membership flapping on transient partitions.
//!
//! Usage: `cargo run --release -p ldft-bench --bin chaos_matrix
//! [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`.
//! A failing cell prints the flight recorder's post-mortems to stderr.

use std::sync::{Arc, Mutex};

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{Checkpoint, CheckpointClient, CHECKPOINT_SERVICE_NAME};
use ldft_bench::{Csv, RunArgs, Table};
use orb::{Ior, Orb};
use simnet::{Ctx, Fault, HostConfig, Kernel, Shared, SimDuration, SimTime};
use store::{spawn_replicated_store, ChaosConfig, ChaosPlan, StoreConfig};

const REPLICAS: usize = 3;

/// Retry budget for the driver's resolve/store/retrieve loops. Each retry
/// sleeps ≥ 50 ms, so this is a ≥ 60 s sim-time window, far beyond any
/// cell's chaos horizon. Blowing it means failover is wedged, which the
/// run should report loudly instead of spinning forever.
const RETRY_MAX_ATTEMPTS: u32 = 1200;

/// The fault families the matrix sweeps — one [`ChaosConfig`] family
/// probability pinned to 1.0 per cell (crash is the all-zero remainder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Crash,
    Partition,
    GroupPartition,
    OneWay,
    Degrade,
    Flap,
    Skew,
}

const FAMILIES: [Family; 7] = [
    Family::Crash,
    Family::Partition,
    Family::GroupPartition,
    Family::OneWay,
    Family::Degrade,
    Family::Flap,
    Family::Skew,
];

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Crash => "crash",
            Family::Partition => "partition",
            Family::GroupPartition => "group-partition",
            Family::OneWay => "oneway-drop",
            Family::Degrade => "degrade-link",
            Family::Flap => "flap",
            Family::Skew => "clock-skew",
        }
    }

    /// Pin this family's draw probability to 1.0 (crash: leave all zero —
    /// it is the remainder of the unit interval).
    fn pin(self, cfg: &mut ChaosConfig) {
        match self {
            Family::Crash => {}
            Family::Partition => cfg.partition_prob = 1.0,
            Family::GroupPartition => cfg.group_partition_prob = 1.0,
            Family::OneWay => cfg.oneway_prob = 1.0,
            Family::Degrade => cfg.degrade_prob = 1.0,
            Family::Flap => cfg.flap_prob = 1.0,
            Family::Skew => cfg.skew_prob = 1.0,
        }
    }
}

/// One injection-intensity level of the sweep.
#[derive(Clone, Copy, Debug)]
struct Intensity {
    name: &'static str,
    mean_interval: SimDuration,
    max_concurrent_down: usize,
}

const INTENSITIES: [Intensity; 2] = [
    Intensity {
        name: "low",
        mean_interval: SimDuration::from_millis(2_500),
        max_concurrent_down: 1,
    },
    Intensity {
        name: "high",
        mean_interval: SimDuration::from_millis(1_200),
        max_concurrent_down: REPLICAS - 1,
    },
];

/// What one matrix cell did.
#[derive(Clone, Debug, Default)]
struct CellStats {
    /// Fault events the plan injected (cuts, heals, crashes, restarts…).
    faults: usize,
    /// Epochs the driver got a quorum ack for.
    acked: cdr::Epoch,
    /// Store attempts that failed and were retried after re-resolving.
    retries: u64,
    /// Epoch of the record read back after the chaos window closed.
    final_epoch: cdr::Epoch,
    /// Winner load reports quarantined for a far-skewed wall-clock stamp.
    quarantined: u64,
    /// Doctor invariant violations the flight recorder accumulated.
    violations: u64,
}

/// Outcome of one cell, with its observability exports and post-mortems.
struct CellOutcome {
    stats: CellStats,
    trace_json: String,
    metrics_text: String,
    post_mortems: String,
}

fn resolve_store(orb: &mut Orb, ctx: &mut Ctx, naming_host: simnet::HostId) -> CheckpointClient {
    let ns = NamingClient::root(naming_host);
    let mut attempts = 0u32;
    loop {
        match ns
            .resolve(orb, ctx, &Name::simple(CHECKPOINT_SERVICE_NAME))
            .expect("driver host never crashes")
        {
            Ok(obj) => return CheckpointClient::new(obj),
            Err(_) => {
                attempts += 1;
                assert!(
                    attempts < RETRY_MAX_ATTEMPTS,
                    "store group unresolvable after {attempts} attempts — failover wedged"
                );
                ctx.sleep(SimDuration::from_millis(50)).unwrap();
            }
        }
    }
}

/// Process body of one Winner node manager: wait for the system manager's
/// IOR to be published, then report load every 300 ms until killed.
fn node_manager_body(ctx: &mut Ctx, sm_cell: Shared<Option<Ior>>) {
    let ior = loop {
        if let Some(ior) = sm_cell.with(|c| c.clone()) {
            break ior;
        }
        if ctx.sleep(SimDuration::from_millis(50)).is_err() {
            return;
        }
    };
    let mut cfg = winner::NodeManagerConfig::new(ior);
    cfg.interval = SimDuration::from_millis(300);
    let _ = winner::run_node_manager(ctx, cfg);
}

/// Run one matrix cell: naming + system manager on an infra host,
/// `REPLICAS` store hosts (each also carrying a node manager), and a
/// driver host; the replica hosts suffer the cell's fault family while
/// the driver writes one epoch every 200 ms.
fn run_cell(family: Family, intensity: Intensity, seed: u64, scale: f64) -> CellOutcome {
    let mut sim = Kernel::with_seed(seed);
    let sink = obs::Obs::new();
    // Doctor + flight recorder over the kernel's lifecycle stream and the
    // replicas' view changes and quorum writes: partition cut/heal
    // pairing, healing-time budgets and quorum health are checked live;
    // any violation fails the cell. No obs sink — the recorder must not
    // perturb the exports the CI determinism gate `cmp`s.
    let flight = monitor::MonitorHandle::new(monitor::MonitorConfig::default(), None);
    {
        let flight = flight.clone();
        sim.set_event_hook(move |now, ev| flight.on_kernel_event(now, ev));
    }
    let naming_host = sim.add_host(HostConfig::new("infra"));
    let replica_hosts: Vec<_> = (0..REPLICAS)
        .map(|i| sim.add_host(HostConfig::new(format!("store{i}"))))
        .collect();
    let driver_host = sim.add_host(HostConfig::new("driver"));

    let naming_sink = sink.clone();
    sim.spawn(naming_host, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, Some(naming_sink));
    });

    let mut store_cfg = StoreConfig {
        monitor: Some(flight.clone()),
        ..StoreConfig::default()
    };
    if family == Family::GroupPartition {
        // A group partition cuts the side from the detector too; evicted
        // replicas boot no new process on heal (nothing crashed), so the
        // detector must out-wait the bounded cut instead of flapping the
        // membership: 40 × 250 ms probes ≫ the 2 s episode.
        store_cfg.suspect_after = 40;
    }
    spawn_replicated_store(
        &mut sim,
        &replica_hosts,
        naming_host,
        store_cfg.clone(),
        Some(sink.clone()),
    );

    // Winner overlay: system manager on the (never-faulted) infra host,
    // one node manager per replica host. Clock-skew cells exercise the
    // manager's stamp quarantine; crash cells its staleness marking.
    let sm_cell: Shared<Option<Ior>> = Shared::new(None);
    {
        let publish = sm_cell.clone();
        let sm_sink = sink.clone();
        sim.spawn(naming_host, "winner-sm", move |ctx| {
            let _ = winner::run_system_manager_obs(
                ctx,
                None,
                Box::new(winner::BestPerformance),
                Some(sm_sink),
                |ior| publish.with(|c| *c = Some(ior)),
            );
        });
    }
    for (i, &h) in replica_hosts.iter().enumerate() {
        let cell = sm_cell.clone();
        sim.spawn(h, format!("winner-nm-{i}"), move |ctx| {
            node_manager_body(ctx, cell)
        });
    }

    // The chaos window: starts after boot, ends well before the write
    // phase does, so the final epochs land on a fully healed cluster.
    let chaos_end_s = 1.0 + 12.0 * scale.max(0.15);
    let mut chaos_cfg = ChaosConfig {
        seed: seed.wrapping_mul(0x517C_C1B7).wrapping_add(family as u64),
        start: SimTime::from_nanos(1_000_000_000),
        end: SimTime::from_nanos((chaos_end_s * 1e9) as u64),
        mean_interval: intensity.mean_interval,
        restart_after: Some(SimDuration::from_secs(2)),
        max_concurrent_down: intensity.max_concurrent_down,
        ..ChaosConfig::default()
    };
    family.pin(&mut chaos_cfg);
    let plan = ChaosPlan::generate(&chaos_cfg, &replica_hosts);
    let faults = plan.events.len();
    plan.schedule(&mut sim);

    // The init-system respawns: a restarted host boots empty, so 100 ms
    // after every `RestartHost` a fresh replica (re-binding into the
    // group) and a fresh node manager come up. A supervisor process on
    // the never-faulted infra host walks the precomputed restart schedule
    // and spawns at the right instants — pre-registering the processes
    // with `spawn_at` would not survive, because a host crash reaps every
    // process registered on the host, booted or not. A respawn landing on
    // a host a flap train has already re-crashed boots on a dead host and
    // silently never runs — the train's last restart wins.
    let respawns: Vec<(SimTime, usize)> = plan
        .events
        .iter()
        .filter_map(|e| match e.fault {
            Fault::RestartHost(h) => {
                let idx = replica_hosts
                    .iter()
                    .position(|&r| r == h)
                    .expect("plan only targets replica hosts");
                Some((e.at.saturating_add(SimDuration::from_millis(100)), idx))
            }
            _ => None,
        })
        .collect();
    if !respawns.is_empty() {
        let hosts = replica_hosts.clone();
        let cfg = store_cfg.clone();
        let s = sink.clone();
        let cell = sm_cell.clone();
        sim.spawn(naming_host, "init-respawner", move |ctx| {
            for (at, idx) in respawns {
                let now = ctx.now();
                if at > now {
                    let gap = SimDuration::from_nanos(at.as_nanos() - now.as_nanos());
                    if ctx.sleep(gap).is_err() {
                        return;
                    }
                }
                let h = hosts[idx];
                let (cfg, s2) = (cfg.clone(), s.clone());
                let _ = ctx.spawn(h, format!("store-replica-{idx}-respawn"), move |c| {
                    let _ = store::run_store_replica(c, naming_host, cfg, Some(s2));
                });
                let cell = cell.clone();
                let _ = ctx.spawn(h, format!("winner-nm-{idx}-respawn"), move |c| {
                    node_manager_body(c, cell)
                });
            }
        });
    }

    let write_end = SimTime::from_nanos(((chaos_end_s + 3.0) * 1e9) as u64);
    let stats: Arc<Mutex<CellStats>> = Arc::new(Mutex::new(CellStats::default()));
    let out = stats.clone();
    let driver_sink = sink.clone();
    let driver = sim.spawn(driver_host, "driver", move |ctx| {
        ctx.sleep(SimDuration::from_millis(500)).unwrap();
        let mut orb = Orb::init(ctx);
        orb.set_obs(obs::ProcessObs::new(driver_sink, ctx));
        let mut client = resolve_store(&mut orb, ctx, naming_host);
        let mut s = CellStats::default();
        let mut epoch = cdr::Epoch::ZERO;
        while ctx.now() < write_end {
            epoch = epoch.next();
            let ckpt = Checkpoint {
                object_id: "chaos-obj".into(),
                epoch,
                state: epoch.get().to_be_bytes().to_vec(),
                stamp_ns: ctx.now().as_nanos(),
            };
            // Retry through the cell's weather: dead coordinators, cut or
            // lossy links, quorum failures — all heal (eviction, plan
            // heal, or respawn re-bind) within the failover budget.
            let mut attempts = 0u32;
            loop {
                match client.store(&mut orb, ctx, &ckpt).expect("driver lives") {
                    Ok(()) => {
                        s.acked = epoch;
                        break;
                    }
                    Err(_) => {
                        attempts += 1;
                        assert!(
                            attempts < RETRY_MAX_ATTEMPTS,
                            "epoch {epoch} never acked after {attempts} attempts — failover wedged"
                        );
                        s.retries += 1;
                        ctx.sleep(SimDuration::from_millis(150)).unwrap();
                        client = resolve_store(&mut orb, ctx, naming_host);
                    }
                }
            }
            ctx.sleep(SimDuration::from_millis(200)).unwrap();
        }
        // The dust has settled: the newest acked epoch must be durable.
        let mut attempts = 0u32;
        loop {
            if let Ok(Some(c)) = client
                .retrieve(&mut orb, ctx, "chaos-obj")
                .expect("driver lives")
            {
                s.final_epoch = c.epoch;
                break;
            }
            attempts += 1;
            assert!(
                attempts < RETRY_MAX_ATTEMPTS,
                "final read-back failed after {attempts} attempts — failover wedged"
            );
            s.retries += 1;
            ctx.sleep(SimDuration::from_millis(150)).unwrap();
            client = resolve_store(&mut orb, ctx, naming_host);
        }
        *out.lock().unwrap() = s;
    });
    let end = sim.run_until_exit(driver);
    flight.finalize(end);

    let mut stats = stats.lock().unwrap().clone();
    stats.faults = faults;
    stats.quarantined = sink.counter("winner.skewed_reports");
    stats.violations = flight.violations();
    CellOutcome {
        stats,
        trace_json: sink.chrome_trace_json(),
        metrics_text: sink.metrics_text(),
        post_mortems: flight.dumps().concat(),
    }
}

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "chaos_matrix: {} fault families × {} intensities × {} seed(s) over the \
         replicated store …",
        FAMILIES.len(),
        INTENSITIES.len(),
        args.seeds.len()
    );

    let mut rows: Vec<(u64, Family, Intensity, CellStats)> = Vec::new();
    let mut exports: Option<CellOutcome> = None;
    let mut failed = false;
    for &seed in &args.seeds {
        for family in FAMILIES {
            for intensity in INTENSITIES {
                let outcome = run_cell(family, intensity, seed, args.scale);
                let cell = format!("{}/{} seed {seed}", family.name(), intensity.name);
                let s = &outcome.stats;
                if s.faults == 0 {
                    eprintln!("chaos_matrix: {cell}: plan injected no faults");
                    failed = true;
                }
                if s.acked == cdr::Epoch::ZERO {
                    eprintln!("chaos_matrix: {cell}: no write ever succeeded");
                    failed = true;
                } else if s.final_epoch != s.acked {
                    eprintln!(
                        "chaos_matrix: {cell}: acked epoch {} lost (read back {})",
                        s.acked, s.final_epoch
                    );
                    failed = true;
                }
                if s.violations != 0 {
                    eprintln!(
                        "chaos_matrix: {cell}: doctor recorded {} invariant violation(s)",
                        s.violations
                    );
                    failed = true;
                }
                if failed {
                    ldft_bench::flush_post_mortems("chaos_matrix", &outcome.post_mortems);
                    std::process::exit(1);
                }
                rows.push((seed, family, intensity, outcome.stats.clone()));
                if exports.is_none() {
                    exports = Some(outcome);
                }
                eprint!(".");
            }
        }
    }
    eprintln!();

    println!(
        "Chaos matrix — {REPLICAS} replicas + Winner overlay; every fault family at \
         two injection intensities, a driver writing one epoch every 200 ms\n"
    );
    let mut table = Table::new(vec![
        "family",
        "intensity",
        "seed",
        "fault events",
        "epochs acked",
        "write retries",
        "skew-quarantined",
        "doctor violations",
    ]);
    for (seed, family, intensity, s) in &rows {
        table.row(vec![
            family.name().to_string(),
            intensity.name.to_string(),
            seed.to_string(),
            s.faults.to_string(),
            s.acked.to_string(),
            s.retries.to_string(),
            s.quarantined.to_string(),
            s.violations.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: every cell survived its family — no acked epoch was lost and the \
         doctor saw every cut heal within budget (violations 0). Retries count \
         writes that waited out a failover; skew-quarantined counts Winner load \
         reports rejected for a far-skewed wall-clock stamp (clock-skew cells)."
    );

    if args.csv {
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(seed, family, intensity, s)| {
                vec![
                    family.name().to_string(),
                    intensity.name.to_string(),
                    seed.to_string(),
                    s.faults.to_string(),
                    s.acked.to_string(),
                    s.retries.to_string(),
                    s.quarantined.to_string(),
                    s.violations.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            Csv::render(
                &[
                    "family",
                    "intensity",
                    "seed",
                    "fault_events",
                    "epochs_acked",
                    "write_retries",
                    "skew_quarantined",
                    "doctor_violations",
                ],
                &csv_rows
            )
        );
    }

    // Observability exports of the first cell (the CI determinism gate
    // runs this binary twice and compares byte-for-byte).
    let exports = exports.expect("at least one cell ran");
    if let Err(e) = args.write_export_files(&exports.trace_json, &exports.metrics_text) {
        eprintln!("failed to write observability exports: {e}");
        ldft_bench::flush_post_mortems("chaos_matrix", &exports.post_mortems);
        std::process::exit(1);
    }
}
