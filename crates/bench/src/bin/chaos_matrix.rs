//! Fault-family × intensity sweep over the paper's deployment with a
//! replicated checkpoint store: every [`FaultFamily`] (crash/restart,
//! pairwise partition, group partition, one-way drop, gray-failure
//! degradation, flap train, clock skew) runs at a low and a high injection
//! intensity against the same workload — a driver on the never-faulted
//! infra host writing epoch-versioned checkpoints through the
//! Winner-integrated naming service, while the NOW hosts (each carrying a
//! store replica, a node manager, a factory and a worker) suffer the
//! faults. Each cell must end with the newest acked epoch durable and
//! **zero doctor invariant violations** (the doctor reads the cell's event
//! log, the kernel's lifecycle included: every cut must heal, and heal
//! within budget),
//! and two same-seed runs must produce byte-identical observability exports
//! (the CI determinism gate runs this binary twice and `cmp`s the files).
//!
//! Every cell is one [`Cluster::build`] with a [`ClusterConfig::chaos`]
//! workload: the cluster schedules the plan, reboots a restarted host's
//! services, and sizes the store detector to out-wait group cuts.
//!
//! Usage: `cargo run --release -p ldft-bench --bin chaos_matrix
//! [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`.
//! A failing cell prints the flight recorder's post-mortems to stderr.

use corba_runtime::{Cluster, ClusterConfig};
use cosnaming::{Name, NamingClient};
use ftproxy::{Checkpoint, CheckpointClient, CHECKPOINT_SERVICE_NAME};
use ldft_bench::{RunArgs, Section, Table};
use orb::Orb;
use simnet::{Ctx, HostId, Shared, SimDuration, SimTime};
use store::{ChaosConfig, FaultFamily};

const REPLICAS: usize = 3;

/// The table's columns; the CSV header is the same with `_` for ` ` and `-`.
const COLUMNS: [&str; 8] = [
    "family",
    "intensity",
    "seed",
    "fault events",
    "epochs acked",
    "write retries",
    "skew-quarantined",
    "doctor violations",
];

/// Retry budget for the driver's resolve/store/retrieve loops. Each retry
/// sleeps ≥ 50 ms, so this is a ≥ 60 s sim-time window, far beyond any
/// cell's chaos horizon. Blowing it means failover is wedged, which the
/// run should report loudly instead of spinning forever.
const RETRY_MAX_ATTEMPTS: u32 = 1200;

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
    /// Doctor invariant violations over the cell's event log.
    violations: u64,
}

/// Outcome of one cell, with its observability exports and post-mortems.
struct CellOutcome {
    stats: CellStats,
    trace_json: String,
    metrics_text: String,
    post_mortems: String,
}

fn resolve_store(orb: &mut Orb, ctx: &mut Ctx, naming_host: HostId) -> CheckpointClient {
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

/// The driver: one epoch every 200 ms until `write_end`, each retried
/// through the cell's weather, then a read-back of the newest epoch.
fn drive(ctx: &mut Ctx, infra: HostId, sink: obs::Obs, write_end: SimTime) -> CellStats {
    ctx.sleep(SimDuration::from_millis(500)).unwrap();
    let mut orb = Orb::init(ctx);
    orb.set_obs(obs::ProcessObs::new(sink, ctx));
    let mut client = resolve_store(&mut orb, ctx, infra);
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
        // lossy links, quorum failures — all heal (eviction, plan heal, or
        // reboot re-bind) within the failover budget.
        let mut attempts = 0u32;
        while client
            .store(&mut orb, ctx, &ckpt)
            .expect("driver lives")
            .is_err()
        {
            let what = format!("epoch {epoch} never acked");
            client = retry(&mut orb, ctx, infra, &mut s, &mut attempts, &what);
        }
        s.acked = epoch;
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
            return s;
        }
        client = retry(
            &mut orb,
            ctx,
            infra,
            &mut s,
            &mut attempts,
            "final read-back failed",
        );
    }
}

/// Count one failed store attempt against the budget, back off and
/// re-resolve the store group.
fn retry(
    orb: &mut Orb,
    ctx: &mut Ctx,
    infra: HostId,
    s: &mut CellStats,
    attempts: &mut u32,
    what: &str,
) -> CheckpointClient {
    *attempts += 1;
    assert!(
        *attempts < RETRY_MAX_ATTEMPTS,
        "{what} after {attempts} attempts — failover wedged"
    );
    s.retries += 1;
    ctx.sleep(SimDuration::from_millis(150)).unwrap();
    resolve_store(orb, ctx, infra)
}

/// Run one matrix cell: the paper's deployment on an infra host plus
/// `REPLICAS` NOW hosts that each carry a store replica and suffer the
/// cell's fault family, with the driver on the infra host.
fn run_cell(family: FaultFamily, intensity: Intensity, seed: u64, scale: f64) -> CellOutcome {
    // The chaos window: starts after boot, ends well before the write
    // phase does, so the final epochs land on a fully healed cluster.
    let chaos_end_s = 1.0 + 12.0 * scale.max(0.15);
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: 1 + REPLICAS,
        seed,
        store_replicas: REPLICAS,
        chaos: Some(ChaosConfig {
            seed: seed.wrapping_mul(0x517C_C1B7).wrapping_add(family as u64),
            start: SimTime::from_nanos(1_000_000_000),
            end: SimTime::from_nanos((chaos_end_s * 1e9) as u64),
            mean_interval: intensity.mean_interval,
            restart_after: Some(SimDuration::from_secs(2)),
            max_concurrent_down: intensity.max_concurrent_down,
            family,
        }),
        ..ClusterConfig::default()
    });
    let write_end = SimTime::from_nanos(((chaos_end_s + 3.0) * 1e9) as u64);
    let stats: Shared<CellStats> = Shared::default();
    let out = stats.clone();
    let (infra, sink) = (cluster.infra, cluster.obs.clone());
    let driver = cluster.kernel.spawn(infra, "driver", move |ctx| {
        out.replace(drive(ctx, infra, sink, write_end));
    });
    let end = cluster.kernel.run_until_exit(driver);
    let doctor = monitor::diagnose(&cluster.obs, monitor::MonitorConfig::default(), end);

    let mut stats = stats.get();
    stats.faults = cluster.chaos_plan.events.len();
    stats.quarantined = cluster.obs.counter("winner.skewed_reports");
    stats.violations = doctor.violations;
    CellOutcome {
        stats,
        trace_json: cluster.obs.chrome_trace_json(),
        metrics_text: cluster.obs.metrics_text(),
        post_mortems: doctor.dumps.concat(),
    }
}

/// One table (and CSV) row.
fn row(seed: u64, family: FaultFamily, intensity: Intensity, s: &CellStats) -> Vec<String> {
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
}

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "chaos_matrix: {} fault families × {} intensities × {} seed(s) over the \
         replicated store …",
        FaultFamily::ALL.len(),
        INTENSITIES.len(),
        args.seeds.len()
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut exports: Option<CellOutcome> = None;
    let mut failed = false;
    for &seed in &args.seeds {
        for family in FaultFamily::ALL {
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
                rows.push(row(seed, family, intensity, s));
                if exports.is_none() {
                    exports = Some(outcome);
                }
                eprint!(".");
            }
        }
    }
    eprintln!();

    let title = format!(
        "Chaos matrix — the Winner-integrated cluster with {REPLICAS} store replicas; every \
         fault family at two injection intensities, a driver writing one epoch every 200 ms"
    );
    let header = COLUMNS.map(|c| c.replace([' ', '-'], "_")).join(",");
    let mut section = Section::new(&title, Table::new(COLUMNS.to_vec()), &header);
    for r in rows {
        section.csv.push(r.join(","));
        section.table.row(r);
    }
    section.notes.push(
        "Reading: every cell survived its family — no acked epoch was lost and the doctor saw \
         every cut heal within budget (violations 0). Retries count writes that waited out a \
         failover; skew-quarantined counts Winner load reports rejected for a far-skewed \
         wall-clock stamp (clock-skew cells)."
            .into(),
    );
    print!("{}", section.render(args.csv));

    // Observability exports of the first cell (the CI determinism gate
    // runs this binary twice and compares byte-for-byte).
    let exports = exports.expect("at least one cell ran");
    if let Err(e) = args.write_export_files(&exports.trace_json, &exports.metrics_text) {
        eprintln!("failed to write observability exports: {e}");
        ldft_bench::flush_post_mortems("chaos_matrix", &exports.post_mortems);
        std::process::exit(1);
    }
}
