//! Chaos harness for the replicated checkpoint store: a seeded
//! [`store::ChaosPlan`] crashes and restarts store-replica hosts while a
//! driver keeps writing epoch-versioned checkpoints through the naming
//! group. The run must end with every acked epoch durable — the newest
//! acked record readable after the dust settles — and, with the same
//! seed, produce byte-identical observability exports (the CI
//! determinism gate runs this binary twice and `cmp`s the files).
//!
//! Usage: `cargo run --release -p ldft-bench --bin store_chaos
//! [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]
//! [--bench-out PATH]`

use std::sync::{Arc, Mutex};

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{Checkpoint, CheckpointClient, CHECKPOINT_SERVICE_NAME};
use ldft_bench::{Csv, RunArgs, Table};
use orb::Orb;
use simnet::{Ctx, HostConfig, Kernel, SimDuration, SimTime};
use store::{spawn_replicated_store, ChaosConfig, ChaosPlan, StoreConfig};

const REPLICAS: usize = 3;

/// Retry budget for the driver's resolve/store/retrieve loops. Each
/// retry sleeps 50–150 ms, so the budget is a ≥ 60 s sim-time window —
/// far beyond the chaos horizon (≈ 13 s plus a 2 s restart tail). Blowing
/// it means failover is wedged, which the run should report loudly
/// instead of spinning forever.
const RETRY_MAX_ATTEMPTS: u32 = 1200;

/// What one chaos cell did.
#[derive(Clone, Debug, Default)]
struct CellStats {
    /// Epochs the driver got a quorum ack for.
    acked: cdr::Epoch,
    /// Store attempts that failed (quorum loss or a dead coordinator)
    /// and were retried after re-resolving the group.
    retries: u64,
    /// Epoch of the record read back after the chaos window closed.
    final_epoch: cdr::Epoch,
    /// Crash faults the plan injected.
    crashes: usize,
}

/// Outcome of one seeded cell, with its observability exports and the
/// flight recorder's post-mortems (kernel crash/restart lifecycle dumps).
struct CellOutcome {
    stats: CellStats,
    /// Virtual time at which the driver exited — the cell's deterministic
    /// end-to-end runtime for the `BENCH_*.json` report.
    end_ns: u64,
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

/// Run one chaos cell: naming + `REPLICAS` store hosts + a driver host;
/// replica hosts crash/restart per the seeded plan while the driver
/// writes one epoch every 200 ms, re-resolving on failure.
fn run_cell(seed: u64, scale: f64) -> CellOutcome {
    let mut sim = Kernel::with_seed(seed);
    let sink = obs::Obs::new();
    // Flight recorder over the kernel's lifecycle stream and the
    // replicas' view changes and quorum writes: every injected
    // crash/restart dumps a post-mortem tail, flushed to stderr if the run
    // fails. No obs sink — the recorder must not perturb the trace/metrics
    // exports the CI determinism gate `cmp`s.
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
    spawn_replicated_store(
        &mut sim,
        &replica_hosts,
        naming_host,
        StoreConfig {
            monitor: Some(flight.clone()),
            ..StoreConfig::default()
        },
        Some(sink.clone()),
    );

    // The chaos window: starts after boot, ends well before the write
    // phase does, so the final epochs land on a fully healed view and
    // every replica holds the newest record.
    let chaos_end_s = 1.0 + 12.0 * scale.max(0.15);
    let plan = ChaosPlan::generate(
        &ChaosConfig {
            seed: seed.wrapping_mul(0x517C_C1B7),
            start: SimTime::from_nanos(1_000_000_000),
            end: SimTime::from_nanos((chaos_end_s * 1e9) as u64),
            mean_interval: SimDuration::from_millis(1_500),
            restart_after: Some(SimDuration::from_secs(2)),
            max_concurrent_down: REPLICAS - 1,
            ..ChaosConfig::default()
        },
        &replica_hosts,
    );
    let crashes = plan.crashes();
    plan.schedule(&mut sim);

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
            // Retry through crashes: a dead coordinator or a lost quorum
            // heals once the detector evicts the corpse (or the host
            // restarts and re-binds), so keep re-resolving — within the
            // failover budget.
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
    stats.crashes = crashes;
    CellOutcome {
        stats,
        end_ns: end.as_nanos(),
        trace_json: sink.chrome_trace_json(),
        metrics_text: sink.metrics_text(),
        post_mortems: flight.dumps().concat(),
    }
}

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "store_chaos: {REPLICAS} replicas under a seeded fault schedule × {} seeds …",
        args.seeds.len()
    );

    let mut rows: Vec<(u64, CellStats)> = Vec::new();
    let mut bench_records = Vec::new();
    let mut exports: Option<CellOutcome> = None;
    for &seed in &args.seeds {
        let outcome = run_cell(seed, args.scale);
        // Durability checks: a failing seed flushes the flight recorder's
        // post-mortems before exiting so the loss is diagnosable from the
        // job log alone.
        if outcome.stats.acked == cdr::Epoch::ZERO {
            eprintln!("store_chaos: seed {seed}: no write ever succeeded");
            ldft_bench::flush_post_mortems("store_chaos", &outcome.post_mortems);
            std::process::exit(1);
        }
        if outcome.stats.final_epoch != outcome.stats.acked {
            eprintln!(
                "store_chaos: seed {seed}: acked epoch {} was lost to the chaos \
                 schedule (read back {})",
                outcome.stats.acked, outcome.stats.final_epoch
            );
            ldft_bench::flush_post_mortems("store_chaos", &outcome.post_mortems);
            std::process::exit(1);
        }
        rows.push((seed, outcome.stats.clone()));
        bench_records.push(ldft_bench::perf::macro_record(
            format!("store_chaos/seed{seed}"),
            "chaos",
            outcome.end_ns,
        ));
        if exports.is_none() {
            exports = Some(outcome);
        }
        eprint!(".");
    }
    eprintln!();

    println!(
        "Store chaos — {REPLICAS} replicas, seeded crash/restart schedule on the \
         store hosts while a client writes one epoch every 200 ms\n"
    );
    let mut table = Table::new(vec![
        "seed",
        "crashes",
        "epochs acked",
        "write retries",
        "final epoch",
    ]);
    for (seed, s) in &rows {
        table.row(vec![
            seed.to_string(),
            s.crashes.to_string(),
            s.acked.to_string(),
            s.retries.to_string(),
            s.final_epoch.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: every row ends with final epoch == epochs acked — no acked \
         write was lost, despite the crashes. Retries count the writes that \
         had to wait out a failover (detector eviction or host restart)."
    );

    if args.csv {
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(seed, s)| {
                vec![
                    seed.to_string(),
                    s.crashes.to_string(),
                    s.acked.to_string(),
                    s.retries.to_string(),
                    s.final_epoch.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            Csv::render(
                &[
                    "seed",
                    "crashes",
                    "epochs_acked",
                    "write_retries",
                    "final_epoch"
                ],
                &csv_rows
            )
        );
    }

    args.write_bench_records("store_chaos", bench_records);

    // Observability exports of the first seed's cell (the CI determinism
    // gate runs this twice and compares byte-for-byte).
    let exports = exports.expect("at least one seed ran");
    if let Err(e) = args.write_export_files(&exports.trace_json, &exports.metrics_text) {
        eprintln!("failed to write observability exports: {e}");
        ldft_bench::flush_post_mortems("store_chaos", &exports.post_mortems);
        std::process::exit(1);
    }
}
