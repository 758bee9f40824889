//! Ablation: **checkpoint-store replication**. The paper deploys a single
//! checkpoint service — a single point of failure its own Section 5
//! acknowledges. This study measures what `ldft-store` replication costs
//! when nothing fails, and what it buys when the primary store host
//! crashes mid-run (with a worker crash right after, so a recovery
//! restores state checkpointed to whatever store was left).
//!
//! Usage: `cargo run --release -p ldft-bench --bin ablation_replication
//! [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`

use corba_runtime::{averaged_runtime, CrashPlan, ExperimentSpec, NamingMode, StoreCrashPlan};
use ftproxy::CheckpointMode;
use ldft_bench::{Csv, RunArgs, Table};
use optim::FtSettings;
use simnet::SimDuration;

/// The shared cell: Plain naming (deterministic store binding, so crash
/// index 0 always hits the primary), bulk checkpoints after every call.
fn base_spec(args: &RunArgs, replicas: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::dim100(NamingMode::Plain);
    spec.worker_iters = args.scaled(spec.worker_iters);
    spec.ft = Some(FtSettings {
        mode: CheckpointMode::Bulk,
        checkpoint_every: 1,
        max_recoveries: 6,
        ..FtSettings::default()
    });
    // Stays: after both crashes a recovering proxy re-resolves onto the idle
    // worker server on the dead store host, which the manager never called,
    // and a first contact waits this out once (58 s more at the default).
    spec.request_timeout = SimDuration::from_secs(2);
    spec.store_replicas = replicas;
    spec
}

fn with_crashes(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.store_crash = Some(StoreCrashPlan {
        after: SimDuration::from_millis(600),
        store_host_index: 0,
    });
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(1500),
        now_host_index: 0,
        restart_after: None,
    });
    spec
}

struct Row {
    label: String,
    runtime: f64,
    checkpoints: u64,
    retargets: u64,
    recoveries: u64,
    note: &'static str,
}

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "ablation_replication: 6 settings × {} seeds …",
        args.seeds.len()
    );

    let mut rows: Vec<Row> = Vec::new();

    // Crash-free side: the price of replication (every checkpoint fans
    // out to the backups before it acks).
    for replicas in [1usize, 2, 3] {
        let (mean, runs) =
            averaged_runtime(&base_spec(&args, replicas), &args.seeds).expect("run failed");
        rows.push(Row {
            label: format!("{replicas} replica(s), no faults"),
            runtime: mean,
            checkpoints: runs.iter().map(|r| r.report.checkpoints).sum(),
            retargets: runs.iter().map(|r| r.report.store_retargets).sum(),
            recoveries: runs.iter().map(|r| r.report.recoveries).sum(),
            note: "replication overhead",
        });
        eprint!(".");
    }

    // Faulty side: primary store host crashes, then a worker host. Last
    // the paper's deployment under the same faults: the run survives on
    // the proxies' own copies, but nothing is stored after the crash.
    for replicas in [2usize, 3, 1] {
        let (mean, runs) = averaged_runtime(&with_crashes(base_spec(&args, replicas)), &args.seeds)
            .expect("run failed");
        let checkpoints: u64 = runs.iter().map(|r| r.report.checkpoints).sum();
        let calls: u64 = runs.iter().map(|r| r.report.worker_calls).sum();
        assert_eq!(
            checkpoints < calls,
            replicas == 1,
            "only a single store is a single point of failure"
        );
        rows.push(Row {
            label: format!("{replicas} replica(s), store + worker crash"),
            runtime: mean,
            checkpoints,
            retargets: runs.iter().map(|r| r.report.store_retargets).sum(),
            recoveries: runs.iter().map(|r| r.report.recoveries).sum(),
            note: if replicas == 1 {
                "NOTHING STORED after the crash — single point of failure"
            } else {
                "failover, checkpoints keep landing"
            },
        });
        eprint!(".");
    }
    eprintln!();

    println!(
        "Replication ablation — 100-dim / 7 workers, bulk checkpoints after \
         every call; faulty cells crash the primary store host at +0.6 s and \
         a worker host at +1.5 s\n"
    );
    let mut table = Table::new(vec![
        "setting",
        "runtime [s]",
        "checkpoints",
        "store failovers",
        "recoveries",
        "note",
    ]);
    for r in &rows {
        table.row(vec![
            r.label.clone(),
            format!("{:.2}", r.runtime),
            r.checkpoints.to_string(),
            r.retargets.to_string(),
            r.recoveries.to_string(),
            r.note.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: replication adds a small, flat cost per checkpoint (the \
         backup round-trips overlap the next worker call). Under the store \
         crash the replicated runs pay one failover and keep checkpointing; \
         the single-store run finishes too — its proxies restore their own \
         copy of the last acked checkpoint — but every later checkpoint fails \
         (and costs a failed failover): nothing is durable any more, the \
         failure mode replication exists to remove."
    );

    if args.csv {
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.4}", r.runtime),
                    r.checkpoints.to_string(),
                    r.retargets.to_string(),
                    r.recoveries.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            Csv::render(
                &[
                    "setting",
                    "runtime_s",
                    "checkpoints",
                    "store_failovers",
                    "recoveries"
                ],
                &csv_rows
            )
        );
    }

    args.write_exports_or_exit();
}
