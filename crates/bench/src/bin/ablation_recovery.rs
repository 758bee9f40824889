//! Ablation: **recovery cost**. A worker host crashes mid-run; the FT
//! proxies recover (re-resolve / factory-create / restore / retry). This
//! study measures the runtime penalty of one crash under both checkpoint
//! transports, and runs the crash cell at two request timeouts: since the
//! ORB times a silent peer against its host (keepalive probes), the two
//! rows must agree — the constant is no longer the detector.
//!
//! Usage: `cargo run --release -p ldft-bench --bin ablation_recovery [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`

use corba_runtime::{averaged_runtime, CrashPlan, ExperimentSpec, NamingMode};
use ftproxy::CheckpointMode;
use ldft_bench::{Csv, RunArgs, Table};
use optim::FtSettings;
use simnet::SimDuration;

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "ablation_recovery: 5 settings × {} seeds …",
        args.seeds.len()
    );

    // Establish the FT-free baseline first: the crash is scheduled at 40%
    // of its runtime so it reliably lands mid-run at any --scale.
    let mut base_spec = ExperimentSpec::dim100(NamingMode::Winner);
    base_spec.worker_iters = args.scaled(base_spec.worker_iters);
    let (baseline_mean, _) =
        averaged_runtime(&base_spec, &args.seeds).expect("experiment run failed");
    eprint!(".");
    let crash = CrashPlan {
        after: SimDuration::from_secs_f64(baseline_mean * 0.4),
        now_host_index: 0, // the first NOW host: always holds a worker slot
        restart_after: None,
    };
    let bulk = |every| FtSettings {
        mode: CheckpointMode::Bulk,
        checkpoint_every: every,
        max_recoveries: 6,
        ..FtSettings::default()
    };

    // A generous request timeout and an aggressive one: the crashed host
    // is found out by unanswered keepalives well inside either.
    let slow = SimDuration::from_secs(60);
    let fast = SimDuration::from_secs_f64((baseline_mean * 0.2).max(0.5));
    let cases: Vec<(&str, Option<FtSettings>, Option<CrashPlan>, SimDuration)> = vec![
        ("no crash, FT bulk", Some(bulk(1)), None, slow),
        (
            "crash, FT bulk, 60 s timeout",
            Some(bulk(1)),
            Some(crash),
            slow,
        ),
        (
            "crash, FT bulk, short timeout",
            Some(bulk(1)),
            Some(crash),
            fast,
        ),
        (
            "crash, FT bulk, every 5th call, short timeout",
            Some(bulk(5)),
            Some(crash),
            fast,
        ),
        (
            "crash, FT per-value (paper), short timeout",
            Some(FtSettings {
                mode: CheckpointMode::PerValue,
                checkpoint_every: 1,
                max_recoveries: 6,
                ..FtSettings::default()
            }),
            Some(crash),
            fast,
        ),
    ];

    let mut rows: Vec<(String, f64, u64)> = Vec::new();
    rows.push(("no crash, no FT (baseline)".to_string(), baseline_mean, 0));
    for (label, ft, crash, timeout) in cases {
        let mut spec = ExperimentSpec::dim100(NamingMode::Winner);
        spec.worker_iters = args.scaled(spec.worker_iters);
        spec.ft = ft;
        spec.crash = crash;
        spec.request_timeout = timeout;
        let (mean, runs) = averaged_runtime(&spec, &args.seeds).expect("experiment run failed");
        let recoveries: u64 = runs.iter().map(|r| r.report.recoveries).sum();
        rows.push((label.to_string(), mean, recoveries));
        eprint!(".");
    }
    eprintln!();

    println!(
        "Recovery ablation — 100-dim / 7 workers; a worker host crashes 40% \
         into the baseline runtime where applicable\n"
    );
    let baseline = rows[0].1;
    let mut table = Table::new(vec!["setting", "runtime [s]", "vs baseline", "recoveries"]);
    for (label, mean, rec) in &rows {
        table.row(vec![
            label.clone(),
            format!("{mean:.2}"),
            format!("+{:.0}%", 100.0 * (mean - baseline) / baseline),
            rec.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: without FT a crash would abort the run entirely (the paper's \
         motivation); with FT the run completes, paying detection plus \
         restart/restore. Detection is the ORB asking the silent worker's \
         host with keepalives, so the 60 s and the short request timeout \
         cost the same. Rarer checkpoints write less and re-execute more \
         after the crash. The per-value row's overhead is all on the write \
         path (one RPC per stored value, every call): a restore is one push \
         of the proxy's own copy of the last acked checkpoint in either mode."
    );

    if args.csv {
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(l, m, r)| vec![l.clone(), format!("{m:.4}"), r.to_string()])
            .collect();
        print!(
            "{}",
            Csv::render(&["setting", "runtime_s", "recoveries"], &csv_rows)
        );
    }

    args.write_exports_or_exit();
}
