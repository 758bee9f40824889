//! Ablation: **recovery cost**. A worker host crashes mid-run; the FT
//! proxies recover (re-resolve / factory-create / restore / retry). This
//! study measures the runtime penalty of one crash under both checkpoint
//! transports, and runs the crash cell at two request timeouts: since the
//! ORB times a silent peer against its host (keepalive probes), the two
//! rows must agree — the constant is no longer the detector.
//!
//! Usage: `cargo run --release -p ldft-bench --bin ablation_recovery [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`

use corba_runtime::{CrashPlan, ExperimentSpec, NamingMode};
use ftproxy::CheckpointMode;
use ldft_bench::{ablation_sweep, print_ablation, AblationRow, RunArgs};
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
    let base_spec = ExperimentSpec::dim100(NamingMode::Winner);
    let mut rows = ablation_sweep(&args, [("no crash, no FT (baseline)", base_spec.clone())]);
    let baseline_mean = rows[0].runtime;
    let crash = CrashPlan {
        after: SimDuration::from_secs_f64(baseline_mean * 0.4),
        now_host_index: 0, // the first NOW host: always holds a worker slot
        restart_after: None,
    };
    let bulk = |every| FtSettings {
        mode: CheckpointMode::Bulk,
        checkpoint_every: every,
        max_recoveries: 6,
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
            }),
            Some(crash),
            fast,
        ),
    ];

    rows.extend(ablation_sweep(
        &args,
        cases.into_iter().map(|(label, ft, crash, timeout)| {
            let mut spec = base_spec.clone();
            spec.ft = ft;
            spec.crash = crash;
            spec.request_timeout = timeout;
            (label, spec)
        }),
    ));

    print_ablation(
        &args,
        "Recovery ablation — 100-dim / 7 workers; a worker host crashes 40% \
         into the baseline runtime where applicable",
        "setting",
        &[
            ("vs baseline", None, &|r: &AblationRow| {
                format!(
                    "+{:.0}%",
                    100.0 * (r.runtime - baseline_mean) / baseline_mean
                )
            }),
            ("recoveries", Some("recoveries"), &|r: &AblationRow| {
                r.total(|rep| rep.recoveries).to_string()
            }),
        ],
        &rows,
        Some(
            "Reading: without FT a crash would abort the run entirely (the paper's \
             motivation); with FT the run completes, paying detection plus \
             restart/restore. Detection is the ORB asking the silent worker's \
             host with keepalives, so the 60 s and the short request timeout \
             cost the same. Rarer checkpoints write less and re-execute more \
             after the crash. The per-value row's overhead is all on the write \
             path (one RPC per stored value, every call): a restore is one push \
             of the proxy's own copy of the last acked checkpoint in either mode.",
        ),
    );
}
