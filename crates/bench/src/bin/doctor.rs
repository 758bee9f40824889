//! Live-monitoring doctor report over the reference cell (DESIGN.md §10).
//!
//! Runs the 30-dim / 3-worker Winner+FT scenario twice — once healthy and
//! once with a mid-run worker-host crash — with the doctor on, and renders
//! each run's doctor report: the event census, the per-target
//! critical-path latency attribution table (queue-wait vs service vs
//! checkpoint overhead), the runtime invariants, and the flight
//! recorder's post-mortems. `--trace-out` / `--metrics-out` export the
//! crash cell's causal trace (Chrome `trace_event` JSON) and metrics.
//!
//! Report and exports are virtual-time deterministic: the same seed and
//! scale yield byte-identical files, which CI asserts by running this
//! binary twice and `cmp`-ing them. CI also fails if either cell reports
//! an invariant violation: the healthy baseline has no excuse, and the
//! crash cell is where a replica is adopted after acked checkpoints — the
//! one place `restore-freshness` can fire.
//!
//! Usage: `cargo run --release -p ldft-bench --bin doctor
//! [--quick] [--seeds N] [--report-out PATH] [--trace-out PATH] [--metrics-out PATH]`

use ldft_bench::{doctor_cell, flush_post_mortems, usage_exit, RunArgs};

const EXTRA: &str = "[--report-out PATH] ";

fn main() {
    let mut report_out: Option<String> = None;
    // `--report-out` is specific to this binary; strip it before the
    // shared parser sees the argument list.
    let mut forwarded = Vec::new();
    let mut args_iter = std::env::args().skip(1);
    while let Some(a) = args_iter.next() {
        if a == "--report-out" {
            let path = args_iter.next();
            report_out =
                Some(path.unwrap_or_else(|| usage_exit("--report-out takes a path", EXTRA)));
        } else {
            forwarded.push(a);
        }
    }
    let args = RunArgs::parse_from(forwarded).unwrap_or_else(|e| usage_exit(&e, EXTRA));

    eprintln!("doctor: healthy baseline …");
    let healthy = doctor_cell(&args, false)
        .doctor
        .expect("monitor was configured");
    eprintln!("doctor: crash cell …");
    let crash_cell = doctor_cell(&args, true);
    let crashed = crash_cell.doctor.expect("monitor was configured");

    let mut report = String::new();
    report.push_str("== healthy baseline ==\n");
    report.push_str(&healthy.report);
    report.push_str("\n== crash cell ==\n");
    report.push_str(&crashed.report);
    print!("{report}");

    if let Some(path) = &report_out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("failed to write --report-out file: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote doctor report to {path}");
    }
    let (trace, metrics) = (
        &crash_cell.obs.chrome_trace_json(),
        &crash_cell.obs.metrics_text(),
    );
    if let Err(e) = args.write_export_files(trace, metrics) {
        eprintln!("failed to write observability exports: {e}");
        flush_post_mortems("crash cell", &crashed.dumps.concat());
        std::process::exit(1);
    }

    for (cell, doctor) in [("healthy baseline", &healthy), ("crash cell", &crashed)] {
        let violations = doctor.violations;
        if violations > 0 {
            eprintln!("doctor: {cell} reported {violations} invariant violation(s)");
            std::process::exit(2);
        }
    }
    eprintln!(
        "doctor: both cells clean; crash cell dumped {} post-mortem(s)",
        crashed.dumps.len(),
    );
}
