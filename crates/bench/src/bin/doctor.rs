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
//! Recovery must also be transparent: the crash cell's answer (the bits of
//! `best_value` and `best_point`, and `manager_iterations`) must be the
//! healthy baseline's. A difference exits 3 (a violation exits 2).
//!
//! Usage: `cargo run --release -p ldft-bench --bin doctor
//! [--quick] [--seeds N] [--report-out PATH] [--trace-out PATH] [--metrics-out PATH]`

use ldft_bench::{doctor_cell, flush_post_mortems, usage_exit, RunArgs};
use optim::RunReport;

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
    let healthy_cell = doctor_cell(&args, false);
    let healthy = healthy_cell.doctor.expect("monitor was configured");
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

    let (want, got) = (&healthy_cell.report, &crash_cell.report);
    if answer(want) != answer(got) {
        eprintln!(
            "doctor: the crash changed the answer: best {:.6} after {} iterations, \
             healthy baseline {:.6} after {}",
            got.best_value, got.manager_iterations, want.best_value, want.manager_iterations,
        );
        std::process::exit(3);
    }
    eprintln!(
        "doctor: crash cell answers the healthy baseline's best {:.6} ({:016x})",
        got.best_value,
        got.best_value.to_bits(),
    );
}

/// What the client sees of a run, to the bit.
fn answer(r: &RunReport) -> (u64, Vec<u64>, u64) {
    let point = r.best_point.iter().map(|x| x.to_bits()).collect();
    (r.best_value.to_bits(), point, r.manager_iterations)
}
