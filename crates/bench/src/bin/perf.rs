//! The standardized performance suite and its regression gate.
//!
//! Runs the `ldft-perf` suite (CDR codec micros, a GIOP round-trip cell,
//! a store quorum-write cell, the Figure 3 macro cell, and a chaos cell
//! reporting wasted work) and emits a schema-stable `BENCH_results.json`.
//! With `--baseline`, compares the deterministic fields against the
//! committed baseline and exits nonzero on regression — the CI perf-gate.
//!
//! Usage: `cargo run --release -p ldft-bench --bin perf --
//! [--quick] [--seeds N] [--scale F]
//! [--out BENCH_results.json] [--virtual-out PATH] [--flat-out PATH]
//! [--baseline BENCH_baseline.json] [--gate-pct 20] [--gate-wall-pct P]`
//!
//! Virtual-time fields (`virtual_ns`, percentiles, `wasted_work_ppm`) are
//! byte-deterministic per seed; wall fields measure this machine and are
//! gated only when `--gate-wall-pct` is passed.

use ldft_bench::perf::{compare, run_suite, BenchReport};
use ldft_bench::{RunArgs, Table};

struct PerfArgs {
    run: RunArgs,
    out: Option<String>,
    virtual_out: Option<String>,
    flat_out: Option<String>,
    baseline: Option<String>,
    gate_pct: u64,
    gate_wall_pct: Option<u64>,
}

fn parse_args() -> PerfArgs {
    let mut out = None;
    let mut virtual_out = None;
    let mut flat_out = None;
    let mut baseline = None;
    let mut gate_pct = 20;
    let mut gate_wall_pct = None;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().expect("--out takes a path")),
            "--virtual-out" => {
                virtual_out = Some(args.next().expect("--virtual-out takes a path"));
            }
            "--flat-out" => flat_out = Some(args.next().expect("--flat-out takes a path")),
            "--baseline" => baseline = Some(args.next().expect("--baseline takes a path")),
            "--gate-pct" => {
                gate_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--gate-pct takes a percentage");
            }
            "--gate-wall-pct" => {
                gate_wall_pct = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--gate-wall-pct takes a percentage"),
                );
            }
            other => rest.push(other.to_string()),
        }
    }
    PerfArgs {
        run: RunArgs::parse_from(rest),
        out,
        virtual_out,
        flat_out,
        baseline,
        gate_pct,
        gate_wall_pct,
    }
}

fn main() {
    let args = parse_args();
    let outcome = run_suite(&args.run);
    let report = &outcome.report;

    println!(
        "ldft-perf suite — seed {}, scale {}\n",
        report.seed, report.scale
    );
    let mut table = Table::new(vec![
        "bench",
        "kind",
        "wall ms",
        "virtual ms",
        "ops/s",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "wasted ppm",
    ]);
    for b in &report.benches {
        table.row(vec![
            b.name.clone(),
            b.kind.clone(),
            format!("{:.2}", b.wall_ns as f64 / 1e6),
            format!("{:.2}", b.virtual_ns as f64 / 1e6),
            format!("{:.0}", b.throughput_ops_s),
            format!("{:.1}", b.p50_ns as f64 / 1e3),
            format!("{:.1}", b.p95_ns as f64 / 1e3),
            format!("{:.1}", b.p99_ns as f64 / 1e3),
            b.wasted_work_ppm.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: virtual columns are deterministic per seed (what the gate \
         compares); wall columns measure this machine. wasted ppm is failure-detection \
         plus recovery time over total run time, ×10⁶."
    );

    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote bench results to {path}");
    }
    if let Some(path) = &args.virtual_out {
        if let Err(e) = std::fs::write(path, report.virtual_section()) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote virtual section to {path}");
    }
    if let Some(path) = &args.flat_out {
        if let Err(e) = std::fs::write(path, &outcome.flat_profile) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote flat profile to {path}");
    }

    if let Some(path) = &args.baseline {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = match BenchReport::from_json(&src) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("failed to parse baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let violations = compare(report, &baseline, args.gate_pct, args.gate_wall_pct);
        if violations.is_empty() {
            println!(
                "perf gate: PASS ({} benches within {}% of {path})",
                baseline.benches.len(),
                args.gate_pct
            );
        } else {
            println!("perf gate: FAIL against {path}:");
            for v in &violations {
                println!("  regression: {v}");
            }
            std::process::exit(1);
        }
    }
}
