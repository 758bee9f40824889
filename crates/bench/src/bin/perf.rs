//! The standardized performance suite and its regression gate.
//!
//! Runs the `ldft-perf` suite (a GIOP round-trip cell, a store
//! quorum-write cell, the Figure 3 macro cell, and a chaos cell reporting
//! wasted work) and emits the schema-stable report that is committed as
//! `results/BENCH_baseline.json`. Every field is virtual time, a pure
//! function of the seed, so the CI perf-gate is "regenerate the committed
//! file, fail on any diff": a regression fails it, and so does an
//! improvement nobody recorded.
//!
//! Usage: `cargo run --release -p ldft-bench --bin perf --
//! [--quick] [--seeds N] [--scale F] [--out PATH] [--flat-out PATH]`

use ldft_bench::perf::run_suite;
use ldft_bench::{usage_exit, RunArgs, Table};

const EXTRA: &str = "[--out PATH] [--flat-out PATH] ";

fn write_or_exit(path: &str, what: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {path}");
}

fn main() {
    // Strip this bin's own flags, forward the rest to the shared parser.
    let mut out = None;
    let mut flat_out = None;
    let mut rest = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        let slot = match a.as_str() {
            "--out" => &mut out,
            "--flat-out" => &mut flat_out,
            _ => {
                rest.push(a);
                continue;
            }
        };
        let path = raw.next();
        *slot = Some(path.unwrap_or_else(|| usage_exit(&format!("{a} takes a path"), EXTRA)));
    }
    let args = RunArgs::parse_from(rest).unwrap_or_else(|e| usage_exit(&e, EXTRA));
    let outcome = run_suite(&args);
    let report = &outcome.report;

    println!(
        "ldft-perf suite — seed {}, scale {}\n",
        report.seed, report.scale
    );
    let mut table = Table::new(vec![
        "bench",
        "kind",
        "virtual ms",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "wasted ppm",
    ]);
    for b in &report.benches {
        table.row(vec![
            b.name.clone(),
            b.kind.clone(),
            format!("{:.3}", b.virtual_ns as f64 / 1e6),
            format!("{:.1}", b.p50_ns as f64 / 1e3),
            format!("{:.1}", b.p95_ns as f64 / 1e3),
            format!("{:.1}", b.p99_ns as f64 / 1e3),
            b.wasted_work_ppm.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: every column is virtual time, deterministic per seed, and gated \
         in CI (perf-gate regenerates results/BENCH_baseline.json and fails on a \
         diff). wasted ppm is failure-detection plus recovery time over total run \
         time, ×10⁶."
    );

    if let Some(path) = &out {
        write_or_exit(path, "bench results", &report.to_json());
    }
    if let Some(path) = &flat_out {
        write_or_exit(path, "flat profile", &outcome.flat_profile);
    }
}
