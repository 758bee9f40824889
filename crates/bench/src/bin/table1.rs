//! Regenerates the paper's **Table 1**: runtimes of the 100-dimensional /
//! 7-worker problem with and without fault-tolerance proxies, for a sweep
//! of worker iteration counts. The per-call checkpoint overhead is
//! constant, so the relative slowdown falls as calls get longer; the worst
//! case exceeds 3× the plain runtime — both as in the paper.
//!
//! Usage: `cargo run --release -p ldft-bench --bin table1 [--quick] [--seeds N]
//! [--trace-out PATH] [--metrics-out PATH]`

use ldft_bench::{table1_sweep, Csv, RunArgs, Table};
use optim::FtSettings;

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "table1: 5 iteration counts × (plain, proxy) × {} seeds …",
        args.seeds.len()
    );
    let rows = table1_sweep(&args, FtSettings::default());

    println!(
        "Table 1 — 100-dim Rosenbrock, 7 workers: runtimes with/without FT proxies\n\
         (per-value checkpointing after every call, as in the paper's prototype)\n"
    );
    let mut table = Table::new(vec![
        "Iterations",
        "Runtime without proxy [s]",
        "Runtime with proxy [s]",
        "Overhead [%]",
    ]);
    for r in &rows {
        table.row(vec![
            format!("{}", r.iterations),
            format!("{:.2}", r.without_proxy),
            format!("{:.2}", r.with_proxy),
            format!("{:.1}", r.overhead_pct()),
        ]);
    }
    println!("{}", table.render());

    let worst = rows
        .iter()
        .map(|r| r.with_proxy / r.without_proxy)
        .fold(0.0f64, f64::max);
    let monotone = rows
        .windows(2)
        .all(|w| w[1].overhead_pct() <= w[0].overhead_pct() + 1.0);
    println!(
        "worst case: {worst:.2}× the plain runtime (paper: \"more than three times\"); \
         relative overhead declines with iteration count: {monotone}"
    );

    if args.csv {
        println!();
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.iterations.to_string(),
                    format!("{:.4}", r.without_proxy),
                    format!("{:.4}", r.with_proxy),
                    format!("{:.2}", r.overhead_pct()),
                ]
            })
            .collect();
        print!(
            "{}",
            Csv::render(
                &[
                    "iterations",
                    "without_proxy_s",
                    "with_proxy_s",
                    "overhead_pct"
                ],
                &csv_rows
            )
        );
    }

    args.write_exports_or_exit();
}
