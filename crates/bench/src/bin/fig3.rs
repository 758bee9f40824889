//! Regenerates the paper's **Figure 3**: runtimes of the decomposed 30-
//! and 100-dimensional Rosenbrock optimization, with the plain and the
//! Winner-integrated naming service, under background load on 0/2/4/6/8
//! of the 10 NOW hosts.
//!
//! Usage: `cargo run --release -p ldft-bench --bin fig3 [--quick] [--seeds N]
//! [--trace-out PATH] [--metrics-out PATH]`

use ldft_bench::{fig3_sweep, Csv, RunArgs, Table};

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "fig3: sweeping 2 scenarios × 2 naming services × 5 load levels × {} seeds …",
        args.seeds.len()
    );
    let rows = fig3_sweep(&args);

    println!("Figure 3 — runtime (virtual s) vs number of hosts with background load");
    println!();
    let mut table = Table::new(vec![
        "curve", "loaded=0", "loaded=2", "loaded=4", "loaded=6", "loaded=8",
    ]);
    let curves: Vec<String> = {
        let mut c: Vec<String> = rows.iter().map(|r| r.curve.clone()).collect();
        c.dedup();
        c
    };
    for curve in &curves {
        let mut cells = vec![curve.clone()];
        for loaded in [0usize, 2, 4, 6, 8] {
            let r = rows
                .iter()
                .find(|r| &r.curve == curve && r.loaded == loaded)
                .expect("cell present");
            cells.push(format!("{:.2}", r.runtime));
        }
        table.row(cells);
    }
    println!("{}", table.render());

    // The paper's §4 summary numbers for each scenario.
    for label in ["30/3", "100/7"] {
        let plain: Vec<&ldft_bench::Fig3Row> = rows
            .iter()
            .filter(|r| r.curve == format!("CORBA {label}"))
            .collect();
        let winner: Vec<&ldft_bench::Fig3Row> = rows
            .iter()
            .filter(|r| r.curve == format!("CORBA/Winner {label}"))
            .collect();
        let mut best_reduction: f64 = 0.0;
        let mut total_reduction = 0.0;
        let mut worse_cells = 0;
        for (p, w) in plain.iter().zip(&winner) {
            let reduction = 100.0 * (p.runtime - w.runtime) / p.runtime;
            best_reduction = best_reduction.max(reduction);
            total_reduction += reduction;
            if w.runtime > p.runtime * 1.02 {
                worse_cells += 1;
            }
        }
        println!(
            "{label}: best-case runtime reduction {:.0}% (paper: ≈40%), \
             average {:.0}% (paper: ≈15%), cells where Winner was worse: {}",
            best_reduction,
            total_reduction / plain.len() as f64,
            worse_cells
        );
    }

    if args.csv {
        println!();
        let csv_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.curve.clone(),
                    r.n.to_string(),
                    r.workers.to_string(),
                    r.loaded.to_string(),
                    format!("{:.4}", r.runtime),
                    r.samples
                        .iter()
                        .map(|s| format!("{s:.4}"))
                        .collect::<Vec<_>>()
                        .join(";"),
                ]
            })
            .collect();
        print!(
            "{}",
            Csv::render(
                &["curve", "n", "workers", "loaded", "runtime_s", "samples_s"],
                &csv_rows
            )
        );
    }

    args.write_exports_or_exit();
}
