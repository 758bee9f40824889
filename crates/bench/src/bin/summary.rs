//! Reproduces the paper's evaluation and gates it: runs the Figure 3 and
//! Table 1 sweeps and the four ablations (checkpoint strategy, selection
//! policy, recovery cost, store replication) once each, prints every
//! table (with CSV unless `--no-csv`), then checks every claim
//! (`ldft_bench::claims`) and exits 1 when any reads ✗ (CI runs
//! `summary --quick`).
//!
//! Usage: `cargo run --release -p ldft-bench --bin summary [--quick]
//! [--seeds N] [--scale F] [--no-csv]`

use ldft_bench::claims::{self, Sweeps};
use ldft_bench::sweeps::{self, FIG3_LOADS};
use ldft_bench::{usage_exit, Row, RunArgs, Section, Table};

fn fig3_section(rows: &[Row]) -> Section {
    let loads = FIG3_LOADS.map(|l| format!("loaded={l}"));
    let table = Table::new(["curve".to_string()].into_iter().chain(loads).collect());
    let title = "Figure 3 — runtime (virtual s) vs number of hosts with background load";
    let mut s = Section::new(title, table, "curve,n,workers,loaded,runtime_s,samples_s");
    for curve in rows.chunks(FIG3_LOADS.len()) {
        let runtimes = curve.iter().map(|r| format!("{:.2}", r.runtime));
        s.table.row(
            [curve[0].label.clone()]
                .into_iter()
                .chain(runtimes)
                .collect(),
        );
    }
    for r in rows {
        let samples: Vec<String> = r
            .reports
            .iter()
            .map(|s| format!("{:.4}", s.elapsed.as_secs_f64()))
            .collect();
        let (n, w, loaded, t) = (r.spec.n, r.spec.workers, r.spec.loaded_hosts, r.runtime);
        s.csv.push(format!(
            "{},{n},{w},{loaded},{t:.4},{}",
            r.label,
            samples.join(";")
        ));
    }
    for scenario in rows.chunks(2 * FIG3_LOADS.len()) {
        let ((best, avg, worse), spec) = (claims::reduction(scenario), &scenario[0].spec);
        s.notes.push(format!(
            "{}/{}: best-case runtime reduction {best:.0}% (paper: ≈40%), average {avg:.0}% \
             (paper: ≈15%), cells where Winner was worse: {worse}",
            spec.n, spec.workers
        ));
    }
    s
}

fn table1_section(rows: &[Row]) -> Section {
    let title = "Table 1 — 100-dim Rosenbrock, 7 workers: runtimes with/without FT proxies\n\
                 (per-value checkpointing after every call, as in the paper's prototype)";
    let header = [
        "Iterations",
        "Runtime without proxy [s]",
        "Runtime with proxy [s]",
    ];
    let table = Table::new(header.into_iter().chain(["Overhead [%]"]).collect());
    let csv = "iterations,without_proxy_s,with_proxy_s,overhead_pct";
    let mut s = Section::new(title, table, csv);
    let iterations = rows.iter().step_by(2).map(|r| r.spec.worker_iters);
    for (i, (plain, ft, pct)) in iterations.zip(claims::ft_pairs(rows)) {
        let cells = [
            format!("{plain:.2}"),
            format!("{ft:.2}"),
            format!("{pct:.1}"),
        ];
        s.table
            .row([i.to_string()].into_iter().chain(cells).collect());
        s.csv.push(format!("{i},{plain:.4},{ft:.4},{pct:.2}"));
    }
    s
}

/// An ablation column after the label and the runtime: its header,
/// whether the CSV carries it too (headed in `snake_case`), and a row's
/// cell.
type Column<'a> = (&'static str, bool, &'a dyn Fn(&Row) -> String);

fn ablation_section(
    title: &str,
    key: &str,
    rows: &[Row],
    columns: &[Column<'_>],
    reading: &str,
) -> Section {
    let header = [key, "runtime [s]"]
        .into_iter()
        .chain(columns.iter().map(|c| c.0));
    let in_csv: Vec<&Column<'_>> = columns.iter().filter(|c| c.1).collect();
    let mut csv_header = vec![key.to_string(), "runtime_s".into()];
    csv_header.extend(in_csv.iter().map(|c| c.0.replace(' ', "_")));
    let mut s = Section::new(title, Table::new(header.collect()), &csv_header.join(","));
    for r in rows {
        let cells = columns.iter().map(|c| c.2(r));
        let shown = [r.label.clone(), format!("{:.2}", r.runtime)].into_iter();
        s.table.row(shown.chain(cells).collect());
        let mut csv = vec![r.label.clone(), format!("{:.4}", r.runtime)];
        csv.extend(in_csv.iter().map(|c| c.2(r)));
        s.csv.push(csv.join(","));
    }
    s.notes.push(format!("Reading: {reading}"));
    s
}

/// `+N%` over `base`.
fn over(base: f64) -> impl Fn(&Row) -> String {
    move |r| format!("+{:.0}%", 100.0 * (r.runtime - base) / base)
}

fn counter(field: fn(&optim::RunReport) -> u64) -> impl Fn(&Row) -> String {
    move |r| r.total(field).to_string()
}

fn ablation_sections(s: &Sweeps) -> [Section; 4] {
    let base = s.ckpt[0].runtime;
    let overhead = |r: &Row| format!("{:.1}", 100.0 * (r.runtime - base) / base);
    let best = s
        .policy
        .iter()
        .map(|r| r.runtime)
        .fold(f64::INFINITY, f64::min);
    let recoveries = counter(|r| r.recoveries);
    [
        ablation_section(
            "Checkpoint-strategy ablation — 100-dim / 7 workers, unloaded, runtime in virtual \
             seconds",
            "strategy",
            &s.ckpt,
            &[("overhead [%]", false, &overhead)],
            "the per-value prototype dominates the cost; bulk transport (the paper's \
             future-work optimization) removes most of it, and checkpointing less often \
             removes most of the rest — at the price of a larger recovery window.",
        ),
        ablation_section(
            &format!(
                "Policy ablation — 100-dim / 7 workers, {}/10 hosts loaded, runtime in virtual \
                 seconds",
                sweeps::policy::LOADED
            ),
            "policy",
            &s.policy,
            &[("vs best", false, &over(best))],
            "with homogeneous hosts, best-performance and least-loaded coincide; any \
             randomness in placement forfeits most of the benefit, because one slow worker \
             stalls every manager evaluation.",
        ),
        ablation_section(
            "Recovery ablation — 100-dim / 7 workers; a worker host crashes 40% into the \
             baseline runtime where applicable",
            "setting",
            &s.recovery,
            &[
                ("vs baseline", false, &over(s.recovery[0].runtime)),
                ("recoveries", true, &recoveries),
            ],
            "without FT a crash would abort the run (the paper's motivation); with FT it \
             completes, paying detection plus restart/restore, and the replacement shares a \
             host with another worker for the rest of the run (7 workers, 7 hosts). \
             Detection is the ORB asking the silent worker's host with keepalives, so the \
             60 s and the short request timeout cost the same.",
        ),
        ablation_section(
            "Replication ablation — 100-dim / 7 workers, bulk checkpoints after every call; \
             faulty cells crash the primary store host at +0.6 s and a worker host at +1.5 s",
            "setting",
            &s.replication,
            &[
                ("checkpoints", true, &counter(|r| r.checkpoints)),
                ("store failovers", true, &counter(|r| r.store_retargets)),
                ("recoveries", true, &recoveries),
            ],
            "replication adds a small, flat cost per checkpoint. Under the store crash the \
             replicated runs fail over and keep checkpointing; the single-store run finishes \
             on its proxies' own copies, but nothing it checkpoints after the crash is stored.",
        ),
    ]
}

fn main() {
    let args = RunArgs::parse();
    if args.trace_out.is_some() || args.metrics_out.is_some() {
        usage_exit("summary writes no exports; `doctor` does", "");
    }
    eprintln!(
        "summary: Figure 3, Table 1 and four ablations, {} seed(s)",
        args.seeds.len()
    );
    let s = Sweeps {
        fig3: sweeps::fig3_sweep(&args),
        table1: sweeps::table1_sweep(&args),
        ckpt: sweeps::ckpt_sweep(&args),
        policy: sweeps::policy_sweep(&args),
        recovery: sweeps::recovery_sweep(&args),
        replication: sweeps::replication_sweep(&args),
    };
    eprintln!();
    let mut sections = vec![fig3_section(&s.fig3), table1_section(&s.table1)];
    sections.extend(ablation_sections(&s));
    for section in &sections {
        println!("{}", section.render(args.csv));
    }

    let checked = claims::check(&s);
    let mut table = Table::new(vec!["source", "claim", "measured", "verdict"]);
    for c in &checked {
        let verdict = if c.holds {
            "✓ reproduced"
        } else {
            "✗ NOT reproduced"
        };
        table.row(vec![c.source, c.claim, &c.measured, verdict]);
    }
    println!("Claims vs this reproduction\n\n{}", table.render());
    let failed = checked.iter().filter(|c| !c.holds).count();
    if failed > 0 {
        eprintln!("summary: {failed} claim(s) NOT reproduced");
        std::process::exit(1);
    }
}
