//! Checks the paper's §4 **prose claims** against measured data:
//!
//! * load distribution yields "ca. 40% runtime reduction in the best case",
//! * "even in the worst case it yields at least the same results as the
//!   unmodified naming service",
//! * "an average reduction of computation time of about 15%",
//! * FT proxies cost "more than three times" the plain runtime in the
//!   worst case, with a constant per-call overhead.
//!
//! A gate: it exits 1 when any claim reads ✗ (CI runs `summary --quick`).
//!
//! Usage: `cargo run --release -p ldft-bench --bin summary [--quick] [--seeds N]`

use ldft_bench::{fig3_sweep, table1_sweep, RunArgs, Table};
use optim::FtSettings;

fn main() {
    let args = RunArgs::parse();
    eprintln!("summary: running the Figure 3 sweep …");
    let fig3 = fig3_sweep(&args);
    eprintln!("summary: running the Table 1 sweep …");
    let table1 = table1_sweep(&args, FtSettings::default());

    let mut t = Table::new(vec!["claim (paper)", "measured", "verdict"]);
    let mut failed = 0usize;
    let mut verdict = |ok: bool| {
        failed += usize::from(!ok);
        if ok {
            "✓ reproduced"
        } else {
            "✗ NOT reproduced"
        }
        .to_string()
    };

    // Claim 1: best-case reduction ≈ 40%.
    let mut best = 0.0f64;
    let mut reductions = Vec::new();
    let mut worse = 0usize;
    for r in &fig3 {
        if matches!(r.naming, corba_runtime::NamingMode::Winner) {
            let plain = fig3
                .iter()
                .find(|p| {
                    matches!(p.naming, corba_runtime::NamingMode::Plain)
                        && p.n == r.n
                        && p.loaded == r.loaded
                })
                .expect("paired plain cell");
            let red = 100.0 * (plain.runtime - r.runtime) / plain.runtime;
            reductions.push(red);
            best = best.max(red);
            if r.runtime > plain.runtime * 1.02 {
                worse += 1;
            }
        }
    }
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    t.row(vec![
        "best-case runtime reduction ≈ 40%".to_string(),
        format!("{best:.0}%"),
        verdict(best >= 25.0),
    ]);
    t.row(vec![
        "average reduction ≈ 15%".to_string(),
        format!("{avg:.0}%"),
        verdict((5.0..=35.0).contains(&avg)),
    ]);
    t.row(vec![
        "never worse than the plain service".to_string(),
        format!("{worse} cells worse"),
        verdict(worse == 0),
    ]);

    // Claim 4: FT worst case more than 3×, overhead declines.
    let worst = table1
        .iter()
        .map(|r| r.with_proxy / r.without_proxy)
        .fold(0.0f64, f64::max);
    t.row(vec![
        "FT worst case > 3× plain runtime".to_string(),
        format!("{worst:.2}×"),
        verdict(worst > 3.0),
    ]);
    let declines = table1
        .windows(2)
        .all(|w| w[1].overhead_pct() <= w[0].overhead_pct() + 1.0);
    t.row(vec![
        "relative FT overhead declines with call length".to_string(),
        format!("{declines}"),
        verdict(declines),
    ]);
    // Constant per-call overhead: absolute overhead varies far less than
    // the runtimes do.
    let overheads: Vec<f64> = table1
        .iter()
        .map(|r| r.with_proxy - r.without_proxy)
        .collect();
    let omin = overheads.iter().cloned().fold(f64::INFINITY, f64::min);
    let omax = overheads.iter().cloned().fold(0.0f64, f64::max);
    let near_constant = omax / omin < 1.5;
    t.row(vec![
        "per-call overhead is constant".to_string(),
        format!("abs. overhead {omin:.1}–{omax:.1} s across the sweep"),
        verdict(near_constant),
    ]);

    println!("§4 claims vs this reproduction\n");
    println!("{}", t.render());
    if failed > 0 {
        eprintln!("summary: {failed} claim(s) NOT reproduced");
        std::process::exit(1);
    }
}
