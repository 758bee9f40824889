//! Ablation: which Winner **selection policy** the naming service should
//! use. The paper's system manager picks "the machine with the currently
//! best performance"; this study compares that against least-loaded,
//! weighted-random, uniform-random and the plain (load-oblivious) service
//! under a fixed partial load.
//!
//! Usage: `cargo run --release -p ldft-bench --bin ablation_policy [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`

use corba_runtime::{ExperimentSpec, NamingMode, WinnerPolicy};
use ldft_bench::{ablation_sweep, print_ablation, AblationRow, RunArgs};

fn main() {
    let args = RunArgs::parse();
    let loaded = 3usize;
    eprintln!(
        "ablation_policy: 5 policies × {} seeds (loaded={loaded}) …",
        args.seeds.len()
    );

    let policies = [
        (
            "best-performance (paper)",
            Some(WinnerPolicy::BestPerformance),
        ),
        ("least-loaded", Some(WinnerPolicy::LeastLoaded)),
        ("weighted-random", Some(WinnerPolicy::WeightedRandom)),
        ("uniform-random", Some(WinnerPolicy::Uniform)),
        ("plain naming (round-robin)", None),
    ];
    let rows = ablation_sweep(
        &args,
        policies.map(|(label, policy)| {
            let spec = match policy {
                Some(p) => {
                    let mut s = ExperimentSpec::dim100(NamingMode::Winner);
                    s.policy = p;
                    s
                }
                None => ExperimentSpec::dim100(NamingMode::Plain),
            };
            (label, spec.loaded(loaded))
        }),
    );

    let best = rows.iter().map(|r| r.runtime).fold(f64::INFINITY, f64::min);
    print_ablation(
        &args,
        &format!(
            "Policy ablation — 100-dim / 7 workers, {loaded}/10 hosts loaded, \
             runtime in virtual seconds"
        ),
        "policy",
        &[("vs best", None, &|r: &AblationRow| {
            format!("+{:.0}%", 100.0 * (r.runtime - best) / best)
        })],
        &rows,
        None,
    );
}
