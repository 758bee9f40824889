//! Ablation: **checkpointing strategy**. The paper checkpoints "after
//! each method call" through an unoptimized per-value store and names
//! optimization as future work. This study quantifies the design space:
//! per-value vs bulk transport, and checkpoint frequency (every call vs
//! every k-th call).
//!
//! Usage: `cargo run --release -p ldft-bench --bin ablation_ckpt [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`

use corba_runtime::{ExperimentSpec, NamingMode};
use ftproxy::CheckpointMode;
use ldft_bench::{ablation_sweep, print_ablation, AblationRow, RunArgs};
use optim::FtSettings;

fn main() {
    let args = RunArgs::parse();
    eprintln!("ablation_ckpt: 6 strategies × {} seeds …", args.seeds.len());

    let ft = |mode, checkpoint_every| {
        Some(FtSettings {
            mode,
            checkpoint_every,
            max_recoveries: 4,
            ..FtSettings::default()
        })
    };
    let strategies = [
        ("no FT (baseline)", None),
        (
            "per-value, every call (paper)",
            ft(CheckpointMode::PerValue, 1),
        ),
        ("per-value, every 5th call", ft(CheckpointMode::PerValue, 5)),
        (
            "bulk, every call (future work (a))",
            ft(CheckpointMode::Bulk, 1),
        ),
        ("bulk, every 5th call", ft(CheckpointMode::Bulk, 5)),
        ("FT proxies, no checkpointing", ft(CheckpointMode::None, 1)),
    ];
    let rows = ablation_sweep(
        &args,
        strategies.map(|(label, ft)| {
            let mut spec = ExperimentSpec::dim100(NamingMode::Winner);
            spec.ft = ft;
            (label, spec)
        }),
    );

    let baseline = rows[0].runtime;
    print_ablation(
        &args,
        "Checkpoint-strategy ablation — 100-dim / 7 workers, unloaded, \
         runtime in virtual seconds",
        "strategy",
        &[("overhead [%]", None, &|r: &AblationRow| {
            format!("{:.1}", 100.0 * (r.runtime - baseline) / baseline)
        })],
        &rows,
        Some(
            "Reading: the per-value prototype dominates the cost; bulk transport \
             (the paper's future-work optimization) removes most of it, and \
             checkpointing less often removes most of the rest — at the price of \
             a larger recovery window.",
        ),
    );
}
