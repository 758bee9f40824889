//! Ablation: **checkpoint-store replication**. The paper deploys a single
//! checkpoint service — a single point of failure its own Section 5
//! acknowledges. This study measures what `ldft-store` replication costs
//! when nothing fails, and what it buys when the primary store host
//! crashes mid-run (with a worker crash right after, so a recovery
//! restores state checkpointed to whatever store was left).
//!
//! Usage: `cargo run --release -p ldft-bench --bin ablation_replication
//! [--quick] [--seeds N] [--trace-out PATH] [--metrics-out PATH]`

use corba_runtime::{CrashPlan, ExperimentSpec, NamingMode, StoreCrashPlan};
use ftproxy::CheckpointMode;
use ldft_bench::{ablation_sweep, print_ablation, AblationRow, RunArgs};
use optim::FtSettings;
use simnet::SimDuration;

/// The shared cell: Plain naming (deterministic store binding, so crash
/// index 0 always hits the primary), bulk checkpoints after every call.
fn base_spec(replicas: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec::dim100(NamingMode::Plain);
    spec.ft = Some(FtSettings {
        mode: CheckpointMode::Bulk,
        checkpoint_every: 1,
        max_recoveries: 6,
        ..FtSettings::default()
    });
    // Stays: after both crashes a recovering proxy re-resolves onto the idle
    // worker server on the dead store host, which the manager never called,
    // and a first contact waits this out once (58 s more at the default).
    spec.request_timeout = SimDuration::from_secs(2);
    spec.store_replicas = replicas;
    spec
}

fn with_crashes(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.store_crash = Some(StoreCrashPlan {
        after: SimDuration::from_millis(600),
        store_host_index: 0,
    });
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(1500),
        now_host_index: 0,
        restart_after: None,
    });
    spec
}

const NO_FAULTS: &str = "replication overhead";
const FAILOVER: &str = "failover, checkpoints keep landing";
const SPOF: &str = "NOTHING STORED after the crash — single point of failure";

fn main() {
    let args = RunArgs::parse();
    eprintln!(
        "ablation_replication: 6 settings × {} seeds …",
        args.seeds.len()
    );

    // Crash-free side: the price of replication (every checkpoint fans
    // out to the backups before it acks). Faulty side: primary store host
    // crashes, then a worker host. Last the paper's deployment under the
    // same faults: the run survives on the proxies' own copies, but
    // nothing is stored after the crash.
    let healthy = [1usize, 2, 3].map(|n| (format!("{n} replica(s), no faults"), base_spec(n)));
    let faulty = [2usize, 3, 1].map(|n| {
        let label = format!("{n} replica(s), store + worker crash");
        (label, with_crashes(base_spec(n)))
    });
    let rows = ablation_sweep(&args, healthy.into_iter().chain(faulty));
    let note = |r: &AblationRow| match (&r.spec.store_crash, r.spec.store_replicas) {
        (None, _) => NO_FAULTS,
        (Some(_), 1) => SPOF,
        (Some(_), _) => FAILOVER,
    };
    for r in &rows {
        let lost = r.total(|rep| rep.checkpoints) < r.total(|rep| rep.worker_calls);
        assert_eq!(
            lost,
            note(r) == SPOF,
            "only a single store under faults is a single point of failure"
        );
    }

    print_ablation(
        &args,
        "Replication ablation — 100-dim / 7 workers, bulk checkpoints after \
         every call; faulty cells crash the primary store host at +0.6 s and \
         a worker host at +1.5 s",
        "setting",
        &[
            ("checkpoints", Some("checkpoints"), &|r: &AblationRow| {
                r.total(|rep| rep.checkpoints).to_string()
            }),
            (
                "store failovers",
                Some("store_failovers"),
                &|r: &AblationRow| r.total(|rep| rep.store_retargets).to_string(),
            ),
            ("recoveries", Some("recoveries"), &|r: &AblationRow| {
                r.total(|rep| rep.recoveries).to_string()
            }),
            ("note", None, &|r: &AblationRow| note(r).to_string()),
        ],
        &rows,
        Some(
            "Reading: replication adds a small, flat cost per checkpoint (the \
             backup round-trips overlap the next worker call). Under the store \
             crash the replicated runs pay one failover and keep checkpointing; \
             the single-store run finishes too — its proxies restore their own \
             copy of the last acked checkpoint — but every later checkpoint fails \
             (and costs a failed failover): nothing is durable any more, the \
             failure mode replication exists to remove.",
        ),
    );
}
