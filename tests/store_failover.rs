//! Checkpoint-store failover integration tests: a replicated `ldft-store`
//! deployment survives losing the primary replica mid-optimization (the
//! FT proxies re-resolve the store group and keep checkpointing to a
//! backup), while the paper's single-store baseline demonstrably stores
//! nothing from then on.

use corba_runtime::{
    run_experiment, CrashPlan, ExperimentOutcome, ExperimentSpec, NamingMode, StoreCrashPlan,
};
use optim::FtSettings;
use simnet::SimDuration;

/// When the primary store replica dies, counted from the manager's start.
const STORE_CRASH: SimDuration = SimDuration::from_millis(500);

/// The shared cell: Plain naming (deterministic placements and store
/// resolution), bulk checkpoints after every call, a primary-store crash
/// shortly after the manager starts, then a worker-host crash that forces
/// a restore — of a checkpoint a store backup acked.
fn failover_spec(store_replicas: usize) -> ExperimentSpec {
    let mut spec = ExperimentSpec {
        worker_iters: 2_000,
        manager_iters: 4,
        ..ExperimentSpec::dim100(NamingMode::Plain)
    };
    spec.seed = 41;
    spec.ft = Some(FtSettings {
        mode: ftproxy::CheckpointMode::Bulk,
        checkpoint_every: 1,
        max_recoveries: 6,
    });
    spec.request_timeout = SimDuration::from_secs(2);
    spec.store_replicas = store_replicas;
    // Index 0 is the replica a plain group-resolve returns first: the one
    // every checkpoint client is initially bound to.
    spec.store_crash = Some(StoreCrashPlan {
        after: STORE_CRASH,
        store_host_index: 0,
    });
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(550),
        now_host_index: 0,
        restart_after: None,
    });
    spec
}

fn run_replicated_cell() -> ExperimentOutcome {
    run_experiment(&failover_spec(2)).expect("replicated store run failed")
}

/// Tentpole acceptance, replicated side: with 2 store replicas the run
/// rides out the primary-store crash and converges to the same Complex
/// Box result as the crash-free run.
#[test]
fn replicated_store_failover_preserves_results() {
    let mut baseline_spec = failover_spec(2);
    baseline_spec.store_crash = None;
    baseline_spec.crash = None;
    let baseline = run_experiment(&baseline_spec).expect("crash-free run failed");
    let outcome = run_replicated_cell();
    let r = &outcome.report;

    // The faults were felt: a worker recovery happened and at least one
    // checkpoint client failed over to a surviving store replica.
    assert!(r.recoveries > 0, "worker crash must be felt: {r:?}");
    assert!(
        r.store_retargets > 0,
        "store crash must force a failover: {r:?}"
    );
    assert!(r.checkpoints > 0, "checkpoints must keep landing: {r:?}");

    // Recovery restored from a backup replica, so the optimization
    // trajectory is exactly the crash-free one.
    assert_eq!(
        r.best_value.to_bits(),
        baseline.report.best_value.to_bits(),
        "crashed run must converge to the crash-free result"
    );
    assert_eq!(
        r.best_point, baseline.report.best_point,
        "crashed run must converge to the crash-free point"
    );

    // And the result is self-consistent (decomposition identity).
    let direct =
        <optim::Rosenbrock as optim::Problem>::eval(&optim::Rosenbrock::new(100), &r.best_point);
    assert!(
        (direct - r.best_value).abs() < 1e-6 * (1.0 + direct.abs()),
        "decomposition broken after failover: {} vs {}",
        direct,
        r.best_value
    );
}

/// Every checkpoint the run attempted after the store died failed, and
/// those are all the calls that stored nothing.
fn assert_nothing_stored_after(outcome: &ExperimentOutcome, store_crash: SimDuration) {
    let s = &outcome.report;
    let crash_ns = (outcome.started_at + store_crash).as_nanos();
    let spans = outcome.obs.spans();
    let after: Vec<_> = spans
        .iter()
        .filter(|sp| sp.name == "ft.checkpoint" && sp.end_ns > crash_ns)
        .collect();
    assert_eq!(after.len() as u64, s.worker_calls - s.checkpoints);
    assert!(
        after
            .iter()
            .all(|sp| sp.tags.iter().any(|(k, v)| k == "ok" && v == "false")),
        "a checkpoint landed on a dead store"
    );
}

/// Tentpole acceptance, baseline side: the same scenario with the paper's
/// single checkpoint store. Once the store host dies nothing is durable
/// any more: no checkpoint is ever stored again, where the replicated
/// cell keeps landing one per call. The run itself completes — the
/// proxies restore their own copy of the last acked checkpoint — from
/// state as old as the store's death; a proxy without a copy, a restarted
/// client, would find nothing.
#[test]
fn single_replica_store_is_a_single_point_of_failure() {
    let single = run_experiment(&failover_spec(1)).expect("warm proxies recover without a store");
    let (s, r) = (&single.report, &run_replicated_cell().report);
    assert!(s.recoveries > 0, "worker crash must be felt: {s:?}");
    assert_eq!(r.checkpoints, r.worker_calls, "{r:?}");
    assert!(s.checkpoints < s.worker_calls, "{s:?}");
    assert_nothing_stored_after(&single, STORE_CRASH);
    // Its answer is not pinned, unlike the replicated run's (equal to a
    // fault-free run's, above): the recovery restores state as old as the
    // store's death, and the next `solve` warm-starts from that.

    // An earlier schedule — the store dies at 300 ms, the worker host at
    // 450 ms — restores a copy older by more calls; the run still
    // completes, and still stores nothing after the store's death.
    let early_crash = SimDuration::from_millis(300);
    let mut early = failover_spec(1);
    early.store_crash = Some(StoreCrashPlan {
        after: early_crash,
        store_host_index: 0,
    });
    early.crash = Some(CrashPlan {
        after: SimDuration::from_millis(450),
        now_host_index: 0,
        restart_after: None,
    });
    let early = run_experiment(&early).expect("warm proxies recover without a store");
    let e = &early.report;
    assert!(e.recoveries > 0, "worker crash must be felt: {e:?}");
    assert!(e.checkpoints < e.worker_calls, "{e:?}");
    assert_nothing_stored_after(&early, early_crash);
}

/// Satellite: the failover leaves a causal span trail — the retarget
/// re-resolves the store group (`serve:resolve` inside
/// `ft.store_retarget`), and what the post-crash restore pushes was
/// acked by the backup replica.
#[test]
fn failover_span_tree_shows_resolve_then_backup_restore() {
    let outcome = run_replicated_cell();
    let spans = outcome.obs.spans();
    let crash_ns = (outcome.started_at + STORE_CRASH).as_nanos();

    let retarget = spans
        .iter()
        .find(|s| s.name == "ft.store_retarget")
        .expect("no ft.store_retarget span recorded");
    assert!(retarget.start_ns >= crash_ns, "retarget precedes the crash");
    // The re-resolve of the store group happens inside the retarget span,
    // on the naming host, one hop away.
    assert!(
        spans.iter().any(|s| s.name == "serve:resolve"
            && s.trace_id == retarget.trace_id
            && s.start_ns >= retarget.start_ns
            && s.end_ns <= retarget.end_ns),
        "retarget must re-resolve the store name"
    );

    // The worker recovery after the store crash: ft.recover → ft.restore,
    // and the restore asks no store replica — the proxy pushes its own
    // copy of the last acked checkpoint. The backup's part in that
    // restore came earlier: it acked the checkpoints the copy is a copy
    // of. With dim100 auto-placement the two replicas sit on the two
    // highest-numbered NOW hosts; the crashed primary is host 9, the
    // surviving backup host 10.
    let restore = spans
        .iter()
        .filter(|s| s.name == "ft.restore" && s.start_ns >= crash_ns)
        .min_by_key(|s| s.start_ns)
        .expect("no post-crash ft.restore span recorded");
    let recover = spans
        .iter()
        .filter(|s| s.name == "ft.recover" && s.trace_id == restore.trace_id)
        .min_by_key(|s| s.start_ns)
        .expect("restore without a recovery in its trace");
    assert!(
        recover.start_ns <= restore.start_ns,
        "recovery must precede the restore"
    );
    assert!(
        !spans.iter().any(|s| s.name.starts_with("serve:retrieve")
            && s.start_ns >= restore.start_ns
            && s.end_ns <= restore.end_ns),
        "a warm proxy's restore must not read the store"
    );
    let mut acked = spans
        .iter()
        .filter(|s| {
            s.name == "serve:store" && s.start_ns >= crash_ns && s.end_ns <= restore.start_ns
        })
        .peekable();
    assert!(
        acked.peek().is_some(),
        "no checkpoint landed between the store crash and the recovery"
    );
    assert!(
        acked.all(|s| s.host == 10),
        "post-crash checkpoints must be acked by the surviving backup replica"
    );
}

/// Satellite: the failover cell is deterministic — two runs with the same
/// seed produce byte-identical observability exports.
#[test]
fn failover_runs_are_byte_identical_across_same_seed_runs() {
    let a = run_replicated_cell();
    let b = run_replicated_cell();
    assert_eq!(
        a.obs.chrome_trace_json(),
        b.obs.chrome_trace_json(),
        "same-seed failover traces must be byte-identical"
    );
    assert_eq!(
        a.obs.metrics_text(),
        b.obs.metrics_text(),
        "same-seed failover metrics must be byte-identical"
    );
    let c = run_experiment(&failover_spec(2).seed(42)).expect("run failed");
    assert_ne!(
        a.obs.chrome_trace_json(),
        c.obs.chrome_trace_json(),
        "a different seed must change the trace"
    );
}
