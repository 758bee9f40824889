//! Exploration selfcheck: pins the explorer's counters at a small fixed
//! budget so a change to the kernel's choice-point layout, the
//! independence relation, or a target cell shows up as a reviewable
//! diff here — the same re-pin discipline as `ldft-lint`'s selfcheck.

use std::collections::BTreeMap;

use explore::{explore, replay, target_by_name, ExploreConfig};

fn pin_config() -> ExploreConfig {
    ExploreConfig {
        budget: 40,
        max_deviations: 3,
        max_width: 4,
        audits_per_parent: 1,
        shrink_budget: 60,
    }
}

/// (explored, audited, pruned, choice_points_seen) per gate cell, and
/// that every run fit its plan and hit one semantic digest.
#[test]
fn gate_cell_counts_are_pinned() {
    let pins: BTreeMap<&str, (usize, usize, usize, u64)> = BTreeMap::from([
        // Re-pinned when the ORB began to probe silent peers. quorum_heal
        // was 360: a replica whose peer is behind the cut now sends it
        // keepalives, whose timers and drops tie with the run's other
        // events. recovery_race was (42, 2, 120, 546): the driver no
        // longer sits out a 2 s timeout after the crash, so the run ends
        // before the boot calls' stale 2 s timers expire — those no-op
        // timer ties were every choice point the relation could prune.
        ("quorum_heal", (40, 0, 0, 390)),
        ("recovery_race", (40, 0, 0, 440)),
    ]);
    for (name, want) in pins {
        let target = target_by_name(name).unwrap_or_else(|| panic!("missing target {name}"));
        let out = explore(target.as_ref(), &pin_config());
        let s = &out.stats;
        assert_eq!(
            (s.explored, s.audited, s.pruned, s.choice_points_seen),
            want,
            "{name}: counters drifted — re-pin after reviewing the change"
        );
        assert_eq!(s.misfit_runs, 0, "{name}");
        assert_eq!(s.distinct_digests, 1, "{name}: schedules diverged");
        assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
        assert_eq!(s.distinct_schedules(), s.explored - s.audited, "{name}");
    }
}

/// The find → shrink → token → replay pipeline, end to end, on the
/// reference counterexample: the explorer must find the planted race,
/// ddmin must get a plan down to a single deviation, and the minted
/// token must reproduce the violation with a fresh fingerprint.
#[test]
fn demo_race_pipeline_finds_shrinks_and_replays() {
    let target = target_by_name("demo_race").expect("demo_race resolvable by name");
    let out = explore(target.as_ref(), &pin_config());
    assert!(
        !out.violations.is_empty(),
        "the planted race was not found: {:?}",
        out.stats
    );
    let minimal = out
        .violations
        .iter()
        .find(|v| v.token.plan.len() == 1)
        .expect("no violation shrank to a single deviation");
    assert!(!minimal.robustness);
    assert!(minimal.oracle.iter().any(|o| o.contains("do not commute")));
    // Round-trip the token through its wire form, then replay it.
    let token = minimal
        .token
        .to_string()
        .parse()
        .expect("minted token round-trips");
    let (run, fresh) = replay(target.as_ref(), &token);
    assert!(fresh, "minted token already stale");
    assert!(!run.violations.is_empty(), "token failed to reproduce");
    assert!(out.stats.shrink_runs > 0, "ddmin never ran");
}
