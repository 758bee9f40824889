//! Exploration targets: small, fast simulation cells whose schedule
//! space the explorer enumerates. Each cell is a miniature of one of the
//! workspace's race-prone scenarios:
//!
//! * [`quorum_heal`] — quorum writes through the replicated checkpoint
//!   store while a partition cuts one replica off and heals mid-stream.
//! * [`recovery_race`] — FT-proxy failure recovery racing the checkpoint
//!   store after a mid-stream host crash.
//! * [`demo_race`] — the reference counterexample (a deliberate
//!   last-writer-wins race), off the gate sweep, used by the
//!   EXPERIMENTS.md walkthrough and the pipeline selfcheck.
//!
//! A cell run is a pure function of `(seed, deviation plan)`: the kernel
//! seed is fixed per target, the plan is the only input that varies, and
//! [`RunOutcome::digest`] hashes the run's *semantic* final state — the
//! values the paper's guarantees speak about (acked epochs, counter
//! sequences, delivered event streams), never incidental internals.

use std::collections::BTreeMap;

use simnet::{Kernel, KernelEvent, Shared, SimTime};

use crate::policy::{ChoiceLog, PlanPolicy};

pub mod demo_race;
pub mod quorum_heal;
pub mod recovery_race;

/// What one instrumented cell run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// FNV-1a digest of the run's semantic final state.
    pub digest: u64,
    /// Invariant-oracle violations (empty on a clean run).
    pub violations: Vec<String>,
    /// The recorded choice sequence.
    pub log: ChoiceLog,
    /// Virtual end time of the run.
    pub end_ns: u64,
}

/// One explorable cell.
pub trait Target {
    /// Stable cell name (used in replay tokens and reports).
    fn name(&self) -> &'static str;
    /// The fixed kernel seed the cell runs under.
    fn seed(&self) -> u64;
    /// Execute the cell under `plan` and collect the outcome.
    fn run(&self, plan: &BTreeMap<u64, usize>) -> RunOutcome;
}

/// All gate targets, in report order. [`demo_race`] is deliberately not
/// here — its oracle is schedule-fragile by design (the reference
/// counterexample), so the default sweep would always be red.
pub fn all_targets() -> Vec<Box<dyn Target>> {
    vec![
        Box::new(quorum_heal::QuorumHeal),
        Box::new(recovery_race::RecoveryRace),
    ]
}

/// Look a target up by its token/CLI name. Unlike [`all_targets`], this
/// also resolves the off-gate [`demo_race`] cell so `--target demo_race`
/// and its replay tokens work.
pub fn target_by_name(name: &str) -> Option<Box<dyn Target>> {
    if name == "demo_race" {
        return Some(Box::new(demo_race::DemoRace));
    }
    all_targets().into_iter().find(|t| t.name() == name)
}

/// Kernel-side instrumentation shared by every cell: the plan-following
/// schedule policy, plus an event hook forwarding every kernel event to
/// the cell's own consumer (typically the monitor's `on_kernel_event`).
/// Returns the choice log the policy records into.
pub(crate) fn instrument(
    kernel: &mut Kernel,
    plan: &BTreeMap<u64, usize>,
    forward: impl FnMut(SimTime, &KernelEvent) + Send + 'static,
) -> Shared<ChoiceLog> {
    let log = Shared::new(ChoiceLog::default());
    kernel.set_schedule_policy(PlanPolicy::new(plan.clone(), log.clone()));
    kernel.set_event_hook(forward);
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every target's default schedule must be clean (no oracle
    /// violations) and reproducible (same digest twice).
    #[test]
    fn default_schedules_are_clean_and_reproducible() {
        let mut targets = all_targets();
        targets.extend(target_by_name("demo_race"));
        for target in targets {
            let plan = BTreeMap::new();
            let a = target.run(&plan);
            assert_eq!(
                a.violations,
                Vec::<String>::new(),
                "{}: default schedule violates its oracles",
                target.name()
            );
            assert!(a.log.misfits.is_empty(), "{}", target.name());
            assert!(
                !a.log.points.is_empty(),
                "{}: no choice points — nothing to explore",
                target.name()
            );
            let b = target.run(&plan);
            assert_eq!(
                a.digest,
                b.digest,
                "{}: digest not reproducible",
                target.name()
            );
            assert_eq!(a.end_ns, b.end_ns, "{}", target.name());
        }
    }
}
