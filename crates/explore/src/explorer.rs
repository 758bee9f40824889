//! The bounded DPOR explorer: breadth-first enumeration of deviation
//! plans over a target's choice sequence.
//!
//! A node in the exploration tree is a deviation plan (choice ordinal →
//! candidate index). Its children extend the plan at ordinals strictly
//! after the parent's last deviation — the kernel guarantees *prefix
//! stability* (deviating at ordinal `o` leaves choice points `0..o`
//! identical), so every child plan applies cleanly to the schedule it
//! was derived from. The number of deviations per plan is capped
//! (`max_deviations`, the classic delay bound), which keeps the tree
//! finite and biases exploration toward the low-deviation schedules
//! where races live.
//!
//! A child deviation that picks candidate `alt` at a tie overtakes
//! candidates `0..alt`. When `alt` commutes with each of them under the
//! independence relation ([`crate::independence`]), the child schedule
//! is Mazurkiewicz-equivalent to its parent and is *pruned* — counted
//! but not run. The first few pruned children of every parent are
//! *audited* all the same: actually executed and required to reproduce
//! the parent's semantic digest byte for byte (the schedule-robustness
//! oracle). An audit mismatch is a violation like any other:
//! ddmin-shrunk and minted into a replay token.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::independence::commutes;
use crate::policy::ChoiceLog;
use crate::shrink::ddmin;
use crate::targets::{RunOutcome, Target};
use crate::token::ReplayToken;

/// Exploration bounds. All limits are deterministic counters, never
/// wall-clock, so a given (target, config) pair always explores the
/// same tree.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum distinct live runs, including the root schedule. Audit
    /// runs ride on top (bounded by `audits_per_parent` per expanded
    /// parent), so total live runs stay within a small multiple.
    pub budget: usize,
    /// Delay bound: maximum deviations per plan.
    pub max_deviations: usize,
    /// Alternatives considered per choice point (candidate indices
    /// `1..max_width` — wide ties are truncated to bound branching).
    pub max_width: usize,
    /// Pruned children audited per parent (schedule-robustness oracle).
    pub audits_per_parent: usize,
    /// Maximum ddmin probes per violation (each probe re-runs the cell).
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: 600,
            max_deviations: 3,
            max_width: 4,
            audits_per_parent: 2,
            shrink_budget: 60,
        }
    }
}

/// Counters pinned by the explore selfcheck and printed by the report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Live runs executed (root + non-pruned children + audits; shrink
    /// probes excluded).
    pub explored: usize,
    /// Deviations claimed equivalent and not expanded.
    pub pruned: usize,
    /// Pruned deviations re-executed by the schedule-robustness oracle.
    pub audited: usize,
    /// Distinct semantic digests observed across live runs.
    pub distinct_digests: usize,
    /// Total choice points recorded across live runs.
    pub choice_points_seen: u64,
    /// Child runs discarded because a planned ordinal misfit (an earlier
    /// deviation destroyed the later tie — rare by prefix stability).
    pub misfit_runs: usize,
    /// Runs spent inside ddmin shrinking.
    pub shrink_runs: usize,
}

impl ExploreStats {
    /// Schedules accounted for: every live run plus every deviation
    /// proven (or claimed and spot-checked) equivalent. This is the
    /// number the `explore-gate` budget check counts against.
    pub fn enumerated(&self) -> usize {
        self.explored + self.pruned
    }

    /// Distinct non-equivalent schedules executed: live runs minus the
    /// equivalence audits (which re-execute schedules claimed equal to
    /// an already-counted parent). This is what `--require` floors and
    /// what `budget` caps.
    pub fn distinct_schedules(&self) -> usize {
        self.explored - self.audited
    }
}

/// One minimized counterexample.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// Replay token for the shrunk plan.
    pub token: ReplayToken,
    /// Oracle messages from the violating run.
    pub oracle: Vec<String>,
    /// Deviation count before shrinking.
    pub shrunk_from: usize,
    /// Whether this came from the schedule-robustness (digest) oracle
    /// rather than a target invariant oracle.
    pub robustness: bool,
}

/// Everything one exploration produced.
#[derive(Clone, Debug, Default)]
pub struct ExploreOutcome {
    /// Counters for the report and the selfcheck.
    pub stats: ExploreStats,
    /// Minimized counterexamples, deduplicated by token line.
    pub violations: Vec<ViolationReport>,
    /// Semantic digest of the default (plan-free) schedule.
    pub root_digest: u64,
}

struct Node {
    plan: BTreeMap<u64, usize>,
    log: ChoiceLog,
    digest: u64,
    /// First ordinal children may deviate at.
    frontier_from: u64,
}

struct Explorer<'a> {
    target: &'a dyn Target,
    config: &'a ExploreConfig,
    out: ExploreOutcome,
    digests: BTreeSet<u64>,
    seen_tokens: BTreeSet<String>,
}

/// Explore `target`'s schedule space under `config`.
pub fn explore(target: &dyn Target, config: &ExploreConfig) -> ExploreOutcome {
    Explorer {
        target,
        config,
        out: ExploreOutcome::default(),
        digests: BTreeSet::new(),
        seen_tokens: BTreeSet::new(),
    }
    .run()
}

/// Replay a single plan (token support): one live run, invariant oracles
/// only, no tree expansion. Returns the outcome and whether the token's
/// fingerprint still matches the observed choice points.
pub fn replay(target: &dyn Target, token: &ReplayToken) -> (RunOutcome, bool) {
    let run = target.run(&token.plan);
    let fresh = run.log.misfits.is_empty() && run.log.fingerprint(&token.ordinals()) == token.fp;
    (run, fresh)
}

impl Explorer<'_> {
    fn run(mut self) -> ExploreOutcome {
        let root_plan = BTreeMap::new();
        let root = self.live_run(&root_plan);
        self.out.root_digest = root.digest;
        self.check_invariants(&root_plan, &root);

        let mut queue = VecDeque::new();
        queue.push_back(Node {
            plan: root_plan,
            log: root.log,
            digest: root.digest,
            frontier_from: 0,
        });

        while let Some(node) = queue.pop_front() {
            if node.plan.len() >= self.config.max_deviations {
                continue;
            }
            self.expand(&node, &mut queue);
        }

        self.out.stats.distinct_digests = self.digests.len();
        self.out
    }

    /// Execute a plan, keeping the exploration counters current.
    fn live_run(&mut self, plan: &BTreeMap<u64, usize>) -> RunOutcome {
        let run = self.target.run(plan);
        self.out.stats.explored += 1;
        self.out.stats.choice_points_seen += run.log.points.len() as u64;
        if run.log.misfits.is_empty() {
            self.digests.insert(run.digest);
        }
        run
    }

    fn expand(&mut self, node: &Node, queue: &mut VecDeque<Node>) {
        let mut audits_left = self.config.audits_per_parent;
        for point in &node.log.points {
            if point.ordinal < node.frontier_from {
                continue;
            }
            let width = point.cands.len().min(self.config.max_width);
            for alt in 1..width {
                // Choosing `alt` overtakes candidates 0..alt. If `alt`
                // commutes with each of them, the schedules are
                // equivalent — prune, optionally audit.
                let equivalent = point.cands[..alt]
                    .iter()
                    .all(|earlier| commutes(&point.cands[alt], earlier));
                let mut child_plan = node.plan.clone();
                child_plan.insert(point.ordinal, alt);
                if equivalent {
                    self.out.stats.pruned += 1;
                    if audits_left > 0 && self.out.stats.distinct_schedules() < self.config.budget {
                        audits_left -= 1;
                        self.out.stats.audited += 1;
                        let audit = self.live_run(&child_plan);
                        if audit.digest != node.digest && audit.log.misfits.is_empty() {
                            self.report_robustness(node, point.ordinal, alt, &audit);
                        }
                    }
                    continue;
                }
                if self.out.stats.distinct_schedules() >= self.config.budget {
                    continue;
                }
                let child = self.live_run(&child_plan);
                if !child.log.misfits.is_empty() {
                    self.out.stats.misfit_runs += 1;
                    continue;
                }
                self.check_invariants(&child_plan, &child);
                queue.push_back(Node {
                    plan: child_plan,
                    log: child.log,
                    digest: child.digest,
                    frontier_from: point.ordinal + 1,
                });
            }
        }
    }

    /// Shrink and record an invariant-oracle violation.
    fn check_invariants(&mut self, plan: &BTreeMap<u64, usize>, run: &RunOutcome) {
        if run.violations.is_empty() {
            return;
        }
        let shrunk_from = plan.len();
        let (min_plan, spent) = ddmin(plan, self.config.shrink_budget, |p| {
            !self.target.run(p).violations.is_empty()
        });
        self.out.stats.shrink_runs += spent;
        // Re-run the minimal plan to mint the token against its own log.
        let min_run = self.target.run(&min_plan);
        self.out.stats.shrink_runs += 1;
        let (plan_used, oracle, fp_run) = if min_run.violations.is_empty() {
            // The kernel is deterministic, so this cannot regress; guard
            // anyway by falling back to the unshrunk plan.
            (plan.clone(), run.violations.clone(), run)
        } else {
            (min_plan, min_run.violations.clone(), &min_run)
        };
        self.record(plan_used, oracle, fp_run, shrunk_from, false);
    }

    /// A pruned child's digest disagreed with its parent: the
    /// equivalence claim at (`ordinal`, `alt`) is wrong. Shrink the
    /// *parent* plan while keeping the claimed deviation, preserving the
    /// property "adding the deviation changes the digest".
    fn report_robustness(&mut self, node: &Node, ordinal: u64, alt: usize, audit: &RunOutcome) {
        let shrunk_from = node.plan.len() + 1;
        let mut spent = 0usize;
        let (min_parent, _) = ddmin(&node.plan, self.config.shrink_budget, |p| {
            // Each probe costs two runs: with and without the deviation.
            spent += 2;
            let without = self.target.run(p).digest;
            let mut with_plan = p.clone();
            with_plan.insert(ordinal, alt);
            let with = self.target.run(&with_plan);
            with.log.misfits.is_empty() && with.digest != without
        });
        self.out.stats.shrink_runs += spent;
        let mut final_plan = min_parent;
        final_plan.insert(ordinal, alt);
        let min_run = self.target.run(&final_plan);
        self.out.stats.shrink_runs += 1;
        let oracle = vec![format!(
            "schedule-robustness: pruned deviation {ordinal}:{alt} claimed \
             equivalent but digest {:016x} != parent {:016x}",
            audit.digest, node.digest
        )];
        if min_run.log.misfits.is_empty() {
            self.record(final_plan, oracle, &min_run, shrunk_from, true);
        } else {
            let mut full = node.plan.clone();
            full.insert(ordinal, alt);
            self.record(full, oracle, audit, shrunk_from, true);
        }
    }

    fn record(
        &mut self,
        plan: BTreeMap<u64, usize>,
        oracle: Vec<String>,
        fp_run: &RunOutcome,
        shrunk_from: usize,
        robustness: bool,
    ) {
        let ordinals: Vec<u64> = plan.keys().copied().collect();
        let token = ReplayToken {
            target: self.target.name().to_string(),
            seed: self.target.seed(),
            plan,
            fp: fp_run.log.fingerprint(&ordinals),
        };
        if self.seen_tokens.insert(token.to_string()) {
            self.out.violations.push(ViolationReport {
                token,
                oracle,
                shrunk_from,
                robustness,
            });
        }
    }
}
