//! The doctor: streaming analyses over the event log.
//!
//! The doctor consumes events in record order — which is virtual-time
//! order, see [`crate::diagnose`] — and maintains:
//!
//! * **critical-path latency attribution** — per-target queue-wait vs
//!   service vs checkpoint-overhead shares, from `request-done` events the
//!   FT proxy measures client-side on the virtual clock, and
//! * **runtime invariants** checked as events arrive; every violation is a
//!   deterministic one-line verdict and triggers a flight-recorder
//!   post-mortem.
//!
//! All aggregates are integers (nanoseconds, milli-loads, counts), so the
//! rendered report is byte-identical across same-seed runs.

use std::collections::BTreeMap;
use std::sync::Arc;

use obs::{Event, EventBody};
use simnet::{KernelEvent, SimDuration};

/// Opts a run into the doctor (`ExperimentSpec::monitor`). It carries
/// nothing: the thresholds below are constants. It stays a type because
/// `benchmark/` reads that field as an `Option` (`is_none()`).
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig;

/// Recovery-time budget: a recovery episode must finish within this
/// multiple of the mean service latency observed so far. Generous:
/// recoveries wait out restart backoffs that dwarf a single call, so it
/// only catches pathological episodes.
const RECOVERY_BUDGET_MULTIPLE: u64 = 10_000;
/// Quorum-health floor: a quorum write must collect at least this many
/// acks while the membership view still holds that many replicas.
const QUORUM_FLOOR: u32 = 1;
/// Checkpoint freshness: consecutive stored checkpoints of one target
/// must not be further apart than this.
const CHECKPOINT_FRESHNESS: SimDuration = SimDuration::from_secs(30);
/// Load-placement sanity: the chosen host's effective load may exceed the
/// candidates' minimum by at most this many milli-load-units.
const PLACEMENT_TOLERANCE_MILLI: u64 = 1_500;
/// Healing-time budget: a partition episode (cut to heal) must close
/// within this long. Chaos schedules heal their cuts within a few
/// seconds; a partition outliving this is a stuck heal, not slow healing.
const HEALING_BUDGET: SimDuration = SimDuration::from_secs(10);

/// Per-target latency-attribution accumulator.
#[derive(Clone, Copy, Debug, Default)]
struct Attribution {
    calls: u64,
    wait_ns: u64,
    service_ns: u64,
    ckpt_ns: u64,
}

/// Names of the seven invariants, in report order.
const INVARIANTS: [&str; 7] = [
    "checkpoint-freshness",
    "healing-time",
    "load-placement",
    "partition-health",
    "quorum-health",
    "recovery-budget",
    "restore-freshness",
];

/// The streaming analysis state, fed one event at a time, in record
/// order.
#[derive(Debug)]
pub(crate) struct Doctor {
    kind_counts: BTreeMap<&'static str, u64>,
    per_target: BTreeMap<Arc<str>, Attribution>,
    total: Attribution,
    /// Recovery episodes currently open: target -> (start_ns, attempts).
    open_recoveries: BTreeMap<Arc<str>, (u64, u32)>,
    /// Hosts currently down: host -> crash time.
    down_hosts: BTreeMap<u32, u64>,
    /// Partitions currently open: partition key -> cut time.
    open_partitions: BTreeMap<String, u64>,
    /// Last stored checkpoint per target: target -> (time_ns, epoch).
    last_ckpt: BTreeMap<Arc<str>, (u64, u64)>,
    /// Per-invariant (checks, violations).
    invariants: BTreeMap<&'static str, (u64, u64)>,
    /// One line per recovery episode (budget verdicts, OK or not).
    verdicts: Vec<String>,
    /// One line per invariant violation.
    violations: Vec<String>,
}

impl Doctor {
    /// Fresh doctor.
    pub fn new() -> Self {
        let invariants = INVARIANTS.iter().map(|&n| (n, (0, 0))).collect();
        Doctor {
            kind_counts: BTreeMap::new(),
            per_target: BTreeMap::new(),
            total: Attribution::default(),
            open_recoveries: BTreeMap::new(),
            down_hosts: BTreeMap::new(),
            open_partitions: BTreeMap::new(),
            last_ckpt: BTreeMap::new(),
            invariants,
            verdicts: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Total invariant violations so far.
    pub fn violation_count(&self) -> u64 {
        self.invariants.values().map(|&(_, v)| v).sum()
    }

    fn check(&mut self, name: &'static str, time_ns: u64, ok: bool, detail: String) -> bool {
        let e = self.invariants.entry(name).or_insert((0, 0));
        e.0 += 1;
        if !ok {
            e.1 += 1;
            self.violations
                .push(format!("{time_ns}ns {name}: {detail}"));
        }
        !ok
    }

    /// Ingest one event (in record order). Returns the descriptions of any
    /// invariant violations this event fired.
    pub fn on_event(&mut self, ev: &Event) -> Vec<String> {
        *self.kind_counts.entry(ev.body.kind()).or_insert(0) += 1;
        let t = ev.time_ns;
        let mut fired = Vec::new();
        match &ev.body {
            EventBody::RequestDone {
                target,
                wait_ns,
                service_ns,
                ckpt_ns,
            } => {
                fn bump(a: &mut Attribution, wait: u64, service: u64, ckpt: u64) {
                    a.calls += 1;
                    a.wait_ns += wait;
                    a.service_ns += service;
                    a.ckpt_ns += ckpt;
                }
                let per = self.per_target.entry(target.clone()).or_default();
                bump(per, *wait_ns, *service_ns, *ckpt_ns);
                bump(&mut self.total, *wait_ns, *service_ns, *ckpt_ns);
            }
            EventBody::RecoveryStarted { target, attempt } => {
                // Attempts restart at 1 per request, so an episode still
                // open now was given up on (it never finished).
                if *attempt == 1 {
                    if let Some((since, attempts)) = self.open_recoveries.remove(target) {
                        fired.push(self.abandon(t, target, since, attempts));
                    }
                }
                let e = self.open_recoveries.entry(target.clone()).or_insert((t, 0));
                e.1 = (*attempt).max(e.1);
            }
            EventBody::RecoveryFinished { target, dur_ns } => {
                self.open_recoveries.remove(target);
                // Budget = multiple x mean service latency observed so far.
                // Without a single completed call there is no baseline;
                // record the episode but skip the check.
                if let Some(mean) = self.total.service_ns.checked_div(self.total.calls) {
                    let budget = mean.saturating_mul(RECOVERY_BUDGET_MULTIPLE);
                    let ok = *dur_ns <= budget;
                    let verdict = if ok { "OK" } else { "VIOLATION" };
                    self.verdicts.push(format!(
                        "{t}ns recovery-budget {target}: episode {dur_ns}ns budget {budget}ns \
                         ({}x mean {mean}ns) -> {verdict}",
                        RECOVERY_BUDGET_MULTIPLE
                    ));
                    if self.check(
                        "recovery-budget",
                        t,
                        ok,
                        format!("{target} episode {dur_ns}ns exceeds budget {budget}ns"),
                    ) {
                        fired.push(format!("recovery-budget {target}"));
                    }
                } else {
                    self.verdicts.push(format!(
                        "{t}ns recovery-budget {target}: episode {dur_ns}ns, no completed \
                         calls yet -> NO-BASELINE"
                    ));
                }
            }
            EventBody::CheckpointStored { target, epoch, .. } => {
                if let Some(&(prev_t, prev_epoch)) = self.last_ckpt.get(target) {
                    let gap = t.saturating_sub(prev_t);
                    let bound = CHECKPOINT_FRESHNESS.as_nanos();
                    if self.check(
                        "checkpoint-freshness",
                        t,
                        gap <= bound,
                        format!(
                            "{target} epoch {epoch} stored {gap}ns after epoch {prev_epoch} \
                             (bound {bound}ns)"
                        ),
                    ) {
                        fired.push(format!("checkpoint-freshness {target}"));
                    }
                }
                self.last_ckpt.insert(target.clone(), (t, *epoch));
            }
            EventBody::StateRestored { target, epoch } => {
                // A replica adopted after a checkpoint was acked must
                // start from that checkpoint or a newer one — never cold,
                // never from an older epoch.
                if let Some(&(_, acked)) = self.last_ckpt.get(target) {
                    if self.check(
                        "restore-freshness",
                        t,
                        *epoch >= acked,
                        format!("{target} restored to epoch {epoch}, epoch {acked} was acked"),
                    ) {
                        fired.push(format!("restore-freshness {target}"));
                    }
                }
            }
            EventBody::QuorumWrite {
                object,
                acks,
                view,
                quorum,
                ..
            } => {
                let floor = QUORUM_FLOOR;
                // Degradation is only an invariant breach while enough
                // replicas are still in the view to have met the floor.
                let ok = *acks >= floor || *view < floor;
                if self.check(
                    "quorum-health",
                    t,
                    ok,
                    format!(
                        "{object} write got {acks}/{quorum} acks with view {view} \
                         (floor {floor})"
                    ),
                ) {
                    fired.push(format!("quorum-health {object}"));
                }
            }
            EventBody::Placement {
                chosen,
                chosen_load_milli,
                min_load_milli,
            } => {
                let tol = PLACEMENT_TOLERANCE_MILLI;
                if self.check(
                    "load-placement",
                    t,
                    *chosen_load_milli <= min_load_milli.saturating_add(tol),
                    format!(
                        "h{chosen} picked at load {chosen_load_milli}m, minimum was \
                         {min_load_milli}m (tolerance {tol}m)"
                    ),
                ) {
                    fired.push(format!("load-placement h{chosen}"));
                }
            }
            EventBody::Kernel(KernelEvent::HostCrash(h)) => {
                self.down_hosts.insert(h.0, t);
            }
            EventBody::Kernel(KernelEvent::HostRestart(h)) => {
                self.down_hosts.remove(&h.0);
            }
            EventBody::Kernel(KernelEvent::PartitionStart { a, b, oneway }) => {
                let key = EventBody::partition_key(a, b, *oneway);
                // Re-cutting an already open partition keeps the original
                // cut time; the episode is the full outage.
                self.open_partitions.entry(key).or_insert(t);
            }
            EventBody::Kernel(KernelEvent::PartitionHeal { a, b, oneway }) => {
                let key = EventBody::partition_key(a, b, *oneway);
                let opened = self.open_partitions.remove(&key);
                if self.check(
                    "partition-health",
                    t,
                    opened.is_some(),
                    format!("heal of {key} without a matching cut"),
                ) {
                    fired.push(format!("partition-health {key}"));
                }
                if let Some(since) = opened {
                    let dur = t.saturating_sub(since);
                    let budget = HEALING_BUDGET.as_nanos();
                    if self.check(
                        "healing-time",
                        t,
                        dur <= budget,
                        format!("{key} stayed cut {dur}ns (budget {budget}ns)"),
                    ) {
                        fired.push(format!("healing-time {key}"));
                    }
                }
            }
            _ => {}
        }
        fired
    }

    /// Judge a recovery episode that will never see `recovery-finished`:
    /// the request gave up (its recovery attempts ran out). The worst
    /// outcome there is, so always a recovery-budget violation.
    fn abandon(&mut self, t: u64, target: &str, since: u64, attempts: u32) -> String {
        self.verdicts.push(format!(
            "{t}ns recovery-budget {target}: episode open since {since}ns never finished \
             ({attempts} attempts) -> ABANDONED"
        ));
        self.check(
            "recovery-budget",
            t,
            false,
            format!("{target} recovery open since {since}ns abandoned after {attempts} attempts"),
        );
        format!("recovery-budget {target}")
    }

    /// End-of-run pass: a partition still open has no heal coming
    /// (partition-health) and a recovery still open was abandoned
    /// (recovery-budget). Returns the fired invariants like
    /// [`Doctor::on_event`] does.
    pub fn finalize(&mut self, now_ns: u64) -> Vec<String> {
        let open: Vec<(String, u64)> = std::mem::take(&mut self.open_partitions)
            .into_iter()
            .collect();
        let mut fired = Vec::new();
        for (key, since) in open {
            self.check(
                "partition-health",
                now_ns,
                false,
                format!("{key} cut at {since}ns never healed"),
            );
            fired.push(format!("partition-health {key}"));
        }
        for (target, (since, attempts)) in std::mem::take(&mut self.open_recoveries) {
            fired.push(self.abandon(now_ns, &target, since, attempts));
        }
        fired
    }

    /// Episodes open at this instant (recoveries in flight, hosts down) —
    /// the "open span stack" component of a post-mortem.
    pub fn open_episodes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (target, &(since, attempts)) in &self.open_recoveries {
            out.push(format!(
                "recovery of {target} open since {since}ns ({attempts} attempts)"
            ));
        }
        for (&host, &since) in &self.down_hosts {
            out.push(format!("host h{host} down since {since}ns"));
        }
        for (key, &since) in &self.open_partitions {
            out.push(format!("partition {key} open since {since}ns"));
        }
        out
    }

    /// Recovery-budget verdict lines so far.
    pub fn verdicts(&self) -> &[String] {
        &self.verdicts
    }

    /// Render the doctor's report: event census, latency attribution,
    /// invariant summary, verdicts, violations. Deterministic (integer
    /// formatting, sorted maps).
    pub fn render_report(&self, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        let total_events: u64 = self.kind_counts.values().sum();
        writeln!(out, "events: {total_events}")?;
        for (kind, n) in &self.kind_counts {
            writeln!(out, "  {kind}: {n}")?;
        }
        writeln!(out, "latency attribution (critical path, per target):")?;
        writeln!(
            out,
            "  {:<28} {:>6} {:>12} {:>12} {:>12}",
            "target", "calls", "wait_ms", "service_ms", "ckpt_ms"
        )?;
        if self.per_target.is_empty() {
            writeln!(out, "  (no completed requests)")?;
        }
        for (target, a) in &self.per_target {
            writeln!(
                out,
                "  {:<28} {:>6} {:>12} {:>12} {:>12}",
                target,
                a.calls,
                fmt_ms(a.wait_ns),
                fmt_ms(a.service_ns),
                fmt_ms(a.ckpt_ns)
            )?;
        }
        if !self.per_target.is_empty() {
            let a = &self.total;
            writeln!(
                out,
                "  {:<28} {:>6} {:>12} {:>12} {:>12}",
                "(all)",
                a.calls,
                fmt_ms(a.wait_ns),
                fmt_ms(a.service_ns),
                fmt_ms(a.ckpt_ns)
            )?;
        }
        writeln!(out, "invariants:")?;
        for (name, &(checks, violations)) in &self.invariants {
            writeln!(out, "  {name}: checks={checks} violations={violations}")?;
        }
        writeln!(out, "verdicts:")?;
        if self.verdicts.is_empty() {
            writeln!(out, "  (none)")?;
        }
        for v in &self.verdicts {
            writeln!(out, "  {v}")?;
        }
        writeln!(out, "violations:")?;
        if self.violations.is_empty() {
            writeln!(out, "  (none)")?;
        }
        for v in &self.violations {
            writeln!(out, "  {v}")?;
        }
        Ok(())
    }
}

/// Milliseconds with microsecond precision, from integer nanoseconds —
/// deterministic (no float formatting).
pub(crate) fn fmt_ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ns: u64, host: u32, body: EventBody) -> Event {
        Event {
            time_ns,
            host,
            pid: 1,
            body,
        }
    }

    fn hosts(ids: &[u32]) -> Vec<simnet::HostId> {
        ids.iter().map(|&i| simnet::HostId(i)).collect()
    }

    #[test]
    fn recovery_budget_fires_only_past_the_multiple() {
        let mut d = Doctor::new();
        // Baseline: two calls, mean service 1000ns -> budget 10ms.
        for t in [10, 20] {
            d.on_event(&ev(
                t,
                1,
                EventBody::RequestDone {
                    target: "w".into(),
                    wait_ns: 0,
                    service_ns: 1_000,
                    ckpt_ns: 0,
                },
            ));
        }
        let fired = d.on_event(&ev(
            30,
            1,
            EventBody::RecoveryFinished {
                target: "w".into(),
                dur_ns: 10_000_000,
            },
        ));
        assert!(fired.is_empty());
        let fired = d.on_event(&ev(
            40,
            1,
            EventBody::RecoveryFinished {
                target: "w".into(),
                dur_ns: 10_000_001,
            },
        ));
        assert_eq!(fired, vec!["recovery-budget w".to_string()]);
        assert_eq!(d.violation_count(), 1);
        assert_eq!(d.verdicts().len(), 2);
    }

    #[test]
    fn quorum_health_respects_the_view() {
        let mut d = Doctor::new();
        let qw = |acks, view| EventBody::QuorumWrite {
            object: "o".into(),
            epoch: 1,
            acks,
            view,
            quorum: view,
        };
        // Enough acks: fine.
        assert!(d.on_event(&ev(1, 0, qw(1, 3))).is_empty());
        // Too few acks but the view itself shrank below the floor: the
        // floor is unreachable, not breached.
        assert!(d.on_event(&ev(2, 0, qw(0, 0))).is_empty());
        // Too few acks while the view could have met the floor: breach.
        assert_eq!(d.on_event(&ev(3, 0, qw(0, 3))).len(), 1);
    }

    #[test]
    fn restore_freshness_compares_against_the_last_acked_epoch() {
        let mut d = Doctor::new();
        let stored = |epoch| EventBody::CheckpointStored {
            target: "w".into(),
            epoch,
            bytes: 8,
            dur_ns: 1,
        };
        let restored = |epoch| EventBody::StateRestored {
            target: "w".into(),
            epoch,
        };
        // A first bind before any checkpoint starts cold: nothing to check.
        assert!(d.on_event(&ev(1, 0, restored(0))).is_empty());
        d.on_event(&ev(2, 0, stored(1)));
        d.on_event(&ev(3, 0, stored(2)));
        // The last acked epoch (or anything newer the store held): fine.
        assert!(d.on_event(&ev(4, 0, restored(2))).is_empty());
        assert!(d.on_event(&ev(5, 0, restored(3))).is_empty());
        // An older epoch, or the torn-checkpoint cold start: breach.
        assert_eq!(
            d.on_event(&ev(6, 0, restored(1))),
            vec!["restore-freshness w".to_string()]
        );
        assert_eq!(d.on_event(&ev(7, 0, restored(0))).len(), 1);
        // Other targets have their own history.
        let other = EventBody::StateRestored {
            target: "v".into(),
            epoch: 0,
        };
        assert!(d.on_event(&ev(8, 0, other)).is_empty());
        assert_eq!(d.violation_count(), 2);
    }

    #[test]
    fn placement_and_freshness_checks() {
        let mut d = Doctor::new();
        assert!(d
            .on_event(&ev(
                1,
                0,
                EventBody::Placement {
                    chosen: 2,
                    chosen_load_milli: 2_000,
                    min_load_milli: 500,
                }
            ))
            .is_empty());
        assert_eq!(
            d.on_event(&ev(
                2,
                0,
                EventBody::Placement {
                    chosen: 2,
                    chosen_load_milli: 2_001,
                    min_load_milli: 500,
                }
            ))
            .len(),
            1
        );
        let ck = |t, epoch| {
            ev(
                t,
                0,
                EventBody::CheckpointStored {
                    target: "w".into(),
                    epoch,
                    bytes: 8,
                    dur_ns: 1,
                },
            )
        };
        let bound = CHECKPOINT_FRESHNESS.as_nanos();
        assert!(d.on_event(&ck(100, 1)).is_empty()); // first: no gap yet
        assert!(d.on_event(&ck(100 + bound, 2)).is_empty()); // gap = bound
        assert_eq!(d.on_event(&ck(101 + 2 * bound, 3)).len(), 1); // gap > bound
    }

    #[test]
    fn partition_episodes_are_attributed_and_budgeted() {
        let mut d = Doctor::new();
        let budget = HEALING_BUDGET.as_nanos();
        let cut = |a: &[u32], b: &[u32]| {
            EventBody::Kernel(KernelEvent::PartitionStart {
                a: hosts(a),
                b: hosts(b),
                oneway: false,
            })
        };
        let heal = |a: &[u32], b: &[u32]| {
            EventBody::Kernel(KernelEvent::PartitionHeal {
                a: hosts(a),
                b: hosts(b),
                oneway: false,
            })
        };
        assert!(d.on_event(&ev(10, 0, cut(&[0, 1], &[2]))).is_empty());
        assert_eq!(
            d.open_episodes(),
            vec!["partition h0+h1|h2 open since 10ns".to_string()]
        );
        // Heals within budget, sides listed in either order.
        assert!(d
            .on_event(&ev(10 + budget, 0, heal(&[2], &[1, 0])))
            .is_empty());
        assert!(d.open_episodes().is_empty());
        // Slow heal breaches healing-time.
        let t = 20 + budget;
        d.on_event(&ev(t, 0, cut(&[0], &[1])));
        assert_eq!(
            d.on_event(&ev(t + budget + 1, 0, heal(&[0], &[1]))),
            vec!["healing-time h0|h1".to_string()]
        );
        // A heal with no matching cut breaches partition-health.
        assert_eq!(
            d.on_event(&ev(t + 2 * budget, 0, heal(&[3], &[4]))),
            vec!["partition-health h3|h4".to_string()]
        );
        assert_eq!(d.violation_count(), 2);
    }

    #[test]
    fn finalize_flags_partitions_that_never_heal() {
        let mut d = Doctor::new();
        d.on_event(&ev(
            10,
            0,
            EventBody::Kernel(KernelEvent::PartitionStart {
                a: hosts(&[0]),
                b: hosts(&[1]),
                oneway: true,
            }),
        ));
        assert_eq!(
            d.finalize(1_000),
            vec!["partition-health h0->h1".to_string()]
        );
        assert_eq!(d.violation_count(), 1);
        // Idempotent: a second finalize has nothing left to flag.
        assert!(d.finalize(2_000).is_empty());
    }

    fn started(t: u64, attempt: u32) -> Event {
        ev(
            t,
            1,
            EventBody::RecoveryStarted {
                target: "w".into(),
                attempt,
            },
        )
    }

    #[test]
    fn finalize_judges_a_recovery_that_never_finished() {
        let mut d = Doctor::new();
        for attempt in 1..=3 {
            assert!(d
                .on_event(&started(10 * attempt as u64, attempt))
                .is_empty());
        }
        // The request gave up: no recovery-finished ever comes.
        assert_eq!(d.finalize(1_000), vec!["recovery-budget w".to_string()]);
        assert_eq!(d.violation_count(), 1);
        assert_eq!(
            d.verdicts(),
            [
                "1000ns recovery-budget w: episode open since 10ns never finished \
              (3 attempts) -> ABANDONED"
            ]
        );
        assert!(d.open_episodes().is_empty());
        assert!(d.finalize(2_000).is_empty(), "finalize is idempotent");
    }

    #[test]
    fn a_new_request_judges_the_episode_the_last_one_abandoned() {
        let mut d = Doctor::new();
        d.on_event(&started(10, 1));
        d.on_event(&started(20, 2));
        // Attempt 1 again: the next request's episode. The stale one must
        // be judged, not inherited.
        assert_eq!(
            d.on_event(&started(500, 1)),
            vec!["recovery-budget w".to_string()]
        );
        assert!(
            d.verdicts()[0].ends_with("-> ABANDONED"),
            "{:?}",
            d.verdicts()
        );
        assert_eq!(
            d.open_episodes(),
            vec!["recovery of w open since 500ns (1 attempts)".to_string()]
        );
        // ... and the new episode closes normally.
        d.on_event(&ev(
            600,
            1,
            EventBody::RecoveryFinished {
                target: "w".into(),
                dur_ns: 100,
            },
        ));
        assert_eq!(d.violation_count(), 1);
        assert!(d.finalize(1_000).is_empty());
    }

    #[test]
    fn fmt_ms_is_integer_only() {
        assert_eq!(fmt_ms(0), "0.000");
        assert_eq!(fmt_ms(1_234_567), "1.234");
        assert_eq!(fmt_ms(999_999), "0.999");
    }
}
