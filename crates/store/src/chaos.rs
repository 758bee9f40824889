//! Deterministic fault-injection adversary for the replicated store.
//!
//! A [`ChaosPlan`] is a *precomputed*, seeded schedule of fault episodes —
//! host crashes/restarts, group partitions, one-way link drops, gray-failure
//! link degradation, crash/restart flap trains, and clock skew — generated
//! before the simulation runs and applied via `Kernel::schedule_fault`, so
//! the same seed always yields the same fault timeline regardless of what
//! the workload does.
//!
//! Every episode is **bounded**: each cut has a matching heal, each crash
//! in a train has a matching restart, and every heal lands strictly before
//! `end`. The generator runs one disruption ledger across *all* fault
//! families, so no host is under two overlapping disruptions and at most
//! `max_concurrent_down` hosts are disrupted at any instant — a plan can be
//! tuned to stay within (or deliberately exceed) what the write quorum
//! tolerates.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simnet::{Fault, HostId, Kernel, SimDuration, SimTime};

/// Tuning for [`ChaosPlan::generate`]. The per-family probabilities are
/// cumulative weights of one draw per injection slot; whatever they leave
/// of the unit interval goes to plain crash/restart.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed of the fault schedule (independent of the kernel seed).
    pub seed: u64,
    /// Faults are injected from this time on.
    pub start: SimTime,
    /// No fault fires at or after this time — heals included.
    pub end: SimTime,
    /// Mean time between consecutive fault injections; actual gaps are
    /// drawn uniformly from `[0.5, 1.5) ×` this.
    pub mean_interval: SimDuration,
    /// Disrupted hosts recover after this long (restart, heal, restore,
    /// skew reset). `None` means crashes are permanent (each host is
    /// crashed at most once) and the non-crash families are disabled,
    /// since they need a bounded episode.
    pub restart_after: Option<SimDuration>,
    /// Upper bound on hosts disrupted — by *any* family — at one instant.
    pub max_concurrent_down: usize,
    /// Probability that an injection is a transient pairwise partition.
    pub partition_prob: f64,
    /// Probability of a group partition: a randomly sized side of the
    /// target set is cut off from everything else.
    pub group_partition_prob: f64,
    /// Probability of an asymmetric one-way link drop.
    pub oneway_prob: f64,
    /// Probability of gray-failure link degradation (extra latency plus
    /// probabilistic drops, the link stays "up").
    pub degrade_prob: f64,
    /// Probability of a crash/restart flap train.
    pub flap_prob: f64,
    /// Probability of a clock-skew episode.
    pub skew_prob: f64,
}

/// Extra one-way latency a degraded link carries.
const DEGRADE_EXTRA_LATENCY: SimDuration = SimDuration::from_millis(5);
/// Per-message drop probability of a degraded link, in milli-units
/// (0..=1000).
const DEGRADE_DROP_MILLI: u32 = 200;
/// Crash/restart cycles in one flap train.
const FLAP_CYCLES: u32 = 3;
/// Length of one flap cycle (down for half, up for half).
const FLAP_PERIOD: SimDuration = SimDuration::from_millis(600);
/// Clock skew magnitude bound: skews are drawn from
/// `[-MAX_SKEW_NS, MAX_SKEW_NS]`, nonzero.
const MAX_SKEW_NS: i64 = 500_000_000;

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            start: SimTime::from_nanos(1_000_000_000),
            end: SimTime::from_nanos(30_000_000_000),
            mean_interval: SimDuration::from_secs(3),
            restart_after: Some(SimDuration::from_secs(2)),
            max_concurrent_down: 1,
            partition_prob: 0.0,
            group_partition_prob: 0.0,
            oneway_prob: 0.0,
            degrade_prob: 0.0,
            flap_prob: 0.0,
            skew_prob: 0.0,
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What fires.
    pub fault: Fault,
}

/// A precomputed fault schedule over a set of target hosts.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// The schedule, in firing order.
    pub events: Vec<ChaosEvent>,
    /// The same schedule grouped into self-contained episodes (a cut and
    /// its heal, a whole flap train, …).
    pub episodes: Vec<Vec<ChaosEvent>>,
}

/// Which fault family one injection slot drew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Crash,
    Partition,
    GroupPartition,
    OneWay,
    Degrade,
    Flap,
    Skew,
}

impl ChaosPlan {
    /// Generate a seeded schedule over `targets`. Pure function of the
    /// config and the target list: same inputs, same plan.
    pub fn generate(cfg: &ChaosConfig, targets: &[HostId]) -> ChaosPlan {
        let mut episodes: Vec<Vec<ChaosEvent>> = Vec::new();
        if targets.is_empty() || cfg.max_concurrent_down == 0 || cfg.start >= cfg.end {
            return ChaosPlan::default();
        }
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // The disruption ledger: (host, recovered-at); MAX means "never".
        let mut disrupted: Vec<(HostId, SimTime)> = Vec::new();
        // Heals must fire strictly before `end`.
        let last = SimTime::from_nanos(cfg.end.as_nanos().saturating_sub(1));
        let mut t = cfg.start;
        while t < cfg.end {
            disrupted.retain(|&(_, until)| until > t);
            let gap_frac: f64 = rng.random_range(0.5..1.5);
            let gap_ns = (cfg.mean_interval.as_nanos() as f64 * gap_frac) as u64;
            let free: Vec<HostId> = targets
                .iter()
                .copied()
                .filter(|h| !disrupted.iter().any(|&(d, _)| d == *h))
                .collect();
            let slots = cfg.max_concurrent_down.saturating_sub(disrupted.len());
            if let Some(ep) = Self::episode(cfg, &mut rng, &free, slots, t, last) {
                for &(h, until) in &ep.holds {
                    disrupted.push((h, until));
                }
                episodes.push(ep.events);
            }
            t = t.saturating_add(SimDuration::from_nanos(gap_ns.max(1)));
        }
        // Firing order; the sort is stable, so same-instant events keep
        // episode order.
        let mut events: Vec<ChaosEvent> = episodes.iter().flatten().cloned().collect();
        events.sort_by_key(|e| e.at);
        ChaosPlan { events, episodes }
    }

    /// Draw one episode at `t`, or `None` if the slot stays empty (budget
    /// exhausted, or the drawn family is infeasible right now).
    fn episode(
        cfg: &ChaosConfig,
        rng: &mut SmallRng,
        free: &[HostId],
        slots: usize,
        t: SimTime,
        last: SimTime,
    ) -> Option<Episode> {
        // One family draw per slot, taken even when the slot turns out to
        // be infeasible, so feasibility does not perturb the RNG stream of
        // later slots more than it must.
        let family = {
            let u: f64 = rng.random_range(0.0..1.0);
            let mut acc = 0.0;
            let table = [
                (Family::Partition, cfg.partition_prob),
                (Family::GroupPartition, cfg.group_partition_prob),
                (Family::OneWay, cfg.oneway_prob),
                (Family::Degrade, cfg.degrade_prob),
                (Family::Flap, cfg.flap_prob),
                (Family::Skew, cfg.skew_prob),
            ];
            let mut chosen = Family::Crash;
            for (f, p) in table {
                acc += p;
                if u < acc {
                    chosen = f;
                    break;
                }
            }
            chosen
        };
        if slots == 0 || free.is_empty() {
            return None;
        }
        // Everything except a permanent crash needs a bounded episode.
        let dur = cfg.restart_after;
        let family = if dur.is_none() { Family::Crash } else { family };
        let heal_at = |at: SimTime| {
            at.saturating_add(dur.unwrap_or(SimDuration::ZERO))
                .min(last)
        };
        match family {
            Family::Crash => {
                let victim = free[rng.random_range(0..free.len())];
                match dur {
                    Some(_) => {
                        let up = heal_at(t);
                        Some(Episode {
                            events: vec![
                                ChaosEvent {
                                    at: t,
                                    fault: Fault::CrashHost(victim),
                                },
                                ChaosEvent {
                                    at: up,
                                    fault: Fault::RestartHost(victim),
                                },
                            ],
                            holds: vec![(victim, up)],
                        })
                    }
                    None => Some(Episode {
                        events: vec![ChaosEvent {
                            at: t,
                            fault: Fault::CrashHost(victim),
                        }],
                        holds: vec![(victim, SimTime::MAX)],
                    }),
                }
            }
            Family::Partition | Family::OneWay | Family::Degrade => {
                // All three need a pair; the second endpoint may be any
                // target (a disrupted peer just makes the cut redundant),
                // but the ledger slot is charged to the first.
                if free.len() < 2 {
                    return None;
                }
                let mut pick = free.to_vec();
                pick.shuffle(rng);
                let (a, b) = (pick[0], pick[1]);
                let heal = heal_at(t);
                let (cut, mend) = match family {
                    Family::Partition => {
                        (Fault::Partition(a, b, true), Fault::Partition(a, b, false))
                    }
                    Family::OneWay => (
                        Fault::DropOneWay {
                            from: a,
                            to: b,
                            blocked: true,
                        },
                        Fault::DropOneWay {
                            from: a,
                            to: b,
                            blocked: false,
                        },
                    ),
                    _ => (
                        Fault::DegradeLink {
                            a,
                            b,
                            extra_latency: DEGRADE_EXTRA_LATENCY,
                            drop_milli: DEGRADE_DROP_MILLI,
                        },
                        Fault::DegradeLink {
                            a,
                            b,
                            extra_latency: SimDuration::ZERO,
                            drop_milli: 0,
                        },
                    ),
                };
                Some(Episode {
                    events: vec![
                        ChaosEvent { at: t, fault: cut },
                        ChaosEvent {
                            at: heal,
                            fault: mend,
                        },
                    ],
                    holds: vec![(a, heal)],
                })
            }
            Family::GroupPartition => {
                // The cut side must leave at least one target outside it,
                // and every side member occupies a ledger slot.
                let max_side = slots.min(free.len().saturating_sub(1));
                if max_side == 0 {
                    return None;
                }
                let size = rng.random_range(1..=max_side);
                let mut pick = free.to_vec();
                pick.shuffle(rng);
                let mut side: Vec<HostId> = pick.into_iter().take(size).collect();
                side.sort_unstable_by_key(|h| h.0);
                let heal = heal_at(t);
                Some(Episode {
                    events: vec![
                        ChaosEvent {
                            at: t,
                            fault: Fault::PartitionGroup {
                                side: side.clone(),
                                blocked: true,
                            },
                        },
                        ChaosEvent {
                            at: heal,
                            fault: Fault::PartitionGroup {
                                side: side.clone(),
                                blocked: false,
                            },
                        },
                    ],
                    holds: side.into_iter().map(|h| (h, heal)).collect(),
                })
            }
            Family::Flap => {
                // A crash/restart train: down half a period, up half a
                // period, `FLAP_CYCLES` times — truncated at the horizon.
                let victim = free[rng.random_range(0..free.len())];
                let half = SimDuration::from_nanos(FLAP_PERIOD.as_nanos() / 2);
                let mut events = Vec::new();
                let mut at = t;
                for _ in 0..FLAP_CYCLES {
                    if at >= last {
                        break;
                    }
                    let up = at.saturating_add(half).min(last);
                    events.push(ChaosEvent {
                        at,
                        fault: Fault::CrashHost(victim),
                    });
                    events.push(ChaosEvent {
                        at: up,
                        fault: Fault::RestartHost(victim),
                    });
                    at = up.saturating_add(half);
                }
                if events.is_empty() {
                    return None;
                }
                let until = events.last().map(|e| e.at).unwrap_or(t);
                Some(Episode {
                    events,
                    holds: vec![(victim, until)],
                })
            }
            Family::Skew => {
                let victim = free[rng.random_range(0..free.len())];
                let mut skew: i64 = rng.random_range(-MAX_SKEW_NS..=MAX_SKEW_NS);
                if skew == 0 {
                    skew = MAX_SKEW_NS;
                }
                let heal = heal_at(t);
                Some(Episode {
                    events: vec![
                        ChaosEvent {
                            at: t,
                            fault: Fault::SetClockSkew(victim, skew),
                        },
                        ChaosEvent {
                            at: heal,
                            fault: Fault::SetClockSkew(victim, 0),
                        },
                    ],
                    holds: vec![(victim, heal)],
                })
            }
        }
    }

    /// Install every event of the plan into the kernel.
    pub fn schedule(&self, kernel: &mut Kernel) {
        for e in &self.events {
            kernel.schedule_fault(e.at, e.fault.clone());
        }
    }

    /// Crash events only (ignoring restarts/partitions) — handy for
    /// assertions about how much damage a plan does.
    pub fn crashes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.fault, Fault::CrashHost(_)))
            .count()
    }
}

/// A self-contained fault episode plus the ledger slots it occupies.
struct Episode {
    events: Vec<ChaosEvent>,
    /// `(host, disrupted-until)` — what the generator's concurrency ledger
    /// charges for this episode.
    holds: Vec<(HostId, SimTime)>,
}
