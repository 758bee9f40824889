//! Deterministic fault-injection adversary for the replicated store.
//!
//! A [`ChaosPlan`] is a *precomputed*, seeded schedule of episodes of one
//! [`FaultFamily`] — host crashes/restarts, pairwise or group partitions,
//! one-way link drops, gray-failure link degradation, crash/restart flap
//! trains, or clock skew — generated before the simulation runs and
//! applied via `Kernel::schedule_fault`, so the same seed always yields the
//! same fault timeline regardless of what the workload does.
//!
//! Every episode is **bounded**: each cut has a matching heal, each crash
//! in a train has a matching restart, and every heal lands strictly before
//! `end`. The generator keeps one disruption ledger, so no host is under
//! two overlapping disruptions and at most `max_concurrent_down` hosts are
//! disrupted at any instant — a plan can be tuned to stay within (or
//! deliberately exceed) what the write quorum tolerates.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simnet::{Fault, HostId, Kernel, SimDuration, SimTime};

/// Tuning for [`ChaosPlan::generate`]: one fault family injected at a
/// seeded rate over a window.
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
    /// Upper bound on hosts disrupted at one instant.
    pub max_concurrent_down: usize,
    /// What every injection slot injects.
    pub family: FaultFamily,
}

/// The fault families a [`ChaosPlan`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultFamily {
    /// A host crash, restarted `restart_after` later.
    Crash,
    /// A transient pairwise partition.
    Partition,
    /// A randomly sized side of the targets, cut off from everything else.
    GroupPartition,
    /// An asymmetric one-way link drop.
    OneWay,
    /// Gray-failure link degradation: slow and lossy, but "up".
    Degrade,
    /// A crash/restart flap train.
    Flap,
    /// A clock-skew episode.
    Skew,
}

impl FaultFamily {
    /// Every family, in declaration order.
    pub const ALL: [FaultFamily; 7] = [
        FaultFamily::Crash,
        FaultFamily::Partition,
        FaultFamily::GroupPartition,
        FaultFamily::OneWay,
        FaultFamily::Degrade,
        FaultFamily::Flap,
        FaultFamily::Skew,
    ];

    /// The family's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultFamily::Crash => "crash",
            FaultFamily::Partition => "partition",
            FaultFamily::GroupPartition => "group-partition",
            FaultFamily::OneWay => "oneway-drop",
            FaultFamily::Degrade => "degrade-link",
            FaultFamily::Flap => "flap",
            FaultFamily::Skew => "clock-skew",
        }
    }
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
            family: FaultFamily::Crash,
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
        // Every slot consumes one uniform draw it does not use: each
        // family's schedule for a seed is pinned to that RNG stream, which
        // the chaos matrix's committed fault counts were measured on.
        let _slot_roll: f64 = rng.random_range(0.0..1.0);
        if slots == 0 || free.is_empty() {
            return None;
        }
        // Everything except a permanent crash needs a bounded episode.
        let dur = cfg.restart_after;
        let family = if dur.is_none() {
            FaultFamily::Crash
        } else {
            cfg.family
        };
        let heal_at = |at: SimTime| {
            at.saturating_add(dur.unwrap_or(SimDuration::ZERO))
                .min(last)
        };
        match family {
            FaultFamily::Crash => {
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
            FaultFamily::Partition | FaultFamily::OneWay | FaultFamily::Degrade => {
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
                    FaultFamily::Partition => {
                        (Fault::Partition(a, b, true), Fault::Partition(a, b, false))
                    }
                    FaultFamily::OneWay => (
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
            FaultFamily::GroupPartition => {
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
            FaultFamily::Flap => {
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
            FaultFamily::Skew => {
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
