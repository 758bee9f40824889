//! The recording/replaying [`SchedulePolicy`]: applies a deviation plan
//! (`choice ordinal → candidate index`) and logs every choice point's
//! candidate fingerprints, which is what the explorer enumerates over.

use std::collections::BTreeMap;

use simnet::{ChoiceCandidate, ChoiceKind, SchedulePolicy, Shared, SimTime};

use crate::Fnv;

/// Serializable footprint of one scheduling candidate — the owned twin of
/// [`simnet::ChoiceCandidate`], hashed into replay-token fingerprints and
/// fed to the independence relation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fp {
    /// Event-kind label (`start`, `timer`, `deliver`, `cpu_check`,
    /// `fault`, `run`).
    pub label: String,
    /// Target process, if resolvable.
    pub pid: Option<u32>,
    /// Target host.
    pub host: Option<u32>,
    /// Sending process (deliveries).
    pub from: Option<u32>,
    /// Sending host (deliveries).
    pub from_host: Option<u32>,
    /// May resume a process or schedule a new event.
    pub wakes: bool,
    /// Global effect (fault injection).
    pub global: bool,
    /// May draw from the kernel's network RNG (degraded-link drop).
    pub draws_rng: bool,
}

impl Fp {
    /// Capture a kernel candidate.
    pub fn of(c: &ChoiceCandidate) -> Fp {
        Fp {
            label: c.label.to_string(),
            pid: c.pid.map(|p| p.0),
            host: c.host.map(|h| h.0),
            from: c.from.map(|p| p.0),
            from_host: c.from_host.map(|h| h.0),
            wakes: c.wakes,
            global: c.global,
            draws_rng: c.draws_rng,
        }
    }

    /// Fold this footprint into a fingerprint hasher.
    pub fn digest_into(&self, h: &mut Fnv) {
        h.write_str(&self.label);
        for v in [self.pid, self.host, self.from, self.from_host] {
            h.write_u64(match v {
                Some(x) => 1 + x as u64,
                None => 0,
            });
        }
        h.write_u64(
            u64::from(self.wakes) | u64::from(self.global) << 1 | u64::from(self.draws_rng) << 2,
        );
    }
}

/// One recorded choice point: where the kernel consulted the policy.
#[derive(Clone, Debug)]
pub struct ChoicePoint {
    /// Position in the run's choice sequence (0-based).
    pub ordinal: u64,
    /// Event-queue tie or runnable-queue order.
    pub kind: ChoiceKind,
    /// Candidate footprints, in default (insertion / FIFO) order.
    pub cands: Vec<Fp>,
    /// Index the policy picked.
    pub chosen: usize,
}

/// The full choice sequence of one run.
#[derive(Clone, Debug, Default)]
pub struct ChoiceLog {
    /// Every choice point, in execution order.
    pub points: Vec<ChoicePoint>,
    /// Ordinals where the plan named an out-of-range index — evidence of
    /// a stale replay token (the schedule diverged from the recording).
    pub misfits: Vec<u64>,
}

impl ChoiceLog {
    /// Fingerprint of the choice points named by `ordinals` (candidates
    /// and chosen index), for replay-token staleness detection.
    pub fn fingerprint(&self, ordinals: &[u64]) -> u64 {
        let mut h = Fnv::new();
        for &o in ordinals {
            h.write_u64(o);
            if let Some(cp) = self.points.get(o as usize) {
                h.write_u64(cp.cands.len() as u64);
                h.write_u64(cp.chosen as u64);
                for c in &cp.cands {
                    c.digest_into(&mut h);
                }
            }
        }
        h.finish()
    }
}

/// A [`SchedulePolicy`] that follows a deviation plan and records the
/// choice sequence. At every choice point it picks the planned index if
/// one is named for that ordinal (falling back to 0 and recording a
/// misfit when the index is out of range), else the default index 0 —
/// which reproduces the un-hooked kernel exactly.
pub struct PlanPolicy {
    plan: BTreeMap<u64, usize>,
    next_ordinal: u64,
    log: Shared<ChoiceLog>,
}

impl PlanPolicy {
    /// Policy following `plan`, logging into `log` (the caller keeps a
    /// clone to read the record back after the run).
    pub fn new(plan: BTreeMap<u64, usize>, log: Shared<ChoiceLog>) -> Self {
        PlanPolicy {
            plan,
            next_ordinal: 0,
            log,
        }
    }
}

impl SchedulePolicy for PlanPolicy {
    fn choose(&mut self, kind: ChoiceKind, _now: SimTime, cands: &[ChoiceCandidate]) -> usize {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let want = self.plan.get(&ordinal).copied().unwrap_or(0);
        let idx = if want < cands.len() {
            want
        } else {
            self.log.lock().misfits.push(ordinal);
            0
        };
        self.log.lock().points.push(ChoicePoint {
            ordinal,
            kind,
            cands: cands.iter().map(Fp::of).collect(),
            chosen: idx,
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Addr, HostConfig, Kernel, SimDuration};

    /// Two co-temporal deliveries to one sink: the plan swaps them at the
    /// tie ordinal, and the log records the point with its candidates.
    #[test]
    fn plan_policy_applies_deviation_and_records_log() {
        fn run(plan: BTreeMap<u64, usize>) -> (Vec<u8>, ChoiceLog) {
            let mut sim = Kernel::with_seed(3);
            let log = Shared::new(ChoiceLog::default());
            sim.set_schedule_policy(PlanPolicy::new(plan, log.clone()));
            let a = sim.add_host(HostConfig::new("a"));
            let b = sim.add_host(HostConfig::new("b"));
            let got: Shared<Vec<u8>> = Shared::new(Vec::new());
            let g = got.clone();
            let sink = sim.spawn(a, "sink", move |ctx| {
                for _ in 0..2 {
                    if let Ok(m) = ctx.recv() {
                        if let Some(d) = m.data() {
                            g.lock().push(d[0]);
                        }
                    }
                }
            });
            for tag in [1u8, 2u8] {
                sim.spawn(b, format!("send{tag}"), move |ctx| {
                    ctx.sleep(SimDuration::from_millis(1)).unwrap();
                    ctx.send(Addr::Pid(sink), vec![tag]).unwrap();
                });
            }
            sim.run_until_idle();
            let order = got.lock().clone();
            let l = log.lock().clone();
            (order, l)
        }
        let (base, base_log) = run(BTreeMap::new());
        assert_eq!(base, vec![1, 2]);
        assert!(base_log.misfits.is_empty());
        // Find the deliver tie and swap it.
        let tie = base_log
            .points
            .iter()
            .find(|p| p.cands.len() >= 2 && p.cands.iter().all(|c| c.label == "deliver"))
            .expect("no deliver tie recorded");
        let mut plan = BTreeMap::new();
        plan.insert(tie.ordinal, 1usize);
        let (swapped, log) = run(plan);
        assert_eq!(swapped, vec![2, 1]);
        assert!(log.misfits.is_empty());
        // Prefix stability: choice points before the deviation agree.
        for (a, b) in base_log.points.iter().zip(log.points.iter()) {
            if a.ordinal >= tie.ordinal {
                break;
            }
            assert_eq!(a.cands, b.cands, "prefix diverged at {}", a.ordinal);
        }
        // Fingerprints pin the candidates at the deviated ordinal.
        assert_ne!(
            base_log.fingerprint(&[tie.ordinal]),
            log.fingerprint(&[tie.ordinal]),
            "chosen index differs, so the fingerprint must differ"
        );
    }

    /// An out-of-range plan index falls back to default order and records
    /// the misfit (stale-token evidence).
    #[test]
    fn out_of_range_plan_records_misfit() {
        let mut sim = Kernel::with_seed(4);
        let log = Shared::new(ChoiceLog::default());
        let mut plan = BTreeMap::new();
        plan.insert(0u64, 99usize);
        sim.set_schedule_policy(PlanPolicy::new(plan, log.clone()));
        let a = sim.add_host(HostConfig::new("a"));
        // Two co-temporal starts force at least one choice point.
        sim.spawn(a, "x", |_| {});
        sim.spawn(a, "y", |_| {});
        sim.run_until_idle();
        let l = log.lock();
        assert!(!l.points.is_empty());
        assert_eq!(l.misfits, vec![0]);
        assert_eq!(l.points[0].chosen, 0);
    }
}
