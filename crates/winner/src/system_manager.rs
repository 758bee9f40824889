//! The Winner **system manager**: the central component that collects node
//! managers' load reports and answers "which machine currently has the
//! best performance?" (§2 of the paper).

use std::collections::BTreeMap;

use obs::EventBody;
use orb::{CallCtx, Exception};
use simnet::{SimDuration, SimTime};

use crate::policy::{performance_score, HostView, SelectionPolicy};
use crate::protocol::{HostStatus, LoadReport, SelectRequest, Winner};

/// Reports older than this mark a host dead (node manager or host failure
/// ⇒ the host is never selected).
const STALE_AFTER: SimDuration = SimDuration::from_millis(3500);
/// How long a placement reservation inflates a host's effective load.
/// Covers the window between placing a process and that process showing
/// up in the next load report.
const RESERVATION_TTL: SimDuration = SimDuration::from_millis(1500);
/// Quarantine bound on report wall-clock stamps: a report whose `stamp_ns`
/// strays further than this from the manager's own clock is rejected — its
/// host's load data is not to be trusted (its clock is broken, or the
/// report spent absurdly long in flight). The bound must comfortably
/// exceed report latency plus one sampling interval.
const MAX_REPORT_SKEW: SimDuration = SimDuration::from_millis(100);

/// What [`SystemManager::ingest`] did with a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportOutcome {
    /// The report replaced (or created) its host's record.
    Accepted,
    /// Dropped: an equal-or-newer sequence number was recorded less than
    /// [`STALE_AFTER`] ago.
    StaleSeq,
    /// Dropped: the wall-clock stamp strayed beyond [`MAX_REPORT_SKEW`].
    SkewQuarantined,
}

struct HostRecord {
    last: LoadReport,
    last_seen: SimTime,
    /// Expiry times of outstanding placement reservations.
    reservations: Vec<SimTime>,
}

/// The system manager servant.
pub struct SystemManager {
    policy: Box<dyn SelectionPolicy>,
    hosts: BTreeMap<u32, HostRecord>,
    /// The loads behind the most recent successful `select`: `(chosen
    /// host, its effective load, the candidates' minimum)` in milli-units.
    /// Consumed by the `select` operation to record the placement event.
    last_placement: Option<(u32, u64, u64)>,
}

impl SystemManager {
    /// Create a system manager with the given policy.
    pub fn new(policy: Box<dyn SelectionPolicy>) -> Self {
        SystemManager {
            policy,
            hosts: BTreeMap::new(),
            last_placement: None,
        }
    }

    /// Ingest one load report.
    pub fn ingest(&mut self, now: SimTime, report: LoadReport) -> ReportOutcome {
        // Quarantine far-skewed stamps before they touch the record: a
        // skewed clock corrupts every time-derived quantity (load EWMA,
        // staleness), so the host simply goes silent to the selector
        // until its clock is sane again.
        let delta = (now.as_nanos() as i64).abs_diff(report.stamp_ns);
        if delta > MAX_REPORT_SKEW.as_nanos() {
            return ReportOutcome::SkewQuarantined;
        }
        match self.hosts.get_mut(&report.host) {
            Some(rec) => {
                // A record gone stale is replaced whatever its `seq`: a
                // rebooted node manager counts from 1 again, and its host
                // must not stay dead to selection for as many report
                // periods as its previous life lasted.
                if report.seq <= rec.last.seq && now.since(rec.last_seen) < STALE_AFTER {
                    return ReportOutcome::StaleSeq;
                }
                rec.last = report;
                rec.last_seen = now;
            }
            None => {
                self.hosts.insert(
                    report.host,
                    HostRecord {
                        last: report,
                        last_seen: now,
                        reservations: Vec::new(),
                    },
                );
            }
        }
        ReportOutcome::Accepted
    }

    /// The current selectable views: fresh hosts only, with reservations
    /// folded into the effective load.
    fn views(&mut self, now: SimTime, candidates: &[u32]) -> Vec<HostView> {
        self.hosts
            .iter_mut()
            .filter(|(host, rec)| {
                (candidates.is_empty() || candidates.contains(host))
                    && now.since(rec.last_seen) < STALE_AFTER
            })
            .map(|(host, rec)| {
                rec.reservations.retain(|&exp| exp > now);
                HostView {
                    host: *host,
                    speed: rec.last.speed,
                    eff_load: rec.last.load_avg + rec.reservations.len() as f64,
                    cpu_util: rec.last.cpu_util,
                }
            })
            .collect()
    }

    /// Select the best host among `candidates` (empty = all known), adding
    /// a placement reservation on the winner.
    fn select_at(&mut self, now: SimTime, candidates: &[u32]) -> Option<u32> {
        let views = self.views(now, candidates);
        let pick = self.policy.select(&views)?;
        let chosen_load = views
            .iter()
            .find(|v| v.host == pick)
            .map(|v| v.eff_load)
            .unwrap_or(0.0);
        let min_load = views.iter().fold(f64::INFINITY, |m, v| m.min(v.eff_load));
        self.last_placement = Some((
            pick,
            obs::milli(chosen_load),
            obs::milli(if min_load.is_finite() { min_load } else { 0.0 }),
        ));
        if let Some(rec) = self.hosts.get_mut(&pick) {
            rec.reservations.push(now + RESERVATION_TTL);
        }
        Some(pick)
    }

    /// A full status dump (for tools, tests, and the load-balancing demo).
    fn snapshot_at(&mut self, now: SimTime) -> Vec<HostStatus> {
        let mut out: Vec<HostStatus> = self
            .hosts
            .iter_mut()
            .map(|(host, rec)| {
                rec.reservations.retain(|&exp| exp > now);
                let alive = now.since(rec.last_seen) < STALE_AFTER;
                let view = HostView {
                    host: *host,
                    speed: rec.last.speed,
                    eff_load: rec.last.load_avg + rec.reservations.len() as f64,
                    cpu_util: rec.last.cpu_util,
                };
                HostStatus {
                    host: *host,
                    speed: rec.last.speed,
                    load_avg: rec.last.load_avg,
                    cpu_util: rec.last.cpu_util,
                    runnable: rec.last.runnable,
                    reservations: view.eff_load - rec.last.load_avg,
                    alive,
                    score: performance_score(&view),
                }
            })
            .collect();
        out.sort_unstable_by_key(|s| s.host);
        out
    }

    /// Number of hosts with fresh reports.
    fn alive_hosts(&mut self, now: SimTime) -> usize {
        self.views(now, &[]).len()
    }
}

impl Winner::SystemManager for SystemManager {
    fn report(&mut self, call: &mut CallCtx<'_>, load: LoadReport) -> Result<(), Exception> {
        let outcome = self.ingest(call.ctx.now(), load);
        let o = call.orb.obs();
        o.counter_add("winner.reports", 1);
        match outcome {
            ReportOutcome::Accepted => {}
            ReportOutcome::StaleSeq => o.counter_add("winner.stale_reports", 1),
            ReportOutcome::SkewQuarantined => o.counter_add("winner.skewed_reports", 1),
        }
        Ok(())
    }

    /// `(found, host)`.
    fn select(
        &mut self,
        call: &mut CallCtx<'_>,
        req: SelectRequest,
    ) -> Result<(bool, u32), Exception> {
        let now = call.ctx.now();
        let pick = self.select_at(now, &req.candidates);
        let o = call.orb.obs();
        o.counter_add("winner.selections", 1);
        match pick {
            Some(host) => {
                if let Some(rec) = self.hosts.get(&host) {
                    // How old the winning report was: the staleness the
                    // placement decision acted on.
                    o.observe("winner.report_age_ns", now.since(rec.last_seen).as_nanos());
                    // Reservations already on the winner beyond the one
                    // select_at() just pushed: back-to-back placements
                    // landing on the same host.
                    let hits = rec.reservations.len().saturating_sub(1) as u64;
                    if hits > 0 {
                        o.counter_add("winner.reservation_hits", hits);
                    }
                }
            }
            None => o.counter_add("winner.select_misses", 1),
        }
        // Counting live hosts prunes reservations: only a recorded gauge
        // is worth that work.
        if o.recording() {
            o.gauge_set("winner.alive_hosts", self.alive_hosts(now) as f64);
        }
        if let Some((chosen, chosen_m, min_m)) = self.last_placement.take() {
            o.event(
                call.ctx.now(),
                EventBody::Placement {
                    chosen,
                    chosen_load_milli: chosen_m,
                    min_load_milli: min_m,
                },
            );
        }
        Ok((pick.is_some(), pick.unwrap_or(0)))
    }

    fn snapshot(&mut self, call: &mut CallCtx<'_>) -> Result<Vec<HostStatus>, Exception> {
        Ok(self.snapshot_at(call.ctx.now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BestPerformance;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    fn report(host: u32, load: f64, seq: u64) -> LoadReport {
        LoadReport {
            host,
            speed: 1.0,
            runnable: load as u32,
            load_avg: load,
            cpu_util: if load > 0.0 { 1.0 } else { 0.0 },
            seq,
            stamp_ns: 0,
        }
    }

    /// A report whose wall-clock stamp agrees with the ingest time.
    fn report_at(host: u32, load: f64, seq: u64, at: SimTime) -> LoadReport {
        LoadReport {
            stamp_ns: at.as_nanos() as i64,
            ..report(host, load, seq)
        }
    }

    fn mgr() -> SystemManager {
        SystemManager::new(Box::new(BestPerformance))
    }

    #[test]
    fn selects_least_loaded_fresh_host() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 1.0, 1));
        m.ingest(t(0.0), report(1, 0.0, 1));
        assert_eq!(m.select_at(t(0.1), &[]), Some(1));
    }

    #[test]
    fn candidates_filter_applies() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 1.0, 1));
        m.ingest(t(0.0), report(1, 0.0, 1));
        assert_eq!(m.select_at(t(0.1), &[0]), Some(0));
    }

    #[test]
    fn stale_hosts_are_not_selected() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 0.0, 1));
        m.ingest(t(10.0), report_at(1, 5.0, 1, t(10.0)));
        // At t=10, host 0's report is 10s old (stale_after 3.5s).
        assert_eq!(m.select_at(t(10.0), &[]), Some(1));
        assert_eq!(m.alive_hosts(t(10.0)), 1);
    }

    #[test]
    fn reservations_spread_consecutive_selections() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 0.0, 1));
        m.ingest(t(0.0), report(1, 0.0, 1));
        m.ingest(t(0.0), report(2, 0.0, 1));
        // Three back-to-back selections must hit three different hosts.
        let picks: Vec<_> = (0..3).map(|_| m.select_at(t(0.1), &[]).unwrap()).collect();
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "{picks:?}");
    }

    #[test]
    fn reservations_expire() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 0.0, 1));
        assert_eq!(m.select_at(t(0.0), &[]), Some(0));
        // Within TTL the host carries a reservation…
        let snap = m.snapshot_at(t(0.5));
        assert!(snap[0].reservations > 0.9);
        // …which expires (TTL 1.5s), but the report also goes stale, so
        // re-ingest a fresh report first.
        m.ingest(t(3.0), report_at(0, 0.0, 2, t(3.0)));
        let snap = m.snapshot_at(t(3.0));
        assert_eq!(snap[0].reservations, 0.0);
    }

    #[test]
    fn out_of_order_reports_are_dropped_until_the_record_is_stale() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 0.0, 5));
        let older_seq = report(0, 9.0, 4);
        assert_eq!(m.ingest(t(0.1), older_seq), ReportOutcome::StaleSeq);
        let snap = m.snapshot_at(t(0.2));
        assert_eq!(snap[0].load_avg, 0.0);
        // A stale record is replaced whatever its seq: a rebooted node
        // manager counts from 1 again.
        let rebooted = report_at(0, 2.0, 1, t(3.5));
        assert_eq!(m.ingest(t(3.5), rebooted), ReportOutcome::Accepted);
        assert!(m.snapshot_at(t(3.6))[0].alive);
    }

    #[test]
    fn far_skewed_reports_are_quarantined() {
        let mut m = mgr();
        m.ingest(t(1.0), report_at(0, 0.0, 1, t(1.0)));
        // Host 1's clock is half a second ahead — beyond the 100 ms
        // quarantine bound. Its reports never reach the record, so it is
        // invisible to selection.
        let skewed = LoadReport {
            stamp_ns: t(1.5).as_nanos() as i64,
            ..report(1, 0.0, 1)
        };
        assert_eq!(m.ingest(t(1.0), skewed), ReportOutcome::SkewQuarantined);
        assert_eq!(m.select_at(t(1.1), &[]), Some(0));
        assert_eq!(m.snapshot_at(t(1.1)).len(), 1, "quarantined host unknown");
        // Skew healed: the same host's sane report is accepted again.
        assert_eq!(
            m.ingest(t(2.0), report_at(1, 0.0, 2, t(2.0))),
            ReportOutcome::Accepted
        );
        assert_eq!(m.snapshot_at(t(2.0)).len(), 2);
    }

    #[test]
    fn skew_bound_is_inclusive_of_ordinary_latency() {
        let mut m = mgr();
        // 100 ms behind — exactly at the bound, still accepted (report
        // latency plus a sampling gap must not look like skew).
        let r = LoadReport {
            stamp_ns: t(0.9).as_nanos() as i64,
            ..report(0, 0.0, 1)
        };
        assert_eq!(m.ingest(t(1.0), r), ReportOutcome::Accepted);
    }

    #[test]
    fn empty_manager_selects_none() {
        let mut m = mgr();
        assert_eq!(m.select_at(t(0.0), &[]), None);
        assert!(m.snapshot_at(t(0.0)).is_empty());
    }

    #[test]
    fn snapshot_reports_liveness_and_score() {
        let mut m = mgr();
        m.ingest(t(0.0), report(0, 1.0, 1));
        let snap = m.snapshot_at(t(0.1));
        assert!(snap[0].alive);
        assert!((snap[0].score - 0.5).abs() < 1e-12);
        let snap = m.snapshot_at(t(100.0));
        assert!(!snap[0].alive);
    }
}
