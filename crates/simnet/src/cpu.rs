//! Per-host CPU model with processor sharing, plus the load metrics the
//! Winner resource manager samples.
//!
//! Every host has a single CPU of a given `speed` (work units per second).
//! All compute jobs that are runnable on the host at a given instant share
//! the CPU equally: with `n` jobs each progresses at `speed / n` units per
//! second. This is the classic processor-sharing queue and is precisely the
//! physics behind the paper's Figure 3 — a worker co-located with one
//! background load process runs at half speed, and the manager waits for the
//! slowest worker.
//!
//! Load metrics mirror what a Unix kernel exposes: the current number of
//! runnable jobs, an exponentially-weighted moving average of that count
//! (the "load average"), and a utilization EWMA.

use std::collections::BTreeMap;

use crate::ids::Pid;
use crate::time::{SimDuration, SimTime};

/// Work remaining threshold below which a job counts as finished. Completion
/// times are rounded up to whole nanoseconds, so a tiny positive residue can
/// remain at the scheduled completion instant.
const WORK_EPS: f64 = 1e-6;

/// Static configuration of a simulated workstation.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Human-readable name (used in traces).
    pub name: String,
    /// CPU speed in work units per second. One work unit equals one second
    /// of compute on a speed-1.0 host.
    pub speed: f64,
}

impl HostConfig {
    /// A host with the given name and unit speed.
    pub fn new(name: impl Into<String>) -> Self {
        HostConfig {
            name: name.into(),
            speed: 1.0,
        }
    }

    /// Set the CPU speed (work units per second).
    pub fn speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0, "host speed must be positive");
        self.speed = speed;
        self
    }
}

/// One compute job on a host CPU.
#[derive(Clone, Debug)]
struct Job {
    pid: Pid,
    /// Remaining work units. `f64::INFINITY` models a background load
    /// process that spins forever.
    remaining: f64,
}

/// A snapshot of a host's state and load metrics, as returned by
/// [`Ctx::host_info`](crate::process::Ctx::host_info). This is the simulated
/// analogue of the data a Winner node manager reads from the host OS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostSnapshot {
    /// Host identity (filled in by the kernel).
    pub up: bool,
    /// CPU speed in work units per second.
    pub speed: f64,
    /// Number of currently runnable compute jobs.
    pub runnable: u32,
    /// EWMA of the runnable-job count (Unix-style load average).
    pub load_avg: f64,
    /// EWMA of CPU busyness in [0, 1].
    pub cpu_util: f64,
    /// Offset of this host's wall clock from virtual time, in nanoseconds
    /// (fault-injected; zero on a healthy host). Readers that stamp
    /// wall-clock times (e.g. Winner load reports) add this to `now`.
    pub clock_skew_ns: i64,
}

/// Dynamic state of one host: its CPU, its jobs, and its metrics.
#[derive(Debug)]
pub(crate) struct HostState {
    pub(crate) cfg: HostConfig,
    pub(crate) up: bool,
    jobs: Vec<Job>,
    last_update: SimTime,
    /// Bumped whenever the job set changes, to invalidate in-flight
    /// completion-check events.
    pub(crate) cpu_epoch: u64,
    /// EWMA of the runnable-job count.
    load_avg: f64,
    /// EWMA of busyness (1.0 while any job is runnable).
    cpu_util: f64,
    /// EWMA time constant.
    tau: f64,
    /// Fault-injected wall-clock offset, surfaced via [`HostSnapshot`].
    pub(crate) clock_skew_ns: i64,
    /// Virtual-time CPU attribution: nanoseconds of CPU delivered to each
    /// process that ever computed on this host. Under processor sharing a
    /// job receives `dt / n` CPU-seconds over an interval with `n` runnable
    /// jobs, independent of host speed (speed scales the *work* done, not
    /// the CPU-time share). Purely a function of the event sequence, so
    /// same-seed runs attribute identically.
    pub(crate) cpu_by_pid: BTreeMap<Pid, u64>,
}

impl HostState {
    pub(crate) fn new(cfg: HostConfig, tau: SimDuration) -> Self {
        HostState {
            cfg,
            up: true,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            cpu_epoch: 0,
            load_avg: 0.0,
            cpu_util: 0.0,
            tau: tau.as_secs_f64().max(1e-9),
            clock_skew_ns: 0,
            cpu_by_pid: BTreeMap::new(),
        }
    }

    /// Advance job progress and metrics from `last_update` to `now`.
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let n = self.jobs.len();
            if n > 0 {
                let per_job = dt * self.cfg.speed / n as f64;
                // Integer CPU-time share per job (truncation loses < 1 ns
                // per advance; attribution is a profile, not a ledger).
                let per_job_cpu_ns = now.since(self.last_update).as_nanos() / n as u64;
                for j in &mut self.jobs {
                    // `inf - x` stays `inf`, so spinners are handled for free.
                    j.remaining -= per_job;
                    *self.cpu_by_pid.entry(j.pid).or_insert(0) += per_job_cpu_ns;
                }
            }
            // EWMA update: metrics held their pre-advance value over [last, now].
            let alpha = 1.0 - (-dt / self.tau).exp();
            self.load_avg += alpha * (n as f64 - self.load_avg);
            let busy = if n > 0 { 1.0 } else { 0.0 };
            self.cpu_util += alpha * (busy - self.cpu_util);
        }
        self.last_update = now;
    }

    /// Add a compute job. Returns the new epoch for scheduling a
    /// completion check.
    pub(crate) fn add_job(&mut self, now: SimTime, pid: Pid, work: f64) -> u64 {
        self.advance(now);
        self.jobs.push(Job {
            pid,
            remaining: work,
        });
        self.cpu_epoch += 1;
        self.cpu_epoch
    }

    /// Remove the job of `pid` (e.g., because the process was killed).
    /// Returns the new epoch if a job was removed.
    pub(crate) fn remove_job(&mut self, now: SimTime, pid: Pid) -> Option<u64> {
        self.advance(now);
        let before = self.jobs.len();
        self.jobs.retain(|j| j.pid != pid);
        if self.jobs.len() != before {
            self.cpu_epoch += 1;
            Some(self.cpu_epoch)
        } else {
            None
        }
    }

    /// Drop all jobs (host crash). Returns the pids whose jobs were dropped.
    pub(crate) fn clear_jobs(&mut self, now: SimTime) -> Vec<Pid> {
        self.advance(now);
        self.cpu_epoch += 1;
        self.jobs.drain(..).map(|j| j.pid).collect()
    }

    /// Complete all finished jobs at `now`, handing each pid to `done` in
    /// job order, and return how many finished. Also bumps the epoch when
    /// any did, since membership changed.
    pub(crate) fn take_finished(&mut self, now: SimTime, mut done: impl FnMut(Pid)) -> usize {
        self.advance(now);
        let before = self.jobs.len();
        self.jobs.retain(|j| {
            let finished = j.remaining <= WORK_EPS;
            if finished {
                done(j.pid);
            }
            !finished
        });
        let n = before - self.jobs.len();
        if n > 0 {
            self.cpu_epoch += 1;
        }
        n
    }

    /// Virtual instant at which the next job will finish under the current
    /// job set, or `None` if no finite job is present.
    ///
    /// The returned instant is rounded *up* to a whole nanosecond so that at
    /// the scheduled event the job's remaining work is `<= WORK_EPS`.
    pub(crate) fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        debug_assert_eq!(self.last_update, now, "advance() before next_completion()");
        let n = self.jobs.len();
        if n == 0 {
            return None;
        }
        let min_rem = self
            .jobs
            .iter()
            .map(|j| j.remaining)
            .fold(f64::INFINITY, f64::min);
        if !min_rem.is_finite() {
            return None;
        }
        if min_rem <= WORK_EPS {
            return Some(now);
        }
        let secs = min_rem * n as f64 / self.cfg.speed;
        let ns = (secs * 1e9).ceil() + 1.0;
        Some(now + SimDuration::from_nanos(ns as u64))
    }

    /// Current metrics snapshot (advances metrics to `now` first).
    pub(crate) fn snapshot(&mut self, now: SimTime) -> HostSnapshot {
        self.advance(now);
        HostSnapshot {
            up: self.up,
            speed: self.cfg.speed,
            runnable: self.jobs.len() as u32,
            load_avg: self.load_avg,
            cpu_util: self.cpu_util,
            clock_skew_ns: self.clock_skew_ns,
        }
    }

    /// Number of currently runnable jobs.
    pub(crate) fn runnable(&self) -> usize {
        self.jobs.len()
    }

    /// Total finite work remaining across jobs (test/diagnostic hook for the
    /// work-conservation property).
    #[cfg(test)]
    pub(crate) fn finite_work_remaining(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.jobs
            .iter()
            .map(|j| j.remaining)
            .filter(|r| r.is_finite())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostState {
        HostState::new(HostConfig::new("test"), SimDuration::from_secs(5))
    }

    fn t(secs: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn finished(h: &mut HostState, at: SimTime) -> Vec<Pid> {
        let mut pids = Vec::new();
        let n = h.take_finished(at, |pid| pids.push(pid));
        assert_eq!(n, pids.len());
        pids
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 2.0);
        let done = h.next_completion(t(0.0)).unwrap();
        // 2 work units at speed 1.0 => 2 seconds (+1ns rounding).
        let secs = done.as_secs_f64();
        assert!((secs - 2.0).abs() < 1e-6, "{secs}");
        assert!(finished(&mut h, done).contains(&Pid(1)));
        assert_eq!(h.runnable(), 0);
    }

    #[test]
    fn two_jobs_share_the_cpu() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 1.0);
        h.add_job(t(0.0), Pid(2), 1.0);
        let done = h.next_completion(t(0.0)).unwrap();
        // Each gets half the CPU: 1 unit takes 2 seconds.
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(finished(&mut h, done).len(), 2);
    }

    #[test]
    fn background_spinner_halves_throughput() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), f64::INFINITY); // background load
        h.add_job(t(0.0), Pid(2), 1.0);
        let done = h.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6, "{done:?}");
        assert_eq!(finished(&mut h, done), vec![Pid(2)]);
        // Spinner remains runnable and never completes.
        assert_eq!(h.runnable(), 1);
        assert!(h.next_completion(done).is_none());
    }

    #[test]
    fn faster_host_finishes_sooner() {
        let mut h = HostState::new(
            HostConfig::new("fast").speed(2.0),
            SimDuration::from_secs(5),
        );
        h.add_job(t(0.0), Pid(1), 2.0);
        let done = h.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn job_arrival_mid_run_slows_progress() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 2.0);
        // After 1s alone, 1 unit remains. A second job arrives.
        h.add_job(t(1.0), Pid(2), 1.0);
        // Both progress at 0.5/s: p2 done after 2 more seconds, p1 too.
        let done = h.next_completion(t(1.0)).unwrap();
        assert!((done.as_secs_f64() - 3.0).abs() < 1e-6, "{done:?}");
        assert_eq!(finished(&mut h, done).len(), 2);
    }

    #[test]
    fn remove_job_restores_full_speed() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 4.0);
        h.add_job(t(0.0), Pid(2), f64::INFINITY);
        // At t=2, p1 has done 1 unit (half speed); kill the spinner.
        assert!(h.remove_job(t(2.0), Pid(2)).is_some());
        let done = h.next_completion(t(2.0)).unwrap();
        // 3 units remain at full speed => t=5.
        assert!((done.as_secs_f64() - 5.0).abs() < 1e-6, "{done:?}");
    }

    #[test]
    fn remove_missing_job_is_noop() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 1.0);
        assert!(h.remove_job(t(0.5), Pid(99)).is_none());
        assert_eq!(h.runnable(), 1);
    }

    #[test]
    fn clear_jobs_reports_pids() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 1.0);
        h.add_job(t(0.0), Pid(2), f64::INFINITY);
        let dropped = h.clear_jobs(t(0.5));
        assert_eq!(dropped, vec![Pid(1), Pid(2)]);
        assert_eq!(h.runnable(), 0);
    }

    #[test]
    fn metrics_reflect_load() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), f64::INFINITY);
        h.add_job(t(0.0), Pid(2), f64::INFINITY);
        // After many time constants the EWMA converges to 2 jobs, util 1.0.
        let snap = h.snapshot(t(100.0));
        assert!(snap.load_avg > 1.9, "{snap:?}");
        assert!(snap.cpu_util > 0.99);
        assert_eq!(snap.runnable, 2);
        // Clear and idle for a long time: both decay towards 0.
        h.clear_jobs(t(100.0));
        let snap = h.snapshot(t(200.0));
        assert!(snap.load_avg < 0.1, "{snap:?}");
        assert!(snap.cpu_util < 0.1);
        assert_eq!(snap.runnable, 0);
    }

    #[test]
    fn work_is_conserved_under_membership_changes() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 10.0);
        h.add_job(t(1.0), Pid(2), 10.0);
        h.add_job(t(2.0), Pid(3), 10.0);
        h.remove_job(t(3.0), Pid(2));
        // Total CPU seconds delivered by t=3: 3s at speed 1.0 = 3 units,
        // minus whatever p2 still had when removed.
        // p2 ran [1,3): [1,2) at 1/2, [2,3) at 1/3 => 0.8333 done, 9.1667 left.
        // p1+p3 remaining = 30 - 3 (total delivered) + nothing... easier:
        // delivered work by t=3 equals 3.0 total; p2 took 5/6 with it.
        let rem = h.finite_work_remaining(t(3.0));
        let expected = 20.0 - (3.0 - 5.0 / 6.0);
        assert!(
            (rem - expected).abs() < 1e-9,
            "rem={rem} expected={expected}"
        );
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = HostConfig::new("bad").speed(0.0);
    }

    #[test]
    fn next_completion_handles_tiny_residue() {
        let mut h = host();
        h.add_job(t(0.0), Pid(1), 1.0);
        let done = h.next_completion(t(0.0)).unwrap();
        // At the completion event the job must actually be finished.
        assert_eq!(finished(&mut h, done), vec![Pid(1)]);
    }
}
