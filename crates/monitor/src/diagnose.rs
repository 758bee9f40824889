//! The reader: the doctor and the flight recorder replayed over a run's
//! event log.
//!
//! # Ordering and determinism
//!
//! Every event is recorded synchronously where it happens, in the process
//! that emits it or in the kernel's event hook, and the simulator runs one
//! process at a time in nondecreasing virtual time. So the sink's record
//! order *is* the order things happened: nothing crosses the simulated
//! network, nothing is buffered, and a partition or a crash cannot cost
//! the log an event. Recording spawns no process and sends no message, and
//! the replay is a pure function of the log, so everything derived here is
//! byte-identical across same-seed runs — and the same whether or not the
//! run was asked for a diagnosis.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use obs::{Event, EventBody, Obs, KERNEL_PID};
use simnet::{KernelEvent, SimTime};

use crate::doctor::Doctor;

/// Flight-recorder ring depth per host (last N events).
const FLIGHT_RING: usize = 32;
/// Post-mortem dumps retained verbatim; later triggers only count.
const MAX_DUMPS: usize = 4;

/// Per-host bounded event tails plus the post-mortems already dumped.
#[derive(Debug, Default)]
struct FlightRecorder {
    /// host -> rendered event lines, oldest first, at most [`FLIGHT_RING`]
    /// each.
    tails: BTreeMap<u32, VecDeque<String>>,
    dumps: Vec<String>,
    /// Dump triggers, retained or not.
    triggers: u64,
}

impl FlightRecorder {
    fn record(&mut self, ev: &Event) {
        let line = render_line(ev);
        let tail = self.tails.entry(ev.host).or_default();
        if tail.len() == FLIGHT_RING {
            tail.pop_front();
        }
        tail.push_back(line);
    }

    fn dump(&mut self, time_ns: u64, reason: &str, doctor: &Doctor) {
        self.triggers += 1;
        if self.dumps.len() >= MAX_DUMPS {
            return;
        }
        let (open, verdicts) = (doctor.open_episodes(), doctor.verdicts());
        let dump = fmt::from_fn(|s| {
            writeln!(s, "== post-mortem @{time_ns}ns: {reason} ==")?;
            for (host, tail) in &self.tails {
                writeln!(s, "-- host h{host} event tail --")?;
                for line in tail {
                    writeln!(s, "  {line}")?;
                }
            }
            for (title, lines) in [("open episodes", &*open), ("doctor verdicts", verdicts)] {
                writeln!(s, "-- {title} --")?;
                if lines.is_empty() {
                    writeln!(s, "  (none)")?;
                }
                for line in lines {
                    writeln!(s, "  {line}")?;
                }
            }
            writeln!(s, "== end post-mortem ==")
        });
        self.dumps.push(dump.to_string());
    }
}

/// Deterministic one-line rendering of an event for tails and dumps.
fn render_line(ev: &Event) -> String {
    let (time_ns, host, kind) = (ev.time_ns, ev.host, ev.body.kind());
    let who = match ev.pid {
        KERNEL_PID => "kernel".to_string(),
        pid => format!("p{pid}"),
    };
    let detail = ev.body.detail();
    let sep = if detail.is_empty() { "" } else { " " };
    format!("{time_ns}ns h{host} {who} {kind}{sep}{detail}")
}

/// What the doctor concluded about one run.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// Total invariant violations.
    pub violations: u64,
    /// The rendered report: event census, latency attribution, invariants,
    /// verdicts, violations, then the post-mortems. Deterministic.
    pub report: String,
    /// The post-mortem dumps (at most [`MAX_DUMPS`]).
    pub dumps: Vec<String>,
}

/// Replay `obs`'s event log through the doctor and the flight recorder,
/// close the run at `end`, and count the result into `obs`
/// (`monitor.events`, `monitor.dumps`, the `monitor.violations` gauge).
///
/// A post-mortem is dumped on a host crash, an invariant violation, and
/// the close of a recovery episode — at crash time the tails end at the
/// failure; at close time they span the whole episode (failure-detected …
/// recovery-finished) plus the verdict the doctor just issued.
pub fn diagnose(obs: &Obs, end: SimTime) -> Diagnosis {
    let events = obs.events();
    let n = events.len();
    let mut doctor = Doctor::new();
    let mut recorder = FlightRecorder::default();
    for ev in &events {
        recorder.record(ev);
        let fired = doctor.on_event(ev);
        let reason = match &ev.body {
            EventBody::Kernel(KernelEvent::HostCrash(h)) => Some(format!("host {h} crashed")),
            _ if !fired.is_empty() => Some(format!("invariant violated: {}", fired.join(", "))),
            EventBody::RecoveryFinished { target, .. } => {
                Some(format!("recovery episode closed: {target}"))
            }
            _ => None,
        };
        if let Some(reason) = reason {
            recorder.dump(ev.time_ns, &reason, &doctor);
        }
    }
    let ended_ns = end.as_nanos();
    let fired = doctor.finalize(ended_ns);
    if !fired.is_empty() {
        let reason = format!("invariant violated at end of run: {}", fired.join(", "));
        recorder.dump(ended_ns, &reason, &doctor);
    }
    // A counter is created by its first add, so count only what happened.
    for (counter, count) in [
        ("monitor.events", n as u64),
        ("monitor.dumps", recorder.triggers),
    ] {
        if count > 0 {
            obs.counter_add(counter, count);
        }
    }
    let violations = doctor.violation_count();
    obs.gauge_set("monitor.violations", violations as f64);
    let report = fmt::from_fn(|out| {
        writeln!(out, "doctor report")?;
        writeln!(out, "=============")?;
        writeln!(out, "ingested: {n} events (run ended {ended_ns}ns)")?;
        doctor.render_report(out)?;
        writeln!(out, "post-mortems: {}", recorder.dumps.len())?;
        for d in &recorder.dumps {
            out.write_str(d)?;
        }
        let suppressed = recorder.triggers - recorder.dumps.len() as u64;
        if suppressed > 0 {
            writeln!(
                out,
                "({suppressed} further post-mortem triggers suppressed)"
            )?;
        }
        Ok(())
    })
    .to_string();
    Diagnosis {
        violations,
        report,
        dumps: recorder.dumps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::HostId;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn host_crash_dumps_a_post_mortem() {
        let obs = Obs::new();
        let spawn = KernelEvent::ProcSpawn {
            pid: simnet::Pid(4),
            name: "worker".into(),
            host: HostId(1),
        };
        obs.kernel_event(t(5), &spawn);
        obs.kernel_event(t(500), &KernelEvent::HostCrash(HostId(1)));
        let d = diagnose(&obs, t(1_000));
        assert_eq!(d.dumps.len(), 1);
        assert!(d.dumps[0].contains("host h1 crashed"));
        assert!(d.dumps[0].contains("host h1 down since 500ns"));
        assert!(d.dumps[0].contains("5ns h1 kernel proc-spawn name=worker"));
        assert!(d.report.contains("ingested: 2 events (run ended 1000ns)"));
        assert_eq!(
            (obs.counter("monitor.events"), obs.counter("monitor.dumps")),
            (2, 1)
        );
    }

    #[test]
    fn the_replay_is_the_record_order() {
        let obs = Obs::new();
        let restart = KernelEvent::HostRestart(HostId(2));
        obs.kernel_event(t(10), &KernelEvent::HostCrash(HostId(2)));
        obs.kernel_event(t(10), &restart);
        let d = diagnose(&obs, t(20));
        assert_eq!(d.violations, 0);
        // The crash dump was taken before the restart was replayed.
        assert!(d.dumps[0].contains("host h2 down since 10ns"));
        assert!(!d.dumps[0].contains("host-restart"));
        assert!(d.report.contains("  host-crash: 1\n  host-restart: 1\n"));
    }

    #[test]
    fn recovery_budget_invariant_fires_on_slow_recovery() {
        // One call served in 1 µs is the baseline; an episode longer than
        // 10 000 of those trips the budget and dumps a post-mortem.
        let obs = Obs::new();
        let proxy = obs::ProcessObs::for_process(obs.clone(), 1, 4);
        let done = EventBody::RequestDone {
            target: "w".into(),
            wait_ns: 0,
            service_ns: 1_000,
            ckpt_ns: 0,
        };
        proxy.event(t(10), done);
        let dur_ns = 10_000_001;
        proxy.event(
            t(20 + dur_ns),
            EventBody::RecoveryFinished {
                target: "w".into(),
                dur_ns,
            },
        );
        let d = diagnose(&obs, t(30_000_000));
        assert_eq!(d.violations, 1, "{}", d.report);
        let verdict = "10000021ns recovery-budget w: episode 10000001ns budget 10000000ns \
                       (10000x mean 1000ns) -> VIOLATION";
        let violation = "10000021ns recovery-budget: w episode 10000001ns exceeds budget";
        for line in [verdict, violation] {
            assert!(d.report.contains(line), "{}", d.report);
        }
        let dumps = d.dumps.concat();
        assert!(dumps.contains("invariant violated: recovery-budget w"));
    }
}
