//! The monitor handle: what every process emits into and what the driver
//! reads back — the doctor, the flight recorder and the stream itself.
//!
//! # Ordering and determinism
//!
//! An emission runs the recorder and the doctor synchronously, in the
//! emitting process, stamped with that process's virtual clock. The
//! simulator runs one process at a time in nondecreasing virtual time, and
//! the kernel hands its own lifecycle events to the hook as they happen,
//! before any process runs on, so the order of emission *is* the order of
//! the stream:
//! nothing crosses the simulated network, nothing is buffered, and a
//! partition or a crash cannot cost the doctor an event. A monitored run
//! therefore spawns no process and sends no message an unmonitored one
//! does not, and everything derived from the stream is byte-identical
//! across same-seed runs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use obs::Obs;
use simnet::{Ctx, KernelEvent, Shared, SimTime};

use crate::doctor::{Doctor, MonitorConfig};
use crate::events::{Event, EventBody, KERNEL_PID};

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
    suppressed_dumps: u64,
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

    fn dump(&mut self, time_ns: u64, reason: &str, episodes: &[String], verdicts: &[String]) {
        if self.dumps.len() >= MAX_DUMPS {
            self.suppressed_dumps += 1;
            return;
        }
        let dump = fmt::from_fn(|s| {
            writeln!(s, "== post-mortem @{time_ns}ns: {reason} ==")?;
            for (host, tail) in &self.tails {
                writeln!(s, "-- host h{host} event tail --")?;
                for line in tail {
                    writeln!(s, "  {line}")?;
                }
            }
            writeln!(s, "-- open episodes --")?;
            if episodes.is_empty() {
                writeln!(s, "  (none)")?;
            }
            for e in episodes {
                writeln!(s, "  {e}")?;
            }
            writeln!(s, "-- doctor verdicts --")?;
            if verdicts.is_empty() {
                writeln!(s, "  (none)")?;
            }
            for v in verdicts {
                writeln!(s, "  {v}")?;
            }
            writeln!(s, "== end post-mortem ==")
        });
        self.dumps.push(dump.to_string());
    }
}

/// Deterministic one-line rendering of an event for tails and dumps.
fn render_line(ev: &Event) -> String {
    let detail = ev.body.detail();
    let who = if ev.pid == KERNEL_PID {
        "kernel".to_string()
    } else {
        format!("p{}", ev.pid)
    };
    if detail.is_empty() {
        format!("{}ns h{} {} {}", ev.time_ns, ev.host, who, ev.body.kind())
    } else {
        format!(
            "{}ns h{} {} {} {}",
            ev.time_ns,
            ev.host,
            who,
            ev.body.kind(),
            detail
        )
    }
}

/// The analysis state behind a [`MonitorHandle`].
#[derive(Debug)]
struct State {
    obs: Option<Obs>,
    doctor: Doctor,
    recorder: FlightRecorder,
    /// Every event so far, in emission order. Kept whole: a run emits
    /// hundreds to a few thousand events, and a bounded ring would need
    /// the depth and drop accounting back.
    stream: Vec<Event>,
    /// Virtual time [`State::finalize`] ran at (0 until then).
    ended_ns: u64,
}

impl State {
    /// Hand one event to the recorder and the doctor, dumping a
    /// post-mortem when it is a crash, closes a recovery episode, or fires
    /// an invariant.
    fn ingest(&mut self, ev: Event) {
        self.count("monitor.events");
        self.recorder.record(&ev);
        let fired = self.doctor.on_event(&ev);
        let reason = match &ev.body {
            EventBody::Kernel(KernelEvent::HostCrash(h)) => Some(format!("host {h} crashed")),
            _ if !fired.is_empty() => Some(format!("invariant violated: {}", fired.join(", "))),
            // At crash time the tail ends at the failure; at close time it
            // spans the whole episode (failure-detected …
            // recovery-finished) plus the verdict the doctor just issued.
            EventBody::RecoveryFinished { target, .. } => {
                Some(format!("recovery episode closed: {target}"))
            }
            _ => None,
        };
        if let Some(reason) = reason {
            self.dump(ev.time_ns, &reason);
        }
        self.stream.push(ev);
    }

    fn dump(&mut self, time_ns: u64, reason: &str) {
        self.recorder.dump(
            time_ns,
            reason,
            &self.doctor.open_episodes(),
            self.doctor.verdicts(),
        );
        self.count("monitor.dumps");
    }

    fn count(&self, counter: &str) {
        if let Some(o) = &self.obs {
            o.counter_add(counter, 1);
        }
    }

    /// Run the doctor's end-of-run pass and export the summary gauge.
    fn finalize(&mut self, now: SimTime) {
        self.ended_ns = now.as_nanos();
        let fired = self.doctor.finalize(self.ended_ns);
        if !fired.is_empty() {
            let reason = format!("invariant violated at end of run: {}", fired.join(", "));
            self.dump(self.ended_ns, &reason);
        }
        if let Some(o) = &self.obs {
            o.gauge_set("monitor.violations", self.doctor.violation_count() as f64);
        }
    }

    /// Render the full doctor report: analysis, then the post-mortems.
    fn render_report(&self) -> String {
        fmt::from_fn(|out| {
            writeln!(out, "doctor report")?;
            writeln!(out, "=============")?;
            writeln!(
                out,
                "ingested: {} events (run ended {}ns)",
                self.stream.len(),
                self.ended_ns
            )?;
            self.doctor.render_report(out)?;
            writeln!(out, "post-mortems: {}", self.recorder.dumps.len())?;
            for d in &self.recorder.dumps {
                out.write_str(d)?;
            }
            if self.recorder.suppressed_dumps > 0 {
                writeln!(
                    out,
                    "({} further post-mortem triggers suppressed)",
                    self.recorder.suppressed_dumps
                )?;
            }
            Ok(())
        })
        .to_string()
    }
}

/// The monitoring state of one run, shared by every emitter and the
/// driver. Service configs carry a clone; a process calls
/// [`MonitorHandle::emit`], the driver installs
/// [`MonitorHandle::on_kernel_event`] as the kernel's event hook and reads
/// the report when the run ends.
#[derive(Clone, Debug)]
pub struct MonitorHandle {
    state: Shared<State>,
}

impl MonitorHandle {
    /// Fresh handle with the given thresholds and metric sink.
    pub fn new(cfg: MonitorConfig, obs: Option<Obs>) -> Self {
        let state = Shared::new(State {
            obs,
            doctor: Doctor::new(cfg),
            recorder: FlightRecorder::default(),
            stream: Vec::new(),
            ended_ns: 0,
        });
        MonitorHandle { state }
    }

    /// Emit one event from the process behind `ctx`, stamped with its
    /// clock, host and pid. Never blocks and cannot fail: safe inside a
    /// servant's dispatch.
    pub fn emit(&self, ctx: &Ctx, body: EventBody) {
        self.state.lock().ingest(Event {
            time_ns: ctx.now().as_nanos(),
            host: ctx.host().0,
            pid: ctx.pid().0,
            body,
        });
    }

    /// Feed one kernel lifecycle event, at its fire time — the body of the
    /// driver's `Kernel::set_event_hook` closure.
    pub fn on_kernel_event(&self, now: SimTime, kev: &KernelEvent) {
        self.state
            .lock()
            .ingest(Event::from_kernel(now.as_nanos(), kev));
    }

    /// Close the run: the doctor judges what is still open. Call before
    /// [`Self::report`].
    pub fn finalize(&self, now: SimTime) {
        self.state.lock().finalize(now);
    }

    /// Total invariant violations the doctor recorded.
    pub fn violations(&self) -> u64 {
        self.state.lock().doctor.violation_count()
    }

    /// Render the doctor report (deterministic).
    pub fn report(&self) -> String {
        self.state.lock().render_report()
    }

    /// Post-mortem dumps recorded so far (at most [`MAX_DUMPS`]).
    pub fn dumps(&self) -> Vec<String> {
        self.state.lock().recorder.dumps.clone()
    }

    /// The stream so far: every event, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.state.lock().stream.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::HostId;

    #[test]
    fn host_crash_dumps_a_post_mortem() {
        let mon = MonitorHandle::new(MonitorConfig::default(), None);
        let spawn = KernelEvent::ProcSpawn {
            pid: simnet::Pid(4),
            name: "worker".into(),
            host: HostId(1),
        };
        mon.on_kernel_event(SimTime::from_nanos(5), &spawn);
        mon.on_kernel_event(SimTime::from_nanos(500), &KernelEvent::HostCrash(HostId(1)));
        mon.finalize(SimTime::from_nanos(1_000));
        let dumps = mon.dumps();
        assert_eq!(dumps.len(), 1);
        assert!(dumps[0].contains("host h1 crashed"));
        assert!(dumps[0].contains("host h1 down since 500ns"));
        assert!(dumps[0].contains("5ns h1 kernel proc-spawn name=worker"));
        assert!(mon
            .report()
            .contains("ingested: 2 events (run ended 1000ns)"));
    }

    #[test]
    fn the_stream_is_the_emission_order() {
        let mon = MonitorHandle::new(MonitorConfig::default(), None);
        let restart = KernelEvent::HostRestart(HostId(2));
        mon.on_kernel_event(SimTime::from_nanos(10), &KernelEvent::HostCrash(HostId(2)));
        mon.on_kernel_event(SimTime::from_nanos(10), &restart);
        let kinds: Vec<_> = mon.events().iter().map(|e| e.body.kind()).collect();
        assert_eq!(kinds, ["host-crash", "host-restart"]);
        assert_eq!(mon.violations(), 0);
    }
}
