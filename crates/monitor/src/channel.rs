//! The event channel: ordered ingest, the watermark that restores
//! publish order, subscriber rings, and the flight recorder.
//!
//! # Ordering and determinism
//!
//! Publishers stamp events with their own virtual clock, but pushes cross
//! the simulated network, so arrival order at the channel can differ from
//! publish order when publishers sit on hosts with different latencies.
//! The channel therefore buffers arrivals in a `BTreeMap` keyed by
//! [`Event::key`] `(time, host, pid, seq)` and only releases events to the
//! doctor/recorder/subscribers once the **watermark** — channel-local time
//! minus [`crate::MonitorConfig::reorder_slack`] — has passed them. With
//! the slack well above the maximum delivery delay, released order equals
//! publish order, and because the whole simulation is deterministic the
//! stream (and everything derived from it) is byte-identical across
//! same-seed runs. An event that still arrives behind the watermark (only
//! possible for pre-boot publisher buffers) is processed immediately and
//! counted in `monitor.late_events`.
//!
//! [`ChannelState::finalize`] drains whatever the watermark still holds;
//! the driver calls it after the run so the report covers every event.

use std::collections::{BTreeMap, VecDeque};

use obs::Obs;
use orb::{CallCtx, Exception};
use simnet::{KernelEvent, Shared, SimTime};

use crate::doctor::{Doctor, MonitorConfig};
use crate::events::{Event, EventBody, Monitor};

/// Publisher pid used for kernel-origin events (there is no sim process
/// behind them).
pub const KERNEL_PID: u32 = u32::MAX;

/// A watermark hold for one publisher host the channel cannot currently
/// hear from (a partition cut it off). While any hold is active the
/// watermark stays at the earliest hold's floor, so events the host flushes
/// after the heal are ordered normally instead of landing behind the
/// high-water mark and being counted late (DESIGN.md §13).
#[derive(Debug)]
struct Hold {
    /// Watermark cap: the virtual time the cut happened.
    floor_ns: u64,
    /// Overlapping cuts isolating this host; the hold lifts when the last
    /// one heals (plus the flush grace).
    depth: u32,
    /// Once healed: drop the hold when the channel clock passes this.
    release_at_ns: Option<u64>,
}

/// One subscriber's bounded ring.
#[derive(Debug, Default)]
struct SubRing {
    depth: usize,
    ring: VecDeque<Event>,
    dropped: u64,
}

/// Per-host bounded event tails plus the post-mortems already dumped.
#[derive(Debug)]
struct FlightRecorder {
    ring: usize,
    /// host -> rendered event lines, oldest first, at most `ring` each.
    tails: BTreeMap<u32, VecDeque<String>>,
    dumps: Vec<String>,
    max_dumps: usize,
    suppressed_dumps: u64,
}

impl FlightRecorder {
    fn record(&mut self, ev: &Event) {
        let line = render_line(ev);
        let tail = self.tails.entry(ev.host).or_default();
        if tail.len() == self.ring {
            tail.pop_front();
        }
        tail.push_back(line);
    }

    fn dump(&mut self, time_ns: u64, reason: &str, episodes: &[String], verdicts: &[String]) {
        if self.dumps.len() >= self.max_dumps {
            self.suppressed_dumps += 1;
            return;
        }
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, "== post-mortem @{time_ns}ns: {reason} ==");
        for (host, tail) in &self.tails {
            let _ = writeln!(s, "-- host h{host} event tail --");
            for line in tail {
                let _ = writeln!(s, "  {line}");
            }
        }
        let _ = writeln!(s, "-- open episodes --");
        if episodes.is_empty() {
            let _ = writeln!(s, "  (none)");
        }
        for e in episodes {
            let _ = writeln!(s, "  {e}");
        }
        let _ = writeln!(s, "-- doctor verdicts --");
        if verdicts.is_empty() {
            let _ = writeln!(s, "  (none)");
        }
        for v in verdicts {
            let _ = writeln!(s, "  {v}");
        }
        let _ = writeln!(s, "== end post-mortem ==");
        self.dumps.push(s);
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

/// The channel's shared state: servant frontend and kernel hook both feed
/// it; the driver finalizes and renders it.
#[derive(Debug)]
pub struct ChannelState {
    cfg: MonitorConfig,
    obs: Option<Obs>,
    /// Events past the watermark, awaiting release, in publish order.
    pending: BTreeMap<(u64, u32, u32, u64), Event>,
    watermark_ns: u64,
    doctor: Doctor,
    recorder: FlightRecorder,
    subs: BTreeMap<u32, SubRing>,
    next_sub: u32,
    /// Ring drops carried over from unsubscribed rings, so `stats` stays
    /// monotone across detaches.
    retired_dropped: u64,
    kernel_seq: u64,
    received: u64,
    late: u64,
    /// Publisher hosts currently cut off from the channel: host -> hold.
    holds: BTreeMap<u32, Hold>,
}

impl ChannelState {
    /// Fresh channel state with the given thresholds and metric sink.
    pub fn new(cfg: MonitorConfig, obs: Option<Obs>) -> Self {
        let recorder = FlightRecorder {
            ring: cfg.flight_ring.max(1),
            tails: BTreeMap::new(),
            dumps: Vec::new(),
            max_dumps: cfg.max_dumps.max(1),
            suppressed_dumps: 0,
        };
        let doctor = Doctor::new(cfg.clone());
        ChannelState {
            cfg,
            obs,
            pending: BTreeMap::new(),
            watermark_ns: 0,
            doctor,
            recorder,
            subs: BTreeMap::new(),
            next_sub: 1,
            retired_dropped: 0,
            kernel_seq: 0,
            received: 0,
            late: 0,
            holds: BTreeMap::new(),
        }
    }

    /// Ingest one published event, then advance the watermark to
    /// `now - reorder_slack` and release everything behind it.
    pub fn ingest(&mut self, now: SimTime, ev: Event) {
        self.received += 1;
        if let Some(o) = &self.obs {
            o.counter_add("monitor.events", 1);
        }
        if ev.time_ns < self.watermark_ns {
            // Arrived behind an already-advanced watermark (pre-boot
            // publisher buffer): analyze immediately rather than reorder
            // what was already released.
            self.late += 1;
            if let Some(o) = &self.obs {
                o.counter_add("monitor.late_events", 1);
            }
            self.release(ev);
        } else {
            self.pending.insert(ev.key(), ev);
        }
        self.advance(now);
    }

    /// Translate a kernel lifecycle event and ingest it. Kernel events are
    /// delivered at their exact fire time (no network between the kernel
    /// and its own hook) — which is also why partition events can install
    /// watermark holds before any cut-off publisher data goes missing.
    pub fn ingest_kernel(&mut self, now: SimTime, kev: &KernelEvent) {
        fn ids(hosts: &[simnet::HostId]) -> Vec<u32> {
            hosts.iter().map(|h| h.0).collect()
        }
        let (host, body) = match kev {
            KernelEvent::ProcSpawn { name, host, .. } => {
                (host.0, EventBody::ProcSpawn { name: name.clone() })
            }
            KernelEvent::ProcExit { name, host, .. } => {
                (host.0, EventBody::ProcExit { name: name.clone() })
            }
            KernelEvent::ProcKill { name, host, .. } => {
                (host.0, EventBody::ProcKill { name: name.clone() })
            }
            KernelEvent::HostCrash(h) => (h.0, EventBody::HostCrash),
            KernelEvent::HostRestart(h) => (h.0, EventBody::HostRestart),
            KernelEvent::PartitionStart { a, b, oneway } => {
                for h in self.hold_targets(a, b, *oneway) {
                    let hold = self.holds.entry(h).or_insert(Hold {
                        floor_ns: now.as_nanos(),
                        depth: 0,
                        release_at_ns: None,
                    });
                    hold.depth += 1;
                    hold.floor_ns = hold.floor_ns.min(now.as_nanos());
                    // A re-cut cancels any pending post-heal release.
                    hold.release_at_ns = None;
                }
                (
                    a.first().map(|h| h.0).unwrap_or(0),
                    EventBody::PartitionStart {
                        a_hosts: ids(a),
                        b_hosts: ids(b),
                        oneway: *oneway,
                    },
                )
            }
            KernelEvent::PartitionHeal { a, b, oneway } => {
                let release_at = now.as_nanos() + self.cfg.heal_flush_grace.as_nanos();
                for h in self.hold_targets(a, b, *oneway) {
                    if let Some(hold) = self.holds.get_mut(&h) {
                        hold.depth = hold.depth.saturating_sub(1);
                        if hold.depth == 0 {
                            hold.release_at_ns = Some(release_at);
                        }
                    }
                }
                (
                    a.first().map(|h| h.0).unwrap_or(0),
                    EventBody::PartitionHeal {
                        a_hosts: ids(a),
                        b_hosts: ids(b),
                        oneway: *oneway,
                    },
                )
            }
            KernelEvent::LinkDegraded(x, y) => (
                x.0,
                EventBody::LinkDegraded {
                    peer_a: x.0,
                    peer_b: y.0,
                },
            ),
            KernelEvent::LinkRestored(x, y) => (
                x.0,
                EventBody::LinkRestored {
                    peer_a: x.0,
                    peer_b: y.0,
                },
            ),
            KernelEvent::ClockSkewSet(h, skew_ns) => {
                (h.0, EventBody::ClockSkew { skew_ns: *skew_ns })
            }
        };
        let seq = self.kernel_seq;
        self.kernel_seq += 1;
        self.ingest(
            now,
            Event {
                time_ns: now.as_nanos(),
                host,
                pid: KERNEL_PID,
                seq,
                body,
            },
        );
    }

    /// Which publisher hosts a cut between `a` and `b` isolates from the
    /// channel. For one-way cuts only the `a` → `b` direction is lost, and
    /// pushes flow publisher → channel, so `a` is cut off only when the
    /// channel sits in `b`.
    fn hold_targets(&self, a: &[simnet::HostId], b: &[simnet::HostId], oneway: bool) -> Vec<u32> {
        let ch = self.cfg.channel_host;
        let in_a = a.iter().any(|h| h.0 == ch);
        let in_b = b.iter().any(|h| h.0 == ch);
        if oneway {
            if in_b {
                a.iter().map(|h| h.0).collect()
            } else {
                Vec::new()
            }
        } else if in_a {
            b.iter().map(|h| h.0).collect()
        } else if in_b {
            a.iter().map(|h| h.0).collect()
        } else {
            Vec::new()
        }
    }

    fn advance(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        self.holds
            .retain(|_, h| h.release_at_ns.is_none_or(|r| now_ns < r));
        let mut wm = now_ns.saturating_sub(self.cfg.reorder_slack.as_nanos());
        for h in self.holds.values() {
            wm = wm.min(h.floor_ns);
        }
        if wm <= self.watermark_ns {
            return;
        }
        self.watermark_ns = wm;
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().0 > wm {
                break;
            }
            let ev = entry.remove();
            self.release(ev);
        }
    }

    /// Hand one event, now in stream order, to the recorder, the doctor,
    /// and every subscriber ring.
    fn release(&mut self, ev: Event) {
        self.recorder.record(&ev);
        let fired = self.doctor.on_event(&ev);
        let crash = matches!(ev.body, EventBody::HostCrash);
        // A closing recovery episode also dumps: at crash time the tail
        // ends at the failure, while at close time it spans the whole
        // episode (failure-detected … recovery-finished) plus the
        // recovery-budget verdict the doctor just issued.
        let episode_closed = match &ev.body {
            EventBody::RecoveryFinished { target, .. } => Some(target.clone()),
            _ => None,
        };
        if crash || episode_closed.is_some() || !fired.is_empty() {
            let reason = if crash {
                format!("host h{} crashed", ev.host)
            } else if !fired.is_empty() {
                format!("invariant violated: {}", fired.join(", "))
            } else {
                format!(
                    "recovery episode closed: {}",
                    episode_closed.unwrap_or_default()
                )
            };
            self.recorder.dump(
                ev.time_ns,
                &reason,
                &self.doctor.open_episodes(),
                self.doctor.verdicts(),
            );
            if let Some(o) = &self.obs {
                o.counter_add("monitor.dumps", 1);
            }
        }
        let mut dropped = 0u64;
        for sub in self.subs.values_mut() {
            if sub.ring.len() == sub.depth {
                sub.ring.pop_front();
                sub.dropped += 1;
                dropped += 1;
            }
            sub.ring.push_back(ev.clone());
        }
        if dropped > 0 {
            if let Some(o) = &self.obs {
                o.counter_add("monitor.sub_dropped", dropped);
            }
        }
    }

    /// Register a subscriber with a ring of `depth` events; returns its id.
    pub fn subscribe(&mut self, depth: u32) -> u32 {
        let id = self.next_sub;
        self.next_sub += 1;
        self.subs.insert(
            id,
            SubRing {
                depth: (depth.max(1)) as usize,
                ring: VecDeque::new(),
                dropped: 0,
            },
        );
        id
    }

    /// Drop a subscriber's ring; its pending events are discarded and its
    /// drop count is folded into [`ChannelState::stats`]. Returns whether
    /// the id was live.
    pub fn unsubscribe(&mut self, sub_id: u32) -> bool {
        match self.subs.remove(&sub_id) {
            Some(sub) => {
                self.retired_dropped += sub.dropped;
                true
            }
            None => false,
        }
    }

    /// Drain up to `max` events from a subscriber's ring, oldest first.
    /// Unknown ids yield an empty batch.
    pub fn pull(&mut self, sub_id: u32, max: u32) -> Vec<Event> {
        let Some(sub) = self.subs.get_mut(&sub_id) else {
            return Vec::new();
        };
        let n = (max as usize).min(sub.ring.len());
        sub.ring.drain(..n).collect()
    }

    /// `(events ingested, subscriber-ring drops)` so far. Drops include
    /// rings already retired by [`ChannelState::unsubscribe`].
    pub fn stats(&self) -> (u64, u64) {
        (
            self.received,
            self.retired_dropped + self.subs.values().map(|s| s.dropped).sum::<u64>(),
        )
    }

    /// Release everything the watermark still holds (end of run), run the
    /// doctor's end-of-run pass, and export summary gauges.
    pub fn finalize(&mut self, now: SimTime) {
        self.holds.clear();
        self.advance(now);
        while let Some(entry) = self.pending.first_entry() {
            let ev = entry.remove();
            self.release(ev);
        }
        self.watermark_ns = now.as_nanos();
        let fired = self.doctor.finalize(now.as_nanos());
        if !fired.is_empty() {
            self.recorder.dump(
                now.as_nanos(),
                &format!("invariant violated at end of run: {}", fired.join(", ")),
                &self.doctor.open_episodes(),
                self.doctor.verdicts(),
            );
            if let Some(o) = &self.obs {
                o.counter_add("monitor.dumps", 1);
            }
        }
        if let Some(o) = self.obs.clone() {
            o.gauge_set("monitor.violations", self.doctor.violation_count() as f64);
            o.gauge_set("monitor.late_events", self.late as f64);
        }
    }

    /// Total invariant violations the doctor has recorded.
    pub fn violation_count(&self) -> u64 {
        self.doctor.violation_count()
    }

    /// Post-mortem dumps recorded so far (at most `max_dumps`).
    pub fn dumps(&self) -> &[String] {
        &self.recorder.dumps
    }

    /// Render the full doctor report: analysis, then the post-mortems.
    pub fn render_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "doctor report");
        let _ = writeln!(out, "=============");
        let _ = writeln!(
            out,
            "ingested: {} events ({} late, watermark {}ns)",
            self.received, self.late, self.watermark_ns
        );
        self.doctor.render_report(&mut out);
        let _ = writeln!(out, "post-mortems: {}", self.recorder.dumps.len());
        for d in &self.recorder.dumps {
            out.push_str(d);
        }
        if self.recorder.suppressed_dumps > 0 {
            let _ = writeln!(
                out,
                "({} further post-mortem triggers suppressed)",
                self.recorder.suppressed_dumps
            );
        }
        out
    }
}

/// Everything the driver needs to hold on to a deployed channel: the
/// shared analysis state and the cell the channel publishes its IOR into
/// (publishers poll the cell; the paper-style naming binding exists too).
#[derive(Clone, Debug)]
pub struct MonitorHandle {
    /// The channel/doctor/recorder state.
    pub state: Shared<ChannelState>,
    /// Stringified IOR of the channel once it is serving.
    pub ior: Shared<Option<String>>,
}

impl MonitorHandle {
    /// Fresh handle with the given thresholds and metric sink.
    pub fn new(cfg: MonitorConfig, obs: Option<Obs>) -> Self {
        MonitorHandle {
            state: Shared::new(ChannelState::new(cfg, obs)),
            ior: Shared::new(None),
        }
    }

    /// Drain the watermark at end of run; call before [`Self::report`].
    pub fn finalize(&self, now: SimTime) {
        self.state.lock().finalize(now);
    }

    /// Total invariant violations the doctor recorded.
    pub fn violations(&self) -> u64 {
        self.state.lock().violation_count()
    }

    /// Render the doctor report (deterministic).
    pub fn report(&self) -> String {
        self.state.lock().render_report()
    }

    /// Post-mortem dumps, concatenated.
    pub fn dumps(&self) -> String {
        self.state.lock().dumps().concat()
    }
}

/// The CORBA servant fronting a [`ChannelState`] — a normal object a POA
/// activates behind an [`EventChannelSkeleton`](crate::EventChannelSkeleton);
/// publishers reach it with `oneway push` batches.
pub struct EventChannel {
    state: Shared<ChannelState>,
}

impl EventChannel {
    /// Servant over the given shared state.
    pub fn new(state: Shared<ChannelState>) -> Self {
        EventChannel { state }
    }
}

impl Monitor::EventChannel for EventChannel {
    fn push(&mut self, call: &mut CallCtx<'_>, batch: Vec<Event>) -> Result<(), Exception> {
        let now = call.ctx.now();
        let mut st = self.state.lock();
        for ev in batch {
            st.ingest(now, ev);
        }
        Ok(())
    }

    fn subscribe(&mut self, _call: &mut CallCtx<'_>, depth: u32) -> Result<u32, Exception> {
        Ok(self.state.lock().subscribe(depth))
    }

    fn unsubscribe(&mut self, _call: &mut CallCtx<'_>, sub_id: u32) -> Result<bool, Exception> {
        Ok(self.state.lock().unsubscribe(sub_id))
    }

    fn pull(
        &mut self,
        _call: &mut CallCtx<'_>,
        sub_id: u32,
        max: u32,
    ) -> Result<Vec<Event>, Exception> {
        Ok(self.state.lock().pull(sub_id, max))
    }

    fn stats(&mut self, _call: &mut CallCtx<'_>) -> Result<(u64, u64), Exception> {
        Ok(self.state.lock().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    fn mk(time_ns: u64, host: u32, pid: u32, seq: u64) -> Event {
        Event {
            time_ns,
            host,
            pid,
            seq,
            body: EventBody::ProcSpawn {
                name: format!("p-{host}-{seq}"),
            },
        }
    }

    fn state() -> ChannelState {
        ChannelState::new(
            MonitorConfig {
                reorder_slack: SimDuration::from_nanos(100),
                ..MonitorConfig::default()
            },
            None,
        )
    }

    #[test]
    fn watermark_restores_publish_order() {
        let mut st = state();
        let sub = st.subscribe(16);
        // Arrival order inverted relative to publish time.
        st.ingest(SimTime::from_nanos(50), mk(20, 2, 1, 0));
        st.ingest(SimTime::from_nanos(60), mk(10, 1, 1, 0));
        // Nothing released yet: watermark is behind both.
        assert!(st.pull(sub, 10).is_empty());
        st.ingest(SimTime::from_nanos(200), mk(95, 3, 1, 0));
        let got = st.pull(sub, 10);
        let times: Vec<u64> = got.iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![10, 20, 95]);
    }

    #[test]
    fn subscriber_ring_drops_oldest_and_counts() {
        let mut st = state();
        let sub = st.subscribe(2);
        for i in 0..5u64 {
            st.ingest(SimTime::from_nanos(1_000 + i), mk(i, 0, 1, i));
        }
        st.finalize(SimTime::from_nanos(10_000));
        let got = st.pull(sub, 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].time_ns, 3);
        assert_eq!(got[1].time_ns, 4);
        assert_eq!(st.stats(), (5, 3));
    }

    #[test]
    fn host_crash_dumps_a_post_mortem() {
        let mut st = state();
        st.ingest(SimTime::from_nanos(10), mk(5, 1, 1, 0));
        st.ingest_kernel(
            SimTime::from_nanos(500),
            &KernelEvent::HostCrash(simnet::HostId(1)),
        );
        st.finalize(SimTime::from_nanos(1_000));
        assert_eq!(st.dumps().len(), 1);
        let dump = &st.dumps()[0];
        assert!(dump.contains("host h1 crashed"));
        assert!(dump.contains("host h1 down since 500ns"));
        assert!(dump.contains("proc-spawn"));
    }

    #[test]
    fn unsubscribe_retires_ring_and_keeps_drop_stats() {
        let mut st = state();
        let keep = st.subscribe(2);
        let gone = st.subscribe(2);
        for i in 0..5u64 {
            st.ingest(SimTime::from_nanos(1_000 + i), mk(i, 0, 1, i));
        }
        st.finalize(SimTime::from_nanos(10_000));
        // Both depth-2 rings dropped 3 of the 5 events.
        assert_eq!(st.stats(), (5, 6));
        assert!(st.unsubscribe(gone));
        assert!(!st.unsubscribe(gone), "second detach finds the id dead");
        // The retired ring's drops survive; its pending events are gone.
        assert_eq!(st.stats(), (5, 6));
        assert!(st.pull(gone, 10).is_empty());
        assert_eq!(st.pull(keep, 10).len(), 2, "live ring unaffected");
        // New events no longer land in (or drop from) the retired ring.
        st.ingest(SimTime::from_nanos(20_000), mk(6, 0, 1, 6));
        st.finalize(SimTime::from_nanos(30_000));
        assert_eq!(st.stats(), (6, 6));
    }

    #[test]
    fn partition_hold_orders_post_heal_flush() {
        use simnet::HostId;
        let mut st = ChannelState::new(
            MonitorConfig {
                reorder_slack: SimDuration::from_nanos(100),
                heal_flush_grace: SimDuration::from_nanos(1_000),
                ..MonitorConfig::default()
            },
            None,
        );
        let sub = st.subscribe(32);
        // Host 1 is cut off from the channel (host 0) at t=1000 and
        // buffers everything it publishes during the outage.
        st.ingest_kernel(
            SimTime::from_nanos(1_000),
            &KernelEvent::PartitionStart {
                a: vec![HostId(1)],
                b: vec![HostId(0)],
                oneway: false,
            },
        );
        // Host 2 keeps publishing through the outage; without the hold the
        // watermark would race ahead to ~3_950ns here.
        st.ingest(SimTime::from_nanos(2_050), mk(2_000, 2, 1, 0));
        st.ingest(SimTime::from_nanos(4_050), mk(4_000, 2, 1, 1));
        // Heal at 5_000; host 1 flushes its outage buffer shortly after.
        st.ingest_kernel(
            SimTime::from_nanos(5_000),
            &KernelEvent::PartitionHeal {
                a: vec![HostId(1)],
                b: vec![HostId(0)],
                oneway: false,
            },
        );
        st.ingest(SimTime::from_nanos(5_100), mk(1_500, 1, 1, 0));
        st.ingest(SimTime::from_nanos(5_100), mk(3_500, 1, 1, 1));
        // Grace expires at 6_000; the next arrival lifts the hold.
        st.ingest(SimTime::from_nanos(7_000), mk(6_800, 2, 1, 2));
        assert_eq!(
            st.late, 0,
            "flushed events must not land behind the watermark"
        );
        let got = st.pull(sub, 32);
        let times: Vec<u64> = got.iter().map(|e| e.time_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "released order must equal publish order");
        assert!(times.contains(&1_500) && times.contains(&3_500));
        assert_eq!(st.violation_count(), 0);
    }

    #[test]
    fn oneway_cut_away_from_channel_does_not_hold() {
        use simnet::HostId;
        let mut st = state();
        // Channel host 0 -> host 1 drops; pushes from host 1 still arrive,
        // so no hold is installed and the watermark advances normally.
        st.ingest_kernel(
            SimTime::from_nanos(1_000),
            &KernelEvent::PartitionStart {
                a: vec![HostId(0)],
                b: vec![HostId(1)],
                oneway: true,
            },
        );
        assert!(st.holds.is_empty());
        // The reverse direction cut does hold host 1's stream.
        st.ingest_kernel(
            SimTime::from_nanos(2_000),
            &KernelEvent::PartitionStart {
                a: vec![HostId(1)],
                b: vec![HostId(0)],
                oneway: true,
            },
        );
        assert_eq!(st.holds.len(), 1);
        assert!(st.holds.contains_key(&1));
    }

    #[test]
    fn late_event_is_processed_not_lost() {
        let mut st = state();
        st.ingest(SimTime::from_nanos(10_000), mk(9_000, 1, 1, 0));
        // Watermark is now 9_900; this one publishes at 50 — late.
        st.ingest(SimTime::from_nanos(10_001), mk(50, 2, 1, 0));
        st.finalize(SimTime::from_nanos(20_000));
        assert_eq!(st.stats().0, 2);
        assert_eq!(st.late, 1);
    }
}
