//! The shared sink ([`Obs`]) and the per-process recording handle
//! ([`ProcessObs`]).
//!
//! The sink keeps two record kinds: completed spans and typed events
//! ([`Event`]). Both are appended as they happen, so each log is in call
//! order — the one process running at a time (or the kernel firing its
//! event hook) decides it, and a same-seed run records the same logs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::rc::Rc;

use simnet::{Ctx, KernelEvent, Shared, SimTime};

use crate::event::{Event, EventBody};
use crate::metrics::{Histogram, Metric};
use crate::span::{PackedSpan, SpanContext, SpanLog, SpanRecord};

/// Key/value annotations on one span.
type Tags = Vec<(String, String)>;

/// Everything one simulation run records.
#[derive(Debug, Default)]
pub(crate) struct Inner {
    next_trace: u64,
    next_span: u64,
    /// Completed spans, in recording order.
    pub(crate) spans: SpanLog,
    /// Span names by id, each stored once.
    pub(crate) names: Vec<String>,
    name_ids: BTreeMap<String, u32>,
    /// Tags of the spans that have any, by index into `spans`.
    tags: BTreeMap<usize, Tags>,
    /// Recorded events, in recording order.
    events: Vec<Event>,
    pub(crate) metrics: BTreeMap<String, Metric>,
}

impl Inner {
    /// The id of `name`, adding it to the table on first sight.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    pub(crate) fn tags(&self, index: usize) -> &[(String, String)] {
        self.tags.get(&index).map_or(&[], Vec::as_slice)
    }

    /// The public view of `s`, the span at `index`.
    fn view(&self, index: usize, s: &PackedSpan) -> SpanRecord {
        SpanRecord {
            trace_id: s.trace_id,
            span_id: s.span_id,
            parent: (s.parent != 0).then_some(s.parent),
            name: self.name(s.name).to_string(),
            hop: s.hop,
            host: s.host,
            pid: s.pid,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            tags: self.tags(index).to_vec(),
        }
    }
}

/// The run-wide observability sink. Clones alias the same storage; the
/// kernel's one-process-at-a-time scheduling makes every access — and
/// therefore every allocated span id — deterministic.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    pub(crate) inner: Shared<Inner>,
}

impl Obs {
    /// Create an empty sink.
    pub fn new() -> Self {
        Obs::default()
    }

    fn alloc_trace(&self) -> u64 {
        self.inner.with(|i| {
            i.next_trace += 1;
            i.next_trace
        })
    }

    /// A fresh span id, and the id of the span's name.
    fn alloc_span(&self, name: &str) -> (u64, u32) {
        self.inner.with(|i| {
            i.next_span += 1;
            (i.next_span, i.intern(name))
        })
    }

    fn record(&self, rec: PackedSpan, tags: Tags) {
        self.inner.with(|i| {
            if !tags.is_empty() {
                i.tags.insert(i.spans.len(), tags);
            }
            i.spans.push(&rec);
        });
    }

    /// Record one kernel lifecycle or fault event at its fire time — the
    /// body of a `Kernel::set_event_hook` closure.
    pub fn kernel_event(&self, now: SimTime, kev: &KernelEvent) {
        let ev = Event::from_kernel(now.as_nanos(), kev);
        self.inner.with(|i| i.events.push(ev));
    }

    /// Snapshot of every recorded event, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.with(|i| i.events.clone())
    }

    /// Add `delta` to the counter `name`, creating it at zero.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.inner.with(|i| {
            let m = match i.metrics.get_mut(name) {
                Some(m) => m,
                None => i
                    .metrics
                    .entry(name.to_string())
                    .or_insert(Metric::Counter(0)),
            };
            if let Metric::Counter(c) = m {
                *c += delta;
            }
        });
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner.with(|i| match i.metrics.get_mut(name) {
            Some(m) => *m = Metric::Gauge(value),
            None => {
                i.metrics.insert(name.to_string(), Metric::Gauge(value));
            }
        });
    }

    /// Record one observation in the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.inner.with(|i| {
            let m = match i.metrics.get_mut(name) {
                Some(m) => m,
                None => i
                    .metrics
                    .entry(name.to_string())
                    .or_insert_with(|| Metric::Histogram(Histogram::default())),
            };
            if let Metric::Histogram(h) = m {
                h.observe(value);
            }
        });
    }

    /// Current value of the counter `name` (0 when absent). Test surface.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.with(|i| match i.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        })
    }

    /// Snapshot of one metric by name.
    pub fn metric(&self, name: &str) -> Option<Metric> {
        self.inner.with(|i| i.metrics.get(name).cloned())
    }

    /// Snapshot of all completed spans, in recording order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.with(|i| {
            let all = i.spans.iter().enumerate();
            all.map(|(k, s)| i.view(k, &s)).collect()
        })
    }

    /// Completed spans with the given name, in recording order.
    pub fn spans_named(&self, name: &str) -> Vec<SpanRecord> {
        self.inner.with(|i| {
            let Some(&id) = i.name_ids.get(name) else {
                return Vec::new();
            };
            let all = i.spans.iter().enumerate();
            all.filter(|(_, s)| s.name == id)
                .map(|(k, s)| i.view(k, &s))
                .collect()
        })
    }
}

/// A span still on some process's stack.
#[derive(Debug)]
struct OpenSpan {
    /// Its identity: what a request made under it carries.
    ctx: SpanContext,
    /// Parent span id, 0 for none.
    parent: u64,
    name: u32,
    start_ns: u64,
    tags: Tags,
}

/// An open span off its process's stack: see [`ProcessObs::detach`].
#[derive(Debug)]
pub struct Detached(OpenSpan);

/// Per-process recording handle: the shared sink plus this process's
/// identity and open-span stack — or no sink at all, and then every
/// method is a no-op. Whether a process is observed is decided here, once,
/// when the handle is made; code that records calls the handle it has
/// without asking.
///
/// Clones alias the same stack, so the handle an ORB holds and the handle
/// application code holds agree on "the current span". The default handle
/// has no sink.
#[derive(Clone, Debug, Default)]
pub struct ProcessObs {
    rec: Option<Rc<Recording>>,
}

/// What a handle with a sink records into.
#[derive(Debug)]
struct Recording {
    obs: Obs,
    host: u32,
    pid: u32,
    stack: RefCell<Vec<OpenSpan>>,
    /// Where a span's name is formatted before the sink looks it up;
    /// reused, so a name seen before costs no allocation.
    name_buf: RefCell<String>,
}

impl Recording {
    /// Open a span `hops` process hops below `parent`, or the root of a
    /// fresh trace.
    fn open(&self, now: SimTime, name: impl Display, parent: Option<SpanContext>, hops: u32) {
        let (trace_id, hop) = match parent {
            Some(p) => (p.trace_id, p.hop.saturating_add(hops)),
            None => (self.obs.alloc_trace(), 0),
        };
        let (span_id, name) = {
            let mut buf = self.name_buf.borrow_mut();
            buf.clear();
            // Formatting into a `String` fails only if `name`'s own
            // `Display` does; the span then keeps what was written.
            write!(buf, "{name}").ok();
            self.obs.alloc_span(&buf)
        };
        self.stack.borrow_mut().push(OpenSpan {
            ctx: SpanContext {
                trace_id,
                span_id,
                hop,
            },
            parent: parent.map_or(0, |p| p.span_id),
            name,
            start_ns: now.as_nanos(),
            tags: Vec::new(),
        });
    }
}

impl ProcessObs {
    /// Handle for the current simulated process, recording into `obs`.
    pub fn new(obs: Obs, ctx: &Ctx) -> Self {
        ProcessObs::from_sink(Some(obs), ctx)
    }

    /// Handle for the current simulated process: recording into `sink`,
    /// or, without one, recording nothing.
    pub fn from_sink(sink: Option<Obs>, ctx: &Ctx) -> Self {
        match sink {
            Some(obs) => ProcessObs::for_process(obs, ctx.host().0, ctx.pid().0),
            None => ProcessObs::default(),
        }
    }

    /// Handle for an explicit (host, pid) identity; the testable core of
    /// [`ProcessObs::new`].
    pub fn for_process(obs: Obs, host: u32, pid: u32) -> Self {
        let rec = Recording {
            obs,
            host,
            pid,
            stack: RefCell::new(Vec::new()),
            name_buf: RefCell::new(String::new()),
        };
        ProcessObs {
            rec: Some(Rc::new(rec)),
        }
    }

    /// Whether this handle has a sink. Only a metric whose *value* costs
    /// work to compute needs to ask; every other call is a no-op without
    /// one.
    pub fn recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Open a span. Children of the current span when one is open,
    /// otherwise the root of a fresh trace. `name` is formatted only when
    /// the handle records (pass `format_args!` for a composed name).
    pub fn begin(&self, now: SimTime, name: impl Display) {
        if let Some(r) = &self.rec {
            r.open(now, name, self.current(), 0);
        }
    }

    /// Open a span caused by a *remote* parent (a context extracted from an
    /// inbound request). The local stack is ignored: a server span belongs
    /// to its caller's trace, not to whatever the server was doing.
    pub fn begin_remote(&self, now: SimTime, name: impl Display, parent: Option<SpanContext>) {
        if let Some(r) = &self.rec {
            r.open(now, name, parent, 1);
        }
    }

    /// Annotate the current span. No-op when no span is open.
    pub fn tag(&self, key: &str, value: &str) {
        let Some(r) = &self.rec else { return };
        if let Some(top) = r.stack.borrow_mut().last_mut() {
            top.tags.push((key.to_string(), value.to_string()));
        }
    }

    /// Close the current span, recording it. No-op when no span is open —
    /// an unbalanced `end` must not take a process down.
    pub fn end(&self, now: SimTime) {
        let Some(r) = &self.rec else { return };
        let Some(o) = r.stack.borrow_mut().pop() else {
            return;
        };
        let rec = PackedSpan {
            trace_id: o.ctx.trace_id,
            span_id: o.ctx.span_id,
            parent: o.parent,
            start_ns: o.start_ns,
            end_ns: now.as_nanos().max(o.start_ns),
            name: o.name,
            host: r.host,
            pid: r.pid,
            hop: o.ctx.hop,
        };
        r.obs.record(rec, o.tags);
    }

    /// Close the current span with its outcome: a failed one is tagged
    /// `ok=false` first.
    pub fn finish(&self, now: SimTime, ok: bool) {
        if !ok {
            self.tag("ok", "false");
        }
        self.end(now);
    }

    /// Take the current span off the stack, still open: a deferred request
    /// keeps its span so, and [`ProcessObs::attach`]es it while worked on.
    pub fn detach(&self) -> Option<Detached> {
        let r = self.rec.as_ref()?;
        let open = r.stack.borrow_mut().pop()?;
        Some(Detached(open))
    }

    /// Put a detached span back on top of the stack.
    pub fn attach(&self, span: Detached) {
        if let Some(r) = &self.rec {
            r.stack.borrow_mut().push(span.0);
        }
    }

    /// The context a request sent *now* should carry: the current span, if
    /// any.
    pub fn current(&self) -> Option<SpanContext> {
        Some(self.rec.as_ref()?.stack.borrow().last()?.ctx)
    }

    /// Record one event, stamped with `now` and this handle's host and
    /// pid. A body that costs work to build (one carrying a `String`) is
    /// built behind [`ProcessObs::recording`].
    pub fn event(&self, now: SimTime, body: EventBody) {
        if let Some(r) = &self.rec {
            let ev = Event {
                time_ns: now.as_nanos(),
                host: r.host,
                pid: r.pid,
                body,
            };
            r.obs.inner.with(|i| i.events.push(ev));
        }
    }

    /// Add `delta` to the counter `name` (sink passthrough).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.rec {
            r.obs.counter_add(name, delta);
        }
    }

    /// Set the gauge `name` (sink passthrough).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(r) = &self.rec {
            r.obs.gauge_set(name, value);
        }
    }

    /// Record one histogram observation (sink passthrough).
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.rec {
            r.obs.observe(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        po.begin(t(10), "outer");
        po.begin(t(20), "inner");
        po.end(t(30));
        po.end(t(40));
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.span_id));
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!((inner.start_ns, inner.end_ns), (20, 30));
    }

    #[test]
    fn remote_parent_links_across_processes() {
        let obs = Obs::new();
        let client = ProcessObs::for_process(obs.clone(), 0, 1);
        let server = ProcessObs::for_process(obs.clone(), 1, 2);
        client.begin(t(0), "call");
        let wire = client.current().map(|c| c.to_bytes());
        let parent = wire.as_deref().and_then(SpanContext::from_bytes);
        server.begin_remote(t(5), "serve", parent);
        server.end(t(8));
        client.end(t(10));
        let serve = &obs.spans_named("serve")[0];
        let call = &obs.spans_named("call")[0];
        assert_eq!(serve.trace_id, call.trace_id);
        assert_eq!(serve.parent, Some(call.span_id));
        assert_eq!(serve.hop, 1);
        assert_eq!(serve.pid, 2);
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        po.end(t(5));
        assert!(obs.spans().is_empty());
    }

    #[test]
    fn finish_tags_only_a_failed_span() {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        po.begin(t(0), format_args!("serve:{}", "op"));
        po.tag("k", "v");
        po.finish(t(1), false);
        po.begin(t(2), "fine");
        po.finish(t(3), true);
        let spans = obs.spans();
        assert_eq!(spans[0].name, "serve:op");
        let kv = |k: &str, v: &str| (k.to_string(), v.to_string());
        assert_eq!(spans[0].tags, vec![kv("k", "v"), kv("ok", "false")]);
        assert!(spans[1].tags.is_empty());
    }

    /// A span name that panics when formatted.
    struct Unformattable;

    impl Display for Unformattable {
        fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            panic!("a handle without a sink formatted a span name");
        }
    }

    #[test]
    fn a_handle_without_a_sink_records_nothing() {
        let po = ProcessObs::default();
        po.begin(t(0), Unformattable);
        po.begin_remote(t(1), Unformattable, None);
        assert_eq!((po.recording(), po.current()), (false, None));
        po.tag("ok", "false");
        po.counter_add("x.calls", 1);
        po.finish(t(2), false);
    }

    #[test]
    fn spans_and_events_of_two_processes_share_one_sink_in_call_order() {
        let obs = Obs::new();
        let a = ProcessObs::for_process(obs.clone(), 1, 10);
        let b = ProcessObs::for_process(obs.clone(), 2, 20);
        let load = |runnable| EventBody::LoadReport {
            runnable,
            load_milli: 0,
            cpu_milli: 0,
        };
        a.begin(t(0), "a.work");
        a.event(t(1), load(1));
        b.event(t(2), load(2));
        obs.kernel_event(t(3), &KernelEvent::HostCrash(simnet::HostId(2)));
        b.begin(t(3), "b.work");
        b.end(t(4));
        a.event(t(5), load(3));
        a.end(t(6));
        let stamps: Vec<_> = obs
            .events()
            .iter()
            .map(|e| (e.time_ns, e.host, e.pid, e.body.kind()))
            .collect();
        assert_eq!(
            stamps,
            [
                (1, 1, 10, "load-report"),
                (2, 2, 20, "load-report"),
                (3, 2, crate::KERNEL_PID, "host-crash"),
                (5, 1, 10, "load-report"),
            ]
        );
        let names: Vec<_> = obs.spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["b.work", "a.work"]);
        // A handle without a sink records no event.
        ProcessObs::default().event(t(7), load(4));
        assert_eq!(obs.events().len(), 4);
    }

    #[test]
    fn metrics_accumulate() {
        let obs = Obs::new();
        obs.counter_add("x.calls", 2);
        obs.counter_add("x.calls", 3);
        obs.gauge_set("x.level", 0.5);
        obs.gauge_set("x.level", 1.5);
        obs.observe("x.ns", 500);
        obs.observe("x.ns", 500);
        obs.observe("x.ns", 5_000);
        // A key keeps its first kind: another kind's update leaves it alone.
        obs.observe("x.calls", 1);
        obs.counter_add("x.ns", 1);
        assert_eq!(obs.counter("x.calls"), 5);
        assert_eq!(obs.metric("x.level"), Some(Metric::Gauge(1.5)));
        match obs.metric("x.ns") {
            Some(Metric::Histogram(h)) => {
                assert_eq!((h.count, h.sum), (3, 6_000));
                assert_eq!((h.counts[1], h.counts[2]), (2, 1));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// A hand-built tree touching every export path: a remote parent from
    /// outside the sink, repeated and composed names, `ok=false` and
    /// `service_type` tags, an end before its start, and every metric kind.
    fn golden_tree() -> Obs {
        let obs = Obs::new();
        let client = ProcessObs::for_process(obs.clone(), 0, 1);
        let server = ProcessObs::for_process(obs.clone(), 3, 7);
        client.begin(t(1_000), "manager.run");
        for (k, op) in ["solve", "solve", "store_value"].into_iter().enumerate() {
            let at = 2_000 + 10_000 * k as u64;
            client.begin(t(at), format_args!("ft.call:{op}"));
            server.begin_remote(t(at + 500), format_args!("serve:{op}"), client.current());
            if op == "store_value" {
                server.begin(t(at + 1_000), "store.replicate");
                server.tag("op", op);
                server.end(t(at + 2_000));
            }
            server.end(t(at + 4_000));
            client.finish(t(at + 6_000), k != 1);
        }
        client.begin(t(40_000), "ft.factory_create");
        client.tag("service_type", "IDL:\"Worker\":1.0");
        client.finish(t(39_000), false);
        client.end(t(50_000));
        let stranger = SpanContext {
            trace_id: 99,
            span_id: 12_345,
            hop: 2,
        };
        server.begin_remote(t(60_000), "serve:resolve", Some(stranger));
        server.end(t(61_234));
        obs.counter_add("orb.requests", 3);
        obs.counter_add("orb.requests", 4);
        obs.gauge_set("winner.alive_hosts", 2.0);
        obs.gauge_set("winner.alive_hosts", 7.5);
        for v in [50, 700, 700, 25_000, u64::MAX] {
            obs.observe("ft.recovery_ns", v);
        }
        obs
    }

    /// `golden_tree`'s three exports, byte for byte: how the sink stores a
    /// span must not show in what it exports.
    const GOLDEN: &str = r#"[
{"name":"manager.run","cat":"ldft","ph":"X","ts":1.000,"dur":49.000,"pid":0,"tid":1,"args":{"trace":1,"span":1,"hop":0}},
{"name":"ft.call:solve","cat":"ldft","ph":"X","ts":2.000,"dur":6.000,"pid":0,"tid":1,"args":{"trace":1,"span":2,"hop":0,"parent":1}},
{"name":"serve:solve","cat":"ldft","ph":"X","ts":2.500,"dur":3.500,"pid":3,"tid":7,"args":{"trace":1,"span":3,"hop":1,"parent":2}},
{"name":"ft.call:solve","cat":"ldft","ph":"X","ts":12.000,"dur":6.000,"pid":0,"tid":1,"args":{"trace":1,"span":4,"hop":0,"parent":1,"ok":"false"}},
{"name":"serve:solve","cat":"ldft","ph":"X","ts":12.500,"dur":3.500,"pid":3,"tid":7,"args":{"trace":1,"span":5,"hop":1,"parent":4}},
{"name":"ft.call:store_value","cat":"ldft","ph":"X","ts":22.000,"dur":6.000,"pid":0,"tid":1,"args":{"trace":1,"span":6,"hop":0,"parent":1}},
{"name":"serve:store_value","cat":"ldft","ph":"X","ts":22.500,"dur":3.500,"pid":3,"tid":7,"args":{"trace":1,"span":7,"hop":1,"parent":6}},
{"name":"store.replicate","cat":"ldft","ph":"X","ts":23.000,"dur":1.000,"pid":3,"tid":7,"args":{"trace":1,"span":8,"hop":1,"parent":7,"op":"store_value"}},
{"name":"ft.factory_create","cat":"ldft","ph":"X","ts":40.000,"dur":0.000,"pid":0,"tid":1,"args":{"trace":1,"span":9,"hop":0,"parent":1,"service_type":"IDL:\"Worker\":1.0","ok":"false"}},
{"name":"serve:resolve","cat":"ldft","ph":"X","ts":60.000,"dur":1.234,"pid":3,"tid":7,"args":{"trace":99,"span":10,"hop":3,"parent":12345}}
]
--
hist ft.recovery_ns count=5 sum=18446744073709551615 p50=1000 p95=10000000000000 p99=10000000000000 buckets=1,2,0,1,0,0,0,0,0,0,0,0,1
counter orb.requests 7
gauge winner.alive_hosts 7.500000
--
# flat profile: top 8 of 8 span names by self time (virtual ns)
name                          count          self_ns         total_ns
manager.run                       1            31000            49000
serve:solve                       2             7000             7000
ft.call:solve                     2             5000            12000
ft.call:store_value               1             2500             6000
serve:store_value                 1             2500             3500
serve:resolve                     1             1234             1234
store.replicate                   1             1000             1000
ft.factory_create                 1                0                0
"#;

    #[test]
    fn exports_match_the_golden() {
        let obs = golden_tree();
        let got = format!(
            "{}--\n{}--\n{}",
            obs.chrome_trace_json(),
            obs.metrics_text(),
            obs.flat_profile_text(10)
        );
        assert_eq!(got, GOLDEN);
    }

    /// Ten thousand spans shaped like a Table 1 run's `serve:store_value`:
    /// one trace, one parent, ≈ 3.3 ms apart and ≈ 561 µs long. As
    /// `PackedSpan`s in a `Vec` they took 56 bytes each.
    #[test]
    fn a_served_span_costs_the_log_at_most_16_bytes() {
        let obs = Obs::new();
        let client = ProcessObs::for_process(obs.clone(), 0, 1);
        let server = ProcessObs::for_process(obs.clone(), 3, 7);
        client.begin(t(0), "ft.call:store_value");
        for k in 0..10_000u64 {
            let at = 1_000 + k * 3_300_000 + k % 7 * 10_000;
            server.begin_remote(t(at), "serve:store_value", client.current());
            server.end(t(at + 561_000 + k % 13 * 1_000));
        }
        let (n, held) = obs.inner.with(|i| (i.spans.len(), i.spans.held_bytes()));
        assert_eq!(n, 10_000);
        assert!(held <= 16 * n, "{held} bytes for {n} spans");
    }

    /// The readers over the log against the same readers written over a
    /// plain `Vec` of records: spans of every shape a wire context can
    /// give, across many chunks, some tagged.
    #[test]
    fn readers_over_the_log_match_a_plain_vec() {
        let names = ["serve:store_value", "ft.call:solve", "manager.run"];
        for seed in 0..8 {
            let obs = Obs::new();
            let ids: Vec<u32> = obs
                .inner
                .with(|i| names.iter().map(|n| i.intern(n)).collect());
            let mut want = Vec::new();
            for (k, mut s) in crate::span::tests::wild_records(seed, 3_000)
                .into_iter()
                .enumerate()
            {
                s.name = ids[s.name as usize % ids.len()];
                let tags: Tags = if k % 5 == 0 {
                    vec![("ok".to_string(), "false".to_string())]
                } else {
                    Vec::new()
                };
                obs.record(s, tags.clone());
                want.push(SpanRecord {
                    trace_id: s.trace_id,
                    span_id: s.span_id,
                    parent: (s.parent != 0).then_some(s.parent),
                    name: names[s.name as usize].to_string(),
                    hop: s.hop,
                    host: s.host,
                    pid: s.pid,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    tags,
                });
            }
            assert_eq!(obs.spans(), want, "seed {seed}");
            for name in names {
                let named: Vec<_> = want.iter().filter(|s| s.name == name).cloned().collect();
                assert_eq!(obs.spans_named(name), named, "seed {seed}");
            }
            assert_eq!(obs.flat_profile(), flat_profile_of(&want), "seed {seed}");
            assert_eq!(
                obs.chrome_trace_json(),
                chrome_trace_of(&want),
                "seed {seed}"
            );
        }
    }

    fn dur(s: &SpanRecord) -> u64 {
        s.end_ns - s.start_ns
    }

    /// [`Obs::flat_profile`] over a plain list of spans.
    fn flat_profile_of(spans: &[SpanRecord]) -> Vec<crate::FlatProfileEntry> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                let c = child_ns.entry(p).or_insert(0);
                *c = c.saturating_add(dur(s));
            }
        }
        let mut rows: BTreeMap<&str, crate::FlatProfileEntry> = BTreeMap::new();
        for s in spans {
            let e = rows.entry(&s.name).or_insert(crate::FlatProfileEntry {
                name: s.name.clone(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            let own = dur(s).saturating_sub(child_ns.get(&s.span_id).copied().unwrap_or(0));
            e.count += 1;
            e.total_ns = e.total_ns.saturating_add(dur(s));
            e.self_ns = e.self_ns.saturating_add(own);
        }
        let mut rows: Vec<_> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// [`Obs::chrome_trace_json`] over a plain list of spans whose names
    /// and tags need no escaping.
    fn chrome_trace_of(spans: &[SpanRecord]) -> String {
        let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
        sorted.sort_by_key(|s| (s.start_ns, s.span_id));
        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let lines: Vec<String> = sorted
            .iter()
            .map(|s| {
                let mut args = format!("\"trace\":{},\"span\":{},\"hop\":{}", s.trace_id, s.span_id, s.hop);
                if let Some(p) = s.parent {
                    args += &format!(",\"parent\":{p}");
                }
                for (k, v) in &s.tags {
                    args += &format!(",\"{k}\":\"{v}\"");
                }
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"ldft\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                    s.name,
                    us(s.start_ns),
                    us(dur(s)),
                    s.host,
                    s.pid,
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }

    #[test]
    fn a_repeated_name_is_stored_once() {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        for k in 0..10_000 {
            po.begin(t(k), format_args!("serve:{}", "store_value"));
            po.end(t(k + 1));
        }
        let (spans, names) = obs.inner.with(|i| (i.spans.len(), i.names.clone()));
        assert_eq!(spans, 10_000);
        assert_eq!(names, vec!["serve:store_value".to_string()]);
        assert_eq!(obs.spans_named("serve:store_value").len(), 10_000);
    }
}
