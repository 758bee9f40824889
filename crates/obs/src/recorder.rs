//! The shared sink ([`Obs`]) and the per-process recording handle
//! ([`ProcessObs`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::rc::Rc;

use simnet::{Ctx, Shared, SimTime};

use crate::metrics::{Histogram, Metric};
use crate::span::{SpanContext, SpanRecord};

/// Everything one simulation run records.
#[derive(Debug, Default)]
pub(crate) struct Inner {
    next_trace: u64,
    next_span: u64,
    pub(crate) spans: Vec<SpanRecord>,
    pub(crate) metrics: BTreeMap<String, Metric>,
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

    fn alloc_span(&self) -> u64 {
        self.inner.with(|i| {
            i.next_span += 1;
            i.next_span
        })
    }

    fn record(&self, rec: SpanRecord) {
        self.inner.with(|i| i.spans.push(rec));
    }

    /// Add `delta` to the counter `name`, creating it at zero.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.inner.with(|i| {
            let m = i
                .metrics
                .entry(name.to_string())
                .or_insert(Metric::Counter(0));
            if let Metric::Counter(c) = m {
                *c += delta;
            }
        });
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.inner
            .with(|i| i.metrics.insert(name.to_string(), Metric::Gauge(value)));
    }

    /// Record one observation in the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.inner.with(|i| {
            let m = i
                .metrics
                .entry(name.to_string())
                .or_insert_with(|| Metric::Histogram(Histogram::default()));
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
        self.inner.with(|i| i.spans.clone())
    }

    /// Completed spans with the given name, in recording order.
    pub fn spans_named(&self, name: &str) -> Vec<SpanRecord> {
        self.inner
            .with(|i| i.spans.iter().filter(|s| s.name == name).cloned().collect())
    }
}

/// A span still on some process's stack.
#[derive(Debug)]
struct OpenSpan {
    /// Its identity: what a request made under it carries.
    ctx: SpanContext,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    tags: Vec<(String, String)>,
}

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
}

impl Recording {
    /// Open a span `hops` process hops below `parent`, or the root of a
    /// fresh trace.
    fn open(&self, now: SimTime, name: impl Display, parent: Option<SpanContext>, hops: u32) {
        let (trace_id, hop) = match parent {
            Some(p) => (p.trace_id, p.hop + hops),
            None => (self.obs.alloc_trace(), 0),
        };
        let span_id = self.obs.alloc_span();
        self.stack.borrow_mut().push(OpenSpan {
            ctx: SpanContext {
                trace_id,
                span_id,
                hop,
            },
            parent: parent.map(|p| p.span_id),
            name: name.to_string(),
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
        let stack = RefCell::new(Vec::new());
        let rec = Recording {
            obs,
            host,
            pid,
            stack,
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
        r.obs.record(SpanRecord {
            trace_id: o.ctx.trace_id,
            span_id: o.ctx.span_id,
            parent: o.parent,
            name: o.name,
            hop: o.ctx.hop,
            host: r.host,
            pid: r.pid,
            start_ns: o.start_ns,
            end_ns: now.as_nanos().max(o.start_ns),
            tags: o.tags,
        });
    }

    /// Close the current span with its outcome: a failed one is tagged
    /// `ok=false` first.
    pub fn finish(&self, now: SimTime, ok: bool) {
        if !ok {
            self.tag("ok", "false");
        }
        self.end(now);
    }

    /// The context a request sent *now* should carry: the current span, if
    /// any.
    pub fn current(&self) -> Option<SpanContext> {
        Some(self.rec.as_ref()?.stack.borrow().last()?.ctx)
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
    fn metrics_accumulate() {
        let obs = Obs::new();
        obs.counter_add("x.calls", 2);
        obs.counter_add("x.calls", 3);
        obs.gauge_set("x.level", 1.5);
        obs.observe("x.ns", 500);
        assert_eq!(obs.counter("x.calls"), 5);
        assert_eq!(obs.metric("x.level"), Some(Metric::Gauge(1.5)));
        match obs.metric("x.ns") {
            Some(Metric::Histogram(h)) => assert_eq!((h.count, h.sum), (1, 500)),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
