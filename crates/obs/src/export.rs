//! Exporters: Chrome `trace_event` JSON for spans, plain text for
//! metrics.
//!
//! Everything here is deterministic by construction: spans are sorted by
//! `(start_ns, span_id)`, then recording order, metrics iterate a
//! `BTreeMap`, and all numeric formatting is integer-based except gauges
//! (fixed `{:.6}`). Two same-seed runs therefore export byte-identical
//! files.

use crate::metrics::Metric;
use crate::recorder::Obs;
use crate::span::PackedSpan;

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as the microsecond decimal Chrome expects
/// (`ts`/`dur` are in µs), via integer math only.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Obs {
    /// All completed spans as a Chrome `trace_event` JSON array (one
    /// complete `"ph":"X"` event per line; load in `about:tracing` or
    /// Perfetto). Host maps to `pid`, sim process to `tid`.
    pub fn chrome_trace_json(&self) -> String {
        self.inner.with(|i| {
            let mut order: Vec<(usize, PackedSpan)> = i.spans.iter().enumerate().collect();
            order.sort_unstable_by_key(|&(k, s)| (s.start_ns, s.span_id, k));
            let mut out = String::from("[\n");
            let last = order.len();
            for (n, (idx, s)) in order.iter().enumerate() {
                let mut args = format!(
                    "\"trace\":{},\"span\":{},\"hop\":{}",
                    s.trace_id, s.span_id, s.hop
                );
                if s.parent != 0 {
                    args.push_str(&format!(",\"parent\":{}", s.parent));
                }
                for (k, v) in i.tags(*idx) {
                    args.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
                }
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"ldft\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}{}\n",
                    json_escape(i.name(s.name)),
                    micros(s.start_ns),
                    micros(s.dur()),
                    s.host,
                    s.pid,
                    args,
                    if n + 1 == last { "" } else { "," },
                ));
            }
            out.push_str("]\n");
            out
        })
    }

    /// All metrics as sorted plain text, one metric per line.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        self.inner.with(|i| {
            for (name, m) in &i.metrics {
                match m {
                    Metric::Counter(c) => out.push_str(&format!("counter {name} {c}\n")),
                    Metric::Gauge(g) => out.push_str(&format!("gauge {name} {g:.6}\n")),
                    Metric::Histogram(h) => {
                        let buckets: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
                        out.push_str(&format!(
                            "hist {name} count={} sum={} p50={} p95={} p99={} buckets={}\n",
                            h.count,
                            h.sum,
                            h.percentile(50),
                            h.percentile(95),
                            h.percentile(99),
                            buckets.join(",")
                        ));
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ProcessObs;
    use simnet::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> Obs {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        po.begin(t(1_000), "outer");
        po.begin(t(2_500), "inner");
        po.tag("ok", "true");
        po.end(t(3_000));
        po.end(t(10_000));
        obs.counter_add("x.calls", 7);
        obs.gauge_set("x.level", 0.25);
        obs.observe("x.ns", 1_500);
        obs
    }

    #[test]
    fn chrome_export_is_valid_shape_and_deterministic() {
        let a = sample().chrome_trace_json();
        let b = sample().chrome_trace_json();
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.trim_end().ends_with(']'));
        assert!(a.contains("\"name\":\"outer\""));
        assert!(a.contains("\"ts\":1.000"));
        assert!(a.contains("\"dur\":9.000"));
        assert!(a.contains("\"ok\":\"true\""));
    }

    #[test]
    fn metrics_text_lists_all_kinds_sorted() {
        let text = sample().metrics_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "counter x.calls 7");
        assert_eq!(lines[1], "gauge x.level 0.250000");
        // 1500 sits alone in the (1000, 10000] bucket, so every
        // percentile interpolates to that bucket's top.
        assert!(lines[2]
            .starts_with("hist x.ns count=1 sum=1500 p50=10000 p95=10000 p99=10000 buckets="));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("\n"), "\\u000a");
    }
}
