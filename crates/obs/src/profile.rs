//! Span self-time rollup: the "flat profile" view of a run's span tree.
//!
//! The Chrome-trace export shows *where time nests*; this module answers
//! the complementary question — *where time is actually spent*. For every
//! span, its **self time** is its duration minus the durations of its
//! direct children (remote children included: a server span parented by a
//! client `call` span is charged to the server name, and subtracted from
//! the caller). Rolling self time up by span name yields the classic flat
//! profile: top-N hot paths, attributable without external tooling.
//!
//! Everything here is virtual-time arithmetic over recorded spans, so the
//! rollup is byte-deterministic for a fixed seed.

use std::collections::BTreeMap;

use crate::recorder::Obs;

/// One row of the flat profile: a span name with its aggregate times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatProfileEntry {
    /// Span name (e.g. `manager.run`, `ft.recover`).
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total inclusive virtual time across those spans, in nanoseconds.
    pub total_ns: u64,
    /// Total self time: inclusive time minus direct children's inclusive
    /// time, clamped at zero per span (children recorded out of band can
    /// nominally exceed their parent).
    pub self_ns: u64,
}

impl Obs {
    /// Roll completed spans up into a flat profile, ordered by descending
    /// self time with name as the deterministic tie-break.
    pub fn flat_profile(&self) -> Vec<FlatProfileEntry> {
        self.inner.with(|i| {
            // Inclusive time of all direct children, keyed by parent span id.
            let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
            for s in i.spans.iter() {
                if s.parent != 0 {
                    let c = child_ns.entry(s.parent).or_insert(0);
                    *c = c.saturating_add(s.dur());
                }
            }
            let mut rows: Vec<FlatProfileEntry> = i
                .names
                .iter()
                .map(|name| FlatProfileEntry {
                    name: name.clone(),
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                })
                .collect();
            for s in i.spans.iter() {
                let own = s
                    .dur()
                    .saturating_sub(child_ns.get(&s.span_id).copied().unwrap_or(0));
                let e = &mut rows[s.name as usize];
                e.count += 1;
                e.total_ns = e.total_ns.saturating_add(s.dur());
                e.self_ns = e.self_ns.saturating_add(own);
            }
            // A name whose every span is still open has no row.
            rows.retain(|e| e.count > 0);
            rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
            rows
        })
    }

    /// Render the top-`top_n` flat-profile rows as an aligned text table.
    /// Deterministic for a fixed seed (virtual times only).
    pub fn flat_profile_text(&self, top_n: usize) -> String {
        let rows = self.flat_profile();
        let shown = rows.len().min(top_n);
        let mut out = String::new();
        out.push_str(&format!(
            "# flat profile: top {shown} of {} span names by self time (virtual ns)\n",
            rows.len()
        ));
        out.push_str(&format!(
            "{:<24} {:>10} {:>16} {:>16}\n",
            "name", "count", "self_ns", "total_ns"
        ));
        for e in rows.iter().take(top_n) {
            out.push_str(&format!(
                "{:<24} {:>10} {:>16} {:>16}\n",
                e.name, e.count, e.self_ns, e.total_ns
            ));
        }
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

    /// Hand-computed pin: outer [0,100] with children [10,30] and [40,80],
    /// one of which has its own child [45,55]; plus a second root sharing
    /// the outer's name.
    ///
    /// ```text
    /// outer  [0,100]   self = 100 - (20 + 40)        = 40
    /// child  [10,30]   self = 20                     = 20
    /// child  [40,80]   self = 40 - 10                = 30
    /// leaf   [45,55]   self = 10                     = 10
    /// outer  [200,210] self = 10                     = 10
    /// ```
    #[test]
    fn flat_profile_matches_hand_computation() {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        po.begin(t(0), "outer");
        po.begin(t(10), "child");
        po.end(t(30));
        po.begin(t(40), "child");
        po.begin(t(45), "leaf");
        po.end(t(55));
        po.end(t(80));
        po.end(t(100));
        po.begin(t(200), "outer");
        po.end(t(210));

        let rows = obs.flat_profile();
        let get = |name: &str| rows.iter().find(|e| e.name == name).unwrap().clone();
        assert_eq!(rows.len(), 3);
        let outer = get("outer");
        assert_eq!((outer.count, outer.total_ns, outer.self_ns), (2, 110, 50));
        let child = get("child");
        assert_eq!((child.count, child.total_ns, child.self_ns), (2, 60, 50));
        let leaf = get("leaf");
        assert_eq!((leaf.count, leaf.total_ns, leaf.self_ns), (1, 10, 10));
        // Ordering: descending self time, name tie-break ("child" < "outer").
        assert_eq!(
            rows.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            vec!["child", "outer", "leaf"]
        );
        // The rollup conserves time: Σ self = Σ root inclusive time.
        let total_self: u64 = rows.iter().map(|e| e.self_ns).sum();
        assert_eq!(total_self, 100 + 10);
    }

    /// Remote children (server spans parented by a client span via
    /// `begin_remote`) are subtracted from the caller like local ones.
    #[test]
    fn remote_children_reduce_caller_self_time() {
        let obs = Obs::new();
        let client = ProcessObs::for_process(obs.clone(), 0, 1);
        let server = ProcessObs::for_process(obs.clone(), 1, 2);
        client.begin(t(0), "call");
        let parent = client.current();
        server.begin_remote(t(10), "serve", parent);
        server.end(t(40));
        client.end(t(100));
        let rows = obs.flat_profile();
        let call = rows.iter().find(|e| e.name == "call").unwrap();
        assert_eq!((call.total_ns, call.self_ns), (100, 70));
    }

    #[test]
    fn flat_profile_text_is_stable() {
        let obs = Obs::new();
        let po = ProcessObs::for_process(obs.clone(), 0, 1);
        po.begin(t(0), "work");
        po.end(t(50));
        let a = obs.flat_profile_text(10);
        let b = obs.flat_profile_text(10);
        assert_eq!(a, b);
        assert!(a.contains("work"));
        assert!(a.starts_with("# flat profile: top 1 of 1"));
    }
}
