//! Fixture tests: every rule has a deliberately-bad fixture (exact
//! `(rule, line)` hits asserted) and a clean counterpart that must not
//! fire. The fixtures live under `tests/fixtures/` and are analyzed as
//! in-memory sources with a synthetic crate assignment; they are never
//! compiled, and the workspace walker skips `fixtures` directories so the
//! selfchecks stay clean.

use ldft_lint::analysis::FileAnalysis;
use ldft_lint::rules::check_e1;

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// Hits as `(rule, line)`, read back from each `file:line: message`.
fn errors(label: &str, krate: &str, src: &str) -> Vec<(&'static str, usize)> {
    let fa = FileAnalysis::new(label, Some(krate), src);
    let mut hits = Vec::new();
    for (rule, found) in [("E1", check_e1(&fa))] {
        for f in found {
            let line = f[label.len() + 1..].split(':').next();
            hits.push((rule, line.and_then(|n| n.parse().ok()).expect("file:line")));
        }
    }
    hits.sort_by_key(|&(rule, line)| (line, rule));
    hits
}

#[test]
fn fixtures_are_inert_outside_sim_crates() {
    // The same bad source assigned to an out-of-scope crate produces
    // nothing: the rules police the simulation, not host tooling.
    assert_eq!(
        errors("crates/idl/src/x.rs", "idl", fixture!("e1_bad.rs")),
        vec![]
    );
}

#[test]
fn e1_dropped_recoverable_failures() {
    let hits = errors("crates/ft/src/e1_bad.rs", "ft", fixture!("e1_bad.rs"));
    assert_eq!(hits, vec![("E1", 6), ("E1", 13)]);
    let clean = errors("crates/ft/src/e1_clean.rs", "ft", fixture!("e1_clean.rs"));
    assert_eq!(clean, vec![]);
}
