//! Fixture tests: every rule has a deliberately-bad fixture (exact
//! `(rule, line)` hits asserted) and a clean counterpart that must not
//! fire. The fixtures live under `tests/fixtures/` and are analyzed as
//! in-memory sources with a synthetic crate assignment; they are never
//! compiled, and the workspace walker skips `fixtures` directories so the
//! `--workspace` run stays clean. Every rule (P2, P3, E1) runs through
//! `analyze_source`.

use ldft_lint::analyze_source;
use ldft_lint::rules::WorkspaceIndex;

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// Hits as `(rule, line)` via the per-file pipeline.
fn errors(label: &str, krate: &str, src: &str) -> Vec<(&'static str, usize)> {
    let index = WorkspaceIndex::stub_only();
    analyze_source(label, Some(krate), src, &index)
        .iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn p2_discarded_invocation_results() {
    let hits = errors("crates/core/src/p2_bad.rs", "core", fixture!("p2_bad.rs"));
    assert_eq!(hits, vec![("P2", 4), ("P2", 8)]);
    let clean = errors(
        "crates/core/src/p2_clean.rs",
        "core",
        fixture!("p2_clean.rs"),
    );
    assert_eq!(clean, vec![]);
}

#[test]
fn p3_proxy_checkpoint_after_success() {
    let hits = errors(
        "crates/ft/src/p3_bad_proxy.rs",
        "ft",
        fixture!("p3_bad_proxy.rs"),
    );
    assert_eq!(hits, vec![("P3", 6)]);
    let clean = errors(
        "crates/ft/src/p3_clean_proxy.rs",
        "ft",
        fixture!("p3_clean_proxy.rs"),
    );
    assert_eq!(clean, vec![]);
}

#[test]
fn p3_only_applies_to_proxy_files() {
    // The identical unrepaired source outside a proxy file is not P3's
    // business (it has no other violations either).
    let hits = errors(
        "crates/ft/src/p3_elsewhere.rs",
        "ft",
        fixture!("p3_bad_proxy.rs"),
    );
    assert_eq!(hits, vec![]);
}

#[test]
fn fixtures_are_inert_outside_sim_crates() {
    // The same bad sources assigned to an out-of-scope crate produce
    // nothing: the rules police the simulation, not host tooling.
    assert_eq!(
        errors("crates/cdr/src/x.rs", "cdr", fixture!("p2_bad.rs")),
        vec![]
    );
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
