//! Fixture tests for the v3 interprocedural rule set: F1 (undeadlined
//! remote invocations), F2 (unbounded or sleepless retry), F3 (swallowed
//! recoverable failures), F4 (unreleased paired resources). Same contract
//! as `fixtures.rs`/`fixtures_v2.rs`: every rule has a deliberately-bad
//! fixture with exact `(rule, line)` hits asserted and a clean
//! counterpart that must not fire. The F rules are interprocedural, so
//! each test builds a call graph over the fixture files with
//! `callgraph::build` and runs `failpath::check` over it — the same two
//! passes `run_workspace` chains.

use ldft_lint::analysis::FileAnalysis;
use ldft_lint::{callgraph, crate_dir_of, failpath};

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// Run the interprocedural pass over fixture `(path, source)` pairs;
/// returns `(rule, line)` hits in report order.
fn fail_hits(sources: &[(&str, &str)]) -> Vec<(&'static str, usize)> {
    let files: Vec<FileAnalysis> = sources
        .iter()
        .map(|(p, s)| FileAnalysis::new(p, crate_dir_of(p).as_deref(), s))
        .collect();
    let graph = callgraph::build(&files, &Default::default());
    failpath::check(&files, &graph)
        .iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn f1_undeadlined_remote_invocations() {
    let hits = fail_hits(&[("crates/ft/src/f1_bad.rs", fixture!("f1_bad.rs"))]);
    assert_eq!(hits, vec![("F1", 7), ("F1", 10)]);
    let clean = fail_hits(&[("crates/ft/src/f1_clean.rs", fixture!("f1_clean.rs"))]);
    assert_eq!(clean, vec![]);
}

#[test]
fn f2_unbounded_and_sleepless_retry_loops() {
    let hits = fail_hits(&[("crates/ft/src/f2_bad.rs", fixture!("f2_bad.rs"))]);
    // Line 7: retry loop with no bound in sight. Line 16: bounded, but
    // hammering with zero backoff.
    assert_eq!(hits, vec![("F2", 7), ("F2", 16)]);
    let clean = fail_hits(&[("crates/ft/src/f2_clean.rs", fixture!("f2_clean.rs"))]);
    assert_eq!(clean, vec![]);
}

#[test]
fn f3_swallowed_recoverable_failures() {
    let hits = fail_hits(&[("crates/ft/src/f3_bad.rs", fixture!("f3_bad.rs"))]);
    assert_eq!(hits, vec![("F3", 6)]);
    let clean = fail_hits(&[("crates/ft/src/f3_clean.rs", fixture!("f3_clean.rs"))]);
    assert_eq!(clean, vec![]);
}

#[test]
fn f3_sink_reached_through_a_call_edge() {
    // The arm's only handling is a helper call; the helper forwards to a
    // recognizable sink, so the interprocedural pass must clear it.
    let hits = fail_hits(&[(
        "crates/ft/src/f3_hop.rs",
        concat!(
            "fn record_locally(d: &mut Doctor) {\n",
            " d.note(1);\n",
            "}\n",
            "pub fn routed(r: R, d: &mut Doctor) -> u32 {\n",
            " match r {\n",
            "  Ok(v) => v,\n",
            "  Err(e) if e.is_recoverable() => { forward(d); 0 }\n",
            " }\n",
            "}\n",
            "fn forward(d: &mut Doctor) {\n",
            " record_locally(d);\n",
            "}\n",
        ),
    )]);
    assert_eq!(hits, vec![]);
}

#[test]
fn f4_unreleased_paired_resource() {
    let hits = fail_hits(&[("crates/monitor/src/f4_bad.rs", fixture!("f4_bad.rs"))]);
    // One finding per pair, anchored at the first acquisition.
    assert_eq!(hits, vec![("F4", 4)]);
    let clean = fail_hits(&[("crates/monitor/src/f4_clean.rs", fixture!("f4_clean.rs"))]);
    assert_eq!(clean, vec![]);
}

#[test]
fn f4_release_in_test_code_proves_the_path() {
    // The acquire is production code; the release only appears in a test
    // fn. That is still a release path (the test exercises it), so F4
    // stays quiet — it hunts pairs with NO release anywhere.
    let hits = fail_hits(&[(
        "crates/monitor/src/f4_split.rs",
        concat!(
            "pub fn watch(st: &mut St) {\n",
            " st.subscribe(16);\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            " #[test]\n",
            " fn detaches() {\n",
            "  let mut st = St::new();\n",
            "  st.unsubscribe(1);\n",
            " }\n",
            "}\n",
        ),
    )]);
    assert_eq!(hits, vec![]);
}
