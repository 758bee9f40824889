//! Fixture tests: every rule has a deliberately-bad fixture (exact
//! `(rule, line)` hits asserted) and a clean counterpart that must not
//! fire. The fixtures live under `tests/fixtures/` and are analyzed as
//! in-memory sources with a synthetic crate assignment; they are never
//! compiled, and the workspace walker skips `fixtures` directories so the
//! `--workspace` run stays clean. The per-file rules (P2, P3, E1) and the
//! single-file lock graph (L1–L3) run through `analyze_source`; the W
//! rules only run in the workspace pass, so those tests call
//! `Contracts::from_sources` and `wire::check` directly.

use ldft_lint::analysis::FileAnalysis;
use ldft_lint::rules::WorkspaceIndex;
use ldft_lint::{analyze_source, crate_dir_of, wire, Contracts};

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

/// Run W4 over fixture `(path, source)` pairs and compile the IDL
/// contracts as one unit; returns sorted `(rule, file, line)` hits, `W0`
/// rejections included, and the unit's op count.
fn wire_errors(
    sources: &[(&str, &str)],
    idls: &[(&str, &str)],
) -> (Vec<(&'static str, String, usize)>, usize) {
    let files: Vec<FileAnalysis> = sources
        .iter()
        .map(|(p, s)| FileAnalysis::new(p, crate_dir_of(p).as_deref(), s))
        .collect();
    let idls = Contracts::from_sources(
        idls.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    );
    let findings = wire::check(&files);
    let mut out: Vec<(&'static str, String, usize)> = idls
        .rejection
        .iter()
        .chain(&findings)
        .map(|f| (f.rule, f.file.clone(), f.line))
        .collect();
    out.sort();
    (out, idls.ops().count())
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
        errors("crates/idl/src/x.rs", "idl", fixture!("l1_bad.rs")),
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

#[test]
fn l1_lock_order_inversion() {
    let hits = errors("crates/ft/src/l1_bad.rs", "ft", fixture!("l1_bad.rs"));
    // Both edges of the cycle are reported, at the second acquisition.
    assert_eq!(hits, vec![("L1", 11), ("L1", 18)]);
    let clean = errors("crates/ft/src/l1_clean.rs", "ft", fixture!("l1_clean.rs"));
    assert_eq!(clean, vec![]);
}

#[test]
fn l2_reentrant_acquisition() {
    let hits = errors("crates/ft/src/l2_bad.rs", "ft", fixture!("l2_bad.rs"));
    assert_eq!(hits, vec![("L2", 10)]);
    let clean = errors("crates/ft/src/l2_clean.rs", "ft", fixture!("l2_clean.rs"));
    assert_eq!(clean, vec![]);
}

#[test]
fn l3_blocking_while_held() {
    let hits = errors("crates/ft/src/l3_bad.rs", "ft", fixture!("l3_bad.rs"));
    assert_eq!(hits, vec![("L3", 10)]);
    // The clean twin also proves `invoke_oneway` is not a blocking call.
    let clean = errors("crates/ft/src/l3_clean.rs", "ft", fixture!("l3_clean.rs"));
    assert_eq!(clean, vec![]);
}

/// A contract idlc accepts, so the unit below has a clean first file.
const SOUND_IDL: &str = "module Demo {\n  interface Calculator {\n    \
    void add(in unsigned long a, in unsigned long b, out unsigned long sum);\n    \
    unsigned long long total();\n  };\n};\n";

#[test]
fn w0_sound_contract_counts_its_ops() {
    let (hits, ops) = wire_errors(&[], &[("idl/sound.idl", SOUND_IDL)]);
    assert_eq!(hits, vec![]);
    assert_eq!(ops, 2);
}

#[test]
fn w0_contract_idlc_rejects() {
    // The second file of the unit names a type nothing declares: exactly
    // one error, at the operation using it, and a contract the compiler
    // refused contributes no op.
    let (hits, ops) = wire_errors(
        &[],
        &[
            ("idl/sound.idl", SOUND_IDL),
            ("idl/undeclared.idl", fixture!("undeclared.idl")),
        ],
    );
    assert_eq!(hits, vec![("W0", "idl/undeclared.idl".to_string(), 5)]);
    assert_eq!(ops, 0);
    // A syntax error is reported the same way, never skipped over.
    let broken = [("idl/broken.idl", "module M {\n  interface {\n};\n")];
    let (hits, _) = wire_errors(&[], &broken);
    assert_eq!(hits, vec![("W0", "idl/broken.idl".to_string(), 2)]);
}

#[test]
fn w4_asymmetric_codecs() {
    let (hits, _) = wire_errors(
        &[("crates/monitor/src/w4_bad.rs", fixture!("w4_bad.rs"))],
        &[],
    );
    assert_eq!(
        hits,
        // Pair emits [a, b] but consumes [b, a].
        vec![("W4", "crates/monitor/src/w4_bad.rs".to_string(), 3)]
    );
    let (clean, _) = wire_errors(
        &[("crates/monitor/src/w4_clean.rs", fixture!("w4_clean.rs"))],
        &[],
    );
    assert_eq!(clean, vec![]);
}
