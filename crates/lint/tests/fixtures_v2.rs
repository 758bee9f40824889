//! Fixture tests for the v2 rule set: W0/W4 (contracts compile, codecs
//! are symmetric), L1–L3 (lock order over `simnet::Shared`), E1
//! (exception hygiene). Same contract as `fixtures.rs`: every rule
//! has a deliberately-bad fixture with exact `(rule, line)` hits asserted
//! and a clean counterpart that must not fire. The L and E1 rules run
//! through `analyze_source` (they are per-file); the W rules only run in
//! the workspace pass, so those tests call `Contracts::from_sources` and
//! `wire::check` directly over in-memory values built from the fixtures.

use ldft_lint::analysis::FileAnalysis;
use ldft_lint::rules::{Severity, WorkspaceIndex};
use ldft_lint::{analyze_source, crate_dir_of, wire, Contracts};

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

/// Unsuppressed error hits as `(rule, line)` via the per-file pipeline.
fn errors(label: &str, krate: &str, src: &str) -> Vec<(&'static str, usize)> {
    let index = WorkspaceIndex::stub_only();
    analyze_source(label, Some(krate), src, &index)
        .iter()
        .filter(|f| f.severity == Severity::Error && !f.allowed)
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

// ---------------------------------------------------------------------
// E1 (per-file)
// ---------------------------------------------------------------------

#[test]
fn e1_dropped_recoverable_failures() {
    let hits = errors("crates/ft/src/e1_bad.rs", "ft", fixture!("e1_bad.rs"));
    assert_eq!(hits, vec![("E1", 6), ("E1", 13)]);
    let clean = errors("crates/ft/src/e1_clean.rs", "ft", fixture!("e1_clean.rs"));
    assert_eq!(clean, vec![]);
}

// ---------------------------------------------------------------------
// L1 / L2 / L3 (single-file lock graph)
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// W0 (the contracts compile)
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// W4 (CdrWrite/CdrRead symmetry, per file)
// ---------------------------------------------------------------------

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
