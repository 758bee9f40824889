//! Fixture tests for the v2 rule set: W1–W4 (wire conformance), L1–L3
//! (lock order over `simnet::Shared`), E1–E2 (exception/epoch hygiene).
//! Same contract as `fixtures.rs`: every rule has a deliberately-bad
//! fixture with exact `(rule, line)` hits asserted and a clean
//! counterpart that must not fire. The L and E rules run through
//! `analyze_source` (they are per-file); the W rules need an IDL contract
//! and a workspace view, so those tests call `wire::check` directly over
//! in-memory `FileAnalysis` values built from the same fixture files.

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

/// Run the wire pass over fixture `(path, source)` pairs plus IDL
/// contracts (compiled as one unit); returns sorted `(rule, file, line)`
/// hits, `W0` rejections included, and the op count.
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
    let report = wire::check(&files, &idls);
    let mut out: Vec<(&'static str, String, usize)> = idls
        .rejection
        .iter()
        .chain(&report.findings)
        .map(|f| (f.rule, f.file.clone(), f.line))
        .collect();
    out.sort();
    (out, report.ops_checked)
}

// ---------------------------------------------------------------------
// E1 / E2 (per-file)
// ---------------------------------------------------------------------

#[test]
fn e1_dropped_recoverable_failures() {
    let hits = errors("crates/ft/src/e1_bad.rs", "ft", fixture!("e1_bad.rs"));
    assert_eq!(hits, vec![("E1", 6), ("E1", 13)]);
    let clean = errors("crates/ft/src/e1_clean.rs", "ft", fixture!("e1_clean.rs"));
    assert_eq!(clean, vec![]);
}

#[test]
fn e2_bare_u64_epochs() {
    let hits = errors("crates/store/src/e2_bad.rs", "store", fixture!("e2_bad.rs"));
    assert_eq!(hits, vec![("E2", 4), ("E2", 8), ("E2", 13)]);
    let clean = errors(
        "crates/store/src/e2_clean.rs",
        "store",
        fixture!("e2_clean.rs"),
    );
    assert_eq!(clean, vec![]);
}

#[test]
fn e2_is_waived_inside_simnet() {
    // simnet sits below cdr and cannot name the newtype.
    let hits = errors(
        "crates/simnet/src/e2_bad.rs",
        "simnet",
        fixture!("e2_bad.rs"),
    );
    assert_eq!(hits, vec![]);
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
// W1 / W2 / W3 (IDL ↔ stub ↔ skeleton)
// ---------------------------------------------------------------------

#[test]
fn w1_w2_w3_contract_drift() {
    let (hits, ops) = wire_errors(
        &[
            (
                "crates/demo/src/w_server_bad.rs",
                fixture!("w_server_bad.rs"),
            ),
            (
                "crates/demo/src/w_client_bad.rs",
                fixture!("w_client_bad.rs"),
            ),
        ],
        &[("idl/wire.idl", fixture!("wire.idl"))],
    );
    assert_eq!(ops, 4, "all four Calculator ops cross-checked");
    assert_eq!(
        hits,
        vec![
            // missing_arm: no client call site, no dispatch arm.
            ("W1", "idl/wire.idl".to_string(), 7),
            ("W2", "idl/wire.idl".to_string(), 7),
            // client sends (a, b, c) where the IDL declares two in-params.
            ("W3", "crates/demo/src/w_client_bad.rs".to_string(), 4),
            // "bogus" arm handles an op no IDL declares.
            ("W2", "crates/demo/src/w_server_bad.rs".to_string(), 12),
            // server decodes (u32,) where the IDL declares (u32, u32).
            ("W3", "crates/demo/src/w_server_bad.rs".to_string(), 7),
        ]
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect::<Vec<_>>()
    );
}

#[test]
fn w1_w2_w3_clean_triple() {
    let (hits, ops) = wire_errors(
        &[
            (
                "crates/demo/src/w_server_clean.rs",
                fixture!("w_server_clean.rs"),
            ),
            (
                "crates/demo/src/w_client_clean.rs",
                fixture!("w_client_clean.rs"),
            ),
        ],
        &[("idl/wire.idl", fixture!("wire.idl"))],
    );
    assert_eq!(ops, 4);
    assert_eq!(hits, vec![]);
}

#[test]
fn w2_interface_without_any_skeleton() {
    let (hits, ops) = wire_errors(
        &[
            (
                "crates/demo/src/w_server_clean.rs",
                fixture!("w_server_clean.rs"),
            ),
            (
                "crates/demo/src/w_client_clean.rs",
                fixture!("w_client_clean.rs"),
            ),
        ],
        &[
            ("idl/wire.idl", fixture!("wire.idl")),
            ("idl/phantom.idl", fixture!("phantom.idl")),
        ],
    );
    assert_eq!(ops, 5, "phantom's op still counts as checked");
    assert_eq!(hits, vec![("W2", "idl/phantom.idl".to_string(), 2)]);
}

#[test]
fn w0_contract_idlc_rejects() {
    // The second file of the unit names a type nothing declares: exactly
    // one error, at the operation using it, and no op is cross-checked
    // against a contract the compiler refused.
    let (hits, ops) = wire_errors(
        &[],
        &[
            ("idl/wire.idl", fixture!("wire.idl")),
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
        vec![
            // Cmd::Move writes [x, y] but reads [y, x].
            ("W4", "crates/monitor/src/w4_bad.rs".to_string(), 14),
            // Cmd::Stop is encoded but never reconstructed by CdrRead.
            ("W4", "crates/monitor/src/w4_bad.rs".to_string(), 19),
            // Pair emits [a, b] but consumes [b, a].
            ("W4", "crates/monitor/src/w4_bad.rs".to_string(), 40),
        ]
    );
    let (clean, _) = wire_errors(
        &[("crates/monitor/src/w4_clean.rs", fixture!("w4_clean.rs"))],
        &[],
    );
    assert_eq!(clean, vec![]);
}
