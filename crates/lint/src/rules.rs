//! The protocol check no compiler or clippy lint carries: E1.
//! `tests/selfcheck.rs` runs it over the workspace.
//!
//! Scoping model: it applies to *library code* (non-test lines) of the
//! **sim-facing crates** — [`SIM_CRATES`], the one place that scope is
//! stated. Marshalling (`cdr`), the IDL compiler (`idl`), benches, shims,
//! and this crate are host-side tooling and out of scope.
//!
//! | ID | invariant |
//! |----|-----------|
//! | E1 | a caught `COMM_FAILURE`/`TRANSIENT` must not be dropped on the floor — retry it or propagate it |
//!
//! Each check returns its findings as `file:line: message` lines. The
//! determinism and panic rules (D1, D2, D4, P1) and a discarded `Result`
//! (P2) are clippy lints that each sim crate denies at its root; D3 is
//! the `rand` shim, which has no unseeded source to call.

use crate::analysis::FileAnalysis;
use crate::lexer::TokKind;

/// The policed scope, stated once: the crates whose code runs in (or
/// drives) the simulation. E1 applies to the non-test lines of these
/// crates and to nothing else. The same crates deny the clippy lints that
/// carry D1, D2, D4, P1 and P2 at their crate roots.
pub const SIM_CRATES: &[&str] = &[
    "simnet", "orb", "obs", "naming", "winner", "ft", "optim", "core", "store", "monitor",
];

/// Pattern idents that mark a match arm as catching a *recoverable* CORBA
/// failure (`COMM_FAILURE`/`TRANSIENT`).
const E1_MARKERS: &[&str] = &[
    "CommFailure",
    "COMM_FAILURE",
    "Transient",
    "TRANSIENT",
    "is_recoverable",
    "is_comm_failure",
];

/// E1: a match arm that catches a recoverable CORBA failure with an empty
/// body drops the only signal that drives retry/backoff — recoverable
/// failures must flow into a retry path or propagate to the caller.
pub fn check_e1(fa: &FileAnalysis) -> Vec<String> {
    let mut findings = Vec::new();
    if !fa
        .crate_dir
        .as_deref()
        .is_some_and(|d| SIM_CRATES.contains(&d))
    {
        return findings;
    }
    let ast = &fa.ast;
    for m in &ast.matches {
        for arm in &m.arms {
            if fa.is_test_line(arm.line) {
                continue;
            }
            let marked = ast.toks[arm.pat.0..arm.pat.1]
                .iter()
                .any(|t| t.kind == TokKind::Ident && E1_MARKERS.contains(&t.text.as_str()));
            if !marked {
                continue;
            }
            let trivial = !ast.toks[arm.body.0..arm.body.1]
                .iter()
                .any(|t| matches!(t.kind, TokKind::Ident | TokKind::Lit));
            if trivial {
                findings.push(format!("{}:{}: recoverable CORBA failure (COMM_FAILURE/TRANSIENT) caught and dropped; feed it into retry-with-backoff or propagate it — silent drops hide partitions", fa.path, arm.line));
            }
        }
    }
    findings
}
