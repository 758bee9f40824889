//! The two protocol checks no compiler or clippy lint carries: P3 and E1.
//! `tests/selfcheck.rs` runs each over the workspace.
//!
//! Scoping model: both apply to *library code* (non-test lines) of the
//! **sim-facing crates** — [`SIM_CRATES`], the one place that scope is
//! stated. Marshalling (`cdr`), the IDL compiler (`idl`), benches, shims,
//! and this crate are host-side tooling and out of scope.
//!
//! | ID | invariant |
//! |----|-----------|
//! | P3 | FT proxy methods that invoke must checkpoint after success — recovery replays from the last checkpoint |
//! | E1 | a caught `COMM_FAILURE`/`TRANSIENT` must not be dropped on the floor — retry it or propagate it |
//!
//! Each check returns its findings as `file:line: message` lines. The
//! determinism and panic rules (D1, D2, D4, P1) and a discarded `Result`
//! (P2) are clippy lints that each sim crate denies at its root; D3 is
//! the `rand` shim, which has no unseeded source to call.

use crate::analysis::FileAnalysis;
use crate::lexer::{self, seq_at, TokKind};

/// The policed scope, stated once: the crates whose code runs in (or
/// drives) the simulation. P3 and E1 apply to the non-test lines of these
/// crates and to nothing else. The same crates deny the clippy lints that
/// carry D1, D2, D4, P1 and P2 at their crate roots.
pub const SIM_CRATES: &[&str] = &[
    "simnet", "orb", "obs", "naming", "winner", "ft", "optim", "core", "store", "monitor",
];

/// P3: in the FT proxy implementation, any function that performs a remote
/// invocation must checkpoint after a successful reply — otherwise a later
/// failover replays from a stale state and the at-most-once contract breaks.
pub fn check_p3(fa: &FileAnalysis) -> Vec<String> {
    let mut findings = Vec::new();
    if fa.crate_dir.as_deref() != Some("ft") {
        return findings;
    }
    let file = fa.path.replace('\\', "/");
    let name = file.rsplit('/').next().unwrap_or("");
    if !name.contains("proxy") {
        return findings;
    }
    let ast = &fa.ast;
    let invokes = [lexer::lex(".invoke("), lexer::lex(".call(")];
    for f in &ast.fns {
        let Some(body) = f.body else { continue };
        // Only outermost proxy methods: nested helpers inherit the outer
        // method's obligation.
        if ast.enclosing_fn(f.tok).is_some() || fa.is_test_line(f.line) {
            continue;
        }
        let range = f.tok..=body.close;
        let invokes_at = range
            .clone()
            .find(|&k| invokes.iter().any(|p| seq_at(&ast.toks, k, p)));
        let checkpoints = ast.toks[range].iter().any(|t| {
            t.kind == TokKind::Ident
                && (t.text.contains("after_success")
                    || t.text.to_ascii_lowercase().contains("checkpoint"))
        });
        if let Some(k) = invokes_at {
            if !checkpoints {
                findings.push(format!(
                    "{}:{}: FT proxy method `{}` invokes without checkpointing after success; failover would replay from a stale checkpoint",
                    fa.path, ast.toks[k].line, f.name
                ));
            }
        }
    }
    findings
}

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
