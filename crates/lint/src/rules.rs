//! The per-file rules: protocol (P2, P3) and exception hygiene (E1).
//!
//! Scoping model: every rule applies to *library code* (non-test lines) of
//! the **sim-facing crates** — [`SIM_CRATES`], the one place that scope is
//! stated. Marshalling (`cdr`), the IDL compiler (`idl`), benches, shims,
//! and this analyzer itself are host-side tooling and out of scope.
//!
//! | ID | class | invariant |
//! |----|-------|-----------|
//! | P2 | protocol | remote-invocation results must not be discarded (`let _ = ...invoke(...)`) — `COMM_FAILURE` is the only failure signal clients get |
//! | P3 | protocol | FT proxy methods that invoke must checkpoint after success — recovery replays from the last checkpoint |
//! | E1 | protocol | a caught `COMM_FAILURE`/`TRANSIENT` must not be dropped on the floor — retry it or propagate it |
//!
//! The determinism and panic rules (D1, D2, D4, P1) are clippy lints that
//! each sim crate denies at its root, configured in `clippy.toml`; D3 is
//! the `rand` shim, which has no unseeded source to call.

use crate::analysis::FileAnalysis;
use crate::lexer::{self, seq_at, Tok, TokKind};

/// One diagnostic produced by a rule. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule ID (see [`RULE_IDS`]).
    pub rule: &'static str,
    /// Path as given to the analyzer.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    pub message: String,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }

    /// `file:line: error[RULE]: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The policed scope, stated once: the crates whose code runs in (or
/// drives) the simulation. P2, P3 and E1 apply to the non-test lines of
/// these crates and to nothing else. The same crates deny the clippy lints
/// that carry D1, D2, D4 and P1 at their crate roots.
pub const SIM_CRATES: &[&str] = &[
    "simnet", "orb", "obs", "naming", "winner", "ft", "optim", "core", "store", "monitor",
    "explore",
];

/// All rule IDs, in report order.
pub const RULE_IDS: &[&str] = &["P2", "P3", "E1"];

/// Human-readable one-liner per rule, for `--list-rules`.
pub fn rule_summary(id: &str) -> &'static str {
    match id {
        "P2" => "discarded remote-invocation result (let _ = ...invoke-like(...))",
        "P3" => "FT proxy method invokes without checkpoint-after-success",
        "E1" => "caught COMM_FAILURE/TRANSIENT dropped on the floor (no retry, no propagation)",
        _ => "unknown rule",
    }
}

/// Orb stub API: methods that perform (or complete) a remote invocation and
/// whose `Result` carries the only `COMM_FAILURE` signal a client gets.
/// Tier 0 of the P2 call graph.
pub const STUB_API: &[&str] = &[
    "invoke",
    "invoke_oneway",
    "call",
    "oneway",
    "ping",
    "locate",
    "send_deferred",
    "get_response",
];

/// Identifiers too generic to propagate through the one-hop call graph —
/// flagging every `let _ = x.new()` because some constructor pings would
/// drown the rule in noise.
const CALL_GRAPH_STOPLIST: &[&str] = &["new", "default", "clone", "len", "get", "with"];

/// Workspace-level context shared by path-sensitive rules (P2's one-hop
/// call graph).
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Stub API names plus sim-crate functions that call them (one hop).
    pub invoking: std::collections::BTreeSet<String>,
}

impl WorkspaceIndex {
    /// Index with only the tier-0 stub API (used by fixture tests and
    /// single-file runs).
    pub fn stub_only() -> Self {
        WorkspaceIndex {
            invoking: STUB_API.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Extend the call graph by one hop: any sim-crate function whose body
    /// calls a tier-0 stub method becomes an invoking method itself.
    pub fn absorb(&mut self, fa: &FileAnalysis) {
        let Some(dir) = fa.crate_dir.as_deref() else {
            return;
        };
        // simnet is below the stub layer: its `Ctx::call` syscall plumbing
        // would otherwise alias the orb stub's `call` and drag transport
        // helpers (`send`, `recv`, ...) into the invoking set.
        if !SIM_CRATES.contains(&dir) || dir == "simnet" {
            return;
        }
        let toks = &fa.ast.toks;
        let stubs: Vec<Vec<Tok>> = STUB_API
            .iter()
            .map(|m| lexer::lex(&format!(".{m}(")))
            .collect();
        let stub_calls: Vec<usize> = (0..toks.len())
            .filter(|&i| !fa.is_test_line(toks[i].line) && stubs.iter().any(|p| seq_at(toks, i, p)))
            .collect();
        for f in &fa.ast.fns {
            let Some(body) = f.body else { continue };
            if CALL_GRAPH_STOPLIST.contains(&f.name.as_str()) || STUB_API.contains(&f.name.as_str())
            {
                continue;
            }
            if stub_calls.iter().any(|&k| f.tok < k && k < body.close) {
                self.invoking.insert(f.name.clone());
            }
        }
    }
}

/// Run every per-file rule against one analyzed file. `index` feeds P2's
/// call graph.
pub fn check_file(fa: &FileAnalysis, index: &WorkspaceIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !fa
        .crate_dir
        .as_deref()
        .is_some_and(|d| SIM_CRATES.contains(&d))
    {
        return findings;
    }
    check_p2(fa, index, &mut findings);
    check_p3(fa, &mut findings);
    check_e1(fa, &mut findings);
    findings
}

/// P2: a `let _ = ...` statement whose right-hand side calls an invoking
/// method throws away the only `COMM_FAILURE` signal the client will ever
/// see — the error must be handled, propagated, or the call FT-wrapped.
fn check_p2(fa: &FileAnalysis, index: &WorkspaceIndex, findings: &mut Vec<Finding>) {
    let dir = fa.crate_dir.as_deref().unwrap_or("");
    if dir == "orb" || dir == "simnet" {
        // The orb crate *implements* the stub layer and simnet sits below
        // it (transport): neither can observe a remote-invocation Result,
        // so their internal plumbing is exempt.
        return;
    }
    let toks = &fa.ast.toks;
    let discard = lexer::lex("let _ =");
    let invoking: Vec<Vec<Tok>> = index
        .invoking
        .iter()
        .map(|m| lexer::lex(&format!(".{m}(")))
        .collect();
    let mut last = 0;
    for i in 0..toks.len() {
        let line = toks[i].line;
        if line == last || fa.is_test_line(line) || !seq_at(toks, i, &discard) {
            continue;
        }
        // The statement may span lines (rustfmt splits long call chains):
        // it runs to its own `;`.
        let stmt = &toks[..stmt_end(toks, i + discard.len())];
        if (i..stmt.len()).any(|k| invoking.iter().any(|p| seq_at(stmt, k, p))) {
            last = line;
            findings.push(Finding::new("P2", &fa.path, line, "remote-invocation result discarded; COMM_FAILURE is the only failure signal the client gets — handle it, propagate it, or route the call through the FT proxy".to_string()));
        }
    }
}

/// Index of the `;` ending the statement whose tokens start at `i` (at
/// bracket depth 0), or of the `}` closing the enclosing block.
fn stmt_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(i) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return k,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len()
}

/// P3: in the FT proxy implementation, any function that performs a remote
/// invocation must checkpoint after a successful reply — otherwise a later
/// failover replays from a stale state and the at-most-once contract breaks.
fn check_p3(fa: &FileAnalysis, findings: &mut Vec<Finding>) {
    if fa.crate_dir.as_deref() != Some("ft") {
        return;
    }
    let file = fa.path.replace('\\', "/");
    let name = file.rsplit('/').next().unwrap_or("");
    if !name.contains("proxy") {
        return;
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
                findings.push(Finding::new("P3", &fa.path, ast.toks[k].line, format!(
                        "FT proxy method `{}` invokes without checkpointing after success; failover would replay from a stale checkpoint",
                        f.name
                    )));
            }
        }
    }
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
fn check_e1(fa: &FileAnalysis, findings: &mut Vec<Finding>) {
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
                findings.push(Finding::new("E1", &fa.path, arm.line, "recoverable CORBA failure (COMM_FAILURE/TRANSIENT) caught and dropped; feed it into retry-with-backoff or propagate it — silent drops hide partitions".to_string()));
            }
        }
    }
}
