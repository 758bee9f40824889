//! The per-file rule set: determinism (D1–D4), protocol (P1–P3) and
//! exception hygiene (E1), plus the allow-directive hygiene (A1/A2).
//!
//! Scoping model: every rule applies to *library code* (non-test lines) of
//! the **sim-facing crates** — [`SIM_CRATES`], the one place that scope is
//! stated. Marshalling (`cdr`), the IDL compiler (`idl`), benches, shims,
//! and this analyzer itself are host-side tooling and out of scope.
//!
//! | ID | class | invariant |
//! |----|-------|-----------|
//! | D1 | determinism | no wall-clock time (`std::time::{Instant,SystemTime}`, `thread::sleep`) — sim time only |
//! | D2 | determinism | no `HashMap`/`HashSet` — hash iteration order is seed-dependent; use `BTreeMap`/`BTreeSet` |
//! | D3 | determinism | no ambient RNG (`thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`) — all randomness flows from the run seed |
//! | D4 | determinism | no OS concurrency (`std::sync::{Mutex,Condvar,RwLock}`, `thread::spawn`) outside the kernel — use `simnet::Shared` |
//! | P1 | protocol | no panicking calls (`unwrap`/`expect`/`panic!`/`unreachable!`) in library code — propagate `Exception`/`SimResult` |
//! | P2 | protocol | remote-invocation results must not be discarded (`let _ = ...invoke(...)`) — `COMM_FAILURE` is the only failure signal clients get |
//! | P3 | protocol | FT proxy methods that invoke must checkpoint after success — recovery replays from the last checkpoint |
//! | E1 | protocol | a caught `COMM_FAILURE`/`TRANSIENT` must not be dropped on the floor — retry it or propagate it |
//!
//! `simnet` is exempt from D4: the kernel *implements* the simulated-time
//! scheduler on OS threads, and that is the one place OS concurrency
//! belongs.

use crate::analysis::FileAnalysis;
use crate::lexer::{self, seq_at, Tok, TokKind};

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Error,
    /// Reported, does not fail the run.
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule ID (`D1`..`P3`, or `A1`/`A2` for allowlist hygiene).
    pub rule: &'static str,
    pub severity: Severity,
    /// Path as given to the analyzer.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    pub message: String,
    /// True when an allow directive suppressed this finding.
    pub allowed: bool,
    /// Reason given on the suppressing directive, if any.
    pub allow_reason: Option<String>,
}

impl Finding {
    /// `file:line: severity[RULE]: message` (+ allow note).
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: {}[{}]: {}",
            self.file, self.line, self.severity, self.rule, self.message
        );
        if self.allowed {
            let why = self.allow_reason.as_deref().unwrap_or("");
            s.push_str(&format!("  [allowed: {why}]"));
        }
        s
    }
}

/// The policed scope, stated once: the crates whose code runs in (or
/// drives) the simulation. D, P, E1, L1–L3 and the allow hygiene (A1/A2)
/// apply to the non-test lines of these crates and to nothing else; W4
/// reads every workspace file, W0 the `idl/` contracts.
pub const SIM_CRATES: &[&str] = &[
    "simnet", "orb", "obs", "naming", "winner", "ft", "optim", "core", "store", "monitor",
    "explore",
];

/// All rule IDs, in report order.
pub const RULE_IDS: &[&str] = &[
    "D1", "D2", "D3", "D4", "P1", "P2", "P3", "W0", "W4", "L1", "L2", "L3", "E1",
];

/// Human-readable one-liner per rule, for `--list-rules`.
pub fn rule_summary(id: &str) -> &'static str {
    match id {
        "D1" => "wall-clock time in sim code (std::time::Instant/SystemTime, thread::sleep)",
        "D2" => "hash-ordered collections in sim code (HashMap/HashSet; use BTreeMap/BTreeSet)",
        "D3" => "ambient/unseeded RNG in sim code (thread_rng, from_entropy, from_os_rng, OsRng)",
        "D4" => "OS concurrency outside the kernel (std::sync::Mutex/Condvar/RwLock, thread::spawn; use simnet::Shared)",
        "P1" => "panicking call in library code (unwrap/expect/panic!/unreachable!/todo!)",
        "P2" => "discarded remote-invocation result (let _ = ...invoke-like(...))",
        "P3" => "FT proxy method invokes without checkpoint-after-success",
        "W0" => "idl/*.idl contract unit rejected by idlc (parse or check error)",
        "W4" => "CdrWrite/CdrRead pair marshals asymmetrically (tag or field-order mismatch)",
        "L1" => "lock-order inversion across simnet::Shared classes (acquisition-graph cycle)",
        "L2" => "re-entrant acquisition of a Shared cell while its guard is live",
        "L3" => "blocking call (sleep/recv/compute/invoke) while holding a Shared guard",
        "E1" => "caught COMM_FAILURE/TRANSIENT dropped on the floor (no retry, no propagation)",
        "A1" => "allow directive missing a reason",
        "A2" => "allow directive names no finding (unused)",
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
            .map(|m| lexer::toks(&format!(".{m}(")))
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

/// Simple pattern rule: any listed token sequence starting on a library
/// line is a finding (one per rule per line).
struct PatternRule {
    id: &'static str,
    patterns: &'static [&'static str],
    message: &'static str,
    /// Crate dirs exempt from this rule (beyond the non-sim crates).
    exempt: &'static [&'static str],
}

const PATTERN_RULES: &[PatternRule] = &[
    PatternRule {
        id: "D1",
        patterns: &[
            "std::time::Instant",
            "std::time::SystemTime",
            "Instant::now(",
            "SystemTime::now(",
            "thread::sleep(",
            "UNIX_EPOCH",
        ],
        message: "wall-clock time in sim code; use the kernel's simulated clock (SimTime/Ctx::sleep)",
        exempt: &[],
    },
    PatternRule {
        id: "D2",
        patterns: &["HashMap", "HashSet"],
        message: "hash-ordered collection in sim code; iteration order depends on the hasher seed — use BTreeMap/BTreeSet",
        exempt: &[],
    },
    PatternRule {
        id: "D3",
        patterns: &[
            "thread_rng",
            "from_entropy",
            "from_os_rng",
            "OsRng",
            "rand::random(",
            "getrandom",
        ],
        message: "ambient/unseeded RNG in sim code; derive all randomness from the run seed (SmallRng::seed_from_u64)",
        exempt: &[],
    },
    PatternRule {
        id: "D4",
        patterns: &[
            // Bare type names (ident-boundary matched) so grouped imports
            // like `use std::sync::{Arc, Mutex};` are caught too. `Arc`
            // itself is allowed: refcounting cannot affect scheduling.
            "Mutex",
            "Condvar",
            "RwLock",
            "Barrier",
            "mpsc",
            "thread::spawn(",
            "thread::Builder",
        ],
        message: "OS concurrency primitive outside the kernel; sim processes are scheduler-serialized — use simnet::Shared",
        exempt: &["simnet"],
    },
    PatternRule {
        id: "P1",
        patterns: &[
            ".unwrap(",
            ".expect(",
            "panic!(",
            "unreachable!(",
            "todo!(",
            "unimplemented!(",
            ".unwrap_unchecked(",
        ],
        message: "panicking call in library code; propagate Exception/SimResult — a panic here takes down the whole sim, not one process",
        exempt: &[],
    },
];

/// Run every *per-file* rule against one analyzed file, without applying
/// allow directives. `index` feeds P2's call graph. The workspace driver
/// merges these raw findings with the cross-file passes ([`crate::wire`],
/// [`crate::lockgraph`]) before calling [`finalize`].
pub fn check_file_raw(fa: &FileAnalysis, index: &WorkspaceIndex) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(dir) = fa.crate_dir.as_deref() else {
        return findings;
    };
    if !SIM_CRATES.contains(&dir) {
        return findings;
    }

    let toks = &fa.ast.toks;
    for rule in PATTERN_RULES {
        if rule.exempt.contains(&dir) {
            continue;
        }
        let patterns: Vec<Vec<Tok>> = rule.patterns.iter().map(|p| lexer::toks(p)).collect();
        let mut last = 0;
        for i in 0..toks.len() {
            let line = toks[i].line;
            if line == last || fa.is_test_line(line) || !patterns.iter().any(|p| seq_at(toks, i, p))
            {
                continue;
            }
            last = line;
            findings.push(Finding {
                rule: rule.id,
                severity: Severity::Error,
                file: fa.path.clone(),
                line,
                message: rule.message.to_string(),
                allowed: false,
                allow_reason: None,
            });
        }
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
    let discard = lexer::toks("let _ =");
    let invoking: Vec<Vec<Tok>> = index
        .invoking
        .iter()
        .map(|m| lexer::toks(&format!(".{m}(")))
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
            findings.push(Finding {
                rule: "P2",
                severity: Severity::Error,
                file: fa.path.clone(),
                line,
                message: "remote-invocation result discarded; COMM_FAILURE is the only failure signal the client gets — handle it, propagate it, or route the call through the FT proxy".to_string(),
                allowed: false,
                allow_reason: None,
            });
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
    let invokes = [lexer::toks(".invoke("), lexer::toks(".call(")];
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
                findings.push(Finding {
                    rule: "P3",
                    severity: Severity::Error,
                    file: fa.path.clone(),
                    line: ast.toks[k].line,
                    message: format!(
                        "FT proxy method `{}` invokes without checkpointing after success; failover would replay from a stale checkpoint",
                        f.name
                    ),
                    allowed: false,
                    allow_reason: None,
                });
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
                findings.push(Finding {
                    rule: "E1",
                    severity: Severity::Error,
                    file: fa.path.clone(),
                    line: arm.line,
                    message: "recoverable CORBA failure (COMM_FAILURE/TRANSIENT) caught and dropped; feed it into retry-with-backoff or propagate it — silent drops hide partitions".to_string(),
                    allowed: false,
                    allow_reason: None,
                });
            }
        }
    }
}

/// Mark findings suppressed by a matching allow directive. Returns the
/// per-directive "used" bitmap so [`finalize`] can report unused ones.
pub fn apply_allows(fa: &FileAnalysis, findings: &mut [Finding]) -> Vec<bool> {
    let mut used: Vec<bool> = vec![false; fa.allows.len()];
    for f in findings.iter_mut() {
        for a in fa.allows_for_line(f.line) {
            if a.rule == f.rule {
                f.allowed = true;
                f.allow_reason = if a.reason.is_empty() {
                    None
                } else {
                    Some(a.reason.clone())
                };
                if let Some(pos) = fa
                    .allows
                    .iter()
                    .position(|x| x.line == a.line && x.rule == a.rule)
                {
                    used[pos] = true;
                }
            }
        }
    }
    used
}

/// Apply allow directives to raw findings and append allowlist-hygiene
/// diagnostics (A1: missing reason — error; A2: unused directive —
/// warning).
pub fn finalize(fa: &FileAnalysis, mut findings: Vec<Finding>) -> Vec<Finding> {
    let used = apply_allows(fa, &mut findings);
    for (a, was_used) in fa.allows.iter().zip(used.iter()) {
        if !RULE_IDS.contains(&a.rule.as_str()) {
            findings.push(Finding {
                rule: "A1",
                severity: Severity::Error,
                file: fa.path.clone(),
                line: a.line,
                message: format!("allow directive names unknown rule `{}`", a.rule),
                allowed: false,
                allow_reason: None,
            });
            continue;
        }
        if a.reason.is_empty() {
            findings.push(Finding {
                rule: "A1",
                severity: Severity::Error,
                file: fa.path.clone(),
                line: a.line,
                message: format!(
                    "allow({}) directive has no reason; every suppression must be justified in writing",
                    a.rule
                ),
                allowed: false,
                allow_reason: None,
            });
        }
        if !*was_used {
            findings.push(Finding {
                rule: "A2",
                severity: Severity::Warning,
                file: fa.path.clone(),
                line: a.line,
                message: format!("allow({}) directive suppresses nothing; remove it", a.rule),
                allowed: false,
                allow_reason: None,
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}
