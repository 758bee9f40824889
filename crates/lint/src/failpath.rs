//! Failure-path dataflow over the workspace call graph (rules F1–F4).
//!
//! The lattice is deliberately coarse: each node carries three boolean
//! facts (*mentions a deadline*, *sleeps/backs off*, *performs a remote
//! invocation*), and the dataflow is reverse reachability of those facts
//! over the resolved edges — "can execution starting at this call reach a
//! deadline?", "can this call chain end up doing an RPC?". That is exactly
//! enough to check the paper's availability contract interprocedurally:
//!
//! * **F1 — naked RPC.** Every remote invocation site must be dominated
//!   by a reply deadline: the stub variant carries one (`*_with_timeout`,
//!   oneway), the enclosing fn computes one, or every path from the
//!   resolved callees reaches a deadline-bearing node (the orb core's
//!   `request_timeout` default). A site none of whose resolutions can
//!   reach a deadline can block forever on a crashed server.
//! * **F2 — unbounded / zero-backoff retry.** A loop that (transitively)
//!   performs a remote invocation and can exit (`break`) is a retry loop;
//!   it must carry a bound (attempt counter, budget, deadline) and — for
//!   bare `loop` retries — a sleep/backoff on the retry path. The same
//!   rule catches retry *cycles* spelled as mutual recursion: a strongly
//!   connected component of statically-resolved edges that performs RPCs
//!   but never sleeps.
//! * **F3 — swallowed recoverable failure.** Interprocedural E1: a match
//!   arm catching a recoverable failure (COMM_FAILURE/TRANSIENT) with a
//!   non-trivial body must still *do* something with it — propagate
//!   (`?`/`return`/`break`/`continue`/`Err`), or reach a recovery/
//!   recording sink (ftproxy retarget/recover, the doctor, the flight
//!   recorder, an experiment outcome) directly or through a call.
//! * **F4 — unbalanced resource pair.** Paired lifecycle operations must
//!   both be reachable in the workspace: acquisitions in production code
//!   (`subscribe`, `bind`, `bind_group_member`, …) with zero release
//!   sites anywhere mean the resource can only leak.
//!
//! Test code is kept in the graph (tests are the reachability roots) but
//! produces no findings.

use crate::analysis::FileAnalysis;
use crate::ast::TokKind;
use crate::callgraph::{CallGraph, EdgeKind};
use crate::rules::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Markers of a recoverable-failure catch (shared with E1).
const RECOVERABLE_MARKERS: &[&str] = &[
    "CommFailure",
    "COMM_FAILURE",
    "Transient",
    "TRANSIENT",
    "is_recoverable",
    "is_comm_failure",
];

/// Identifier fragments that count as *handling* a caught failure in
/// place: feeding retry/recovery, or recording it somewhere a human or
/// the doctor will see.
const SINK_FRAGMENTS: &[&str] = &[
    "recover",
    "retarget",
    "retry",
    "retries",
    "backoff",
    "outcome",
    "doctor",
    "record",
    "publish",
    "ingest",
    "dump",
    "log",
    "observe",
    "stats",
    "counter",
    "count",
    "metric",
    "fail",
    "error",
    "panic",
    "unreachable",
    "assert",
];

/// Node-name/owner fragments that make a callee a recovery/recording
/// sink for F3's interprocedural arm check.
const SINK_NODE_FRAGMENTS: &[&str] = &[
    "recover", "retarget", "record", "report", "publish", "ingest", "outcome", "doctor",
];

/// Paired-resource lifecycle ops: (acquire, release, what leaks).
/// Acquire sites are counted in production code; a release site anywhere
/// (tests included) proves the release path exists and is exercised.
const PAIRS: &[(&str, &str, &str)] = &[
    ("subscribe", "unsubscribe", "monitor subscriber ring"),
    (
        "bind_group_member",
        "unbind_group_member",
        "naming group membership",
    ),
    ("bind", "unbind", "naming binding"),
];

/// Loop bound evidence: identifier fragments that show the retry count or
/// time is capped.
fn is_bound_hint(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("attempt")
        || lower.contains("budget")
        || lower.contains("retries")
        || lower.contains("deadline")
        || lower == "max"
        || lower.starts_with("max_")
        || lower.contains("_max")
}

/// True when a bound-hint identifier sits within three tokens of a
/// comparison operator inside `range` — `attempts >= max_recoveries`,
/// `ctx.now() > deadline`, `budget < cost`.
fn has_compared_bound(toks: &[crate::ast::Tok], range: (usize, usize)) -> bool {
    for ti in range.0..range.1 {
        let t = &toks[ti];
        if t.kind != TokKind::Punct
            || !matches!(t.text.as_str(), "<" | ">" | "<=" | ">=" | "==" | "!=")
        {
            continue;
        }
        let lo = ti.saturating_sub(3).max(range.0);
        let hi = (ti + 4).min(range.1);
        if toks[lo..hi]
            .iter()
            .any(|n| n.kind == TokKind::Ident && is_bound_hint(&n.text))
        {
            return true;
        }
    }
    false
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopKind {
    Loop,
    While,
    WhileLet,
    /// Tracked only so its `break`s are not misattributed to an enclosing
    /// loop; bounded by its iterator and never flagged itself.
    For,
}

/// One loop inside a fn body: token ranges of the head/cond and body.
struct LoopSite {
    kind: LoopKind,
    line: usize,
    cond: (usize, usize),
    body: (usize, usize),
}

/// Extract `loop`/`while` loops from a node body (for-loops are bounded
/// by their iterator and exempt).
fn loops_in(fa: &FileAnalysis, body: (usize, usize)) -> Vec<LoopSite> {
    let ast = &fa.ast;
    let toks = &ast.toks;
    let close_of: BTreeMap<usize, usize> = ast.scopes.iter().map(|s| (s.open, s.close)).collect();
    let mut out = Vec::new();
    let mut ti = body.0;
    while ti < body.1 {
        let t = &toks[ti];
        let kind = if t.is("loop") {
            Some(LoopKind::Loop)
        } else if t.is("while") {
            if toks.get(ti + 1).map(|n| n.is("let")).unwrap_or(false) {
                Some(LoopKind::WhileLet)
            } else {
                Some(LoopKind::While)
            }
        } else if t.is("for") {
            Some(LoopKind::For)
        } else {
            None
        };
        let Some(kind) = kind else {
            ti += 1;
            continue;
        };
        // Find the body `{` at bracket/paren depth 0; bail at `;` (a
        // `loop` label or macro fragment without a block).
        let mut depth = 0i32;
        let mut open = None;
        for (j, tj) in toks.iter().enumerate().take(body.1).skip(ti + 1) {
            if tj.kind == TokKind::Punct {
                match tj.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
        }
        let Some(open) = open else {
            ti += 1;
            continue;
        };
        let Some(&close) = close_of.get(&open) else {
            ti += 1;
            continue;
        };
        out.push(LoopSite {
            kind,
            line: t.line,
            cond: (ti + 1, open),
            body: (open, close),
        });
        ti += 1;
    }
    out
}

/// Nodes that can reach (over edges passing `allow`) a node satisfying
/// `fact` — computed as forward BFS over reversed edges, fact-nodes
/// included.
fn can_reach(
    g: &CallGraph,
    fact: impl Fn(usize) -> bool,
    allow: impl Fn(EdgeKind) -> bool,
) -> Vec<bool> {
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
    for e in &g.edges {
        if allow(e.kind) {
            rev[e.to].push(e.from);
        }
    }
    let mut hit = vec![false; g.nodes.len()];
    let mut stack: Vec<usize> = (0..g.nodes.len()).filter(|&i| fact(i)).collect();
    for &i in &stack {
        hit[i] = true;
    }
    while let Some(n) = stack.pop() {
        for &p in &rev[n] {
            if !hit[p] {
                hit[p] = true;
                stack.push(p);
            }
        }
    }
    hit
}

fn finding(
    rule: &'static str,
    severity: Severity,
    file: &str,
    line: usize,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        file: file.to_string(),
        line,
        message,
        allowed: false,
        allow_reason: None,
    }
}

/// Run F1–F4 over the analyzed workspace and its call graph.
pub fn check(files: &[FileAnalysis], g: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Fact closures used by several rules. Call-following edges exclude
    // Dispatch: reply-deadline and backoff evidence must sit on the
    // *client* side of the wire, not inside the server's skeleton.
    let not_dispatch = |k: EdgeKind| k != EdgeKind::Dispatch;
    let can_deadline = can_reach(g, |i| g.nodes[i].has_deadline, not_dispatch);
    let can_remote = can_reach(g, |i| g.nodes[i].has_remote, not_dispatch);
    let can_sleep = can_reach(g, |i| g.nodes[i].has_sleep, not_dispatch);
    let sinky = |i: usize| {
        let n = &g.nodes[i];
        let hay = format!(
            "{} {}",
            n.owner.to_ascii_lowercase(),
            n.name.to_ascii_lowercase()
        );
        SINK_NODE_FRAGMENTS.iter().any(|f| hay.contains(f))
    };
    let can_sink = can_reach(g, sinky, not_dispatch);

    check_f1(g, &can_deadline, &mut findings);
    check_f2(files, g, &can_remote, &can_sleep, &mut findings);
    check_f3(files, g, &can_sink, &mut findings);
    check_f4(g, files, &mut findings);

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// F1: every remote invocation site is dominated by a deadline.
fn check_f1(g: &CallGraph, can_deadline: &[bool], findings: &mut Vec<Finding>) {
    for s in &g.remote_sites {
        if s.is_test {
            continue;
        }
        // Oneways never wait for a reply; `*_with_timeout` carries the
        // deadline at the site.
        if s.method.ends_with("_with_timeout")
            || s.method == "oneway"
            || s.method == "invoke_oneway"
        {
            continue;
        }
        let n = &g.nodes[s.node];
        if n.has_deadline {
            continue;
        }
        if !s.targets.is_empty() && s.targets.iter().any(|&t| can_deadline[t]) {
            continue;
        }
        findings.push(finding(
            "F1",
            Severity::Error,
            &n.file,
            s.line,
            format!(
                "naked RPC: `{}` in `{}` waits for a reply with no deadline on any path — a crashed server blocks this call forever; use the `_with_timeout` variant or compute a request deadline",
                s.method,
                n.name
            ),
        ));
    }
}

/// F2: retry loops around remote calls are bounded and back off; retry
/// cycles through sleep-free paths are flagged the same way.
fn check_f2(
    files: &[FileAnalysis],
    g: &CallGraph,
    can_remote: &[bool],
    can_sleep: &[bool],
    findings: &mut Vec<Finding>,
) {
    // Per-node: does the fn body itself compare an attempt/budget bound?
    // Used one hop deep — a retry loop whose per-iteration helper enforces
    // the cap (FtRequest::get_response → settle) is bounded.
    let node_bound: Vec<bool> = g
        .nodes
        .iter()
        .map(|n| has_compared_bound(&files[n.file_idx].ast.toks, n.body))
        .collect();
    for (ni, n) in g.nodes.iter().enumerate() {
        if n.is_test {
            continue;
        }
        let fa = &files[n.file_idx];
        let toks = &fa.ast.toks;
        // Keep only loops owned by this fn (not a nested fn's).
        let loops: Vec<LoopSite> = loops_in(fa, n.body)
            .into_iter()
            .filter(|lp| {
                fa.ast
                    .enclosing_fn(lp.body.0)
                    .map(|o| o.line == n.line && o.name == n.name)
                    .unwrap_or(false)
            })
            .collect();
        let in_range = |ti: usize, r: (usize, usize)| r.0 < ti && ti < r.1;
        for (li, lp) in loops.iter().enumerate() {
            if lp.kind == LoopKind::For {
                continue; // bounded by its iterator
            }
            // Remote evidence: a site directly in the loop body, or a call
            // in the loop body whose callees can end up doing an RPC.
            let direct_remote = g
                .remote_sites
                .iter()
                .any(|s| s.node == ni && in_range(s.tok, lp.body));
            let called_remote = g.edges_from(ni).any(|e| {
                e.kind != EdgeKind::Dispatch && in_range(e.call_tok, lp.body) && can_remote[e.to]
            });
            if !direct_remote && !called_remote {
                continue;
            }
            // Retry loops terminate on success: a `break`/`return`
            // belonging to *this* loop (not a nested one). Exit-less loops
            // are daemon bodies (node managers, detectors) — out of scope.
            let nested: Vec<(usize, usize)> = loops
                .iter()
                .enumerate()
                .filter(|&(lj, lx)| lj != li && lp.body.0 < lx.body.0 && lx.body.1 < lp.body.1)
                .map(|(_, lx)| lx.body)
                .collect();
            let direct_exit = toks[lp.body.0..lp.body.1]
                .iter()
                .enumerate()
                .any(|(off, t)| {
                    (t.is("break") || t.is("return"))
                        && !nested.iter().any(|&r| in_range(lp.body.0 + off, r))
                });
            if !direct_exit {
                continue;
            }
            let bounded = match lp.kind {
                // `while let` drains a finite source; a comparison in the
                // condition is an explicit bound.
                LoopKind::WhileLet => true,
                LoopKind::While => {
                    toks[lp.cond.0..lp.cond.1].iter().any(|t| {
                        t.kind == TokKind::Punct
                            && matches!(t.text.as_str(), "<" | ">" | "<=" | ">=" | "!=")
                    }) || toks[lp.cond.0..lp.cond.1]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && is_bound_hint(&t.text))
                }
                // A bare `loop` is bounded only by a *compared* bound: an
                // attempt/budget/deadline identifier adjacent to a
                // comparison operator, in the loop body or in a helper it
                // calls each iteration. A merely-incremented retry *stat*
                // (`s.retries += 1`) proves nothing.
                LoopKind::Loop => {
                    has_compared_bound(toks, lp.body)
                        || g.edges_from(ni).any(|e| {
                            e.kind != EdgeKind::Dispatch
                                && in_range(e.call_tok, lp.body)
                                && node_bound[e.to]
                        })
                }
                LoopKind::For => unreachable!("for-loops are skipped above"),
            };
            if !bounded {
                findings.push(finding(
                    "F2",
                    Severity::Error,
                    &n.file,
                    lp.line,
                    format!(
                        "unbounded retry loop around a remote invocation in `{}`: no attempt counter, budget, or deadline bounds the retries — under a persistent fault this spins forever; cap it with a max-attempts/budget check",
                        n.name
                    ),
                ));
                continue;
            }
            // Bare-`loop` retries must also back off between attempts.
            if lp.kind == LoopKind::Loop {
                let direct_sleep = toks[lp.body.0..lp.body.1].iter().any(|t| {
                    t.kind == TokKind::Ident
                        && (t.text == "sleep" || t.text.to_ascii_lowercase().contains("backoff"))
                });
                let called_sleep = g.edges_from(ni).any(|e| {
                    e.kind != EdgeKind::Dispatch && in_range(e.call_tok, lp.body) && can_sleep[e.to]
                });
                if !direct_sleep && !called_sleep {
                    findings.push(finding(
                        "F2",
                        Severity::Error,
                        &n.file,
                        lp.line,
                        format!(
                            "zero-backoff retry loop around a remote invocation in `{}`: retries hammer the server with no sleep between attempts; add a backoff on the retry path",
                            n.name
                        ),
                    ));
                }
            }
        }
    }

    // Retry cycles spelled as recursion: a statically-resolved cycle that
    // performs RPCs but never sleeps. One finding per cycle, reported at
    // its first node in (file, line) order.
    let is_static = |k: EdgeKind| k == EdgeKind::Static;
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for (ni, n) in g.nodes.iter().enumerate() {
        if n.is_test || !n.has_remote {
            continue;
        }
        let succs: Vec<usize> = g
            .edges_from(ni)
            .filter(|e| is_static(e.kind))
            .map(|e| e.to)
            .collect();
        let fwd = g.reachable(succs, is_static);
        if !fwd.contains(&ni) {
            continue;
        }
        // The cycle through `ni`: nodes it reaches that reach it back.
        let cycle: Vec<usize> = fwd
            .iter()
            .copied()
            .filter(|&m| g.reachable([m], is_static).contains(&ni))
            .collect();
        if cycle.iter().any(|&m| g.nodes[m].has_sleep) {
            continue;
        }
        if !reported.insert(cycle.clone()) {
            continue;
        }
        let first = cycle
            .iter()
            .copied()
            .min_by_key(|&m| (&g.nodes[m].file, g.nodes[m].line))
            .unwrap_or(ni);
        let names: Vec<&str> = cycle.iter().map(|&m| g.nodes[m].name.as_str()).collect();
        findings.push(finding(
            "F2",
            Severity::Error,
            &g.nodes[first].file,
            g.nodes[first].line,
            format!(
                "sleep-free retry cycle through remote invocations: {} call each other with no backoff anywhere on the cycle",
                names.join(" → ")
            ),
        ));
    }
}

/// F3: recoverable failures caught with a non-trivial body must still be
/// handled — propagated, recovered, or recorded (possibly via a call).
fn check_f3(files: &[FileAnalysis], g: &CallGraph, can_sink: &[bool], findings: &mut Vec<Finding>) {
    for (ni, n) in g.nodes.iter().enumerate() {
        if n.is_test {
            continue;
        }
        let fa = &files[n.file_idx];
        let ast = &fa.ast;
        for m in &ast.matches {
            for arm in &m.arms {
                if arm.body.0 <= n.body.0 || arm.body.1 >= n.body.1 {
                    continue;
                }
                // Innermost-fn ownership (nested fns check their own arms).
                if ast
                    .enclosing_fn(arm.body.0)
                    .map(|o| o.line != n.line || o.name != n.name)
                    .unwrap_or(true)
                {
                    continue;
                }
                if fa.is_test_line(arm.line) {
                    continue;
                }
                let marked = ast.toks[arm.pat.0..arm.pat.1].iter().any(|t| {
                    t.kind == TokKind::Ident && RECOVERABLE_MARKERS.contains(&t.text.as_str())
                });
                if !marked {
                    continue;
                }
                let body = &ast.toks[arm.body.0..arm.body.1];
                // Trivial bodies are E1's finding, not ours.
                if !body
                    .iter()
                    .any(|t| matches!(t.kind, TokKind::Ident | TokKind::Lit))
                {
                    continue;
                }
                let handled = body.iter().any(|t| match t.kind {
                    TokKind::Punct => t.text == "?",
                    TokKind::Ident => {
                        matches!(t.text.as_str(), "return" | "break" | "continue" | "Err") || {
                            let lower = t.text.to_ascii_lowercase();
                            SINK_FRAGMENTS.iter().any(|f| lower.contains(f))
                        }
                    }
                    _ => false,
                });
                let handled_by_call = handled
                    || g.edges_from(ni).any(|e| {
                        e.kind != EdgeKind::Dispatch
                            && arm.body.0 <= e.call_tok
                            && e.call_tok < arm.body.1
                            && can_sink[e.to]
                    });
                if !handled_by_call {
                    findings.push(finding(
                        "F3",
                        Severity::Warning,
                        &n.file,
                        arm.line,
                        format!(
                            "recoverable failure caught in `{}` but swallowed: the arm neither propagates it, retries, nor records it anywhere the doctor or the experiment outcome can see",
                            n.name
                        ),
                    ));
                }
            }
        }
    }
}

/// F4: paired-resource lifecycle balance across the workspace.
fn check_f4(g: &CallGraph, files: &[FileAnalysis], findings: &mut Vec<Finding>) {
    // Count call sites by exact callee name (method or free) and by the
    // IDL op a remote site names. A definition is not a site.
    let mut acquire_first: BTreeMap<&str, (usize, String, usize)> = BTreeMap::new();
    let mut counts: BTreeMap<(&str, bool), usize> = BTreeMap::new();
    let mut tally = |name: &str, is_test: bool, file: &str, line: usize| {
        for &(acq, rel, _) in PAIRS {
            let which = if name == acq {
                Some((acq, false))
            } else if name == rel {
                Some((rel, true))
            } else {
                None
            };
            let Some((key, is_release)) = which else {
                continue;
            };
            // Production acquisitions only; releases count anywhere.
            if !is_release && is_test {
                continue;
            }
            *counts.entry((key, is_release)).or_default() += 1;
            if !is_release {
                acquire_first
                    .entry(key)
                    .or_insert_with(|| (line, file.to_string(), line));
            }
        }
    };
    for n in &g.nodes {
        let fa = &files[n.file_idx];
        for c in &fa.ast.calls {
            if c.name_tok <= n.body.0 || c.name_tok >= n.body.1 {
                continue;
            }
            if fa
                .ast
                .enclosing_fn(c.name_tok)
                .map(|o| o.line != n.line || o.name != n.name)
                .unwrap_or(true)
            {
                continue;
            }
            let is_test = n.is_test || fa.is_test_line(c.line);
            tally(&c.method, is_test, &n.file, c.line);
        }
    }
    for s in &g.remote_sites {
        if let Some(op) = &s.op {
            tally(op, s.is_test, &g.nodes[s.node].file, s.line);
        }
    }
    for &(acq, rel, what) in PAIRS {
        let acquires = counts.get(&(acq, false)).copied().unwrap_or(0);
        let releases = counts.get(&(rel, true)).copied().unwrap_or(0);
        if acquires > 0 && releases == 0 {
            let (_, file, line) = acquire_first
                .get(acq)
                .cloned()
                .unwrap_or((0, String::new(), 0));
            findings.push(finding(
                "F4",
                Severity::Error,
                &file,
                line,
                format!(
                    "unbalanced resource pair: {acquires} `{acq}` site(s) but no `{rel}` anywhere in the workspace — every {what} acquired here leaks for the life of the process"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<FileAnalysis> = sources
            .iter()
            .map(|(path, src)| {
                let dir = crate::crate_dir_of(path);
                FileAnalysis::new(path, dir.as_deref(), src)
            })
            .collect();
        let g = callgraph::build(&files, &Default::default());
        check(&files, &g)
    }

    #[test]
    fn f1_flags_naked_rpc_and_accepts_timeout() {
        let f = run(&[(
            "crates/ft/src/x.rs",
            "pub struct C { obj: ObjectRef }\nimpl C {\n fn naked(&self, orb: &mut Orb) { self.obj.invoke(orb); }\n fn timed(&self, orb: &mut Orb) { self.obj.invoke_with_timeout(orb); }\n}\n",
        )]);
        let f1: Vec<_> = f.iter().filter(|f| f.rule == "F1").collect();
        assert_eq!(f1.len(), 1, "{f:?}");
        assert_eq!(f1[0].line, 3);
    }

    #[test]
    fn f2_flags_unbounded_retry_and_accepts_capped() {
        let f = run(&[(
            "crates/ft/src/y.rs",
            concat!(
                "fn remote(obj: &ObjectRef) { obj.invoke_with_timeout(1); }\n",
                "fn bad(obj: &ObjectRef) {\n",
                " loop {\n",
                "  remote(obj);\n",
                "  if done() { break; }\n",
                " }\n",
                "}\n",
                "fn good(obj: &ObjectRef) {\n",
                " let mut attempts = 0;\n",
                " loop {\n",
                "  remote(obj);\n",
                "  attempts += 1;\n",
                "  if attempts > 3 { break; }\n",
                "  backoff_sleep();\n",
                " }\n",
                "}\n",
            ),
        )]);
        let f2: Vec<_> = f.iter().filter(|f| f.rule == "F2").collect();
        assert_eq!(f2.len(), 1, "{f:?}");
        assert_eq!(f2[0].line, 3);
    }

    #[test]
    fn f2_flags_zero_backoff_bounded_loop() {
        let f = run(&[(
            "crates/ft/src/z.rs",
            concat!(
                "fn hammer(obj: &ObjectRef) {\n",
                " let mut attempts = 0;\n",
                " loop {\n",
                "  obj.invoke_with_timeout(1);\n",
                "  attempts += 1;\n",
                "  if attempts > 3 { break; }\n",
                " }\n",
                "}\n",
            ),
        )]);
        let f2: Vec<_> = f.iter().filter(|f| f.rule == "F2").collect();
        assert_eq!(f2.len(), 1, "{f:?}");
        assert!(f2[0].message.contains("zero-backoff"));
    }

    #[test]
    fn f2_ignores_breakless_daemon_loops() {
        let f = run(&[(
            "crates/winner/src/d.rs",
            "fn daemon(obj: &ObjectRef) {\n loop {\n  obj.invoke_with_timeout(1);\n  step();\n }\n}\n",
        )]);
        assert!(f.iter().all(|f| f.rule != "F2"), "{f:?}");
    }

    #[test]
    fn f3_flags_swallowed_failure_and_accepts_sink() {
        let f = run(&[(
            "crates/ft/src/w.rs",
            concat!(
                "fn swallow(r: R) -> u32 {\n",
                " match r {\n",
                "  Ok(v) => v,\n",
                "  Err(e) if e.is_recoverable() => { let v = 0; v }\n",
                " }\n",
                "}\n",
                "fn sunk(r: R, d: &mut Doctor) -> u32 {\n",
                " match r {\n",
                "  Ok(v) => v,\n",
                "  Err(e) if e.is_recoverable() => { d.record_failure(); 0 }\n",
                " }\n",
                "}\n",
            ),
        )]);
        let f3: Vec<_> = f.iter().filter(|f| f.rule == "F3").collect();
        assert_eq!(f3.len(), 1, "{f:?}");
        assert_eq!(f3[0].line, 4);
    }

    #[test]
    fn f4_flags_unreleased_pair() {
        let f = run(&[(
            "crates/monitor/src/s.rs",
            "fn acquire(st: &mut St) { st.subscribe(4); }\n",
        )]);
        let f4: Vec<_> = f.iter().filter(|f| f.rule == "F4").collect();
        assert_eq!(f4.len(), 1, "{f:?}");
        assert!(f4[0].message.contains("unsubscribe"));
    }

    #[test]
    fn f4_balanced_pair_is_clean() {
        let f = run(&[(
            "crates/monitor/src/s.rs",
            "fn acquire(st: &mut St) { st.subscribe(4); }\nfn release(st: &mut St) { st.unsubscribe(1); }\n",
        )]);
        assert!(f.iter().all(|f| f.rule != "F4"), "{f:?}");
    }
}
