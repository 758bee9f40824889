//! L1–L3 concurrency rules: a static lock-acquisition graph over
//! `simnet::Shared`.
//!
//! `Shared` is scheduler-serialized, but its inner `Mutex` is real: a sim
//! process that blocks (yields to the kernel) while holding a guard can
//! deadlock another process that tries to lock the same cell, and two
//! cells locked in opposite orders by different processes deadlock each
//! other the classic way. The kernel cannot detect this statically; this
//! pass can.
//!
//! | ID | invariant |
//! |----|-----------|
//! | L1 | lock classes must be acquired in one consistent global order (no cycles in the acquisition graph) |
//! | L2 | no re-entrant acquisition of a lock class while its guard is live (std `Mutex` self-deadlocks), directly or via a callee |
//! | L3 | no blocking call (`ctx.sleep`/`recv`/`compute`/remote invoke) while any guard is live — a blocked holder wedges every other process needing the cell |
//!
//! A *lock class* is `(crate, cell name)`: every `Shared` cell reached
//! through a field or binding of that name in that crate. Guard liveness:
//! a `let g = cell.lock()` guard lives to the end of its scope (or an
//! explicit `drop(g)`); a temporary `cell.lock().x` lives to the end of
//! the statement; `cell.with(|v| ...)` holds for the closure's extent;
//! `get`/`take`/`put`/`replace` acquire and release instantaneously.
//! `simnet` itself is exempt: the kernel implements the serialization
//! guarantee and its internals are the sanctioned lock site.

use crate::analysis::FileAnalysis;
use crate::ast::FileAst;
use crate::lexer::TokKind;
use crate::rules::{Finding, SIM_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// Result of the lock-graph pass.
#[derive(Debug, Default)]
pub struct LockReport {
    pub findings: Vec<Finding>,
    /// Number of `Shared` acquisition sites covered by the graph.
    pub sites: usize,
    /// Number of distinct lock classes discovered.
    pub classes: usize,
}

/// A lock class: `(crate, cell name)`.
type Class = (String, String);

/// Methods that block the calling process (yield to the kernel) when
/// invoked on a receiver. `invoke_oneway`/`oneway` are fire-and-forget
/// sends and deliberately absent.
const BLOCKING_METHODS: &[&str] = &[
    "sleep",
    "recv",
    "recv_timeout",
    "compute",
    "invoke",
    "invoke_with_timeout",
    "call",
    "call_with_timeout",
    "locate",
    "ping",
    "send_deferred",
    "get_response",
];

/// Callee names too generic to resolve through the effects table.
const EFFECTS_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "len",
    "is_empty",
    "get",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "next",
    "write",
    "read",
    "with",
    "take",
    "put",
    "replace",
    "lock",
    "from",
    "into",
    "to_string",
    "as_ref",
    "as_mut",
    "contains",
    "clear",
    "extend",
    "send",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "ok",
    "err",
    "min",
    "max",
    "abs",
];

/// Shared acquisition methods and whether they need a declared class.
fn acquisition_kind(method: &str, n_args: usize) -> Option<AcqKind> {
    match (method, n_args) {
        ("lock", 0) => Some(AcqKind::Lock),
        ("with", 1) => Some(AcqKind::With),
        ("replace", 1) | ("put", 1) => Some(AcqKind::Instant),
        ("get", 0) | ("take", 0) => Some(AcqKind::Instant),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcqKind {
    /// `.lock()` — produces a guard (let-bound or temporary).
    Lock,
    /// `.with(|v| ...)` — holds for the closure.
    With,
    /// `get`/`take`/`put`/`replace` — acquire and release inside the call.
    Instant,
}

/// One acquisition event inside a function.
#[derive(Debug, Clone)]
struct Event {
    class: Class,
    /// Token index of the method-name identifier.
    tok: usize,
    line: usize,
    /// Guard-liveness token range, `None` for instantaneous acquisitions.
    span: Option<(usize, usize)>,
}

/// Per-function summary used for interprocedural propagation.
#[derive(Debug, Default, Clone)]
struct Effect {
    acquires: BTreeSet<Class>,
    may_block: bool,
}

/// A function's locally-computed facts.
struct FnFacts<'a> {
    file: &'a FileAnalysis,
    krate: String,
    name: String,
    body: (usize, usize),
    events: Vec<Event>,
}

/// Names of `Shared`-typed cells declared in a file: struct fields, fn
/// params, `let x = Shared::new(..)` bindings, struct-literal fields
/// initialized with `Shared::new`, and `let a = <cell>.clone()` aliases.
fn declared_cells(fa: &FileAnalysis) -> BTreeSet<String> {
    let ast = &fa.ast;
    let mut out = BTreeSet::new();
    for st in &ast.structs {
        for f in &st.fields {
            if f.ty.contains("Shared") {
                out.insert(f.name.clone());
            }
        }
    }
    for f in &ast.fns {
        for p in &f.params {
            if p.ty.contains("Shared") {
                out.insert(p.name.clone());
            }
        }
    }
    // `Shared::new(` occurrences: walk back to a `let NAME` or a
    // struct-literal `name:` immediately preceding.
    let toks = &ast.toks;
    for i in 0..toks.len() {
        if !(toks[i].is("Shared")
            && toks.get(i + 1).map(|t| t.is("::")).unwrap_or(false)
            && toks.get(i + 2).map(|t| t.text == "new").unwrap_or(false))
        {
            continue;
        }
        // Struct literal / typed binding: `name : [ty =] Shared::new`.
        let mut p = i;
        let mut steps = 0;
        while p > 0 && steps < 24 {
            p -= 1;
            steps += 1;
            let t = &toks[p];
            if t.is(";") || t.is("{") || t.is("}") || t.is(",") {
                break;
            }
            if t.is("let") {
                // `let [mut] NAME [: ty] = ...`
                let mut q = p + 1;
                if toks.get(q).map(|t| t.is("mut")).unwrap_or(false) {
                    q += 1;
                }
                if let Some(name) = toks.get(q) {
                    if name.kind == TokKind::Ident {
                        out.insert(name.text.clone());
                    }
                }
                break;
            }
        }
        // `field: Shared::new(...)` in a struct literal.
        if i >= 2 && toks[i - 1].is(":") && toks[i - 2].kind == TokKind::Ident {
            out.insert(toks[i - 2].text.clone());
        }
    }
    // Clone aliases: `let a = <cell>.clone()` where `<cell>` is declared.
    for _ in 0..2 {
        for c in &ast.calls {
            if c.method != "clone" || !c.is_method {
                continue;
            }
            let Some(tail) = &c.recv_tail else { continue };
            if !out.contains(tail) {
                continue;
            }
            // Walk back to the `let` of this statement.
            let mut p = c.name_tok;
            let mut steps = 0;
            while p > 0 && steps < 24 {
                p -= 1;
                steps += 1;
                let t = &toks[p];
                if t.is(";") || t.is("{") || t.is("}") {
                    break;
                }
                if t.is("let") {
                    let mut q = p + 1;
                    if toks.get(q).map(|t| t.is("mut")).unwrap_or(false) {
                        q += 1;
                    }
                    if let Some(name) = toks.get(q) {
                        if name.kind == TokKind::Ident && name.text != "_" {
                            out.insert(name.text.clone());
                        }
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Compute the guard-liveness span for a `.lock()` call: let-bound guards
/// live to the end of the enclosing scope (or `drop(name)`), temporaries
/// to the end of the statement.
fn lock_span(ast: &FileAst, call: &crate::ast::Call, body: (usize, usize)) -> (usize, usize) {
    let toks = &ast.toks;
    let open = call.name_tok + 1;
    let close = ast.paren_close.get(&open).copied().unwrap_or(call.name_tok);
    let bound_to_let = toks.get(close + 1).map(|t| t.is(";")).unwrap_or(false);
    if bound_to_let {
        // Find `let [mut] NAME =` at the start of this statement.
        let mut p = call.name_tok;
        let mut steps = 0;
        let mut guard_name: Option<String> = None;
        while p > 0 && steps < 24 {
            p -= 1;
            steps += 1;
            let t = &toks[p];
            if t.is(";") || t.is("{") || t.is("}") {
                break;
            }
            if t.is("let") {
                let mut q = p + 1;
                if toks.get(q).map(|t| t.is("mut")).unwrap_or(false) {
                    q += 1;
                }
                if let Some(name) = toks.get(q) {
                    if name.kind == TokKind::Ident {
                        guard_name = Some(name.text.clone());
                    }
                }
                break;
            }
        }
        if let Some(gname) = guard_name {
            let scope_end = ast
                .enclosing_scope(call.name_tok)
                .map(|s| s.close)
                .unwrap_or(body.1)
                .min(body.1);
            // Explicit `drop(gname)` ends the guard early.
            for c in &ast.calls {
                if c.method == "drop"
                    && !c.is_method
                    && c.name_tok > close
                    && c.name_tok < scope_end
                    && c.args.len() == 1
                    && ast.text(c.args[0].toks) == gname
                {
                    return (close, c.name_tok);
                }
            }
            return (close, scope_end);
        }
    }
    // Temporary (`cell.lock().x += 1`, `*cell.lock() = v`, or an
    // unrecognized binding): guard lives to the end of the statement.
    let mut q = close;
    let stmt_end = loop {
        q += 1;
        match toks.get(q) {
            None => break q,
            Some(t) if t.is(";") => break q,
            Some(t) if t.is("{") || t.is("}") => break q,
            _ => {}
        }
    };
    (close, stmt_end.min(body.1))
}

/// Build the per-function facts for one file.
fn facts_of<'a>(fa: &'a FileAnalysis, cells: &BTreeSet<String>, krate: &str) -> Vec<FnFacts<'a>> {
    let ast = &fa.ast;
    let mut out = Vec::new();
    for f in &ast.fns {
        let Some(body) = f.body else { continue };
        if fa.is_test_line(f.line) {
            continue;
        }
        // Skip nested fns here; their own entry covers them. Events inside
        // a nested fn belong to the nested fn (innermost wins below).
        let mut events = Vec::new();
        for c in &ast.calls {
            if c.name_tok <= body.open || c.name_tok >= body.close {
                continue;
            }
            // Innermost-function ownership.
            let owner = ast.enclosing_fn(c.name_tok);
            if owner.map(|o| o.line != f.line).unwrap_or(false) {
                continue;
            }
            if !c.is_method {
                continue;
            }
            let Some(kind) = acquisition_kind(&c.method, c.args.len()) else {
                continue;
            };
            let Some(tail) = &c.recv_tail else { continue };
            // `.lock()` is unambiguous (clippy's D4 paths ban Mutex outside the kernel);
            // the generic names need a declared Shared cell to bind to.
            if kind != AcqKind::Lock && !cells.contains(tail) {
                continue;
            }
            let span = match kind {
                AcqKind::Lock => Some(lock_span(ast, c, (body.open, body.close))),
                AcqKind::With => {
                    let open = c.name_tok + 1;
                    let close = ast.paren_close.get(&open).copied().unwrap_or(open);
                    Some((open, close))
                }
                AcqKind::Instant => None,
            };
            events.push(Event {
                class: (krate.to_string(), tail.clone()),
                tok: c.name_tok,
                line: c.line,
                span,
            });
        }
        out.push(FnFacts {
            file: fa,
            krate: krate.to_string(),
            name: f.name.clone(),
            body: (body.open, body.close),
            events,
        });
    }
    out
}

/// Run the lock-graph pass over the workspace.
pub fn check(files: &[FileAnalysis]) -> LockReport {
    let mut report = LockReport::default();

    // --- Per-file facts ----------------------------------------------------
    let mut all_facts: Vec<FnFacts<'_>> = Vec::new();
    for fa in files {
        let Some(dir) = fa.crate_dir.as_deref() else {
            continue;
        };
        if !SIM_CRATES.contains(&dir) || dir == "simnet" {
            continue;
        }
        let cells = declared_cells(fa);
        all_facts.extend(facts_of(fa, &cells, dir));
    }
    report.sites = all_facts.iter().map(|f| f.events.len()).sum();
    report.classes = all_facts
        .iter()
        .flat_map(|f| f.events.iter().map(|e| e.class.clone()))
        .collect::<BTreeSet<_>>()
        .len();

    // --- Effects fixpoint (same-crate call resolution, 2 rounds) -----------
    let mut effects: BTreeMap<(String, String), Effect> = BTreeMap::new();
    for f in &all_facts {
        let e = effects
            .entry((f.krate.clone(), f.name.clone()))
            .or_default();
        for ev in &f.events {
            e.acquires.insert(ev.class.clone());
        }
        let ast = &f.file.ast;
        for c in &ast.calls {
            if c.name_tok > f.body.0
                && c.name_tok < f.body.1
                && c.is_method
                && BLOCKING_METHODS.contains(&c.method.as_str())
            {
                e.may_block = true;
            }
        }
    }
    for _ in 0..2 {
        let snapshot = effects.clone();
        for f in &all_facts {
            let ast = &f.file.ast;
            let mut add = Effect::default();
            for c in &ast.calls {
                if c.name_tok <= f.body.0 || c.name_tok >= f.body.1 {
                    continue;
                }
                if EFFECTS_STOPLIST.contains(&c.method.as_str()) {
                    continue;
                }
                // Name-based resolution is only sound for free calls and
                // `self.` methods: `guard.finalize()` on a locked value
                // must not alias an unrelated `Handle::finalize`.
                if c.is_method && c.recv_tail.as_deref() != Some("self") {
                    continue;
                }
                if let Some(callee) = snapshot.get(&(f.krate.clone(), c.method.clone())) {
                    add.acquires.extend(callee.acquires.iter().cloned());
                    add.may_block |= callee.may_block;
                }
            }
            let e = effects
                .entry((f.krate.clone(), f.name.clone()))
                .or_default();
            e.acquires.extend(add.acquires);
            e.may_block |= add.may_block;
        }
    }

    // --- Per-function L2/L3 + L1 edge collection ---------------------------
    // Edge: (held class → acquired class) with one evidence site.
    let mut edges: BTreeMap<(Class, Class), (String, usize)> = BTreeMap::new();
    let mut dedup: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for f in &all_facts {
        let ast = &f.file.ast;
        let path = &f.file.path;
        for held in &f.events {
            let Some(span) = held.span else { continue };
            // Direct acquisitions inside the held span.
            for e2 in &f.events {
                if e2.tok <= span.0 || e2.tok >= span.1 || e2.tok == held.tok {
                    continue;
                }
                if e2.class == held.class {
                    if dedup.insert((path.clone(), e2.line, "L2")) {
                        report.findings.push(Finding::new(
                            "L2",
                            path,
                            e2.line,
                            format!(
                                "re-entrant acquisition of `{}` while its guard (taken line {}) is live — std::sync::Mutex self-deadlocks",
                                held.class.1, held.line
                            ),
                        ));
                    }
                } else {
                    edges
                        .entry((held.class.clone(), e2.class.clone()))
                        .or_insert((path.clone(), e2.line));
                }
            }
            // Calls inside the held span: blocking set + callee effects.
            for c in &ast.calls {
                if c.name_tok <= span.0 || c.name_tok >= span.1 {
                    continue;
                }
                if c.is_method && BLOCKING_METHODS.contains(&c.method.as_str()) {
                    if dedup.insert((path.clone(), c.line, "L3")) {
                        report.findings.push(Finding::new(
                            "L3",
                            path,
                            c.line,
                            format!(
                                "blocking call `.{}(..)` while holding the `{}` guard (taken line {}) — a blocked holder wedges every process needing the cell",
                                c.method, held.class.1, held.line
                            ),
                        ));
                    }
                    continue;
                }
                if EFFECTS_STOPLIST.contains(&c.method.as_str()) {
                    continue;
                }
                if c.is_method && c.recv_tail.as_deref() != Some("self") {
                    continue;
                }
                if let Some(callee) = effects.get(&(f.krate.clone(), c.method.clone())) {
                    if callee.may_block && dedup.insert((path.clone(), c.line, "L3")) {
                        report.findings.push(Finding::new(
                            "L3",
                            path,
                            c.line,
                            format!(
                                "call to `{}` (which can block) while holding the `{}` guard (taken line {})",
                                c.method, held.class.1, held.line
                            ),
                        ));
                    }
                    if callee.acquires.contains(&held.class)
                        && dedup.insert((path.clone(), c.line, "L2"))
                    {
                        report.findings.push(Finding::new(
                            "L2",
                            path,
                            c.line,
                            format!(
                                "call to `{}` re-acquires `{}` while its guard (taken line {}) is live",
                                c.method, held.class.1, held.line
                            ),
                        ));
                    }
                    for acq in &callee.acquires {
                        if *acq != held.class {
                            edges
                                .entry((held.class.clone(), acq.clone()))
                                .or_insert((path.clone(), c.line));
                        }
                    }
                }
            }
        }
    }

    // --- L1: cycles in the acquisition-order graph -------------------------
    let graph: BTreeMap<&Class, BTreeSet<&Class>> = {
        let mut g: BTreeMap<&Class, BTreeSet<&Class>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            g.entry(a).or_default().insert(b);
        }
        g
    };
    let reaches = |from: &Class, to: &Class| -> bool {
        let mut seen: BTreeSet<&Class> = BTreeSet::new();
        let mut stack: Vec<&Class> = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = graph.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for ((a, b), (file, line)) in &edges {
        if reaches(b, a) {
            report.findings.push(Finding::new(
                "L1",
                file,
                *line,
                format!(
                    "lock-order inversion: `{}` acquired while holding `{}`, but the opposite order also occurs — pick one global order",
                    b.1, a.1
                ),
            ));
        }
    }

    report
        .findings
        .sort_by(|x, y| (x.file.clone(), x.line, x.rule).cmp(&(y.file.clone(), y.line, y.rule)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::WorkspaceIndex;

    fn run(src: &str) -> LockReport {
        let _ = WorkspaceIndex::stub_only();
        let fa = FileAnalysis::new("crates/ft/src/x.rs", Some("ft"), src);
        check(std::slice::from_ref(&fa))
    }

    #[test]
    fn counts_sites_and_classes() {
        let r = run(
            "struct S { state: simnet::Shared<u32>, other: simnet::Shared<u32> }\n\
             impl S {\n fn f(&self) { let g = self.state.lock(); drop(g); self.other.with(|v| *v += 1); }\n}\n",
        );
        assert_eq!(r.sites, 2);
        assert_eq!(r.classes, 2);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn reentrant_lock_is_l2() {
        let r = run(
            "struct S { state: simnet::Shared<u32> }\n\
             impl S {\n fn f(&self) { let g = self.state.lock(); let x = self.state.get(); let _ = (g, x); }\n}\n",
        );
        assert!(
            r.findings.iter().any(|f| f.rule == "L2"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn blocking_while_held_is_l3() {
        let r = run(
            "struct S { state: simnet::Shared<u32> }\n\
             impl S {\n fn f(&self, ctx: &mut Ctx) { let g = self.state.lock(); ctx.sleep(1.0); drop(g); }\n}\n",
        );
        assert!(
            r.findings.iter().any(|f| f.rule == "L3"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn blocking_after_a_multiline_literal_is_l3() {
        // Every token after the literal's closing quote must survive for
        // the guard and the sleep to be seen.
        let r = run(
            "fn f(g: &Shared<u32>, ctx: &mut Ctx) {\n let s = \"abc\ndef\"; let x = g.lock(); ctx.sleep(1.0);\n}\n",
        );
        assert_eq!(r.sites, 1);
        let l3: Vec<usize> = r
            .findings
            .iter()
            .filter(|f| f.rule == "L3")
            .map(|f| f.line)
            .collect();
        assert_eq!(l3, [3], "{:?}", r.findings);
    }

    #[test]
    fn drop_releases_guard() {
        let r = run(
            "struct S { state: simnet::Shared<u32> }\n\
             impl S {\n fn f(&self, ctx: &mut Ctx) { let g = self.state.lock(); drop(g); ctx.sleep(1.0); }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn inverted_order_is_l1() {
        let r = run(
            "struct S { a: simnet::Shared<u32>, b: simnet::Shared<u32> }\n\
             impl S {\n fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); drop(h); drop(g); }\n\
             fn g2(&self) { let g = self.b.lock(); let h = self.a.lock(); drop(h); drop(g); }\n}\n",
        );
        assert!(
            r.findings.iter().any(|f| f.rule == "L1"),
            "{:?}",
            r.findings
        );
    }
}
