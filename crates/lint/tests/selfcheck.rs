//! Self-check: the analyzer run over its own workspace, through the
//! library API. This is the acceptance gate in executable form — the
//! committed tree is finding-free, every IDL operation is declared in one
//! place only and its generated stub is exercised, and the lock graph saw
//! the workspace's `simnet::Shared` use sites.

use ldft_lint::ast::TokKind;
use ldft_lint::{contracts, run_workspace};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

#[test]
fn workspace_is_finding_free() {
    let report = run_workspace(workspace_root()).expect("lint the workspace");
    let errors: Vec<String> = report.errors().map(|f| f.render()).collect();
    assert!(
        errors.is_empty(),
        "unsuppressed errors:\n{}",
        errors.join("\n")
    );
    let warnings: Vec<String> = report.warnings().map(|f| f.render()).collect();
    assert!(warnings.is_empty(), "warnings:\n{}", warnings.join("\n"));
    // Every suppression carries a reason (A1 would have fired otherwise);
    // keep the count pinned so new allows are a conscious diff.
    assert_eq!(
        report.allowed().count(),
        4,
        "allow inventory changed — re-audit crates/lint/README.md's list"
    );
}

#[test]
fn the_contracts_compile_and_keep_their_op_inventory() {
    let report = run_workspace(workspace_root()).expect("lint the workspace");
    // Independent count: compile the contracts directly and sum their ops
    // (attributes expand to `_get_`/`_set_` pseudo-ops; an inherited op
    // counts once, where it is declared).
    let independent = contracts(workspace_root())
        .expect("read idl/")
        .ops()
        .count();
    assert_eq!(report.wire_ops, independent);
    assert_eq!(independent, 55, "idl/*.idl op inventory changed");
}

/// Generated files: checked in per owning crate and `include!`d.
fn is_generated(path: &str) -> bool {
    path.ends_with("/generated.rs") || path.contains("/generated/")
}

#[test]
fn every_operation_is_declared_once_in_idl() {
    // `idl/*.idl` is the only place an operation is declared: servants
    // implement the trait `idlc` generates and run behind its skeleton,
    // clients call through its stub. So outside the checked-in generated
    // files, the service crates hold no dispatch table, no table of op
    // names, and no op name spelled as a string at a call site.
    let root = workspace_root();
    let idls = contracts(root).expect("read idl/");
    let op_names: std::collections::BTreeSet<&str> =
        idls.ops().map(|op| op.name.as_str()).collect();
    const REMOTE_CALLS: &[&str] = &[
        "call",
        "call_with_timeout",
        "oneway",
        "invoke",
        "invoke_with_timeout",
        "invoke_oneway",
        "send_request",
        "new", // DiiRequest::new / FtRequest::new
    ];
    let mut offences = Vec::new();
    let mut generated = 0;
    for fa in ldft_lint::analyze_workspace(root).expect("parse the workspace") {
        let scoped = fa.path.starts_with("crates/")
            && fa.path.contains("/src/")
            && !matches!(fa.crate_dir.as_deref(), Some("idl" | "lint" | "bench"))
            && !fa.path.starts_with("crates/explore/src/targets/")
            && !ldft_lint::analysis::is_test_path(&fa.path);
        if !scoped {
            continue;
        }
        if is_generated(&fa.path) {
            generated += 1;
            continue;
        }
        let ast = &fa.ast;
        let within = |outer: &ldft_lint::ast::Scope, inner: &ldft_lint::ast::Scope| {
            outer.open < inner.open && inner.close < outer.close
        };
        for im in ast
            .impls
            .iter()
            .filter(|im| im.trait_name.as_deref() == Some("Servant") && !fa.is_test_line(im.line))
        {
            for m in ast.matches.iter().filter(|m| within(&im.body, &m.body)) {
                // A dispatch table matches on the operation name: the
                // scrutinee is `op`, or an arm pattern names an operation.
                let names_op = m.arms.iter().any(|arm| {
                    let pat = &ast.toks[arm.pat.0..arm.pat.1];
                    pat.iter()
                        .any(|t| t.kind == TokKind::Lit && op_names.contains(t.text.as_str()))
                });
                if m.scrutinee.trim() == "op" || names_op {
                    offences.push(format!(
                        "{}:{}: hand-written dispatch table in `impl Servant for {}`",
                        fa.path, m.line, im.type_name
                    ));
                }
            }
        }
        for (i, t) in ast.toks.iter().enumerate() {
            if t.is("mod")
                && ast.toks.get(i + 1).is_some_and(|n| n.text == "ops")
                && !fa.is_test_line(t.line)
            {
                offences.push(format!(
                    "{}:{}: `mod ops` table of op names",
                    fa.path, t.line
                ));
            }
        }
        for c in ast
            .calls
            .iter()
            .filter(|c| REMOTE_CALLS.contains(&c.method.as_str()) && !fa.is_test_line(c.line))
        {
            for arg in &c.args {
                let toks = &ast.toks[arg.toks.0..arg.toks.1];
                if let [t] = toks {
                    if t.kind == TokKind::Lit && op_names.contains(t.text.as_str()) {
                        offences.push(format!(
                            "{}:{}: op name \"{}\" spelled at a `{}` call site",
                            fa.path, c.line, t.text, c.method
                        ));
                    }
                }
            }
        }
    }
    assert!(offences.is_empty(), "{}", offences.join("\n"));
    assert_eq!(generated, 6, "one generated file per contract-owning crate");
}

#[test]
fn call_graph_covers_the_workspace() {
    let report = run_workspace(workspace_root()).expect("lint the workspace");
    let g = &report.graph;
    assert_eq!(report.graph_nodes, g.nodes.len());
    assert_eq!(report.graph_edges, g.edges.len());
    assert_eq!(report.remote_sites, g.remote_sites.len());
    // No pinned (nodes, edges, remote sites) triple: it moved in every PR
    // and never failed for a reason. What it stood for — a resolution
    // regression silently shrinking the graph and muting F1–F4 — is held
    // by the property below and by `every_idl_op_stub_is_reachable_from_a_
    // test_root`: every policed crate contributes nodes and outgoing edges,
    // and every contract op's stub is still reached from a root.
    let counts = g.crate_counts();
    for krate in [
        "bench", "core", "explore", "ft", "monitor", "naming", "obs", "optim", "orb", "store",
        "tests", "winner",
    ] {
        let (n, e) = counts.get(krate).copied().unwrap_or((0, 0));
        assert!(n > 0 && e > 0, "crate {krate} vanished from the graph");
    }
}

#[test]
fn every_idl_op_stub_is_reachable_from_a_test_root() {
    // Coverage closure: each IDL operation's client stub (a remote
    // invocation site carrying its op name — the generated stub method)
    // must be reachable from a bench binary or a test fn — i.e. something
    // actually exercises the stub end to end. A stub this assertion flags
    // is dead client code: an operation nobody calls.
    let report = run_workspace(workspace_root()).expect("lint the workspace");
    let g = &report.graph;
    let roots: Vec<usize> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.is_test || n.krate == "bench" || n.krate == "tests")
        .map(|(i, _)| i)
        .collect();
    assert!(
        roots.len() > 300,
        "root inventory collapsed: {}",
        roots.len()
    );
    let reach = g.reachable(roots, |_| true);
    let ops: std::collections::BTreeSet<&str> = g
        .remote_sites
        .iter()
        .filter_map(|s| s.op.as_deref())
        .collect();
    // Every operation the contracts declare has such a stub: it is
    // generated. (Names shared across interfaces count once.)
    let idls = contracts(workspace_root()).expect("read idl/");
    let declared: std::collections::BTreeSet<&str> =
        idls.ops().map(|op| op.name.as_str()).collect();
    assert_eq!(ops, declared, "a contract op without a generated stub site");
    let dead: Vec<&str> = ops
        .iter()
        .filter(|op| {
            !g.remote_sites
                .iter()
                .any(|s| s.op.as_deref() == Some(op) && reach.contains(&s.node))
        })
        .copied()
        .collect();
    assert!(
        dead.is_empty(),
        "client stubs no test or bench root reaches: {dead:?}"
    );
}

#[test]
fn lock_graph_covers_the_shared_use_sites() {
    let report = run_workspace(workspace_root()).expect("lint the workspace");
    assert!(
        report.lock_sites >= report.lock_classes,
        "sites {} < classes {}",
        report.lock_sites,
        report.lock_classes
    );
    // Pinned coverage: the graph currently sees 42 non-test `Shared`
    // acquisition sites across 13 lock classes in the policed crates
    // (the explore cells' choice logs, result cells, and register added
    // six classes). A raw-string `.lock()` count is no substitute (tests
    // drive hundreds of `Arc<Mutex>` harness cells the graph rightly
    // ignores), so the golden numbers document coverage; update them
    // when `Shared` use sites are genuinely added or removed.
    assert_eq!(
        (report.lock_sites, report.lock_classes),
        (42, 13),
        "Shared acquisition inventory changed — confirm the lock graph still sees every new site"
    );
}

#[test]
fn kernel_tie_breaks_route_through_the_schedule_policy() {
    // The explorer's soundness rests on the kernel exposing *every*
    // nondeterminism point through `SchedulePolicy`: an event-queue pop
    // outside `Kernel::next_event`, or a runnable-queue pop outside
    // `Kernel::next_runnable`, would be a tie broken behind the
    // explorer's back. Pin the routing: the queue-draining expressions
    // appear only inside those two functions, and each of them consults
    // the installed policy.
    let root = workspace_root();
    let simnet_src = root.join("crates/simnet/src");
    let mut saw_next_event = false;
    let mut saw_next_runnable = false;
    for entry in std::fs::read_dir(&simnet_src).expect("list simnet/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "rs") {
            continue;
        }
        let rel = format!(
            "crates/simnet/src/{}",
            path.file_name().expect("file name").to_string_lossy()
        );
        if ldft_lint::analysis::is_test_path(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read simnet source");
        let analysis = ldft_lint::analysis::FileAnalysis::new(&rel, Some("simnet"), &src);
        for (i, line) in src.lines().enumerate() {
            let n = i + 1;
            if analysis.is_test_line(n) {
                continue;
            }
            let code = line.split("//").next().unwrap_or(line);
            let enclosing = || {
                analysis
                    .enclosing_fn(n)
                    .map(|f| f.name.clone())
                    .unwrap_or_default()
            };
            if code.contains(".events.pop(") {
                assert_eq!(
                    enclosing(),
                    "next_event",
                    "{rel}:{n}: event-queue pop outside Kernel::next_event bypasses SchedulePolicy"
                );
                saw_next_event = true;
            }
            if code.contains(".runnable.pop_front(") || code.contains(".runnable.remove(") {
                assert_eq!(
                    enclosing(),
                    "next_runnable",
                    "{rel}:{n}: runnable-queue pop outside Kernel::next_runnable bypasses SchedulePolicy"
                );
                saw_next_runnable = true;
            }
        }
        // Both seams must actually consult the installed policy.
        for seam in ["next_event", "next_runnable"] {
            if let Some(span) = analysis.fn_spans.iter().find(|f| f.name == seam) {
                let body: String = src
                    .lines()
                    .skip(span.start - 1)
                    .take(span.end - span.start + 1)
                    .collect();
                assert!(
                    body.contains(".choose(") && body.contains("policy"),
                    "{rel}: Kernel::{seam} no longer consults the schedule policy"
                );
            }
        }
    }
    assert!(
        saw_next_event && saw_next_runnable,
        "tie-break seams not found — did the kernel's queue fields move?"
    );
}
