//! Self-checks: the workspace read through the library API. This is the
//! acceptance gate in executable form — E1 finds nothing, every IDL
//! operation is declared in one place only and its generated stub is
//! exercised by product code, every contract is generated, every public
//! item has a product caller (a test is not one), every `pub` field is
//! read, every binary target is run by CI or a test, and the determinism, panic and discard rules that
//! are clippy lints still bind exactly the sim crates.

use idlc::ast::Direction;
use ldft_lint::analysis::FileAnalysis;
use ldft_lint::ast::split_commas;
use ldft_lint::contracts;
use ldft_lint::lexer::{self, seq_at, TokKind};
use ldft_lint::rules::{check_e1, SIM_CRATES};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// Fails listing every `file:line` `check` finds in the workspace.
fn assert_finds_nothing(check: fn(&FileAnalysis) -> Vec<String>) {
    let files = ldft_lint::analyze_workspace(workspace_root()).expect("parse the workspace");
    let findings: Vec<String> = files.iter().flat_map(check).collect();
    assert!(findings.is_empty(), "findings:\n{}", findings.join("\n"));
}

#[test]
fn no_caught_comm_failure_is_dropped() {
    assert_finds_nothing(check_e1);
}

/// The lints each sim crate denies at its root, in this order: D1, D2
/// and D4 (`clippy.toml`'s paths), P1, P2, and waiver hygiene (A1, A2).
const ROOT_DENIES: &str = "disallowed_types disallowed_methods unwrap_used expect_used panic \
    unreachable let_underscore_must_use allow_attributes allow_attributes_without_reason";

/// The `clippy::` lints named inside the parenthesised group that opens
/// at token `open`.
fn clippy_lints(fa: &FileAnalysis, open: usize) -> Vec<&str> {
    let toks = &fa.ast.toks;
    let close = fa.ast.paren_close.get(&open).copied().unwrap_or(open);
    (open..close)
        .filter(|&i| toks[i].is("clippy") && toks[i + 1].is("::"))
        .map(|i| toks[i + 2].text.as_str())
        .collect()
}

#[test]
fn sim_crates_deny_the_clippy_rules_at_their_roots() {
    // D1, D2, D4, P1 and P2 are clippy lints, denied by one
    // `#![cfg_attr(not(test), deny(…))]` per sim-crate root: library code
    // only, as ldft-lint scoped them. A root that drops the line, a host
    // crate that gains it, or a clippy.toml that drops a path would
    // silently move the scope.
    let root = workspace_root();
    let deny = lexer::lex("#![cfg_attr(not(test), deny(");
    let (outer, inner) = (lexer::lex("#[expect("), lexer::lex("#![expect("));
    let mut roots = 0;
    let mut waivers = Vec::new();
    for fa in ldft_lint::analyze_workspace(root).expect("parse the workspace") {
        let dir = fa.crate_dir.as_deref();
        let sim = dir.is_some_and(|d| SIM_CRATES.contains(&d));
        let crate_root = fa.path.ends_with("src/lib.rs")
            || fa.path.ends_with("src/main.rs")
            || fa.path.contains("/src/bin/");
        let toks = &fa.ast.toks;
        if crate_root {
            let at = (0..toks.len()).find(|&i| seq_at(toks, i, &deny));
            let lints = at.map(|i| clippy_lints(&fa, i + deny.len() - 1));
            if sim {
                roots += 1;
                let want: Vec<&str> = ROOT_DENIES.split_whitespace().collect();
                assert_eq!(lints, Some(want), "{}", fa.path);
            } else {
                assert_eq!(
                    lints, None,
                    "{}: a host crate denies the sim rules",
                    fa.path
                );
            }
        }
        // Every waiver in sim library code is an `#[expect]` whose reason
        // carries an expiry (CI fails the run once it passes).
        if !sim {
            continue;
        }
        for i in 0..toks.len() {
            let at = [&outer, &inner].into_iter().find(|p| seq_at(toks, i, p));
            let Some(pat) = at.filter(|_| !fa.is_test_line(toks[i].line)) else {
                continue;
            };
            let open = i + pat.len() - 1;
            let close = fa.ast.paren_close[&open];
            let reason = (open..close)
                .find(|&k| toks[k].is("reason"))
                .map_or("", |k| toks[k + 2].text.as_str());
            let expiry = reason.split("expiry ").nth(1).unwrap_or("");
            let dated = expiry.len() >= 7
                && expiry.as_bytes()[4] == b'-'
                && expiry[..7].chars().filter(char::is_ascii_digit).count() == 6;
            assert!(
                dated,
                "{}:{}: waiver without `expiry YYYY-MM`",
                fa.path, toks[i].line
            );
            waivers.push(format!("{}: {:?}", fa.path, clippy_lints(&fa, open)));
        }
    }
    assert_eq!(roots, SIM_CRATES.len(), "one lib.rs per sim crate");
    // Pinned so a new waiver is a conscious diff: Kernel::reraise and
    // Shared's lock-discipline check (P1), the thread pool and
    // Shared (D4), Orb::ior (P1), and one type_complexity in the FT proxy.
    assert_eq!(
        waivers.len(),
        6,
        "waiver inventory changed:\n{}",
        waivers.join("\n")
    );
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    let paths: BTreeSet<&str> = config
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    // D1, D2, then D4.
    for path in "std::time::Instant std::time::SystemTime std::time::Instant::now \
        std::time::SystemTime::now std::time::SystemTime::elapsed std::thread::sleep \
        std::collections::HashMap std::collections::HashSet std::sync::Mutex std::sync::RwLock \
        std::sync::Condvar std::sync::Barrier std::sync::mpsc::Sender std::sync::mpsc::SyncSender \
        std::sync::mpsc::Receiver std::sync::mpsc::channel std::sync::mpsc::sync_channel \
        std::thread::Builder std::thread::spawn"
        .split_whitespace()
    {
        assert!(
            paths.contains(path),
            "clippy.toml no longer disallows {path}"
        );
    }
}

#[test]
fn the_rand_shim_has_no_unseeded_source() {
    // D3 (all randomness flows from the run seed) is the shim's job: the
    // only `rand` the workspace builds is `crates/shims/rand`, and a call
    // to an ambient source cannot compile while it defines none.
    // `Rng::random` samples a seeded generator; only a free `random()`
    // (the real crate's `rand::random`) is ambient.
    const AMBIENT: &str = "thread_rng rng random from_entropy from_os_rng OsRng ThreadRng";
    const ITEMS: &[&str] = &["fn", "struct", "enum", "type", "trait", "static", "const"];
    let shim = workspace_root().join("crates/shims/rand/src");
    let mut defined = Vec::new();
    for entry in std::fs::read_dir(&shim).expect("list the rand shim") {
        let path = entry.expect("dir entry").path();
        let src = std::fs::read_to_string(&path).expect("read the rand shim");
        let fa = FileAnalysis::new(&path.to_string_lossy(), None, &src);
        let ast = &fa.ast;
        let in_mod_only = |i: usize| {
            ast.scopes
                .iter()
                .filter(|s| s.open < i && i < s.close)
                .all(|s| s.open >= 2 && ast.toks[s.open - 2].is("mod"))
        };
        for (i, t) in ast.toks.iter().enumerate().skip(1) {
            let item = ITEMS.iter().any(|k| ast.toks[i - 1].is(k));
            let method = !in_mod_only(i) && t.text == "random";
            if item
                && !method
                && AMBIENT.split(' ').any(|a| a == t.text)
                && !fa.is_test_line(t.line)
            {
                defined.push(format!("{}:{}: {}", path.display(), t.line, t.text));
            }
        }
    }
    assert!(defined.is_empty(), "unseeded sources: {defined:?}");
    // No real `rand` (or the OS entropy crate under it) in the build.
    let lock =
        std::fs::read_to_string(workspace_root().join("Cargo.lock")).expect("read Cargo.lock");
    let packages: Vec<&str> = lock.split("[[package]]").skip(1).collect();
    let named = |name: &str| {
        let line = format!("name = \"{name}\"\n");
        packages
            .iter()
            .filter(move |p| p.trim_start().starts_with(&line))
            .collect::<Vec<_>>()
    };
    assert!(named("getrandom").is_empty(), "getrandom is in Cargo.lock");
    let rand = named("rand");
    assert_eq!(rand.len(), 1, "{rand:?}");
    assert!(
        !rand[0].contains("source ="),
        "`rand` is not the path shim: {}",
        rand[0]
    );
}

#[test]
fn the_contracts_compile() {
    // `idl/*.idl` compiles under `idlc` as one unit; `idl_golden.rs` pins
    // what it declares.
    if let Err(e) = contracts(workspace_root()) {
        panic!("{e}");
    }
}

#[test]
fn every_contract_is_generated() {
    // `idl_end_to_end` reads only
    // `idl/generated.txt`, so a contract it does not name is never
    // generated nor compared.
    let root = workspace_root();
    let list = std::fs::read_to_string(root.join("idl/generated.txt")).expect("read the list");
    let named: BTreeSet<&str> = list
        .lines()
        .filter(|l| !l.starts_with('#'))
        .flat_map(str::split_whitespace)
        .collect();
    let idls = contracts(root).expect("read idl/");
    let missing: Vec<&str> = idls
        .sources
        .iter()
        .map(|(path, _)| path.as_str())
        .filter(|path| !named.contains(path))
        .collect();
    assert!(missing.is_empty(), "not in idl/generated.txt: {missing:?}");
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
        "send_deferred", // DiiRequest::send_deferred / FtRequest::send_deferred
    ];
    let mut offences = Vec::new();
    let mut generated = 0;
    for fa in ldft_lint::analyze_workspace(root).expect("parse the workspace") {
        let scoped = fa.path.starts_with("crates/")
            && fa.path.contains("/src/")
            && !matches!(fa.crate_dir.as_deref(), Some("idl" | "lint" | "bench"))
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
    assert_eq!(generated, 5, "one generated file per contract-owning crate");
}

/// What a user runs: every binary target, `examples/` and the
/// `benchmark/` harness.
fn is_product_root(path: &str) -> bool {
    path.starts_with("examples/")
        || path.starts_with("benchmark/src/")
        || path.contains("/src/bin/")
        || path.ends_with("src/main.rs")
}

/// Library code: what `crates/*/src` holds besides binaries and tests.
fn is_library(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !is_product_root(path)
        && !ldft_lint::analysis::is_test_path(path)
}

/// Per file, per token: whether product code reaches it. A test is not a
/// caller. A root's non-test tokens are reached. A library fn's body
/// (generated stubs included) is reached once a reached call names the
/// fn, or a reached `OP_*` constant names the op it serves, closed
/// transitively; a skeleton's dispatch is the ORB serving ops, so it calls
/// nothing. Library tokens outside any fn body (item signatures, struct
/// fields, impl headers, consts) are reached, `use` lines are not.
/// `crates/lint` is a test library and reaches nothing. Names only, no
/// receiver typing: a collision can hide dead code but never flag live
/// code.
fn product_reach(files: &[FileAnalysis]) -> Vec<Vec<bool>> {
    let mut reach: Vec<Vec<bool>> = files
        .iter()
        .map(|fa| vec![false; fa.ast.toks.len()])
        .collect();
    // fn name → the tokens of its bodies, each with whether it is a call.
    let mut owned: BTreeMap<&str, Vec<(usize, usize, bool)>> = BTreeMap::new();
    let mut frontier: Vec<&str> = Vec::new();
    for (fi, fa) in files.iter().enumerate() {
        if fa.crate_dir.as_deref() == Some("lint") {
            continue;
        }
        let root = is_product_root(&fa.path);
        // `examples/` are product code, though the path convention files
        // them with the tests.
        let example = fa.path.starts_with("examples/");
        let calls: BTreeSet<usize> = fa.ast.calls.iter().map(|c| c.name_tok).collect();
        // A skeleton's dispatch calls every servant method: that is the
        // ORB serving an op, not a caller of it.
        let dispatch = |ti: usize| {
            fa.ast.impls.iter().any(|im| {
                im.trait_name.as_deref() == Some("Servant")
                    && im.body.open < ti
                    && ti < im.body.close
            })
        };
        let mut in_use = false;
        for (ti, t) in fa.ast.toks.iter().enumerate() {
            let use_line = in_use || t.is("use");
            in_use = use_line && !t.is(";");
            if fa.is_test_line(t.line) && !example {
                continue;
            }
            match fa.ast.enclosing_fn(ti).filter(|_| !root) {
                Some(_) if dispatch(ti) => {}
                Some(f) => {
                    owned
                        .entry(f.name.as_str())
                        .or_default()
                        .push((fi, ti, calls.contains(&ti)))
                }
                None if !root && use_line => {}
                None => {
                    reach[fi][ti] = true;
                    if calls.contains(&ti) || t.text.starts_with("OP_") {
                        frontier.push(t.text.as_str());
                    }
                }
            }
        }
    }
    let mut seen = BTreeSet::new();
    while let Some(name) = frontier.pop() {
        let op = name.strip_prefix("OP_").map(str::to_lowercase);
        for name in [Some(name.to_string()), op].into_iter().flatten() {
            if !seen.insert(name.clone()) {
                continue;
            }
            for &(fi, ti, call) in owned.get(name.as_str()).into_iter().flatten() {
                reach[fi][ti] = true;
                let t = files[fi].ast.toks[ti].text.as_str();
                if call || t.starts_with("OP_") {
                    frontier.push(t);
                }
            }
        }
    }
    reach
}

/// Fails naming each allow-list entry the check no longer needed.
fn assert_no_stale_allowance<T: std::fmt::Debug>(allowed: &[T], seen: &BTreeSet<usize>) {
    let stale: Vec<&T> = (0..allowed.len())
        .filter(|i| !seen.contains(i))
        .map(|i| &allowed[i])
        .collect();
    assert!(
        stale.is_empty(),
        "allowed entries that need no allowance: {stale:?}"
    );
}

#[test]
fn every_idl_op_has_a_caller() {
    // No operation without a caller, and a test is not one. Each op is
    // named where product code (`product_reach`) exercises it: its
    // generated stub method called with `orb, ctx` — or, through a typed
    // FT proxy, `env` — plus the op's in-params, or its `OP_*` constant
    // handed to a DII request or the FT proxy's config. An entry the
    // check no longer flags fails it.
    const BY_NAME: &str =
        "the ft servant wrapper invokes it by name, locally (CHECKPOINT_OP, RESTORE_OP)";
    const ALLOWED: &[(&str, &str, &str)] = &[
        ("Worker", "get_checkpoint", BY_NAME),
        ("Worker", "restore_checkpoint", BY_NAME),
    ];
    let root = workspace_root();
    let files = ldft_lint::analyze_workspace(root).expect("parse the workspace");
    let reach = product_reach(&files);
    let mut exercised: BTreeSet<(&str, usize)> = BTreeSet::new();
    for (fi, fa) in files.iter().enumerate() {
        if is_generated(&fa.path) {
            continue;
        }
        let ast = &fa.ast;
        let calls = ast.calls.iter().map(|c| (c.name_tok, c.args.len()));
        let op_consts = (0..ast.toks.len()).filter(|&i| ast.toks[i].text.starts_with("OP_"));
        for (tok, arity) in calls.chain(op_consts.map(|i| (i, 0))) {
            if reach[fi][tok] {
                exercised.insert((ast.toks[tok].text.as_str(), arity));
            }
        }
    }
    let idls = contracts(root).expect("read idl/");
    let mut dead = Vec::new();
    let mut allowed_seen = BTreeSet::new();
    for item in &idls.model.items {
        let idlc::Item::Interface { def, .. } = item else {
            continue;
        };
        for op in &def.ops {
            let stub = op.name.as_str();
            let ins = op.params.iter().filter(|p| p.dir == Direction::In);
            let ins = ins.count();
            let op_const = format!("OP_{}", stub.to_uppercase());
            let named = [(stub, ins + 2), (stub, ins + 1), (op_const.as_str(), 0)];
            if named.iter().any(|site| exercised.contains(site)) {
                continue;
            }
            match ALLOWED
                .iter()
                .position(|a| (a.0, a.1) == (def.name.as_str(), stub))
            {
                Some(i) => {
                    allowed_seen.insert(i);
                }
                None => dead.push(format!("{}::{}", def.name, op.name)),
            }
        }
    }
    assert!(dead.is_empty(), "ops no product code exercises: {dead:?}");
    assert_no_stale_allowance(ALLOWED, &allowed_seen);
}

#[test]
fn every_default_field_has_a_second_value() {
    // An option only one value is ever given is a constant. Each field of
    // a `*Config`, `*Costs` or `*Settings` struct a library crate builds
    // — with `impl Default`, or with an inherent `fn new` — must be named
    // outside its definition and that builder by product code anywhere in
    // the workspace (`benchmark/` included): as a bare identifier — a
    // field init, a shorthand init, a local — or as `.field =`. Reading
    // `cfg.field` is not a second value, and a value a test gives is not
    // one either (`examples/` are product code, as in `product_reach`).
    // A field `new` fills from one of its own parameters is valued: every
    // caller passes it. Any token of the same name counts, so a collision
    // can hide a candidate but never flag one.
    // An entry the check no longer flags fails it.
    const ALLOWED: &[(&str, &str, &str)] = &[(
        "KernelConfig",
        "max_events",
        "the runaway guard's bound: safety code no run is meant to reach, \
         which simnet's two should_panic tests trip at 1 and 100 events",
    )];
    let files = ldft_lint::analyze_workspace(workspace_root()).expect("parse the workspace");
    // (file, struct, field, the definition's and the builder's token ranges)
    type Candidate<'a> = (usize, &'a str, &'a str, [(usize, usize); 2]);
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut valued: BTreeSet<usize> = BTreeSet::new();
    for (fi, fa) in files.iter().enumerate() {
        if !is_library(&fa.path) {
            continue;
        }
        let ast = &fa.ast;
        let toks = &ast.toks;
        for im in &ast.impls {
            let ty = im.type_name.as_str();
            let knobs = ["Config", "Costs", "Settings"]
                .iter()
                .any(|s| ty.ends_with(s));
            if !knobs || fa.is_test_line(im.line) {
                continue;
            }
            // The builder: a `Default` impl, or the `new` of an inherent
            // impl with the fields its literal fills from its parameters.
            let (builder, from_param) = match im.trait_name.as_deref() {
                Some("Default") => ((im.body.open, im.body.close), BTreeSet::new()),
                None => {
                    let new = ast
                        .fns
                        .iter()
                        .find(|f| f.name == "new" && im.body.open < f.tok && f.tok < im.body.close);
                    let Some((new, body)) = new.and_then(|f| Some((f, f.body?))) else {
                        continue;
                    };
                    let params: BTreeSet<&str> = (new.tok..body.open)
                        .filter(|&k| toks[k].kind == TokKind::Ident && toks[k + 1].is(":"))
                        .map(|k| toks[k].text.as_str())
                        .collect();
                    let literal = ast.scopes.iter().find(|s| {
                        body.open < s.open
                            && s.close < body.close
                            && (toks[s.open - 1].is("Self") || toks[s.open - 1].text == ty)
                    });
                    let inits = literal.map(|s| split_commas(toks, s.open + 1, s.close));
                    let from_param = inits
                        .into_iter()
                        .flatten()
                        .filter(|&(f, end)| {
                            let init = if toks[f + 1].is(":") { f + 2 } else { f };
                            toks[init..end]
                                .iter()
                                .any(|t| params.contains(t.text.as_str()))
                        })
                        .map(|(f, _)| toks[f].text.as_str())
                        .collect();
                    ((body.open, body.close), from_param)
                }
                Some(_) => continue,
            };
            let def = (0..toks.len().saturating_sub(2))
                .find(|&i| toks[i].is("struct") && toks[i + 1].text == ty && toks[i + 2].is("{"));
            let def = def.and_then(|i| ast.scopes.iter().find(|s| s.open == i + 2));
            let (Some(def), Some(st)) = (def, ast.structs.iter().find(|s| s.name == ty)) else {
                continue;
            };
            for field in &st.fields {
                if from_param.contains(field.as_str()) {
                    valued.insert(candidates.len());
                }
                let spans = [(def.open, def.close), builder];
                candidates.push((fi, ty, field.as_str(), spans));
            }
        }
    }
    assert!(
        candidates.len() > 30,
        "found {} candidates",
        candidates.len()
    );
    for (fi, fa) in files.iter().enumerate() {
        let example = fa.path.starts_with("examples/");
        let toks = &fa.ast.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || (fa.is_test_line(t.line) && !example) {
                continue;
            }
            let (prev, next) = (i.checked_sub(1).map(|p| &toks[p]), toks.get(i + 1));
            let after_dot = prev.is_some_and(|p| p.is("."));
            let bare = !after_dot && !next.is_some_and(|n| n.is("::") || n.is("("));
            let assigned = after_dot
                && next.is_some_and(|n| n.is("="))
                && !toks.get(i + 2).is_some_and(|n| n.is("="));
            if !bare && !assigned {
                continue;
            }
            for (ci, (cf, _, field, spans)) in candidates.iter().enumerate() {
                let own = *cf == fi && spans.iter().any(|&(a, b)| a < i && i < b);
                if t.text == *field && !own {
                    valued.insert(ci);
                }
            }
        }
    }
    let mut offences = Vec::new();
    let mut allowed_seen = BTreeSet::new();
    for (ci, &(fi, ty, field, _)) in candidates.iter().enumerate() {
        if valued.contains(&ci) {
            continue;
        }
        let path = &files[fi].path;
        match ALLOWED.iter().position(|a| (a.0, a.1) == (ty, field)) {
            Some(a) => {
                allowed_seen.insert(a);
            }
            None => offences.push(format!(
                "{path}: `{ty}::{field}` is only ever its default — make it a constant"
            )),
        }
    }
    assert!(offences.is_empty(), "{}", offences.join("\n"));
    assert_no_stale_allowance(ALLOWED, &allowed_seen);
}

/// The package a workspace file belongs to, by directory: `crates/<dir>`,
/// `benchmark`, or `""` for the root package.
fn package_of(path: &str) -> String {
    match path.split('/').collect::<Vec<_>>()[..] {
        ["crates", dir, _, ..] => format!("crates/{dir}"),
        ["benchmark", _, ..] => "benchmark".to_string(),
        _ => String::new(),
    }
}

/// The entries of `package`'s manifest section `[section]`, by name: the
/// workspace-relative directory of a `path` dependency, `None` for one
/// the workspace table declares.
fn manifest_section(package: &str, section: &str) -> BTreeMap<String, Option<String>> {
    let path = workspace_root().join(package).join("Cargo.toml");
    let manifest = std::fs::read_to_string(path).expect("read a manifest");
    let mut entries = BTreeMap::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == format!("[{section}]");
            continue;
        }
        let Some((name, value)) = line.split_once('=').filter(|_| inside) else {
            continue;
        };
        let name = name.trim();
        let dir = value.split_once("path = \"").and_then(|(_, rest)| {
            let mut dir: Vec<&str> = package.split('/').filter(|s| !s.is_empty()).collect();
            for seg in rest.split('"').next()?.split('/') {
                match seg {
                    ".." => drop(dir.pop()),
                    seg => dir.push(seg),
                }
            }
            Some(dir.join("/"))
        });
        entries.insert(name.trim_end_matches(".workspace").to_string(), dir);
    }
    entries
}

/// Package → the packages its `[dependencies]` name, from the manifests.
fn dependencies(files: &[FileAnalysis]) -> BTreeMap<String, BTreeSet<String>> {
    let workspace = manifest_section("", "workspace.dependencies");
    let packages: BTreeSet<String> = files.iter().map(|fa| package_of(&fa.path)).collect();
    let deps = |package: &String| -> BTreeSet<String> {
        let entries = manifest_section(package, "dependencies").into_iter();
        entries
            .filter_map(|(name, dir)| dir.or_else(|| workspace.get(&name).cloned().flatten()))
            .collect()
    };
    packages.iter().map(|p| (p.clone(), deps(p))).collect()
}

/// `file:line: `name` has no caller in product code` for each `pub fn`,
/// `struct`, `enum` and `trait` in library code (`generated.rs` and
/// `crates/lint` exempt) that no token product code reaches
/// (`product_reach`) names from the item's own package or from a package
/// that depends on it. A definition is not a use, neither of its own item
/// nor of another of the same name, and neither is a `mod x;` line or the
/// self type of an `impl … [for] X` header.
fn callerless(
    files: &[FileAnalysis],
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<(String, String)> {
    const ITEMS: [&str; 4] = ["fn", "struct", "enum", "trait"];
    let reach = product_reach(files);
    // name → the packages whose reached code names it.
    let mut named: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (fi, fa) in files.iter().enumerate() {
        let toks = &fa.ast.toks;
        let self_types: BTreeSet<usize> = fa.ast.impls.iter().map(|im| im.type_tok).collect();
        for (ti, t) in toks.iter().enumerate() {
            let defines = ti > 0 && ITEMS.iter().chain(&["mod"]).any(|k| toks[ti - 1].is(k));
            if t.kind == TokKind::Ident && reach[fi][ti] && !defines && !self_types.contains(&ti) {
                named
                    .entry(t.text.as_str())
                    .or_default()
                    .insert(package_of(&fa.path));
            }
        }
    }
    let mut offences = Vec::new();
    for fa in files {
        let lint = fa.crate_dir.as_deref() == Some("lint");
        if !is_library(&fa.path) || is_generated(&fa.path) || lint {
            continue;
        }
        let package = package_of(&fa.path);
        let sees = |user: &String| {
            *user == package || deps.get(user).is_some_and(|d| d.contains(&package))
        };
        let toks = &fa.ast.toks;
        for i in 0..toks.len() {
            if !toks[i].is("pub") || fa.is_test_line(toks[i].line) {
                continue;
            }
            let mut k = i + 1;
            while toks.get(k).is_some_and(|t| t.is("const") || t.is("unsafe")) {
                k += 1;
            }
            if !toks.get(k).is_some_and(|t| ITEMS.iter().any(|w| t.is(w))) {
                continue;
            }
            let def = k + 1;
            if toks.get(def).is_none_or(|t| t.kind != TokKind::Ident) {
                continue;
            }
            let name = toks[def].text.as_str();
            if !named.get(name).is_some_and(|users| users.iter().any(sees)) {
                let at = format!("{}:{}", fa.path, toks[def].line);
                offences.push((at, name.to_string()));
            }
        }
    }
    offences
}

#[test]
fn every_public_item_has_a_caller() {
    // No primitive without a caller, and a test is not one (`callerless`).
    // Names only: a collision within a package or along a dependency can
    // hide a candidate but never flag one. An entry the check no longer
    // flags fails it.
    const ALLOWED: &[(&str, &str, &str)] = &[(
        "crates/simnet/src/kernel.rs",
        "run_until_idle",
        "the kernel's run-to-quiescence stop rule, which simnet's own \
         tests run under",
    )];
    let files = ldft_lint::analyze_workspace(workspace_root()).expect("parse the workspace");
    let mut offences = Vec::new();
    let mut allowed_seen = BTreeSet::new();
    for (at, name) in callerless(&files, &dependencies(&files)) {
        let path = at.split(':').next().unwrap_or_default();
        match ALLOWED
            .iter()
            .position(|a| (a.0, a.1) == (path, name.as_str()))
        {
            Some(a) => {
                allowed_seen.insert(a);
            }
            None => offences.push(format!("{at}: `{name}` has no caller in product code")),
        }
    }
    assert!(offences.is_empty(), "{}", offences.join("\n"));
    assert_no_stale_allowance(ALLOWED, &allowed_seen);
}

#[test]
fn a_name_from_a_package_that_cannot_see_the_item_is_no_caller() {
    // `benchmark/` calls a `pretty` of its own; it does not depend on
    // `idlc`, so that call keeps idlc's `pretty` no more alive than the
    // `mod pretty;` line does.
    let files = [
        FileAnalysis::new(
            "crates/idl/src/lib.rs",
            Some("idl"),
            "mod pretty;\npub use pretty::pretty;\npub fn pretty() {}\n",
        ),
        FileAnalysis::new(
            "benchmark/src/main.rs",
            None,
            "fn main() {\n    pretty();\n}\nfn pretty() {}\n",
        ),
    ];
    let mut deps = BTreeMap::from([
        ("crates/idl".to_string(), BTreeSet::new()),
        ("benchmark".to_string(), BTreeSet::new()),
    ]);
    let flagged = callerless(&files, &deps);
    assert_eq!(
        flagged,
        [("crates/idl/src/lib.rs:3".to_string(), "pretty".to_string())]
    );
    // Once the benchmark depends on idlc, its call may be idlc's.
    deps.insert(
        "benchmark".to_string(),
        BTreeSet::from(["crates/idl".to_string()]),
    );
    assert!(callerless(&files, &deps).is_empty());
}

/// Token ranges that hold patterns: match arms, `let` up to its `=`, and
/// the pattern of `matches!`.
fn pattern_ranges(fa: &FileAnalysis) -> Vec<(usize, usize)> {
    let toks = &fa.ast.toks;
    let mut ranges: Vec<(usize, usize)> = fa
        .ast
        .matches
        .iter()
        .flat_map(|m| m.arms.iter().map(|a| a.pat))
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.is("let") {
            let end = (i..toks.len()).find(|&k| toks[k].is("=") || toks[k].is(";"));
            ranges.push((i, end.unwrap_or(toks.len())));
        } else if t.is("matches") && toks.get(i + 1).is_some_and(|n| n.is("!")) {
            let close = fa.ast.paren_close.get(&(i + 2)).copied();
            let args = close.map(|c| split_commas(toks, i + 3, c));
            if let Some(&[_, (start, _), ..]) = args.as_deref() {
                ranges.push((start, close.unwrap_or(start)));
            }
        }
    }
    ranges
}

#[test]
fn every_pub_field_is_read() {
    // No write-only state. Each `pub` field of a struct in library code
    // (`generated.rs` and the `crates/lint` test library exempt) must be
    // read somewhere in the workspace — tests, examples and `benchmark/`
    // included: a counter a test asserts is that test's witness. A read
    // is `.field` that is not the target of `=` or a compound assignment,
    // nor a method call, or the field named in a struct pattern. A
    // struct-literal initialiser is not a read. Names only: a collision
    // can hide a candidate but never flag one. An entry the check no
    // longer flags fails it.
    const ALLOWED: &[(&str, &str, &str)] = &[];
    const COMPOUND: [&str; 8] = ["+", "-", "*", "/", "%", "|", "&", "^"];
    let files = ldft_lint::analyze_workspace(workspace_root()).expect("parse the workspace");
    // (file, line, struct, field)
    let mut candidates: Vec<(&str, usize, &str, &str)> = Vec::new();
    for fa in &files {
        let lint = fa.crate_dir.as_deref() == Some("lint");
        if !is_library(&fa.path) || is_generated(&fa.path) || lint {
            continue;
        }
        let toks = &fa.ast.toks;
        for i in 1..toks.len() {
            let ty = &toks[i];
            if !toks[i - 1].is("struct") || fa.is_test_line(ty.line) {
                continue;
            }
            // Past any generics: a braced body, not a tuple or unit struct.
            let open = (i..toks.len()).find(|&k| ["{", "(", ";"].iter().any(|p| toks[k].is(p)));
            let Some(scope) = fa.ast.scopes.iter().find(|s| Some(s.open) == open) else {
                continue;
            };
            for (start, end) in split_commas(toks, scope.open + 1, scope.close) {
                // Past any `#[..]` attributes: `pub`, not `pub(crate)`.
                let mut k = start;
                while k < end && toks[k].is("#") {
                    k = (k..end).find(|&q| toks[q].is("]")).map_or(end, |q| q + 1);
                }
                let public = k + 2 < end && toks[k].is("pub") && !toks[k + 1].is("(");
                if public && toks[k + 2].is(":") {
                    let field = toks[k + 1].text.as_str();
                    candidates.push((fa.path.as_str(), toks[k + 1].line, &ty.text, field));
                }
            }
        }
    }
    assert!(candidates.len() > 100, "found {}", candidates.len());
    let mut read: BTreeSet<&str> = BTreeSet::new();
    let readers = files
        .iter()
        .filter(|fa| fa.crate_dir.as_deref() != Some("lint"));
    for fa in readers {
        let toks = &fa.ast.toks;
        for i in 1..toks.len().saturating_sub(1) {
            let (next, after) = (&toks[i + 1], toks.get(i + 2));
            let assigned = next.is("=") && !after.is_some_and(|a| a.is("="));
            let compound =
                COMPOUND.iter().any(|op| next.is(op)) && after.is_some_and(|a| a.is("="));
            let call = next.is("(") || next.is("::");
            if toks[i - 1].is(".") && !(assigned || compound || call) {
                read.insert(toks[i].text.as_str());
            }
        }
        let scopes = &fa.ast.scopes;
        for (start, end) in pattern_ranges(fa) {
            for scope in scopes.iter().filter(|s| start <= s.open && s.open < end) {
                for (f, e) in split_commas(toks, scope.open + 1, scope.close) {
                    let f = (f..e)
                        .find(|&k| !toks[k].is("ref") && !toks[k].is("mut"))
                        .unwrap_or(e);
                    if f < e && toks[f].kind == TokKind::Ident {
                        read.insert(toks[f].text.as_str());
                    }
                }
            }
        }
    }
    let mut offences = Vec::new();
    let mut allowed_seen = BTreeSet::new();
    for &(path, line, ty, field) in &candidates {
        if read.contains(field) {
            continue;
        }
        match ALLOWED.iter().position(|a| (a.0, a.1) == (ty, field)) {
            Some(a) => {
                allowed_seen.insert(a);
            }
            None => offences.push(format!("{path}:{line}: `{ty}::{field}` is never read")),
        }
    }
    assert!(offences.is_empty(), "{}", offences.join("\n"));
    assert_no_stale_allowance(ALLOWED, &allowed_seen);
}

#[test]
fn every_binary_target_is_run() {
    // No bin that nothing runs. Each workspace binary target — a
    // `src/bin/*.rs`, a `[[bin]]` of a crate's Cargo.toml, or a bare
    // `src/main.rs` — must be run by a step of `.github/workflows/ci.yml`
    // (`--bin NAME`, or `-p PACKAGE` when it is the package's only
    // binary) or by a test (`env!("CARGO_BIN_EXE_NAME")`). A bin that only
    // a person runs drifts from the code it reports on without failing.
    let root = workspace_root();
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.push(root.to_path_buf());
    crates.sort();
    let quoted = |line: &str| line.split('"').nth(1).map(str::to_string);
    // package name → its binary targets.
    let mut bins: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for dir in &crates {
        let toml = std::fs::read_to_string(dir.join("Cargo.toml")).expect("read Cargo.toml");
        let (mut package, mut declared, mut section) = (None, BTreeSet::new(), "");
        for line in toml.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if line.starts_with("name") {
                match section {
                    "[package]" => package = quoted(line),
                    "[[bin]]" => declared.extend(quoted(line)),
                    _ => {}
                }
            }
        }
        let package = package.expect("a [package] name");
        let mut found = declared;
        if let Ok(entries) = std::fs::read_dir(dir.join("src/bin")) {
            for e in entries {
                let path = e.expect("dir entry").path();
                if path.extension().is_some_and(|x| x == "rs") {
                    let stem = path.file_stem().expect("file stem");
                    found.insert(stem.to_string_lossy().into_owned());
                }
            }
        }
        if found.is_empty() && dir.join("src/main.rs").is_file() {
            found.insert(package.clone());
        }
        bins.insert(package, found);
    }

    assert!(
        bins.values().any(|b| b.contains("summary")),
        "no binary targets found: {bins:?}"
    );

    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let mut run = BTreeSet::new();
    for line in ci.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let names_bin = words.contains(&"--bin");
        for w in words.windows(2) {
            match (w[0], bins.get(w[1])) {
                ("--bin", _) => {
                    run.insert(w[1].to_string());
                }
                ("-p", Some(only)) if !names_bin && only.len() == 1 => run.extend(only.clone()),
                _ => {}
            }
        }
    }
    for path in ldft_lint::workspace_files(root).expect("list the workspace") {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        if ldft_lint::analysis::is_test_path(&rel) {
            let source = std::fs::read_to_string(&path).expect("read a test");
            for name in bins.values().flatten() {
                if source.contains(&format!("\"CARGO_BIN_EXE_{name}\"")) {
                    run.insert(name.clone());
                }
            }
        }
    }
    let unrun: Vec<String> = bins
        .iter()
        .flat_map(|(package, names)| names.iter().map(move |n| (package, n)))
        .filter(|(_, name)| !run.contains(*name))
        .map(|(package, name)| format!("{package}: bin `{name}` is run by no CI step or test"))
        .collect();
    assert!(unrun.is_empty(), "{}", unrun.join("\n"));
}
