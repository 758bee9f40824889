//! W1–W4 wire-conformance rules: `idl/*.idl` ↔ stubs ↔ skeleton dispatch
//! ↔ CDR marshalling must agree.
//!
//! The FT mechanism of the paper lives in proxies "derived from the IDL
//! stub", so drift between the IDL contract and the hand-written Rust is a
//! protocol break that no test catches until a wire mismatch corrupts a
//! run. These rules check the triple statically:
//!
//! | ID | invariant |
//! |----|-----------|
//! | W0 | the `idl/*.idl` unit parses and checks under `idlc` (reported by [`crate::contracts`]) |
//! | W1 | every IDL operation has a client-side call site (stub evidence: the wire name as a string literal or an op-const reference outside dispatch patterns) |
//! | W2 | every IDL operation has a skeleton dispatch arm; no dispatch arm handles an op absent from the IDL |
//! | W3 | the CDR unmarshal tuple in the dispatch arm and the client-side `&(...)` request tuple match the IDL `in`-parameter list (types server-side, arity client-side) |
//! | W4 | hand-written `CdrWrite`/`CdrRead` impl pairs round-trip symmetrically: tag bijection and per-variant/struct field order equal on both sides |
//!
//! Matching is evidence-based and conservative: a check that cannot find
//! its counterpart construct (e.g. a dispatch arm that decodes through a
//! helper) is skipped, never guessed.

use crate::analysis::FileAnalysis;
use crate::ast::{split_commas, FileAst, TokKind};
use crate::contracts::Contracts;
use crate::rules::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Result of the wire pass.
#[derive(Debug, Default)]
pub struct WireReport {
    pub findings: Vec<Finding>,
    /// Number of IDL operations cross-checked against the Rust side.
    pub ops_checked: usize,
}

/// Stub methods whose argument list carries an op name + request tuple.
const CLIENT_CALL_METHODS: &[&str] = &[
    "call",
    "call_with_timeout",
    "oneway",
    "invoke",
    "invoke_with_timeout",
    "invoke_oneway",
];

fn is_all_caps(s: &str) -> bool {
    s.len() > 1
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && s.chars().any(|c| c.is_ascii_uppercase())
}

pub(crate) fn err(rule: &'static str, file: &str, line: usize, message: String) -> Finding {
    Finding {
        rule,
        severity: Severity::Error,
        file: file.to_string(),
        line,
        message,
        allowed: false,
        allow_reason: None,
    }
}

/// Canonicalize a Rust type string for comparison with the IDL-derived
/// spelling: drop whitespace, references, path prefixes, and resolve
/// single-field tuple-struct newtypes (`Epoch` → `u64`).
fn canon_type(raw: &str, newtypes: &BTreeMap<String, String>) -> String {
    // Tokenize into idents and punct, dropping `&`, `mut`, `ident::` and a
    // leading `::`.
    let mut out = String::new();
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0usize;
    let mut words: Vec<String> = Vec::new();
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphanumeric() || c == '_' {
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let word: String = chars[i..j].iter().collect();
            i = j;
            // Path prefix: `ident::` — drop the prefix entirely.
            if chars.get(i) == Some(&':') && chars.get(i + 1) == Some(&':') {
                i += 2;
                continue;
            }
            if word == "mut" || word == "dyn" {
                continue;
            }
            words.push(word);
            out.push('\u{1}'); // placeholder marking a word slot
        } else {
            if !c.is_whitespace() && !matches!(c, '&' | '\'' | ':') {
                out.push(c);
            }
            i += 1;
        }
    }
    // Resolve newtypes (fixpoint, small depth).
    for _ in 0..3 {
        let mut changed = false;
        for w in words.iter_mut() {
            if let Some(inner) = newtypes.get(w.as_str()) {
                // Only substitute when the replacement is itself a single
                // word (otherwise splice the text in directly).
                *w = inner.clone();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Re-assemble.
    let mut res = String::new();
    let mut wi = 0usize;
    for c in out.chars() {
        if c == '\u{1}' {
            res.push_str(&words[wi]);
            wi += 1;
        } else {
            res.push(c);
        }
    }
    // A lifetime marker or leading tuple of one element `(T)` is just T.
    res
}

/// One skeleton dispatch surface: a `match op { ... }` inside
/// `impl Servant for T { fn dispatch(...) }`.
struct Surface {
    file: String,
    type_name: String,
    /// op wire name → (arm line, arm body token range).
    ops: BTreeMap<String, (usize, (usize, usize))>,
}

/// Resolve the op names an arm pattern matches: string literals plus
/// ALL-CAPS const references looked up in the workspace const table.
fn arm_ops(
    ast: &FileAst,
    pat: (usize, usize),
    consts: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<String> {
    let mut out = Vec::new();
    for t in &ast.toks[pat.0..pat.1] {
        match t.kind {
            TokKind::Lit => out.push(t.text.clone()),
            TokKind::Ident if is_all_caps(&t.text) => {
                if let Some(vals) = consts.get(&t.text) {
                    out.extend(vals.iter().cloned());
                }
            }
            _ => {}
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Collect every dispatch surface in a file.
fn surfaces_of(fa: &FileAnalysis, consts: &BTreeMap<String, BTreeSet<String>>) -> Vec<Surface> {
    let ast = &fa.ast;
    let mut out = Vec::new();
    for imp in &ast.impls {
        if imp.trait_name.as_deref() != Some("Servant") {
            continue;
        }
        for f in &ast.fns {
            if f.name != "dispatch" {
                continue;
            }
            let Some(body) = f.body else { continue };
            if !(imp.body.open < body.open && body.close < imp.body.close) {
                continue;
            }
            let mut ops: BTreeMap<String, (usize, (usize, usize))> = BTreeMap::new();
            for m in &ast.matches {
                if !(body.open < m.body.open && m.body.close < body.close) {
                    continue;
                }
                for arm in &m.arms {
                    for op in arm_ops(ast, arm.pat, consts) {
                        ops.entry(op).or_insert((arm.line, arm.body));
                    }
                }
            }
            if !ops.is_empty() {
                out.push(Surface {
                    file: fa.path.clone(),
                    type_name: imp.type_name.clone(),
                    ops,
                });
            }
        }
    }
    out
}

/// Decode-tuple types used in an arm body: turbofish on `from_bytes`, or
/// the `let (..): (T, ..) =` ascription feeding it. `None` when the arm
/// decodes through a helper we cannot see into.
fn decode_types(ast: &FileAst, body: (usize, usize)) -> Option<(Vec<String>, usize)> {
    let toks = &ast.toks;
    for c in &ast.calls {
        if c.method != "from_bytes" || c.name_tok < body.0 || c.name_tok >= body.1 {
            continue;
        }
        // Turbofish: from_bytes::<(T, U)>(...) or from_bytes::<T>(...).
        if toks
            .get(c.name_tok + 1)
            .map(|t| t.is("::"))
            .unwrap_or(false)
            && toks.get(c.name_tok + 2).map(|t| t.is("<")).unwrap_or(false)
        {
            let mut depth = 0i32;
            let mut j = c.name_tok + 2;
            while j < toks.len() {
                if toks[j].is("<") {
                    depth += 1;
                } else if toks[j].is(">") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let inner = (c.name_tok + 3, j);
            return Some((tuple_types(ast, inner), c.line));
        }
        // Ascription: walk back to the governing `let` and read `: (types) =`.
        let mut p = c.name_tok;
        let mut let_at = None;
        let mut steps = 0;
        while p > 0 && steps < 60 {
            p -= 1;
            steps += 1;
            let t = &toks[p];
            if t.is(";") || t.is("{") || t.is("}") {
                break;
            }
            if t.is("let") {
                let_at = Some(p);
                break;
            }
        }
        let let_at = let_at?;
        // Find the `=` ending the binding pattern, then the `:` before it.
        let mut eq = None;
        let mut depth = 0i32;
        for (k, t) in toks.iter().enumerate().take(c.name_tok).skip(let_at + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "=" if depth == 0 => {
                        eq = Some(k);
                    }
                    _ => {}
                }
            }
            if eq.is_some() {
                break;
            }
        }
        let eq = eq?;
        let mut colon = None;
        let mut depth = 0i32;
        for (k, t) in toks.iter().enumerate().take(eq).skip(let_at + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ":" if depth == 0 && !t.is("::") => colon = Some(k),
                    _ => {}
                }
            }
        }
        let colon = colon?;
        let ty = (colon + 1, eq);
        // Tuple ascription `(T, U,)` vs a single type.
        if toks.get(ty.0).map(|t| t.is("(")).unwrap_or(false) {
            let close = ast.paren_close.get(&ty.0).copied().unwrap_or(ty.1);
            return Some((tuple_types(ast, (ty.0 + 1, close)), c.line));
        }
        return Some((vec![ast.text(ty)], c.line));
    }
    None
}

/// Split a token range on top-level commas into type strings.
fn tuple_types(ast: &FileAst, range: (usize, usize)) -> Vec<String> {
    split_commas(&ast.toks, range.0, range.1)
        .into_iter()
        .map(|(s, e)| ast.text((s, e)))
        .collect()
}

/// Client-side request-tuple arity: the first `&( ... )` in the call args.
fn client_tuple_arity(ast: &FileAst, call: &crate::ast::Call) -> Option<usize> {
    for arg in &call.args {
        for i in arg.toks.0..arg.toks.1 {
            if ast.toks[i].is("&") && ast.toks.get(i + 1).map(|t| t.is("(")).unwrap_or(false) {
                let close = *ast.paren_close.get(&(i + 1))?;
                return Some(split_commas(&ast.toks, i + 2, close).len());
            }
        }
    }
    None
}

/// Workspace-wide W1–W3 plus per-file W4.
pub fn check(files: &[FileAnalysis], idls: &Contracts) -> WireReport {
    let mut report = WireReport::default();

    // --- Workspace tables -------------------------------------------------
    // Const table: NAME → possible string values.
    let mut consts: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // Newtype table: Name → inner type.
    let mut newtypes: BTreeMap<String, String> = BTreeMap::new();
    for fa in files {
        for (name, value, _) in &fa.ast.str_consts {
            consts
                .entry(name.clone())
                .or_default()
                .insert(value.clone());
        }
        for (name, inner) in &fa.ast.newtypes {
            newtypes
                .entry(name.clone())
                .or_insert_with(|| canon_type(inner, &BTreeMap::new()));
        }
    }
    // IDL typedefs that name Rust-side types also act as aliases.
    for (alias, target) in &idls.typedefs {
        newtypes
            .entry(alias.clone())
            .or_insert_with(|| canon_type(target, &BTreeMap::new()));
    }

    // --- W1 evidence: op wire names referenced outside dispatch patterns --
    let mut evidenced: BTreeSet<String> = BTreeSet::new();
    for fa in files {
        let ast = &fa.ast;
        // Lines that *declare* a string const don't count as call evidence.
        let const_decl_lines: BTreeSet<(usize, &str)> = ast
            .str_consts
            .iter()
            .map(|(_, v, l)| (*l, v.as_str()))
            .collect();
        for (i, t) in ast.toks.iter().enumerate() {
            match t.kind {
                TokKind::Lit
                    if !ast.in_match_pattern(i)
                        && !const_decl_lines.contains(&(t.line, t.text.as_str())) =>
                {
                    evidenced.insert(t.text.clone());
                }
                TokKind::Ident if is_all_caps(&t.text) => {
                    if ast.in_match_pattern(i) {
                        continue;
                    }
                    if let Some(vals) = consts.get(&t.text) {
                        // Skip the const's own declaration.
                        let own_decl = ast
                            .str_consts
                            .iter()
                            .any(|(n, _, l)| n == &t.text && *l == t.line);
                        if !own_decl {
                            evidenced.extend(vals.iter().cloned());
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // --- Dispatch surfaces ------------------------------------------------
    let mut surfaces: Vec<Surface> = Vec::new();
    let mut surface_ast: Vec<&FileAst> = Vec::new();
    for fa in files {
        for s in surfaces_of(fa, &consts) {
            surfaces.push(s);
            surface_ast.push(&fa.ast);
        }
    }
    let all_idl_ops: BTreeSet<&str> = idls.ops().map(|o| o.name.as_str()).collect();

    // --- Per-interface W1/W2/W3 -------------------------------------------
    let mut best_surfaces: BTreeSet<usize> = BTreeSet::new();
    for iface in &idls.interfaces {
        let op_names: BTreeSet<&str> = iface.ops.iter().map(|o| o.name.as_str()).collect();
        // Best dispatch surface: maximum op overlap.
        let best = surfaces
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let overlap = s
                    .ops
                    .keys()
                    .filter(|k| op_names.contains(k.as_str()))
                    .count();
                (overlap, i)
            })
            .filter(|(overlap, _)| *overlap > 0)
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let Some((_, si)) = best else {
            report.findings.push(err(
                "W2",
                &iface.file,
                iface.line,
                format!(
                    "interface `{}` has no skeleton: no `impl Servant` dispatch arm handles any of its {} operation(s)",
                    iface.name,
                    iface.ops.len()
                ),
            ));
            report.ops_checked += iface.ops.len();
            continue;
        };
        best_surfaces.insert(si);
        let surface = &surfaces[si];
        let ast = surface_ast[si];
        for op in &iface.ops {
            report.ops_checked += 1;
            // W1: client stub evidence.
            if !evidenced.contains(&op.name) {
                report.findings.push(err(
                    "W1",
                    &iface.file,
                    op.line,
                    format!(
                        "operation `{}::{}` ({}) has no client-side call site: the wire name never appears outside dispatch patterns",
                        iface.name, op.name, iface.file
                    ),
                ));
            }
            // W2: dispatch arm present.
            let Some(&(_, arm_body)) = surface.ops.get(&op.name) else {
                report.findings.push(err(
                    "W2",
                    &iface.file,
                    op.line,
                    format!(
                        "operation `{}::{}` has no dispatch arm in skeleton `{}` ({})",
                        iface.name, op.name, surface.type_name, surface.file
                    ),
                ));
                continue;
            };
            // W3 (server): decode tuple must match the IDL in-params.
            if !op.ins.is_empty() {
                if let Some((types, line)) = decode_types(ast, arm_body) {
                    let got: Vec<String> = types.iter().map(|t| canon_type(t, &newtypes)).collect();
                    let want: Vec<String> =
                        op.ins.iter().map(|t| canon_type(t, &newtypes)).collect();
                    if got != want {
                        report.findings.push(err(
                            "W3",
                            &surface.file,
                            line,
                            format!(
                                "dispatch arm for `{}::{}` unmarshals ({}) but the IDL in-params are ({})",
                                iface.name,
                                op.name,
                                got.join(", "),
                                want.join(", ")
                            ),
                        ));
                    }
                }
            }
        }
    }

    // W2: dispatch arms handling ops absent from every IDL interface
    // (checked only on surfaces that matched an interface — test doubles
    // and partial demo servants are not contract-bearing).
    for &si in &best_surfaces {
        let surface = &surfaces[si];
        for (op, (line, _)) in &surface.ops {
            if !all_idl_ops.contains(op.as_str()) {
                report.findings.push(err(
                    "W2",
                    &surface.file,
                    *line,
                    format!(
                        "skeleton `{}` dispatches op `{}` which no idl/*.idl operation declares",
                        surface.type_name, op
                    ),
                ));
            }
        }
    }

    // --- W3 (client): request-tuple arity at call sites --------------------
    // IDL op name → in-param count (only unambiguous names).
    let mut in_counts: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for op in idls.ops() {
        in_counts.entry(&op.name).or_default().insert(op.ins.len());
    }
    for fa in files {
        let ast = &fa.ast;
        for call in &ast.calls {
            if !CLIENT_CALL_METHODS.contains(&call.method.as_str()) {
                continue;
            }
            // Which op does this call name?
            let mut named: Option<&str> = None;
            for arg in &call.args {
                // An op-name arg is short: a literal or a const path.
                if arg.toks.1 - arg.toks.0 > 3 {
                    continue;
                }
                for t in &ast.toks[arg.toks.0..arg.toks.1] {
                    let vals: Vec<&str> = match t.kind {
                        TokKind::Lit => vec![t.text.as_str()],
                        TokKind::Ident if is_all_caps(&t.text) => consts
                            .get(&t.text)
                            .map(|v| v.iter().map(|s| s.as_str()).collect())
                            .unwrap_or_default(),
                        _ => Vec::new(),
                    };
                    for v in vals {
                        if in_counts.contains_key(v) {
                            named = Some(in_counts.keys().find(|k| **k == v).copied().unwrap_or(v));
                        }
                    }
                }
                if named.is_some() {
                    break;
                }
            }
            let Some(op_name) = named else { continue };
            let counts = &in_counts[op_name];
            if counts.len() != 1 {
                continue; // ambiguous op name across interfaces
            }
            let want = *counts.iter().next().expect("nonempty");
            if let Some(got) = client_tuple_arity(ast, call) {
                if got != want {
                    report.findings.push(err(
                        "W3",
                        &fa.path,
                        call.line,
                        format!(
                            "request tuple for op `{op_name}` has {got} element(s) but the IDL declares {want} in-param(s)"
                        ),
                    ));
                }
            }
        }
    }

    // --- W4: CdrWrite/CdrRead symmetry -------------------------------------
    for fa in files {
        check_w4(fa, &mut report.findings);
    }

    report
}

/// Per-variant marshalling shape extracted from one side of a CDR impl.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct VariantShape {
    tag: String,
    fields: Vec<String>,
}

/// First-occurrence order of `names` among the Ident tokens of `range`.
fn field_order(ast: &FileAst, range: (usize, usize), names: &BTreeSet<&str>) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for t in &ast.toks[range.0..range.1] {
        if t.kind == TokKind::Ident
            && names.contains(t.text.as_str())
            && seen.insert(t.text.clone())
        {
            out.push(t.text.clone());
        }
    }
    out
}

/// The innermost `fn` body inside an impl block, by name preference.
fn impl_fn_body(ast: &FileAst, imp: &crate::ast::ImplBlock) -> Option<(usize, usize)> {
    ast.fns
        .iter()
        .filter(|f| {
            f.body
                .map(|b| imp.body.open < b.open && b.close < imp.body.close)
                .unwrap_or(false)
        })
        .map(|f| {
            let b = f.body.expect("filtered");
            (b.open, b.close)
        })
        .next()
}

/// W4 for one file: every local enum/struct with hand-written `CdrWrite`
/// *and* `CdrRead` impls in this file must marshal symmetrically.
fn check_w4(fa: &FileAnalysis, findings: &mut Vec<Finding>) {
    let ast = &fa.ast;
    let write_impls: Vec<&crate::ast::ImplBlock> = ast
        .impls
        .iter()
        .filter(|i| i.trait_name.as_deref() == Some("CdrWrite"))
        .collect();
    let read_impls: Vec<&crate::ast::ImplBlock> = ast
        .impls
        .iter()
        .filter(|i| i.trait_name.as_deref() == Some("CdrRead"))
        .collect();

    // Enums --------------------------------------------------------------
    for en in &ast.enums {
        let Some(w) = write_impls.iter().find(|i| i.type_name == en.name) else {
            continue;
        };
        let Some(r) = read_impls.iter().find(|i| i.type_name == en.name) else {
            continue;
        };
        let variant_names: BTreeSet<&str> = en.variants.iter().map(|v| v.name.as_str()).collect();

        // Write side: match over self → variant arms; tag = first TAG_*
        // ident in the body; field order = first occurrence of the
        // variant's field names.
        let mut write_shape: BTreeMap<String, (VariantShape, usize)> = BTreeMap::new();
        for m in &ast.matches {
            if !(w.body.open < m.body.open && m.body.close < w.body.close) {
                continue;
            }
            for arm in &m.arms {
                let vname = ast.toks[arm.pat.0..arm.pat.1]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && variant_names.contains(t.text.as_str()));
                let Some(vname) = vname else { continue };
                let variant = en
                    .variants
                    .iter()
                    .find(|v| v.name == vname.text)
                    .expect("variant name matched");
                let fnames: BTreeSet<&str> =
                    variant.fields.iter().map(|f| f.name.as_str()).collect();
                let tag = ast.toks[arm.body.0..arm.body.1]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && t.text.starts_with("TAG_"))
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                write_shape.insert(
                    vname.text.clone(),
                    (
                        VariantShape {
                            tag,
                            fields: field_order(ast, arm.body, &fnames),
                        },
                        arm.line,
                    ),
                );
            }
        }

        // Read side: match over the decoded tag → arms keyed by TAG_*
        // pattern, constructing a variant.
        let mut read_shape: BTreeMap<String, (VariantShape, usize)> = BTreeMap::new();
        for m in &ast.matches {
            if !(r.body.open < m.body.open && m.body.close < r.body.close) {
                continue;
            }
            for arm in &m.arms {
                let tag = ast.toks[arm.pat.0..arm.pat.1]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && t.text.starts_with("TAG_"))
                    .map(|t| t.text.clone());
                let Some(tag) = tag else { continue };
                let vname = ast.toks[arm.body.0..arm.body.1]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && variant_names.contains(t.text.as_str()));
                let Some(vname) = vname else { continue };
                let variant = en
                    .variants
                    .iter()
                    .find(|v| v.name == vname.text)
                    .expect("variant name matched");
                let fnames: BTreeSet<&str> =
                    variant.fields.iter().map(|f| f.name.as_str()).collect();
                read_shape.insert(
                    vname.text.clone(),
                    (
                        VariantShape {
                            tag,
                            fields: field_order(ast, arm.body, &fnames),
                        },
                        arm.line,
                    ),
                );
            }
        }
        if write_shape.is_empty() || read_shape.is_empty() {
            continue;
        }

        for v in &en.variants {
            match (write_shape.get(&v.name), read_shape.get(&v.name)) {
                (Some((ws, wline)), Some((rs, _))) => {
                    if !ws.tag.is_empty() && !rs.tag.is_empty() && ws.tag != rs.tag {
                        findings.push(err(
                            "W4",
                            &fa.path,
                            *wline,
                            format!(
                                "`{}::{}` encodes tag `{}` but decodes under `{}` — round-trip breaks",
                                en.name, v.name, ws.tag, rs.tag
                            ),
                        ));
                    }
                    if ws.fields != rs.fields {
                        findings.push(err(
                            "W4",
                            &fa.path,
                            *wline,
                            format!(
                                "`{}::{}` writes fields [{}] but reads [{}] — field order must match",
                                en.name,
                                v.name,
                                ws.fields.join(", "),
                                rs.fields.join(", ")
                            ),
                        ));
                    }
                }
                (Some((_, wline)), None) => findings.push(err(
                    "W4",
                    &fa.path,
                    *wline,
                    format!(
                        "`{}::{}` is encoded by CdrWrite but no CdrRead arm reconstructs it",
                        en.name, v.name
                    ),
                )),
                (None, Some((_, rline))) => findings.push(err(
                    "W4",
                    &fa.path,
                    *rline,
                    format!(
                        "`{}::{}` is decoded by CdrRead but never encoded by CdrWrite",
                        en.name, v.name
                    ),
                )),
                (None, None) => findings.push(err(
                    "W4",
                    &fa.path,
                    v.line,
                    format!(
                        "`{}::{}` appears in neither the CdrWrite nor the CdrRead match — the taxonomy drifted from its codec",
                        en.name, v.name
                    ),
                )),
            }
        }
        // Tag bijection: a tag read for one variant but written for another.
        let mut tag_to_wvariant: BTreeMap<&str, &str> = BTreeMap::new();
        for (v, (ws, _)) in &write_shape {
            if !ws.tag.is_empty() {
                tag_to_wvariant.insert(&ws.tag, v);
            }
        }
        for (v, (rs, rline)) in &read_shape {
            if rs.tag.is_empty() {
                continue;
            }
            if let Some(wv) = tag_to_wvariant.get(rs.tag.as_str()) {
                if *wv != v {
                    findings.push(err(
                        "W4",
                        &fa.path,
                        *rline,
                        format!(
                            "tag `{}` decodes to `{}::{}` but encodes `{}::{}`",
                            rs.tag, en.name, v, en.name, wv
                        ),
                    ));
                }
            }
        }
    }

    // Structs (hand-written impl pairs only) ------------------------------
    for st in &ast.structs {
        if st.fields.is_empty() {
            continue;
        }
        let Some(w) = write_impls.iter().find(|i| i.type_name == st.name) else {
            continue;
        };
        let Some(r) = read_impls.iter().find(|i| i.type_name == st.name) else {
            continue;
        };
        let fnames: BTreeSet<&str> = st.fields.iter().map(|f| f.name.as_str()).collect();
        let Some(wb) = impl_fn_body(ast, w) else {
            continue;
        };
        let Some(rb) = impl_fn_body(ast, r) else {
            continue;
        };
        let worder = field_order(ast, wb, &fnames);
        let rorder = field_order(ast, rb, &fnames);
        if !worder.is_empty() && !rorder.is_empty() && worder != rorder {
            findings.push(err(
                "W4",
                &fa.path,
                st.line,
                format!(
                    "`{}` CdrWrite emits fields [{}] but CdrRead consumes [{}] — order must match",
                    st.name,
                    worder.join(", "),
                    rorder.join(", ")
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_types() {
        let mut nt = BTreeMap::new();
        nt.insert("Epoch".to_string(), "u64".to_string());
        assert_eq!(canon_type("&cdr::Any", &nt), "Any");
        assert_eq!(canon_type("Vec<::cdr::Any>", &nt), "Vec<Any>");
        assert_eq!(canon_type("Vec < monitor::Event >", &nt), "Vec<Event>");
        assert_eq!(canon_type("Epoch", &nt), "u64");
        assert_eq!(canon_type("& mut Vec<u8>", &nt), "Vec<u8>");
    }
}
