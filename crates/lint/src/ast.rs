//! A lightweight hand-rolled Rust AST for the rules that read structure.
//!
//! Built directly on the token stream of [`crate::lexer`] (comments gone,
//! literal values kept as `Lit` tokens), it recognizes the handful of
//! constructs the exception (E1) and per-function (P2's index, P3) rules
//! and the selfchecks need:
//!
//! - function items with parsed parameter lists,
//! - `impl` blocks (`impl Trait for Type`),
//! - `match` expressions with per-arm pattern and body spans,
//! - call expressions with split argument lists,
//! - struct definitions with named fields,
//! - the brace-scope tree.
//!
//! This is *not* a general Rust parser: generics are skipped heuristically
//! and expression structure inside bodies is only recovered where a rule
//! needs it. That is enough because the workspace is rustfmt-formatted and
//! the constructs the rules inspect are all first-order.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// A brace-delimited block: token indices of `{` and `}`.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub open: usize,
    pub close: usize,
}

/// A function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Token index of the `fn` keyword.
    pub tok: usize,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Body block (token indices of the braces); `None` for trait decls.
    pub body: Option<Scope>,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// `impl Trait for Type` — the trait path's last segment, if any.
    pub trait_name: Option<String>,
    /// The implementing type path's last segment.
    pub type_name: String,
    /// Token index of that segment in the header.
    pub type_tok: usize,
    pub line: usize,
    pub body: Scope,
}

/// One match arm.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Token range of the pattern and guard (inclusive start, exclusive
    /// end).
    pub pat: (usize, usize),
    /// Token range of the body (inclusive start, exclusive end).
    pub body: (usize, usize),
    pub line: usize,
}

/// A match expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// Scrutinee text between `match` and `{`.
    pub scrutinee: String,
    pub line: usize,
    pub body: Scope,
    pub arms: Vec<Arm>,
}

/// One argument of a call: its token range (inclusive, exclusive).
#[derive(Debug, Clone, Copy)]
pub struct Arg {
    pub toks: (usize, usize),
}

/// A call expression `recv.method(args)` or `method(args)`.
#[derive(Debug, Clone)]
pub struct Call {
    pub method: String,
    pub line: usize,
    pub args: Vec<Arg>,
    /// Token index of the method-name identifier.
    pub name_tok: usize,
}

/// A struct definition with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    /// Field names, in declaration order.
    pub fields: Vec<String>,
    pub line: usize,
}

/// The parsed file.
#[derive(Debug, Default)]
pub struct FileAst {
    pub toks: Vec<Tok>,
    pub scopes: Vec<Scope>,
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplBlock>,
    pub matches: Vec<MatchExpr>,
    pub calls: Vec<Call>,
    pub structs: Vec<StructDef>,
    /// Matching-close map for parens, kept for later passes (arg splits).
    pub paren_close: BTreeMap<usize, usize>,
}

const KEYWORDS_BEFORE_PAREN: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "in", "loop", "move", "else", "impl", "where",
    "as", "use", "pub", "let", "mut", "ref", "box", "await", "dyn",
];

impl FileAst {
    /// Parse the file. Never fails: unrecognized constructs are skipped.
    pub fn parse(toks: Vec<Tok>) -> FileAst {
        let mut ast = FileAst {
            scopes: match_braces(&toks),
            ..FileAst::default()
        };
        let brace_close = close_map(&ast.scopes);
        let paren_close = match_pairs(&toks, "(", ")");
        let bracket_close = match_pairs(&toks, "[", "]");
        ast.paren_close = paren_close.clone();

        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                // Method / free call recognition happens on the name token.
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "fn" => {
                    if let Some((item, next)) = parse_fn(&toks, i, &paren_close, &brace_close) {
                        ast.fns.push(item);
                        i = next;
                        continue;
                    }
                }
                "impl" => {
                    if let Some((block, next)) = parse_impl(&toks, i, &brace_close) {
                        ast.impls.push(block);
                        i = next;
                        continue;
                    }
                }
                "match" => {
                    if let Some(m) =
                        parse_match(&toks, i, &brace_close, &paren_close, &bracket_close)
                    {
                        ast.matches.push(m);
                        // Do not skip the body: nested matches and the
                        // calls inside arms must still be collected.
                    }
                }
                "struct" => {
                    if let Some(st) = parse_struct(&toks, i, &brace_close) {
                        ast.structs.push(st);
                    }
                }
                _ => {
                    if let Some(call) = parse_call(&toks, i, &paren_close) {
                        ast.calls.push(call);
                    }
                }
            }
            i += 1;
        }
        ast.toks = toks;
        ast
    }

    /// Joined text of a token range (exclusive end), literal values quoted.
    pub fn text(&self, range: (usize, usize)) -> String {
        join_tokens(&self.toks[range.0..range.1.min(self.toks.len())])
    }

    /// The function item whose body contains token index `ti` (innermost).
    pub fn enclosing_fn(&self, ti: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.map(|b| b.open < ti && ti < b.close).unwrap_or(false))
            .min_by_key(|f| {
                let b = f.body.unwrap();
                b.close - b.open
            })
    }
}

/// Join tokens with normalized spacing (space only between two idents).
pub fn join_tokens(toks: &[Tok]) -> String {
    let mut out = String::new();
    let mut prev_ident = false;
    for t in toks {
        let text = match t.kind {
            TokKind::Lit => format!("\"{}\"", t.text),
            _ => t.text.clone(),
        };
        let cur_ident = t.kind == TokKind::Ident;
        if prev_ident && cur_ident {
            out.push(' ');
        }
        out.push_str(&text);
        prev_ident = cur_ident;
    }
    out
}

/// All brace scopes by token index.
fn match_braces(toks: &[Tok]) -> Vec<Scope> {
    let mut stack = Vec::new();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is("{") {
            stack.push(i);
        } else if t.is("}") {
            if let Some(open) = stack.pop() {
                out.push(Scope { open, close: i });
            }
        }
    }
    out.sort_by_key(|s| s.open);
    out
}

fn close_map(scopes: &[Scope]) -> std::collections::BTreeMap<usize, usize> {
    scopes.iter().map(|s| (s.open, s.close)).collect()
}

/// Matching-close map for one bracket pair.
fn match_pairs(toks: &[Tok], open: &str, close: &str) -> std::collections::BTreeMap<usize, usize> {
    let mut stack = Vec::new();
    let mut out = std::collections::BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is(open) {
            stack.push(i);
        } else if t.is(close) {
            if let Some(o) = stack.pop() {
                out.insert(o, i);
            }
        }
    }
    out
}

/// Skip a generics list starting at `<`; returns the index after `>`, or
/// `i` unchanged when this is not a well-formed generics list.
fn skip_generics(toks: &[Tok], i: usize) -> usize {
    if !toks.get(i).map(|t| t.is("<")).unwrap_or(false) {
        return i;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() && j < i + 120 {
        let t = &toks[j];
        if t.is("<") {
            depth += 1;
        } else if t.is(">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is(";") || t.is("{") {
            return i;
        }
        j += 1;
    }
    i
}

/// Split a token range on top-level commas (tracking (), [], {}, <>).
pub fn split_commas(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut seg = start;
    for i in start..end {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                // Angle brackets only nest in type position: after an
                // ident or `::`. A bare `<` is a comparison.
                "<" if i > start
                    && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is("::")) =>
                {
                    angle += 1;
                }
                ">" if angle > 0 => {
                    angle -= 1;
                }
                "," if depth == 0 && angle == 0 => {
                    if i > seg {
                        out.push((seg, i));
                    }
                    seg = i + 1;
                }
                _ => {}
            }
        }
    }
    if end > seg {
        out.push((seg, end));
    }
    out
}

/// The name of one `name: ty` field segment.
fn field_name(toks: &[Tok], start: usize, end: usize) -> Option<String> {
    let colon = (start..end).find(|&i| toks[i].is(":"))?;
    let name_tok = toks[start..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident)?;
    Some(name_tok.text.clone())
}

fn parse_fn(
    toks: &[Tok],
    i: usize,
    paren_close: &std::collections::BTreeMap<usize, usize>,
    brace_close: &std::collections::BTreeMap<usize, usize>,
) -> Option<(FnItem, usize)> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let mut j = skip_generics(toks, i + 2);
    if !toks.get(j)?.is("(") {
        return None;
    }
    j = *paren_close.get(&j)? + 1;
    while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
        j += 1;
    }
    let body = if toks.get(j).map(|t| t.is("{")).unwrap_or(false) {
        brace_close.get(&j).map(|&c| Scope { open: j, close: c })
    } else {
        None
    };
    Some((
        FnItem {
            name: name_tok.text.clone(),
            tok: i,
            line: toks[i].line,
            body,
        },
        // Resume right after the signature: the body still gets scanned
        // for nested items and calls by the main loop.
        j,
    ))
}

fn parse_impl(
    toks: &[Tok],
    i: usize,
    brace_close: &std::collections::BTreeMap<usize, usize>,
) -> Option<(ImplBlock, usize)> {
    let mut j = skip_generics(toks, i + 1);
    let mut first_path: Vec<usize> = Vec::new();
    let mut second_path: Vec<usize> = Vec::new();
    let mut saw_for = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is("{") || t.is("where") {
            break;
        }
        if t.is("for") {
            saw_for = true;
        } else if t.kind == TokKind::Ident {
            if saw_for {
                second_path.push(j);
            } else {
                first_path.push(j);
            }
            j = skip_generics(toks, j + 1);
            continue;
        }
        j += 1;
    }
    while j < toks.len() && !toks[j].is("{") {
        j += 1;
    }
    let close = *brace_close.get(&j)?;
    let (trait_tok, type_tok) = if saw_for {
        (first_path.last().copied(), *second_path.last()?)
    } else {
        (None, *first_path.last()?)
    };
    Some((
        ImplBlock {
            trait_name: trait_tok.map(|k| toks[k].text.clone()),
            type_name: toks[type_tok].text.clone(),
            type_tok,
            line: toks[i].line,
            body: Scope { open: j, close },
        },
        j,
    ))
}

fn parse_match(
    toks: &[Tok],
    i: usize,
    brace_close: &std::collections::BTreeMap<usize, usize>,
    paren_close: &std::collections::BTreeMap<usize, usize>,
    bracket_close: &std::collections::BTreeMap<usize, usize>,
) -> Option<MatchExpr> {
    // Scrutinee: tokens until the first `{` not nested in (), [].
    let mut j = i + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is("(") {
            j = *paren_close.get(&j)? + 1;
            continue;
        }
        if t.is("[") {
            j = *bracket_close.get(&j)? + 1;
            continue;
        }
        if t.is("{") {
            break;
        }
        if t.is(";") {
            return None;
        }
        j += 1;
    }
    if j <= i + 1 || j >= toks.len() {
        return None;
    }
    let body_open = j;
    let body_close = *brace_close.get(&body_open)?;
    let scrutinee = join_tokens(&toks[i + 1..body_open]);

    // Arms: pattern tokens until `=>` at arm level; body is either the
    // following brace block or tokens until the next top-level `,`.
    let mut arms = Vec::new();
    let mut k = body_open + 1;
    while k < body_close {
        let pat_start = k;
        let mut depth = 0i32;
        let mut arrow = None;
        let mut p = k;
        while p < body_close {
            let t = &toks[p];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => {
                        arrow = Some(p);
                    }
                    _ => {}
                }
            }
            if arrow.is_some() {
                break;
            }
            p += 1;
        }
        let Some(arrow) = arrow else { break };
        let (body_start, body_end, next) =
            if toks.get(arrow + 1).map(|t| t.is("{")).unwrap_or(false) {
                let c = *brace_close.get(&(arrow + 1))?;
                let mut n = c + 1;
                if toks.get(n).map(|t| t.is(",")).unwrap_or(false) {
                    n += 1;
                }
                (arrow + 1, c + 1, n)
            } else {
                let mut depth = 0i32;
                let mut q = arrow + 1;
                while q < body_close {
                    let t = &toks[q];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                    }
                    q += 1;
                }
                (arrow + 1, q, (q + 1).min(body_close))
            };
        arms.push(Arm {
            pat: (pat_start, arrow),
            body: (body_start, body_end),
            line: toks[pat_start].line,
        });
        k = next.max(k + 1);
    }
    Some(MatchExpr {
        scrutinee,
        line: toks[i].line,
        body: Scope {
            open: body_open,
            close: body_close,
        },
        arms,
    })
}

fn parse_fields(toks: &[Tok], open: usize, close: usize) -> Vec<String> {
    split_commas(toks, open + 1, close)
        .into_iter()
        .filter_map(|(s, e)| {
            // Strip leading attributes `#[...]` and `pub`.
            let mut s = s;
            while s < e {
                if toks[s].is("#") {
                    // Skip `#[...]`.
                    let mut depth = 0i32;
                    let mut q = s + 1;
                    while q < e {
                        if toks[q].is("[") {
                            depth += 1;
                        } else if toks[q].is("]") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        q += 1;
                    }
                    s = q + 1;
                } else if toks[s].is("pub") {
                    s += 1;
                    if toks.get(s).map(|t| t.is("(")).unwrap_or(false) {
                        while s < e && !toks[s].is(")") {
                            s += 1;
                        }
                        s += 1;
                    }
                } else {
                    break;
                }
            }
            field_name(toks, s, e)
        })
        .collect()
}

fn parse_struct(
    toks: &[Tok],
    i: usize,
    brace_close: &std::collections::BTreeMap<usize, usize>,
) -> Option<StructDef> {
    let name = toks.get(i + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    let j = skip_generics(toks, i + 2);
    if !toks.get(j)?.is("{") {
        return None;
    }
    let close = *brace_close.get(&j)?;
    Some(StructDef {
        name: name.text.clone(),
        fields: parse_fields(toks, j, close),
        line: toks[i].line,
    })
}

fn parse_call(
    toks: &[Tok],
    i: usize,
    paren_close: &std::collections::BTreeMap<usize, usize>,
) -> Option<Call> {
    let t = &toks[i];
    if t.kind != TokKind::Ident || KEYWORDS_BEFORE_PAREN.contains(&t.text.as_str()) {
        return None;
    }
    // Name may be followed by a turbofish: `from_bytes::<T>(...)`.
    let mut j = i + 1;
    if toks.get(j).map(|x| x.is("::")).unwrap_or(false)
        && toks.get(j + 1).map(|x| x.is("<")).unwrap_or(false)
    {
        let after = skip_generics(toks, j + 1);
        if after > j + 1 {
            j = after;
        }
    }
    if !toks.get(j).map(|x| x.is("(")).unwrap_or(false) {
        return None;
    }
    let close = *paren_close.get(&j)?;
    let args = split_commas(toks, j + 1, close)
        .into_iter()
        .map(|toks_range| Arg { toks: toks_range })
        .collect();
    Some(Call {
        method: t.text.clone(),
        line: t.line,
        args,
        name_tok: i,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ast_of(src: &str) -> FileAst {
        FileAst::parse(crate::lexer::lex(src))
    }

    #[test]
    fn fn_items() {
        let a = ast_of("fn add(a: f64, b: f64) -> f64 { a + b }\n");
        assert_eq!(a.fns.len(), 1);
        let f = &a.fns[0];
        assert_eq!(f.name, "add");
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_trait_for_type() {
        let a = ast_of("impl Servant for EventChannel {\n fn dispatch(&mut self) {}\n}\n");
        assert_eq!(a.impls.len(), 1);
        assert_eq!(a.impls[0].trait_name.as_deref(), Some("Servant"));
        assert_eq!(a.impls[0].type_name, "EventChannel");
    }

    #[test]
    fn match_arms_with_ops_and_literals() {
        let a = ast_of(
            "fn d(op: &str) {\n match op {\n ops::PUSH => { x(); }\n \"add\" | \"div\" => y(),\n _ => z(),\n }\n}\n",
        );
        let m = &a.matches[0];
        assert_eq!(m.arms.len(), 3);
        assert!(a.text(m.arms[0].pat).contains("ops::PUSH"));
        assert!(a.text(m.arms[1].pat).contains("\"add\""));
        assert!(a.text(m.arms[1].pat).contains("\"div\""));
    }

    #[test]
    fn calls_and_args() {
        let a = ast_of("fn f() { self.obj.call(orb, ctx, \"add\", &(a, b,)); }\n");
        let c = a.calls.iter().find(|c| c.method == "call").unwrap();
        assert_eq!(c.args.len(), 4);
    }

    #[test]
    fn fn_bodies_nest_and_decls_have_none() {
        let a = ast_of(
            "trait T {\n fn decl(&self);\n fn outer() {\n fn inner() {\n body();\n }\n more();\n }\n}\n",
        );
        let at = |name: &str| a.toks.iter().position(|t| t.text == name).unwrap();
        assert_eq!(a.enclosing_fn(at("body")).unwrap().name, "inner");
        assert_eq!(a.enclosing_fn(at("more")).unwrap().name, "outer");
        assert!(a.fns.iter().any(|f| f.name == "decl" && f.body.is_none()));
    }

    #[test]
    fn struct_fields() {
        let a = ast_of(
            "pub struct Pair<T> {\n pub a: T,\n #[x] b: u32,\n}\npub struct Epoch(pub u64);\n",
        );
        assert_eq!(a.structs.len(), 1, "tuple structs have no named fields");
        assert_eq!(a.structs[0].name, "Pair");
        assert_eq!(a.structs[0].fields[1], "b");
    }
}
