//! W0 and W4: what is left of wire conformance for a static pass.
//!
//! Every operation is declared once, in `idl/*.idl`; stubs, skeletons and
//! contract structs are `idlc` output, so the compiler holds client,
//! servant and marshalling to the contract (a missing operation is an
//! unimplemented trait method, a wrong parameter is a type error). Two
//! checks remain that the compiler cannot make:
//!
//! | ID | invariant |
//! |----|-----------|
//! | W0 | the `idl/*.idl` unit parses and checks under `idlc` (reported by [`crate::contracts`]) |
//! | W4 | hand-written `CdrWrite`/`CdrRead` impl pairs round-trip symmetrically: tag bijection and per-variant/struct field order equal on both sides (`Ior`, `Name`, `Epoch`, … — the types IDL leaves `native` or that sit below the contracts) |
//!
//! Matching is evidence-based and conservative: a check that cannot find
//! its counterpart construct is skipped, never guessed.

use crate::analysis::FileAnalysis;
use crate::ast::{FileAst, TokKind};
use crate::rules::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

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

/// Per-file W4 over every analyzed file.
pub fn check(files: &[FileAnalysis]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for fa in files {
        check_w4(fa, &mut findings);
    }
    findings
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
