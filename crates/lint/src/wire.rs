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
//! | W4 | hand-written `CdrWrite`/`CdrRead` impl pairs round-trip symmetrically: a struct's fields are written and read in one order (`Ior`, `Name`, `Epoch`, … — the types IDL leaves `native` or that sit below the contracts) |
//!
//! Matching is evidence-based and conservative: a check that cannot find
//! its counterpart construct is skipped, never guessed.

use crate::analysis::FileAnalysis;
use crate::ast::FileAst;
use crate::lexer::TokKind;
use crate::rules::Finding;
use std::collections::BTreeSet;

/// Per-file W4 over every analyzed file.
pub fn check(files: &[FileAnalysis]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for fa in files {
        check_w4(fa, &mut findings);
    }
    findings
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

/// W4 for one file: every local struct with hand-written `CdrWrite` *and*
/// `CdrRead` impls in this file must marshal its fields in one order.
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
            findings.push(Finding::new(
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
