//! # ldft-lint — protocol and contract analyzer
//!
//! A repo-specific static analyzer for the corba-ldft workspace. It lexes
//! every workspace `.rs` file once ([`lexer`]), parses a token-level AST
//! over that token stream ([`ast`]), and enforces the invariants no other
//! tool checks; every rule reads those tokens. Which crates are policed is
//! stated once, at [`rules::SIM_CRATES`].
//!
//! * **Protocol (P2, P3, E1)** — the paper's fault-tolerance contract:
//!   clients must observe `COMM_FAILURE` and never drop it on the floor,
//!   and the FT proxy checkpoints after every successful invocation.
//! * **Contracts** — `idl/*.idl` must compile under `idlc` as one unit
//!   ([`contracts`]); a rejected unit fails the run.
//!
//! Determinism (D1, D2, D4) and panic-freedom (P1) are clippy lints the
//! sim crates deny at their roots (`clippy.toml` holds the paths), and a
//! waiver is a rustc `#[expect(lint, reason = "…")]` attribute. The lock
//! discipline of `simnet::Shared` is checked at run time by `simnet`
//! itself. There is no suppression comment: a finding here is fixed, not
//! waived. See `crates/lint/README.md`.

pub mod analysis;
pub mod ast;
pub mod contracts;
pub mod lexer;
pub mod rules;

use analysis::FileAnalysis;
pub use contracts::{contracts, Contracts};
use rules::{check_file, Finding, WorkspaceIndex};
use std::path::{Path, PathBuf};

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding; each one fails the run.
    pub findings: Vec<Finding>,
    /// Number of files parsed.
    pub files: usize,
    /// Operations the compiled `idl/*.idl` unit declares.
    pub wire_ops: usize,
}

/// Derive the crate directory (`crates/<dir>/...`) from a workspace-relative
/// path, if the file lives under `crates/`.
pub fn crate_dir_of(rel_path: &str) -> Option<String> {
    let unified = rel_path.replace('\\', "/");
    let mut parts = unified.split('/');
    loop {
        match parts.next() {
            Some("crates") => return parts.next().map(str::to_string),
            Some(_) => continue,
            None => return None,
        }
    }
}

/// Analyze a single in-memory source (fixture tests and `--crate-name`
/// runs). `crate_dir` drives rule scoping. Runs the per-file rules; the
/// contracts are only compiled under [`run_workspace`].
pub fn analyze_source(
    path_label: &str,
    crate_dir: Option<&str>,
    source: &str,
    index: &WorkspaceIndex,
) -> Vec<Finding> {
    let fa = FileAnalysis::new(path_label, crate_dir, source);
    let mut findings = check_file(&fa, index);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Collect every workspace `.rs` file under `root`, sorted for
/// deterministic output. Skips build output, the offline shims, and this
/// crate's own test fixtures (which are violations on purpose).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            if path.is_dir() {
                if matches!(
                    name.as_str(),
                    "target" | ".git" | ".github" | "fixtures" | "shims" | "node_modules"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` as diagnostics label it: relative to `root`, `/`-separated.
fn rel_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Parse every workspace `.rs` file under `root` (see
/// [`workspace_files`]), labelled by workspace-relative path.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<FileAnalysis>> {
    let mut analyses = Vec::new();
    for path in workspace_files(root)? {
        let source = std::fs::read_to_string(&path)?;
        let rel = rel_label(root, &path);
        analyses.push(FileAnalysis::new(
            &rel,
            crate_dir_of(&rel).as_deref(),
            &source,
        ));
    }
    Ok(analyses)
}

/// Run the analyzer over the whole workspace rooted at `root`.
///
/// Two stages: the first parses every `.rs` file, compiles the `.idl`
/// contracts (see [`contracts`]; a rejected unit is the error) and builds
/// the [`WorkspaceIndex`] (P2's one-hop index over the orb stub API); the
/// second evaluates the per-file rules. Findings are sorted by file, line
/// and rule.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let analyses = analyze_workspace(root)?;
    let mut index = WorkspaceIndex::stub_only();
    for fa in &analyses {
        index.absorb(fa);
    }
    let idls = contracts(root)?;
    let (files, wire_ops) = (analyses.len() + idls.sources.len(), idls.ops().count());
    let mut findings: Vec<Finding> = analyses
        .iter()
        .flat_map(|fa| check_file(fa, &index))
        .collect();
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        findings,
        files,
        wire_ops,
    })
}

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_dir_extraction() {
        assert_eq!(
            crate_dir_of("crates/orb/src/core.rs").as_deref(),
            Some("orb")
        );
        assert_eq!(
            crate_dir_of("crates/naming/src/context.rs").as_deref(),
            Some("naming")
        );
        assert_eq!(crate_dir_of("src/lib.rs"), None);
        assert_eq!(crate_dir_of("tests/full_stack.rs"), None);
    }

    #[test]
    fn clean_source_has_no_findings() {
        let index = WorkspaceIndex::stub_only();
        let findings = analyze_source(
            "crates/core/src/x.rs",
            Some("core"),
            "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n",
            &index,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_sim_crate_is_out_of_scope() {
        let index = WorkspaceIndex::stub_only();
        let findings = analyze_source(
            "crates/cdr/src/x.rs",
            Some("cdr"),
            "fn f(o: &Orb) { let _ = o.invoke(1); }\n",
            &index,
        );
        assert!(findings.is_empty());
    }
}
