//! # ldft-lint — determinism & protocol-invariant analyzer
//!
//! A repo-specific static analyzer for the corba-ldft workspace. It lexes
//! every workspace `.rs` file once ([`lexer`]: one token stream, literal
//! values kept, plus each line's comment text for allow directives),
//! parses a token-level AST over that stream ([`ast`]), and enforces the
//! invariants the compiler cannot see; every rule reads those tokens.
//! Which crates are policed is stated once, at [`rules::SIM_CRATES`].
//!
//! * **Determinism (D1–D4)** — the whole experiment pipeline must be a
//!   pure function of the run seed. Wall-clock time, hash-ordered
//!   iteration, ambient RNG, and OS synchronization outside the kernel
//!   all smuggle host nondeterminism into sim results.
//! * **Protocol (P1–P3, E1)** — the paper's fault-tolerance contract:
//!   failures surface as CORBA system exceptions (never panics), clients
//!   must observe `COMM_FAILURE` and never drop it on the floor, and the
//!   FT proxy checkpoints after every successful invocation.
//! * **Contracts and codecs (W0, W4)** — `idl/*.idl` compiles under
//!   `idlc`, and hand-written `CdrWrite`/`CdrRead` struct pairs marshal
//!   their fields in one order ([`wire`]).
//! * **Lock order (L1–L3)** — no inversion, re-entrancy, or blocking call
//!   under a `simnet::Shared` guard ([`lockgraph`]).
//!
//! Findings can be suppressed inline with a justified directive:
//!
//! ```text
//! // ldft-lint: allow(P1, kernel invariant: resume channel outlives process)
//! ```
//!
//! A directive with no reason is itself an error (`A1`); a directive that
//! suppresses nothing is a warning (`A2`). See `crates/lint/README.md`.

pub mod analysis;
pub mod ast;
pub mod contracts;
pub mod lexer;
pub mod lockgraph;
pub mod rules;
pub mod wire;

use analysis::FileAnalysis;
pub use contracts::{contracts, Contracts};
use rules::{check_file_raw, finalize, Finding, Severity, WorkspaceIndex};
use std::path::{Path, PathBuf};

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, including allowed ones (for `--verbose` display).
    pub findings: Vec<Finding>,
    /// Number of files parsed.
    pub files: usize,
    /// Operations the compiled `idl/*.idl` unit declares (0 when `idlc`
    /// rejected it — rule W0).
    pub wire_ops: usize,
    /// `simnet::Shared` acquisition sites covered by the lock graph.
    pub lock_sites: usize,
    /// Distinct lock classes in the acquisition graph.
    pub lock_classes: usize,
}

impl Report {
    /// Findings that fail the run: errors not suppressed by an allowlist
    /// directive.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error && !f.allowed)
    }

    /// Non-fatal diagnostics (warnings, e.g. unused allows).
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning && !f.allowed)
    }

    /// Suppressed findings, for audit output.
    pub fn allowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed)
    }

    /// True when the run should exit nonzero.
    pub fn failed(&self) -> bool {
        self.errors().next().is_some()
    }
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
/// runs). `crate_dir` drives rule scoping. Runs the per-file rules plus a
/// single-file lock-graph pass; the contracts (W0) and the per-file W4
/// pass only run under [`run_workspace`].
pub fn analyze_source(
    path_label: &str,
    crate_dir: Option<&str>,
    source: &str,
    index: &WorkspaceIndex,
) -> Vec<Finding> {
    let fa = FileAnalysis::new(path_label, crate_dir, source);
    let mut findings = check_file_raw(&fa, index);
    findings.extend(lockgraph::check(std::slice::from_ref(&fa)).findings);
    finalize(&fa, findings)
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
/// Three stages: the first parses every `.rs` file, compiles the `.idl`
/// contracts (see [`contracts`]) and builds the [`WorkspaceIndex`] (P2's
/// one-hop index over the orb stub API), the second evaluates the
/// per-file rules plus W4 and the cross-file lock-graph pass (L1–L3), and
/// the third routes every finding back to its file so allow directives
/// apply uniformly.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    let analyses = analyze_workspace(root)?;
    let mut index = WorkspaceIndex::stub_only();
    for fa in &analyses {
        index.absorb(fa);
    }
    // IDL contracts: compiled by idlc (W0), plus a pseudo-analysis per
    // file so `// ldft-lint: allow(...)` directives work in .idl comments.
    let idls = contracts(root)?;
    let idl_analyses: Vec<FileAnalysis> = idls
        .sources
        .iter()
        .map(|(rel, source)| FileAnalysis::new(rel, None, source))
        .collect();

    let mut report = Report {
        findings: Vec::new(),
        files: analyses.len() + idl_analyses.len(),
        ..Report::default()
    };

    // Per-file rules, keyed by path for cross-file routing.
    let mut by_file: std::collections::BTreeMap<String, Vec<Finding>> =
        std::collections::BTreeMap::new();
    for fa in &analyses {
        by_file.insert(fa.path.clone(), check_file_raw(fa, &index));
    }
    for fa in &idl_analyses {
        by_file.insert(fa.path.clone(), Vec::new());
    }

    // Cross-file passes.
    let wire_findings = wire::check(&analyses);
    report.wire_ops = idls.ops().count();
    let lock_report = lockgraph::check(&analyses);
    report.lock_sites = lock_report.sites;
    report.lock_classes = lock_report.classes;
    for f in idls
        .rejection
        .into_iter()
        .chain(wire_findings)
        .chain(lock_report.findings)
    {
        by_file.entry(f.file.clone()).or_default().push(f);
    }

    // Allow application, per file. Allowlist *hygiene* (A1/A2) only runs
    // on policed files — sim crates and the IDL contracts — so that doc
    // examples quoting the directive syntax elsewhere don't trip A1.
    for fa in analyses.iter().chain(idl_analyses.iter()) {
        let mut raw = by_file.remove(&fa.path).unwrap_or_default();
        let policed = fa
            .crate_dir
            .as_deref()
            .map(|d| rules::SIM_CRATES.contains(&d))
            .unwrap_or(false)
            || fa.path.ends_with(".idl");
        if policed {
            report.findings.extend(finalize(fa, raw));
        } else {
            rules::apply_allows(fa, &mut raw);
            raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
            report.findings.extend(raw);
        }
    }
    // Findings attributed to paths we never analyzed (should not happen;
    // keep them rather than lose them).
    for (_, rest) in by_file {
        report.findings.extend(rest);
    }
    Ok(report)
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
            "fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
            &index,
        );
        assert!(findings.is_empty());
    }
}
