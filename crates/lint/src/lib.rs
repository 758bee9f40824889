//! # ldft-lint — the workspace read as tokens, for the selfchecks
//!
//! A test library for the corba-ldft workspace. It lexes every workspace
//! `.rs` file ([`lexer`]), parses a token-level AST over that token stream
//! ([`ast`]), and loads the `idl/*.idl` contracts through `idlc`
//! ([`contracts`]). `tests/selfcheck.rs` reads them to hold what no
//! compiler or clippy lint checks:
//!
//! * **Protocol (E1)** — the paper's fault-tolerance contract
//!   ([`rules`]): no client drops a caught `COMM_FAILURE`.
//! * **Contracts** — every op is declared once, in IDL, and has a caller.
//! * **Design economy** — no option with one value, no public item
//!   without a caller.
//!
//! Determinism (D1, D2, D4), panic-freedom (P1) and discarded results (P2)
//! are clippy lints the sim crates deny at their roots (`clippy.toml` holds
//! the paths), and a waiver is a rustc `#[expect(lint, reason = "…")]`
//! attribute. The lock discipline of `simnet::Shared` is checked at run
//! time by `simnet` itself. An E1 finding is fixed, not waived. See
//! `crates/lint/README.md`.

pub mod analysis;
pub mod ast;
pub mod contracts;
pub mod lexer;
pub mod rules;

use analysis::FileAnalysis;
pub use contracts::{contracts, Contracts};
use std::path::{Path, PathBuf};

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
}
