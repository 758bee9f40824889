//! ldft-lint CLI.
//!
//! ```text
//! ldft-lint --workspace [--root DIR]
//! ldft-lint [--crate-name NAME] FILE...
//! ldft-lint --list-rules
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.
//!
//! Text diagnostics render as `file:line: error[RULE]: message`, which
//! `.github/problem-matchers/ldft-lint.json` turns into GitHub
//! annotations. The closing summary line carries the contract-op count.

use ldft_lint::rules::{rule_summary, WorkspaceIndex, RULE_IDS};
use ldft_lint::{analyze_source, crate_dir_of, find_workspace_root, run_workspace, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ldft-lint --workspace [--root DIR]\n       ldft-lint [--crate-name NAME] FILE...\n       ldft-lint --list-rules"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut list_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut crate_name: Option<String> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => list_rules = true,
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--crate-name" => match it.next() {
                Some(n) => crate_name = Some(n),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return usage(),
            other => files.push(PathBuf::from(other)),
        }
    }

    if list_rules {
        for id in RULE_IDS {
            println!("{id}  {}", rule_summary(id));
        }
        return ExitCode::SUCCESS;
    }

    let report = if workspace || files.is_empty() {
        let start = root
            .or_else(|| std::env::current_dir().ok())
            .unwrap_or_else(|| PathBuf::from("."));
        let Some(ws) = find_workspace_root(&start) else {
            eprintln!(
                "ldft-lint: no workspace root found above {}",
                start.display()
            );
            return ExitCode::from(2);
        };
        match run_workspace(&ws) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ldft-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let index = WorkspaceIndex::stub_only();
        let mut report = Report::default();
        for path in &files {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("ldft-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let label = path.to_string_lossy().replace('\\', "/");
            let dir = crate_name.clone().or_else(|| crate_dir_of(&label));
            report
                .findings
                .extend(analyze_source(&label, dir.as_deref(), &source, &index));
            report.files += 1;
        }
        report
    };

    let errors = report.findings.len();
    for f in &report.findings {
        println!("{}", f.render());
    }
    println!(
        "ldft-lint: {} file(s), {errors} error(s), {} contract ops",
        report.files, report.wire_ops
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
