//! ldft-lint CLI.
//!
//! ```text
//! ldft-lint --workspace [--root DIR] [--verbose] [--format text|json]
//! ldft-lint [--crate-name NAME] [--format text|json] FILE...
//! ldft-lint --list-rules
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.
//!
//! Text diagnostics render as `file:line: severity[RULE]: message`, which
//! `.github/problem-matchers/ldft-lint.json` turns into GitHub
//! annotations. `--format json` emits one machine-readable object with
//! the findings and the coverage counters.

use ldft_lint::rules::{rule_summary, Finding, WorkspaceIndex, RULE_IDS};
use ldft_lint::{analyze_source, crate_dir_of, find_workspace_root, run_workspace, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// Output format selected with `--format`.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ldft-lint --workspace [--root DIR] [--verbose] [--format text|json]\n       ldft-lint [--crate-name NAME] [--format text|json] FILE...\n       ldft-lint --list-rules"
    );
    ExitCode::from(2)
}

/// Minimal JSON string escaping (the output has no exotic content, but
/// messages may quote source with backslashes and quotes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_finding(f: &Finding) -> String {
    let reason = match &f.allow_reason {
        Some(r) => json_str(r),
        None => "null".to_string(),
    };
    format!(
        "{{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"message\":{},\"allowed\":{},\"allow_reason\":{}}}",
        json_str(f.rule),
        json_str(&f.severity.to_string()),
        json_str(&f.file),
        f.line,
        json_str(&f.message),
        f.allowed,
        reason
    )
}

fn print_json(report: &Report, errors: usize, warnings: usize, allowed: usize) {
    let findings: Vec<String> = report.findings.iter().map(json_finding).collect();
    println!(
        "{{\"files\":{},\"errors\":{},\"warnings\":{},\"allowed\":{},\"wire_ops\":{},\"lock_sites\":{},\"lock_classes\":{},\"findings\":[{}]}}",
        report.files,
        errors,
        warnings,
        allowed,
        report.wire_ops,
        report.lock_sites,
        report.lock_classes,
        findings.join(",")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut verbose = false;
    let mut list_rules = false;
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut crate_name: Option<String> = None;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--verbose" | "-v" => verbose = true,
            "--list-rules" => list_rules = true,
            "--format" => match it.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                _ => return usage(),
            },
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
        for id in RULE_IDS.iter().chain(["A1", "A2"].iter()) {
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

    let errors = report.errors().count();
    let warnings = report.warnings().count();
    let allowed = report.allowed().count();
    match format {
        Format::Json => print_json(&report, errors, warnings, allowed),
        Format::Text => {
            for f in report.errors() {
                println!("{}", f.render());
            }
            for f in report.warnings() {
                println!("{}", f.render());
            }
            if verbose {
                for f in report.allowed() {
                    println!("{}", f.render());
                }
            }
            println!(
                "ldft-lint: {} file(s), {errors} error(s), {warnings} warning(s), {allowed} allowed",
                report.files
            );
        }
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
