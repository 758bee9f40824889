//! End-to-end CLI tests: exit codes, diagnostics format, and the gate the
//! CI workflow relies on — `ldft-lint --workspace` must pass on the tree
//! as committed.

use std::path::Path;
use std::process::Command;

fn lint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldft-lint"))
}

/// Stage a fixture outside the repo: the analyzer (correctly) treats any
/// path under a `tests/` directory as test code and exempts it, so the CLI
/// must see the file somewhere neutral.
fn fixture(name: &str) -> String {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let dir = std::env::temp_dir().join("ldft-lint-cli-fixtures");
    std::fs::create_dir_all(&dir).expect("mkdir temp fixtures");
    let dst = dir.join(name);
    std::fs::copy(&src, &dst).expect("stage fixture");
    dst.to_string_lossy().into_owned()
}

#[test]
fn bad_fixture_fails_with_exit_code_1() {
    let out = lint()
        .args(["--crate-name", "core", &fixture("p2_bad.rs")])
        .output()
        .expect("spawn ldft-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[P2]"), "{stdout}");
    assert!(stdout.contains("p2_bad.rs:4:"), "{stdout}");
}

#[test]
fn clean_fixture_passes_with_exit_code_0() {
    let out = lint()
        .args(["--crate-name", "core", &fixture("p2_clean.rs")])
        .output()
        .expect("spawn ldft-lint");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
}

#[test]
fn list_rules_names_every_rule() {
    let out = lint()
        .arg("--list-rules")
        .output()
        .expect("spawn ldft-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(ids, ["P2", "P3", "E1"], "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = lint()
        .arg("--frobnicate")
        .output()
        .expect("spawn ldft-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_run_is_clean_on_the_committed_tree() {
    // The CI gate, exercised from the test suite: the workspace as
    // committed must lint clean.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = lint()
        .args(["--workspace", "--root"])
        .arg(root)
        .output()
        .expect("spawn ldft-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint failed:\n{stdout}"
    );
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

#[test]
fn workspace_summary_carries_coverage_counters() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = lint()
        .args(["--workspace", "--root"])
        .arg(root)
        .output()
        .expect("spawn ldft-lint");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ops = ldft_lint::contracts(root).expect("read idl/").ops().count();
    let summary = stdout.lines().last().expect("summary line");
    assert!(
        summary.ends_with(&format!(" {ops} contract ops")),
        "{summary}"
    );
}

#[test]
fn text_diagnostics_match_the_problem_matcher_regex() {
    // `.github/problem-matchers/ldft-lint.json` parses
    // `file:line: severity[RULE]: message`; keep the shapes in lockstep.
    // Every finding is an error; the matcher's `warning` arm is unused.
    let matcher_src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .join(".github/problem-matchers/ldft-lint.json"),
    )
    .expect("problem matcher file exists");
    assert!(
        matcher_src.contains("^(.+):(\\\\d+): (error|warning)\\\\[(\\\\w+)\\\\]: (.*)$"),
        "matcher regex drifted:\n{matcher_src}"
    );
    let out = lint()
        .args(["--crate-name", "core", &fixture("p2_bad.rs")])
        .output()
        .expect("spawn ldft-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let diag = stdout.lines().next().expect("at least one diagnostic");
    // Hand-check the line against the regex's shape.
    let (loc, rest) = diag.split_once(": ").expect("`file:line: ` prefix");
    let (_, line_no) = loc.rsplit_once(':').expect("line number");
    assert!(line_no.chars().all(|c| c.is_ascii_digit()), "{diag}");
    assert!(rest.starts_with("error["), "{diag}");
    assert!(rest.contains("]: "), "{diag}");
}
