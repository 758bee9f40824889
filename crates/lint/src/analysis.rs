//! Per-file structural analysis: the token-level AST and the test-code
//! regions. Built once per file, consumed by every rule.

use crate::ast::FileAst;
use crate::lexer::{self, seq_at};

/// Analyzed file ready for rule evaluation.
pub struct FileAnalysis {
    /// Path as reported in diagnostics.
    pub path: String,
    /// Workspace crate directory name (`simnet`, `orb`, ...), if any.
    pub crate_dir: Option<String>,
    /// True when the line is inside test code (`#[cfg(test)]` region, or
    /// the whole file is a test/bench/example file).
    pub test_line: Vec<bool>,
    /// Token-level AST, read by every rule.
    pub ast: FileAst,
}

impl FileAnalysis {
    /// Analyze `source`. `crate_dir` is the directory under `crates/` the
    /// file belongs to (drives rule scoping); `None` means out of scope
    /// for every crate-scoped rule.
    pub fn new(path: &str, crate_dir: Option<&str>, source: &str) -> Self {
        let ast = FileAst::parse(lexer::lex(source));
        let lines = source.lines().count();
        let test_line = if is_test_path(path) {
            vec![true; lines]
        } else {
            test_regions(&ast, lines)
        };
        FileAnalysis {
            path: path.to_string(),
            crate_dir: crate_dir.map(str::to_string),
            test_line,
            ast,
        }
    }

    /// True when line `n` (1-indexed) is test code.
    pub fn is_test_line(&self, n: usize) -> bool {
        self.test_line.get(n - 1).copied().unwrap_or(false)
    }
}

/// Whole-file test classification by path convention.
pub fn is_test_path(path: &str) -> bool {
    let unified = path.replace('\\', "/");
    let file = unified.rsplit('/').next().unwrap_or(&unified);
    let in_dir =
        |d: &str| unified.contains(&format!("/{d}/")) || unified.starts_with(&format!("{d}/"));
    file.ends_with("_tests.rs")
        || file.ends_with("_test.rs")
        || in_dir("tests")
        || in_dir("benches")
        || in_dir("examples")
}

/// Lines gated by `#[cfg(test)]` or `#[cfg(all(test, …))]`: from the
/// attribute through the end of the item it gates — the brace scope that
/// follows it, or the `;` of a bodiless item (`mod kernel_tests;`).
fn test_regions(ast: &FileAst, lines: usize) -> Vec<bool> {
    let toks = &ast.toks;
    let attrs = [lexer::lex("#[cfg(test)]"), lexer::lex("#[cfg(all(test")];
    let mut out = vec![false; lines];
    for i in 0..toks.len() {
        if !attrs.iter().any(|a| seq_at(toks, i, a)) {
            continue;
        }
        let Some(j) = (i..toks.len()).find(|&j| toks[j].is("{") || toks[j].is(";")) else {
            continue;
        };
        let last = match ast.scopes.iter().find(|s| s.open == j) {
            Some(s) => toks[s.close].line,
            None if toks[j].is(";") => toks[j].line,
            None => lines,
        };
        for t in out.iter_mut().take(last).skip(toks[i].line - 1) {
            *t = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let fa = FileAnalysis::new("crates/x/src/a.rs", Some("x"), src);
        assert!(!fa.is_test_line(1));
        assert!(fa.is_test_line(2));
        assert!(fa.is_test_line(4));
        assert!(fa.is_test_line(5));
        assert!(!fa.is_test_line(6));
    }

    #[test]
    fn cfg_test_on_external_mod_decl_does_not_leak() {
        let src =
            "#[cfg(all(test, feature = \"x\"))]\nmod kernel_tests;\nfn lib() { x.unwrap(); }\n";
        let fa = FileAnalysis::new("crates/x/src/a.rs", Some("x"), src);
        assert!(fa.is_test_line(2));
        assert!(!fa.is_test_line(3));
    }

    #[test]
    fn test_file_paths() {
        assert!(is_test_path("crates/orb/src/orb_tests.rs"));
        assert!(is_test_path("tests/full_stack.rs"));
        assert!(is_test_path("crates/bench/benches/a.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/orb/src/core.rs"));
    }
}
