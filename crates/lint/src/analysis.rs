//! Per-file structural analysis: the token-level AST, test-code regions,
//! and allowlist directives. Built once per file, consumed by every rule.

use crate::ast::FileAst;
use crate::lexer::{self, seq_at};

/// One `// ldft-lint: allow(RULE, reason)` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// Rule ID the directive suppresses.
    pub rule: String,
    /// The written justification (may be empty — that itself is an error).
    pub reason: String,
    /// Line the directive appears on (1-indexed).
    pub line: usize,
    /// True when the directive's line has no code (applies to next line).
    pub standalone: bool,
}

/// Analyzed file ready for rule evaluation.
pub struct FileAnalysis {
    /// Path as reported in diagnostics.
    pub path: String,
    /// Workspace crate directory name (`simnet`, `orb`, ...), if any.
    pub crate_dir: Option<String>,
    /// Comment text per line (index 0 = line 1).
    comments: Vec<String>,
    /// True when a token starts on the line.
    code_line: Vec<bool>,
    /// True when the line is inside test code (`#[cfg(test)]` region, or
    /// the whole file is a test/bench/example file).
    pub test_line: Vec<bool>,
    /// All allow directives found in comments.
    pub allows: Vec<AllowDirective>,
    /// Token-level AST, read by every rule.
    pub ast: FileAst,
}

impl FileAnalysis {
    /// Analyze `source`. `crate_dir` is the directory under `crates/` the
    /// file belongs to (drives rule scoping); `None` means out of scope
    /// for every crate-scoped rule.
    pub fn new(path: &str, crate_dir: Option<&str>, source: &str) -> Self {
        let lexed = lexer::lex(source);
        let ast = FileAst::parse(lexed.toks);
        let lines = lexed.comments.len();
        let mut code_line = vec![false; lines];
        for t in &ast.toks {
            if let Some(c) = code_line.get_mut(t.line - 1) {
                *c = true;
            }
        }
        let test_line = if is_test_path(path) {
            vec![true; lines]
        } else {
            test_regions(&ast, lines)
        };
        let allows = collect_allows(&lexed.comments, &code_line);
        FileAnalysis {
            path: path.to_string(),
            crate_dir: crate_dir.map(str::to_string),
            comments: lexed.comments,
            code_line,
            test_line,
            allows,
            ast,
        }
    }

    /// True when line `n` (1-indexed) is test code.
    pub fn is_test_line(&self, n: usize) -> bool {
        self.test_line.get(n - 1).copied().unwrap_or(false)
    }

    /// Allow directives that govern a finding on line `n`: directives on
    /// the same line, or standalone directives on the immediately
    /// preceding run of comment-only lines.
    pub fn allows_for_line(&self, n: usize) -> Vec<&AllowDirective> {
        let mut out: Vec<&AllowDirective> = self
            .allows
            .iter()
            .filter(|a| a.line == n && !a.standalone)
            .collect();
        // Walk upward through comment-only lines.
        let mut k = n;
        while k > 1 && self.code_line.get(k - 2) == Some(&false) {
            k -= 1;
            out.extend(self.allows.iter().filter(|a| a.line == k && a.standalone));
            if self.comments[k - 1].is_empty() {
                // Blank line ends the attached comment run.
                break;
            }
        }
        out
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
    let attrs = [lexer::toks("#[cfg(test)]"), lexer::toks("#[cfg(all(test")];
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

/// Byte offset of the `)` balancing the already-consumed `allow(`, or
/// `None` if the parens never balance on this line.
fn balanced_close(body: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                if depth == 0 {
                    return Some(i);
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    None
}

/// Parse every `ldft-lint: allow(RULE, reason)` directive in the file's
/// comments.
fn collect_allows(comments: &[String], code_line: &[bool]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (idx, comment) in comments.iter().enumerate() {
        let mut rest: &str = comment;
        while let Some(pos) = rest.find("ldft-lint:") {
            rest = &rest[pos + "ldft-lint:".len()..];
            let Some(open) = rest.find("allow(") else {
                break;
            };
            let body = &rest[open + "allow(".len()..];
            // Match the balancing close paren so a reason may itself
            // reference calls like `send()` without being truncated.
            let Some(close) = balanced_close(body) else {
                break;
            };
            let inner = &body[..close];
            let (rule, reason) = match inner.split_once(',') {
                Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
                None => (inner.trim().to_string(), String::new()),
            };
            out.push(AllowDirective {
                rule,
                reason,
                line: idx + 1,
                standalone: !code_line[idx],
            });
            rest = &body[close..];
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

    #[test]
    fn allow_same_line_and_standalone() {
        let src = "a.unwrap(); // ldft-lint: allow(P1, startup invariant)\n// ldft-lint: allow(D2, scratch map)\nlet m = HashMap::new();\n";
        let fa = FileAnalysis::new("crates/x/src/a.rs", Some("x"), src);
        let l1 = fa.allows_for_line(1);
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].rule, "P1");
        assert_eq!(l1[0].reason, "startup invariant");
        let l3 = fa.allows_for_line(3);
        assert_eq!(l3.len(), 1);
        assert_eq!(l3[0].rule, "D2");
    }

    #[test]
    fn allow_reason_may_contain_call_parens() {
        let src = "a.unwrap(); // ldft-lint: allow(P1, args after send() are caller misuse)\n";
        let fa = FileAnalysis::new("crates/x/src/a.rs", Some("x"), src);
        let l1 = fa.allows_for_line(1);
        assert_eq!(l1.len(), 1);
        assert_eq!(l1[0].reason, "args after send() are caller misuse");
    }
}
