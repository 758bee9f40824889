//! The analyzer's one lexical pass: raw source → tokens.
//!
//! Comments never reach the token stream, and block comments nest. A
//! string, byte-string, raw-string or char literal is one `Lit` token
//! carrying its value (the text between the quotes, escapes as written) on
//! the line where it opens, however many lines it spans. Lifetimes and loop
//! labels are dropped.

/// Token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal.
    Ident,
    /// Punctuation; multi-char operators `::`, `->`, `=>` are one token.
    Punct,
    /// String or char literal; `text` is the literal *value* (no quotes).
    Lit,
}

/// One token with its source line (1-indexed).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// True when this token is the exact ident/punct `s` (never a literal).
    pub fn is(&self, s: &str) -> bool {
        self.kind != TokKind::Lit && self.text == s
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src`. Never fails: an unterminated literal or comment runs to the
/// end of the file.
pub fn lex(src: &str) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < c.len() {
        let start = i;
        let (kind, text) = if c[i].is_whitespace() {
            i += 1;
            (None, String::new())
        } else if c[i..].starts_with(&['/', '/']) {
            i = (i..c.len()).find(|&j| c[j] == '\n').unwrap_or(c.len());
            (None, String::new())
        } else if c[i..].starts_with(&['/', '*']) {
            let mut depth = 0;
            while i < c.len() {
                if c[i..].starts_with(&['/', '*']) {
                    depth += 1;
                    i += 2;
                } else if c[i..].starts_with(&['*', '/']) {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            (None, String::new())
        } else if let Some((open, hashes)) = string_open(&c, i) {
            let mut j = open + 1;
            let close = loop {
                match (c.get(j), hashes) {
                    (None, _) => break c.len(),
                    (Some('\\'), None) => j += 2,
                    (Some('"'), _)
                        if c[j + 1..].iter().take_while(|&&h| h == '#').count()
                            >= hashes.unwrap_or(0) =>
                    {
                        break j
                    }
                    _ => j += 1,
                }
            };
            i = (close + 1 + hashes.unwrap_or(0)).min(c.len());
            (
                Some(TokKind::Lit),
                c[open + 1..close.min(c.len())].iter().collect(),
            )
        } else if let Some(end) = char_lit_end(&c, i) {
            i = end;
            let open = if c[start] == 'b' {
                start + 2
            } else {
                start + 1
            };
            (Some(TokKind::Lit), c[open..end - 1].iter().collect())
        } else if c[i] == '\'' {
            // Lifetime or label: skip the quote and its name.
            i += 1;
            while i < c.len() && is_ident_char(c[i]) {
                i += 1;
            }
            (None, String::new())
        } else if is_ident_char(c[i]) {
            // A raw identifier `r#name` is the identifier `name`.
            if c[i..].starts_with(&['r', '#']) && c.get(i + 2).is_some_and(|&x| is_ident_char(x)) {
                i += 2;
            }
            let from = i;
            while i < c.len() && is_ident_char(c[i]) {
                i += 1;
            }
            (Some(TokKind::Ident), c[from..i].iter().collect())
        } else {
            let two: String = c[i..(i + 2).min(c.len())].iter().collect();
            let len = if matches!(two.as_str(), "::" | "->" | "=>") {
                2
            } else {
                1
            };
            i += len;
            (Some(TokKind::Punct), c[start..i].iter().collect())
        };
        if let Some(kind) = kind {
            toks.push(Tok { kind, text, line });
        }
        line += c[start..i].iter().filter(|&&x| x == '\n').count();
    }
    toks
}

/// If a string literal (`"…"`, `b"…"`, `r#"…"#`, `br"…"`) starts at `i`:
/// the index of its opening quote, and its hash count when it is raw
/// (`None`: escapes apply).
fn string_open(c: &[char], i: usize) -> Option<(usize, Option<usize>)> {
    let mut j = i + usize::from(c[i] == 'b');
    let raw = c.get(j) == Some(&'r');
    if !raw {
        return (c.get(j) == Some(&'"')).then_some((j, None));
    }
    j += 1;
    let hashes = c[j..].iter().take_while(|&&h| h == '#').count();
    (c.get(j + hashes) == Some(&'"')).then_some((j + hashes, Some(hashes)))
}

/// If a char literal (`'x'`, `'\n'`, `'\''`, `b'x'`) starts at `i`, the
/// index just past its closing quote; `None` for a lifetime.
fn char_lit_end(c: &[char], i: usize) -> Option<usize> {
    let q = i + usize::from(c[i] == 'b');
    if c.get(q) != Some(&'\'') {
        return None;
    }
    match *c.get(q + 1)? {
        '\\' => (q + 3..c.len())
            .take_while(|&j| c[j] != '\n')
            .find(|&j| c[j] == '\'')
            .map(|j| j + 1),
        '\'' | '\n' => None,
        _ => (c.get(q + 2) == Some(&'\'')).then_some(q + 3),
    }
}

/// True when the ident/punct sequence `pat` occurs in `toks` at index `i`.
/// Token boundaries are identifier boundaries, so `HashMap` never matches
/// inside `FxHashMap` and `.unwrap(` never matches `.unwrap_or(`.
pub fn seq_at(toks: &[Tok], i: usize, pat: &[Tok]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| toks.get(i + k).is_some_and(|t| t.is(&p.text)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(src: &str) -> Vec<(TokKind, String, usize)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text, t.line))
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let toks =
            lex("let x = 1; // trailing\na /* start\nstd::time::Instant /* nested */\nend */ b\n");
        let idents: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["let", "x", "=", "1", ";", "a", "b"]);
        assert_eq!(toks[6].line, 4);
    }

    #[test]
    fn literals_carry_their_values() {
        use TokKind::*;
        assert_eq!(
            shape("call(\"add\", r#\"raw \"q\"\"#, b\"by\", '\"', b'x', \"e\\\"s\")"),
            [
                (Ident, "call".into(), 1),
                (Punct, "(".into(), 1),
                (Lit, "add".into(), 1),
                (Punct, ",".into(), 1),
                (Lit, "raw \"q\"".into(), 1),
                (Punct, ",".into(), 1),
                (Lit, "by".into(), 1),
                (Punct, ",".into(), 1),
                (Lit, "\"".into(), 1),
                (Punct, ",".into(), 1),
                (Lit, "x".into(), 1),
                (Punct, ",".into(), 1),
                (Lit, "e\\\"s".into(), 1),
                (Punct, ")".into(), 1),
            ]
        );
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let t = shape("fn f<'a>(c: char) -> &'a str { if c == '\\'' { x } else { y } }");
        assert!(t.iter().any(|(k, s, _)| *k == TokKind::Lit && s == "\\'"));
        assert!(t.iter().any(|(_, s, _)| s == "else"));
        assert!(!t.iter().any(|(_, s, _)| s == "a"), "{t:?}");
    }

    #[test]
    fn tokens_after_a_multiline_literal_keep_kind_and_line() {
        use TokKind::*;
        let src =
            "let s = \"abc\ndef\"; x.f();\nlet r = r#\"a\n\"b\"\n\"#; y\nlet b = b\"1\n2\"; z\n";
        let t = shape(src);
        let after = |lit: &str| t[t.iter().position(|(_, s, _)| s == lit).unwrap() + 1..].to_vec();
        assert_eq!(t[3], (Lit, "abc\ndef".into(), 1));
        assert_eq!(
            after("abc\ndef")[..3],
            [
                (Punct, ";".into(), 2),
                (Ident, "x".into(), 2),
                (Punct, ".".into(), 2)
            ]
        );
        assert_eq!(
            after("a\n\"b\"\n")[..2],
            [(Punct, ";".into(), 5), (Ident, "y".into(), 5)]
        );
        assert_eq!(
            after("1\n2")[..2],
            [(Punct, ";".into(), 7), (Ident, "z".into(), 7)]
        );
    }

    #[test]
    fn patterns_match_at_token_boundaries() {
        let hay =
            lex("FxHashMap::new(); x.unwrap_or(0); my_thread::spawn(); std::thread::spawn(f)");
        let hits = |p: &str| (0..hay.len()).filter(|&i| seq_at(&hay, i, &lex(p))).count();
        assert_eq!(hits("HashMap"), 0);
        assert_eq!(hits(".unwrap("), 0);
        assert_eq!(hits("thread::spawn("), 1);
        assert_eq!(hits("std :: thread"), 1);
    }
}
