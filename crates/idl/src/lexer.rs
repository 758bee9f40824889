//! Tokenizer for the IDL subset.

use std::fmt;

use crate::ast::{IdlError, Pos};

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokKind,
    /// Where the token starts.
    pub pos: Pos,
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum TokKind {
    /// Identifier or keyword (keywords are resolved by the parser).
    Ident(String),
    /// Integer literal (used for enum values and bounds).
    Int(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `::`
    Scope,
    /// `=`
    Eq,
    /// End of input.
    Eof,
}

impl fmt::Display for TokKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokKind::Ident(s) => write!(f, "`{s}`"),
            TokKind::Int(n) => write!(f, "`{n}`"),
            TokKind::LBrace => f.write_str("`{`"),
            TokKind::RBrace => f.write_str("`}`"),
            TokKind::LParen => f.write_str("`(`"),
            TokKind::RParen => f.write_str("`)`"),
            TokKind::Lt => f.write_str("`<`"),
            TokKind::Gt => f.write_str("`>`"),
            TokKind::Semi => f.write_str("`;`"),
            TokKind::Comma => f.write_str("`,`"),
            TokKind::Colon => f.write_str("`:`"),
            TokKind::Scope => f.write_str("`::`"),
            TokKind::Eq => f.write_str("`=`"),
            TokKind::Eof => f.write_str("end of file"),
        }
    }
}

fn bad_char(ch: char, pos: Pos) -> IdlError {
    let msg = format!("unexpected character {ch:?}");
    IdlError { msg, pos }
}

/// Tokenize source number `file` of a compilation unit. Handles `//` line
/// comments, `/* */` block comments, and `#pragma`/preprocessor lines
/// (skipped to end of line).
pub(crate) fn lex_file(src: &str, file: u32) -> Result<Vec<Token>, IdlError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                col = 1;
            } else if c.is_some() {
                col += 1;
            }
            c
        }};
    }

    loop {
        let tpos = Pos { file, line, col };
        let Some(&c) = chars.peek() else {
            out.push(Token {
                kind: TokKind::Eof,
                pos: tpos,
            });
            return Ok(out);
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '#' => {
                // Preprocessor line: skip to newline.
                while let Some(&c2) = chars.peek() {
                    if c2 == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '/' => {
                bump!();
                match chars.peek() {
                    Some('/') => {
                        while let Some(&c2) = chars.peek() {
                            if c2 == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    Some('*') => {
                        bump!();
                        let mut prev = '\0';
                        loop {
                            let Some(c2) = bump!() else {
                                return Err(bad_char('*', Pos { file, line, col }));
                            };
                            if prev == '*' && c2 == '/' {
                                break;
                            }
                            prev = c2;
                        }
                    }
                    _ => return Err(bad_char('/', tpos)),
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_ascii_alphanumeric() || c2 == '_' {
                        s.push(c2);
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Ident(s),
                    pos: tpos,
                });
            }
            c if c.is_ascii_digit() => {
                let mut n = 0u64;
                while let Some(&c2) = chars.peek() {
                    if let Some(d) = c2.to_digit(10) {
                        n = n * 10 + d as u64;
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokKind::Int(n),
                    pos: tpos,
                });
            }
            _ => {
                bump!();
                let kind = match c {
                    '{' => TokKind::LBrace,
                    '}' => TokKind::RBrace,
                    '(' => TokKind::LParen,
                    ')' => TokKind::RParen,
                    '<' => TokKind::Lt,
                    '>' => TokKind::Gt,
                    ';' => TokKind::Semi,
                    ',' => TokKind::Comma,
                    '=' => TokKind::Eq,
                    ':' => {
                        if chars.peek() == Some(&':') {
                            bump!();
                            TokKind::Scope
                        } else {
                            TokKind::Colon
                        }
                    }
                    other => return Err(bad_char(other, tpos)),
                };
                out.push(Token { kind, pos: tpos });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex_file(src, 0)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("interface W { };"),
            vec![
                TokKind::Ident("interface".into()),
                TokKind::Ident("W".into()),
                TokKind::LBrace,
                TokKind::RBrace,
                TokKind::Semi,
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// line\ninterface /* block\nmore */ W;";
        assert_eq!(
            kinds(src),
            vec![
                TokKind::Ident("interface".into()),
                TokKind::Ident("W".into()),
                TokKind::Semi,
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn preprocessor_lines_are_skipped() {
        let src = "#pragma prefix \"x\"\nmodule M;";
        assert_eq!(
            kinds(src),
            vec![
                TokKind::Ident("module".into()),
                TokKind::Ident("M".into()),
                TokKind::Semi,
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn scope_and_colon() {
        assert_eq!(
            kinds("A::B : C"),
            vec![
                TokKind::Ident("A".into()),
                TokKind::Scope,
                TokKind::Ident("B".into()),
                TokKind::Colon,
                TokKind::Ident("C".into()),
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_eq() {
        assert_eq!(
            kinds("X = 42"),
            vec![
                TokKind::Ident("X".into()),
                TokKind::Eq,
                TokKind::Int(42),
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn positions_tracked() {
        let toks = lex_file("a\n  b", 0).unwrap();
        assert_eq!((toks[0].pos.line, toks[0].pos.col), (1, 1));
        assert_eq!((toks[1].pos.line, toks[1].pos.col), (2, 3));
    }

    #[test]
    fn bad_char_reported() {
        let err = lex_file("a @ b", 0).unwrap_err();
        assert_eq!(err.to_string(), "1:3: unexpected character '@'");
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex_file("/* never ends", 0).is_err());
    }
}
