//! Recursive-descent parser for the IDL subset.

use crate::ast::*;
use crate::lexer::{lex_file, TokKind, Token};

/// A parse (or lexical) error, at the offending token.
pub type ParseError = IdlError;

/// Parse an IDL source file.
pub fn parse(src: &str) -> Result<Spec, ParseError> {
    parse_unit([src])
}

/// Parse several sources as one compilation unit: their definitions are
/// concatenated in the order given (so a later source may name an earlier
/// one's types, and modules may be reopened), and every [`Pos::file`]
/// indexes `sources`.
pub fn parse_unit<'a>(sources: impl IntoIterator<Item = &'a str>) -> Result<Spec, ParseError> {
    let mut defs = Vec::new();
    for (file, src) in sources.into_iter().enumerate() {
        let tokens = lex_file(src, file as u32)?;
        let mut p = Parser { tokens, pos: 0 };
        defs.append(&mut p.spec()?.defs);
    }
    Ok(Spec { defs })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            msg: msg.into(),
            pos: self.peek().pos,
        })
    }

    fn expect(&mut self, kind: &TokKind) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    /// Consume a keyword (an identifier with fixed spelling).
    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(&self.peek().kind, TokKind::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// A possibly scoped name `A::B::C`.
    fn scoped_name(&mut self) -> Result<String, ParseError> {
        let mut s = self.ident()?;
        while self.peek().kind == TokKind::Scope {
            self.bump();
            s.push_str("::");
            s.push_str(&self.ident()?);
        }
        Ok(s)
    }

    fn spec(&mut self) -> Result<Spec, ParseError> {
        let mut defs = Vec::new();
        while self.peek().kind != TokKind::Eof {
            defs.push(self.def()?);
        }
        Ok(Spec { defs })
    }

    fn def(&mut self) -> Result<Def, ParseError> {
        let pos = self.peek().pos;
        if self.keyword("module") {
            let name = self.ident()?;
            self.expect(&TokKind::LBrace)?;
            let mut defs = Vec::new();
            while self.peek().kind != TokKind::RBrace {
                defs.push(self.def()?);
            }
            self.expect(&TokKind::RBrace)?;
            self.expect(&TokKind::Semi)?;
            Ok(Def::Module(Module { name, defs }))
        } else if self.keyword("interface") {
            self.interface(pos).map(Def::Interface)
        } else if self.keyword("struct") {
            let name = self.ident()?;
            self.expect(&TokKind::LBrace)?;
            let members = self.members()?;
            self.expect(&TokKind::RBrace)?;
            self.expect(&TokKind::Semi)?;
            Ok(Def::Struct(StructDef { pos, name, members }))
        } else if self.keyword("enum") {
            let name = self.ident()?;
            self.expect(&TokKind::LBrace)?;
            let mut members = vec![self.ident()?];
            while self.peek().kind == TokKind::Comma {
                self.bump();
                members.push(self.ident()?);
            }
            self.expect(&TokKind::RBrace)?;
            self.expect(&TokKind::Semi)?;
            Ok(Def::Enum(EnumDef { pos, name, members }))
        } else if self.keyword("typedef") {
            let ty = self.ty()?;
            let name = self.ident()?;
            self.expect(&TokKind::Semi)?;
            Ok(Def::Typedef(Typedef { pos, name, ty }))
        } else if self.keyword("exception") {
            let name = self.ident()?;
            self.expect(&TokKind::LBrace)?;
            let members = self.members()?;
            self.expect(&TokKind::RBrace)?;
            self.expect(&TokKind::Semi)?;
            Ok(Def::Exception(ExceptionDef { pos, name, members }))
        } else if self.keyword("native") {
            let name = self.ident()?;
            self.expect(&TokKind::Semi)?;
            Ok(Def::Native(Native { pos, name }))
        } else {
            self.err(format!("expected a definition, found {}", self.peek().kind))
        }
    }

    /// `type name; type name; ...` member lists for structs/exceptions.
    fn members(&mut self) -> Result<Vec<(String, Type)>, ParseError> {
        let mut members = Vec::new();
        while self.peek().kind != TokKind::RBrace {
            let ty = self.ty()?;
            let name = self.ident()?;
            self.expect(&TokKind::Semi)?;
            members.push((name, ty));
        }
        Ok(members)
    }

    fn interface(&mut self, pos: Pos) -> Result<Interface, ParseError> {
        let name = self.ident()?;
        let base = if self.peek().kind == TokKind::Colon {
            self.bump();
            Some(self.scoped_name()?)
        } else {
            None
        };
        self.expect(&TokKind::LBrace)?;
        let mut ops = Vec::new();
        let mut attrs = Vec::new();
        while self.peek().kind != TokKind::RBrace {
            let pos = self.peek().pos;
            if self.keyword("readonly") {
                if !self.keyword("attribute") {
                    return self.err("expected `attribute` after `readonly`");
                }
                let ty = self.ty()?;
                let name = self.ident()?;
                self.expect(&TokKind::Semi)?;
                attrs.push(Attribute {
                    pos,
                    readonly: true,
                    name,
                    ty,
                });
            } else if self.keyword("attribute") {
                let ty = self.ty()?;
                let name = self.ident()?;
                self.expect(&TokKind::Semi)?;
                attrs.push(Attribute {
                    pos,
                    readonly: false,
                    name,
                    ty,
                });
            } else {
                ops.push(self.operation()?);
            }
        }
        self.expect(&TokKind::RBrace)?;
        self.expect(&TokKind::Semi)?;
        Ok(Interface {
            pos,
            name,
            base,
            ops,
            attrs,
        })
    }

    fn operation(&mut self) -> Result<Operation, ParseError> {
        let pos = self.peek().pos;
        let oneway = self.keyword("oneway");
        let ret = self.ty_or_void()?;
        let name = self.ident()?;
        self.expect(&TokKind::LParen)?;
        let mut params = Vec::new();
        if self.peek().kind != TokKind::RParen {
            loop {
                params.push(self.param()?);
                if self.peek().kind == TokKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokKind::RParen)?;
        let mut raises = Vec::new();
        if self.keyword("raises") {
            self.expect(&TokKind::LParen)?;
            loop {
                raises.push(self.scoped_name()?);
                if self.peek().kind == TokKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(&TokKind::RParen)?;
        }
        self.expect(&TokKind::Semi)?;
        Ok(Operation {
            pos,
            name,
            oneway,
            ret,
            params,
            raises,
        })
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let dir = if self.keyword("in") {
            Direction::In
        } else if self.keyword("out") {
            Direction::Out
        } else if self.keyword("inout") {
            Direction::InOut
        } else {
            return self.err("expected parameter direction (in/out/inout)");
        };
        let ty = self.ty()?;
        let name = self.ident()?;
        Ok(Param { dir, name, ty })
    }

    fn ty_or_void(&mut self) -> Result<Type, ParseError> {
        if self.keyword("void") {
            Ok(Type::Void)
        } else {
            self.ty()
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        if self.keyword("boolean") {
            Ok(Type::Boolean)
        } else if self.keyword("octet") {
            Ok(Type::Octet)
        } else if self.keyword("short") {
            Ok(Type::Short)
        } else if self.keyword("float") {
            Ok(Type::Float)
        } else if self.keyword("double") {
            Ok(Type::Double)
        } else if self.keyword("string") {
            Ok(Type::String)
        } else if self.keyword("any") {
            Ok(Type::Any)
        } else if self.keyword("Object") {
            Ok(Type::Object)
        } else if self.keyword("long") {
            if self.keyword("long") {
                Ok(Type::LongLong)
            } else {
                Ok(Type::Long)
            }
        } else if self.keyword("unsigned") {
            if self.keyword("short") {
                Ok(Type::UShort)
            } else if self.keyword("long") {
                if self.keyword("long") {
                    Ok(Type::ULongLong)
                } else {
                    Ok(Type::ULong)
                }
            } else {
                self.err("expected `short` or `long` after `unsigned`")
            }
        } else if self.keyword("sequence") {
            self.expect(&TokKind::Lt)?;
            let inner = self.ty()?;
            // Optional bound: sequence<T, 10> — parsed and ignored.
            if self.peek().kind == TokKind::Comma {
                self.bump();
                match self.peek().kind {
                    TokKind::Int(_) => {
                        self.bump();
                    }
                    _ => return self.err("expected sequence bound"),
                }
            }
            self.expect(&TokKind::Gt)?;
            Ok(Type::Sequence(Box::new(inner)))
        } else {
            Ok(Type::Named(self.scoped_name()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_module() {
        let src = r#"
            // The worker service of the optimization runtime.
            module Optim {
                typedef sequence<double> DoubleSeq;
                enum Phase { INIT, RUNNING, DONE };
                struct SubProblem {
                    unsigned long id;
                    DoubleSeq lower;
                    DoubleSeq upper;
                };
                exception SolveFailed { string reason; };
                interface Worker {
                    readonly attribute unsigned long solve_count;
                    attribute double tolerance;
                    double solve(in SubProblem sub, in unsigned long iters)
                        raises (SolveFailed);
                    void state(out DoubleSeq snapshot);
                    oneway void log(in string msg);
                };
                interface FtWorker : Worker {
                    void restore(in DoubleSeq snapshot);
                };
            };
        "#;
        let spec = parse(src).unwrap();
        assert_eq!(spec.defs.len(), 1);
        let Def::Module(m) = &spec.defs[0] else {
            panic!("expected module");
        };
        assert_eq!(m.name, "Optim");
        assert_eq!(m.defs.len(), 6);
        let Def::Interface(w) = &m.defs[4] else {
            panic!("expected interface");
        };
        assert_eq!(w.name, "Worker");
        assert_eq!(w.ops.len(), 3);
        assert_eq!(w.attrs.len(), 2);
        assert!(w.attrs[0].readonly);
        assert_eq!(w.ops[0].raises, vec!["SolveFailed"]);
        assert!(w.ops[2].oneway);
        let Def::Interface(fw) = &m.defs[5] else {
            panic!("expected interface");
        };
        assert_eq!(fw.base.as_deref(), Some("Worker"));
    }

    #[test]
    fn parse_types() {
        let src = "interface T {
            void f(in unsigned long long a, in long long b, in octet c,
                   in sequence<sequence<double>> m, in A::B scoped);
        };";
        let spec = parse(src).unwrap();
        let Def::Interface(i) = &spec.defs[0] else {
            panic!()
        };
        let p = &i.ops[0].params;
        assert_eq!(p[0].ty, Type::ULongLong);
        assert_eq!(p[1].ty, Type::LongLong);
        assert_eq!(p[2].ty, Type::Octet);
        assert_eq!(
            p[3].ty,
            Type::Sequence(Box::new(Type::Sequence(Box::new(Type::Double))))
        );
        assert_eq!(p[4].ty, Type::Named("A::B".into()));
    }

    #[test]
    fn bounded_sequence_accepted() {
        let spec = parse("typedef sequence<double, 8> Vec8;").unwrap();
        let Def::Typedef(t) = &spec.defs[0] else {
            panic!()
        };
        assert_eq!(t.ty, Type::Sequence(Box::new(Type::Double)));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("interface {").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (1, 11));
        assert!(err.msg.contains("identifier"), "{err}");
    }

    #[test]
    fn missing_semi_is_reported() {
        let err = parse("struct S { double x; }").unwrap_err();
        assert!(err.msg.contains("`;`"), "{err}");
    }

    #[test]
    fn missing_direction_is_reported() {
        let err = parse("interface I { void f(double x); };").unwrap_err();
        assert!(err.msg.contains("direction"), "{err}");
    }

    #[test]
    fn empty_spec_ok() {
        assert_eq!(parse("").unwrap(), Spec::default());
    }
}
