//! Property test: for arbitrary well-formed ASTs, parsing what
//! [`pretty`] prints reproduces the AST exactly — the printer and parser
//! are inverses.

mod pretty;

use idlc::ast::*;
use pretty::pretty;
use proptest::prelude::*;

/// Generated ASTs have no source; positions compare equal anyway.
const P: Pos = Pos {
    file: 0,
    line: 0,
    col: 0,
};

/// Rust keywords that are ordinary identifiers to IDL; the generator has
/// to escape them (`r#type`, `self_`).
const RUST_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "continue", "crate", "dyn", "else", "fn", "for", "if",
    "impl", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "self", "Self",
    "static", "super", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

fn ident() -> impl Strategy<Value = String> {
    (
        "[a-z][a-z0-9_]{0,8}",
        any::<proptest::sample::Index>(),
        0..5u8,
    )
        .prop_map(|(s, kw, pick)| {
            if pick == 0 {
                RUST_KEYWORDS[kw.index(RUST_KEYWORDS.len())].to_string()
            } else {
                // Avoid IDL keywords by prefixing.
                format!("id_{s}")
            }
        })
}

/// `names` made unique by suffixing repeats, so a first occurrence keeps
/// its spelling (a keyword stays a keyword).
fn unique(names: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (i, n) in names.into_iter().enumerate() {
        out.push(if seen.insert(n.clone()) {
            n
        } else {
            format!("{n}_{i}")
        });
    }
    out
}

fn leaf_type() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::Boolean),
        Just(Type::Octet),
        Just(Type::Short),
        Just(Type::UShort),
        Just(Type::Long),
        Just(Type::ULong),
        Just(Type::LongLong),
        Just(Type::ULongLong),
        Just(Type::Float),
        Just(Type::Double),
        Just(Type::String),
        Just(Type::Any),
        Just(Type::Object),
    ]
}

fn data_type() -> impl Strategy<Value = Type> {
    leaf_type().prop_recursive(2, 8, 2, |inner| {
        inner.prop_map(|t| Type::Sequence(Box::new(t)))
    })
}

fn param() -> impl Strategy<Value = Param> {
    (
        prop_oneof![Just(Direction::In), Just(Direction::Out)],
        ident(),
        data_type(),
    )
        .prop_map(|(dir, name, ty)| Param { dir, name, ty })
}

fn operation() -> impl Strategy<Value = Operation> {
    (
        ident(),
        prop_oneof![Just(Type::Void), data_type().boxed()],
        proptest::collection::vec(param(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(name, ret, mut params, oneway)| {
            // Keep oneway ops legal: void return, in-params only.
            let oneway = oneway && ret == Type::Void;
            if oneway {
                for p in &mut params {
                    p.dir = Direction::In;
                }
            }
            // Parameter names must be unique.
            let names = unique(params.iter().map(|p| p.name.clone()));
            for (p, name) in params.iter_mut().zip(names) {
                p.name = name;
            }
            Operation {
                pos: P,
                name,
                oneway,
                ret,
                params,
                raises: vec![],
            }
        })
}

fn interface() -> impl Strategy<Value = Interface> {
    (
        ident(),
        proptest::collection::vec(operation(), 0..4),
        proptest::collection::vec(exception(), 0..2),
    )
        .prop_map(|(name, mut ops, mut exceptions)| {
            let names = unique(ops.iter().map(|op| op.name.clone()));
            for (op, name) in ops.iter_mut().zip(names) {
                op.name = name;
            }
            // Prefixed apart from every other name: they are emitted
            // beside the interface, into its module.
            for (i, e) in exceptions.iter_mut().enumerate() {
                e.name = format!("{name}_{}_{i}", e.name);
            }
            Interface {
                pos: P,
                name,
                base: None,
                ops,
                exceptions,
            }
        })
}

fn exception() -> impl Strategy<Value = ExceptionDef> {
    (
        ident(),
        proptest::collection::vec((ident(), data_type()), 0..3),
    )
        .prop_map(|(name, members)| {
            let (names, types): (Vec<_>, Vec<_>) = members.into_iter().unzip();
            let members = unique(names).into_iter().zip(types).collect();
            ExceptionDef {
                pos: P,
                name,
                members,
            }
        })
}

fn def() -> impl Strategy<Value = Def> {
    prop_oneof![
        interface().prop_map(Def::Interface),
        (
            ident(),
            proptest::collection::vec((ident(), data_type()), 0..4)
        )
            .prop_map(|(name, members)| {
                let (names, types): (Vec<_>, Vec<_>) = members.into_iter().unzip();
                let members = unique(names).into_iter().zip(types).collect();
                Def::Struct(StructDef {
                    pos: P,
                    name,
                    members,
                })
            }),
        (ident(), proptest::collection::vec(ident(), 1..5)).prop_map(|(name, members)| {
            let members = unique(members);
            Def::Enum(EnumDef {
                pos: P,
                name,
                members,
            })
        }),
        (ident(), data_type()).prop_map(|(name, ty)| Def::Typedef(Typedef { pos: P, name, ty })),
        ident().prop_map(|name| Def::Native(Native { pos: P, name })),
        exception().prop_map(Def::Exception),
    ]
}

fn spec() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(def(), 0..5).prop_map(|mut defs| {
        // Top-level names must be unique for the checker, and unique names
        // also make equality unambiguous for the parser round-trip.
        let name_of = |d: &mut Def| match d {
            Def::Interface(x) => std::mem::take(&mut x.name),
            Def::Struct(x) => std::mem::take(&mut x.name),
            Def::Enum(x) => std::mem::take(&mut x.name),
            Def::Typedef(x) => std::mem::take(&mut x.name),
            Def::Exception(x) => std::mem::take(&mut x.name),
            Def::Native(x) => std::mem::take(&mut x.name),
            Def::Module(_) => unreachable!("not generated"),
        };
        let names = unique(defs.iter_mut().map(name_of).collect::<Vec<_>>());
        for (d, name) in defs.iter_mut().zip(names) {
            match d {
                Def::Interface(x) => x.name = name,
                Def::Struct(x) => x.name = name,
                Def::Enum(x) => x.name = name,
                Def::Typedef(x) => x.name = name,
                Def::Exception(x) => x.name = name,
                Def::Native(x) => x.name = name,
                Def::Module(_) => unreachable!("not generated"),
            }
        }
        Spec { defs }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_pretty_round_trip(ast in spec()) {
        let printed = pretty(&ast);
        let reparsed = idlc::parse_unit([printed.as_str()])
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nsource:\n{printed}"));
        prop_assert_eq!(ast, reparsed);
    }

    #[test]
    fn generated_code_is_produced_for_valid_specs(ast in spec()) {
        let files = [("gen.idl".to_string(), pretty(&ast))];
        // Not all generated specs type-check (a name may collide with a
        // Rust-escaped one), but when they do, codegen must not panic.
        if let Ok(code) = idlc::compile_files(&files, 0, true) {
            prop_assert!(code.contains("Generated by idlc"));
            // No IDL identifier reaches a Rust binding position as a bare
            // keyword: method, member/parameter, enumerator, item.
            for kw in RUST_KEYWORDS {
                for bare in [
                    format!("fn {kw}("),
                    format!(" {kw}: "),
                    format!("({kw}: "),
                    format!(" {kw} = "),
                    format!("pub type {kw} "),
                    format!("pub trait {kw} "),
                    format!("] {kw} {{"),
                    format!("pub use super::{kw};"),
                ] {
                    prop_assert!(!code.contains(&bare), "bare `{}` in:\n{}", bare, code);
                }
            }
        }
    }
}
