//! Property test: for arbitrary well-formed ASTs, `parse(pretty(ast))`
//! reproduces the AST exactly — the printer and parser are inverses.

use idlc::ast::*;
use proptest::prelude::*;

/// Generated ASTs have no source; positions compare equal anyway.
const P: Pos = Pos {
    file: 0,
    line: 0,
    col: 0,
};

fn ident() -> impl Strategy<Value = String> {
    // Avoid IDL keywords by prefixing.
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| format!("id_{s}"))
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
        prop_oneof![
            Just(Direction::In),
            Just(Direction::Out),
            Just(Direction::InOut)
        ],
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
            for (i, p) in params.iter_mut().enumerate() {
                p.name = format!("{}_{i}", p.name);
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
        proptest::collection::vec((any::<bool>(), ident(), data_type()), 0..3),
    )
        .prop_map(|(name, mut ops, attrs)| {
            for (i, op) in ops.iter_mut().enumerate() {
                op.name = format!("{}_{i}", op.name);
            }
            Interface {
                pos: P,
                name,
                base: None,
                ops,
                attrs: attrs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (readonly, name, ty))| Attribute {
                        pos: P,
                        readonly,
                        name: format!("{name}_{i}"),
                        ty,
                    })
                    .collect(),
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
                let members = members
                    .into_iter()
                    .enumerate()
                    .map(|(i, (n, t))| (format!("{n}_{i}"), t))
                    .collect();
                Def::Struct(StructDef {
                    pos: P,
                    name,
                    members,
                })
            }),
        (ident(), proptest::collection::vec(ident(), 1..5)).prop_map(|(name, members)| {
            let members = members
                .into_iter()
                .enumerate()
                .map(|(i, m)| format!("{m}_{i}"))
                .collect();
            Def::Enum(EnumDef {
                pos: P,
                name,
                members,
            })
        }),
        (ident(), data_type()).prop_map(|(name, ty)| Def::Typedef(Typedef { pos: P, name, ty })),
        ident().prop_map(|name| Def::Native(Native { pos: P, name })),
        (
            ident(),
            proptest::collection::vec((ident(), data_type()), 0..3)
        )
            .prop_map(|(name, members)| {
                let members = members
                    .into_iter()
                    .enumerate()
                    .map(|(i, (n, t))| (format!("{n}_{i}"), t))
                    .collect();
                Def::Exception(ExceptionDef {
                    pos: P,
                    name,
                    members,
                })
            }),
    ]
}

fn spec() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(def(), 0..5).prop_map(|mut defs| {
        // Top-level names must be unique for the checker, and unique names
        // also make equality unambiguous for the parser round-trip.
        for (i, d) in defs.iter_mut().enumerate() {
            match d {
                Def::Interface(x) => x.name = format!("{}_{i}", x.name),
                Def::Struct(x) => x.name = format!("{}_{i}", x.name),
                Def::Enum(x) => x.name = format!("{}_{i}", x.name),
                Def::Typedef(x) => x.name = format!("{}_{i}", x.name),
                Def::Exception(x) => x.name = format!("{}_{i}", x.name),
                Def::Native(x) => x.name = format!("{}_{i}", x.name),
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
        let printed = idlc::pretty(&ast);
        let reparsed = idlc::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nsource:\n{printed}"));
        prop_assert_eq!(ast, reparsed);
    }

    #[test]
    fn generated_code_is_produced_for_valid_specs(ast in spec()) {
        let printed = idlc::pretty(&ast);
        // Not all generated specs type-check (e.g. duplicate member names
        // across attrs/ops are avoided by construction), but when they do,
        // codegen must not panic.
        if let Ok(model) = idlc::check(&idlc::parse(&printed).unwrap()) {
            let code = idlc::generate(&model, &idlc::GenOptions::default());
            prop_assert!(code.contains("Generated by idlc"));
        }
    }
}
