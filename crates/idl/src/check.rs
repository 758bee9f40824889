//! Semantic analysis: name resolution and validation of a parsed [`Spec`],
//! producing the flattened [`Model`] the code generator consumes.

use std::collections::HashMap;

use crate::ast::*;

/// What kind of thing a name denotes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymbolKind {
    /// A struct.
    Struct,
    /// An enum.
    Enum,
    /// A typedef.
    Typedef,
    /// An exception.
    Exception,
    /// An interface.
    Interface,
    /// A `native` (opaque) type.
    Native,
}

/// A semantic error, at the declaration it was found in.
pub type CheckError = IdlError;

/// Return a [`CheckError`] at `$pos` with a `format!`-style message.
macro_rules! bail {
    ($pos:expr, $($fmt:tt)*) => {
        return Err(CheckError { pos: $pos, msg: format!($($fmt)*) })
    };
}

/// A checked item with its enclosing module scope (absolute path of module
/// names, not including the item's own name).
#[derive(Clone, Debug)]
pub enum Item {
    /// A struct, with member types resolved.
    Struct {
        /// Enclosing module path.
        scope: Vec<String>,
        /// The definition (named types rewritten to absolute paths).
        def: StructDef,
    },
    /// An enum.
    Enum {
        /// Enclosing module path.
        scope: Vec<String>,
        /// The definition.
        def: EnumDef,
    },
    /// A typedef.
    Typedef {
        /// Enclosing module path.
        scope: Vec<String>,
        /// The definition (type resolved).
        def: Typedef,
    },
    /// An exception. One declared inside an interface is emitted in the
    /// interface's module, beside its trait, and keeps the interface in
    /// its repository id.
    Exception {
        /// Enclosing module path.
        scope: Vec<String>,
        /// The definition (member types resolved).
        def: ExceptionDef,
        /// Repository id.
        repo_id: String,
    },
    /// An interface.
    Interface {
        /// Enclosing module path.
        scope: Vec<String>,
        /// The definition (types resolved; base as absolute path).
        def: Interface,
        /// Repository id.
        repo_id: String,
        /// Flattened operations: inherited first, own last.
        all_ops: Vec<Operation>,
    },
    /// A `native` type: opaque here, defined by the Rust side.
    Native {
        /// Enclosing module path.
        scope: Vec<String>,
        /// The declaration.
        def: Native,
    },
}

impl Item {
    /// Enclosing module path.
    pub fn scope(&self) -> &[String] {
        match self {
            Item::Struct { scope, .. }
            | Item::Enum { scope, .. }
            | Item::Typedef { scope, .. }
            | Item::Exception { scope, .. }
            | Item::Interface { scope, .. }
            | Item::Native { scope, .. } => scope,
        }
    }

    /// The item's own name.
    pub fn name(&self) -> &str {
        match self {
            Item::Struct { def, .. } => &def.name,
            Item::Enum { def, .. } => &def.name,
            Item::Typedef { def, .. } => &def.name,
            Item::Exception { def, .. } => &def.name,
            Item::Interface { def, .. } => &def.name,
            Item::Native { def, .. } => &def.name,
        }
    }

    /// Where the declaration starts; `pos().file` says which source of the
    /// compilation unit declared it.
    pub fn pos(&self) -> Pos {
        match self {
            Item::Struct { def, .. } => def.pos,
            Item::Enum { def, .. } => def.pos,
            Item::Typedef { def, .. } => def.pos,
            Item::Exception { def, .. } => def.pos,
            Item::Interface { def, .. } => def.pos,
            Item::Native { def, .. } => def.pos,
        }
    }
}

/// The checked model: all items with resolved names, in declaration order.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// All items.
    pub items: Vec<Item>,
}

/// The standard repository id for a scoped name.
pub fn repo_id(scope: &[String], name: &str) -> String {
    let mut s = String::from("IDL:");
    for part in scope {
        s.push_str(part);
        s.push('/');
    }
    s.push_str(name);
    s.push_str(":1.0");
    s
}

/// Check a parsed spec and build the code-generation model.
pub fn check(spec: &Spec) -> Result<Model, CheckError> {
    // Pass 1: collect all symbols with absolute paths.
    let mut symbols: HashMap<String, SymbolKind> = HashMap::new();
    collect(&spec.defs, &mut Vec::new(), &mut symbols)?;

    // Pass 2: resolve and validate, producing the model.
    let mut model = Model::default();
    let mut iface_ops: IfaceTable = HashMap::new();
    resolve(
        &spec.defs,
        &mut Vec::new(),
        &symbols,
        &mut model,
        &mut iface_ops,
    )?;
    Ok(model)
}

fn collect(
    defs: &[Def],
    scope: &mut Vec<String>,
    symbols: &mut HashMap<String, SymbolKind>,
) -> Result<(), CheckError> {
    for def in defs {
        let (name, pos, kind) = match def {
            Def::Module(m) => {
                scope.push(m.name.clone());
                collect(&m.defs, scope, symbols)?;
                scope.pop();
                continue;
            }
            Def::Interface(i) => {
                let iscope = [scope.as_slice(), std::slice::from_ref(&i.name)].concat();
                for e in &i.exceptions {
                    let abs = abs_name(&iscope, &e.name);
                    if symbols.insert(abs.clone(), SymbolKind::Exception).is_some() {
                        bail!(e.pos, "duplicate definition of `{abs}`");
                    }
                }
                (&i.name, i.pos, SymbolKind::Interface)
            }
            Def::Struct(s) => (&s.name, s.pos, SymbolKind::Struct),
            Def::Enum(e) => (&e.name, e.pos, SymbolKind::Enum),
            Def::Typedef(t) => (&t.name, t.pos, SymbolKind::Typedef),
            Def::Exception(e) => (&e.name, e.pos, SymbolKind::Exception),
            Def::Native(n) => (&n.name, n.pos, SymbolKind::Native),
        };
        let abs = abs_name(scope, name);
        if symbols.insert(abs.clone(), kind).is_some() {
            bail!(pos, "duplicate definition of `{abs}`");
        }
    }
    Ok(())
}

fn abs_name(scope: &[String], name: &str) -> String {
    if scope.is_empty() {
        name.to_string()
    } else {
        format!("{}::{}", scope.join("::"), name)
    }
}

/// Resolve a (possibly scoped) name from within `scope`: innermost scope
/// outward, then absolute.
fn lookup(
    symbols: &HashMap<String, SymbolKind>,
    scope: &[String],
    name: &str,
) -> Option<(String, SymbolKind)> {
    for depth in (0..=scope.len()).rev() {
        let candidate = abs_name(&scope[..depth], name);
        if let Some(&kind) = symbols.get(&candidate) {
            return Some((candidate, kind));
        }
    }
    None
}

fn resolve_type(
    ty: &Type,
    scope: &[String],
    symbols: &HashMap<String, SymbolKind>,
    pos: Pos,
    what: &str,
) -> Result<Type, CheckError> {
    Ok(match ty {
        Type::Sequence(inner) => {
            Type::Sequence(Box::new(resolve_type(inner, scope, symbols, pos, what)?))
        }
        Type::Named(n) => {
            let Some((abs, kind)) = lookup(symbols, scope, n) else {
                bail!(pos, "unknown type `{n}` in {what}");
            };
            match kind {
                SymbolKind::Interface => {
                    bail!(
                        pos,
                        "interface `{n}` used as a data type in {what}; \
                             typed object references are not supported — \
                             declare the parameter as `Object`"
                    )
                }
                SymbolKind::Exception => {
                    bail!(pos, "exception `{n}` used as a data type in {what}")
                }
                _ => Type::Named(abs),
            }
        }
        other => other.clone(),
    })
}

/// Flattened operations per interface, by absolute name.
type IfaceTable = HashMap<String, Vec<Operation>>;

fn resolve(
    defs: &[Def],
    scope: &mut Vec<String>,
    symbols: &HashMap<String, SymbolKind>,
    model: &mut Model,
    iface_ops: &mut IfaceTable,
) -> Result<(), CheckError> {
    for def in defs {
        match def {
            Def::Module(m) => {
                scope.push(m.name.clone());
                resolve(&m.defs, scope, symbols, model, iface_ops)?;
                scope.pop();
            }
            Def::Struct(s) => {
                let mut members = Vec::new();
                let mut seen = std::collections::HashSet::new();
                for (mname, mty) in &s.members {
                    if !seen.insert(mname.clone()) {
                        bail!(s.pos, "duplicate member `{mname}` in struct `{}`", s.name);
                    }
                    let what = format!("struct `{}`", s.name);
                    let ty = resolve_type(mty, scope, symbols, s.pos, &what)?;
                    members.push((mname.clone(), ty));
                }
                model.items.push(Item::Struct {
                    scope: scope.clone(),
                    def: StructDef {
                        pos: s.pos,
                        name: s.name.clone(),
                        members,
                    },
                });
            }
            Def::Enum(e) => {
                let mut seen = std::collections::HashSet::new();
                for m in &e.members {
                    if !seen.insert(m.clone()) {
                        bail!(e.pos, "duplicate enumerator `{m}` in enum `{}`", e.name);
                    }
                }
                if e.members.is_empty() {
                    bail!(e.pos, "enum `{}` has no enumerators", e.name);
                }
                model.items.push(Item::Enum {
                    scope: scope.clone(),
                    def: e.clone(),
                });
            }
            Def::Typedef(t) => {
                let what = format!("typedef `{}`", t.name);
                let ty = resolve_type(&t.ty, scope, symbols, t.pos, &what)?;
                model.items.push(Item::Typedef {
                    scope: scope.clone(),
                    def: Typedef {
                        pos: t.pos,
                        name: t.name.clone(),
                        ty,
                    },
                });
            }
            Def::Exception(e) => {
                let def = check_exception(e, scope, symbols)?;
                model.items.push(Item::Exception {
                    scope: scope.clone(),
                    repo_id: repo_id(scope, &e.name),
                    def,
                });
            }
            Def::Interface(i) => {
                let resolved = check_interface(i, scope, symbols)?;
                let iscope = [scope.as_slice(), std::slice::from_ref(&i.name)].concat();
                for e in &resolved.exceptions {
                    // Emitted beside the trait, so the module must not
                    // declare the name again.
                    let taken = symbols.contains_key(&abs_name(scope, &e.name))
                        || model
                            .items
                            .iter()
                            .any(|it| it.scope() == scope.as_slice() && it.name() == e.name);
                    if taken {
                        bail!(
                            e.pos,
                            "exception `{}` of interface `{}` clashes with a definition of \
                             its module",
                            e.name,
                            i.name
                        );
                    }
                    model.items.push(Item::Exception {
                        scope: scope.clone(),
                        repo_id: repo_id(&iscope, &e.name),
                        def: e.clone(),
                    });
                }
                // Flatten inheritance.
                let mut all_ops = match &resolved.base {
                    None => Vec::new(),
                    Some(base_abs) => {
                        let Some(ops) = iface_ops.get(base_abs) else {
                            bail!(
                                i.pos,
                                "interface `{}` inherits `{base_abs}`, which is not \
                                     defined before it",
                                i.name
                            );
                        };
                        ops.clone()
                    }
                };
                // Overriding is not allowed in IDL.
                for op in &resolved.ops {
                    if all_ops.iter().any(|o| o.name == op.name) {
                        bail!(
                            op.pos,
                            "interface `{}` redefines inherited operation `{}`",
                            i.name,
                            op.name
                        );
                    }
                }
                all_ops.extend(resolved.ops.iter().cloned());
                iface_ops.insert(abs_name(scope, &i.name), all_ops.clone());
                model.items.push(Item::Interface {
                    scope: scope.clone(),
                    repo_id: repo_id(scope, &i.name),
                    def: resolved,
                    all_ops,
                });
            }
            Def::Native(n) => model.items.push(Item::Native {
                scope: scope.clone(),
                def: n.clone(),
            }),
        }
    }
    Ok(())
}

/// `e` with its member types resolved from within `scope`.
fn check_exception(
    e: &ExceptionDef,
    scope: &[String],
    symbols: &HashMap<String, SymbolKind>,
) -> Result<ExceptionDef, CheckError> {
    let what = format!("exception `{}`", e.name);
    let mut members = Vec::new();
    for (mname, mty) in &e.members {
        let ty = resolve_type(mty, scope, symbols, e.pos, &what)?;
        members.push((mname.clone(), ty));
    }
    Ok(ExceptionDef {
        pos: e.pos,
        name: e.name.clone(),
        members,
    })
}

fn check_interface(
    i: &Interface,
    scope: &[String],
    symbols: &HashMap<String, SymbolKind>,
) -> Result<Interface, CheckError> {
    // Names inside the interface see its own exceptions first.
    let iscope = [scope, std::slice::from_ref(&i.name)].concat();
    let base = match &i.base {
        None => None,
        Some(b) => {
            let Some((abs, kind)) = lookup(symbols, scope, b) else {
                bail!(i.pos, "interface `{}`: unknown base `{b}`", i.name);
            };
            if kind != SymbolKind::Interface {
                bail!(
                    i.pos,
                    "interface `{}`: base `{b}` is not an interface",
                    i.name
                );
            }
            Some(abs)
        }
    };
    let mut names = std::collections::HashSet::new();
    let mut ops = Vec::new();
    for op in &i.ops {
        if !names.insert(op.name.clone()) {
            bail!(
                op.pos,
                "interface `{}`: duplicate operation `{}`",
                i.name,
                op.name
            );
        }
        let what = format!("operation `{}::{}`", i.name, op.name);
        let ret = match &op.ret {
            Type::Void => Type::Void,
            t => resolve_type(t, scope, symbols, op.pos, &what)?,
        };
        let mut params = Vec::new();
        let mut pnames = std::collections::HashSet::new();
        for p in &op.params {
            if !pnames.insert(p.name.clone()) {
                bail!(op.pos, "{what}: duplicate parameter `{}`", p.name);
            }
            params.push(Param {
                dir: p.dir,
                name: p.name.clone(),
                ty: resolve_type(&p.ty, scope, symbols, op.pos, &what)?,
            });
        }
        if op.oneway {
            if op.ret != Type::Void {
                bail!(op.pos, "{what}: oneway operations must return void");
            }
            if params.iter().any(|p| p.dir == Direction::Out) {
                bail!(
                    op.pos,
                    "{what}: oneway operations may only have `in` parameters"
                );
            }
            if !op.raises.is_empty() {
                bail!(op.pos, "{what}: oneway operations may not raise exceptions");
            }
        }
        let mut raises = Vec::new();
        for r in &op.raises {
            let Some((abs, kind)) = lookup(symbols, &iscope, r) else {
                bail!(op.pos, "{what}: unknown exception `{r}` in raises clause");
            };
            if kind != SymbolKind::Exception {
                bail!(op.pos, "{what}: `{r}` in raises clause is not an exception");
            }
            raises.push(abs);
        }
        ops.push(Operation {
            pos: op.pos,
            name: op.name.clone(),
            oneway: op.oneway,
            ret,
            params,
            raises,
        });
    }
    let exceptions = i
        .exceptions
        .iter()
        .map(|e| check_exception(e, &iscope, symbols))
        .collect::<Result<_, _>>()?;
    Ok(Interface {
        pos: i.pos,
        name: i.name.clone(),
        base,
        ops,
        exceptions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<Model, CheckError> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn resolves_scoped_names() {
        let m = check_src(
            "module A { struct P { double x; }; };
             module B { interface I { void f(in A::P p); }; };",
        )
        .unwrap();
        let Item::Interface { def, .. } = &m.items[1] else {
            panic!()
        };
        assert_eq!(def.ops[0].params[0].ty, Type::Named("A::P".into()));
    }

    #[test]
    fn resolves_sibling_names_unqualified() {
        let m = check_src("module A { struct P { double x; }; interface I { void f(in P p); }; };")
            .unwrap();
        let Item::Interface { def, .. } = &m.items[1] else {
            panic!()
        };
        assert_eq!(def.ops[0].params[0].ty, Type::Named("A::P".into()));
    }

    #[test]
    fn inheritance_flattens_ops() {
        let m = check_src(
            "interface Base { void a(); };
             interface Derived : Base { void b(); };",
        )
        .unwrap();
        let Item::Interface { all_ops, .. } = &m.items[1] else {
            panic!()
        };
        let names: Vec<_> = all_ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn repo_ids() {
        let m = check_src("module A { module B { interface I {}; }; };").unwrap();
        let Item::Interface { repo_id, .. } = &m.items[0] else {
            panic!()
        };
        assert_eq!(repo_id, "IDL:A/B/I:1.0");
    }

    #[test]
    fn interface_exceptions_sit_beside_the_trait_with_the_interface_in_their_id() {
        let m = check_src(
            "module A { interface I { exception E { string why; }; void f() raises (E); }; };",
        )
        .unwrap();
        let Item::Exception { scope, repo_id, .. } = &m.items[0] else {
            panic!()
        };
        assert_eq!(
            (scope.as_slice(), repo_id.as_str()),
            (&["A".to_string()][..], "IDL:A/I/E:1.0")
        );
        let Item::Interface { def, .. } = &m.items[1] else {
            panic!()
        };
        assert_eq!(def.ops[0].raises, ["A::I::E"]);
        let e = check_src("module A { struct E { double x; }; interface I { exception E {}; }; };")
            .unwrap_err();
        assert!(e.msg.contains("clashes"), "{e}");
    }

    #[test]
    fn duplicate_definition_rejected() {
        let e = check_src("struct S { double x; }; struct S { double y; };").unwrap_err();
        assert!(e.msg.contains("duplicate definition"), "{e}");
    }

    #[test]
    fn unknown_type_rejected() {
        let e = check_src("struct S { Missing x; };").unwrap_err();
        assert!(e.msg.contains("unknown type"), "{e}");
    }

    #[test]
    fn errors_carry_the_declaration_position() {
        let e = check_src("interface I {\n  void ok();\n  void f(in Missing m);\n};").unwrap_err();
        let want = "3:3: unknown type `Missing` in operation `I::f`";
        assert_eq!(e.to_string(), want);
    }

    #[test]
    fn any_object_and_native_across_a_unit() {
        let unit = |srcs: [&str; 2]| check(&crate::parser::parse_unit(srcs).unwrap());
        let m = unit([
            "module A { native Body; struct S { Body b; any v; }; };",
            "module B { interface I { Object f(in A::S s); }; };",
        ])
        .unwrap();
        let (Item::Struct { def: s, .. }, Item::Interface { def: i, .. }) =
            (&m.items[1], &m.items[2])
        else {
            panic!()
        };
        assert_eq!(s.members[0].1, Type::Named("A::Body".into()));
        assert_eq!(s.members[1].1.rust(), "::cdr::Any");
        assert_eq!(i.ops[0].ret.rust(), "::orb::Ior");
        assert_eq!(i.pos.file, 1);
        // A dangling cross-file name is reported in the file that uses it.
        let e = unit(["struct S { double x; };", "typedef T U;"]).unwrap_err();
        assert_eq!(e.pos.file, 1);
    }

    #[test]
    fn interface_as_data_type_rejected() {
        let e = check_src("interface I {}; struct S { I ref; };").unwrap_err();
        assert!(e.msg.contains("declare the parameter as `Object`"), "{e}");
    }

    #[test]
    fn oneway_constraints_enforced() {
        let e = check_src("interface I { oneway double f(); };").unwrap_err();
        assert!(e.msg.contains("must return void"), "{e}");
        let e = check_src("interface I { oneway void f(out double x); };").unwrap_err();
        assert!(e.msg.contains("`in` parameters"), "{e}");
        let e =
            check_src("exception E {}; interface I { oneway void f() raises (E); };").unwrap_err();
        assert!(e.msg.contains("may not raise"), "{e}");
    }

    #[test]
    fn raises_must_name_exception() {
        let e =
            check_src("struct S { double x; }; interface I { void f() raises (S); };").unwrap_err();
        assert!(e.msg.contains("not an exception"), "{e}");
    }

    #[test]
    fn base_must_exist_and_be_interface() {
        let e = check_src("interface D : Nope {};").unwrap_err();
        assert!(e.msg.contains("unknown base"), "{e}");
        let e = check_src("struct S { double x; }; interface D : S {};").unwrap_err();
        assert!(e.msg.contains("not an interface"), "{e}");
    }

    #[test]
    fn redefining_inherited_op_rejected() {
        let e = check_src("interface B { void f(); }; interface D : B { void f(); };").unwrap_err();
        assert!(e.msg.contains("redefines"), "{e}");
    }

    #[test]
    fn empty_enum_rejected() {
        // The parser requires one enumerator, so build via AST directly.
        let spec = Spec {
            defs: vec![Def::Enum(EnumDef {
                pos: Pos::default(),
                name: "E".into(),
                members: vec![],
            })],
        };
        assert!(check(&spec).is_err());
    }

    #[test]
    fn duplicate_members_rejected() {
        let e = check_src("struct S { double x; double x; };").unwrap_err();
        assert!(e.msg.contains("duplicate member"), "{e}");
        let e = check_src("enum E { A, A };").unwrap_err();
        assert!(e.msg.contains("duplicate enumerator"), "{e}");
        let e = check_src("interface I { void f(); void f(); };").unwrap_err();
        assert!(e.msg.contains("duplicate operation"), "{e}");
        let e = check_src("interface I { void f(in double a, in double a); };").unwrap_err();
        assert!(e.msg.contains("duplicate parameter"), "{e}");
    }
}
