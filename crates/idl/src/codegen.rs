//! Rust code generation from a checked [`Model`].
//!
//! For every IDL interface the generator emits four artifacts:
//!
//! 1. a **trait** the application implements on the server,
//! 2. a **skeleton** (`<I>Skeleton<T>`) implementing [`orb::Servant`] that
//!    unmarshals requests and dispatches to the trait,
//! 3. a **stub** (`<I>Stub`) wrapping an [`orb::ObjectRef`] with typed
//!    methods — the client side — plus one `OP_<NAME>` constant per wire
//!    operation for callers that build requests dynamically (DII), and
//! 4. a **fault-tolerant proxy** (`<I>FtProxy`) "derived from the stub
//!    class" exactly as the paper's §3 prescribes, routing every call
//!    through `ftproxy::FtProxy` which adds checkpoint-after-call and
//!    COMM_FAILURE recovery. The paper notes that writing these proxies by
//!    hand "could be easily automated by parsing the class definition" —
//!    this module is that automation. A `oneway` op has no proxy method:
//!    no reply comes back to checkpoint or recover, so callers use the
//!    stub.
//!
//! Structs, enums, typedefs and exceptions map to Rust types with CDR
//! marshalling; an exception declared inside an interface comes out
//! beside the interface's trait. IDL identifiers that are Rust keywords
//! come out as raw identifiers (`r#type`).

use std::borrow::Cow;
use std::fmt::Write;

use crate::ast::{Direction, Interface, Operation, Type};
use crate::check::{Item, Model};

/// Code generation options.
#[derive(Clone, Debug)]
pub struct GenOptions {
    /// Generate the fault-tolerant proxy classes (requires the generated
    /// code to link against the `ftproxy` crate).
    pub ft_proxies: bool,
    /// Header comment naming the source file.
    pub source_name: String,
}

/// Generate Rust source for the declarations of sources `first_file..`
/// of the compilation unit only (see [`crate::parse_unit`]). Earlier sources are
/// imports: what they declare may be named, but is compiled where it is
/// owned, so a reference to `M::T` from an import comes out as
/// `super::M::T` and the Rust code enclosing the generated module brings
/// `M` into scope.
pub fn generate_from(model: &Model, first_file: u32, opts: &GenOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by idlc from {} — DO NOT EDIT.\n\
         // Interfaces: trait + skeleton (server), stub (client){}.\n",
        opts.source_name,
        if opts.ft_proxies {
            ", fault-tolerant proxy"
        } else {
            ""
        }
    );
    let mut root = Node::default();
    for item in model.items.iter().filter(|i| i.pos().file >= first_file) {
        let mut node = &mut root;
        for seg in item.scope() {
            let idx = match node.children.iter().position(|(n, _)| n == seg) {
                Some(i) => i,
                None => {
                    node.children.push((seg.clone(), Node::default()));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx].1;
        }
        node.items.push(item);
    }
    let gen = Gen { model, opts };
    gen.emit_node(&mut out, &root, &[], 0);
    out
}

/// A module-tree node: items plus child modules, in first-appearance order.
#[derive(Default)]
struct Node<'a> {
    items: Vec<&'a Item>,
    children: Vec<(String, Node<'a>)>,
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// `name` as a Rust identifier. An IDL identifier that is a Rust keyword
/// becomes a raw identifier; the four keywords that cannot be raw get a
/// trailing underscore instead.
fn ident(name: &str) -> Cow<'_, str> {
    const KEYWORDS: &[&str] = &[
        "abstract", "as", "async", "await", "become", "box", "break", "const", "continue", "do",
        "dyn", "else", "enum", "extern", "false", "final", "fn", "for", "if", "impl", "in", "let",
        "loop", "macro", "match", "mod", "move", "mut", "override", "priv", "pub", "ref", "return",
        "static", "struct", "trait", "true", "try", "type", "typeof", "unsafe", "unsized", "use",
        "virtual", "where", "while", "yield",
    ];
    if matches!(name, "crate" | "self" | "Self" | "super") {
        Cow::Owned(format!("{name}_"))
    } else if KEYWORDS.contains(&name) {
        Cow::Owned(format!("r#{name}"))
    } else {
        Cow::Borrowed(name)
    }
}

/// Rust path from code inside module `from` to the absolute IDL name
/// `abs` (segments joined by `::`).
fn rel_path(from: &[String], abs: &str) -> String {
    let segs: Vec<&str> = abs.split("::").collect();
    let (target_scope, name) = segs.split_at(segs.len() - 1);
    let common = from
        .iter()
        .zip(target_scope.iter())
        .take_while(|(a, b)| a.as_str() == **b)
        .count();
    let ups = from.len() - common;
    let mut path = String::new();
    for _ in 0..ups {
        path.push_str("super::");
    }
    for seg in &target_scope[common..] {
        path.push_str(&ident(seg));
        path.push_str("::");
    }
    path.push_str(&ident(name[0]));
    path
}

/// Rust spelling of a type as seen from inside module `scope`.
fn rust_ty(ty: &Type, scope: &[String]) -> String {
    match ty {
        Type::Sequence(inner) => format!("Vec<{}>", rust_ty(inner, scope)),
        Type::Named(abs) => rel_path(scope, abs),
        other => other.rust(),
    }
}

/// Rust spelling of an in-parameter on the client side: by reference,
/// `string` as `&str`.
fn arg_ty(ty: &Type, scope: &[String]) -> String {
    match ty {
        Type::String => "&str".to_string(),
        other => format!("&{}", rust_ty(other, scope)),
    }
}

/// In-direction parameter list `(name, type)` (what goes on the wire in
/// the request body).
fn in_params(op: &Operation) -> Vec<(Cow<'_, str>, &Type)> {
    op.params
        .iter()
        .filter(|p| p.dir == Direction::In)
        .map(|p| (ident(&p.name), &p.ty))
        .collect()
}

/// Result parts (what comes back in the reply body): the return value if
/// non-void, then the `out` parameters in declaration order.
fn result_parts(op: &Operation) -> Vec<&Type> {
    let ret = (op.ret != Type::Void).then_some(&op.ret);
    let outs = op.params.iter().filter(|p| p.dir == Direction::Out);
    ret.into_iter().chain(outs.map(|p| &p.ty)).collect()
}

/// Rust type of the reply body.
fn result_ty(op: &Operation, scope: &[String]) -> String {
    let parts = result_parts(op);
    match parts.len() {
        0 => "()".to_string(),
        1 => rust_ty(parts[0], scope),
        _ => {
            let inner: Vec<String> = parts.iter().map(|t| rust_ty(t, scope)).collect();
            format!("({})", inner.join(", "))
        }
    }
}

/// `name: Type` member list of a struct or exception.
fn members(members: &[(String, Type)], scope: &[String]) -> String {
    let members: Vec<String> = members
        .iter()
        .map(|(n, t)| format!("{}: {}", ident(n), rust_ty(t, scope)))
        .collect();
    members.join(", ")
}

/// What one `generate_from` call works from.
struct Gen<'a> {
    model: &'a Model,
    opts: &'a GenOptions,
}

impl Gen<'_> {
    fn emit_node(&self, out: &mut String, node: &Node<'_>, scope: &[String], level: usize) {
        for item in &node.items {
            self.emit_item(out, item, scope, level);
        }
        for (name, child) in &node.children {
            indent(out, level);
            let _ = writeln!(
                out,
                "#[allow(non_snake_case, non_camel_case_types, dead_code, clippy::let_unit_value, clippy::allow_attributes, clippy::allow_attributes_without_reason)]"
            );
            indent(out, level);
            let _ = writeln!(out, "pub mod {} {{", ident(name));
            let mut inner_scope = scope.to_vec();
            inner_scope.push(name.clone());
            self.emit_node(out, child, &inner_scope, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
    }

    /// Whether every value of `ty` is made of integers, booleans, strings
    /// and enumerators only, so the Rust type can be totally ordered and
    /// hashed (a map key, like `CosNaming::NameComponent`). `seen` breaks
    /// the cycle of a struct that contains a sequence of itself.
    fn discrete<'t>(&'t self, ty: &'t Type, seen: &mut Vec<&'t str>) -> bool {
        match ty {
            Type::Float | Type::Double | Type::Any | Type::Object | Type::Void => false,
            Type::Sequence(inner) => self.discrete(inner, seen),
            Type::Named(abs) => {
                if seen.contains(&abs.as_str()) {
                    return true;
                }
                seen.push(abs);
                let path: Vec<&str> = abs.split("::").collect();
                let item = self.model.items.iter().find(|i| {
                    let scope = i.scope().iter().map(String::as_str);
                    scope.chain([i.name()]).eq(path.iter().copied())
                });
                match item {
                    Some(Item::Struct { def, .. }) => {
                        def.members.iter().all(|(_, t)| self.discrete(t, seen))
                    }
                    Some(Item::Typedef { def, .. }) => self.discrete(&def.ty, seen),
                    Some(Item::Enum { .. }) => true,
                    _ => false,
                }
            }
            _ => true,
        }
    }

    fn emit_item(&self, out: &mut String, item: &Item, scope: &[String], level: usize) {
        match item {
            Item::Struct { def, .. } => {
                indent(out, level);
                let ordered = def
                    .members
                    .iter()
                    .all(|(_, t)| self.discrete(t, &mut Vec::new()));
                let _ = writeln!(
                    out,
                    "::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] {}{} {{ {} }});",
                    if ordered {
                        "#[derive(Eq, PartialOrd, Ord, Hash)] "
                    } else {
                        ""
                    },
                    ident(&def.name),
                    members(&def.members, scope)
                );
            }
            Item::Enum { def, .. } => {
                indent(out, level);
                let members: Vec<String> = def
                    .members
                    .iter()
                    .enumerate()
                    .map(|(i, n)| format!("{} = {i}", ident(n)))
                    .collect();
                let _ = writeln!(
                    out,
                    "::cdr::cdr_enum!(#[allow(non_camel_case_types)] \
                     #[derive(PartialOrd, Ord, Hash)] {} {{ {} }});",
                    ident(&def.name),
                    members.join(", ")
                );
            }
            Item::Typedef { def, .. } => {
                indent(out, level);
                let _ = writeln!(
                    out,
                    "#[allow(non_camel_case_types)] pub type {} = {};",
                    ident(&def.name),
                    rust_ty(&def.ty, scope)
                );
            }
            Item::Exception { def, repo_id, .. } => {
                let name = ident(&def.name);
                let members = match members(&def.members, scope) {
                    m if m.is_empty() => "{}".to_string(),
                    m => format!("{{ {m} }}"),
                };
                indent(out, level);
                let _ = writeln!(
                    out,
                    "::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] {name} {members});"
                );
                indent(out, level);
                let _ = writeln!(out, "impl {name} {{");
                indent(out, level + 1);
                let _ = writeln!(out, "pub const REPO_ID: &'static str = {repo_id:?};");
                indent(out, level + 1);
                let _ = writeln!(
                    out,
                    "pub fn raise(self) -> ::orb::Exception {{ \
                     ::orb::Exception::User(::orb::UserException::new(Self::REPO_ID, &self)) }}"
                );
                indent(out, level + 1);
                let _ = writeln!(
                    out,
                    "pub fn extract(e: &::orb::Exception) -> Option<Self> {{ \
                     match e {{ ::orb::Exception::User(u) if u.id == Self::REPO_ID => \
                     u.members().ok(), _ => None }} }}"
                );
                indent(out, level);
                let _ = writeln!(out, "}}");
            }
            Item::Interface {
                def,
                repo_id,
                all_ops,
                ..
            } => {
                self.emit_interface(out, def, repo_id, all_ops, scope, level);
            }
            // Opaque to IDL: the Rust code enclosing the generated module
            // defines the type (at top level it is already in scope).
            Item::Native { def, .. } => {
                if !scope.is_empty() {
                    indent(out, level);
                    let _ = writeln!(out, "pub use super::{};", ident(&def.name));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_interface(
        &self,
        out: &mut String,
        def: &Interface,
        repo_id: &str,
        all_ops: &[Operation],
        scope: &[String],
        level: usize,
    ) {
        // `<I>Skeleton` and friends are never keywords; the bare name may be.
        let name = &def.name;
        let trait_name = ident(name);

        // ---- trait -------------------------------------------------------
        indent(out, level);
        let supertrait = match &def.base {
            Some(base) => format!(": {}", rel_path(scope, base)),
            None => String::new(),
        };
        let _ = writeln!(out, "#[allow(non_camel_case_types)]");
        indent(out, level);
        let _ = writeln!(out, "pub trait {trait_name}{supertrait} {{");
        for op in &def.ops {
            let args: Vec<String> = in_params(op)
                .iter()
                .map(|(n, t)| format!(", {n}: {}", rust_ty(t, scope)))
                .collect();
            indent(out, level + 1);
            let _ = writeln!(
                out,
                "fn {}(&mut self, call: &mut ::orb::CallCtx<'_>{}) -> Result<{}, ::orb::Exception>;",
                ident(&op.name),
                args.join(""),
                result_ty(op, scope)
            );
        }
        indent(out, level);
        let _ = writeln!(out, "}}");

        // ---- skeleton ----------------------------------------------------
        indent(out, level);
        let _ = writeln!(out, "#[allow(non_camel_case_types)]");
        indent(out, level);
        let _ = writeln!(out, "pub struct {name}Skeleton<T: {trait_name}>(pub T);");
        indent(out, level);
        let _ = writeln!(out, "impl<T: {trait_name}> {name}Skeleton<T> {{");
        indent(out, level + 1);
        let _ = writeln!(out, "pub const REPO_ID: &'static str = {repo_id:?};");
        indent(out, level);
        let _ = writeln!(out, "}}");
        indent(out, level);
        let _ = writeln!(
            out,
            "impl<T: {trait_name}> ::orb::Servant for {name}Skeleton<T> {{"
        );
        indent(out, level + 1);
        let _ = writeln!(
            out,
            "fn dispatch(&mut self, call: &mut ::orb::CallCtx<'_>, op: &str, args: &[u8]) \
             -> Result<Vec<u8>, ::orb::Exception> {{"
        );
        indent(out, level + 2);
        let _ = writeln!(out, "match op {{");
        for op in all_ops {
            let ins = in_params(op);
            indent(out, level + 3);
            let _ = write!(out, "{:?} => {{ ", op.name);
            if ins.is_empty() {
                let _ = write!(
                    out,
                    "::cdr::from_bytes::<()>(args).map_err(|e| \
                     ::orb::Exception::System(::orb::SystemException::marshal(e)))?; "
                );
            } else {
                let names: Vec<&str> = ins.iter().map(|(n, _)| n.as_ref()).collect();
                let tys: Vec<String> = ins.iter().map(|(_, t)| rust_ty(t, scope)).collect();
                let _ = write!(
                    out,
                    "let ({},): ({},) = ::cdr::from_bytes(args).map_err(|e| \
                     ::orb::Exception::System(::orb::SystemException::marshal(e)))?; ",
                    names.join(", "),
                    tys.join(", ")
                );
            }
            let args: Vec<String> = ins.iter().map(|(n, _)| format!(", {n}")).collect();
            let _ = writeln!(
                out,
                "let r = self.0.{}(call{})?; Ok(::cdr::to_bytes(&r)) }}",
                ident(&op.name),
                args.join("")
            );
        }
        indent(out, level + 3);
        let _ = writeln!(
            out,
            "other => Err(::orb::Exception::System(\
             ::orb::SystemException::bad_operation(other))),"
        );
        indent(out, level + 2);
        let _ = writeln!(out, "}}");
        indent(out, level + 1);
        let _ = writeln!(out, "}}");
        indent(out, level);
        let _ = writeln!(out, "}}");

        // ---- stub --------------------------------------------------------
        indent(out, level);
        let _ = writeln!(out, "#[allow(non_camel_case_types)]");
        indent(out, level);
        let _ = writeln!(out, "#[derive(Clone, Debug)]");
        indent(out, level);
        let _ = writeln!(
            out,
            "pub struct {name}Stub {{ pub obj: ::orb::ObjectRef, \
             pub deadline: Option<::simnet::SimDuration> }}"
        );
        indent(out, level);
        let _ = writeln!(out, "impl {name}Stub {{");
        indent(out, level + 1);
        let _ = writeln!(out, "pub const REPO_ID: &'static str = {repo_id:?};");
        for op in all_ops {
            indent(out, level + 1);
            let _ = writeln!(
                out,
                "pub const OP_{}: &'static str = {:?};",
                op.name.to_uppercase(),
                op.name
            );
        }
        indent(out, level + 1);
        let _ = writeln!(
            out,
            "pub fn new(obj: ::orb::ObjectRef) -> Self {{ Self {{ obj, deadline: None }} }}"
        );
        indent(out, level + 1);
        let _ = writeln!(
            out,
            "pub fn from_ior(ior: ::orb::Ior) -> Self {{ Self::new(::orb::ObjectRef::new(ior)) }}"
        );
        indent(out, level + 1);
        let _ = writeln!(
            out,
            "/// Reply deadline of every call through this reference (`None`: the ORB's)."
        );
        indent(out, level + 1);
        let _ = writeln!(
            out,
            "pub fn with_deadline(mut self, deadline: Option<::simnet::SimDuration>) -> Self {{ \
             self.deadline = deadline; self }}"
        );
        emit_client_methods(out, all_ops, scope, level, false);
        indent(out, level);
        let _ = writeln!(out, "}}");

        // ---- fault-tolerant proxy (paper §3, alternative (c)) -------------
        if self.opts.ft_proxies {
            indent(out, level);
            let _ = writeln!(out, "#[allow(non_camel_case_types)]");
            indent(out, level);
            let _ = writeln!(
                out,
                "pub struct {name}FtProxy {{ pub inner: ::ftproxy::FtProxy }}"
            );
            indent(out, level);
            let _ = writeln!(out, "impl {name}FtProxy {{");
            indent(out, level + 1);
            let _ = writeln!(out, "pub const REPO_ID: &'static str = {repo_id:?};");
            indent(out, level + 1);
            let _ = writeln!(
                out,
                "pub fn new(inner: ::ftproxy::FtProxy) -> Self {{ Self {{ inner }} }}"
            );
            emit_client_methods(out, all_ops, scope, level, true);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
    }
}

/// The typed methods of a stub, or of an FT proxy (`proxy`), which has
/// none for a `oneway` op.
fn emit_client_methods(
    out: &mut String,
    all_ops: &[Operation],
    scope: &[String],
    level: usize,
    proxy: bool,
) {
    for op in all_ops.iter().filter(|op| !(proxy && op.oneway)) {
        let m = ident(&op.name);
        let ins = in_params(op);
        let args: Vec<String> = ins
            .iter()
            .map(|(n, t)| format!(", {n}: {}", arg_ty(t, scope)))
            .collect();
        let arg_tuple = if ins.is_empty() {
            "&()".to_string()
        } else {
            let names: Vec<&str> = ins.iter().map(|(n, _)| n.as_ref()).collect();
            format!("&({},)", names.join(", "))
        };
        indent(out, level + 1);
        let _ = if proxy {
            writeln!(
                out,
                "pub fn {m}(&mut self, env: &mut ::ftproxy::ProxyEnv<'_>{}) \
                 -> ::simnet::SimResult<Result<{}, ::orb::Exception>> {{ \
                 self.inner.call(env, {:?}, {arg_tuple}) }}",
                args.join(""),
                result_ty(op, scope),
                op.name
            )
        } else if op.oneway {
            writeln!(
                out,
                "pub fn {m}(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx{}) \
                 -> ::simnet::SimResult<()> {{ \
                 self.obj.oneway(orb, ctx, {:?}, {arg_tuple}) }}",
                args.join(""),
                op.name
            )
        } else {
            writeln!(
                out,
                "pub fn {m}(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx{}) \
                 -> ::simnet::SimResult<Result<{}, ::orb::Exception>> {{ \
                 self.obj.call_with_timeout(orb, ctx, {:?}, {arg_tuple}, self.deadline) }}",
                args.join(""),
                result_ty(op, scope),
                op.name
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;

    fn opts() -> GenOptions {
        GenOptions {
            ft_proxies: true,
            source_name: "<idl>".into(),
        }
    }

    fn gen(src: &str) -> String {
        let model = check(&parse(src).unwrap()).unwrap();
        generate_from(&model, 0, &opts())
    }

    const WORKER_IDL: &str = r#"
        module Optim {
            typedef sequence<double> DoubleSeq;
            struct SubProblem { unsigned long id; DoubleSeq lower; DoubleSeq upper; };
            exception SolveFailed { string reason; };
            interface Worker {
                exception Busy { unsigned long queued; };
                double solve(in SubProblem sub, in unsigned long iters) raises (SolveFailed, Busy);
                void state(out DoubleSeq snapshot);
                oneway void log(in string msg);
            };
            interface FtWorker : Worker {
                void restore(in DoubleSeq snapshot);
            };
        };
    "#;

    #[test]
    fn generates_all_artifacts() {
        let code = gen(WORKER_IDL);
        for needle in [
            "pub mod Optim",
            "pub type DoubleSeq = Vec<f64>;",
            "SubProblem { id: u32, lower: DoubleSeq, upper: DoubleSeq }",
            "SolveFailed { reason: String }",
            "pub trait Worker {",
            "pub struct WorkerSkeleton<T: Worker>(pub T);",
            "impl<T: Worker> ::orb::Servant for WorkerSkeleton<T>",
            "pub struct WorkerStub",
            "pub struct WorkerFtProxy",
            "pub trait FtWorker: Worker {",
            "\"IDL:Optim/Worker:1.0\"",
        ] {
            assert!(code.contains(needle), "missing {needle:?} in:\n{code}");
        }
    }

    #[test]
    fn interface_exceptions_come_out_beside_the_trait() {
        let code = gen(WORKER_IDL);
        let busy = code
            .find("non_snake_case)] Busy { queued: u32 }")
            .expect("Busy");
        assert!(busy < code.find("pub trait Worker {").unwrap(), "{code}");
        assert!(code.contains("pub const REPO_ID: &'static str = \"IDL:Optim/Worker/Busy:1.0\";"));
        assert!(code.contains("\"IDL:Optim/SolveFailed:1.0\""));
    }

    #[test]
    fn out_params_become_results() {
        let code = gen(WORKER_IDL);
        // `void state(out DoubleSeq snapshot)` → returns DoubleSeq.
        assert!(
            code.contains("fn state(&mut self, call: &mut ::orb::CallCtx<'_>) -> Result<DoubleSeq, ::orb::Exception>;"),
            "{code}"
        );
    }

    #[test]
    fn stubs_carry_op_names_and_a_reply_deadline() {
        let code = gen(WORKER_IDL);
        let stub = &code[code.find("pub struct WorkerStub").unwrap()..];
        assert!(stub.contains("pub deadline: Option<::simnet::SimDuration>"));
        assert!(stub.contains("pub const OP_SOLVE: &'static str = \"solve\";"));
        assert!(stub.contains("pub fn with_deadline(mut self"));
        assert!(
            stub.contains(
                "self.obj.call_with_timeout(orb, ctx, \"solve\", &(sub, iters,), self.deadline)"
            ),
            "{stub}"
        );
        // A derived stub names the inherited ops too.
        let derived = &code[code.find("pub struct FtWorkerStub").unwrap()..];
        assert!(derived.contains("OP_SOLVE") && derived.contains("OP_RESTORE"));
    }

    #[test]
    fn string_in_params_are_str_slices_on_the_client() {
        let code = gen(WORKER_IDL);
        assert!(
            code.contains("ctx: &mut ::simnet::Ctx, msg: &str)"),
            "{code}"
        );
        assert!(code.contains("fn log(&mut self, call: &mut ::orb::CallCtx<'_>, msg: String)"));
    }

    #[test]
    fn rust_keywords_become_raw_identifiers() {
        let code = gen("module M { struct S { long type; string self; };
                        interface I { void move(in Object ref, in S loop); }; };");
        for needle in [
            "S { r#type: i32, self_: String }",
            "fn r#move(&mut self, call: &mut ::orb::CallCtx<'_>, r#ref: ::orb::Ior, r#loop: S)",
            "\"move\" => { let (r#ref, r#loop,): (::orb::Ior, S,)",
            "self.0.r#move(call, r#ref, r#loop)",
            "pub const OP_MOVE: &'static str = \"move\";",
            "pub fn r#move(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, r#ref: &::orb::Ior, r#loop: &S)",
        ] {
            assert!(code.contains(needle), "missing {needle:?} in:\n{code}");
        }
        let code = gen("module type { struct P { double x; }; };
                        module B { interface I { void f(in type::P p); }; };");
        assert!(code.contains("pub mod r#type {"), "{code}");
        assert!(code.contains("p: super::r#type::P"), "{code}");
    }

    #[test]
    fn discrete_structs_and_enums_can_be_map_keys() {
        let code = gen("module M {
            enum Kind { a, b };
            struct Key { string id; Kind kind; sequence<unsigned long> path; };
            struct Tree { Key k; sequence<Tree> kids; };
            struct Sample { Key k; double v; };
            native Opaque;
            struct Wrapped { Opaque o; };
        };");
        let ordered = "#[derive(Eq, PartialOrd, Ord, Hash)]";
        assert!(code.contains(&format!("{ordered} Key {{")), "{code}");
        assert!(code.contains(&format!("{ordered} Tree {{")), "{code}");
        assert!(
            code.contains("#[derive(PartialOrd, Ord, Hash)] Kind {"),
            "{code}"
        );
        assert!(code.contains("non_snake_case)] Sample {"), "{code}");
        assert!(code.contains("non_snake_case)] Wrapped {"), "{code}");
    }

    #[test]
    fn imports_are_named_not_emitted() {
        let unit = [
            "module A { struct P { double x; }; interface Base { void f(); }; };",
            "module B { interface I : A::Base { void g(in A::P p); }; };",
        ];
        let model = check(&crate::parser::parse_unit(unit).unwrap()).unwrap();
        let code = generate_from(&model, 1, &opts());
        assert!(!code.contains("pub mod A"), "{code}");
        assert!(code.contains("pub trait I: super::A::Base {"), "{code}");
        assert!(code.contains("p: super::A::P"), "{code}");
        // The derived skeleton still dispatches the imported base's ops.
        assert!(
            code.contains("\"f\" =>") && code.contains("\"g\" =>"),
            "{code}"
        );
        assert!(generate_from(&model, 0, &opts()).contains("pub mod A"));
    }

    #[test]
    fn oneway_maps_to_a_oneway_stub_call_and_no_proxy_method() {
        let code = gen(WORKER_IDL);
        assert!(code.contains("self.obj.oneway(orb, ctx, \"log\""));
        let proxy = &code[code.find("pub struct WorkerFtProxy").unwrap()..];
        let proxy = &proxy[..proxy.find("pub trait FtWorker").unwrap()];
        assert!(proxy.contains("self.inner.call(env, \"solve\""), "{proxy}");
        assert!(!proxy.contains("fn log("), "{proxy}");
    }

    #[test]
    fn derived_skeleton_dispatches_base_ops() {
        let code = gen(WORKER_IDL);
        // The FtWorker skeleton must handle the inherited `solve`.
        let skel_start = code.find("pub struct FtWorkerSkeleton").unwrap();
        let skel = &code[skel_start..];
        assert!(skel.contains("\"solve\""), "{skel}");
        assert!(skel.contains("\"restore\""));
    }

    #[test]
    fn cross_module_references_use_relative_paths() {
        let code = gen("module A { struct P { double x; }; };
                        module B { interface I { void f(in A::P p); }; };");
        assert!(code.contains("super::A::P"), "{code}");
    }

    #[test]
    fn native_types_come_from_the_enclosing_rust_scope() {
        let code = gen("module M { native Body; struct S { Body b; any v; Object o; }; };");
        assert!(code.contains("pub use super::Body;"), "{code}");
        assert!(
            code.contains("S { b: Body, v: ::cdr::Any, o: ::orb::Ior }"),
            "{code}"
        );
    }

    #[test]
    fn proxies_can_be_disabled() {
        let model = check(&parse(WORKER_IDL).unwrap()).unwrap();
        let code = generate_from(
            &model,
            0,
            &GenOptions {
                ft_proxies: false,
                source_name: "x.idl".into(),
            },
        );
        assert!(!code.contains("FtProxy"));
    }

    #[test]
    fn mixed_in_out_signature() {
        let code = gen("interface I { double f(in long a, out double b, in string c); };");
        // args: a, c; results: (f64 ret, f64 b)
        assert!(
            code.contains("fn f(&mut self, call: &mut ::orb::CallCtx<'_>, a: i32, c: String) -> Result<(f64, f64), ::orb::Exception>;"),
            "{code}"
        );
    }

    #[test]
    fn rel_path_cases() {
        let from = vec!["A".to_string(), "B".to_string()];
        assert_eq!(rel_path(&from, "A::B::T"), "T");
        assert_eq!(rel_path(&from, "A::T"), "super::T");
        assert_eq!(rel_path(&from, "C::T"), "super::super::C::T");
        assert_eq!(rel_path(&[], "T"), "T");
        assert_eq!(rel_path(&[], "C::T"), "C::T");
    }
}
