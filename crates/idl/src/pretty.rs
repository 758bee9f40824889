//! Pretty-printer: renders an AST back to IDL source. Together with the
//! parser this gives the round-trip property `parse(pretty(ast)) == ast`,
//! which the property tests exercise.

use std::fmt::Write;

use crate::ast::*;

/// Render a spec as IDL source.
pub fn pretty(spec: &Spec) -> String {
    let mut out = String::new();
    for def in &spec.defs {
        emit_def(&mut out, def, 0);
    }
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn emit_def(out: &mut String, def: &Def, level: usize) {
    match def {
        Def::Module(m) => {
            indent(out, level);
            let _ = writeln!(out, "module {} {{", m.name);
            for d in &m.defs {
                emit_def(out, d, level + 1);
            }
            indent(out, level);
            let _ = writeln!(out, "}};");
        }
        Def::Struct(s) => {
            indent(out, level);
            let _ = writeln!(out, "struct {} {{", s.name);
            for (n, t) in &s.members {
                indent(out, level + 1);
                let _ = writeln!(out, "{} {n};", ty(t));
            }
            indent(out, level);
            let _ = writeln!(out, "}};");
        }
        Def::Enum(e) => {
            indent(out, level);
            let _ = writeln!(out, "enum {} {{ {} }};", e.name, e.members.join(", "));
        }
        Def::Typedef(t) => {
            indent(out, level);
            let _ = writeln!(out, "typedef {} {};", ty(&t.ty), t.name);
        }
        Def::Exception(e) => {
            indent(out, level);
            let _ = writeln!(out, "exception {} {{", e.name);
            for (n, t) in &e.members {
                indent(out, level + 1);
                let _ = writeln!(out, "{} {n};", ty(t));
            }
            indent(out, level);
            let _ = writeln!(out, "}};");
        }
        Def::Native(n) => {
            indent(out, level);
            let _ = writeln!(out, "native {};", n.name);
        }
        Def::Interface(i) => {
            indent(out, level);
            match &i.base {
                Some(b) => {
                    let _ = writeln!(out, "interface {} : {b} {{", i.name);
                }
                None => {
                    let _ = writeln!(out, "interface {} {{", i.name);
                }
            }
            for a in &i.attrs {
                indent(out, level + 1);
                let ro = if a.readonly { "readonly " } else { "" };
                let _ = writeln!(out, "{ro}attribute {} {};", ty(&a.ty), a.name);
            }
            for op in &i.ops {
                indent(out, level + 1);
                let ow = if op.oneway { "oneway " } else { "" };
                let params: Vec<String> = op
                    .params
                    .iter()
                    .map(|p| {
                        let dir = match p.dir {
                            Direction::In => "in",
                            Direction::Out => "out",
                            Direction::InOut => "inout",
                        };
                        format!("{dir} {} {}", ty(&p.ty), p.name)
                    })
                    .collect();
                let raises = if op.raises.is_empty() {
                    String::new()
                } else {
                    format!(" raises ({})", op.raises.join(", "))
                };
                let ret = match &op.ret {
                    Type::Void => "void".to_string(),
                    t => ty(t),
                };
                let _ = writeln!(out, "{ow}{ret} {}({}){raises};", op.name, params.join(", "));
            }
            indent(out, level);
            let _ = writeln!(out, "}};");
        }
    }
}

fn ty(t: &Type) -> String {
    match t {
        Type::Void => "void".into(),
        Type::Boolean => "boolean".into(),
        Type::Octet => "octet".into(),
        Type::Short => "short".into(),
        Type::UShort => "unsigned short".into(),
        Type::Long => "long".into(),
        Type::ULong => "unsigned long".into(),
        Type::LongLong => "long long".into(),
        Type::ULongLong => "unsigned long long".into(),
        Type::Float => "float".into(),
        Type::Double => "double".into(),
        Type::String => "string".into(),
        Type::Any => "any".into(),
        Type::Object => "Object".into(),
        Type::Sequence(inner) => format!("sequence<{}>", ty(inner)),
        Type::Named(n) => n.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trips_a_module() {
        let src = r#"
            module M {
                typedef sequence<unsigned long long> Ids;
                struct S { double x; Ids ids; };
                enum E { A, B };
                exception Bad { string why; };
                interface I {
                    readonly attribute long n;
                    double f(in S s, inout double d, out string msg) raises (Bad);
                    oneway void log(in string m);
                };
                interface J : I { void g(); };
            };
        "#;
        let ast = parse(src).unwrap();
        let printed = pretty(&ast);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(ast, reparsed, "pretty output:\n{printed}");
    }

    #[test]
    fn fixpoint_after_one_round() {
        let src = "interface I { void f(in double a); };";
        let once = pretty(&parse(src).unwrap());
        let twice = pretty(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }
}
