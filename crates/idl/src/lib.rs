//! # idlc — a compiler for a CORBA IDL subset
//!
//! The paper's fault-tolerance proxies were written by hand, with the
//! remark that the work "could be easily automated by parsing the class
//! definition" (§3). `idlc` is that automation: it parses IDL and emits
//! Rust source containing, per interface,
//!
//! * a server-side **trait** and **skeleton** (an `orb`-compatible
//!   servant),
//! * a client-side **stub** over `orb::ObjectRef`, and
//! * a **fault-tolerant proxy** "derived from the stub" that routes every
//!   call through `ftproxy::FtProxy` (checkpoint-after-call plus
//!   COMM_FAILURE recovery).
//!
//! Supported IDL — what the workspace's contracts use: modules,
//! interfaces with single inheritance, operations (`in`/`out`
//! parameters, `oneway`, `raises`), exceptions at module or interface
//! scope, structs, enums, typedefs, sequences, the primitive types,
//! `any`, `Object` references, and `native` (Rust-defined) types.
//! Attributes and `inout` parameters are rejected where they stand.
//! Several files form one compilation unit through [`parse_unit`];
//! [`generate_from`] then emits the declarations of some of them, which
//! is how each crate of this workspace compiles the contract it owns
//! against the ones it names.
//!
//! ```
//! let src = "module M { interface Hello { string greet(in string who); }; };";
//! let files = [("hello.idl".to_string(), src.to_string())];
//! let rust = idlc::compile_files(&files, 0, true).unwrap();
//! assert!(rust.contains("pub struct HelloStub"));
//! ```

pub mod ast;
mod check;
mod codegen;
mod lexer;
mod parser;

pub use check::{check, CheckError, Item, Model};
pub use codegen::{generate_from, GenOptions};
pub use parser::{parse_unit, ParseError};

/// Compile `(path, source)` files as one compilation unit, in the order
/// given, and generate Rust for all but the first `imports` of them; the
/// header comment names them all. What the `idlc` command line does. An
/// error's [`ast::Pos::file`] indexes `files`.
pub fn compile_files(
    files: &[(String, String)],
    imports: usize,
    ft_proxies: bool,
) -> Result<String, ParseError> {
    let spec = parse_unit(files.iter().map(|(_, src)| src.as_str()))?;
    let model = check(&spec)?;
    let paths = |files: &[(String, String)]| -> String {
        let paths: Vec<&str> = files.iter().map(|(path, _)| path.as_str()).collect();
        paths.join(" ")
    };
    let mut source_name = paths(&files[imports..]);
    if imports > 0 {
        source_name += &format!(" (imports {})", paths(&files[..imports]));
    }
    let opts = GenOptions {
        ft_proxies,
        source_name,
    };
    Ok(generate_from(&model, imports as u32, &opts))
}
