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
//! Supported IDL: modules, interfaces with single inheritance, operations
//! (in/out/inout, `oneway`, `raises`), attributes, structs, enums,
//! typedefs, sequences, exceptions, the primitive types, `any`, `Object`
//! references, and `native` (Rust-defined) types. Several files form one
//! compilation unit through [`parse_unit`]; [`generate_from`] then emits
//! the declarations of some of them, which is how each crate of this
//! workspace compiles the contract it owns against the ones it names.
//!
//! ```
//! let src = "module M { interface Hello { string greet(in string who); }; };";
//! let spec = idlc::parse(src).unwrap();
//! let model = idlc::check(&spec).unwrap();
//! let rust = idlc::generate(&model, &idlc::GenOptions::default());
//! assert!(rust.contains("pub struct HelloStub"));
//! ```

pub mod ast;
mod check;
mod codegen;
mod lexer;
mod parser;
mod pretty;

pub use check::{check, CheckError, Item, Model};
pub use codegen::{generate, generate_from, GenOptions};
pub use parser::{parse, parse_unit, ParseError};
pub use pretty::pretty;

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
