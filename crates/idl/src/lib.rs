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
//! compilation unit through [`parse_unit`].
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

pub use check::{check, repo_id, CheckError, Item, Model, SymbolKind};
pub use codegen::{generate, GenOptions};
pub use lexer::{lex, TokKind, Token};
pub use parser::{parse, parse_unit, ParseError};
pub use pretty::pretty;

/// Compile IDL source to Rust source in one step.
pub fn compile(src: &str, opts: &GenOptions) -> Result<String, String> {
    let spec = parse(src).map_err(|e| e.to_string())?;
    let model = check(&spec).map_err(|e| e.to_string())?;
    Ok(generate(&model, opts))
}
