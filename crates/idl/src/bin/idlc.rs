//! `idlc` command-line interface: compile IDL files to Rust source.
//!
//! Usage: `idlc [IMPORT.idl... --] INPUT.idl... [-o OUTPUT.rs] [--no-ft-proxies]`
//!
//! All files named form one compilation unit, in the order given. Rust is
//! emitted for the INPUTs; an IMPORT only supplies the declarations the
//! inputs name (`idlc idl/ft.idl -- idl/store.idl` compiles `Store`,
//! which uses `FT::Checkpoint`, without emitting `FT` a second time).

use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: idlc [IMPORT.idl... --] INPUT.idl... [-o OUTPUT.rs] [--no-ft-proxies]";

fn main() -> ExitCode {
    // `(path, source)`; the files before the `--`, if one was given, are
    // imports.
    let mut files: Vec<(String, String)> = Vec::new();
    let mut separator: Option<usize> = None;
    let mut output: Option<String> = None;
    let mut ft_proxies = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" | "--output" => match args.next() {
                Some(p) => output = Some(p),
                None => {
                    eprintln!("idlc: -o requires a path");
                    return ExitCode::from(2);
                }
            },
            "--no-ft-proxies" => ft_proxies = false,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--" if separator.is_none() => separator = Some(files.len()),
            "--" => {
                eprintln!("idlc: more than one `--`");
                return ExitCode::from(2);
            }
            other if other.starts_with('-') => {
                eprintln!("idlc: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
            other => files.push((other.to_string(), String::new())),
        }
    }
    let imports = separator.unwrap_or(0);
    if files.len() == imports {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    for (path, source) in &mut files {
        match std::fs::read_to_string(&path) {
            Ok(s) => *source = s,
            Err(e) => {
                eprintln!("idlc: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let rust = match idlc::compile_files(&files, imports, ft_proxies) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("idlc: {}: {e}", files[e.pos.file as usize].0);
            return ExitCode::FAILURE;
        }
    };
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rust) {
                eprintln!("idlc: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let _ = std::io::stdout().write_all(rust.as_bytes());
        }
    }
    ExitCode::SUCCESS
}
