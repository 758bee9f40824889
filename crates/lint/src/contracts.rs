//! The `idl/*.idl` contracts, read through `idlc`.
//!
//! `idlc` is the workspace's only IDL front end. The contracts are parsed
//! and checked as **one compilation unit** in sorted path order (so
//! `idl/store.idl` can name `FT::Checkpoint` from `idl/ft.idl`), and the
//! selfchecks read the small op table built here from the checked
//! [`idlc::Model`]. A unit `idlc` rejects is an error at the offending
//! `file:line:col`, which fails the selfcheck `the_contracts_compile`.

use idlc::ast::{wire_ops, Operation};
use std::path::Path;

/// One operation as it appears on the wire.
#[derive(Debug)]
pub struct IdlOp {
    /// Wire name (`add`, `_get_op_count`, ...).
    pub name: String,
    /// 1-indexed line of the declaration in its IDL file.
    pub line: usize,
}

/// One `interface`, attributes already expanded to `_get_`/`_set_` ops.
#[derive(Debug)]
pub struct IdlInterface {
    /// Contract file declaring it, as reported in diagnostics.
    pub file: String,
    /// Interface name (`Calculator`).
    pub name: String,
    /// Own operations in declaration order (inherited ones belong to
    /// the base interface's entry).
    pub ops: Vec<IdlOp>,
}

/// The contract unit: sources, checked model, and the op table.
#[derive(Debug, Default)]
pub struct Contracts {
    /// `(workspace-relative path, source)` of every contract, sorted.
    pub sources: Vec<(String, String)>,
    /// What `idlc::check` made of the unit.
    pub model: idlc::Model,
    /// All interfaces, in unit order.
    pub interfaces: Vec<IdlInterface>,
}

impl Contracts {
    /// Compile in-memory `(path, source)` pairs as one unit, in that order;
    /// `idlc`'s rejection is an `InvalidData` error, `file:line:col: message`.
    fn from_sources(sources: Vec<(String, String)>) -> std::io::Result<Contracts> {
        let file = |i: u32| sources[i as usize].0.clone();
        let mut c = Contracts {
            model: idlc::parse_unit(sources.iter().map(|(_, src)| src.as_str()))
                .and_then(|spec| idlc::check(&spec))
                .map_err(|e| {
                    let msg = format!("{}:{e}", file(e.pos.file));
                    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
                })?,
            ..Contracts::default()
        };
        for item in &c.model.items {
            if let idlc::Item::Interface { def, .. } = item {
                let op = |op: &Operation| IdlOp {
                    name: op.name.clone(),
                    line: op.pos.line as usize,
                };
                let mut ops: Vec<IdlOp> = wire_ops(&def.ops, &def.attrs).iter().map(op).collect();
                // `wire_ops` lists attribute ops last; restore
                // declaration order.
                ops.sort_by_key(|op| op.line);
                c.interfaces.push(IdlInterface {
                    file: file(def.pos.file),
                    name: def.name.clone(),
                    ops,
                });
            }
        }
        c.sources = sources;
        Ok(c)
    }

    /// Every operation across all interfaces.
    pub fn ops(&self) -> impl Iterator<Item = &IdlOp> {
        self.interfaces.iter().flat_map(|i| i.ops.iter())
    }
}

/// Load and compile the workspace contracts `root/idl/*.idl` — the one
/// place the workspace reads IDL.
pub fn contracts(root: &Path) -> std::io::Result<Contracts> {
    let mut sources = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("idl")) {
        for path in entries.flatten().map(|e| e.path()) {
            if path.extension().is_some_and(|x| x == "idl") {
                let source = std::fs::read_to_string(&path)?;
                sources.push((crate::rel_label(root, &path), source));
            }
        }
    }
    sources.sort();
    Contracts::from_sources(sources)
}
