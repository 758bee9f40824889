//! The `idl/*.idl` contracts, read through `idlc`.
//!
//! `idlc` is the workspace's only IDL front end. The contracts are parsed
//! and checked as **one compilation unit** in sorted path order (so
//! `idl/store.idl` can name `FT::Checkpoint` from `idl/ft.idl`), and the
//! wire (W1–W4) and call-graph passes consume the small table built here
//! from the checked [`idlc::Model`]. A unit `idlc` rejects yields one
//! error finding (`W0`) at the offending `file:line` and an empty table.

use crate::rules::Finding;
use idlc::ast::{wire_ops, Direction, Operation};
use std::collections::BTreeMap;
use std::path::Path;

/// One operation as it appears on the wire.
#[derive(Debug)]
pub struct IdlOp {
    /// Wire name (`add`, `_get_op_count`, ...).
    pub name: String,
    /// `idlc`'s Rust spellings of the `in`/`inout` parameter types, in IDL
    /// order (`f64`, `Vec<Optim::DoubleSeq>`, `::cdr::Any`, ...).
    pub ins: Vec<String>,
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
    /// 1-indexed declaration line.
    pub line: usize,
    /// Own operations in declaration order.
    pub ops: Vec<IdlOp>,
}

/// The contract unit: sources, checked model, and the op table.
#[derive(Debug, Default)]
pub struct Contracts {
    /// `(workspace-relative path, source)` of every contract, sorted.
    pub sources: Vec<(String, String)>,
    /// What `idlc::check` made of the unit (empty when it was rejected).
    pub model: idlc::Model,
    /// All interfaces, in unit order.
    pub interfaces: Vec<IdlInterface>,
    /// `typedef` table: alias (unscoped) → `idlc`'s Rust spelling.
    pub typedefs: BTreeMap<String, String>,
    /// The rejection, if `idlc` refused the unit, as a `W0` finding.
    pub rejection: Option<Finding>,
}

impl Contracts {
    /// Compile in-memory `(path, source)` pairs as one unit, in that order.
    pub fn from_sources(sources: Vec<(String, String)>) -> Contracts {
        let file = |i: u32| sources[i as usize].0.clone();
        let mut c = Contracts::default();
        match idlc::parse_unit(sources.iter().map(|(_, src)| src.as_str()))
            .and_then(|spec| idlc::check(&spec))
        {
            Ok(model) => c.model = model,
            Err(e) => {
                let msg = format!("contract rejected by idlc: {}", e.msg);
                let line = e.pos.line as usize;
                c.rejection = Some(crate::wire::err("W0", &file(e.pos.file), line, msg));
            }
        }
        for item in &c.model.items {
            match item {
                idlc::Item::Typedef { def, .. } => {
                    let alias = c.typedefs.entry(def.name.clone());
                    alias.or_insert_with(|| def.ty.rust());
                }
                idlc::Item::Interface { def, .. } => {
                    let op = |op: &Operation| {
                        let ins = op.params.iter().filter(|p| p.dir != Direction::Out);
                        IdlOp {
                            name: op.name.clone(),
                            ins: ins.map(|p| p.ty.rust()).collect(),
                            line: op.pos.line as usize,
                        }
                    };
                    let mut ops: Vec<IdlOp> =
                        wire_ops(&def.ops, &def.attrs).iter().map(op).collect();
                    // `wire_ops` lists attribute ops last; restore
                    // declaration order.
                    ops.sort_by_key(|op| op.line);
                    c.interfaces.push(IdlInterface {
                        file: file(def.pos.file),
                        name: def.name.clone(),
                        line: def.pos.line as usize,
                        ops,
                    });
                }
                _ => {}
            }
        }
        c.sources = sources;
        c
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
    Ok(Contracts::from_sources(sources))
}
