//! Golden test over the committed `idl/*.idl` contracts: loaded as the one
//! compilation unit `idlc` checks, they must yield exactly the interfaces,
//! operations, typedefs, and type mappings the Rust side implements. If an
//! IDL file gains or loses an operation, this test fails alongside the
//! wire pass — update both deliberately.

use idlc::ast::wire_ops;
use idlc::Item;
use ldft_lint::Contracts;
use std::path::Path;

fn loaded() -> Contracts {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    ldft_lint::contracts(root).expect("read idl/")
}

/// The model's interface `name` with its wire ops (attributes expanded).
fn wire_ops_of(c: &Contracts, name: &str) -> Vec<idlc::ast::Operation> {
    c.model
        .items
        .iter()
        .find_map(|it| match it {
            Item::Interface { def, .. } if def.name == name => Some(wire_ops(&def.ops, &def.attrs)),
            _ => None,
        })
        .expect("interface in the model")
}

#[test]
fn the_unit_checks_clean_and_has_the_expected_surface() {
    let c = loaded();
    assert_eq!(c.sources.len(), 7);
    assert!(c.rejection.is_none(), "idlc rejected: {:?}", c.rejection);
    // (file, interface, op count) — op counts include attribute
    // pseudo-ops (`_get_x`/`_set_x`).
    let want: &[(&str, &str, usize)] = &[
        ("idl/calculator.idl", "Calculator", 10),
        ("idl/ft.idl", "CheckpointService", 7),
        ("idl/ft.idl", "ServiceFactory", 3),
        ("idl/monitor.idl", "EventChannel", 5),
        ("idl/naming.idl", "BindingIterator", 3),
        ("idl/naming.idl", "NamingContext", 12),
        ("idl/naming.idl", "Lookup", 3),
        ("idl/optim.idl", "Worker", 4),
        ("idl/store.idl", "Replication", 6),
        ("idl/winner.idl", "SystemManager", 3),
    ];
    let got: Vec<(&str, &str, usize)> = c
        .interfaces
        .iter()
        .map(|i| (i.file.as_str(), i.name.as_str(), i.ops.len()))
        .collect();
    assert_eq!(got, want);
    // The workspace wire pass cross-checks exactly this many operations
    // (see `tests/selfcheck.rs`, which asserts `wire_ops` equals it).
    assert_eq!(c.ops().count(), 56);
}

#[test]
fn typedefs_map_to_idlc_rust_spellings() {
    let c = loaded();
    assert_eq!(c.typedefs["Epoch"], "u64", "FT::Epoch is wire-u64");
    assert_eq!(c.typedefs["OctetSeq"], "Vec<u8>");
    assert_eq!(c.typedefs["StringSeq"], "Vec<String>");
    assert_eq!(c.typedefs["Name"], "Vec<CosNaming::NameComponent>");
    assert_eq!(c.typedefs["IorSeq"], "Vec<::orb::Ior>");
    assert_eq!(c.typedefs["HostSeq"], "Vec<u32>");
    assert_eq!(c.typedefs["HostStatusSeq"], "Vec<Winner::HostStatus>");
    let named = |pick: fn(&Item) -> bool| -> Vec<&str> {
        let picked = c.model.items.iter().filter(|it| pick(it));
        picked.map(Item::name).collect()
    };
    assert_eq!(named(|it| matches!(it, Item::Enum { .. })), ["BindingType"]);
    // The event body is a native (Rust-defined) type.
    assert_eq!(named(|it| matches!(it, Item::Native { .. })), ["EventBody"]);
}

#[test]
fn attributes_expand_to_wire_pseudo_ops() {
    let c = loaded();
    let calc = &c.interfaces[0];
    // Declaration order is kept: `readonly attribute unsigned long
    // op_count` → getter only; `attribute double precision` → getter +
    // setter; then the operations.
    let names: Vec<&str> = calc.ops.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(
        names[..4],
        ["_get_op_count", "_get_precision", "_set_precision", "add"]
    );
    assert_eq!(calc.ops[2].ins, vec!["f64"]);
    let scale = calc.ops.iter().find(|o| o.name == "scale").unwrap();
    assert_eq!(scale.ins, vec!["Demo::DoubleSeq", "f64"]);
    let stats = calc.ops.iter().find(|o| o.name == "stats").unwrap();
    assert!(stats.ins.is_empty(), "`out` params are not request data");
    let worker = wire_ops_of(&c, "Worker");
    let solve_count = worker
        .iter()
        .find(|o| o.name == "_get_solve_count")
        .expect("readonly attribute expanded");
    assert!(solve_count.params.is_empty());
    assert_eq!(solve_count.ret.rust(), "u32");
}

#[test]
fn any_object_and_cross_file_names_resolve() {
    let c = loaded();
    let op = |name: &str| c.ops().find(|o| o.name == name).unwrap();
    assert_eq!(
        op("store_value").ins,
        vec!["String", "String", "::cdr::Any"]
    );
    assert_eq!(op("retire_forward").ins, vec!["u64", "::orb::Ior"]);
    // `Store::Replication` names `FT::Checkpoint` from another file, and
    // only as an `out` param.
    let repl_get = wire_ops_of(&c, "Replication")
        .into_iter()
        .find(|o| o.name == "repl_get")
        .unwrap();
    assert_eq!(repl_get.params[1].ty.rust(), "FT::Checkpoint");
}

#[test]
fn struct_fields_carry_resolved_types() {
    let c = loaded();
    let members = c.model.items.iter().find_map(|it| match it {
        Item::Struct { def, .. } if def.name == "Checkpoint" => Some(&def.members),
        _ => None,
    });
    let fields: Vec<(&str, String)> = members
        .expect("FT::Checkpoint")
        .iter()
        .map(|(n, t)| (n.as_str(), t.rust()))
        .collect();
    // Typedef names stay absolute here; `typedefs` (above) maps them to
    // their wire spellings `u64` and `Vec<u8>`.
    let want = [
        ("object_id", "String"),
        ("epoch", "FT::Epoch"),
        ("state", "FT::OctetSeq"),
        ("stamp_ns", "u64"),
    ];
    assert_eq!(fields, want.map(|(n, t)| (n, t.to_string())));
}

#[test]
fn oneway_ops_are_flagged() {
    let c = loaded();
    let mut oneway = Vec::new();
    for i in &c.interfaces {
        for op in wire_ops_of(&c, &i.name).iter().filter(|o| o.oneway) {
            oneway.push(format!("{}::{}", i.name, op.name));
        }
    }
    assert_eq!(
        oneway,
        vec![
            "Calculator::log",
            "EventChannel::push",
            "SystemManager::report"
        ]
    );
}
