//! Golden test over the committed `idl/*.idl` contracts: loaded as the one
//! compilation unit `idlc` checks, they must yield exactly the interfaces,
//! operations, natives, and type mappings the Rust side is generated
//! from. If an IDL file gains or loses an operation, this test fails
//! alongside the generated-code drift test — update both deliberately.

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
    assert_eq!(c.sources.len(), 6);
    // (file, interface, op count) — op counts include attribute
    // pseudo-ops (`_get_x`/`_set_x`).
    let want: &[(&str, &str, usize)] = &[
        ("idl/calculator.idl", "Calculator", 10),
        ("idl/ft.idl", "CheckpointService", 4),
        ("idl/ft.idl", "ServiceFactory", 1),
        ("idl/naming.idl", "NamingContext", 7),
        ("idl/optim.idl", "Worker", 3),
        ("idl/store.idl", "Replication", 2),
        ("idl/winner.idl", "SystemManager", 3),
    ];
    let got: Vec<(&str, &str, usize)> = c
        .interfaces
        .iter()
        .map(|i| (i.file.as_str(), i.name.as_str(), i.ops.len()))
        .collect();
    assert_eq!(got, want);
    // Inherited operations count once, at the interface declaring them.
    assert_eq!(c.ops().count(), 30);
}

#[test]
fn enums_and_natives_are_the_expected_ones() {
    let c = loaded();
    let named = |pick: fn(&Item) -> bool| -> Vec<&str> {
        let picked = c.model.items.iter().filter(|it| pick(it));
        picked.map(Item::name).collect()
    };
    assert!(named(|it| matches!(it, Item::Enum { .. })).is_empty());
    // What the Rust side defines by hand: the epoch newtype, the name
    // newtype, and an `Option` shape.
    assert_eq!(
        named(|it| matches!(it, Item::Native { .. })),
        ["Epoch", "Name", "OptionalDouble"]
    );
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
    let (get, set) = (&calc.ops[0], &calc.ops[2]);
    let wire = wire_ops_of(&c, "Calculator");
    let expanded = |name: &str| wire.iter().find(|o| o.name == name).unwrap();
    assert!(expanded(&get.name).params.is_empty());
    assert_eq!(expanded(&get.name).ret.rust(), "u32");
    let setter = expanded(&set.name);
    let params: Vec<String> = setter.params.iter().map(|p| p.ty.rust()).collect();
    assert_eq!(
        (params, setter.ret.rust()),
        (vec!["f64".to_string()], "()".to_string())
    );
}

#[test]
fn any_object_and_cross_file_names_resolve() {
    let c = loaded();
    let op = |iface: &str, name: &str| {
        let ops = wire_ops_of(&c, iface).into_iter();
        ops.into_iter().find(|o| o.name == name).unwrap()
    };
    let tys = |o: &idlc::ast::Operation| -> Vec<String> {
        o.params.iter().map(|p| p.ty.rust()).collect()
    };
    assert_eq!(
        tys(&op("CheckpointService", "store_value")),
        ["String", "String", "::cdr::Any"]
    );
    assert_eq!(
        tys(&op("ServiceFactory", "create")),
        ["String", "::orb::Ior"]
    );
    // `Store::Replication` inherits `FT::CheckpointService` from another
    // file, and with it `retrieve`'s `out FT::Checkpoint`.
    let inherited = c.model.items.iter().find_map(|it| match it {
        Item::Interface { def, all_ops, .. } if def.name == "Replication" => {
            all_ops.iter().find(|o| o.name == "retrieve").cloned()
        }
        _ => None,
    });
    assert_eq!(
        tys(&inherited.expect("retrieve is inherited")),
        ["String", "FT::Checkpoint"]
    );
    let base = c.model.items.iter().find_map(|it| match it {
        Item::Interface { def, .. } if def.name == "Replication" => def.base.clone(),
        _ => None,
    });
    assert_eq!(base.as_deref(), Some("FT::CheckpointService"));
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
    // Named types stay absolute here; `Epoch` is native (`cdr::Epoch`).
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
    assert_eq!(oneway, vec!["Calculator::log", "SystemManager::report"]);
}
