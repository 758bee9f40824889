//! Golden test over the committed `idl/*.idl` contracts: loaded as the one
//! compilation unit `idlc` checks, they must yield exactly the interfaces,
//! operations, natives, and type mappings the Rust side is generated
//! from. If an IDL file gains or loses an operation, this test fails
//! alongside the generated-code drift test — update both deliberately.

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

/// The operations the model's interface `name` declares.
fn ops_of<'c>(c: &'c Contracts, name: &str) -> &'c [idlc::ast::Operation] {
    c.model
        .items
        .iter()
        .find_map(|it| match it {
            Item::Interface { def, .. } if def.name == name => Some(def.ops.as_slice()),
            _ => None,
        })
        .expect("interface in the model")
}

#[test]
fn the_unit_checks_clean_and_has_the_expected_surface() {
    let c = loaded();
    assert_eq!(c.sources.len(), 5);
    // (file, interface, op count).
    let want: &[(&str, &str, usize)] = &[
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
    assert_eq!(c.ops().count(), 20);
}

#[test]
fn enums_and_natives_are_the_expected_ones() {
    let c = loaded();
    let named = |pick: fn(&Item) -> bool| -> Vec<&str> {
        let picked = c.model.items.iter().filter(|it| pick(it));
        picked.map(Item::name).collect()
    };
    assert_eq!(
        named(|it| matches!(it, Item::Enum { .. })),
        ["NotFoundReason"]
    );
    // What the Rust side defines by hand: the epoch newtype, the name
    // newtype, and an `Option` shape.
    assert_eq!(
        named(|it| matches!(it, Item::Native { .. })),
        ["Epoch", "Name", "OptionalDouble"]
    );
}

#[test]
fn naming_exceptions_carry_the_cos_naming_ids() {
    // Each repository id as the scoped name it spells (`IDL:A/B:1.0` is
    // `A::B`); `tests/wire_goldens.rs` pins the bytes.
    let c = loaded();
    let scoped: Vec<String> = c
        .model
        .items
        .iter()
        .filter_map(|it| match it {
            Item::Exception { repo_id, .. } => {
                let path = repo_id.strip_prefix("IDL:")?.strip_suffix(":1.0")?;
                Some(path.replace('/', "::"))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        scoped,
        [
            "CosNaming::LoadBalancedContext::EmptyGroup",
            "CosNaming::NamingContext::NotFound",
            "CosNaming::NamingContext::AlreadyBound",
            "CosNaming::NamingContext::InvalidName",
        ]
    );
    // Every naming op raises what the flat context can raise.
    for op in ops_of(&c, "NamingContext") {
        assert!(
            op.raises
                .contains(&"CosNaming::NamingContext::InvalidName".to_string()),
            "{}",
            op.name
        );
    }
}

#[test]
fn any_object_and_cross_file_names_resolve() {
    let c = loaded();
    let op = |iface: &str, name: &str| ops_of(&c, iface).iter().find(|o| o.name == name).unwrap();
    let tys = |o: &idlc::ast::Operation| -> Vec<String> {
        o.params.iter().map(|p| p.ty.rust()).collect()
    };
    assert_eq!(
        tys(op("CheckpointService", "store_value")),
        ["String", "String", "::cdr::Any"]
    );
    assert_eq!(
        tys(op("ServiceFactory", "create")),
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
        for op in ops_of(&c, &i.name).iter().filter(|o| o.oneway) {
            oneway.push(format!("{}::{}", i.name, op.name));
        }
    }
    assert_eq!(oneway, vec!["SystemManager::report"]);
}
