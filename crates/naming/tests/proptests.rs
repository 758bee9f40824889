//! Property tests for CosNaming names: stringify/parse are inverses for
//! arbitrary components (including all escapable characters), and the
//! parser never panics.

use cosnaming::{Name, NameComponent};
use proptest::prelude::*;

fn component() -> impl Strategy<Value = NameComponent> {
    // Components may contain the special characters . / \ which must be
    // escaped in the stringified form.
    let field = "[a-zA-Z0-9./\\\\ _-]{0,12}";
    (field, field)
        .prop_map(|(id, kind)| NameComponent::new(id, kind))
        .prop_filter("component must not be fully empty", |c| !c.is_empty())
}

fn name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(component(), 1..6).prop_map(Name)
}

proptest! {
    #[test]
    fn stringify_parse_round_trip(n in name()) {
        let s = n.stringify();
        let back = Name::parse(&s)
            .unwrap_or_else(|e| panic!("failed to reparse {s:?}: {e}"));
        prop_assert_eq!(n, back);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = Name::parse(&s);
    }

    #[test]
    fn cdr_round_trip(n in name()) {
        let bytes = cdr::to_bytes(&n);
        let back: Name = cdr::from_bytes(&bytes).unwrap();
        prop_assert_eq!(n, back);
    }

}
