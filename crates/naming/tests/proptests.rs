//! Property tests for CosNaming names: the CDR encoding round-trips for
//! arbitrary components.

use cosnaming::{Name, NameComponent};
use proptest::prelude::*;

fn component() -> impl Strategy<Value = NameComponent> {
    let field = "[a-zA-Z0-9./\\\\ _-]{0,12}";
    (field, field).prop_map(|(id, kind)| NameComponent { id, kind })
}

fn name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(component(), 1..6).prop_map(Name)
}

proptest! {
    #[test]
    fn cdr_round_trip(n in name()) {
        let bytes = cdr::to_bytes(&n);
        let back: Name = cdr::from_bytes(&bytes).unwrap();
        prop_assert_eq!(n, back);
    }

}
