//! Property tests for the fault-tolerance layer: checkpoints round-trip
//! through CDR.

use ftproxy::Checkpoint;
use proptest::prelude::*;

fn ckpt_strategy() -> impl Strategy<Value = Checkpoint> {
    (
        "[a-zA-Z0-9/._-]{1,24}",
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
        any::<u64>(),
    )
        .prop_map(|(object_id, epoch, state, stamp_ns)| Checkpoint {
            object_id,
            epoch: cdr::Epoch(epoch),
            state,
            stamp_ns,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn checkpoint_cdr_round_trip(c in ckpt_strategy()) {
        let back: Checkpoint = cdr::from_bytes(&cdr::to_bytes(&c)).unwrap();
        prop_assert_eq!(c, back);
    }
}
