//! Property tests for the ORB wire layer: every GIOP frame round-trips,
//! the decoder never panics on corrupted frames, a call marshalled into
//! its frame is the frame GIOP's layout gives by hand, and the in-place
//! parser and `Message::decode` read every frame alike.

use cdr::{CdrEncoder, CdrWrite};
use orb::{Ior, Message, ObjectKey, ReplyBody, ServiceContext, SystemException, UserException};
use proptest::prelude::*;
use simnet::{HostId, Port};

fn ior_strategy() -> impl Strategy<Value = Ior> {
    (
        "[A-Za-z0-9:/._-]{0,40}",
        any::<u32>(),
        any::<u16>(),
        any::<u64>(),
    )
        .prop_map(|(tid, host, port, key)| Ior::new(tid, HostId(host), Port(port), ObjectKey(key)))
}

/// Up to two service contexts of up to 31 bytes each.
fn contexts_strategy() -> impl Strategy<Value = Vec<ServiceContext>> {
    let one = (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..32));
    proptest::collection::vec(one.prop_map(|(id, data)| ServiceContext { id, data }), 0..3)
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            "[a-z_]{1,24}",
            proptest::collection::vec(any::<u8>(), 0..256),
            contexts_strategy(),
        )
            .prop_map(
                |(request_id, response_expected, key, operation, body, service_contexts)| {
                    Message::Request {
                        request_id,
                        response_expected,
                        object_key: ObjectKey(key),
                        operation,
                        body,
                        service_contexts,
                    }
                }
            ),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..256),
            contexts_strategy(),
        )
            .prop_map(|(request_id, body, service_contexts)| Message::Reply {
                request_id,
                status: ReplyBody::NoException(body),
                service_contexts,
            }),
        (any::<u64>(), "[A-Za-z:/._-]{0,40}", "\\PC{0,40}").prop_map(|(request_id, id, detail)| {
            Message::Reply {
                request_id,
                status: ReplyBody::UserException(UserException {
                    id,
                    body: detail.into_bytes(),
                }),
                service_contexts: vec![],
            }
        }),
        (any::<u64>(), "\\PC{0,40}").prop_map(|(request_id, detail)| Message::Reply {
            request_id,
            status: ReplyBody::SystemException(SystemException::comm_failure(detail)),
            service_contexts: vec![],
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(request_id, key)| Message::LocateRequest {
            request_id,
            object_key: ObjectKey(key),
        }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(request_id, found)| Message::LocateReply { request_id, found }),
    ]
}

proptest! {
    #[test]
    fn every_frame_round_trips(msg in message_strategy()) {
        let frame = msg.encode();
        let back = Message::decode(&frame).expect("own frames decode");
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn decoder_never_panics_on_corruption(
        msg in message_strategy(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut frame = msg.encode();
        for (idx, byte) in flips {
            let i = idx.index(frame.len());
            frame[i] ^= byte;
        }
        let _ = Message::decode(&frame); // may fail, must not panic
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn ior_stringify_round_trips(ior in ior_strategy()) {
        let s = ior.stringify();
        prop_assert_eq!(Ior::destringify(&s).unwrap(), ior);
    }

    #[test]
    fn truncated_frames_error_cleanly(msg in message_strategy(), cut in any::<prop::sample::Index>()) {
        let frame = msg.encode();
        let n = cut.index(frame.len());
        if n < frame.len() {
            prop_assert!(Message::decode(&frame[..n]).is_err());
        }
    }
}

cdr::cdr_struct!(Args {
    xs: Vec<f64>,
    octets: Vec<u8>,
    name: String,
    n: i64,
});

fn args_strategy() -> impl Strategy<Value = Args> {
    (
        proptest::collection::vec(any::<u64>().prop_map(f64::from_bits), 0..40),
        proptest::collection::vec(any::<u8>(), 0..40),
        "\\PC{0,12}",
        any::<i64>(),
    )
        .prop_map(|(xs, octets, name, n)| Args {
            xs,
            octets,
            name,
            n,
        })
}

/// A request frame laid out field by field around `body`: header, request
/// id, response flag, key, operation, the body's count and bytes, then the
/// service contexts.
fn by_hand(
    request_id: u64,
    response_expected: bool,
    key: u64,
    operation: &str,
    body: &[u8],
    contexts: &[ServiceContext],
) -> Vec<u8> {
    let mut enc = CdrEncoder::new();
    enc.write_raw(b"GIOP");
    for octet in [1, 0, 1, 0] {
        enc.write_u8(octet); // version 1.0, little-endian, Request
    }
    enc.write_u64(request_id);
    enc.write_bool(response_expected);
    enc.write_u64(key);
    enc.write_string(operation);
    enc.write_len(body.len());
    enc.write_raw(body);
    enc.write_len(contexts.len());
    for sc in contexts {
        enc.write_u32(sc.id);
        enc.write_len(sc.data.len());
        enc.write_raw(&sc.data);
    }
    enc.into_bytes()
}

/// `msg` with its body taken out, and the body.
fn without_body(mut msg: Message) -> (Message, Vec<u8>) {
    let body = match &mut msg {
        Message::Request { body, .. }
        | Message::Reply {
            status: ReplyBody::NoException(body),
            ..
        } => std::mem::take(body),
        _ => Vec::new(),
    };
    (msg, body)
}

proptest! {
    /// Operation names of 0–8 bytes put the body at every offset mod 8.
    #[test]
    fn a_call_marshalled_in_place_is_the_frame_laid_out_by_hand(
        request_id in any::<u64>(),
        response_expected in any::<bool>(),
        key in any::<u64>(),
        operation in "[a-z_]{0,8}",
        args in args_strategy(),
        contexts in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..20)),
            0..=2,
        ),
    ) {
        let contexts: Vec<ServiceContext> =
            contexts.into_iter().map(|(id, data)| ServiceContext { id, data }).collect();
        let frame = Message::encode_call(
            request_id,
            response_expected,
            ObjectKey(key),
            &operation,
            &args as &dyn CdrWrite,
            &contexts,
        );
        let body = cdr::to_bytes(&args);
        prop_assert_eq!(
            &frame,
            &by_hand(request_id, response_expected, key, &operation, &body, &contexts)
        );
        let (_, range) = Message::parse(&frame).expect("own frames parse");
        prop_assert_eq!(&frame[range], &body[..]);
    }

    /// Own frames and damaged ones alike: the same verdict, the same
    /// fields, the same body bytes.
    #[test]
    fn the_in_place_parser_reads_what_decode_reads(
        msg in message_strategy(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..8),
    ) {
        let mut frame = msg.encode();
        for (idx, byte) in flips {
            let i = idx.index(frame.len());
            frame[i] ^= byte;
        }
        match (Message::decode(&frame), Message::parse(&frame)) {
            (Ok(decoded), Ok((parsed, range))) => {
                let (fields, body) = without_body(decoded);
                prop_assert_eq!(without_body(parsed), (fields, Vec::new()));
                prop_assert_eq!(&frame[range], &body[..]);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decode {:?}, parse {:?}", a, b),
        }
    }
}
