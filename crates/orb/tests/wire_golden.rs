//! The wire format pinned against committed bytes: one whole
//! `Message::Request` frame — `echo` of a `sequence<double>`, the call
//! the benchmark's `rpc_*` workloads make — as the encoder produced it
//! before the bulk CDR path and the pre-sized frame existed, re-captured
//! when CDR became little-endian: the same length, the flags octet 1, and
//! every primitive byte-reversed in place. A change to `cdr` or `giop`
//! that moves a byte fails here, not only against itself.

use orb::{Message, ObjectKey, ServiceContext};

const GOLDEN_HEX: &str = "\
47494f5001000100070000000000000001000000000000000100000000000000\
050000006563686f000000004800000008000000000000000000000000000000\
0000000000000080000000000000f03f00000000000004c00000000000408f40\
0000000000001000ffffffffffffef7fefbeadde0000f87f010000005446444c\
03000000010203";

fn golden() -> Vec<u8> {
    (0..GOLDEN_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn doubles() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -2.5,
        1.0e3,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::from_bits(0x7ff8_0000_dead_beef),
    ]
}

fn request() -> Message {
    Message::Request {
        request_id: 7,
        response_expected: true,
        object_key: ObjectKey(1),
        operation: "echo".into(),
        body: cdr::to_bytes(&(&doubles(),)),
        service_contexts: vec![ServiceContext {
            id: 0x4c44_4654,
            data: vec![1, 2, 3],
        }],
    }
}

#[test]
fn echo_request_frame_matches_the_committed_bytes() {
    assert_eq!(request().encode(), golden());
}

#[test]
fn the_committed_bytes_decode_to_the_request() {
    let decoded = Message::decode(&golden()).expect("golden frame decodes");
    assert_eq!(decoded, request());
    let Message::Request { body, .. } = decoded else {
        panic!("not a request");
    };
    let (back,): (Vec<f64>,) = cdr::from_bytes(&body).expect("body decodes");
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&doubles()));
}
