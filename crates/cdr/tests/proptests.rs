//! Property-based tests: every encodable value round-trips, alignment is
//! invariant under prefixing, decoders never panic on arbitrary bytes, and
//! the one-pass path for primitive sequences writes and reads exactly what
//! the element-by-element path does — the little-endian bytes a reference
//! loop in this file lays out by hand.

use cdr::{
    from_bytes, to_bytes, Any, CdrDecoder, CdrEncoder, CdrError, CdrRead, CdrWrite, TypeCode, Value,
};
use proptest::prelude::*;

cdr::cdr_struct!(Sample {
    a: u8,
    b: i16,
    c: u32,
    d: i64,
    e: f64,
    f: bool,
    g: String,
    h: Vec<u32>,
    i: Option<f64>,
});

fn sample_strategy() -> impl Strategy<Value = Sample> {
    (
        any::<u8>(),
        any::<i16>(),
        any::<u32>(),
        any::<i64>(),
        any::<f64>().prop_filter("NaN breaks equality", |v| !v.is_nan()),
        any::<bool>(),
        "\\PC*",
        proptest::collection::vec(any::<u32>(), 0..20),
        proptest::option::of(any::<f64>().prop_filter("NaN", |v| !v.is_nan())),
    )
        .prop_map(|(a, b, c, d, e, f, g, h, i)| Sample {
            a,
            b,
            c,
            d,
            e,
            f,
            g,
            h,
            i,
        })
}

fn leaf(tc: TypeCode, value: Value) -> Any {
    Any { tc, value }
}

fn value_strategy() -> impl Strategy<Value = Any> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Any::boolean),
        any::<i32>().prop_map(|v| leaf(TypeCode::Long, Value::Long(v))),
        any::<u32>().prop_map(|v| leaf(TypeCode::ULong, Value::ULong(v))),
        any::<f64>()
            .prop_filter("NaN", |v| !v.is_nan())
            .prop_map(|v| leaf(TypeCode::Double, Value::Double(v))),
        "\\PC{0,32}".prop_map(|v| leaf(TypeCode::String, Value::String(v))),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(|d| octets_any(&d, None)),
    ];
    leaf.prop_recursive(3, 32, 8, |inner| {
        proptest::collection::vec(inner, 0..6).prop_map(|items| {
            // Heterogeneous items become a struct; keep it simple and make
            // a struct TypeCode from the item TypeCodes.
            let members = items
                .iter()
                .enumerate()
                .map(|(i, a)| (format!("m{i}"), a.tc.clone()))
                .collect();
            let fields = items.into_iter().map(|a| a.value).collect();
            Any {
                tc: TypeCode::Struct {
                    name: "T".into(),
                    members,
                },
                value: Value::Struct(fields),
            }
        })
    })
}

proptest! {
    #[test]
    fn struct_round_trips(v in sample_strategy()) {
        let bytes = to_bytes(&v);
        let back: Sample = from_bytes(&bytes).unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn any_round_trips(v in value_strategy()) {
        let bytes = to_bytes(&v);
        let back: Any = from_bytes(&bytes).unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn round_trip_survives_prefix_alignment(v in sample_strategy(), prefix in 0usize..8) {
        // Encoding after a prefix of octets must still round-trip, because
        // alignment is relative to the stream start on both sides.
        let mut enc = CdrEncoder::new();
        for _ in 0..prefix {
            enc.write_u8(0xEE);
        }
        cdr::CdrWrite::write(&v, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes);
        for _ in 0..prefix {
            dec.read_u8().unwrap();
        }
        let back = <Sample as cdr::CdrRead>::read(&mut dec).unwrap();
        dec.finish().unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes may fail, but must never panic or
        // over-allocate.
        let _ = from_bytes::<Sample>(&bytes);
        let _ = from_bytes::<Any>(&bytes);
        let _ = from_bytes::<Vec<String>>(&bytes);
        let _ = from_bytes::<TypeCode>(&bytes);
        let _ = cdr::from_bytes_into(&mut octets_any(&[1, 2], Some(3)), &bytes);
    }

    /// Decoding over an earlier value — of any shape, or of the same one
    /// with other contents — gives what a fresh decode gives.
    #[test]
    fn read_into_reads_what_read_reads(
        prior in value_strategy(),
        v in value_strategy(),
        data in proptest::collection::vec(any::<u8>(), 0..=300),
        e0 in any::<u64>(),
        e1 in any::<u64>(),
    ) {
        let cases = [
            (prior, v),
            (octets_any(&data[..data.len() / 2], Some(e0)), octets_any(&data, Some(e1))),
            (octets_any(&data, Some(e0)), octets_any(&data[..data.len() / 2], Some(e1))),
        ];
        for (mut over, v) in cases {
            cdr::from_bytes_into(&mut over, &to_bytes(&v)).unwrap();
            prop_assert_eq!(over, v);
        }
    }

    #[test]
    fn f64_bit_exact(v in any::<f64>()) {
        let bytes = to_bytes(&v);
        let back: f64 = from_bytes(&bytes).unwrap();
        prop_assert_eq!(v.to_bits(), back.to_bits());
    }

    #[test]
    fn strings_round_trip(s in "\\PC*") {
        let bytes = to_bytes(&s);
        let back: String = from_bytes(&bytes).unwrap();
        prop_assert_eq!(s, back);
    }
}

/// A fixed-width primitive whose sequences take the one-pass path.
trait Prim: CdrWrite + CdrRead + Copy {
    /// The value's bits: float comparison would call NaN unequal to itself
    /// and `-0.0` equal to `0.0`.
    fn bits(self) -> Vec<u8>;
    /// The value's little-endian bytes.
    fn le(self) -> Vec<u8>;
}

/// `items` after `prefix` octets, as a sequence and (its first five) as an
/// array, written through `Vec`/array `write` or one element at a time,
/// which is what both did before the slice hooks.
fn encode<T: Prim>(items: &[T], prefix: usize, elementwise: bool) -> Vec<u8> {
    let mut enc = CdrEncoder::new();
    for _ in 0..prefix {
        enc.write_u8(0xEE);
    }
    let head = items.first_chunk::<5>();
    if elementwise {
        enc.write_len(items.len());
        for item in items.iter().chain(head.into_iter().flatten()) {
            item.write(&mut enc);
        }
    } else {
        items.to_vec().write(&mut enc);
        if let Some(head) = head {
            head.write(&mut enc);
        }
    }
    enc.into_bytes()
}

/// The reference, laid out by hand: `prefix` octets, the count (aligned to
/// 4), then every element's little-endian bytes aligned to its width (an
/// empty sequence pads nothing), then the first five again as an array.
fn reference<T: Prim>(items: &[T], prefix: usize) -> Vec<u8> {
    let align = |out: &mut Vec<u8>, n: usize| out.resize(out.len().next_multiple_of(n), 0);
    let mut out = vec![0xEE; prefix];
    align(&mut out, 4);
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    let head = items.first_chunk::<5>();
    for item in items.iter().chain(head.into_iter().flatten()) {
        let bytes = item.le();
        align(&mut out, bytes.len());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Every misalignment × {empty, `items`}: the bulk and the element-wise
/// path give the reference's bytes, and they decode to the same bits.
fn bulk_matches_elementwise<T: Prim>(items: &[T]) {
    let bits = |v: &[T]| v.iter().map(|x| x.bits()).collect::<Vec<_>>();
    for prefix in 0..8 {
        for items in [&items[..0], items] {
            let bytes = encode(items, prefix, false);
            assert_eq!(bytes, reference(items, prefix));
            assert_eq!(bytes, encode(items, prefix, true));
            let mut dec = CdrDecoder::new(&bytes);
            for _ in 0..prefix {
                dec.read_u8().unwrap();
            }
            assert_eq!(bits(&Vec::<T>::read(&mut dec).unwrap()), bits(items));
            if let Some(head) = items.first_chunk::<5>() {
                assert_eq!(bits(&<[T; 5]>::read(&mut dec).unwrap()), bits(head));
            }
            dec.finish().unwrap();
        }
    }
}

/// Cut anywhere, or claiming more elements than the stream holds, a
/// primitive sequence fails to decode — it does not panic.
fn damaged_input_is_an_error<T: Prim>(items: &[T]) {
    let bytes = to_bytes(&items.to_vec());
    for cut in 0..bytes.len() {
        assert!(matches!(
            from_bytes::<Vec<T>>(&bytes[..cut]),
            Err(CdrError::UnexpectedEof { .. } | CdrError::LengthOverrun(_))
        ));
    }
    for claimed in [items.len() as u32 + 1, bytes.len() as u32, u32::MAX] {
        let mut long = bytes.clone();
        long[..4].copy_from_slice(&claimed.to_le_bytes());
        assert_eq!(
            from_bytes::<Vec<T>>(&long).err(),
            Some(CdrError::LengthOverrun(u64::from(claimed)))
        );
    }
}

macro_rules! prim_sequences {
    ($($name:ident: $ty:ty = $strategy:expr;)+) => {
        $(impl Prim for $ty {
            fn bits(self) -> Vec<u8> {
                self.to_ne_bytes().to_vec()
            }
            fn le(self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
        })+
        proptest! {$(
            #[test]
            fn $name(items in proptest::collection::vec($strategy, 0..=300)) {
                bulk_matches_elementwise(&items);
                damaged_input_is_an_error(&items);
            }
        )+}
    };
}

prim_sequences! {
    u8_sequences: u8 = any::<u8>();
    i8_sequences: i8 = any::<i8>();
    u16_sequences: u16 = any::<u16>();
    i16_sequences: i16 = any::<i16>();
    u32_sequences: u32 = any::<u32>();
    i32_sequences: i32 = any::<i32>();
    u64_sequences: u64 = any::<u64>();
    i64_sequences: i64 = any::<i64>();
    // Floats from raw bits: NaN payloads (quiet and signalling) and -0.0
    // must cross unchanged.
    f32_sequences: f32 = prop_oneof![
        Just(-0.0f32),
        Just(f32::from_bits(0x7fc0_beef)),
        Just(f32::from_bits(0xff80_0001)),
        any::<u32>().prop_map(f32::from_bits),
    ];
    f64_sequences: f64 = prop_oneof![
        Just(-0.0f64),
        Just(f64::from_bits(0x7ff8_0000_dead_beef)),
        Just(f64::from_bits(0xfff0_0000_0000_0001)),
        any::<u64>().prop_map(f64::from_bits),
    ];
}

#[test]
fn bool_sequences_still_check_every_octet() {
    let ok = [3, 0, 0, 0, 1, 0, 1];
    assert_eq!(from_bytes::<Vec<bool>>(&ok), Ok(vec![true, false, true]));
    let bad = [3, 0, 0, 0, 1, 2, 0];
    assert_eq!(from_bytes::<Vec<bool>>(&bad), Err(CdrError::InvalidBool(2)));
}

#[test]
fn a_count_the_stream_holds_in_octets_but_not_in_elements_is_refused() {
    // sequence<double> claiming 16 elements over 16 bytes of data: the
    // count passes an octet-granular guard (16 <= 20 remaining), the
    // element-granular one refuses it before anything is allocated.
    let mut bytes = vec![16, 0, 0, 0, 0, 0, 0, 0];
    bytes.extend_from_slice(&[0xAB; 16]);
    assert_eq!(
        from_bytes::<Vec<f64>>(&bytes),
        Err(CdrError::LengthOverrun(16))
    );
}

/// `sequence<octet>` as an `Any` holds it: alone, or as the `data` member
/// of the checkpoint store's `CkptChunk { epoch, data }`.
fn octets_any(data: &[u8], chunk: Option<u64>) -> Any {
    let seq = TypeCode::Sequence(Box::new(TypeCode::Octet));
    match chunk {
        None => Any {
            tc: seq,
            value: Value::Octets(data.to_vec()),
        },
        Some(epoch) => Any {
            tc: TypeCode::Struct {
                name: "CkptChunk".into(),
                members: vec![("epoch".into(), TypeCode::ULongLong), ("data".into(), seq)],
            },
            value: Value::Struct(vec![Value::ULongLong(epoch), Value::Octets(data.to_vec())]),
        },
    }
}

/// The reference: what `Any::write` wrote before octets had a value of
/// their own — the count, then every octet as one `Value::Octet`.
fn octets_reference(enc: &mut CdrEncoder, data: &[u8], chunk: Option<u64>) {
    octets_any(&[], chunk).tc.write(enc);
    if let Some(epoch) = chunk {
        enc.write_u64(epoch);
    }
    enc.write_len(data.len());
    for &b in data {
        enc.write_u8(b);
    }
}

proptest! {
    #[test]
    fn octets_in_an_any_are_the_elementwise_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..=300),
        epoch in any::<u64>(),
    ) {
        for chunk in [None, Some(epoch)] {
            let any = octets_any(&data, chunk);
            for prefix in 0..8 {
                let mut enc = CdrEncoder::new();
                let mut reference = CdrEncoder::new();
                for _ in 0..prefix {
                    enc.write_u8(0xEE);
                    reference.write_u8(0xEE);
                }
                any.write(&mut enc);
                octets_reference(&mut reference, &data, chunk);
                let bytes = enc.into_bytes();
                prop_assert_eq!(&bytes, reference.as_bytes());
                let mut dec = CdrDecoder::new(&bytes);
                for _ in 0..prefix {
                    dec.read_u8().unwrap();
                }
                prop_assert_eq!(&Any::read(&mut dec).unwrap(), &any);
                dec.finish().unwrap();
            }
        }
    }

    /// Cut short, the stream fails to decode: inside the octets the count
    /// outruns what is left (`LengthOverrun`, before anything is
    /// allocated), anywhere before they start a field ends early
    /// (`UnexpectedEof`, or `LengthOverrun(2)` for the struct's member
    /// count). A count above the rest of a whole stream is refused the
    /// same way.
    #[test]
    fn damaged_octets_in_an_any_are_an_error(
        data in proptest::collection::vec(any::<u8>(), 0..=300),
        epoch in any::<u64>(),
    ) {
        for chunk in [None, Some(epoch)] {
            let bytes = to_bytes(&octets_any(&data, chunk));
            let count_at = bytes.len() - data.len() - 4;
            for cut in 0..bytes.len() {
                let err = from_bytes::<Any>(&bytes[..cut]).unwrap_err();
                if cut >= count_at + 4 {
                    prop_assert_eq!(err, CdrError::LengthOverrun(data.len() as u64));
                } else {
                    prop_assert!(
                        matches!(err, CdrError::UnexpectedEof { .. } | CdrError::LengthOverrun(2)),
                        "cut at {}: {:?}", cut, err
                    );
                }
            }
            for claimed in [data.len() as u32 + 1, u32::MAX] {
                let mut long = bytes.clone();
                long[count_at..count_at + 4].copy_from_slice(&claimed.to_le_bytes());
                prop_assert_eq!(
                    from_bytes::<Any>(&long).unwrap_err(),
                    CdrError::LengthOverrun(u64::from(claimed))
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "does not conform")]
fn an_octet_sequence_of_octet_values_does_not_conform() {
    let _ = to_bytes(&Any {
        tc: TypeCode::Sequence(Box::new(TypeCode::Octet)),
        value: Value::Sequence(vec![Value::Octet(1), Value::Octet(2)]),
    });
}
