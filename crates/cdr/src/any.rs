//! `Any`: a self-describing value — a [`TypeCode`] plus a [`Value`] encoded
//! under it. The checkpoint store's per-value records are `Any`s.

use crate::decode::CdrDecoder;
use crate::encode::CdrEncoder;
use crate::error::{CdrError, CdrResult};
use crate::traits::{CdrRead, CdrWrite};
use crate::typecode::TypeCode;

/// A dynamically-typed CORBA value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// No value.
    Void,
    /// Boolean.
    Boolean(bool),
    /// Unsigned octet.
    Octet(u8),
    /// `short`.
    Short(i16),
    /// `long`.
    Long(i32),
    /// `long long`.
    LongLong(i64),
    /// `unsigned short`.
    UShort(u16),
    /// `unsigned long`.
    ULong(u32),
    /// `unsigned long long`.
    ULongLong(u64),
    /// `float`.
    Float(f32),
    /// `double`.
    Double(f64),
    /// String.
    String(String),
    /// `sequence<octet>`: the bytes themselves. This is the one
    /// representation of an octet sequence — a [`Value::Sequence`] under
    /// `TypeCode::Sequence(Octet)` does not conform.
    Octets(Vec<u8>),
    /// Sequence of homogeneous values of any element type but `octet`.
    Sequence(Vec<Value>),
    /// Struct members in declaration order.
    Struct(Vec<Value>),
    /// Enum discriminant.
    Enum(u32),
}

/// A `TypeCode` + `Value` pair: the unit of dynamic typing.
#[derive(Clone, Debug, PartialEq)]
pub struct Any {
    /// The runtime type.
    pub tc: TypeCode,
    /// The value, which must conform to `tc`.
    pub value: Value,
}

impl Any {
    /// Wrap a boolean.
    pub fn boolean(v: bool) -> Any {
        Any {
            tc: TypeCode::Boolean,
            value: Value::Boolean(v),
        }
    }
}

fn write_value(tc: &TypeCode, v: &Value, enc: &mut CdrEncoder) {
    match (tc, v) {
        (TypeCode::Void, Value::Void) => {}
        (TypeCode::Boolean, Value::Boolean(b)) => enc.write_bool(*b),
        (TypeCode::Octet, Value::Octet(x)) => enc.write_u8(*x),
        (TypeCode::Short, Value::Short(x)) => enc.write_i16(*x),
        (TypeCode::Long, Value::Long(x)) => enc.write_i32(*x),
        (TypeCode::LongLong, Value::LongLong(x)) => enc.write_i64(*x),
        (TypeCode::UShort, Value::UShort(x)) => enc.write_u16(*x),
        (TypeCode::ULong, Value::ULong(x)) => enc.write_u32(*x),
        (TypeCode::ULongLong, Value::ULongLong(x)) => enc.write_u64(*x),
        (TypeCode::Float, Value::Float(x)) => enc.write_f32(*x),
        (TypeCode::Double, Value::Double(x)) => enc.write_f64(*x),
        (TypeCode::String, Value::String(s)) => enc.write_string(s),
        (TypeCode::Sequence(elem), Value::Octets(bytes)) if **elem == TypeCode::Octet => {
            enc.write_bytes(bytes)
        }
        (TypeCode::Sequence(elem), Value::Sequence(items)) if **elem != TypeCode::Octet => {
            enc.write_len(items.len());
            for item in items {
                write_value(elem, item, enc);
            }
        }
        (TypeCode::Struct { members, .. }, Value::Struct(fields)) => {
            assert_eq!(
                members.len(),
                fields.len(),
                "struct value does not match its TypeCode"
            );
            for ((_, mtc), fv) in members.iter().zip(fields) {
                write_value(mtc, fv, enc);
            }
        }
        (TypeCode::Enum { .. }, Value::Enum(d)) => enc.write_u32(*d),
        (tc, v) => panic!("Any value {v:?} does not conform to TypeCode {tc:?}"),
    }
}

fn read_value(tc: &TypeCode, dec: &mut CdrDecoder<'_>) -> CdrResult<Value> {
    Ok(match tc {
        TypeCode::Void => Value::Void,
        TypeCode::Boolean => Value::Boolean(dec.read_bool()?),
        TypeCode::Octet => Value::Octet(dec.read_u8()?),
        TypeCode::Short => Value::Short(dec.read_i16()?),
        TypeCode::Long => Value::Long(dec.read_i32()?),
        TypeCode::LongLong => Value::LongLong(dec.read_i64()?),
        TypeCode::UShort => Value::UShort(dec.read_u16()?),
        TypeCode::ULong => Value::ULong(dec.read_u32()?),
        TypeCode::ULongLong => Value::ULongLong(dec.read_u64()?),
        TypeCode::Float => Value::Float(dec.read_f32()?),
        TypeCode::Double => Value::Double(dec.read_f64()?),
        TypeCode::String => Value::String(dec.read_string()?),
        TypeCode::Sequence(elem) if **elem == TypeCode::Octet => {
            Value::Octets(dec.read_octets()?.to_vec())
        }
        TypeCode::Sequence(elem) => {
            let n = dec.read_len(1)?;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(read_value(elem, dec)?);
            }
            Value::Sequence(items)
        }
        TypeCode::Struct { members, .. } => {
            let mut fields = Vec::with_capacity(members.len());
            for (_, mtc) in members {
                fields.push(read_value(mtc, dec)?);
            }
            Value::Struct(fields)
        }
        TypeCode::Enum { members, .. } => {
            let d = dec.read_u32()?;
            if d as usize >= members.len() {
                return Err(CdrError::InvalidEnumTag(d));
            }
            Value::Enum(d)
        }
    })
}

impl CdrWrite for Any {
    fn write(&self, enc: &mut CdrEncoder) {
        self.tc.write(enc);
        write_value(&self.tc, &self.value, enc);
    }
}

/// [`read_value`] over `v`, reusing the buffers of strings, octet
/// sequences and structs that already have the shape `tc` gives them.
fn read_value_into(tc: &TypeCode, v: &mut Value, dec: &mut CdrDecoder<'_>) -> CdrResult<()> {
    match (tc, v) {
        (TypeCode::String, Value::String(s)) => s.read_into(dec),
        (TypeCode::Sequence(elem), Value::Octets(bytes)) if **elem == TypeCode::Octet => {
            let src = dec.read_octets()?;
            bytes.clear();
            bytes.extend_from_slice(src);
            Ok(())
        }
        (TypeCode::Struct { members, .. }, Value::Struct(fields))
            if fields.len() == members.len() =>
        {
            for ((_, mtc), field) in members.iter().zip(fields) {
                read_value_into(mtc, field, dec)?;
            }
            Ok(())
        }
        (tc, v) => {
            *v = read_value(tc, dec)?;
            Ok(())
        }
    }
}

impl CdrRead for Any {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let tc = TypeCode::read(dec)?;
        let value = read_value(&tc, dec)?;
        Ok(Any { tc, value })
    }

    /// A stream carrying this `Any`'s TypeCode is checked against it, not
    /// decoded into a new one, and the value is read over the old one.
    fn read_into(&mut self, dec: &mut CdrDecoder<'_>) -> CdrResult<()> {
        let mut ahead = dec.clone();
        if self.tc.read_matches(&mut ahead) == Ok(true) {
            *dec = ahead;
            read_value_into(&self.tc, &mut self.value, dec)
        } else {
            *self = Any::read(dec)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{from_bytes, to_bytes};

    #[test]
    fn primitive_any_round_trip() {
        for (tc, value) in [
            (TypeCode::Double, Value::Double(1.25)),
            (TypeCode::Long, Value::Long(-7)),
            (TypeCode::ULong, Value::ULong(42)),
            (TypeCode::String, Value::String("hello".into())),
            (TypeCode::Boolean, Value::Boolean(true)),
        ] {
            let any = Any { tc, value };
            let back: Any = from_bytes(&to_bytes(&any)).unwrap();
            assert_eq!(any, back);
        }
    }

    #[test]
    fn sequence_any_round_trip() {
        let any = Any {
            tc: TypeCode::Sequence(Box::new(TypeCode::Double)),
            value: Value::Sequence([1.0, 2.5, -3.75].map(Value::Double).to_vec()),
        };
        let back: Any = from_bytes(&to_bytes(&any)).unwrap();
        assert_eq!(any, back);
    }

    #[test]
    fn struct_any_round_trip() {
        let tc = TypeCode::Struct {
            name: "Pair".into(),
            members: vec![("a".into(), TypeCode::Long), ("b".into(), TypeCode::String)],
        };
        let any = Any {
            tc,
            value: Value::Struct(vec![Value::Long(3), Value::String("x".into())]),
        };
        let back: Any = from_bytes(&to_bytes(&any)).unwrap();
        assert_eq!(any, back);
    }

    #[test]
    fn enum_any_rejects_out_of_range() {
        let tc = TypeCode::Enum {
            name: "E".into(),
            members: vec!["A".into()],
        };
        let any = Any {
            tc: tc.clone(),
            value: Value::Enum(0),
        };
        let mut bytes = to_bytes(&any);
        // Corrupt the discriminant (last 4 bytes) to 5.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(
            from_bytes::<Any>(&bytes).unwrap_err(),
            CdrError::InvalidEnumTag(5)
        );
    }

    #[test]
    fn read_into_a_value_of_the_same_shape_keeps_its_buffers() {
        let chunk = |epoch: u64, data: &[u8]| Any {
            tc: TypeCode::Struct {
                name: "CkptChunk".into(),
                members: vec![
                    ("epoch".into(), TypeCode::ULongLong),
                    ("data".into(), TypeCode::Sequence(Box::new(TypeCode::Octet))),
                ],
            },
            value: Value::Struct(vec![Value::ULongLong(epoch), Value::Octets(data.to_vec())]),
        };
        let buffers = |a: &Any| match (&a.tc, &a.value) {
            (TypeCode::Struct { name, .. }, Value::Struct(fields)) => match &fields[1] {
                Value::Octets(data) => (name.as_ptr(), data.as_ptr()),
                other => panic!("not octets: {other:?}"),
            },
            other => panic!("not a chunk: {other:?}"),
        };
        let mut over = chunk(1, &[9; 64]);
        let before = buffers(&over);
        let next = chunk(2, &[7; 64]);
        crate::from_bytes_into(&mut over, &to_bytes(&next)).unwrap();
        assert_eq!(over, next);
        assert_eq!(buffers(&over), before);
    }

    #[test]
    #[should_panic(expected = "does not conform")]
    fn mismatched_any_panics_on_encode() {
        let any = Any {
            tc: TypeCode::Long,
            value: Value::String("oops".into()),
        };
        let _ = to_bytes(&any);
    }
}
