//! `TypeCode`: runtime descriptions of CORBA types.
//!
//! TypeCodes make values self-describing, which is what the Dynamic
//! Invocation Interface needs: a DII `Request` carries `Any` arguments, and
//! an `Any` is a TypeCode plus a value encoded under that TypeCode.

use crate::decode::CdrDecoder;
use crate::encode::CdrEncoder;
use crate::error::{CdrError, CdrResult};
use crate::traits::{CdrRead, CdrWrite};

/// A runtime type description, a subset of the CORBA TypeCode lattice
/// sufficient for the protocols in this repository.
#[derive(Clone, Debug, PartialEq)]
pub enum TypeCode {
    /// No value (operation returns void).
    Void,
    /// Boolean octet.
    Boolean,
    /// Unsigned octet.
    Octet,
    /// 16-bit signed integer (`short`).
    Short,
    /// 32-bit signed integer (`long`).
    Long,
    /// 64-bit signed integer (`long long`).
    LongLong,
    /// 16-bit unsigned integer.
    UShort,
    /// 32-bit unsigned integer.
    ULong,
    /// 64-bit unsigned integer.
    ULongLong,
    /// IEEE single float.
    Float,
    /// IEEE double float.
    Double,
    /// NUL-terminated string.
    String,
    /// Variable-length sequence of one element type.
    Sequence(Box<TypeCode>),
    /// A named struct with ordered, named members.
    Struct {
        /// Interface-repository-style name.
        name: String,
        /// Member `(name, type)` pairs in declaration order.
        members: Vec<(String, TypeCode)>,
    },
    /// A C-like enum with named members, marshalled as u32.
    Enum {
        /// Interface-repository-style name.
        name: String,
        /// Member names; the discriminant is the index.
        members: Vec<String>,
    },
}

const TK_VOID: u32 = 0;
const TK_BOOLEAN: u32 = 1;
const TK_OCTET: u32 = 2;
const TK_SHORT: u32 = 3;
const TK_LONG: u32 = 4;
const TK_LONGLONG: u32 = 5;
const TK_USHORT: u32 = 6;
const TK_ULONG: u32 = 7;
const TK_ULONGLONG: u32 = 8;
const TK_FLOAT: u32 = 9;
const TK_DOUBLE: u32 = 10;
const TK_STRING: u32 = 11;
const TK_SEQUENCE: u32 = 12;
const TK_STRUCT: u32 = 13;
const TK_ENUM: u32 = 14;

impl TypeCode {
    /// The kind this TypeCode is marshalled under.
    fn kind(&self) -> u32 {
        match self {
            TypeCode::Void => TK_VOID,
            TypeCode::Boolean => TK_BOOLEAN,
            TypeCode::Octet => TK_OCTET,
            TypeCode::Short => TK_SHORT,
            TypeCode::Long => TK_LONG,
            TypeCode::LongLong => TK_LONGLONG,
            TypeCode::UShort => TK_USHORT,
            TypeCode::ULong => TK_ULONG,
            TypeCode::ULongLong => TK_ULONGLONG,
            TypeCode::Float => TK_FLOAT,
            TypeCode::Double => TK_DOUBLE,
            TypeCode::String => TK_STRING,
            TypeCode::Sequence(_) => TK_SEQUENCE,
            TypeCode::Struct { .. } => TK_STRUCT,
            TypeCode::Enum { .. } => TK_ENUM,
        }
    }

    /// Whether the TypeCode next in `dec` equals this one, read without
    /// building it. `Ok(true)` leaves `dec` just past it, as
    /// [`TypeCode::read`] would; otherwise `dec` is somewhere inside it.
    pub(crate) fn read_matches(&self, dec: &mut CdrDecoder<'_>) -> CdrResult<bool> {
        if dec.read_u32()? != self.kind() {
            return Ok(false);
        }
        Ok(match self {
            TypeCode::Sequence(elem) => elem.read_matches(dec)?,
            TypeCode::Struct { name, members } => {
                if dec.read_str()? != name || dec.read_len(1)? != members.len() {
                    return Ok(false);
                }
                for (mname, mtc) in members {
                    if dec.read_str()? != mname || !mtc.read_matches(dec)? {
                        return Ok(false);
                    }
                }
                true
            }
            TypeCode::Enum { name, members } => {
                if dec.read_str()? != name || dec.read_len(1)? != members.len() {
                    return Ok(false);
                }
                for m in members {
                    if dec.read_str()? != m {
                        return Ok(false);
                    }
                }
                true
            }
            _ => true,
        })
    }
}

impl CdrWrite for TypeCode {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_u32(self.kind());
        match self {
            TypeCode::Sequence(elem) => elem.write(enc),
            TypeCode::Struct { name, members } => {
                enc.write_string(name);
                enc.write_len(members.len());
                for (mname, mtc) in members {
                    enc.write_string(mname);
                    mtc.write(enc);
                }
            }
            TypeCode::Enum { name, members } => {
                enc.write_string(name);
                enc.write_len(members.len());
                for m in members {
                    enc.write_string(m);
                }
            }
            _ => {}
        }
    }
}

impl CdrRead for TypeCode {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let kind = dec.read_u32()?;
        Ok(match kind {
            TK_VOID => TypeCode::Void,
            TK_BOOLEAN => TypeCode::Boolean,
            TK_OCTET => TypeCode::Octet,
            TK_SHORT => TypeCode::Short,
            TK_LONG => TypeCode::Long,
            TK_LONGLONG => TypeCode::LongLong,
            TK_USHORT => TypeCode::UShort,
            TK_ULONG => TypeCode::ULong,
            TK_ULONGLONG => TypeCode::ULongLong,
            TK_FLOAT => TypeCode::Float,
            TK_DOUBLE => TypeCode::Double,
            TK_STRING => TypeCode::String,
            TK_SEQUENCE => TypeCode::Sequence(Box::new(TypeCode::read(dec)?)),
            TK_STRUCT => {
                let name = dec.read_string()?;
                let n = dec.read_len(1)?;
                let mut members = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    let mname = dec.read_string()?;
                    let mtc = TypeCode::read(dec)?;
                    members.push((mname, mtc));
                }
                TypeCode::Struct { name, members }
            }
            TK_ENUM => {
                let name = dec.read_string()?;
                let n = dec.read_len(1)?;
                let mut members = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    members.push(dec.read_string()?);
                }
                TypeCode::Enum { name, members }
            }
            other => return Err(CdrError::BadTypeCode(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{from_bytes, to_bytes};

    #[test]
    fn primitive_round_trip() {
        for tc in [
            TypeCode::Void,
            TypeCode::Boolean,
            TypeCode::Octet,
            TypeCode::Short,
            TypeCode::Long,
            TypeCode::LongLong,
            TypeCode::UShort,
            TypeCode::ULong,
            TypeCode::ULongLong,
            TypeCode::Float,
            TypeCode::Double,
            TypeCode::String,
        ] {
            let back: TypeCode = from_bytes(&to_bytes(&tc)).unwrap();
            assert_eq!(tc, back);
        }
    }

    #[test]
    fn nested_round_trip() {
        let tc = TypeCode::Struct {
            name: "LoadSample".into(),
            members: vec![
                ("host".into(), TypeCode::ULong),
                ("load".into(), TypeCode::Double),
                (
                    "tags".into(),
                    TypeCode::Sequence(Box::new(TypeCode::String)),
                ),
                (
                    "state".into(),
                    TypeCode::Enum {
                        name: "State".into(),
                        members: vec!["Up".into(), "Down".into()],
                    },
                ),
            ],
        };
        let back: TypeCode = from_bytes(&to_bytes(&tc)).unwrap();
        assert_eq!(tc, back);
    }

    #[test]
    fn read_matches_is_read_then_compare() {
        let chunk = |data: &str, elem: TypeCode| TypeCode::Struct {
            name: "CkptChunk".into(),
            members: vec![
                ("epoch".into(), TypeCode::ULongLong),
                (data.into(), TypeCode::Sequence(Box::new(elem))),
            ],
        };
        let e = |members: &[&str]| TypeCode::Enum {
            name: "E".into(),
            members: members.iter().map(|m| m.to_string()).collect(),
        };
        let all = [
            chunk("data", TypeCode::Octet),
            chunk("date", TypeCode::Octet),
            chunk("data", TypeCode::Double),
            TypeCode::Struct {
                name: "CkptChunk".into(),
                members: vec![("epoch".into(), TypeCode::ULongLong)],
            },
            e(&["A", "B"]),
            e(&["A"]),
            e(&["A", "C"]),
            TypeCode::Sequence(Box::new(TypeCode::Octet)),
            TypeCode::Octet,
            TypeCode::String,
        ];
        for a in &all {
            for b in &all {
                let bytes = to_bytes(b);
                let mut dec = CdrDecoder::new(&bytes);
                assert_eq!(a.read_matches(&mut dec), Ok(a == b), "{a:?} vs {b:?}");
                if a == b {
                    dec.finish().unwrap();
                }
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let bytes = to_bytes(&999u32);
        assert_eq!(
            from_bytes::<TypeCode>(&bytes).unwrap_err(),
            CdrError::BadTypeCode(999)
        );
    }
}
