//! The per-value checkpoint layout: how [`CheckpointMode::PerValue`] lays
//! one state out as named values of the checkpoint service, and how the
//! proxy and the store read them back.
//!
//! An object's values are a header under [`HEADER_KEY`], a `CkptHeader
//! { len, epoch, chunk }` — the state's length, its epoch and the chunk
//! size — and the state cut into `chunk`-byte pieces under
//! [`chunk_key`]`(0)`, `(1)`, …, each a `CkptChunk { epoch, data }`, so
//! reassembly can tell the chunks of two checkpoints apart. A reader takes
//! a record only when both its struct name and its field shape are the
//! ones written here.
//!
//! [`CheckpointMode::PerValue`]: crate::CheckpointMode::PerValue

use cdr::{Any, Epoch, TypeCode, Value};

/// The key an object's header is stored under.
pub const HEADER_KEY: &str = "header";

/// The key of the `i`-th chunk of an object's state.
pub fn chunk_key(i: usize) -> String {
    format!("w{i}")
}

/// What a `CkptHeader` says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Length of the whole state in bytes.
    pub len: u64,
    /// The checkpoint's epoch; every chunk of it carries the same one.
    pub epoch: Epoch,
    /// Bytes per chunk (the last one may be shorter).
    pub chunk: u64,
}

impl Header {
    /// The header as the `any` the store keeps.
    pub fn to_any(self) -> Any {
        Any {
            tc: TypeCode::Struct {
                name: "CkptHeader".into(),
                members: vec![
                    ("len".into(), TypeCode::ULongLong),
                    ("epoch".into(), TypeCode::ULongLong),
                    ("chunk".into(), TypeCode::ULongLong),
                ],
            },
            value: Value::Struct(vec![
                Value::ULongLong(self.len),
                Value::ULongLong(self.epoch.get()),
                Value::ULongLong(self.chunk),
            ]),
        }
    }

    /// The header `v` holds, if it is one.
    pub fn read(v: &Any) -> Option<Header> {
        match fields_of(v, "CkptHeader")? {
            [Value::ULongLong(len), Value::ULongLong(epoch), Value::ULongLong(chunk)] => {
                Some(Header {
                    len: *len,
                    epoch: Epoch(*epoch),
                    chunk: *chunk,
                })
            }
            _ => None,
        }
    }
}

/// A `CkptChunk` of `epoch` holding `data`. A writer storing several
/// chunks refills one with [`refill_chunk`] instead of building each.
pub fn chunk(epoch: Epoch, data: &[u8]) -> Any {
    Any {
        tc: TypeCode::Struct {
            name: "CkptChunk".into(),
            members: vec![
                ("epoch".into(), TypeCode::ULongLong),
                ("data".into(), TypeCode::Sequence(Box::new(TypeCode::Octet))),
            ],
        },
        value: Value::Struct(vec![
            Value::ULongLong(epoch.get()),
            Value::Octets(data.to_vec()),
        ]),
    }
}

/// Make `data` the data of a [`chunk`], keeping its buffer.
pub fn refill_chunk(chunk: &mut Any, data: &[u8]) {
    if let Value::Struct(fields) = &mut chunk.value {
        if let Some(Value::Octets(bytes)) = fields.get_mut(1) {
            bytes.clear();
            bytes.extend_from_slice(data);
        }
    }
}

/// The epoch and data of the chunk `v` holds, if it is one.
pub fn read_chunk(v: &Any) -> Option<(Epoch, &[u8])> {
    match fields_of(v, "CkptChunk")? {
        [Value::ULongLong(epoch), Value::Octets(data)] => Some((Epoch(*epoch), data)),
        _ => None,
    }
}

/// The fields of `v` when it is a struct named `name`.
fn fields_of<'a>(v: &'a Any, name: &str) -> Option<&'a [Value]> {
    match (&v.tc, &v.value) {
        (TypeCode::Struct { name: n, .. }, Value::Struct(fields)) if n == name => Some(fields),
        _ => None,
    }
}
