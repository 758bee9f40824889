//! `CdrWrite` / `CdrRead`: typed (de)serialization over the CDR streams,
//! plus the [`cdr_struct!`](crate::cdr_struct) and
//! [`cdr_enum!`](crate::cdr_enum) helper macros for user-defined types.

use crate::decode::CdrDecoder;
use crate::encode::CdrEncoder;
use crate::error::{CdrError, CdrResult};

/// Types that can be marshalled into a CDR stream.
pub trait CdrWrite {
    /// Append this value to the encoder.
    fn write(&self, enc: &mut CdrEncoder);

    /// Append `items` back to back: the body of a sequence or array, after
    /// any length prefix. Fixed-width primitives override the element-by-
    /// element default with one pass over the slice; the bytes must match.
    fn write_slice(items: &[Self], enc: &mut CdrEncoder)
    where
        Self: Sized,
    {
        for item in items {
            item.write(enc);
        }
    }
}

/// Types that can be unmarshalled from a CDR stream.
pub trait CdrRead: Sized {
    /// Read one value from the decoder.
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self>;

    /// Read `n` values back to back, the inverse of
    /// [`CdrWrite::write_slice`]. `n` comes off the wire: allocate for no
    /// more of it than the stream has been seen to hold.
    fn read_vec(dec: &mut CdrDecoder<'_>, n: usize) -> CdrResult<Vec<Self>> {
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(Self::read(dec)?);
        }
        Ok(v)
    }

    /// Read one value over `self`, reusing what it already holds — a
    /// string's buffer, an `Any`'s TypeCode — for a caller that decodes
    /// values of one shape again and again. After an error `self` holds
    /// some value of its type, not necessarily the old one. The default
    /// reads a fresh value.
    fn read_into(&mut self, dec: &mut CdrDecoder<'_>) -> CdrResult<()> {
        *self = Self::read(dec)?;
        Ok(())
    }
}

/// Encode a single value as a standalone CDR stream.
pub fn to_bytes<T: CdrWrite + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = CdrEncoder::new();
    value.write(&mut enc);
    enc.into_bytes()
}

/// Decode a single value from a standalone CDR stream, requiring the
/// stream to be fully consumed.
pub fn from_bytes<T: CdrRead>(bytes: &[u8]) -> CdrResult<T> {
    let mut dec = CdrDecoder::new(bytes);
    let v = T::read(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

/// [`from_bytes`] over `value`, through [`CdrRead::read_into`].
pub fn from_bytes_into<T: CdrRead>(value: &mut T, bytes: &[u8]) -> CdrResult<()> {
    let mut dec = CdrDecoder::new(bytes);
    value.read_into(&mut dec)?;
    dec.finish()
}

macro_rules! prim_impl {
    ($($ty:ty: $w:ident $r:ident),+ $(,)?) => {$(
        impl CdrWrite for $ty {
            fn write(&self, enc: &mut CdrEncoder) {
                enc.$w(*self);
            }
            fn write_slice(items: &[Self], enc: &mut CdrEncoder) {
                enc.write_prims(items, <$ty>::to_le_bytes);
            }
        }
        impl CdrRead for $ty {
            fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
                dec.$r()
            }
            fn read_vec(dec: &mut CdrDecoder<'_>, n: usize) -> CdrResult<Vec<Self>> {
                dec.read_prims(n, <$ty>::from_le_bytes)
            }
        }
    )+};
}

prim_impl! {
    u8: write_u8 read_u8, i8: write_i8 read_i8,
    u16: write_u16 read_u16, i16: write_i16 read_i16,
    u32: write_u32 read_u32, i32: write_i32 read_i32,
    u64: write_u64 read_u64, i64: write_i64 read_i64,
    f32: write_f32 read_f32, f64: write_f64 read_f64,
}

// `bool` keeps the per-element hooks: every octet must be checked.
impl CdrWrite for bool {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_bool(*self);
    }
}

impl CdrRead for bool {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        dec.read_bool()
    }
}

impl CdrWrite for String {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_string(self);
    }
}

impl CdrWrite for str {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_string(self);
    }
}

impl CdrRead for String {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        dec.read_string()
    }

    fn read_into(&mut self, dec: &mut CdrDecoder<'_>) -> CdrResult<()> {
        let s = dec.read_str()?;
        self.clear();
        self.push_str(s);
        Ok(())
    }
}

impl<T: CdrWrite> CdrWrite for Vec<T> {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_len(self.len());
        T::write_slice(self, enc);
    }
}

impl<T: CdrRead> CdrRead for Vec<T> {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let n = dec.read_len(1)?;
        T::read_vec(dec, n)
    }
}

impl<T: CdrWrite> CdrWrite for Option<T> {
    fn write(&self, enc: &mut CdrEncoder) {
        match self {
            None => enc.write_bool(false),
            Some(v) => {
                enc.write_bool(true);
                v.write(enc);
            }
        }
    }
}

impl<T: CdrRead> CdrRead for Option<T> {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        if dec.read_bool()? {
            Ok(Some(T::read(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl CdrWrite for () {
    fn write(&self, _enc: &mut CdrEncoder) {}
}

impl CdrRead for () {
    fn read(_dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(())
    }
}

macro_rules! tuple_impl {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: CdrWrite),+> CdrWrite for ($($name,)+) {
            fn write(&self, enc: &mut CdrEncoder) {
                $( self.$idx.write(enc); )+
            }
        }
        impl<$($name: CdrRead),+> CdrRead for ($($name,)+) {
            fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
                Ok(( $( $name::read(dec)?, )+ ))
            }

            fn read_into(&mut self, dec: &mut CdrDecoder<'_>) -> CdrResult<()> {
                $( self.$idx.read_into(dec)?; )+
                Ok(())
            }
        }
    };
}

tuple_impl!(A: 0);
tuple_impl!(A: 0, B: 1);
tuple_impl!(A: 0, B: 1, C: 2);
tuple_impl!(A: 0, B: 1, C: 2, D: 3);

impl<T: CdrWrite, const N: usize> CdrWrite for [T; N] {
    fn write(&self, enc: &mut CdrEncoder) {
        T::write_slice(self, enc);
    }
}

impl<T: CdrRead, const N: usize> CdrRead for [T; N] {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        // `Err` only if a `read_vec` override breaks its contract on `n`.
        T::read_vec(dec, N)?
            .try_into()
            .map_err(|v: Vec<T>| CdrError::LengthOverrun(v.len() as u64))
    }
}

impl<T: CdrWrite + ?Sized> CdrWrite for &T {
    fn write(&self, enc: &mut CdrEncoder) {
        (*self).write(enc);
    }
}

/// Implement `CdrWrite`/`CdrRead` for a struct with named fields, written
/// field-by-field in declaration order (the CDR struct rule).
///
/// ```
/// cdr::cdr_struct!(Point { x: f64, y: f64 });
/// let p = Point { x: 1.0, y: 2.0 };
/// let bytes = cdr::to_bytes(&p);
/// let q: Point = cdr::from_bytes(&bytes).unwrap();
/// assert_eq!(p, q);
/// ```
#[macro_export]
macro_rules! cdr_struct {
    ($(#[$meta:meta])* $name:ident { $($(#[$fmeta:meta])* $field:ident : $ty:ty),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::CdrWrite for $name {
            fn write(&self, enc: &mut $crate::CdrEncoder) {
                $( $crate::CdrWrite::write(&self.$field, enc); )*
            }
        }

        impl $crate::CdrRead for $name {
            fn read(dec: &mut $crate::CdrDecoder<'_>) -> $crate::CdrResult<Self> {
                Ok($name {
                    $($field: $crate::CdrRead::read(dec)?,)*
                })
            }
        }
    };
}

/// Implement `CdrWrite`/`CdrRead` for a C-like enum, marshalled as a u32
/// discriminant (the CDR enum rule).
///
/// ```
/// cdr::cdr_enum!(Color { Red = 0, Green = 1, Blue = 2 });
/// let bytes = cdr::to_bytes(&Color::Green);
/// assert_eq!(cdr::from_bytes::<Color>(&bytes).unwrap(), Color::Green);
/// ```
#[macro_export]
macro_rules! cdr_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident = $tag:expr),* $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant = $tag,)*
        }

        impl $crate::CdrWrite for $name {
            fn write(&self, enc: &mut $crate::CdrEncoder) {
                enc.write_u32(*self as u32);
            }
        }

        impl $crate::CdrRead for $name {
            fn read(dec: &mut $crate::CdrDecoder<'_>) -> $crate::CdrResult<Self> {
                match dec.read_u32()? {
                    $($tag => Ok($name::$variant),)*
                    other => Err($crate::CdrError::InvalidEnumTag(other)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    cdr_struct!(Point { x: f64, y: f64 });
    cdr_struct!(Nested {
        id: u32,
        name: String,
        points: Vec<Point>,
        tag: Option<u8>,
    });
    cdr_enum!(Status {
        Idle = 0,
        Busy = 1,
        Down = 2,
    });

    #[test]
    fn struct_round_trip() {
        let v = Nested {
            id: 9,
            name: "worker".into(),
            points: vec![Point { x: 1.0, y: -2.0 }, Point { x: 0.5, y: 0.25 }],
            tag: Some(3),
        };
        let bytes = to_bytes(&v);
        let back: Nested = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn enum_round_trip_and_bad_tag() {
        let bytes = to_bytes(&Status::Down);
        assert_eq!(from_bytes::<Status>(&bytes).unwrap(), Status::Down);
        let bad = to_bytes(&99u32);
        assert_eq!(
            from_bytes::<Status>(&bad).unwrap_err(),
            CdrError::InvalidEnumTag(99)
        );
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v: Vec<Option<u16>> = vec![Some(1), None, Some(65535)];
        let back: Vec<Option<u16>> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn tuple_round_trip() {
        let v = (1u8, "x".to_string(), 2.5f64);
        let back: (u8, String, f64) = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn array_round_trip() {
        let v = [1.0f64, 2.0, 3.0];
        let back: [f64; 3] = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn unit_is_empty() {
        assert!(to_bytes(&()).is_empty());
        from_bytes::<()>(&[]).unwrap();
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut bytes = to_bytes(&5u32);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<u32>(&bytes).unwrap_err(),
            CdrError::TrailingBytes(1)
        ));
    }
}
