//! The CDR decoder: a cursor over a byte slice applying the same alignment
//! rules and the same (little-endian) byte order as the encoder.

use crate::error::{CdrError, CdrResult};

/// A decoder over one CDR stream. Cloning it gives a second cursor at the
/// same position.
#[derive(Clone, Debug)]
pub struct CdrDecoder<'a> {
    data: &'a [u8],
    pos: usize,
}

macro_rules! read_prim {
    ($($name:ident: $ty:ty),+ $(,)?) => {$(
        /// Read a primitive with its natural CDR alignment.
        pub fn $name(&mut self) -> CdrResult<$ty> {
            const W: usize = std::mem::size_of::<$ty>();
            self.align(W)?;
            let bytes: [u8; W] = self.take(W)?.try_into().expect("sized take");
            Ok(<$ty>::from_le_bytes(bytes))
        }
    )+};
}

impl<'a> CdrDecoder<'a> {
    /// Decode `data` from its first byte.
    pub fn new(data: &'a [u8]) -> Self {
        CdrDecoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fail if any bytes remain (whole-message decodes).
    pub fn finish(&self) -> CdrResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CdrError::TrailingBytes(self.remaining()))
        }
    }

    fn align(&mut self, n: usize) -> CdrResult<()> {
        debug_assert!(n.is_power_of_two());
        self.take((n - self.pos % n) % n).map(|_| ())
    }

    fn take(&mut self, n: usize) -> CdrResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CdrError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a boolean octet, rejecting anything but 0 or 1.
    pub fn read_bool(&mut self) -> CdrResult<bool> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CdrError::InvalidBool(b)),
        }
    }

    read_prim! {
        read_u8: u8, read_i8: i8, read_u16: u16, read_i16: i16, read_u32: u32, read_i32: i32,
        read_u64: u64, read_i64: i64, read_f32: f32, read_f64: f64,
    }

    /// Read `n` back-to-back `W`-byte primitives, the body of a sequence or
    /// array: align once, bounds-check once (a count the stream cannot hold
    /// is `LengthOverrun`, before anything is allocated), convert in one
    /// pass through the type's `from_le_bytes` (on a little-endian host, a
    /// copy).
    pub(crate) fn read_prims<T, const W: usize>(
        &mut self,
        n: usize,
        from_le: impl Fn([u8; W]) -> T,
    ) -> CdrResult<Vec<T>> {
        if n == 0 {
            // No element, so no alignment padding either.
            return Ok(Vec::new());
        }
        self.align(W)?;
        let len = n
            .checked_mul(W)
            .filter(|&len| len <= self.remaining())
            .ok_or(CdrError::LengthOverrun(n as u64))?;
        let (chunks, _) = self.take(len)?.as_chunks::<W>();
        Ok(chunks.iter().map(|&c| from_le(c)).collect())
    }

    /// Read a CDR string (length includes the NUL terminator).
    pub fn read_string(&mut self) -> CdrResult<String> {
        self.read_str().map(str::to_owned)
    }

    /// [`CdrDecoder::read_string`] without the copy: the string as it lies
    /// in the stream.
    pub fn read_str(&mut self) -> CdrResult<&'a str> {
        let len = self.read_u32()? as usize;
        if len == 0 {
            // Not produced by our encoder, but tolerated: an empty string
            // without terminator.
            return Ok("");
        }
        let bytes = self.take(len)?;
        let (body, nul) = bytes.split_at(len - 1);
        if nul != [0] {
            return Err(CdrError::MissingNul);
        }
        std::str::from_utf8(body).map_err(|_| CdrError::InvalidUtf8)
    }

    /// A `sequence<octet>` as it lies in the stream: the count through
    /// [`CdrDecoder::read_len`] (an over-long one is `LengthOverrun`), then
    /// that many bytes.
    pub fn read_octets(&mut self) -> CdrResult<&'a [u8]> {
        let n = self.read_len(1)?;
        self.take(n)
    }

    /// Read a sequence length prefix, validating it against the remaining
    /// stream so corrupt input cannot trigger huge allocations. `min_elem`
    /// is the smallest possible encoding of one element.
    pub fn read_len(&mut self, min_elem: usize) -> CdrResult<usize> {
        let n = self.read_u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(CdrError::LengthOverrun(n as u64));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::CdrEncoder;

    #[test]
    fn round_trip_primitives() {
        let mut e = CdrEncoder::new();
        e.write_u8(7);
        e.write_u16(513);
        e.write_u32(70_000);
        e.write_u64(1 << 40);
        e.write_i32(-5);
        e.write_f64(3.25);
        e.write_bool(true);
        let bytes = e.into_bytes();
        let mut d = CdrDecoder::new(&bytes);
        assert_eq!(d.read_u8().unwrap(), 7);
        assert_eq!(d.read_u16().unwrap(), 513);
        assert_eq!(d.read_u32().unwrap(), 70_000);
        assert_eq!(d.read_u64().unwrap(), 1 << 40);
        assert_eq!(d.read_i32().unwrap(), -5);
        assert_eq!(d.read_f64().unwrap(), 3.25);
        assert!(d.read_bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn primitives_are_read_little_endian() {
        let mut d = CdrDecoder::new(&[0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(d.read_u32().unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn eof_is_reported() {
        let mut d = CdrDecoder::new(&[0, 0]);
        let err = d.read_u32().unwrap_err();
        assert!(matches!(err, CdrError::UnexpectedEof { .. }));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let mut d = CdrDecoder::new(&[7]);
        assert_eq!(d.read_bool().unwrap_err(), CdrError::InvalidBool(7));
    }

    #[test]
    fn string_round_trip() {
        let mut e = CdrEncoder::new();
        e.write_string("grüße");
        let bytes = e.into_bytes();
        let mut d = CdrDecoder::new(&bytes);
        assert_eq!(d.read_string().unwrap(), "grüße");
    }

    #[test]
    fn string_missing_nul_is_rejected() {
        // length 2, bytes "ab" (no NUL)
        let raw = [2, 0, 0, 0, b'a', b'b'];
        let mut d = CdrDecoder::new(&raw);
        assert_eq!(d.read_string().unwrap_err(), CdrError::MissingNul);
    }

    #[test]
    fn string_invalid_utf8_is_rejected() {
        let raw = [2, 0, 0, 0, 0xFF, 0];
        let mut d = CdrDecoder::new(&raw);
        assert_eq!(d.read_string().unwrap_err(), CdrError::InvalidUtf8);
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut d = CdrDecoder::new(&[1, 2]);
        d.read_u8().unwrap();
        assert_eq!(d.finish().unwrap_err(), CdrError::TrailingBytes(1));
    }

    #[test]
    fn hostile_length_does_not_allocate() {
        // A sequence claiming u32::MAX elements in a 6-byte stream.
        let raw = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        let mut d = CdrDecoder::new(&raw);
        assert!(matches!(
            d.read_len(1).unwrap_err(),
            CdrError::LengthOverrun(_)
        ));
    }

    #[test]
    fn alignment_skips_padding_on_read() {
        let mut e = CdrEncoder::new();
        e.write_u8(1);
        e.write_u32(2);
        let bytes = e.into_bytes();
        let mut d = CdrDecoder::new(&bytes);
        assert_eq!(d.read_u8().unwrap(), 1);
        assert_eq!(d.read_u32().unwrap(), 2);
    }
}
