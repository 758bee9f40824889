//! The CDR encoder: an append-only byte stream with CORBA alignment rules.
//!
//! CDR aligns every primitive to its natural size, measured from the start
//! of the stream (in GIOP, from the start of the message body). Padding
//! bytes are zero. Primitives are little-endian, the order of the hosts
//! this runs on: GIOP's flag names the order a frame is in, and every
//! frame this ORB writes names this one.

/// The least a stream's first write reserves: a typical request or reply
/// body then takes one allocation, not a run of doublings from eight bytes.
/// A write that has to grow the stream also leaves this much room after
/// itself, so the fields that follow a bulk write (a frame's service
/// contexts) do not move it again. An encoder nothing is written to
/// allocates nothing.
const MIN_CAPACITY: usize = 128;

/// An encoder for a single CDR stream.
#[derive(Debug, Default)]
pub struct CdrEncoder {
    buf: Vec<u8>,
    /// Where the stream alignment is measured from: 0, or the first byte
    /// of the octet sequence [`CdrEncoder::write_octets_with`] is writing.
    origin: usize,
}

macro_rules! write_prim {
    ($($name:ident: $ty:ty),+ $(,)?) => {$(
        /// Write a primitive with its natural CDR alignment.
        pub fn $name(&mut self, v: $ty) {
            self.align(std::mem::size_of::<$ty>());
            self.room(std::mem::size_of::<$ty>());
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    )+};
}

impl CdrEncoder {
    /// A new, empty encoder.
    pub fn new() -> Self {
        CdrEncoder::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Make room for `additional` more bytes, for a caller that knows the
    /// size of what it is about to write.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Make room for the `n` bytes about to be written, and if that takes
    /// an allocation, for [`MIN_CAPACITY`] more.
    fn room(&mut self, n: usize) {
        if self.buf.capacity() - self.buf.len() < n {
            self.buf.reserve(n + MIN_CAPACITY);
        }
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Insert zero padding so the next write lands on an `n`-byte boundary
    /// relative to the start of the stream.
    pub fn align(&mut self, n: usize) {
        debug_assert!(n.is_power_of_two());
        let pad = (n - (self.buf.len() - self.origin) % n) % n;
        self.room(pad);
        self.buf.resize(self.buf.len() + pad, 0);
    }

    /// Write a boolean as an octet (1 = true, 0 = false).
    pub fn write_bool(&mut self, v: bool) {
        self.room(1);
        self.buf.push(v as u8);
    }

    write_prim! {
        write_u8: u8, write_i8: i8, write_u16: u16, write_i16: i16, write_u32: u32, write_i32: i32,
        write_u64: u64, write_i64: i64, write_f32: f32, write_f64: f64,
    }

    /// Write `items` back to back as `W`-byte primitives, the body of a
    /// sequence or array: align once, reserve once, convert in one pass
    /// through the type's `to_le_bytes` into the reserved region (on a
    /// little-endian host, a copy). The bytes are those of writing the
    /// items one by one.
    pub(crate) fn write_prims<T: Copy, const W: usize>(
        &mut self,
        items: &[T],
        to_le: impl Fn(T) -> [u8; W],
    ) {
        if items.is_empty() {
            // No element, so no alignment padding either.
            return;
        }
        self.align(W);
        self.room(items.len() * W);
        let start = self.buf.len();
        self.buf.resize(start + items.len() * W, 0);
        let (chunks, _) = self.buf[start..].as_chunks_mut::<W>();
        for (chunk, &v) in chunks.iter_mut().zip(items) {
            *chunk = to_le(v);
        }
    }

    /// Write a sequence length prefix. Every counted thing (sequence,
    /// string, octet sequence) goes through here.
    ///
    /// # Panics
    /// If `n` does not fit CDR's 32-bit count.
    pub fn write_len(&mut self, n: usize) {
        self.write_u32(u32::try_from(n).expect("sequence too long for CDR"));
    }

    /// Write a CDR string: u32 length *including* the NUL terminator,
    /// the UTF-8 bytes, then the NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_len(s.len() + 1);
        self.room(s.len() + 1);
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(0);
    }

    /// Write an octet sequence: u32 count then raw bytes.
    pub fn write_bytes(&mut self, b: &[u8]) {
        self.write_octets_with(|enc| enc.write_raw(b));
    }

    /// Write an octet sequence whose content `content` encodes in place:
    /// aligned from the content's first byte, as if it were a stream of
    /// its own, so the octets are what [`crate::to_bytes`] would give for
    /// the same writes. The count is patched in once the content is
    /// written. This is how a GIOP request carries its parameters without
    /// encoding them anywhere but into the frame.
    ///
    /// # Panics
    /// If the content does not fit CDR's 32-bit count.
    pub fn write_octets_with(&mut self, content: impl FnOnce(&mut CdrEncoder)) {
        self.write_u32(0);
        let start = self.buf.len();
        let outer = std::mem::replace(&mut self.origin, start);
        content(self);
        self.origin = outer;
        let n = u32::try_from(self.buf.len() - start).expect("sequence too long for CDR");
        self.buf[start - 4..start].copy_from_slice(&n.to_le_bytes());
    }

    /// Append pre-encoded bytes verbatim (no length prefix, no alignment).
    /// Only sound when the bytes were encoded at a compatible alignment —
    /// e.g. appending a whole encoded parameter list to an empty stream.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.room(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_has_no_padding() {
        let mut e = CdrEncoder::new();
        e.write_u8(1);
        e.write_u8(2);
        assert_eq!(e.as_bytes(), &[1, 2]);
    }

    #[test]
    fn u32_aligns_to_four() {
        let mut e = CdrEncoder::new();
        e.write_u8(0xAA);
        e.write_u32(0x01020304);
        assert_eq!(e.as_bytes(), &[0xAA, 0, 0, 0, 4, 3, 2, 1]);
    }

    #[test]
    fn f64_aligns_to_eight() {
        let mut e = CdrEncoder::new();
        e.write_u8(1);
        e.write_f64(1.0);
        assert_eq!(e.len(), 16);
        assert_eq!(&e.as_bytes()[..8], &[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(&e.as_bytes()[8..], &[0, 0, 0, 0, 0, 0, 0xF0, 0x3F]);
    }

    #[test]
    fn primitives_are_little_endian() {
        let mut e = CdrEncoder::new();
        e.write_u16(0x0102);
        assert_eq!(e.as_bytes(), &[2, 1]);
    }

    #[test]
    fn string_is_nul_terminated_with_counted_length() {
        let mut e = CdrEncoder::new();
        e.write_string("hi");
        assert_eq!(e.as_bytes(), &[3, 0, 0, 0, b'h', b'i', 0]);
    }

    #[test]
    fn empty_string() {
        let mut e = CdrEncoder::new();
        e.write_string("");
        assert_eq!(e.as_bytes(), &[1, 0, 0, 0, 0]);
    }

    #[test]
    fn bytes_sequence() {
        let mut e = CdrEncoder::new();
        e.write_bytes(&[9, 8]);
        assert_eq!(e.as_bytes(), &[2, 0, 0, 0, 9, 8]);
    }

    #[test]
    fn alignment_is_relative_to_stream_start() {
        let mut e = CdrEncoder::new();
        e.write_u16(1); // bytes 0..2
        e.write_u16(2); // bytes 2..4, no padding
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn octets_written_in_place_are_aligned_from_their_first_byte() {
        let mut e = CdrEncoder::new();
        e.write_u64(7); // the count lands at 8, the content at 12
        e.write_octets_with(|e| {
            e.write_u8(1);
            e.write_f64(2.0); // at 8 from the content's start: 20, not 16
        });
        e.write_u32(3); // the stream's own alignment again
        let mut content = CdrEncoder::new();
        content.write_u8(1);
        content.write_f64(2.0);
        let mut expected = vec![7, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0];
        expected.extend_from_slice(content.as_bytes());
        expected.extend_from_slice(&[3, 0, 0, 0]);
        assert_eq!(e.as_bytes(), &expected[..]);
    }
}
