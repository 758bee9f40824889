//! W4 fixture: asymmetric hand-written CDR impls.

pub struct Pair {
    pub a: u32,
    pub b: u32,
}

impl CdrWrite for Pair {
    fn write(&self, enc: &mut CdrEncoder) {
        self.a.write(enc);
        self.b.write(enc);
    }
}

impl CdrRead for Pair {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        let b = u32::read(dec)?;
        let a = u32::read(dec)?;
        Ok(Pair { a, b })
    }
}
