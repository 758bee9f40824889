//! Checkpoint epoch: a monotone version counter with its own type.
//!
//! Epochs travel through the whole FT stack — proxy, checkpoint service,
//! replicated store, monitoring events — alongside many other `u64`
//! quantities (virtual times, sequence numbers, byte counts). Carrying
//! them as bare `u64` made it possible to hand a timestamp to a quorum
//! comparison without a diagnostic; the contract structs now carry this
//! newtype, so a bare `u64` meeting one of their epochs is a type error.
//!
//! On the wire an `Epoch` is exactly an `unsigned long long` (`idl/ft.idl`
//! declares it `native Epoch` and the generated `FT::Checkpoint` holds
//! this type), so adopting the newtype changes no encoded byte.

use std::fmt;

use crate::decode::CdrDecoder;
use crate::encode::CdrEncoder;
use crate::error::CdrResult;
use crate::traits::{CdrRead, CdrWrite};

/// A checkpoint version. Ordered, copyable, and CDR-transparent
/// (encodes as the inner `u64`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch before any checkpoint exists.
    pub const ZERO: Epoch = Epoch(0);

    /// The successor epoch (the next checkpoint's version).
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// The raw counter, for display widths and metrics gauges.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl From<u64> for Epoch {
    fn from(v: u64) -> Epoch {
        Epoch(v)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl CdrWrite for Epoch {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_u64(self.0);
    }
}

impl CdrRead for Epoch {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(Epoch(dec.read_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{from_bytes, to_bytes};

    #[test]
    fn wire_transparent_with_u64() {
        let e = Epoch(42);
        assert_eq!(to_bytes(&e), to_bytes(&42u64));
        let back: Epoch = from_bytes(&to_bytes(&7u64)).unwrap();
        assert_eq!(back, Epoch(7));
    }

    #[test]
    fn ordering_and_successor() {
        assert!(Epoch::ZERO < Epoch(1));
        assert_eq!(Epoch(3).next(), Epoch(4));
        assert_eq!(Epoch::from(9).get(), 9);
        assert_eq!(format!("{}", Epoch(12)), "12");
    }
}
