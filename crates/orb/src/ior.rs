//! Interoperable Object References.
//!
//! An [`Ior`] names one CORBA object: the repository type id, the endpoint
//! (host + port) of the server process, and the object key within that
//! server's object adapter. IORs have the classic stringified form
//! `IOR:<hex of CDR body>` so they can be passed through files, command
//! lines, and naming services exactly as in a real ORB.

use cdr::{CdrDecoder, CdrEncoder, CdrRead, CdrResult, CdrWrite};
use simnet::{HostId, Port};
use std::fmt;

/// The key of an object within one server's object adapter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectKey(pub u64);

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

impl CdrWrite for ObjectKey {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_u64(self.0);
    }
}

impl CdrRead for ObjectKey {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(ObjectKey(dec.read_u64()?))
    }
}

/// An interoperable object reference.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ior {
    /// Repository type id, e.g. `IDL:Winner/SystemManager:1.0`.
    pub type_id: String,
    /// Host of the server process.
    pub host: HostId,
    /// Listening port of the server process.
    pub port: Port,
    /// Object key within the server's adapter.
    pub key: ObjectKey,
}

impl Ior {
    /// Build a reference from its parts.
    pub fn new(type_id: impl Into<String>, host: HostId, port: Port, key: ObjectKey) -> Self {
        Ior {
            type_id: type_id.into(),
            host,
            port,
            key,
        }
    }

    /// The classic stringified form: `IOR:` + hex of the CDR-encoded body.
    pub fn stringify(&self) -> String {
        let bytes = cdr::to_bytes(self);
        let mut s = String::with_capacity(4 + bytes.len() * 2);
        s.push_str("IOR:");
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for b in bytes {
            s.push(HEX[usize::from(b >> 4)].into());
            s.push(HEX[usize::from(b & 0xf)].into());
        }
        s
    }

    /// Parse a stringified reference produced by [`Ior::stringify`].
    pub fn destringify(s: &str) -> Result<Ior, IorParseError> {
        let hex = s.strip_prefix("IOR:").ok_or(IorParseError::MissingPrefix)?;
        if hex.len() % 2 != 0 {
            return Err(IorParseError::OddHexLength);
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        let raw = hex.as_bytes();
        for pair in raw.chunks_exact(2) {
            let hi = hex_val(pair[0]).ok_or(IorParseError::BadHexDigit)?;
            let lo = hex_val(pair[1]).ok_or(IorParseError::BadHexDigit)?;
            bytes.push(hi << 4 | lo);
        }
        cdr::from_bytes(&bytes).map_err(IorParseError::BadBody)
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Why a stringified IOR failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub enum IorParseError {
    /// The string does not start with `IOR:`.
    MissingPrefix,
    /// The hex part has odd length.
    OddHexLength,
    /// A non-hex character appeared in the body.
    BadHexDigit,
    /// The decoded body was not a valid reference.
    BadBody(cdr::CdrError),
}

impl fmt::Display for IorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IorParseError::MissingPrefix => f.write_str("missing IOR: prefix"),
            IorParseError::OddHexLength => f.write_str("odd hex length"),
            IorParseError::BadHexDigit => f.write_str("invalid hex digit"),
            IorParseError::BadBody(e) => write!(f, "invalid IOR body: {e}"),
        }
    }
}

impl std::error::Error for IorParseError {}

impl fmt::Debug for Ior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ior({} @{}:{} {:?})",
            self.type_id, self.host, self.port, self.key
        )
    }
}

impl CdrWrite for Ior {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_string(&self.type_id);
        enc.write_u32(self.host.0);
        enc.write_u16(self.port.0);
        self.key.write(enc);
    }
}

impl CdrRead for Ior {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(Ior {
            type_id: dec.read_string()?,
            host: HostId(dec.read_u32()?),
            port: Port(dec.read_u16()?),
            key: ObjectKey(dec.read_u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ior {
        Ior::new("IDL:Optim/Worker:1.0", HostId(3), Port(2809), ObjectKey(42))
    }

    #[test]
    fn stringify_round_trip() {
        let ior = sample();
        let s = ior.stringify();
        assert!(s.starts_with("IOR:"));
        assert_eq!(Ior::destringify(&s).unwrap(), ior);
    }

    #[test]
    fn destringify_rejects_garbage() {
        assert_eq!(
            Ior::destringify("corbaloc:rir:/NameService").unwrap_err(),
            IorParseError::MissingPrefix
        );
        assert_eq!(
            Ior::destringify("IOR:abc").unwrap_err(),
            IorParseError::OddHexLength
        );
        assert_eq!(
            Ior::destringify("IOR:zz").unwrap_err(),
            IorParseError::BadHexDigit
        );
        assert!(matches!(
            Ior::destringify("IOR:00").unwrap_err(),
            IorParseError::BadBody(_)
        ));
    }

    #[test]
    fn cdr_round_trip() {
        let ior = sample();
        let back: Ior = cdr::from_bytes(&cdr::to_bytes(&ior)).unwrap();
        assert_eq!(ior, back);
    }

    #[test]
    fn uppercase_hex_accepted() {
        let s = sample().stringify().replace("ior:", "IOR:").to_uppercase();
        let s = format!("IOR:{}", &s[4..]);
        assert_eq!(Ior::destringify(&s).unwrap(), sample());
    }
}
