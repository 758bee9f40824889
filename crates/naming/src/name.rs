//! CosNaming names: sequences of `(id, kind)` components. The flat
//! context answers one-component names only.

use cdr::{CdrDecoder, CdrEncoder, CdrRead, CdrResult, CdrWrite};

pub use crate::protocol::CosNaming::NameComponent;

impl NameComponent {
    /// A component with an empty kind.
    pub fn id(id: impl Into<String>) -> Self {
        NameComponent {
            id: id.into(),
            kind: String::new(),
        }
    }
}

/// A naming path: a non-empty sequence of components.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Name(pub Vec<NameComponent>);

impl Name {
    /// A single-component name with an empty kind.
    pub fn simple(id: impl Into<String>) -> Self {
        Name(vec![NameComponent::id(id)])
    }
}

impl CdrWrite for Name {
    fn write(&self, enc: &mut CdrEncoder) {
        self.0.write(enc);
    }
}

impl CdrRead for Name {
    fn read(dec: &mut CdrDecoder<'_>) -> CdrResult<Self> {
        Ok(Name(Vec::<NameComponent>::read(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdr_round_trip() {
        let n = Name(vec![
            NameComponent {
                id: "a".into(),
                kind: "b".into(),
            },
            NameComponent::id("c"),
        ]);
        let back: Name = cdr::from_bytes(&cdr::to_bytes(&n)).unwrap();
        assert_eq!(n, back);
    }
}
