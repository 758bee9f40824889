//! CosNaming names: sequences of `(id, kind)` components, with the
//! standard stringified form `id.kind/id.kind` (and `\`-escaping for the
//! three special characters `.`, `/`, `\`).

use cdr::{CdrDecoder, CdrEncoder, CdrRead, CdrResult, CdrWrite};
use std::fmt;

pub use crate::protocol::CosNaming::NameComponent;

/// One name component is an `id` and a `kind` (both may be empty, but a
/// fully empty component is invalid).
impl NameComponent {
    /// A component with an empty kind.
    pub fn id(id: impl Into<String>) -> Self {
        NameComponent {
            id: id.into(),
            kind: String::new(),
        }
    }

    /// A component with id and kind.
    pub fn new(id: impl Into<String>, kind: impl Into<String>) -> Self {
        NameComponent {
            id: id.into(),
            kind: kind.into(),
        }
    }

    /// Whether both fields are empty (not a legal component).
    pub fn is_empty(&self) -> bool {
        self.id.is_empty() && self.kind.is_empty()
    }
}

/// A naming path: a non-empty sequence of components.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Name(pub Vec<NameComponent>);

/// Why a name string failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub enum NameParseError {
    /// The name has no components.
    Empty,
    /// A component has neither id nor kind.
    EmptyComponent,
    /// A `\` escape was followed by an unexpected character (or nothing).
    BadEscape,
    /// More than one unescaped `.` in a component.
    ExtraDot,
}

impl fmt::Display for NameParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameParseError::Empty => f.write_str("empty name"),
            NameParseError::EmptyComponent => f.write_str("empty name component"),
            NameParseError::BadEscape => f.write_str("invalid escape sequence"),
            NameParseError::ExtraDot => f.write_str("more than one '.' in a component"),
        }
    }
}

impl std::error::Error for NameParseError {}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        if matches!(c, '.' | '/' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
}

impl Name {
    /// A single-component name with an empty kind.
    pub fn simple(id: impl Into<String>) -> Self {
        Name(vec![NameComponent::id(id)])
    }

    /// Parse the stringified form `id.kind/id.kind`.
    pub fn parse(s: &str) -> Result<Name, NameParseError> {
        if s.is_empty() {
            return Err(NameParseError::Empty);
        }
        let mut components = Vec::new();
        let mut id = String::new();
        let mut kind = String::new();
        let mut in_kind = false;
        let mut chars = s.chars();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some(c @ ('.' | '/' | '\\')) => {
                        if in_kind {
                            kind.push(c);
                        } else {
                            id.push(c);
                        }
                    }
                    _ => return Err(NameParseError::BadEscape),
                },
                Some('.') => {
                    if in_kind {
                        return Err(NameParseError::ExtraDot);
                    }
                    in_kind = true;
                }
                Some('/') => {
                    let comp = NameComponent {
                        id: std::mem::take(&mut id),
                        kind: std::mem::take(&mut kind),
                    };
                    if comp.is_empty() {
                        return Err(NameParseError::EmptyComponent);
                    }
                    components.push(comp);
                    in_kind = false;
                }
                None => {
                    let comp = NameComponent {
                        id: std::mem::take(&mut id),
                        kind: std::mem::take(&mut kind),
                    };
                    if comp.is_empty() {
                        // Covers both a trailing '/' and an empty final
                        // component.
                        return Err(NameParseError::EmptyComponent);
                    }
                    components.push(comp);
                    break;
                }
                Some(c) => {
                    if in_kind {
                        kind.push(c);
                    } else {
                        id.push(c);
                    }
                }
            }
        }
        Ok(Name(components))
    }

    /// The stringified form.
    pub fn stringify(&self) -> String {
        let mut out = String::new();
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                out.push('/');
            }
            escape(&c.id, &mut out);
            if !c.kind.is_empty() {
                out.push('.');
                escape(&c.kind, &mut out);
            }
        }
        out
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the name has no components (invalid for operations).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.stringify())
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
    fn parse_simple() {
        let n = Name::parse("Workers").unwrap();
        assert_eq!(n, Name(vec![NameComponent::id("Workers")]));
    }

    #[test]
    fn parse_with_kinds_and_paths() {
        let n = Name::parse("apps.ctx/rosenbrock.service").unwrap();
        assert_eq!(
            n,
            Name(vec![
                NameComponent::new("apps", "ctx"),
                NameComponent::new("rosenbrock", "service"),
            ])
        );
    }

    #[test]
    fn stringify_round_trip() {
        for s in ["a", "a.b", "a/b", "a.b/c.d", "x.y/z"] {
            assert_eq!(Name::parse(s).unwrap().stringify(), s);
        }
    }

    #[test]
    fn escaping_round_trips() {
        let n = Name(vec![
            NameComponent::new("a.b/c", "k\\x"),
            NameComponent::id("plain"),
        ]);
        let s = n.stringify();
        assert_eq!(Name::parse(&s).unwrap(), n);
    }

    #[test]
    fn kind_only_component() {
        let n = Name::parse(".config").unwrap();
        assert_eq!(n.0[0], NameComponent::new("", "config"));
        assert_eq!(n.stringify(), ".config");
    }

    #[test]
    fn errors() {
        assert_eq!(Name::parse("").unwrap_err(), NameParseError::Empty);
        assert_eq!(
            Name::parse("a//b").unwrap_err(),
            NameParseError::EmptyComponent
        );
        assert_eq!(
            Name::parse("a/").unwrap_err(),
            NameParseError::EmptyComponent
        );
        assert_eq!(Name::parse("a\\q").unwrap_err(), NameParseError::BadEscape);
        assert_eq!(Name::parse("a.b.c").unwrap_err(), NameParseError::ExtraDot);
    }

    #[test]
    fn cdr_round_trip() {
        let n = Name::parse("a.b/c").unwrap();
        let back: Name = cdr::from_bytes(&cdr::to_bytes(&n)).unwrap();
        assert_eq!(n, back);
    }
}
