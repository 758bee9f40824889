//! Span identity: the wire-carried context and the recorded span.

/// GIOP service-context id under which [`SpanContext`] travels on request
/// frames. Spells `LDT1` ("LD/FT trace, v1") in ASCII, in the spirit of the
/// OMG-assigned service context tags.
pub const TRACE_CONTEXT_ID: u32 = 0x4C44_5431;

/// Wire size of an encoded [`SpanContext`].
const WIRE_LEN: usize = 20;

/// The causal context one request carries: which trace it belongs to, which
/// span caused it, and how many process hops it has made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// The causal tree this request belongs to.
    pub trace_id: u64,
    /// The span that caused this request (its parent-to-be).
    pub span_id: u64,
    /// Process hops from the trace root (0 at the root).
    pub hop: u32,
}

impl SpanContext {
    /// Encode as the fixed-size big-endian payload carried in a GIOP
    /// service context.
    pub fn to_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_LEN);
        out.extend_from_slice(&self.trace_id.to_be_bytes());
        out.extend_from_slice(&self.span_id.to_be_bytes());
        out.extend_from_slice(&self.hop.to_be_bytes());
        out
    }

    /// Decode a service-context payload. Returns `None` on any size
    /// mismatch — a malformed context must degrade to "untraced", never
    /// fail the request.
    pub fn from_bytes(data: &[u8]) -> Option<SpanContext> {
        if data.len() != WIRE_LEN {
            return None;
        }
        let word = |at: usize| -> [u8; 8] {
            let mut w = [0u8; 8];
            w.copy_from_slice(&data[at..at + 8]);
            w
        };
        let mut hop = [0u8; 4];
        hop.copy_from_slice(&data[16..20]);
        Some(SpanContext {
            trace_id: u64::from_be_bytes(word(0)),
            span_id: u64::from_be_bytes(word(8)),
            hop: u32::from_be_bytes(hop),
        })
    }
}

/// One completed span: a named interval of virtual time on one process,
/// linked into a causal tree by `trace_id` / `parent`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The causal tree this span belongs to.
    pub trace_id: u64,
    /// Unique id within the run.
    pub span_id: u64,
    /// Parent span, if any (`None` for trace roots).
    pub parent: Option<u64>,
    /// Span name, e.g. `serve:resolve` or `ft.recover`.
    pub name: String,
    /// Process hops from the trace root.
    pub hop: u32,
    /// Host the span ran on.
    pub host: u32,
    /// Process the span ran on.
    pub pid: u32,
    /// Virtual start time, nanoseconds.
    pub start_ns: u64,
    /// Virtual end time, nanoseconds.
    pub end_ns: u64,
    /// Free-form key/value annotations.
    pub tags: Vec<(String, String)>,
}

/// One completed span as the sink stores it: fixed size, no heap. The
/// name is an index into the sink's name table; tags, which few spans
/// carry, live in a side table keyed by the record's index.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackedSpan {
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    /// Parent span id, 0 for none (ids start at 1).
    pub(crate) parent: u64,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) name: u32,
    pub(crate) host: u32,
    pub(crate) pid: u32,
    pub(crate) hop: u32,
}

impl PackedSpan {
    /// Virtual duration, nanoseconds (`end_ns >= start_ns` by construction).
    pub(crate) fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trips() {
        let c = SpanContext {
            trace_id: 0x0102_0304_0506_0708,
            span_id: 42,
            hop: 3,
        };
        assert_eq!(SpanContext::from_bytes(&c.to_bytes()), Some(c));
    }

    #[test]
    fn bad_length_degrades_to_none() {
        assert_eq!(SpanContext::from_bytes(&[0u8; 19]), None);
        assert_eq!(SpanContext::from_bytes(&[0u8; 21]), None);
        assert_eq!(SpanContext::from_bytes(&[]), None);
    }
}
