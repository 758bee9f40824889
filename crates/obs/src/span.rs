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

/// One completed span, decoded: fixed size, no heap. The name is an index
/// into the sink's name table; tags, which few spans carry, live in a side
/// table keyed by the record's index in the [`SpanLog`].
#[derive(Clone, Copy, Debug, PartialEq)]
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

/// Bytes per chunk of the [`SpanLog`].
const CHUNK: usize = 8 * 1024;

/// The longest record: five 64-bit varints and four 32-bit ones.
const MAX_RECORD: usize = 5 * 10 + 4 * 5;

/// What a record is a delta from: the fields of the one before it.
#[derive(Clone, Copy, Debug, Default)]
struct Base {
    trace_id: u64,
    span_id: u64,
    start_ns: u64,
}

impl Base {
    fn of(s: &PackedSpan) -> Base {
        Base {
            trace_id: s.trace_id,
            span_id: s.span_id,
            start_ns: s.start_ns,
        }
    }
}

/// Completed spans, in recording order, as variable-length records in
/// fixed-size chunks that are never reallocated. A record holds, as
/// LEB128 varints: the trace id, span id and start as zigzag deltas from
/// the previous record; span − parent, zigzagged; the duration; then name
/// id, host, pid and hop. All arithmetic wraps, so every `u64` and `u32`
/// decodes to itself.
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    chunks: Vec<Vec<u8>>,
    len: usize,
    last: Base,
}

impl SpanLog {
    /// Append one record.
    pub(crate) fn push(&mut self, s: &PackedSpan) {
        let mut buf = [0u8; MAX_RECORD];
        let mut n = 0;
        let last = self.last;
        for v in [
            zigzag(s.trace_id.wrapping_sub(last.trace_id)),
            zigzag(s.span_id.wrapping_sub(last.span_id)),
            zigzag(s.start_ns.wrapping_sub(last.start_ns)),
            zigzag(s.span_id.wrapping_sub(s.parent)),
            s.end_ns.wrapping_sub(s.start_ns),
            u64::from(s.name),
            u64::from(s.host),
            u64::from(s.pid),
            u64::from(s.hop),
        ] {
            n += put_varint(&mut buf[n..], v);
        }
        let record = &buf[..n];
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() + n <= CHUNK => chunk.extend_from_slice(record),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.extend_from_slice(record);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
        self.last = Base::of(s);
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes the chunks hold, slack included.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum()
    }

    /// The records, decoded, in recording order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PackedSpan> + '_ {
        let mut chunks = self.chunks.iter();
        let mut rest: &[u8] = &[];
        let mut last = Base::default();
        std::iter::from_fn(move || {
            while rest.is_empty() {
                rest = chunks.next()?;
            }
            let s = decode(&mut rest, last)?;
            last = Base::of(&s);
            Some(s)
        })
    }
}

/// Read the record at the front of `buf`, a delta from `last`; `None` if
/// it is cut short.
fn decode(buf: &mut &[u8], last: Base) -> Option<PackedSpan> {
    let trace_id = last.trace_id.wrapping_add(unzigzag(varint(buf)?));
    let span_id = last.span_id.wrapping_add(unzigzag(varint(buf)?));
    let start_ns = last.start_ns.wrapping_add(unzigzag(varint(buf)?));
    let parent = span_id.wrapping_sub(unzigzag(varint(buf)?));
    let end_ns = start_ns.wrapping_add(varint(buf)?);
    let mut small = || u32::try_from(varint(buf)?).ok();
    Some(PackedSpan {
        trace_id,
        span_id,
        parent,
        start_ns,
        end_ns,
        name: small()?,
        host: small()?,
        pid: small()?,
        hop: small()?,
    })
}

/// A two's-complement difference as an unsigned value near zero for a
/// small difference of either sign.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64) >> 63) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Write `v` as a LEB128 varint at the front of `out` (at least 10 bytes);
/// returns its length.
fn put_varint(out: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    for slot in out.iter_mut() {
        n += 1;
        if v < 0x80 {
            *slot = v as u8;
            break;
        }
        *slot = (v as u8) | 0x80;
        v >>= 7;
    }
    n
}

/// Read one LEB128 varint off the front of `buf`; `None` if it is cut
/// short or longer than 64 bits.
fn varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = buf.split_first()?;
        *buf = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// SplitMix64: a seeded stream of `u64`s.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// 0, `u64::MAX`, `near`, a step either side of it, or anything.
    fn pick(r: &mut impl FnMut() -> u64, near: u64) -> u64 {
        let v = r();
        match v % 6 {
            0 => 0,
            1 => u64::MAX,
            2 => near,
            3 => near.wrapping_add(v >> 44),
            4 => near.wrapping_sub(v >> 44),
            _ => r(),
        }
    }

    fn pick32(r: &mut impl FnMut() -> u64) -> u32 {
        let v = r();
        match v % 4 {
            0 => 0,
            1 => u32::MAX,
            2 => (v >> 60) as u32,
            _ => (v >> 32) as u32,
        }
    }

    /// `n` records of every shape a wire context can give the log: ids and
    /// times at 0 and `u64::MAX`, starts before the previous record's,
    /// zero-length spans, no parent and parents above the span id, and
    /// `u32::MAX` name, host, pid and hop. Every end is at or after its
    /// start, as the recorder makes them.
    pub(crate) fn wild_records(seed: u64, n: usize) -> Vec<PackedSpan> {
        let mut r = stream(seed);
        let mut out: Vec<PackedSpan> = Vec::with_capacity(n);
        for _ in 0..n {
            let prev = out
                .last()
                .map_or((0, 0, 0), |p| (p.trace_id, p.span_id, p.start_ns));
            let trace_id = pick(&mut r, prev.0);
            let span_id = pick(&mut r, prev.1);
            let parent = match r() % 4 {
                0 => 0,
                1 => span_id.wrapping_add(1 + r() % 100),
                2 => span_id.wrapping_sub(1 + r() % 100),
                _ => pick(&mut r, span_id),
            };
            let start_ns = pick(&mut r, prev.2);
            out.push(PackedSpan {
                trace_id,
                span_id,
                parent,
                start_ns,
                end_ns: start_ns.max(pick(&mut r, start_ns)),
                name: pick32(&mut r),
                host: pick32(&mut r),
                pid: pick32(&mut r),
                hop: pick32(&mut r),
            });
        }
        out
    }

    #[test]
    fn the_log_gives_back_every_record_it_was_given() {
        for seed in 0..20 {
            let want = wild_records(seed, 4_000);
            let mut log = SpanLog::default();
            for s in &want {
                log.push(s);
            }
            assert!(log.held_bytes() > 8 * CHUNK, "seed {seed}: one chunk");
            assert_eq!(log.len(), want.len());
            assert_eq!(log.iter().collect::<Vec<_>>(), want, "seed {seed}");
        }
        let extremes = [0, 1, u64::MAX - 1, u64::MAX];
        let mut log = SpanLog::default();
        let mut want = Vec::new();
        for (k, &v) in extremes.iter().cycle().take(64).enumerate() {
            let w = extremes[k / 4 % 4];
            let s = PackedSpan {
                trace_id: v,
                span_id: w,
                parent: v,
                start_ns: w,
                end_ns: v.max(w),
                name: u32::MAX,
                host: u32::MAX,
                pid: u32::MAX,
                hop: u32::MAX,
            };
            log.push(&s);
            want.push(s);
        }
        assert_eq!(log.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn a_cut_record_ends_the_log_instead_of_panicking() {
        let mut buf: &[u8] = &[0x80; 11];
        assert_eq!(varint(&mut buf), None);
        let mut buf: &[u8] = &[0xff, 0xff];
        assert_eq!(varint(&mut buf), None);
        let mut log = SpanLog::default();
        log.push(&wild_records(1, 1)[0]);
        if let Some(chunk) = log.chunks.last_mut() {
            chunk.pop();
        }
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn bad_length_degrades_to_none() {
        assert_eq!(SpanContext::from_bytes(&[0u8; 19]), None);
        assert_eq!(SpanContext::from_bytes(&[0u8; 21]), None);
        assert_eq!(SpanContext::from_bytes(&[]), None);
    }
}
