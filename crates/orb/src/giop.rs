//! GIOP-lite: the General Inter-ORB Protocol message framing used on the
//! simulated wire.
//!
//! Every frame starts with the GIOP magic, a version, a byte-order flag and
//! a message type, exactly like GIOP 1.0; headers and bodies are CDR, in
//! the little-endian order the flag names. The message set covers what the
//! runtime needs: `Request`, `Reply`, `LocateRequest`/`LocateReply` (used
//! by the failure detector). A frame of any other GIOP message type
//! (`CancelRequest`, `CloseConnection`, ...) is `BadMessageType`.

use std::ops::{Deref, Range};

use cdr::{CdrDecoder, CdrEncoder, CdrRead, CdrWrite};

use crate::exceptions::{SystemException, UserException};
use crate::ior::ObjectKey;

/// GIOP magic bytes.
pub const MAGIC: [u8; 4] = *b"GIOP";
/// Protocol version carried in each frame.
pub const VERSION: (u8, u8) = (1, 0);
/// The flags octet of every frame: bit 0 set, little-endian; no other bit
/// (GIOP 1.0 defines none).
const FLAGS: u8 = 1;

const MSG_REQUEST: u8 = 0;
const MSG_REPLY: u8 = 1;
const MSG_LOCATE_REQUEST: u8 = 3;
const MSG_LOCATE_REPLY: u8 = 4;

/// One entry of a request's or a reply's service-context list: out-of-band
/// data piggy-backed on the call, as in CORBA's `ServiceContextList`. The
/// tracing layer rides here (see [`obs::TRACE_CONTEXT_ID`]), and so does
/// the FT protocol (`ftproxy::servant`); unknown ids are carried opaquely
/// and ignored by receivers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceContext {
    /// Context id (who the data belongs to).
    pub id: u32,
    /// Opaque payload.
    pub data: Vec<u8>,
}

/// A request's parameters or a reply's result, read where it lies: a range
/// of the frame that delivered it, so a delivered body is never copied out
/// before it is demarshalled. Dereferences to the body's bytes. A reply's
/// body also holds the service contexts that came back with it.
#[derive(Clone)]
pub struct Body {
    frame: Vec<u8>,
    range: Range<usize>,
    contexts: Vec<ServiceContext>,
}

impl Body {
    /// The bytes `range` of `frame`.
    pub(crate) fn new(frame: Vec<u8>, range: Range<usize>) -> Body {
        Body {
            frame,
            range,
            contexts: Vec::new(),
        }
    }

    /// This body with the service contexts of the reply that carried it.
    pub(crate) fn with_contexts(self, contexts: Vec<ServiceContext>) -> Body {
        Body { contexts, ..self }
    }

    /// The data of the reply's service context `id`, if it carried one.
    pub fn service_context(&self, id: u32) -> Option<&[u8]> {
        let sc = self.contexts.iter().find(|sc| sc.id == id)?;
        Some(&sc.data)
    }

    /// The bytes a receiver demarshals: the body and its contexts' data.
    pub(crate) fn demarshalled_len(&self) -> usize {
        self.len() + self.contexts.iter().map(|sc| sc.data.len()).sum::<usize>()
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Body {
        let range = 0..bytes.len();
        Body::new(bytes, range)
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.frame[self.range.clone()]
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A decoded GIOP message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A client request.
    Request {
        /// Correlates the reply.
        request_id: u64,
        /// False for `oneway` operations: no reply will be sent.
        response_expected: bool,
        /// Target object within the receiving server.
        object_key: ObjectKey,
        /// Operation name.
        operation: String,
        /// CDR-encoded in-parameters.
        body: Vec<u8>,
        /// Out-of-band contexts (tracing, ...).
        service_contexts: Vec<ServiceContext>,
    },
    /// A server reply.
    Reply {
        /// Correlates the request.
        request_id: u64,
        /// Outcome.
        status: ReplyBody,
        /// Out-of-band contexts sent back, after the outcome; an empty list
        /// is not written, so such a reply is the frame it always was.
        service_contexts: Vec<ServiceContext>,
    },
    /// "Does this object live here?" — also used as a liveness ping.
    LocateRequest {
        /// Correlates the locate reply.
        request_id: u64,
        /// Key being probed.
        object_key: ObjectKey,
    },
    /// Answer to a locate request.
    LocateReply {
        /// Correlates the locate request.
        request_id: u64,
        /// Whether the object is active here.
        found: bool,
    },
}

/// The outcome part of a reply.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplyBody {
    /// Success; the CDR-encoded result follows.
    NoException(Vec<u8>),
    /// The servant raised an IDL-declared exception.
    UserException(UserException),
    /// The ORB or server runtime raised a system exception.
    SystemException(SystemException),
}

const STATUS_NO_EXCEPTION: u32 = 0;
const STATUS_USER_EXCEPTION: u32 = 1;
const STATUS_SYSTEM_EXCEPTION: u32 = 2;

/// Errors raised while parsing a frame.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameError {
    /// The magic bytes were wrong — not a GIOP frame.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// A flags octet other than "little-endian": a frame in the other byte
    /// order, or with options this ORB does not speak.
    BadFlags(u8),
    /// Unknown message type octet.
    BadMessageType(u8),
    /// The header or body failed to decode.
    Cdr(cdr::CdrError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => f.write_str("not a GIOP frame"),
            FrameError::BadVersion(a, b) => write!(f, "unsupported GIOP version {a}.{b}"),
            FrameError::BadFlags(x) => write!(f, "unsupported GIOP flags {x:#04x}"),
            FrameError::BadMessageType(t) => write!(f, "unknown GIOP message type {t}"),
            FrameError::Cdr(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<cdr::CdrError> for FrameError {
    fn from(e: cdr::CdrError) -> Self {
        FrameError::Cdr(e)
    }
}

/// A frame encoder holding the GIOP header, with room for `payload` bytes
/// of variable-length fields on top of the fixed ones: a frame sized up
/// front is written once and never moved, which is what a 64 KiB body pays
/// for otherwise.
fn frame_encoder(msg_type: u8, payload: usize) -> CdrEncoder {
    // Header, fixed fields, counts and padding of the largest message (a
    // request: 51 bytes). A low guess costs one reallocation, no more.
    const FIXED: usize = 64;
    let mut enc = CdrEncoder::new();
    enc.reserve(FIXED + payload);
    enc.write_raw(&MAGIC);
    enc.write_u8(VERSION.0);
    enc.write_u8(VERSION.1);
    enc.write_u8(FLAGS);
    enc.write_u8(msg_type);
    enc
}

/// What a request frame reserves for parameters whose size it learns only
/// by marshalling them: a typical body fits, and a bulk one grows the frame
/// once, with room left for the service contexts after it.
const BODY_GUESS: usize = 128;

/// Bytes already marshalled, written as they are: what a fault-tolerant
/// request re-sends.
pub struct Verbatim<'a>(pub &'a [u8]);

impl CdrWrite for Verbatim<'_> {
    fn write(&self, enc: &mut CdrEncoder) {
        enc.write_raw(self.0);
    }
}

/// What a context list adds to a frame: ids, counts, padding and data.
fn contexts_len(service_contexts: &[ServiceContext]) -> usize {
    service_contexts.iter().map(|sc| 12 + sc.data.len()).sum()
}

fn write_contexts(enc: &mut CdrEncoder, service_contexts: &[ServiceContext]) {
    enc.write_len(service_contexts.len());
    for sc in service_contexts {
        enc.write_u32(sc.id);
        enc.write_bytes(&sc.data);
    }
}

fn read_contexts(dec: &mut CdrDecoder<'_>) -> Result<Vec<ServiceContext>, FrameError> {
    // A context is at least its id and its count.
    let n = dec.read_len(8)?;
    let mut service_contexts = Vec::with_capacity(n);
    for _ in 0..n {
        service_contexts.push(ServiceContext {
            id: dec.read_u32()?,
            data: dec.read_octets()?.to_vec(),
        });
    }
    Ok(service_contexts)
}

impl Message {
    /// Encode a `Request` frame whose parameters `args` marshals straight
    /// into the frame's body octets — aligned from the body's first byte,
    /// so the body is `cdr::to_bytes(args)` without that buffer ever
    /// existing. Every request frame is written here; typed calls, and so
    /// every stub, send through it.
    pub fn encode_call(
        request_id: u64,
        response_expected: bool,
        object_key: ObjectKey,
        operation: &str,
        args: &dyn CdrWrite,
        service_contexts: &[ServiceContext],
    ) -> Vec<u8> {
        // A context adds its id, count and padding to its data.
        let contexts = contexts_len(service_contexts);
        let mut enc = frame_encoder(MSG_REQUEST, operation.len() + BODY_GUESS + contexts);
        enc.write_u64(request_id);
        enc.write_bool(response_expected);
        object_key.write(&mut enc);
        enc.write_string(operation);
        enc.write_octets_with(|enc| args.write(enc));
        write_contexts(&mut enc, service_contexts);
        enc.into_bytes()
    }

    /// [`Message::encode_call`] over a body already marshalled, copied in
    /// verbatim: the bytes [`Message::encode`] yields for the same fields,
    /// without moving the body into a `Message` first.
    pub fn encode_request(
        request_id: u64,
        response_expected: bool,
        object_key: ObjectKey,
        operation: &str,
        body: &[u8],
        service_contexts: &[ServiceContext],
    ) -> Vec<u8> {
        Message::encode_call(
            request_id,
            response_expected,
            object_key,
            operation,
            &Verbatim(body),
            service_contexts,
        )
    }

    /// Encode this message as a wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let enc = match self {
            Message::Request {
                request_id,
                response_expected,
                object_key,
                operation,
                body,
                service_contexts,
            } => {
                return Message::encode_request(
                    *request_id,
                    *response_expected,
                    *object_key,
                    operation,
                    body,
                    service_contexts,
                );
            }
            Message::Reply {
                request_id,
                status,
                service_contexts,
            } => {
                let result_len = match status {
                    ReplyBody::NoException(body) => body.len(),
                    _ => 0,
                };
                let mut enc = frame_encoder(MSG_REPLY, result_len + contexts_len(service_contexts));
                enc.write_u64(*request_id);
                match status {
                    ReplyBody::NoException(body) => {
                        enc.write_u32(STATUS_NO_EXCEPTION);
                        enc.write_bytes(body);
                    }
                    ReplyBody::UserException(u) => {
                        enc.write_u32(STATUS_USER_EXCEPTION);
                        u.write(&mut enc);
                    }
                    ReplyBody::SystemException(s) => {
                        enc.write_u32(STATUS_SYSTEM_EXCEPTION);
                        s.write(&mut enc);
                    }
                }
                if !service_contexts.is_empty() {
                    write_contexts(&mut enc, service_contexts);
                }
                enc
            }
            Message::LocateRequest {
                request_id,
                object_key,
            } => {
                let mut enc = frame_encoder(MSG_LOCATE_REQUEST, 0);
                enc.write_u64(*request_id);
                object_key.write(&mut enc);
                enc
            }
            Message::LocateReply { request_id, found } => {
                let mut enc = frame_encoder(MSG_LOCATE_REPLY, 0);
                enc.write_u64(*request_id);
                enc.write_bool(*found);
                enc
            }
        };
        enc.into_bytes()
    }

    /// Decode a wire frame: [`Message::parse`], and the body copied out.
    pub fn decode(frame: &[u8]) -> Result<Message, FrameError> {
        let (mut msg, range) = Message::parse(frame)?;
        if let Message::Request { body, .. }
        | Message::Reply {
            status: ReplyBody::NoException(body),
            ..
        } = &mut msg
        {
            *body = frame[range].to_vec();
        }
        Ok(msg)
    }

    /// Parse a wire frame where it lies. Returns the message and the range
    /// of `frame` its body occupies — a request's parameters or a
    /// `NoException` reply's result, which the message itself leaves
    /// empty; for any other message the range is empty. This is the one
    /// GIOP parser: the ORB reads delivered frames through it and hands
    /// the body on as a [`Body`], never copied.
    pub fn parse(frame: &[u8]) -> Result<(Message, Range<usize>), FrameError> {
        let mut dec = CdrDecoder::new(frame);
        // Where the octet sequence just read lies in `frame`.
        let just_read = |dec: &CdrDecoder<'_>, body: &[u8]| {
            let end = frame.len() - dec.remaining();
            end - body.len()..end
        };
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = dec.read_u8()?;
        }
        if magic != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let major = dec.read_u8()?;
        let minor = dec.read_u8()?;
        if (major, minor) != VERSION {
            return Err(FrameError::BadVersion(major, minor));
        }
        let flags = dec.read_u8()?;
        if flags != FLAGS {
            return Err(FrameError::BadFlags(flags));
        }
        let msg_type = dec.read_u8()?;
        let mut range = 0..0;
        let msg = match msg_type {
            MSG_REQUEST => {
                let request_id = dec.read_u64()?;
                let response_expected = dec.read_bool()?;
                let object_key = ObjectKey::read(&mut dec)?;
                let operation = dec.read_string()?;
                let body = dec.read_octets()?;
                range = just_read(&dec, body);
                let service_contexts = read_contexts(&mut dec)?;
                Message::Request {
                    request_id,
                    response_expected,
                    object_key,
                    operation,
                    body: Vec::new(),
                    service_contexts,
                }
            }
            MSG_REPLY => {
                let request_id = dec.read_u64()?;
                let status = match dec.read_u32()? {
                    STATUS_NO_EXCEPTION => {
                        let body = dec.read_octets()?;
                        range = just_read(&dec, body);
                        ReplyBody::NoException(Vec::new())
                    }
                    STATUS_USER_EXCEPTION => {
                        ReplyBody::UserException(UserException::read(&mut dec)?)
                    }
                    STATUS_SYSTEM_EXCEPTION => {
                        ReplyBody::SystemException(SystemException::read(&mut dec)?)
                    }
                    other => return Err(FrameError::Cdr(cdr::CdrError::InvalidEnumTag(other))),
                };
                let service_contexts = if dec.remaining() > 0 {
                    read_contexts(&mut dec)?
                } else {
                    Vec::new()
                };
                Message::Reply {
                    request_id,
                    status,
                    service_contexts,
                }
            }
            MSG_LOCATE_REQUEST => Message::LocateRequest {
                request_id: dec.read_u64()?,
                object_key: ObjectKey::read(&mut dec)?,
            },
            MSG_LOCATE_REPLY => Message::LocateReply {
                request_id: dec.read_u64()?,
                found: dec.read_bool()?,
            },
            other => return Err(FrameError::BadMessageType(other)),
        };
        dec.finish()?;
        Ok((msg, range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let m = Message::Request {
            request_id: 77,
            response_expected: true,
            object_key: ObjectKey(5),
            operation: "solve".into(),
            body: vec![1, 2, 3],
            service_contexts: vec![],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn oneway_request_round_trip() {
        let m = Message::Request {
            request_id: 1,
            response_expected: false,
            object_key: ObjectKey(0),
            operation: "report".into(),
            body: vec![],
            service_contexts: vec![],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn reply_variants_round_trip() {
        let cases = [
            ReplyBody::NoException(vec![9, 9]),
            ReplyBody::UserException(UserException::new("IDL:X/E:1.0", &())),
            ReplyBody::SystemException(SystemException::comm_failure("down")),
        ];
        for status in cases {
            let m = Message::Reply {
                request_id: 12,
                status,
                service_contexts: vec![],
            };
            assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn reply_contexts_round_trip_and_an_empty_list_is_not_written() {
        let sc = ServiceContext {
            id: 7,
            data: vec![1, 2, 3],
        };
        let reply = |service_contexts| Message::Reply {
            request_id: 12,
            status: ReplyBody::NoException(vec![9, 9]),
            service_contexts,
        };
        let (with, plain) = (reply(vec![sc]), reply(vec![]).encode());
        assert_eq!(Message::decode(&with.encode()).unwrap(), with);
        // Header, request id, status, the body's count and its two bytes.
        assert_eq!(plain.len(), 8 + 8 + 4 + 4 + 2);
        assert_eq!(with.encode()[..plain.len()], plain[..]);
    }

    #[test]
    fn reply_status_3_is_an_unknown_status() {
        // GIOP's LOCATION_FORWARD: this ORB has no locator, so no status
        // past SYSTEM_EXCEPTION decodes.
        let mut enc = frame_encoder(MSG_REPLY, 0);
        enc.write_u64(12);
        enc.write_u32(3);
        assert_eq!(
            Message::decode(&enc.into_bytes()),
            Err(FrameError::Cdr(cdr::CdrError::InvalidEnumTag(3)))
        );
    }

    #[test]
    fn locate_round_trip() {
        let req = Message::LocateRequest {
            request_id: 2,
            object_key: ObjectKey(7),
        };
        assert_eq!(Message::decode(&req.encode()).unwrap(), req);
        let rep = Message::LocateReply {
            request_id: 2,
            found: true,
        };
        assert_eq!(Message::decode(&rep.encode()).unwrap(), rep);
    }

    /// A small frame for the header checks.
    fn locate_reply() -> Vec<u8> {
        Message::LocateReply {
            request_id: 3,
            found: true,
        }
        .encode()
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = locate_reply();
        frame[0] = b'X';
        assert_eq!(Message::decode(&frame).unwrap_err(), FrameError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut frame = locate_reply();
        frame[4] = 9;
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            FrameError::BadVersion(9, 0)
        );
    }

    #[test]
    fn frames_are_flagged_little_endian() {
        assert_eq!(locate_reply()[6], 1);
    }

    #[test]
    fn other_byte_order_rejected() {
        let mut frame = locate_reply();
        frame[6] = 0;
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            FrameError::BadFlags(0)
        );
    }

    #[test]
    fn parse_leaves_the_body_in_the_frame() {
        let m = Message::Request {
            request_id: 77,
            response_expected: true,
            object_key: ObjectKey(5),
            operation: "solve".into(),
            body: vec![1, 2, 3],
            service_contexts: vec![],
        };
        let frame = m.encode();
        let (parsed, range) = Message::parse(&frame).unwrap();
        assert_eq!(&frame[range], &[1, 2, 3]);
        let Message::Request { body, .. } = parsed else {
            panic!("not a request");
        };
        assert!(body.is_empty());
    }

    #[test]
    fn bad_type_rejected() {
        // GIOP's CancelRequest (2) and CloseConnection (5) included: this
        // ORB sends neither.
        for msg_type in [2, 5, 42] {
            let mut frame = locate_reply();
            frame[7] = msg_type;
            assert_eq!(
                Message::decode(&frame).unwrap_err(),
                FrameError::BadMessageType(msg_type)
            );
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = Message::Request {
            request_id: 1,
            response_expected: true,
            object_key: ObjectKey(1),
            operation: "op".into(),
            body: vec![0; 8],
            service_contexts: vec![],
        }
        .encode();
        let cut = &frame[..frame.len() - 3];
        assert!(matches!(
            Message::decode(cut).unwrap_err(),
            FrameError::Cdr(_)
        ));
    }
}
