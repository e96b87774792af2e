//! Length-prefixed, CRC-framed wire codec for the inter-wallet protocol.
//!
//! This module is how [`Request`] / [`Reply`] values cross between
//! wallets on both substrates: a real byte stream (TCP sockets, pipes,
//! files) and `SimNet`'s in-memory frames. It
//! reuses the framing discipline of `drbac-store`'s write-ahead log:
//! every frame is length-prefixed and carries a CRC-32 (IEEE) of its
//! payload, and every payload is the workspace's canonical wire
//! encoding (`drbac-core::wire`) — so a credential on the socket is
//! byte-identical to one in the journal.
//!
//! # Frame layout
//!
//! The byte-level layout, the extension-tag registry and the
//! request/reply/push state machines are specified normatively in
//! [`docs/PROTOCOL.md`](https://github.com/drbac/drbac/blob/main/docs/PROTOCOL.md)
//! — that document is the contract; this module is one implementation
//! of it, and the only code that knows the layout. In brief:
//!
//! ```text
//! offset  size  field
//! 0       4     magic     b"dRBW"
//! 4       1     version   0x04 (anything else is BadVersion)
//! 5       1     kind      1=request 2=reply 3=push 4=push-register
//! 6       1     ext_count number of extensions (max 16; usually 0)
//! 7       4     len       payload length, u32 big-endian (max 16 MiB)
//! 11      4     crc       CRC-32 (IEEE) of the payload bytes
//! --- ext_count extensions ---
//!         1     tag       1=trace-context 2=request-id (others skipped)
//!         1     elen      extension byte length
//!         elen  ebody     tag 1: trace_id u64 BE ++ parent_span u64 BE
//!                         tag 2: request_id u64 BE
//! --- then ---
//!         len   payload   canonical encoding of the message
//! ```
//!
//! A frame with neither a request id nor a trace context is the
//! 15-byte header and the payload, so a strict client reads a reply in
//! two reads. A request id lets one connection multiplex many in-flight
//! requests ([`crate::PipelinedClient`]): the daemon treats it as an
//! opaque token and echoes it on the matching reply, which may arrive
//! out of order; a request without one is answered in order. Unknown
//! extension tags are skipped, so a newer peer can add extensions
//! without breaking this one.
//!
//! # Invariants
//!
//! * **A decoder never panics and never over-allocates.** A length
//!   above [`MAX_FRAME_LEN`] or an extension count above
//!   [`MAX_FRAME_EXTS`] is rejected *before* any further read
//!   ([`WireError::Oversized`]); torn input surfaces as
//!   [`WireError::Io`] / [`WireError::Decode`], bit flips as
//!   [`WireError::Crc`] — all errors, never a crash.
//! * **Frames are self-delimiting.** A reader that hits a bad frame
//!   knows the stream is unusable (framing is not self-resynchronizing
//!   by design — the transport drops the connection and reconnects
//!   rather than guessing at a resync point).
//! * **Payloads are canonical.** The same value always encodes to the
//!   same bytes, so signatures carried inside survive the trip.
//!
//! # Which errors are retryable?
//!
//! None at this layer: a [`WireError`] means the *stream* is broken or
//! the *peer* is speaking garbage. The TCP transport maps stream
//! errors to transient [`NetError`](crate::NetError) variants (drop
//! the connection, retry on a fresh one) and protocol violations to
//! the permanent [`NetError::Protocol`](crate::NetError) — retrying a
//! malformed conversation does not repair it.

use std::fmt;
use std::io::{BufReader, Read, Write};
use std::sync::Arc;

use drbac_core::{
    Decode, DecodeError, DelegationId, Encode, Node, Reader, SignedAttrDeclaration,
    SignedDelegation, SignedRevocation, WalletAddr, Writer,
};
use drbac_store::crc32;
use drbac_wallet::{DelegationEvent, InvalidationReason};

use crate::proto::{OneWay, Reply, Request};

/// Leading magic of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"dRBW";

/// The protocol version every frame carries. Frames of the retired
/// layouts (0x01–0x03) fail with [`WireError::BadVersion`].
pub const WIRE_VERSION: u8 = 4;

/// Extension tag: distributed trace context (16 bytes — trace_id u64
/// BE followed by parent_span u64 BE).
pub const EXT_TRACE_CONTEXT: u8 = 1;

/// Extension tag: multiplexing request id (8 bytes, u64 BE), echoed
/// verbatim on the reply.
pub const EXT_REQUEST_ID: u8 = 2;

/// Upper bound on extensions per frame; more is a protocol violation.
pub const MAX_FRAME_EXTS: usize = 16;

/// Upper bound on a frame payload (16 MiB). A length prefix above this
/// is treated as a protocol violation, not an allocation request — the
/// decoder rejects it before reserving a single byte.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Fixed frame header size (magic + version + kind + extension count +
/// len + crc).
pub const FRAME_HEADER_LEN: usize = 15;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`Request`] awaiting a reply on the same connection.
    Request,
    /// A [`Reply`] to one of the connection's requests.
    Reply,
    /// A one-way push ([`OneWay`]); no reply is sent.
    Push,
    /// Converts the connection into a persistent push channel: the
    /// payload names the subscriber's wallet address, and the server
    /// will write [`FrameKind::Push`] frames down this connection from
    /// now on.
    PushRegister,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Reply => 2,
            FrameKind::Push => 3,
            FrameKind::PushRegister => 4,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Reply),
            3 => Some(FrameKind::Push),
            4 => Some(FrameKind::PushRegister),
            _ => None,
        }
    }
}

/// Distributed trace context carried in a frame's trace-context
/// extension: which trace the message belongs to and which peer-side
/// span it hangs under. See `drbac-obs`'s `set_current_trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Fleet-unique id of the distributed trace (never 0 on the wire).
    pub trace_id: u64,
    /// The sender-side span that emitted this frame (0 for none).
    pub parent_span: u64,
}

/// A decoded frame: kind tag plus raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Multiplexing request id from the request-id extension. On a
    /// request, the id the reply must echo; on a reply, the id of the
    /// request it answers. `None`: strict request/reply order.
    pub request_id: Option<u64>,
    /// Trace context from the trace-context extension, if the sender
    /// attached one.
    pub trace: Option<TraceContext>,
    /// The payload's canonical encoding (CRC already verified).
    pub payload: Vec<u8>,
}

/// Error reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes EOF mid-frame: a torn
    /// frame surfaces as `UnexpectedEof`).
    Io(std::io::Error),
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The frame is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte had no meaning.
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`], or the extension
    /// count [`MAX_FRAME_EXTS`] — rejected before allocation.
    Oversized(u64),
    /// A known extension the frame cannot carry as sent: a request id
    /// that is not 8 bytes, or a second one.
    BadExtension(&'static str),
    /// The payload's CRC-32 did not match the header.
    Crc {
        /// CRC the header claimed.
        expected: u32,
        /// CRC of the bytes actually read.
        found: u32,
    },
    /// The payload failed canonical decoding.
    Decode(DecodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "stream error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::BadExtension(what) => write!(f, "bad frame extension: {what}"),
            WireError::Crc { expected, found } => {
                write!(
                    f,
                    "payload CRC mismatch (header {expected:#010x}, data {found:#010x})"
                )
            }
            WireError::Decode(e) => write!(f, "payload decode error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// Writes one frame (header + payload) to `w`. Does not flush.
///
/// # Errors
///
/// [`WireError::Oversized`] if the payload exceeds [`MAX_FRAME_LEN`];
/// [`WireError::Io`] if the stream fails.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    write_frame_inner(w, kind, payload, None, None)
}

/// Writes one frame carrying `trace`, when present, in a trace-context
/// extension.
///
/// # Errors
///
/// Same as [`write_frame`].
pub fn write_frame_traced<W: Write>(
    w: &mut W,
    kind: FrameKind,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<(), WireError> {
    write_frame_inner(w, kind, payload, None, trace)
}

/// Writes one frame carrying `request_id` in a request-id extension,
/// plus `trace` when present — a pipelined request, or the reply to
/// one.
///
/// # Errors
///
/// Same as [`write_frame`].
pub fn write_frame_mux<W: Write>(
    w: &mut W,
    kind: FrameKind,
    payload: &[u8],
    request_id: u64,
    trace: Option<TraceContext>,
) -> Result<(), WireError> {
    write_frame_inner(w, kind, payload, Some(request_id), trace)
}

/// Bytes of a trace-context and a request-id extension, tag and length
/// included.
const MAX_EXT_BYTES: usize = (2 + 16) + (2 + 8);

fn write_frame_inner<W: Write>(
    w: &mut W,
    kind: FrameKind,
    payload: &[u8],
    request_id: Option<u64>,
    trace: Option<TraceContext>,
) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized(payload.len() as u64));
    }
    // Header and extensions leave in one write, the payload in another.
    let mut head = [0u8; FRAME_HEADER_LEN + MAX_EXT_BYTES];
    head[..4].copy_from_slice(&FRAME_MAGIC);
    head[4] = WIRE_VERSION;
    head[5] = kind.to_byte();
    head[7..11].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    head[11..15].copy_from_slice(&crc32(payload).to_be_bytes());
    let mut end = FRAME_HEADER_LEN;
    let mut ext = |tag: u8, body: &[u8]| {
        head[6] += 1;
        head[end] = tag;
        head[end + 1] = body.len() as u8;
        head[end + 2..end + 2 + body.len()].copy_from_slice(body);
        end += 2 + body.len();
    };
    if let Some(ctx) = trace {
        // trace_id BE followed by parent_span BE.
        let body = (u128::from(ctx.trace_id) << 64 | u128::from(ctx.parent_span)).to_be_bytes();
        ext(EXT_TRACE_CONTEXT, &body);
    }
    if let Some(id) = request_id {
        ext(EXT_REQUEST_ID, &id.to_be_bytes());
    }
    w.write_all(&head[..end])?;
    w.write_all(payload)?;
    Ok(())
}

/// The fixed header's fields, every one checked.
struct Header {
    kind: FrameKind,
    exts: usize,
    len: usize,
    crc: u32,
}

fn parse_header(h: &[u8; FRAME_HEADER_LEN]) -> Result<Header, WireError> {
    if h[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic([h[0], h[1], h[2], h[3]]));
    }
    if h[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(h[4]));
    }
    let kind = FrameKind::from_byte(h[5]).ok_or(WireError::UnknownKind(h[5]))?;
    let exts = usize::from(h[6]);
    if exts > MAX_FRAME_EXTS {
        return Err(WireError::Oversized(exts as u64));
    }
    let len = u32::from_be_bytes(h[7..11].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len as u64));
    }
    let crc = u32::from_be_bytes(h[11..15].try_into().expect("4 bytes"));
    Ok(Header {
        kind,
        exts,
        len,
        crc,
    })
}

/// Total encoded length of the frame at the head of `buf`, when its
/// header and extension headers are buffered and the header is valid.
/// `None` means "can't tell yet" — the blocking [`read_frame`] path
/// surfaces any actual error.
fn buffered_frame_len(buf: &[u8]) -> Option<usize> {
    let header = parse_header(buf.get(..FRAME_HEADER_LEN)?.try_into().ok()?).ok()?;
    let mut end = FRAME_HEADER_LEN;
    for _ in 0..header.exts {
        end += 2 + usize::from(*buf.get(end + 1)?);
    }
    Some(end + header.len)
}

/// Reads one frame from `r`, verifying magic, version, extensions,
/// length bound, and payload CRC. Blocks until a full frame (or an
/// error) arrives.
///
/// # Errors
///
/// Any [`WireError`]; a stream that ends mid-frame yields
/// [`WireError::Io`] with `ErrorKind::UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = parse_header(&header)?;
    let mut frame = Frame {
        kind: header.kind,
        request_id: None,
        trace: None,
        payload: Vec::new(),
    };
    let mut body = [0u8; 255];
    for _ in 0..header.exts {
        let mut tl = [0u8; 2];
        r.read_exact(&mut tl)?;
        let body = &mut body[..usize::from(tl[1])];
        r.read_exact(body)?;
        match tl[0] {
            EXT_REQUEST_ID => {
                // Skipping a malformed id would silently turn a
                // pipelined request into a strict one.
                let id = <[u8; 8]>::try_from(&*body)
                    .map_err(|_| WireError::BadExtension("request id is not 8 bytes"))?;
                if frame.request_id.replace(u64::from_be_bytes(id)).is_some() {
                    return Err(WireError::BadExtension("second request id"));
                }
            }
            EXT_TRACE_CONTEXT if body.len() == 16 => {
                let ctx = u128::from_be_bytes((&*body).try_into().expect("16 bytes"));
                let trace_id = (ctx >> 64) as u64;
                if trace_id != 0 {
                    frame.trace = Some(TraceContext {
                        trace_id,
                        parent_span: ctx as u64,
                    });
                }
            }
            // Unknown tags and other shapes of the trace context are
            // skipped, so newer peers can extend frames.
            _ => {}
        }
    }
    frame.payload = vec![0u8; header.len];
    r.read_exact(&mut frame.payload)?;
    let found = crc32(&frame.payload);
    if found != header.crc {
        return Err(WireError::Crc {
            expected: header.crc,
            found,
        });
    }
    Ok(frame)
}

/// Reads one frame from `r`, blocking until it arrives, then every
/// further frame already completely in `r`'s buffer, appending at most
/// `cap` frames to `out` in all. A partly buffered frame is left for
/// the next call, so a batched reader never blocks behind a trickling
/// peer.
///
/// # Errors
///
/// As [`read_frame`]. `out` keeps the frames read before the error;
/// the stream is unusable after it.
pub fn read_frames<R: Read>(
    r: &mut BufReader<R>,
    cap: usize,
    out: &mut Vec<Frame>,
) -> Result<(), WireError> {
    out.push(read_frame(r)?);
    for _ in 1..cap {
        match buffered_frame_len(r.buffer()) {
            Some(total) if total <= r.buffer().len() => out.push(read_frame(r)?),
            _ => break,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

const REQ_DIRECT_QUERY: u8 = 1;
const REQ_SUBJECT_QUERY: u8 = 2;
const REQ_OBJECT_QUERY: u8 = 3;
const REQ_PUBLISH: u8 = 4;
const REQ_PUBLISH_DECLARATION: u8 = 5;
const REQ_SUBSCRIBE: u8 = 6;
const REQ_UNSUBSCRIBE: u8 = 7;
const REQ_REVOKE: u8 = 8;
const REQ_FETCH_DECLARATIONS: u8 = 9;
const REQ_FETCH_DELEGATION: u8 = 10;
const REQ_STATS: u8 = 11;
const REQ_HEALTH: u8 = 12;

fn encode_id(w: &mut Writer, id: &DelegationId) {
    w.bytes(&id.0);
}

fn decode_id(r: &mut Reader<'_>) -> Result<DelegationId, DecodeError> {
    let raw: [u8; 32] = r
        .bytes()?
        .try_into()
        .map_err(|_| DecodeError::Invalid("delegation id must be 32 bytes".into()))?;
    Ok(DelegationId(raw))
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::DirectQuery {
                subject,
                object,
                constraints,
            } => {
                w.u8(REQ_DIRECT_QUERY);
                subject.encode(w);
                object.encode(w);
                w.list(constraints);
            }
            Request::SubjectQuery {
                subject,
                constraints,
            } => {
                w.u8(REQ_SUBJECT_QUERY);
                subject.encode(w);
                w.list(constraints);
            }
            Request::ObjectQuery {
                object,
                constraints,
            } => {
                w.u8(REQ_OBJECT_QUERY);
                object.encode(w);
                w.list(constraints);
            }
            Request::Publish { cert, supports } => {
                w.u8(REQ_PUBLISH);
                cert.as_ref().encode(w);
                w.list(supports);
            }
            Request::PublishDeclaration(decl) => {
                w.u8(REQ_PUBLISH_DECLARATION);
                w.bytes(&decl.to_bytes());
            }
            Request::Subscribe {
                delegation,
                subscriber,
            } => {
                w.u8(REQ_SUBSCRIBE);
                encode_id(w, delegation);
                w.str(subscriber.as_str());
            }
            Request::Unsubscribe {
                delegation,
                subscriber,
            } => {
                w.u8(REQ_UNSUBSCRIBE);
                encode_id(w, delegation);
                w.str(subscriber.as_str());
            }
            Request::Revoke(rev) => {
                w.u8(REQ_REVOKE);
                w.bytes(&rev.to_bytes());
            }
            Request::FetchDeclarations => w.u8(REQ_FETCH_DECLARATIONS),
            Request::FetchDelegation(id) => {
                w.u8(REQ_FETCH_DELEGATION);
                encode_id(w, id);
            }
            Request::Stats => w.u8(REQ_STATS),
            Request::Health => w.u8(REQ_HEALTH),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            REQ_DIRECT_QUERY => Ok(Request::DirectQuery {
                subject: Node::decode(r)?,
                object: Node::decode(r)?,
                constraints: r.list()?,
            }),
            REQ_SUBJECT_QUERY => Ok(Request::SubjectQuery {
                subject: Node::decode(r)?,
                constraints: r.list()?,
            }),
            REQ_OBJECT_QUERY => Ok(Request::ObjectQuery {
                object: Node::decode(r)?,
                constraints: r.list()?,
            }),
            REQ_PUBLISH => Ok(Request::Publish {
                cert: Arc::new(SignedDelegation::decode(r)?),
                supports: r.list()?,
            }),
            REQ_PUBLISH_DECLARATION => Ok(Request::PublishDeclaration(
                SignedAttrDeclaration::from_bytes(r.bytes()?)?,
            )),
            REQ_SUBSCRIBE => Ok(Request::Subscribe {
                delegation: decode_id(r)?,
                subscriber: WalletAddr::new(r.str()?),
            }),
            REQ_UNSUBSCRIBE => Ok(Request::Unsubscribe {
                delegation: decode_id(r)?,
                subscriber: WalletAddr::new(r.str()?),
            }),
            REQ_REVOKE => Ok(Request::Revoke(SignedRevocation::from_bytes(r.bytes()?)?)),
            REQ_FETCH_DECLARATIONS => Ok(Request::FetchDeclarations),
            REQ_FETCH_DELEGATION => Ok(Request::FetchDelegation(decode_id(r)?)),
            REQ_STATS => Ok(Request::Stats),
            REQ_HEALTH => Ok(Request::Health),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

const REP_PROOFS: u8 = 1;
const REP_PUBLISHED: u8 = 2;
const REP_DECLARATION_PUBLISHED: u8 = 3;
const REP_SUBSCRIBED: u8 = 4;
const REP_REVOKED: u8 = 5;
const REP_DECLARATIONS: u8 = 6;
const REP_DELEGATION: u8 = 7;
const REP_ERROR: u8 = 8;
const REP_STATS: u8 = 9;
const REP_HEALTH: u8 = 10;

/// Encodes a metrics snapshot. Free function rather than an `Encode`
/// impl because `Snapshot` is a `drbac-obs` type and `Encode` a
/// `drbac-core` trait — neither is local here. BTreeMap iteration
/// order makes the encoding canonical.
fn encode_snapshot(w: &mut Writer, s: &drbac_obs::Snapshot) {
    w.u64(s.counters.len() as u64);
    for (name, value) in &s.counters {
        w.str(name);
        w.u64(*value);
    }
    w.u64(s.gauges.len() as u64);
    for (name, value) in &s.gauges {
        w.str(name);
        w.u64(*value as u64); // two's complement round trip
    }
    w.u64(s.histograms.len() as u64);
    for (name, h) in &s.histograms {
        w.str(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.max);
        w.u64(h.p50);
        w.u64(h.p90);
        w.u64(h.p99);
        w.u64(h.p999);
    }
}

fn decode_snapshot(r: &mut Reader<'_>) -> Result<drbac_obs::Snapshot, DecodeError> {
    fn checked_len(r: &Reader<'_>, n: u64) -> Result<usize, DecodeError> {
        let n = usize::try_from(n).map_err(|_| DecodeError::UnexpectedEof)?;
        // Every entry costs at least one byte, so a count beyond the
        // remaining input is a lie — reject before allocating.
        if n > r.remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(n)
    }
    let mut snap = drbac_obs::Snapshot::default();
    let raw = r.u64()?;
    let n = checked_len(r, raw)?;
    for _ in 0..n {
        let name = r.str()?.to_string();
        snap.counters.insert(name, r.u64()?);
    }
    let raw = r.u64()?;
    let n = checked_len(r, raw)?;
    for _ in 0..n {
        let name = r.str()?.to_string();
        snap.gauges.insert(name, r.u64()? as i64);
    }
    let raw = r.u64()?;
    let n = checked_len(r, raw)?;
    for _ in 0..n {
        let name = r.str()?.to_string();
        snap.histograms.insert(
            name,
            drbac_obs::HistogramSnapshot {
                count: r.u64()?,
                sum: r.u64()?,
                max: r.u64()?,
                p50: r.u64()?,
                p90: r.u64()?,
                p99: r.u64()?,
                p999: r.u64()?,
            },
        );
    }
    Ok(snap)
}

fn encode_health(w: &mut Writer, h: &crate::proto::HealthReport) {
    w.u8(u8::from(h.ok));
    w.str(&h.wallet);
    w.u64(h.uptime_ns);
    w.u64(h.delegations);
    w.u64(h.subscribers);
    w.u64(h.served_requests);
}

fn decode_health(r: &mut Reader<'_>) -> Result<crate::proto::HealthReport, DecodeError> {
    let ok = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(DecodeError::InvalidTag(t)),
    };
    Ok(crate::proto::HealthReport {
        ok,
        wallet: r.str()?.to_string(),
        uptime_ns: r.u64()?,
        delegations: r.u64()?,
        subscribers: r.u64()?,
        served_requests: r.u64()?,
    })
}

impl Encode for Reply {
    fn encode(&self, w: &mut Writer) {
        match self {
            Reply::Proofs(proofs) => {
                w.u8(REP_PROOFS);
                w.list(proofs);
            }
            Reply::Published(id) => {
                w.u8(REP_PUBLISHED);
                encode_id(w, id);
            }
            Reply::DeclarationPublished => w.u8(REP_DECLARATION_PUBLISHED),
            Reply::Subscribed => w.u8(REP_SUBSCRIBED),
            Reply::Revoked(n) => {
                w.u8(REP_REVOKED);
                w.u64(*n as u64);
            }
            Reply::Declarations(ds) => {
                w.u8(REP_DECLARATIONS);
                w.u64(ds.len() as u64);
                for d in ds {
                    w.bytes(&d.to_bytes());
                }
            }
            Reply::Delegation(c) => {
                w.u8(REP_DELEGATION);
                w.opt(c.as_ref().map(|c| c.as_ref()));
            }
            Reply::Error(m) => {
                w.u8(REP_ERROR);
                w.str(m);
            }
            Reply::Stats(s) => {
                w.u8(REP_STATS);
                encode_snapshot(w, s);
            }
            Reply::Health(h) => {
                w.u8(REP_HEALTH);
                encode_health(w, h);
            }
        }
    }
}

impl Decode for Reply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            REP_PROOFS => Ok(Reply::Proofs(r.list()?)),
            REP_PUBLISHED => Ok(Reply::Published(decode_id(r)?)),
            REP_DECLARATION_PUBLISHED => Ok(Reply::DeclarationPublished),
            REP_SUBSCRIBED => Ok(Reply::Subscribed),
            REP_REVOKED => {
                let n = r.u64()?;
                let n = usize::try_from(n)
                    .map_err(|_| DecodeError::Invalid("revoked count overflows usize".into()))?;
                Ok(Reply::Revoked(n))
            }
            REP_DECLARATIONS => {
                let n = r.u64()?;
                let n = usize::try_from(n).map_err(|_| DecodeError::UnexpectedEof)?;
                if n > r.remaining() {
                    return Err(DecodeError::UnexpectedEof);
                }
                let mut ds = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ds.push(SignedAttrDeclaration::from_bytes(r.bytes()?)?);
                }
                Ok(Reply::Declarations(ds))
            }
            REP_DELEGATION => {
                let cert: Option<SignedDelegation> = r.opt()?;
                Ok(Reply::Delegation(cert.map(Arc::new)))
            }
            REP_ERROR => Ok(Reply::Error(r.str()?.to_string())),
            REP_STATS => Ok(Reply::Stats(decode_snapshot(r)?)),
            REP_HEALTH => Ok(Reply::Health(decode_health(r)?)),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

impl Encode for OneWay {
    fn encode(&self, w: &mut Writer) {
        match self {
            OneWay::Invalidate(event) => {
                w.u8(1);
                w.bytes(&event.delegation.0);
                w.u8(match event.reason {
                    InvalidationReason::Revoked => 1,
                    InvalidationReason::Expired => 2,
                });
            }
        }
    }
}

impl Decode for OneWay {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            1 => {
                let raw: [u8; 32] = r
                    .bytes()?
                    .try_into()
                    .map_err(|_| DecodeError::Invalid("delegation id must be 32 bytes".into()))?;
                let reason = match r.u8()? {
                    1 => InvalidationReason::Revoked,
                    2 => InvalidationReason::Expired,
                    t => return Err(DecodeError::InvalidTag(t)),
                };
                Ok(OneWay::Invalidate(DelegationEvent {
                    delegation: DelegationId(raw),
                    reason,
                }))
            }
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Domain tags separating the three payload spaces (a request payload
/// can never decode as a reply, and vice versa).
const REQUEST_TAG: &[u8] = b"drbac-req-v1";
const REPLY_TAG: &[u8] = b"drbac-rep-v1";
const PUSH_TAG: &[u8] = b"drbac-push-v1";
const REGISTER_TAG: &[u8] = b"drbac-sub-v1";

fn encode_tagged<T: Encode>(tag: &[u8], value: &T) -> Vec<u8> {
    let mut w = Writer::tagged(tag);
    value.encode(&mut w);
    w.finish()
}

fn decode_tagged<T: Decode>(tag: &'static [u8], bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::tagged(bytes, tag)?;
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Canonical payload bytes for a request frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_tagged(REQUEST_TAG, req)
}

/// Decodes a request frame payload.
///
/// # Errors
///
/// [`DecodeError`] on malformed input (including trailing bytes).
pub fn decode_request(bytes: &[u8]) -> Result<Request, DecodeError> {
    decode_tagged(REQUEST_TAG, bytes)
}

/// Canonical payload bytes for a reply frame.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    encode_tagged(REPLY_TAG, reply)
}

/// Decodes a reply frame payload.
///
/// # Errors
///
/// [`DecodeError`] on malformed input (including trailing bytes).
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, DecodeError> {
    decode_tagged(REPLY_TAG, bytes)
}

/// Canonical payload bytes for a push frame.
pub fn encode_push(msg: &OneWay) -> Vec<u8> {
    encode_tagged(PUSH_TAG, msg)
}

/// Decodes a push frame payload.
///
/// # Errors
///
/// [`DecodeError`] on malformed input (including trailing bytes).
pub fn decode_push(bytes: &[u8]) -> Result<OneWay, DecodeError> {
    decode_tagged(PUSH_TAG, bytes)
}

/// Canonical payload bytes for a push-register frame: the subscriber's
/// wallet address.
pub fn encode_push_register(subscriber: &WalletAddr) -> Vec<u8> {
    let mut w = Writer::tagged(REGISTER_TAG);
    w.str(subscriber.as_str());
    w.finish()
}

/// Decodes a push-register frame payload.
///
/// # Errors
///
/// [`DecodeError`] on malformed input (including trailing bytes).
pub fn decode_push_register(bytes: &[u8]) -> Result<WalletAddr, DecodeError> {
    let mut r = Reader::tagged(bytes, REGISTER_TAG)?;
    let addr = WalletAddr::new(r.str()?);
    r.finish()?;
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{fx, proof_of};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A hand-built frame: header, then `exts` as (tag, body), then
    /// `payload`.
    fn frame_with(kind: u8, exts: &[(u8, &[u8])], payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(WIRE_VERSION);
        buf.push(kind);
        buf.push(exts.len() as u8);
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&crc32(payload).to_be_bytes());
        for (tag, body) in exts {
            buf.push(*tag);
            buf.push(body.len() as u8);
            buf.extend_from_slice(body);
        }
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"hello").unwrap();
        assert_eq!(buf[4], WIRE_VERSION);
        assert_eq!(
            buf.len(),
            FRAME_HEADER_LEN + 5,
            "no id and no trace: the header, then the payload"
        );
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.request_id, None);
        assert_eq!(frame.trace, None);
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn traced_frame_round_trip() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef_cafe_f00d,
            parent_span: 42,
        };
        let mut buf = Vec::new();
        write_frame_traced(&mut buf, FrameKind::Request, b"hello", Some(ctx)).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.request_id, None);
        assert_eq!(frame.trace, Some(ctx));
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn mux_frame_round_trip() {
        let mut buf = Vec::new();
        write_frame_mux(
            &mut buf,
            FrameKind::Request,
            b"hello",
            0x0123_4567_89ab_cdef,
            None,
        )
        .unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.request_id, Some(0x0123_4567_89ab_cdef));
        assert_eq!(frame.trace, None);
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn mux_frame_carries_trace_context() {
        let ctx = TraceContext {
            trace_id: 0xfeed,
            parent_span: 0xbeef,
        };
        let mut buf = Vec::new();
        write_frame_mux(&mut buf, FrameKind::Reply, b"r", 7, Some(ctx)).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.request_id, Some(7));
        assert_eq!(frame.trace, Some(ctx));
    }

    /// The exact bytes of one frame of each shape the protocol sends.
    /// Header: magic, version 04, kind, extension count, len, crc; then
    /// the extensions (trace context first), then the payload.
    #[test]
    fn known_answer_bytes() {
        let ctx = TraceContext {
            trace_id: 0x0102_0304_0506_0708,
            parent_span: 0x1112_1314_1516_1718,
        };
        let id = 0x2122_2324_2526_2728;
        let frame = |write: &dyn Fn(&mut Vec<u8>) -> Result<(), WireError>| {
            let mut buf = Vec::new();
            write(&mut buf).unwrap();
            hex(&buf)
        };
        let health = encode_request(&Request::Health);
        assert_eq!(
            frame(&|b| write_frame(b, FrameKind::Request, &health)),
            concat!(
                "64524257",
                "04",
                "01",
                "00",
                "00000015",
                "7679cf58",
                "000000000000000c64726261632d7265712d76310c",
            )
        );
        assert_eq!(
            frame(&|b| write_frame_traced(b, FrameKind::Request, &health, Some(ctx))),
            concat!(
                "64524257",
                "04",
                "01",
                "01",
                "00000015",
                "7679cf58",
                "011001020304050607081112131415161718",
                "000000000000000c64726261632d7265712d76310c",
            )
        );
        assert_eq!(
            frame(&|b| write_frame_mux(b, FrameKind::Request, &health, id, None)),
            concat!(
                "64524257",
                "04",
                "01",
                "01",
                "00000015",
                "7679cf58",
                "02082122232425262728",
                "000000000000000c64726261632d7265712d76310c",
            )
        );
        let subscribed = encode_reply(&Reply::Subscribed);
        assert_eq!(
            frame(&|b| write_frame_mux(b, FrameKind::Reply, &subscribed, id, None)),
            concat!(
                "64524257",
                "04",
                "02",
                "01",
                "00000015",
                "45c26eda",
                "02082122232425262728",
                "000000000000000c64726261632d7265702d763104",
            )
        );
        let push = encode_push(&OneWay::Invalidate(DelegationEvent {
            delegation: DelegationId([7; 32]),
            reason: InvalidationReason::Revoked,
        }));
        assert_eq!(
            frame(&|b| write_frame(b, FrameKind::Push, &push)),
            concat!(
                "64524257",
                "04",
                "03",
                "00",
                "0000003f",
                "8ca604e1",
                "000000000000000d64726261632d707573682d7631",
                "01",
                "0000000000000020",
                "0707070707070707070707070707070707070707070707070707070707070707",
                "01",
            )
        );
        let register = encode_push_register(&"wallet.b".into());
        assert_eq!(
            frame(&|b| write_frame(b, FrameKind::PushRegister, &register)),
            concat!(
                "64524257",
                "04",
                "04",
                "00",
                "00000024",
                "a4c9708c",
                "000000000000000c64726261632d7375622d7631000000000000000877616c6c65742e62",
            )
        );
    }

    #[test]
    fn retired_and_future_versions_fail_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        for version in [0x01, 0x02, 0x03, 0x05, 0xff] {
            buf[4] = version;
            assert!(matches!(
                read_frame(&mut buf.as_slice()),
                Err(WireError::BadVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn unknown_extension_tags_are_skipped() {
        // An unknown extension, then a trace context and a request id:
        // the decoder skips the first and keeps the others.
        let trace = [7u64.to_be_bytes(), 9u64.to_be_bytes()].concat();
        let buf = frame_with(
            1,
            &[
                (0xEE, &[1, 2, 3]),
                (EXT_TRACE_CONTEXT, &trace),
                (EXT_REQUEST_ID, &5u64.to_be_bytes()),
            ],
            b"payload",
        );
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(
            frame.trace,
            Some(TraceContext {
                trace_id: 7,
                parent_span: 9
            })
        );
        assert_eq!(frame.request_id, Some(5));
        assert_eq!(frame.payload, b"payload");
    }

    #[test]
    fn a_malformed_or_repeated_request_id_is_rejected_not_skipped() {
        for body in [&[0u8; 7][..], &[0u8; 9], &[]] {
            let buf = frame_with(1, &[(EXT_REQUEST_ID, body)], b"p");
            assert!(
                matches!(
                    read_frame(&mut buf.as_slice()),
                    Err(WireError::BadExtension(_))
                ),
                "a {}-byte request id",
                body.len()
            );
        }
        let id = 5u64.to_be_bytes();
        let buf = frame_with(1, &[(EXT_REQUEST_ID, &id), (EXT_REQUEST_ID, &id)], b"p");
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadExtension(_))
        ));
    }

    #[test]
    fn an_extension_count_over_the_cap_is_rejected_at_the_header() {
        for count in [MAX_FRAME_EXTS + 1, 255] {
            let mut buf = frame_with(1, &[], b"p");
            buf[6] = count as u8;
            // Only the header is readable: any read past it would fail
            // with end-of-stream instead.
            assert!(matches!(
                read_frame(&mut &buf[..FRAME_HEADER_LEN]),
                Err(WireError::Oversized(n)) if n == count as u64
            ));
        }
    }

    #[test]
    fn every_truncation_of_a_frame_with_both_extensions_errors() {
        let mut buf = Vec::new();
        let ctx = TraceContext {
            trace_id: 1,
            parent_span: 2,
        };
        write_frame_mux(&mut buf, FrameKind::Request, b"query", 3, Some(ctx)).unwrap();
        for len in 0..buf.len() {
            assert!(matches!(
                read_frame(&mut &buf[..len]),
                Err(WireError::Io(_))
            ));
            assert!(buffered_frame_len(&buf[..len]).is_none_or(|total| total == buf.len()));
        }
        assert_eq!(buffered_frame_len(&buf), Some(buf.len()));
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!((frame.request_id, frame.trace), (Some(3), Some(ctx)));
    }

    #[test]
    fn stats_and_health_payloads_round_trip() {
        let mut snap = drbac_obs::Snapshot::default();
        snap.counters.insert("drbac.a.count".into(), 3);
        snap.gauges.insert("drbac.b.gauge".into(), -7);
        snap.histograms.insert(
            "drbac.c.ns".into(),
            drbac_obs::HistogramSnapshot {
                count: 10,
                sum: 1000,
                max: 400,
                p50: 90,
                p90: 300,
                p99: 400,
                p999: 400,
            },
        );
        for req in [Request::Stats, Request::Health] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap().kind(), req.kind());
        }
        let replies = vec![
            Reply::Stats(snap),
            Reply::Health(crate::proto::HealthReport {
                ok: true,
                wallet: "coalition.example:7070".into(),
                uptime_ns: 123_456,
                delegations: 12,
                subscribers: 2,
                served_requests: 99,
            }),
        ];
        for reply in replies {
            let bytes = encode_reply(&reply);
            let decoded = decode_reply(&bytes).unwrap();
            assert_eq!(encode_reply(&decoded), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn snapshot_negative_gauge_round_trips() {
        let mut snap = drbac_obs::Snapshot::default();
        snap.gauges.insert("g".into(), i64::MIN);
        let bytes = encode_reply(&Reply::Stats(snap));
        match decode_reply(&bytes).unwrap() {
            Reply::Stats(s) => assert_eq!(s.gauges["g"], i64::MIN),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_decode_rejects_lying_counts() {
        // A snapshot claiming 2^32 counters in a tiny payload must be
        // rejected before allocation, not trusted.
        let mut w = Writer::tagged(REPLY_TAG);
        w.u8(REP_STATS);
        w.u64(1 << 32);
        let bytes = w.finish();
        assert!(decode_reply(&bytes).is_err());
    }

    #[test]
    fn request_payloads_round_trip() {
        let f = fx();
        let cert = f.cert("r");
        let requests = vec![
            f.query("r"),
            Request::Publish {
                supports: vec![proof_of(&cert)],
                cert: Arc::new(cert),
            },
            Request::Subscribe {
                delegation: DelegationId([7; 32]),
                subscriber: "wallet.b".into(),
            },
            Request::FetchDeclarations,
            Request::FetchDelegation(DelegationId([9; 32])),
        ];
        for req in requests {
            let bytes = encode_request(&req);
            let decoded = decode_request(&bytes).unwrap();
            assert_eq!(decoded.kind(), req.kind());
            assert_eq!(encode_request(&decoded), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn reply_payloads_round_trip() {
        let cert = fx().cert("r");
        let replies = vec![
            Reply::Proofs(vec![proof_of(&cert)]),
            Reply::Published(DelegationId([1; 32])),
            Reply::Subscribed,
            Reply::Revoked(3),
            Reply::Delegation(Some(Arc::new(cert))),
            Reply::Delegation(None),
            Reply::Error("nope".into()),
        ];
        for reply in replies {
            let bytes = encode_reply(&reply);
            let decoded = decode_reply(&bytes).unwrap();
            assert_eq!(encode_reply(&decoded), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn payload_spaces_are_domain_separated() {
        let bytes = encode_request(&Request::FetchDeclarations);
        assert!(decode_reply(&bytes).is_err());
        assert!(decode_push(&bytes).is_err());
    }
}
