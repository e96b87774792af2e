//! Length-prefixed, CRC-framed wire codec for the inter-wallet protocol.
//!
//! This module is what lets [`Request`] / [`Reply`] values cross a
//! real byte stream
//! (TCP sockets, pipes, files) instead of an in-process channel. It
//! reuses the framing discipline of `drbac-store`'s write-ahead log:
//! every frame is length-prefixed and carries a CRC-32 (IEEE) of its
//! payload, and every payload is the workspace's canonical wire
//! encoding (`drbac-core::wire`) — so a credential on the socket is
//! byte-identical to one in the journal.
//!
//! # Frame layout
//!
//! The byte-level layouts, the TLV extension-tag registry, the
//! request/reply/push state machines, and the version-negotiation and
//! compatibility rules are specified normatively in
//! [`docs/PROTOCOL.md`](https://github.com/drbac/drbac/blob/main/docs/PROTOCOL.md)
//! — that document is the contract; this module is one implementation
//! of it. In brief:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   b"dRBW"
//! 4       1     version 0x01 (bare), 0x02 (+ ext block),
//!               or 0x03 (+ request id + ext block)
//! 5       1     kind    1=request 2=reply 3=push 4=push-register
//! 6       4     len     payload length, u32 big-endian (max 16 MiB)
//! 10      4     crc     CRC-32 (IEEE) of the payload bytes
//! --- version 0x03 only: multiplexing id ---
//! 14      8     request_id  u64 big-endian, echoed verbatim in the reply
//! --- versions 0x02 and 0x03: extension block (at 14 for v2, 22 for v3) ---
//!         1     ext_count  number of TLV extensions (max 16; may be 0)
//!         per extension:
//!         1     tag     1=trace-context (unknown tags are skipped)
//!         1     elen    extension byte length
//!         elen  ebody   tag 1: trace_id u64 BE ++ parent_span u64 BE
//! --- then ---
//!         len   payload canonical encoding of the message
//! ```
//!
//! Version 0x01 frames have no extension block; senders only emit
//! version 0x02 when a trace context is attached, so a peer that
//! predates tracing keeps interoperating until a trace actually
//! crosses to it (and then fails cleanly with `BadVersion`). Version
//! 0x03 frames carry a `request_id` so one connection can multiplex
//! many in-flight requests ([`crate::PipelinedClient`]): the daemon
//! treats the id as an opaque token and echoes it on the matching
//! reply, which may arrive out of order. Senders only emit version
//! 0x03 after explicitly opting into pipelining, so peers that never
//! pipeline keep exchanging byte-identical v1/v2 frames. Decoders here
//! accept all three versions and skip unknown extension tags, so newer
//! peers can add extensions without breaking us.
//!
//! # Invariants
//!
//! * **A decoder never panics and never over-allocates.** A length
//!   above [`MAX_FRAME_LEN`] is rejected *before* any allocation
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
use std::io::{Read, Write};
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

/// Base protocol version (no extension block).
pub const WIRE_VERSION: u8 = 1;

/// Protocol version carrying a TLV extension block (trace context).
pub const WIRE_VERSION_TRACED: u8 = 2;

/// Protocol version carrying a multiplexing `request_id` (plus the TLV
/// extension block). Emitted only by peers that explicitly opted into
/// pipelining — see [`crate::PipelinedClient`].
pub const WIRE_VERSION_MUX: u8 = 3;

/// Extension tag: distributed trace context (16 bytes — trace_id u64
/// BE followed by parent_span u64 BE).
pub const EXT_TRACE_CONTEXT: u8 = 1;

/// Upper bound on extensions per frame; more is a protocol violation.
pub const MAX_FRAME_EXTS: usize = 16;

/// Upper bound on a frame payload (16 MiB). A length prefix above this
/// is treated as a protocol violation, not an allocation request — the
/// decoder rejects it before reserving a single byte.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Fixed frame header size (magic + version + kind + len + crc).
pub const FRAME_HEADER_LEN: usize = 14;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A [`Request`] awaiting a reply on the same connection.
    Request,
    /// A [`Reply`] to the connection's previous request.
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

/// Distributed trace context carried in a frame's extension block:
/// which trace the message belongs to and which peer-side span it hangs
/// under. See `drbac-obs`'s `set_current_trace`.
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
    /// Multiplexing request id (version 0x03 frames only). On a
    /// request, the id the reply must echo; on a reply, the id of the
    /// request it answers. `None` on v1/v2 frames: strict
    /// request/reply alternation.
    pub request_id: Option<u64>,
    /// Trace context from the frame's extension block, if the sender
    /// attached one (version 0x02/0x03 frames only).
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
    /// The peer speaks a protocol version we do not.
    BadVersion(u8),
    /// The kind byte had no meaning.
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_FRAME_LEN`] — rejected before
    /// allocation.
    Oversized(u64),
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
            WireError::Crc { expected, found } => {
                write!(f, "payload CRC mismatch (header {expected:#010x}, data {found:#010x})")
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
    write_frame_traced(w, kind, payload, None)
}

/// Writes one frame, attaching `trace` in a version-0x02 extension
/// block when present. Without a trace this emits a plain version-0x01
/// frame, so tracing-off peers keep interoperating with old decoders.
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

/// Writes one version-0x03 (multiplexed) frame carrying `request_id`,
/// with an optional trace context in the extension block. Only peers
/// that explicitly opted into pipelining speak this version — see the
/// compatibility rules in `docs/PROTOCOL.md`.
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
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = if request_id.is_some() {
        WIRE_VERSION_MUX
    } else if trace.is_some() {
        WIRE_VERSION_TRACED
    } else {
        WIRE_VERSION
    };
    header[5] = kind.to_byte();
    header[6..10].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[10..14].copy_from_slice(&crc32(payload).to_be_bytes());
    w.write_all(&header)?;
    if let Some(id) = request_id {
        w.write_all(&id.to_be_bytes())?;
        // v3 always carries an extension block, possibly empty.
        match trace {
            Some(ctx) => write_trace_ext(w, ctx)?,
            None => w.write_all(&[0])?,
        }
    } else if let Some(ctx) = trace {
        write_trace_ext(w, ctx)?;
    }
    w.write_all(payload)?;
    Ok(())
}

fn write_trace_ext<W: Write>(w: &mut W, ctx: TraceContext) -> Result<(), WireError> {
    let mut ext = [0u8; 19];
    ext[0] = 1; // one extension
    ext[1] = EXT_TRACE_CONTEXT;
    ext[2] = 16;
    ext[3..11].copy_from_slice(&ctx.trace_id.to_be_bytes());
    ext[11..19].copy_from_slice(&ctx.parent_span.to_be_bytes());
    w.write_all(&ext)?;
    Ok(())
}

/// Total encoded length of the frame at the head of `buf`, when enough
/// of its header is present to tell. `None` means "can't tell yet" —
/// either too few bytes are buffered or the head is not a well-formed
/// header (the blocking [`read_frame`] path will surface the actual
/// error).
///
/// This exists for batched readers: a pump that has already pulled one
/// frame can peek its buffer and keep draining *complete* frames
/// without ever risking a block on a torn one.
pub fn buffered_frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < FRAME_HEADER_LEN || buf[..4] != FRAME_MAGIC {
        return None;
    }
    let payload_len = u32::from_be_bytes(buf[6..10].try_into().expect("4 bytes")) as usize;
    let mut off = FRAME_HEADER_LEN;
    if buf[4] == WIRE_VERSION_MUX {
        off += 8;
    }
    if buf[4] == WIRE_VERSION_TRACED || buf[4] == WIRE_VERSION_MUX {
        let count = *buf.get(off)? as usize;
        off += 1;
        for _ in 0..count {
            let len = *buf.get(off + 1)? as usize;
            off += 2 + len;
        }
    } else if buf[4] != WIRE_VERSION {
        return None;
    }
    Some(off + payload_len)
}

/// Reads one frame from `r`, verifying magic, version, length bound,
/// and payload CRC. Blocks until a full frame (or an error) arrives.
///
/// # Errors
///
/// Any [`WireError`]; a stream that ends mid-frame yields
/// [`WireError::Io`] with `ErrorKind::UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic([header[0], header[1], header[2], header[3]]));
    }
    if header[4] != WIRE_VERSION
        && header[4] != WIRE_VERSION_TRACED
        && header[4] != WIRE_VERSION_MUX
    {
        return Err(WireError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_byte(header[5]).ok_or(WireError::UnknownKind(header[5]))?;
    let len = u32::from_be_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len as u64));
    }
    let expected = u32::from_be_bytes(header[10..14].try_into().expect("4 bytes"));
    let mut request_id = None;
    if header[4] == WIRE_VERSION_MUX {
        let mut id = [0u8; 8];
        r.read_exact(&mut id)?;
        request_id = Some(u64::from_be_bytes(id));
    }
    let mut trace = None;
    if header[4] == WIRE_VERSION_TRACED || header[4] == WIRE_VERSION_MUX {
        let mut count = [0u8; 1];
        r.read_exact(&mut count)?;
        let count = count[0] as usize;
        if count > MAX_FRAME_EXTS {
            return Err(WireError::Oversized(count as u64));
        }
        for _ in 0..count {
            let mut tl = [0u8; 2];
            r.read_exact(&mut tl)?;
            let mut body = vec![0u8; tl[1] as usize];
            r.read_exact(&mut body)?;
            // Known tag with the expected shape → adopt; anything else
            // (future tags, future shapes of known tags) is skipped so
            // newer peers can extend frames without breaking us.
            if tl[0] == EXT_TRACE_CONTEXT && body.len() == 16 {
                let trace_id = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
                let parent_span = u64::from_be_bytes(body[8..].try_into().expect("8 bytes"));
                if trace_id != 0 {
                    trace = Some(TraceContext {
                        trace_id,
                        parent_span,
                    });
                }
            }
        }
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let found = crc32(&payload);
    if found != expected {
        return Err(WireError::Crc { expected, found });
    }
    Ok(Frame {
        kind,
        request_id,
        trace,
        payload,
    })
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

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"hello").unwrap();
        assert_eq!(buf[4], WIRE_VERSION, "trace-less frames stay version 1");
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
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
        assert_eq!(buf[4], WIRE_VERSION_TRACED);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.trace, Some(ctx));
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn unknown_extension_tags_are_skipped() {
        // Hand-build a v2 frame with an unknown ext followed by a trace
        // context — the decoder must skip the former and keep the latter.
        let payload = b"payload";
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(WIRE_VERSION_TRACED);
        buf.push(1); // kind: request
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&crc32(payload).to_be_bytes());
        buf.push(2); // two extensions
        buf.push(0xEE); // unknown tag
        buf.push(3);
        buf.extend_from_slice(&[1, 2, 3]);
        buf.push(EXT_TRACE_CONTEXT);
        buf.push(16);
        buf.extend_from_slice(&7u64.to_be_bytes());
        buf.extend_from_slice(&9u64.to_be_bytes());
        buf.extend_from_slice(payload);
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(
            frame.trace,
            Some(TraceContext {
                trace_id: 7,
                parent_span: 9
            })
        );
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn future_version_fails_cleanly() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[4] = 4; // a version from the future
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadVersion(4))
        ));
    }

    #[test]
    fn mux_frame_round_trip() {
        let mut buf = Vec::new();
        write_frame_mux(&mut buf, FrameKind::Request, b"hello", 0x0123_4567_89ab_cdef, None)
            .unwrap();
        assert_eq!(buf[4], WIRE_VERSION_MUX);
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

    #[test]
    fn trace_less_and_id_less_sends_stay_version_1() {
        // The compatibility contract: a peer that never pipelines and
        // never traces emits byte-identical v1 frames forever.
        let mut buf = Vec::new();
        write_frame_traced(&mut buf, FrameKind::Request, b"q", None).unwrap();
        assert_eq!(buf[4], WIRE_VERSION);
        assert_eq!(buf.len(), FRAME_HEADER_LEN + 1);
    }

    #[test]
    fn oversized_extension_count_is_rejected() {
        let payload = b"p";
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.push(WIRE_VERSION_TRACED);
        buf.push(1);
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(&crc32(payload).to_be_bytes());
        buf.push(255); // far over MAX_FRAME_EXTS
        buf.extend_from_slice(payload);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Oversized(255))
        ));
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
