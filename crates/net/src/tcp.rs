//! TCP client transport: the [`Transport`] trait over real sockets.
//!
//! [`TcpTransport`] keeps a small per-peer connection pool, applies
//! configurable connect/read/write deadlines, and — unlike
//! [`SimNet`](crate::SimNet), which advances a simulated clock — its
//! [`Transport::backoff`] really sleeps, so a
//! [`RetryPolicy`](crate::RetryPolicy) schedule measured in ticks
//! becomes wall-clock delay via [`TcpConfig::tick`].
//!
//! Error mapping (what retries can and cannot fix):
//!
//! * no route / unparsable address → [`NetError::UnknownHost`] (permanent)
//! * connect refused / connection died mid-exchange → [`NetError::HostDown`]
//!   (retryable — the daemon may come back)
//! * read or write deadline expired → [`NetError::Timeout`] (retryable)
//! * bad frame, CRC mismatch, undecodable payload →
//!   [`NetError::Protocol`] (permanent — see [`crate::wire`])
//!
//! A pooled connection that fails is discarded and the request is
//! re-attempted once on a fresh connection before an error is
//! reported, so a server-side idle close between requests is invisible
//! to callers.
//!
//! [`Transport::request_batch`] is scatter-gather over the same pool:
//! per destination one pooled connection is checked out exclusively,
//! the destination's requests leave as wire-v3 (request-id) frames in
//! one coalesced write, and the replies — in whatever order the
//! daemon's workers finish — are gathered by id. No reader thread and
//! no connection beyond the pooled one (see `docs/PROTOCOL.md` §5).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use drbac_core::{Ticks, WalletAddr};
use parking_lot::{Mutex, RwLock};

use crate::proto::{Reply, Request};
use crate::sim::NetError;
use crate::transport::Transport;
use crate::wire::{self, FrameKind, WireError};

/// Socket behaviour knobs for [`TcpTransport`] and
/// [`WalletDaemon`](crate::WalletDaemon).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Deadline for reading one reply (or, daemon-side, the next
    /// request). `None` blocks forever.
    pub read_timeout: Option<Duration>,
    /// Deadline for writing one frame. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Wall-clock duration of one retry-backoff tick (how
    /// [`Transport::backoff`] converts a [`RetryPolicy`](crate::RetryPolicy)
    /// delay into sleep).
    pub tick: Duration,
    /// Upper bound on one backoff sleep, however large the tick count.
    pub max_backoff: Duration,
    /// Idle connections kept per peer.
    pub max_pooled: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            tick: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            max_pooled: 4,
        }
    }
}

impl TcpConfig {
    /// Tight deadlines for loopback tests (tens of milliseconds, not
    /// seconds).
    pub fn fast() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Some(Duration::from_millis(2000)),
            write_timeout: Some(Duration::from_millis(2000)),
            tick: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            max_pooled: 2,
        }
    }
}

/// [`Transport`] over TCP sockets with a per-peer connection pool.
///
/// Wallet addresses route to socket addresses either through an
/// explicit [`TcpTransport::add_route`] entry or, failing that, by
/// parsing the wallet address itself as `host:port` — so a deployment
/// can simply *name* wallets by their endpoints.
#[derive(Debug)]
pub struct TcpTransport {
    config: TcpConfig,
    routes: RwLock<HashMap<WalletAddr, SocketAddr>>,
    pool: Mutex<HashMap<WalletAddr, Vec<TcpStream>>>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new(TcpConfig::default())
    }
}

impl TcpTransport {
    /// A transport with the given socket configuration.
    pub fn new(config: TcpConfig) -> Self {
        TcpTransport {
            config,
            routes: RwLock::new(HashMap::new()),
            pool: Mutex::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.config
    }

    /// Routes a wallet address to a socket address.
    pub fn add_route(&self, wallet: impl Into<WalletAddr>, addr: SocketAddr) {
        self.routes.write().insert(wallet.into(), addr);
    }

    /// Resolves a wallet address: explicit route first, then the
    /// address string itself as `host:port`.
    fn resolve(&self, to: &WalletAddr) -> Result<SocketAddr, NetError> {
        if let Some(addr) = self.routes.read().get(to) {
            return Ok(*addr);
        }
        to.as_str()
            .parse()
            .map_err(|_| NetError::UnknownHost(to.clone()))
    }

    /// Drops all pooled connections (e.g. after a known daemon restart).
    pub fn drain_pool(&self) {
        self.pool.lock().clear();
    }

    fn checkout(&self, to: &WalletAddr) -> Option<TcpStream> {
        self.pool.lock().get_mut(to).and_then(Vec::pop)
    }

    fn checkin(&self, to: &WalletAddr, stream: TcpStream) {
        let mut pool = self.pool.lock();
        let conns = pool.entry(to.clone()).or_default();
        if conns.len() < self.config.max_pooled {
            conns.push(stream);
        }
    }

    /// Opens a fresh, deadline-configured connection to `to` without
    /// pooling it — for callers that own the stream's whole lifetime,
    /// like a [`SubscriberLink`](crate::SubscriberLink)'s persistent
    /// push connection.
    pub fn connect_raw(&self, to: &WalletAddr) -> Result<TcpStream, NetError> {
        self.connect(to)
    }

    /// Opens a fresh connection with deadlines applied.
    fn connect(&self, to: &WalletAddr) -> Result<TcpStream, NetError> {
        let addr = self.resolve(to)?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)
            .map_err(|_| NetError::HostDown(to.clone()))?;
        stream
            .set_read_timeout(self.config.read_timeout)
            .and_then(|_| stream.set_write_timeout(self.config.write_timeout))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|_| NetError::HostDown(to.clone()))?;
        drbac_obs::static_counter!("drbac.net.tcp.connect.count").inc();
        Ok(stream)
    }

    /// Opens a pipelined (wire v3) client connection to `to`: many
    /// requests in flight on one stream, replies matched by request id
    /// and completed out of order. See [`PipelinedClient`].
    ///
    /// # Errors
    ///
    /// [`NetError`] if the connection cannot be established or the
    /// reader thread cannot start.
    pub fn pipelined(&self, to: &WalletAddr) -> Result<PipelinedClient, NetError> {
        PipelinedClient::connect(self, to)
    }

    /// One request/reply exchange on an open stream. While tracing is
    /// on, the request frame carries this span's trace context so the
    /// daemon's spans stitch into the same distributed trace.
    fn exchange(
        &self,
        stream: &mut TcpStream,
        to: &WalletAddr,
        req: &Request,
    ) -> Result<Reply, NetError> {
        let span = drbac_obs::span!("drbac.net.tcp.request", "req" => req.kind());
        let start = std::time::Instant::now();
        let trace = (span.trace_id() != 0).then_some(wire::TraceContext {
            trace_id: span.trace_id(),
            parent_span: span.id(),
        });
        let payload = wire::encode_request(req);
        wire::write_frame_traced(stream, FrameKind::Request, &payload, trace)
            .and_then(|()| stream.flush().map_err(WireError::Io))
            .map_err(|e| map_wire_error(e, to))?;
        drbac_obs::static_counter!("drbac.net.tcp.frame.tx.count").inc();
        let frame = wire::read_frame(stream).map_err(|e| map_wire_error(e, to))?;
        drbac_obs::static_counter!("drbac.net.tcp.frame.rx.count").inc();
        if frame.kind != FrameKind::Reply {
            return Err(NetError::Protocol(format!(
                "expected a reply frame, got {:?}",
                frame.kind
            )));
        }
        let reply = wire::decode_reply(&frame.payload)
            .map_err(|e| NetError::Protocol(format!("undecodable reply: {e}")))?;
        drbac_obs::static_histogram!("drbac.net.tcp.request.ns")
            .record(start.elapsed().as_nanos() as u64);
        Ok(reply)
    }
}

/// Requests one batch keeps in flight per connection: a quarter of the
/// daemon's default `max_inflight` (128), so a default daemon never
/// answers a batch with `overloaded:`. A daemon configured lower does,
/// and [`BatchConn::gather`] resends exactly those entries.
const BATCH_FLIGHT: usize = 32;

/// Consecutive rounds in which a daemon answered nothing but
/// `overloaded:` before the remaining entries fail as timeouts (the
/// caller's [`RetryPolicy`](crate::RetryPolicy) takes over on the
/// strict path, which the daemon serves inline and never sheds).
const BATCH_STALLED_ROUNDS: u32 = 8;

/// One destination's share of a [`Transport::request_batch`] call: an
/// exclusively held connection plus the entries still owed a reply.
struct BatchConn<'a> {
    to: &'a WalletAddr,
    stream: TcpStream,
    /// Whether `stream` came out of the pool — it may have been closed
    /// by the peer while idle, which only shows on first use.
    pooled: bool,
    /// Batch indices not yet written (or to be written again).
    waiting: VecDeque<usize>,
    /// Batch indices written and awaiting their reply; an index doubles
    /// as the frame's request id.
    flight: Vec<usize>,
    /// How many entries the next write may carry.
    window: usize,
    sent: Instant,
}

impl TcpTransport {
    /// The eager half of [`Transport::request_batch`]: every
    /// destination's first window is on the wire before any reply is
    /// awaited, then the destinations are gathered one after another
    /// (the daemons work concurrently meanwhile).
    fn scatter_gather(&self, batch: &[(WalletAddr, Request)]) -> Vec<Result<Reply, NetError>> {
        let span = drbac_obs::span!("drbac.net.tcp.batch", "n" => batch.len());
        let trace = (span.trace_id() != 0).then_some(wire::TraceContext {
            trace_id: span.trace_id(),
            parent_span: span.id(),
        });
        let mut results: Vec<Option<Result<Reply, NetError>>> = vec![None; batch.len()];
        // Entries grouped per destination, destinations in first-use
        // order.
        let mut groups: Vec<(&WalletAddr, VecDeque<usize>)> = Vec::new();
        for (i, (to, _)) in batch.iter().enumerate() {
            match groups.iter_mut().find(|(dest, _)| *dest == to) {
                Some((_, entries)) => entries.push_back(i),
                None => groups.push((to, VecDeque::from([i]))),
            }
        }
        let mut healthy = Vec::with_capacity(groups.len());
        for (to, waiting) in groups {
            let (stream, pooled) = match self.checkout(to) {
                Some(stream) => (stream, true),
                None => match self.connect(to) {
                    Ok(stream) => (stream, false),
                    Err(e) => {
                        for i in waiting {
                            results[i] = Some(Err(e.clone()));
                        }
                        continue;
                    }
                },
            };
            let mut conn = BatchConn {
                to,
                stream,
                pooled,
                waiting,
                flight: Vec::new(),
                window: BATCH_FLIGHT,
                sent: Instant::now(),
            };
            match conn.scatter(self, batch, trace) {
                Ok(()) => healthy.push(conn),
                Err(e) => conn.fail(e, &mut results),
            }
        }
        for mut conn in healthy {
            match conn.gather(self, batch, trace, &mut results) {
                Ok(()) => self.checkin(conn.to, conn.stream),
                Err(e) => conn.fail(e, &mut results),
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(NetError::Protocol("batch entry unanswered".into()))))
            .collect()
    }
}

impl BatchConn<'_> {
    /// Moves up to a window of waiting entries into flight and sends
    /// them.
    fn scatter(
        &mut self,
        transport: &TcpTransport,
        batch: &[(WalletAddr, Request)],
        trace: Option<wire::TraceContext>,
    ) -> Result<(), NetError> {
        debug_assert!(self.flight.is_empty());
        let n = self.window.min(self.waiting.len());
        self.flight.extend(self.waiting.drain(..n));
        self.send_flight(transport, batch, trace)
    }

    /// Writes the entries in flight as one coalesced buffer of v3
    /// frames. A pooled connection the peer closed while idle is
    /// replaced once, invisibly, as [`TcpTransport::request`] does.
    fn send_flight(
        &mut self,
        transport: &TcpTransport,
        batch: &[(WalletAddr, Request)],
        trace: Option<wire::TraceContext>,
    ) -> Result<(), NetError> {
        let mut buf: Vec<u8> = Vec::with_capacity(256 * self.flight.len());
        for &i in &self.flight {
            let payload = wire::encode_request(&batch[i].1);
            wire::write_frame_mux(&mut buf, FrameKind::Request, &payload, i as u64, trace)
                .map_err(|e| map_wire_error(e, self.to))?;
        }
        let mut written = self
            .stream
            .write_all(&buf)
            .and_then(|()| self.stream.flush());
        if written.is_err() && self.pooled {
            self.reconnect(transport)?;
            written = self
                .stream
                .write_all(&buf)
                .and_then(|()| self.stream.flush());
        }
        written.map_err(|e| map_wire_error(WireError::Io(e), self.to))?;
        self.sent = Instant::now();
        drbac_obs::static_counter!("drbac.net.tcp.frame.tx.count").add(self.flight.len() as u64);
        Ok(())
    }

    fn reconnect(&mut self, transport: &TcpTransport) -> Result<(), NetError> {
        self.stream = transport.connect(self.to)?;
        self.pooled = false;
        Ok(())
    }

    /// Reads replies until nothing of this destination is owed any
    /// more, matching them to entries by request id. `overloaded:`
    /// replies put their entry back in line; the next write carries
    /// only as many entries as the daemon just proved it admits.
    fn gather(
        &mut self,
        transport: &TcpTransport,
        batch: &[(WalletAddr, Request)],
        trace: Option<wire::TraceContext>,
        results: &mut [Option<Result<Reply, NetError>>],
    ) -> Result<(), NetError> {
        let mut stalled = 0;
        while !self.flight.is_empty() {
            let in_flight = self.flight.len();
            let mut shed = 0;
            // Buffered: the daemon's workers flush runs of replies, so
            // one read collects many frames.
            let mut reader = std::io::BufReader::with_capacity(16 * 1024, &self.stream);
            let mut answered = 0;
            while !self.flight.is_empty() {
                let frame = match wire::read_frame(&mut reader) {
                    Ok(frame) => frame,
                    Err(_) if self.pooled && answered == 0 => {
                        // Closed while idle in the pool: nothing of this
                        // window was served, replay it on a fresh stream.
                        drop(reader);
                        self.reconnect(transport)?;
                        self.send_flight(transport, batch, trace)?;
                        reader = std::io::BufReader::with_capacity(16 * 1024, &self.stream);
                        continue;
                    }
                    Err(e) => return Err(map_wire_error(e, self.to)),
                };
                drbac_obs::static_counter!("drbac.net.tcp.frame.rx.count").inc();
                let slot = match (frame.kind, frame.request_id) {
                    (FrameKind::Reply, Some(id)) => {
                        self.flight.iter().position(|&i| i as u64 == id)
                    }
                    _ => None,
                };
                let Some(slot) = slot else {
                    return Err(NetError::Protocol(format!(
                        "unexpected {:?} frame (request id {:?}) inside a batch",
                        frame.kind, frame.request_id
                    )));
                };
                let i = self.flight.swap_remove(slot);
                answered += 1;
                drbac_obs::static_histogram!("drbac.net.tcp.request.ns")
                    .record(self.sent.elapsed().as_nanos() as u64);
                match wire::decode_reply(&frame.payload) {
                    Ok(reply) if reply.is_overload() => {
                        shed += 1;
                        self.waiting.push_back(i);
                    }
                    Ok(reply) => results[i] = Some(Ok(reply)),
                    Err(e) => {
                        results[i] =
                            Some(Err(NetError::Protocol(format!("undecodable reply: {e}"))))
                    }
                }
            }
            // Nothing but the owed replies may have arrived, or the
            // stream would go back to the pool out of step.
            if !reader.buffer().is_empty() {
                return Err(NetError::Protocol(
                    "bytes beyond the batch's replies".into(),
                ));
            }
            // The stream has proven itself; a later failure is the
            // daemon dying, not an idle close.
            self.pooled = false;
            if self.waiting.is_empty() {
                return Ok(());
            }
            if shed == in_flight {
                stalled += 1;
                if stalled >= BATCH_STALLED_ROUNDS {
                    for i in self.waiting.drain(..) {
                        results[i] = Some(Err(NetError::Timeout(self.to.clone())));
                    }
                    return Ok(());
                }
                // The daemon frees a slot when its reply is written;
                // give its worker the moment it needs to say so.
                std::thread::sleep(Duration::from_micros(200 << stalled));
            } else {
                stalled = 0;
            }
            if shed > 0 {
                self.window = (in_flight - shed).max(1);
            }
            self.scatter(transport, batch, trace)?;
        }
        Ok(())
    }

    /// Fails every entry of this destination still owed a reply; the
    /// stream is dropped, never returned to the pool.
    fn fail(self, err: NetError, results: &mut [Option<Result<Reply, NetError>>]) {
        for i in self.flight.into_iter().chain(self.waiting) {
            results[i] = Some(Err(err.clone()));
        }
    }
}

/// Classifies a wire-layer failure: deadline → `Timeout`, other stream
/// death → `HostDown` (both retryable); anything structural →
/// `Protocol` (permanent).
fn map_wire_error(e: WireError, to: &WalletAddr) -> NetError {
    match e {
        WireError::Io(io) => match io.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                drbac_obs::static_counter!("drbac.net.tcp.deadline.count").inc();
                NetError::Timeout(to.clone())
            }
            _ => NetError::HostDown(to.clone()),
        },
        other => NetError::Protocol(other.to_string()),
    }
}

impl Transport for TcpTransport {
    fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
        // A pooled stream may have been closed by the peer while idle;
        // retry exactly once on a guaranteed-fresh connection so idle
        // closes never surface to callers.
        if let Some(mut stream) = self.checkout(to) {
            if let Ok(reply) = self.exchange(&mut stream, to, &req) {
                self.checkin(to, stream);
                return Ok(reply);
            }
        }
        let mut stream = self.connect(to)?;
        let reply = self.exchange(&mut stream, to, &req)?;
        self.checkin(to, stream);
        Ok(reply)
    }

    fn request_batch<'a>(
        &'a self,
        batch: &'a [(WalletAddr, Request)],
    ) -> Box<dyn Iterator<Item = Result<Reply, NetError>> + 'a> {
        Box::new(self.scatter_gather(batch).into_iter())
    }

    /// Really sleeps: `delay × tick`, capped at
    /// [`TcpConfig::max_backoff`].
    fn backoff(&self, delay: Ticks) {
        let sleep = self
            .config
            .tick
            .saturating_mul(u32::try_from(delay.0).unwrap_or(u32::MAX))
            .min(self.config.max_backoff);
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }
}

/// A single-connection pipelined client speaking wire v3 (see
/// `docs/PROTOCOL.md` §5): every request frame carries a fresh
/// `request_id`, many requests ride in flight at once, and the daemon's
/// replies — which may arrive out of order — are matched back to their
/// waiters by id.
///
/// Contrast with [`TcpTransport::request`], which is strict
/// request/reply per pooled connection: a pipelined client keeps one
/// socket saturated instead of paying a round trip per request. The
/// benchmark's `front_door` workload (window 16) measures it against
/// the strict `guard_strict` workload.
///
/// Usage shapes:
///
/// * `call(req)` — send one request and block for its reply (still
///   pipelines with other threads sharing the client).
/// * `send(req)` → id, later `wait(id)` — explicit split for windowed
///   pipelining from a single thread.
/// * `send_many(reqs)` → ids — batch submit under one lock with a
///   single flush, then `wait` each id.
///
/// All methods are `&self`; a `PipelinedClient` is safe to share across
/// threads. A connection-level failure (daemon died, protocol
/// violation) fans the same error out to every in-flight waiter and
/// fails all later sends — drop the client and connect a fresh one.
pub struct PipelinedClient {
    to: WalletAddr,
    /// Write half; sends serialize through this lock.
    writer: StdMutex<TcpStream>,
    pending: Arc<PendingMap>,
    next_id: AtomicU64,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    closed: AtomicBool,
    /// Per-`wait` deadline (the transport's read deadline).
    wait_timeout: Option<Duration>,
}

/// Reply slots shared between waiters and the reader thread.
struct PendingMap {
    state: StdMutex<PendingState>,
    cv: Condvar,
}

struct PendingState {
    /// request id → its slot; a filled slot holds the reply until the
    /// waiter collects it.
    slots: HashMap<u64, Slot>,
    /// Set once when the connection dies; fanned out to all waiters.
    dead: Option<NetError>,
}

struct Slot {
    sent: Instant,
    /// The reply frame's payload bytes. Decoding happens on the
    /// waiter's thread in [`PipelinedClient::wait`], not on the shared
    /// reader — the reader stays pure frame demux, so one slow decode
    /// cannot stall every other in-flight reply.
    result: Option<Vec<u8>>,
}

impl std::fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("to", &self.to)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl PipelinedClient {
    /// Connects to `to` through `transport`'s routing/deadline config
    /// and starts the reply-reader thread.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the connection cannot be established or the
    /// reader thread cannot start.
    pub fn connect(transport: &TcpTransport, to: &WalletAddr) -> Result<PipelinedClient, NetError> {
        let stream = transport.connect(to)?;
        // Replies arrive whenever the daemon completes work, not on a
        // per-read schedule: the reader blocks indefinitely and `wait`
        // enforces the deadline instead.
        stream
            .set_read_timeout(None)
            .map_err(|_| NetError::HostDown(to.clone()))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| NetError::Protocol(format!("cannot clone pipelined stream: {e}")))?;
        let pending = Arc::new(PendingMap {
            state: StdMutex::new(PendingState {
                slots: HashMap::new(),
                dead: None,
            }),
            cv: Condvar::new(),
        });
        let reader_pending = Arc::clone(&pending);
        let reader_to = to.clone();
        let reader = std::thread::Builder::new()
            .name(format!("drbac-pipeline-{to}"))
            .spawn(move || pipeline_reader(read_half, reader_pending, reader_to))
            .map_err(|e| NetError::Protocol(format!("cannot spawn pipeline reader: {e}")))?;
        Ok(PipelinedClient {
            to: to.clone(),
            writer: StdMutex::new(stream),
            pending,
            next_id: AtomicU64::new(1),
            reader: Mutex::new(Some(reader)),
            closed: AtomicBool::new(false),
            wait_timeout: transport.config.read_timeout,
        })
    }

    /// The peer this client is connected to.
    pub fn peer(&self) -> &WalletAddr {
        &self.to
    }

    /// Requests currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending
            .state
            .lock()
            .map(|s| s.slots.len())
            .unwrap_or(0)
    }

    /// Submits `req` without waiting; returns the request id to pass
    /// to [`wait`](Self::wait). The reply may complete before, after,
    /// or interleaved with other in-flight requests.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the connection has already failed or the frame
    /// cannot be written.
    pub fn send(&self, req: &Request) -> Result<u64, NetError> {
        let ids = self.send_batch(std::slice::from_ref(req))?;
        Ok(ids[0])
    }

    /// Submits a batch under one writer lock with a single flush —
    /// client-side write coalescing to mirror the daemon's reply path.
    /// Returns one request id per request, in order.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the connection has already failed or a frame
    /// cannot be written; on a mid-batch write failure the whole
    /// connection is failed (partial batches never linger).
    pub fn send_many(&self, reqs: &[Request]) -> Result<Vec<u64>, NetError> {
        self.send_batch(reqs)
    }

    fn send_batch(&self, reqs: &[Request]) -> Result<Vec<u64>, NetError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let span = drbac_obs::span!("drbac.net.tcp.pipeline.send", "n" => reqs.len());
        let trace = (span.trace_id() != 0).then_some(wire::TraceContext {
            trace_id: span.trace_id(),
            parent_span: span.id(),
        });
        // Register slots first so a reply racing the send always finds
        // its waiter.
        let ids: Vec<u64> = {
            let mut state = self
                .pending
                .state
                .lock()
                .map_err(|_| NetError::Protocol("pipeline state poisoned".into()))?;
            if let Some(dead) = &state.dead {
                return Err(dead.clone());
            }
            let now = Instant::now();
            reqs.iter()
                .map(|_| {
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    state.slots.insert(
                        id,
                        Slot {
                            sent: now,
                            result: None,
                        },
                    );
                    id
                })
                .collect()
        };
        // Encode the whole batch into one buffer so it leaves in a
        // single write — client-side coalescing to mirror the daemon's
        // reply path (and one wakeup for the daemon's reader, not N).
        let mut buf: Vec<u8> = Vec::with_capacity(256 * reqs.len());
        let encoded = reqs.iter().zip(&ids).try_for_each(|(req, id)| {
            let payload = wire::encode_request(req);
            wire::write_frame_mux(&mut buf, FrameKind::Request, &payload, *id, trace)
        });
        let written = encoded.and_then(|()| {
            let mut writer = self
                .writer
                .lock()
                .map_err(|_| WireError::Io(std::io::Error::other("pipeline writer poisoned")))?;
            writer
                .write_all(&buf)
                .and_then(|()| writer.flush())
                .map_err(WireError::Io)
        });
        match written {
            Ok(()) => {
                drbac_obs::static_counter!("drbac.net.tcp.frame.tx.count").add(ids.len() as u64);
                Ok(ids)
            }
            Err(e) => {
                let err = map_wire_error(e, &self.to);
                // A torn write desynchronizes the whole stream: fail
                // the connection so every waiter learns, not just us.
                self.fail(err.clone());
                Err(err)
            }
        }
    }

    /// Blocks until the reply for `id` arrives, the connection fails,
    /// or the transport's read deadline expires. Each id completes
    /// exactly once; waiting twice on the same id is an error.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] past the deadline (the abandoned reply is
    /// discarded on arrival), the connection's fan-out error if the
    /// stream died, or [`NetError::Protocol`] for an unknown id.
    pub fn wait(&self, id: u64) -> Result<Reply, NetError> {
        let deadline = self.wait_timeout.map(|t| Instant::now() + t);
        let mut state = self
            .pending
            .state
            .lock()
            .map_err(|_| NetError::Protocol("pipeline state poisoned".into()))?;
        loop {
            match state.slots.get(&id) {
                Some(slot) if slot.result.is_some() => {
                    let slot = state.slots.remove(&id).expect("checked above");
                    let payload = slot.result.expect("checked above");
                    drop(state);
                    return wire::decode_reply(&payload)
                        .map_err(|e| NetError::Protocol(format!("undecodable reply: {e}")));
                }
                Some(_) => {
                    if let Some(dead) = state.dead.clone() {
                        state.slots.remove(&id);
                        return Err(dead);
                    }
                }
                None => {
                    return Err(match &state.dead {
                        Some(dead) => dead.clone(),
                        None => NetError::Protocol(format!("unknown pipeline request id {id}")),
                    });
                }
            }
            state = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        // Abandon the slot; if the reply still shows
                        // up the reader drops it as an orphan.
                        state.slots.remove(&id);
                        drbac_obs::static_counter!("drbac.net.tcp.deadline.count").inc();
                        return Err(NetError::Timeout(self.to.clone()));
                    }
                    let (state, _) = self
                        .pending
                        .cv
                        .wait_timeout(state, deadline - now)
                        .map_err(|_| NetError::Protocol("pipeline state poisoned".into()))?;
                    state
                }
                None => self
                    .pending
                    .cv
                    .wait(state)
                    .map_err(|_| NetError::Protocol("pipeline state poisoned".into()))?,
            };
        }
    }

    /// Send one request and block for its reply. Other threads sharing
    /// this client still pipeline around the wait.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send) and [`wait`](Self::wait).
    pub fn call(&self, req: &Request) -> Result<Reply, NetError> {
        let id = self.send(req)?;
        self.wait(id)
    }

    /// Fails every current and future request with `err`.
    fn fail(&self, err: NetError) {
        if let Ok(mut state) = self.pending.state.lock() {
            if state.dead.is_none() {
                state.dead = Some(err);
            }
        }
        self.pending.cv.notify_all();
    }

    /// Closes the connection and joins the reader. In-flight waiters
    /// receive a connection error. Idempotent; `Drop` calls this.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.reader.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for PipelinedClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// Reader half of a [`PipelinedClient`]: matches reply frames to
/// pending slots by request id. Replies for ids nobody waits on any
/// more (a timed-out waiter abandoned the slot) are dropped and
/// counted in `drbac.net.tcp.pipeline.orphan.count` — they are not an
/// error, just late. A read failure fans out to every waiter.
fn pipeline_reader(stream: TcpStream, pending: Arc<PendingMap>, to: WalletAddr) {
    // Buffered reads: the daemon's writer pump flushes reply batches,
    // so one syscall here collects many replies.
    let mut stream = std::io::BufReader::with_capacity(64 * 1024, stream);
    let mut batch: Vec<wire::Frame> = Vec::new();
    loop {
        let frame = match wire::read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) => {
                let err = map_wire_error(e, &to);
                if let Ok(mut state) = pending.state.lock() {
                    if state.dead.is_none() {
                        state.dead = Some(err);
                    }
                }
                pending.cv.notify_all();
                return;
            }
        };
        // Drain every further reply that is already completely buffered,
        // then settle the whole batch under one lock with one wakeup.
        batch.push(frame);
        loop {
            let buf = stream.buffer();
            match wire::buffered_frame_len(buf) {
                Some(total) if buf.len() >= total => match wire::read_frame(&mut stream) {
                    Ok(f) => batch.push(f),
                    Err(_) => break,
                },
                _ => break,
            }
        }
        drbac_obs::static_counter!("drbac.net.tcp.frame.rx.count").add(batch.len() as u64);
        let Ok(mut state) = pending.state.lock() else {
            return;
        };
        let mut settled = false;
        for frame in batch.drain(..) {
            let (Some(id), FrameKind::Reply) = (frame.request_id, frame.kind) else {
                // Id-less or non-reply frames don't belong on a pipelined
                // connection; ignore rather than kill live requests.
                continue;
            };
            match state.slots.get_mut(&id) {
                Some(slot) => {
                    drbac_obs::static_histogram!("drbac.net.tcp.request.ns")
                        .record(slot.sent.elapsed().as_nanos() as u64);
                    slot.result = Some(frame.payload);
                    settled = true;
                }
                None => {
                    drbac_obs::static_counter!("drbac.net.tcp.pipeline.orphan.count").inc();
                }
            }
        }
        drop(state);
        if settled {
            pending.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unroutable_address_is_unknown_host() {
        let t = TcpTransport::new(TcpConfig::fast());
        let err = t
            .request(&"not-an-endpoint".into(), Request::FetchDeclarations)
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownHost(_)));
        assert!(!err.is_retryable());
    }

    #[test]
    fn dead_endpoint_is_host_down() {
        let t = TcpTransport::new(TcpConfig::fast());
        // Bind-then-drop guarantees a port with no listener.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = t
            .request(
                &format!("127.0.0.1:{port}").as_str().into(),
                Request::FetchDeclarations,
            )
            .unwrap_err();
        assert!(matches!(err, NetError::HostDown(_)));
        assert!(err.is_retryable());
    }

    #[test]
    fn backoff_really_sleeps() {
        let mut cfg = TcpConfig::fast();
        cfg.tick = Duration::from_millis(10);
        let t = TcpTransport::new(cfg);
        let start = std::time::Instant::now();
        t.backoff(Ticks(2));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn backoff_is_capped() {
        let mut cfg = TcpConfig::fast();
        cfg.tick = Duration::from_millis(10);
        cfg.max_backoff = Duration::from_millis(20);
        let t = TcpTransport::new(cfg);
        let start = std::time::Instant::now();
        t.backoff(Ticks(u64::MAX));
        assert!(start.elapsed() < Duration::from_secs(2));
    }
}
