//! TCP wallet daemon and the persistent subscriber connection.
//!
//! [`WalletDaemon`] is the socket-facing counterpart of the simulator's
//! [`WalletHost`](crate::WalletHost): the same host functions answer one
//! wallet's [`Request`]/[`Reply`](crate::proto::Reply) protocol, here
//! over [`wire`](crate::wire) frames. Since the multiplexing rewrite
//! (DESIGN.md §4.10, `docs/PROTOCOL.md`) the hot path is built for
//! heavy traffic instead of thread-per-connection request/reply:
//!
//! * **Bounded worker pool.** Pipelined requests (those carrying a
//!   request id) are decoded and executed by a fixed pool of
//!   [`DaemonConfig::workers`] threads fed from one bounded job queue —
//!   connection count no longer dictates handler concurrency.
//! * **One reader per connection; a writer pump only for push links.**
//!   Each accepted connection gets a reader thread (frames in). Every
//!   reply is written by the thread that produced it — the reader for
//!   strict replies and overload notices, a worker for runs of pipelined
//!   replies — through one `BufWriter` behind a mutex whose holder
//!   first writes any queued pushes, then its own frames, and flushes
//!   before releasing, so consecutive frames coalesce into few
//!   syscalls (`drbac.net.tcp.write.coalesced.count`) and leave in the
//!   order the daemon produced them. Only a connection that
//!   push-registers gets a second thread, a writer pump that carries
//!   pushes while no reply is on its way.
//! * **Explicit backpressure.** A connection may have at most
//!   [`DaemonConfig::max_inflight`] pipelined requests outstanding and
//!   the daemon at most [`DaemonConfig::queue_capacity`] queued jobs;
//!   beyond either bound the daemon answers
//!   [`Reply::overloaded`](crate::proto::Reply::overloaded) immediately
//!   (`drbac.net.tcp.overload.count`) instead of queueing silently.
//!   Beyond [`DaemonConfig::max_connections`] concurrent connections,
//!   new accepts are closed on arrival
//!   (`drbac.net.tcp.conn.rejected.count`).
//! * **Strict requests stay inline.** A request without a request id
//!   is served on the reader thread, in order, and answered by a reply
//!   without one — the cheaper round trip for a lone request. Only
//!   requests with an id enter the worker pool. See `docs/PROTOCOL.md`
//!   §5.
//!
//! Delegation-subscription pushes (paper §4.2.2) travel over a
//! *persistent subscriber connection*: a client opens a dedicated
//! stream, sends a push-register frame naming its wallet address, and
//! the daemon queues [`OneWay::Invalidate`] frames for that stream
//! whenever a delegation the client subscribed to is invalidated, by
//! whatever path (the push links are the sink its subscription holds in
//! the wallet). The writer pump the register started, or a reply
//! written first, takes them under the socket lock — pushes and replies
//! on one connection never interleave mid-frame, and a push queued
//! while a request was served precedes that request's reply.
//!
//! [`SubscriberLink`] is the client side of that connection. When the
//! daemon dies mid-subscription the link notices (read error),
//! reconnects with backoff, re-registers, and **resubscribes** every
//! cached credential from that home — the same revalidation routine
//! as the simulator's `resubscribe_cached`: a daemon's subscriptions
//! are volatile, so a daemon restart silently unsubscribed us, and any
//! invalidation issued before we re-register would otherwise be lost.
//! Each recovery increments `drbac.net.tcp.reconnect.count`.
//!
//! Shutdown joins every pump and worker: sockets are shut down to
//! unblock readers, queues are closed to unblock writer pumps and workers,
//! and remaining threads are joined under
//! [`DaemonConfig::shutdown_deadline`]. A thread still live past the
//! deadline (e.g. wedged in a blocking syscall a peer refuses to
//! complete) is abandoned and counted in
//! `drbac.net.tcp.shutdown.abandoned.count` — shutdown always returns.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt::Display;
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drbac_core::{DelegationId, WalletAddr};
use drbac_wallet::{CacheEntry, DelegationEvent, PushSink, Wallet};
use parking_lot::Mutex;

use crate::host;
use crate::proto::{HealthReport, OneWay, Reply, Request};
use crate::sim::NetError;
use crate::tcp::{TcpConfig, TcpTransport};
use crate::transport::{RetryPolicy, Transport};
use crate::wire::{self, FrameKind, TraceContext};

/// Front-door sizing and backpressure knobs for [`WalletDaemon`].
///
/// The tuning guidance — what to raise first under reconnect storms,
/// overload replies, or stale pools — lives in `docs/OPERATIONS.md`.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads executing pipelined requests (those carrying a
    /// request id). `0`
    /// means auto: one per available core (minimum 1).
    pub workers: usize,
    /// Global cap on concurrent connections; accepts beyond it are
    /// closed immediately (`drbac.net.tcp.conn.rejected.count`).
    pub max_connections: usize,
    /// Per-connection cap on outstanding pipelined requests; the
    /// excess gets an immediate overload reply.
    pub max_inflight: usize,
    /// Bound on the global pending-job queue; when full, new pipelined
    /// requests get an immediate overload reply.
    pub queue_capacity: usize,
    /// How long [`WalletDaemon::shutdown`] waits for pumps and workers
    /// to join before abandoning stragglers.
    pub shutdown_deadline: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 0,
            max_connections: 1024,
            max_inflight: 128,
            queue_capacity: 4096,
            shutdown_deadline: Duration::from_secs(5),
        }
    }
}

impl DaemonConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        // One worker per core. On a single-core host a second worker
        // never runs concurrently anyway — it only adds wakeups that
        // find an empty queue and splits request batches in half.
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(1)
    }

    /// Push-queue bound: headroom for pushes to a slow subscriber
    /// before the daemon gives up on the link.
    fn out_capacity(&self) -> usize {
        (2 * self.max_inflight + 16).max(64)
    }
}

/// One frame on its way to a connection's socket.
struct OutFrame {
    kind: FrameKind,
    /// `Some` → the frame echoes this request id (replies to pipelined
    /// requests); `None` → strict replies and pushes.
    request_id: Option<u64>,
    payload: Vec<u8>,
}

/// State of one accepted connection, shared between its reader, the
/// worker pool, the push fan-out and — once the connection
/// push-registers — its writer pump.
struct Conn {
    id: u64,
    /// Pushes awaiting the socket. Whichever thread next holds `sock`
    /// writes them first; the writer pump exists to take them when no
    /// reply is on its way.
    out: StdMutex<OutState>,
    out_cv: Condvar,
    out_capacity: usize,
    /// The buffered write half of the socket. The reader (strict and
    /// overload replies), workers (pipelined replies) and the writer
    /// pump take this lock per batch and empty `out` ahead of their own
    /// frames while holding it, so frames leave in the order the daemon
    /// produced them; every holder flushes before releasing, so the
    /// buffer never carries another thread's partial frames.
    sock: StdMutex<Option<BufWriter<TcpStream>>>,
    /// Outstanding pipelined requests (incremented at admission,
    /// decremented when the reply is written).
    inflight: AtomicUsize,
}

struct OutState {
    items: VecDeque<OutFrame>,
    closed: bool,
}

impl Conn {
    fn new(id: u64, out_capacity: usize, write_half: TcpStream) -> Conn {
        Conn {
            id,
            out: StdMutex::new(OutState {
                items: VecDeque::new(),
                closed: false,
            }),
            out_cv: Condvar::new(),
            out_capacity,
            sock: StdMutex::new(Some(BufWriter::with_capacity(64 * 1024, write_half))),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Writes any queued pushes, then `frames`, straight to the socket
    /// and flushes — on the calling thread, with no handoff. `false`
    /// when the connection is gone or the write fails; failure shuts
    /// the socket down and closes the push queue so the connection's
    /// threads unwind.
    fn write_now(&self, frames: impl IntoIterator<Item = OutFrame>) -> bool {
        let Ok(mut sock) = self.sock.lock() else {
            return false;
        };
        let Some(writer) = sock.as_mut() else {
            return false;
        };
        // Taken under `sock`: a push queued before this point leaves
        // ahead of the frames produced after it.
        let queued = match self.out.lock() {
            Ok(mut state) => std::mem::take(&mut state.items),
            Err(_) => VecDeque::new(),
        };
        let mut tx: u64 = 0;
        let mut push_tx: u64 = 0;
        let mut healthy = true;
        for frame in queued.into_iter().chain(frames) {
            let written = match frame.request_id {
                Some(id) => wire::write_frame_mux(writer, frame.kind, &frame.payload, id, None),
                None => wire::write_frame(writer, frame.kind, &frame.payload),
            };
            if written.is_err() {
                healthy = false;
                break;
            }
            match frame.kind {
                FrameKind::Push => push_tx += 1,
                _ => tx += 1,
            }
        }
        let sent = tx + push_tx;
        if healthy {
            healthy = writer.flush().is_ok();
        }
        if tx > 0 {
            drbac_obs::static_counter!("drbac.net.tcp.frame.tx.count").add(tx);
        }
        if push_tx > 0 {
            drbac_obs::static_counter!("drbac.net.tcp.push.tx.count").add(push_tx);
        }
        if sent > 1 {
            drbac_obs::static_counter!("drbac.net.tcp.write.coalesced.count").add(sent - 1);
        }
        if !healthy {
            // The peer stopped reading: drop the write half and unblock
            // the reader and writer pump.
            let _ = writer.get_ref().shutdown(Shutdown::Both);
            *sock = None;
            drop(sock);
            self.close_out();
            return false;
        }
        true
    }

    /// Queues a push for the next holder of `sock`. `false` when the
    /// connection is closed or its push queue is full — the frame was
    /// dropped. Only [`PushLinks::push`] calls this: replies are
    /// written by the thread that produced them.
    fn send(&self, frame: OutFrame) -> bool {
        let mut state = match self.out.lock() {
            Ok(s) => s,
            Err(_) => return false,
        };
        if state.closed || state.items.len() >= self.out_capacity {
            return false;
        }
        state.items.push_back(frame);
        self.out_cv.notify_one();
        true
    }

    /// Closes the push queue; the writer pump exits after writing what
    /// it already holds.
    fn close_out(&self) {
        if let Ok(mut state) = self.out.lock() {
            state.closed = true;
        }
        self.out_cv.notify_all();
    }

    /// Blocks until a push is queued; `false` once the queue is closed
    /// and empty. The caller takes the pushes under `sock`
    /// ([`Conn::write_now`]), not here.
    fn wait_queued(&self) -> bool {
        let Ok(mut state) = self.out.lock() else {
            return false;
        };
        loop {
            if !state.items.is_empty() {
                return true;
            }
            if state.closed {
                return false;
            }
            state = match self.out_cv.wait(state) {
                Ok(s) => s,
                Err(_) => return false,
            };
        }
    }
}

/// A decoded-but-unexecuted pipelined request, queued for the worker
/// pool.
struct Job {
    conn: Arc<Conn>,
    request_id: u64,
    payload: Vec<u8>,
    trace: Option<TraceContext>,
    rx: Instant,
}

/// The global bounded job queue feeding the worker pool.
struct JobQueue {
    state: StdMutex<JobState>,
    cv: Condvar,
    capacity: usize,
}

struct JobState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: StdMutex::new(JobState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Admits as many of `batch` as capacity allows in one lock and one
    /// wakeup, returning how many were taken (the caller owes overload
    /// replies for the rest). Zero when the queue is closed.
    fn push_batch(&self, batch: &mut Vec<Job>) -> usize {
        let Ok(mut state) = self.state.lock() else {
            return 0;
        };
        if state.closed {
            return 0;
        }
        let room = self.capacity.saturating_sub(state.jobs.len());
        let take = room.min(batch.len());
        state.jobs.extend(batch.drain(..take));
        drbac_obs::static_gauge!("drbac.net.tcp.queue.depth").set(state.jobs.len() as i64);
        drop(state);
        // Wake one worker per WORKER_BATCH of new work: a worker drains
        // up to that many jobs in one pop, so waking the whole pool for
        // a small batch just schedules threads that find an empty queue.
        // (A missed wakeup is impossible — workers re-check the queue
        // before waiting.)
        for _ in 0..take.div_ceil(WORKER_BATCH) {
            self.cv.notify_one();
        }
        take
    }

    /// Blocks for work, then takes up to `max` queued jobs in one
    /// lock: a worker serving a burst back-to-back skips the per-job
    /// wakeup round trip and can batch its replies per connection.
    /// `None` once the queue is closed and drained.
    fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut state = self.state.lock().ok()?;
        loop {
            if !state.jobs.is_empty() {
                let n = state.jobs.len().min(max);
                return Some(state.jobs.drain(..n).collect());
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait(state).ok()?;
        }
    }

    fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.cv.notify_all();
    }
}

/// Subscriber wallet address → the connection its pushes travel on: the
/// sink the daemon's subscriptions hold in the wallet.
#[derive(Default)]
struct PushLinks(Mutex<HashMap<WalletAddr, Arc<Conn>>>);

impl PushSink for PushLinks {
    /// Queues `event` as a push frame on every target's connection. A
    /// link whose queue is closed or full is dropped — the subscriber's
    /// [`SubscriberLink`] will reconnect and resubscribe, recovering
    /// anything it missed by revalidation.
    fn push(&self, event: DelegationEvent, targets: BTreeSet<WalletAddr>) {
        let payload = wire::encode_push(&OneWay::Invalidate(event));
        for target in targets {
            let link = self.0.lock().get(&target).cloned();
            let Some(link) = link else { continue };
            let queued = link.send(OutFrame {
                kind: FrameKind::Push,
                request_id: None,
                payload: payload.clone(),
            });
            if !queued {
                self.0.lock().remove(&target);
            }
        }
    }
}

/// State shared between the accept loop, pumps, workers, and the
/// daemon handle.
struct DaemonShared {
    wallet: Wallet,
    config: DaemonConfig,
    links: Arc<PushLinks>,
    /// Live connections: socket handle (for shutdown) + state.
    conns: Mutex<HashMap<u64, (TcpStream, Arc<Conn>)>>,
    /// Pending pipelined requests for the worker pool.
    jobs: JobQueue,
    /// Pump/worker threads still running (readers, writers, workers).
    live: AtomicUsize,
    /// Join handles for everything `live` counts. Finished handles are
    /// reaped opportunistically so the vec stays proportional to live
    /// connections, not lifetime accepts.
    threads: Mutex<Vec<JoinHandle<()>>>,
    closed: AtomicBool,
    /// When the daemon started accepting (for health uptime).
    start: Instant,
    /// Requests served since start (all kinds).
    served: AtomicU64,
}

impl DaemonShared {
    /// Handles one request: the scrapes need this process's uptime,
    /// request and link counts; everything else is the host's.
    fn handle(&self, req: Request) -> Reply {
        match req {
            Request::Stats => Reply::Stats(drbac_obs::global().snapshot()),
            Request::Health => Reply::Health(HealthReport {
                ok: !self.closed.load(Ordering::SeqCst),
                wallet: self.wallet.addr().to_string(),
                uptime_ns: self.start.elapsed().as_nanos() as u64,
                delegations: self.wallet.len() as u64,
                subscribers: self.links.0.lock().len() as u64,
                served_requests: self.served.load(Ordering::Relaxed),
            }),
            req => host::handle(&self.wallet, &self.links, req),
        }
    }

    /// Decodes and executes one request payload: trace adoption, serve
    /// span, served accounting, and the service-time histogram
    /// (frame-rx → reply-encoded; the async write is not included).
    fn serve(&self, payload: &[u8], trace: Option<TraceContext>, rx: Instant) -> Reply {
        if let Some(ctx) = trace {
            drbac_obs::set_current_trace(ctx.trace_id, ctx.parent_span);
        }
        let reply = match wire::decode_request(payload) {
            Ok(req) => {
                let span = drbac_obs::span!(
                    "drbac.net.tcp.serve",
                    "req" => req.kind(),
                );
                let reply = self.handle(req);
                drop(span);
                reply
            }
            Err(e) => Reply::undecodable_request(&e),
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        drbac_obs::static_histogram!("drbac.net.tcp.service.ns")
            .record(rx.elapsed().as_nanos() as u64);
        drbac_obs::clear_current_trace();
        reply
    }

    /// Spawns a tracked thread: counted in `live`, handle registered
    /// for shutdown join, finished handles reaped on the way in.
    fn spawn_tracked(
        self: &Arc<Self>,
        name: String,
        f: impl FnOnce() + Send + 'static,
    ) -> io::Result<()> {
        self.live.fetch_add(1, Ordering::SeqCst);
        let guard_shared = Arc::clone(self);
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            struct LiveGuard(Arc<DaemonShared>);
            impl Drop for LiveGuard {
                fn drop(&mut self) {
                    self.0.live.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let _guard = LiveGuard(guard_shared);
            f();
        });
        match spawned {
            Ok(handle) => {
                let mut threads = self.threads.lock();
                threads.retain(|t| !t.is_finished());
                threads.push(handle);
                Ok(())
            }
            Err(e) => {
                self.live.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }
}

/// A multiplexed TCP daemon serving one wallet.
///
/// ```no_run
/// # use drbac_net::{WalletDaemon, TcpConfig};
/// # use drbac_wallet::Wallet;
/// # use drbac_core::SimClock;
/// let wallet = Wallet::new("coalition.example:7070", SimClock::new());
/// let daemon = WalletDaemon::bind("127.0.0.1:7070", wallet, TcpConfig::default()).unwrap();
/// println!("serving on {}", daemon.local_addr());
/// # daemon.shutdown();
/// ```
pub struct WalletDaemon {
    shared: Arc<DaemonShared>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for WalletDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalletDaemon")
            .field("local_addr", &self.local_addr)
            .field("wallet", self.wallet().addr())
            .finish()
    }
}

impl WalletDaemon {
    /// Binds `listen` (e.g. `127.0.0.1:7070`, or port `0` for an
    /// ephemeral test port) and starts serving `wallet` with the
    /// default [`DaemonConfig`].
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the listener cannot bind.
    pub fn bind(
        listen: impl ToSocketAddrs,
        wallet: Wallet,
        config: TcpConfig,
    ) -> io::Result<WalletDaemon> {
        Self::bind_with(listen, wallet, config, DaemonConfig::default())
    }

    /// Binds with explicit front-door sizing (workers, connection cap,
    /// in-flight cap, queue bound — see [`DaemonConfig`]).
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the listener cannot bind or the worker pool
    /// cannot spawn.
    pub fn bind_with(
        listen: impl ToSocketAddrs,
        wallet: Wallet,
        tcp: TcpConfig,
        daemon: DaemonConfig,
    ) -> io::Result<WalletDaemon> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let workers = daemon.effective_workers();
        let shared = Arc::new(DaemonShared {
            wallet,
            jobs: JobQueue::new(daemon.queue_capacity),
            config: daemon,
            links: Arc::default(),
            conns: Mutex::new(HashMap::new()),
            live: AtomicUsize::new(0),
            threads: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            start: Instant::now(),
            served: AtomicU64::new(0),
        });
        for w in 0..workers {
            let worker_shared = Arc::clone(&shared);
            shared.spawn_tracked(format!("drbac-daemon-worker-{w}"), move || {
                worker_loop(worker_shared)
            })?;
        }
        let accept_shared = Arc::clone(&shared);
        let write_timeout = tcp.write_timeout;
        let accept_thread = std::thread::Builder::new()
            .name(format!("drbac-daemon-{local_addr}"))
            .spawn(move || accept_loop(listener, accept_shared, write_timeout))?;
        drbac_obs::event!(
            "drbac.net.tcp.daemon.start",
            "addr" => local_addr.to_string(),
        );
        Ok(WalletDaemon {
            shared,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound socket address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The served wallet (shared state).
    pub fn wallet(&self) -> &Wallet {
        &self.shared.wallet
    }

    /// Subscriber wallet addresses registered for `id` through this daemon.
    pub fn subscribers_of(&self, id: DelegationId) -> BTreeSet<WalletAddr> {
        self.shared
            .wallet
            .remote_subscribers(id, &*self.shared.links)
    }

    /// Live pump/worker threads (for shutdown-accounting tests).
    pub fn live_threads(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes every open connection, joins the worker
    /// pool and all per-connection pumps (abandoning any thread still
    /// wedged past [`DaemonConfig::shutdown_deadline`]). Idempotent.
    pub fn shutdown(&self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(500));
        // Stop the worker pool: no new jobs, queued jobs abandoned.
        self.shared.jobs.close();
        self.shared.links.0.lock().clear();
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        // Close live connections (shutdown unblocks readers, queue
        // close unblocks writers), re-draining until every pump exits:
        // a connection accepted in the shutdown race appears late.
        let deadline = Instant::now() + self.shared.config.shutdown_deadline;
        loop {
            for (_, (stream, conn)) in self.shared.conns.lock().drain() {
                let _ = stream.shutdown(Shutdown::Both);
                conn.close_out();
            }
            if self.shared.live.load(Ordering::SeqCst) == 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let abandoned = self.shared.live.load(Ordering::SeqCst);
        let mut threads = self.shared.threads.lock();
        if abandoned == 0 {
            for t in threads.drain(..) {
                let _ = t.join();
            }
        } else {
            // Deadline-close: the sockets are already shut down; a
            // thread still live is wedged in a call only its peer can
            // complete. Abandon it rather than hang shutdown.
            drbac_obs::static_counter!("drbac.net.tcp.shutdown.abandoned.count")
                .add(abandoned as u64);
            threads.clear();
        }
        drop(threads);
        drbac_obs::event!(
            "drbac.net.tcp.daemon.stop",
            "addr" => self.local_addr.to_string(),
        );
    }
}

impl Drop for WalletDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How many jobs one worker takes from the queue per wakeup. Bounds
/// the head-of-line delay a deep burst imposes on jobs behind it while
/// still amortizing the queue and writer wakeups across the run.
const WORKER_BATCH: usize = 32;

/// Executes pipelined requests from the shared job queue until the
/// queue closes at shutdown. Jobs are taken in batches, their replies
/// grouped per connection and written straight to each socket — one
/// lock, one flush per run, no handoff.
fn worker_loop(shared: Arc<DaemonShared>) {
    while let Some(jobs) = shared.jobs.pop_batch(WORKER_BATCH) {
        // Serve in arrival order, grouping replies per connection.
        // A burst is usually one connection's window, so the grouping
        // degenerates to a single batched write.
        let mut runs: Vec<(Arc<Conn>, Vec<OutFrame>)> = Vec::new();
        for job in jobs {
            let reply = shared.serve(&job.payload, job.trace, job.rx);
            let frame = OutFrame {
                kind: FrameKind::Reply,
                request_id: Some(job.request_id),
                payload: wire::encode_reply(&reply),
            };
            match runs.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &job.conn)) {
                Some((_, frames)) => frames.push(frame),
                None => runs.push((job.conn, vec![frame])),
            }
        }
        for (conn, frames) in runs {
            let n = frames.len();
            // A batch that cannot be written means the connection died;
            // the client will observe the close and resubmit elsewhere.
            let _ = conn.write_now(frames);
            conn.inflight.fetch_sub(n, Ordering::SeqCst);
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<DaemonShared>,
    write_timeout: Option<Duration>,
) {
    let mut next_conn_id: u64 = 0;
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        drbac_obs::static_counter!("drbac.net.tcp.accept.count").inc();
        if shared.conns.lock().len() >= shared.config.max_connections {
            // Over the connection cap: close immediately. We cannot
            // send an overload reply before reading a request, and
            // reading would hold the very resources the cap protects.
            drbac_obs::static_counter!("drbac.net.tcp.conn.rejected.count").inc();
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        // Serving reads block indefinitely (idle pooled client
        // connections stay alive); writes keep the configured deadline
        // so one stuck peer cannot wedge the thread writing to it.
        let _ = stream.set_read_timeout(None);
        let _ = stream.set_write_timeout(write_timeout);
        let _ = stream.set_nodelay(true);
        next_conn_id += 1;
        let (Ok(write_half), Ok(shutdown_handle)) = (stream.try_clone(), stream.try_clone())
        else {
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        let conn = Arc::new(Conn::new(
            next_conn_id,
            shared.config.out_capacity(),
            write_half,
        ));
        shared
            .conns
            .lock()
            .insert(conn.id, (shutdown_handle, Arc::clone(&conn)));
        let reader_shared = Arc::clone(&shared);
        let reader_conn = Arc::clone(&conn);
        let reader_ok = shared
            .spawn_tracked("drbac-daemon-read".into(), move || {
                reader_pump(stream, reader_conn, reader_shared)
            })
            .is_ok();
        if !reader_ok {
            shared.conns.lock().remove(&conn.id);
            conn.close_out();
        }
    }
}

/// Writes the pushes queued on a push-registered connection while no
/// reply is on its way to carry them — spawned at the connection's
/// first push-register, so a connection that never registers costs one
/// thread, its reader.
fn writer_pump(conn: Arc<Conn>) {
    while conn.wait_queued() {
        if !conn.write_now(std::iter::empty()) {
            // write_now already shut the socket down and closed the
            // queue; nothing left to write.
            return;
        }
    }
    // Queue closed cleanly; write_now leaves the stream flushed.
}

/// Reads frames off one connection until the peer hangs up, a frame is
/// malformed, or the daemon shuts down. Never panics on bad input — a
/// protocol violation just drops the connection.
///
/// Requests without an id are served inline here and their replies
/// written from this thread (strict request/reply order); requests with
/// an id are admitted against the in-flight and queue bounds and handed
/// to the worker pool, and the overload replies for those refused are
/// written from here too.
fn reader_pump(stream: TcpStream, conn: Arc<Conn>, shared: Arc<DaemonShared>) {
    // Buffered reads: one syscall slurps every frame a pipelining
    // client flushed in a batch, instead of 2+ syscalls per frame.
    let mut reader = io::BufReader::with_capacity(64 * 1024, stream);
    // The wallet address this connection push-registered, if any.
    let mut registered: Option<WalletAddr> = None;
    // Whether this connection's writer pump is running (spawned at the
    // first push-register).
    let mut pump = false;
    // Pipelined jobs accumulated across one drain of the read buffer,
    // admitted to the worker queue in a single lock + wakeup.
    let mut jobs: Vec<Job> = Vec::new();
    // Overload replies owed from the same drain, written in one batch.
    let mut overloads: Vec<OutFrame> = Vec::new();
    // Frames of one drain of the read buffer.
    let mut batch: Vec<wire::Frame> = Vec::new();
    'conn: loop {
        let read = wire::read_frames(&mut reader, WORKER_BATCH, &mut batch);
        if shared.closed.load(Ordering::SeqCst) {
            break 'conn;
        }
        let rx_count = batch.len() as u64;
        let mut mux_count: u64 = 0;
        // A frame that failed to read leaves the stream unusable; the
        // frames before it are still served.
        let mut dead = read.is_err();
        for frame in batch.drain(..) {
            match frame.kind {
                FrameKind::Request => match frame.request_id {
                    Some(request_id) => {
                        mux_count += 1;
                        // Backpressure: per-connection in-flight cap, then
                        // the global queue bound. Either rejection is an
                        // immediate overload reply, never a silent queue.
                        if conn.inflight.load(Ordering::SeqCst) >= shared.config.max_inflight {
                            overloads.push(overload(request_id, "per-connection in-flight cap"));
                            continue;
                        }
                        conn.inflight.fetch_add(1, Ordering::SeqCst);
                        jobs.push(Job {
                            conn: Arc::clone(&conn),
                            request_id,
                            payload: frame.payload,
                            trace: frame.trace,
                            rx: Instant::now(),
                        });
                    }
                    None => {
                        // Strict request/reply: serve inline on this thread
                        // so replies keep arrival order, and write the reply
                        // from here — behind any pushes the request itself
                        // queued on this connection.
                        let reply = shared.serve(&frame.payload, frame.trace, Instant::now());
                        let written = conn.write_now([OutFrame {
                            kind: FrameKind::Reply,
                            request_id: None,
                            payload: wire::encode_reply(&reply),
                        }]);
                        if !written {
                            dead = true;
                            break;
                        }
                    }
                },
                FrameKind::PushRegister => {
                    let Ok(subscriber) = wire::decode_push_register(&frame.payload) else {
                        dead = true;
                        break;
                    };
                    // Pushes may now arrive while no reply is on its way
                    // to carry them: start the pump before the link is
                    // visible to the fan-out.
                    if !pump {
                        let pump_conn = Arc::clone(&conn);
                        let spawned = shared
                            .spawn_tracked("drbac-daemon-write".into(), move || {
                                writer_pump(pump_conn)
                            });
                        if spawned.is_err() {
                            dead = true;
                            break;
                        }
                        pump = true;
                    }
                    (shared.links.0.lock()).insert(subscriber.clone(), Arc::clone(&conn));
                    registered = Some(subscriber);
                }
                // Clients never push to the daemon; replies make no sense
                // inbound. Treat as a protocol violation and hang up.
                FrameKind::Push | FrameKind::Reply => {
                    dead = true;
                    break;
                }
            }
        }
        drbac_obs::static_counter!("drbac.net.tcp.frame.rx.count").add(rx_count);
        if mux_count > 0 {
            drbac_obs::static_counter!("drbac.net.tcp.mux.rx.count").add(mux_count);
        }
        if !jobs.is_empty() {
            shared.jobs.push_batch(&mut jobs);
            // Whatever the queue had no room for is still in `jobs`.
            for job in jobs.drain(..) {
                job.conn.inflight.fetch_sub(1, Ordering::SeqCst);
                overloads.push(overload(job.request_id, "job queue full"));
            }
        }
        if !overloads.is_empty() {
            drbac_obs::static_counter!("drbac.net.tcp.overload.count").add(overloads.len() as u64);
            if !conn.write_now(overloads.drain(..)) {
                dead = true;
            }
        }
        if dead {
            break 'conn;
        }
    }
    // Deregister our push link, but only if the registry still holds
    // *this* connection — a reconnected subscriber may have already
    // replaced it.
    if let Some(subscriber) = registered {
        let mut links = shared.links.0.lock();
        if links
            .get(&subscriber)
            .is_some_and(|c| Arc::ptr_eq(c, &conn))
        {
            links.remove(&subscriber);
        }
    }
    shared.conns.lock().remove(&conn.id);
    conn.close_out();
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// The overload reply refusing pipelined request `request_id`.
fn overload(request_id: u64, what: &str) -> OutFrame {
    OutFrame {
        kind: FrameKind::Reply,
        request_id: Some(request_id),
        payload: wire::encode_reply(&Reply::overloaded(what)),
    }
}

/// Client side of the persistent push connection: registers with a
/// wallet daemon, applies incoming [`OneWay::Invalidate`] events to the
/// local wallet (so its own subscribers hear of them), and — when the
/// connection drops — reconnects, re-registers, and resubscribes every
/// tracked delegation through the revalidation routine the simulator's
/// `resubscribe_cached` runs.
pub struct SubscriberLink {
    inner: Arc<LinkInner>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

struct LinkInner {
    /// Wallet address of the daemon we subscribe at.
    home: WalletAddr,
    /// The local wallet events are applied to (and whose cached
    /// credentials are revalidated after a reconnect).
    wallet: Wallet,
    /// Transport used for resubscribe/revalidate requests and for
    /// resolving `home` to a socket address.
    transport: Arc<TcpTransport>,
    /// Delegations to resubscribe beyond what the wallet's cache
    /// records (e.g. ids a switchboard gate monitors).
    tracked: Mutex<BTreeSet<DelegationId>>,
    /// Current connection, so `close` can unblock the reader.
    current: Mutex<Option<TcpStream>>,
    closed: AtomicBool,
}

impl std::fmt::Debug for SubscriberLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriberLink")
            .field("home", &self.inner.home)
            .field("subscriber", self.inner.wallet.addr())
            .finish()
    }
}

impl SubscriberLink {
    /// Opens the persistent connection to the daemon serving `home`
    /// and starts the reader thread. Returns once the daemon has
    /// registered the link, so a push for a subscription made after
    /// this returns finds it.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the first connection cannot be established —
    /// the link does not start in a disconnected state.
    pub fn open(
        home: impl Into<WalletAddr>,
        wallet: Wallet,
        transport: Arc<TcpTransport>,
    ) -> Result<SubscriberLink, NetError> {
        let inner = Arc::new(LinkInner {
            home: home.into(),
            wallet,
            transport,
            tracked: Mutex::new(BTreeSet::new()),
            current: Mutex::new(None),
            closed: AtomicBool::new(false),
        });
        let stream = inner.establish()?;
        *inner.current.lock() = Some(stream.try_clone().map_err(|e| {
            NetError::Protocol(format!("cannot clone subscriber stream: {e}"))
        })?);
        let reader_inner = Arc::clone(&inner);
        let reader = std::thread::Builder::new()
            .name(format!("drbac-sublink-{}", inner.home))
            .spawn(move || reader_loop(stream, reader_inner))
            .map_err(|e| NetError::Protocol(format!("cannot spawn reader: {e}")))?;
        Ok(SubscriberLink {
            inner,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// The daemon-side wallet this link subscribes at.
    pub fn home(&self) -> &WalletAddr {
        &self.inner.home
    }

    /// Adds a delegation id to the resubscribe set (beyond the
    /// wallet's cached credentials), and subscribes it now.
    pub fn track(&self, id: DelegationId) {
        self.inner.tracked.lock().insert(id);
        self.inner.subscribe(id);
    }

    /// Stops the reader thread and closes the connection. Idempotent.
    pub fn close(&self) {
        if self.inner.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(stream) = self.inner.current.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.reader.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for SubscriberLink {
    fn drop(&mut self) {
        self.close();
    }
}

impl LinkInner {
    /// Connects and push-registers, returning once the daemon has the
    /// link: a strict `Health` request rides behind the register frame,
    /// and the daemon serves one connection's frames in order. Pushes
    /// ahead of its reply are applied.
    fn establish(&self) -> Result<TcpStream, NetError> {
        let fail = |e: &dyn Display| NetError::Protocol(format!("push-register failed: {e}"));
        let mut stream = self.transport.connect_raw(&self.home)?;
        // Both frames leave in one write: one segment on a no-delay
        // socket, one wakeup for the daemon's reader.
        let register = wire::encode_push_register(self.wallet.addr());
        let health = wire::encode_request(&Request::Health);
        let mut frames = Vec::new();
        wire::write_frame(&mut frames, FrameKind::PushRegister, &register)
            .and_then(|()| wire::write_frame(&mut frames, FrameKind::Request, &health))
            .map_err(|e| fail(&e))?;
        stream.write_all(&frames).map_err(|e| fail(&e))?;
        // Under the transport's read deadline: a daemon that never
        // answers fails the attempt.
        loop {
            let frame = wire::read_frame(&mut stream).map_err(|e| fail(&e))?;
            match frame.kind {
                FrameKind::Push => self.apply(&frame.payload),
                FrameKind::Reply => break,
                _ => {}
            }
        }
        // Push frames arrive whenever the daemon has something to say;
        // the reader must block past any read deadline.
        stream.set_read_timeout(None).map_err(|e| fail(&e))?;
        Ok(stream)
    }

    /// Applies one push frame's invalidation to the wallet; an
    /// undecodable one is dropped.
    fn apply(&self, payload: &[u8]) {
        if let Ok(OneWay::Invalidate(event)) = wire::decode_push(payload) {
            drbac_obs::static_counter!("drbac.net.tcp.push.rx.count").inc();
            self.wallet.push_event(event);
        }
    }

    /// Registers this link's wallet as a subscriber of `id` at `home`.
    fn subscribe(&self, id: DelegationId) {
        let _ = RetryPolicy::standard().run(
            self.transport.as_ref(),
            &self.home,
            &Request::Subscribe {
                delegation: id,
                subscriber: self.wallet.addr().clone(),
            },
        );
    }

    /// Re-registers every subscription this link is responsible for —
    /// explicitly tracked ids plus cached credentials sourced from
    /// `home` — and revalidates each cached credential. Entries the
    /// home disowns are invalidated locally (the push we missed while
    /// disconnected is reconstructed from state, not replayed).
    fn resubscribe(&self) {
        let wallet = &self.wallet;
        let from_home = |entry: &CacheEntry| entry.source == self.home;
        // Tracked ids the cache does not hold have nothing to
        // revalidate: re-register them and move on.
        let tracked = self.tracked.lock().clone();
        for id in tracked {
            if !wallet.cache_entry(id).is_some_and(|entry| from_home(&entry)) {
                self.subscribe(id);
            }
        }
        let (transport, retry) = (self.transport.as_ref(), RetryPolicy::standard());
        host::revalidate(wallet, transport, &retry, Some(wallet.addr()), from_home);
    }
}

/// Reads push frames, applying each invalidation to the local wallet;
/// on connection loss, reconnects with backoff and resubscribes.
fn reader_loop(mut stream: TcpStream, inner: Arc<LinkInner>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(frame) if frame.kind == FrameKind::Push => inner.apply(&frame.payload),
            Ok(_) => {} // unexpected kind: ignore, keep the link up
            Err(_) => {
                if inner.closed.load(Ordering::SeqCst) {
                    return;
                }
                // Connection lost: reconnect with backoff, re-register,
                // resubscribe-and-revalidate.
                drbac_obs::static_counter!("drbac.net.tcp.reconnect.count").inc();
                drbac_obs::event!(
                    "drbac.net.tcp.reconnect",
                    "home" => inner.home.to_string(),
                    "subscriber" => inner.wallet.addr().to_string(),
                );
                let mut attempt: u64 = 0;
                let next = loop {
                    if inner.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    match inner.establish() {
                        Ok(s) => break s,
                        Err(_) => {
                            inner
                                .transport
                                .backoff(drbac_core::Ticks(1u64 << attempt.min(6)));
                            attempt += 1;
                        }
                    }
                };
                match next.try_clone() {
                    Ok(clone) => *inner.current.lock() = Some(clone),
                    Err(_) => return,
                }
                stream = next;
                inner.resubscribe();
            }
        }
    }
}
