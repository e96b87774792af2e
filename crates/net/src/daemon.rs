//! TCP wallet daemon and the persistent subscriber connection.
//!
//! [`WalletDaemon`] is the socket-facing counterpart of the simulator's
//! [`WalletHost`](crate::WalletHost): the same host core answers one
//! wallet's [`Request`]/[`Reply`](crate::proto::Reply) protocol, here
//! over [`wire`](crate::wire) frames. Since the multiplexing rewrite
//! (DESIGN.md §4.10, `docs/PROTOCOL.md`) the hot path is built for
//! heavy traffic instead of thread-per-connection request/reply:
//!
//! * **Bounded worker pool.** Pipelined (wire v3) requests are decoded
//!   and executed by a fixed pool of [`DaemonConfig::workers`] threads
//!   fed from one bounded job queue — connection count no longer
//!   dictates handler concurrency.
//! * **Per-connection read/write pumps.** Each accepted connection gets
//!   a reader thread (frames in) and a writer pump (frames out). All
//!   writes serialize through one `BufWriter` behind a mutex whose
//!   holder always flushes before releasing: workers write runs of
//!   pipelined replies directly (no handoff), while pushes, v1/v2
//!   replies, and overload notices drain through the pump — either
//!   way consecutive frames coalesce into few syscalls
//!   (`drbac.net.tcp.write.coalesced.count`).
//! * **Explicit backpressure.** A connection may have at most
//!   [`DaemonConfig::max_inflight`] pipelined requests outstanding and
//!   the daemon at most [`DaemonConfig::queue_capacity`] queued jobs;
//!   beyond either bound the daemon answers
//!   [`Reply::overloaded`](crate::proto::Reply::overloaded) immediately
//!   (`drbac.net.tcp.overload.count`) instead of queueing silently.
//!   Beyond [`DaemonConfig::max_connections`] concurrent connections,
//!   new accepts are closed on arrival
//!   (`drbac.net.tcp.conn.rejected.count`).
//! * **Version compatibility.** v1/v2 frames keep their strict
//!   request/reply semantics: they are served inline on the reader
//!   thread, in order, with byte-identical reply frames — an old peer
//!   cannot tell the daemons apart. Only v3 frames enter the
//!   multiplexed path. See `docs/PROTOCOL.md` §6 for the matrix.
//!
//! Delegation-subscription pushes (paper §4.2.2) travel over a
//! *persistent subscriber connection*: a client opens a dedicated
//! stream, sends a push-register frame naming its wallet address, and
//! the daemon writes [`OneWay::Invalidate`] frames down that stream's
//! writer pump whenever a delegation the client subscribed to is
//! invalidated — pushes and any replies on the same connection
//! serialize through the single pump, so they can never interleave
//! mid-frame.
//!
//! [`SubscriberLink`] is the client side of that connection. When the
//! daemon dies mid-subscription the link notices (read error),
//! reconnects with backoff, re-registers, and **resubscribes** every
//! cached credential from that home — the same revalidation routine
//! as the simulator's `resubscribe_cached`: the daemon's subscriber
//! registry is volatile, so a daemon restart silently unsubscribed us,
//! and any invalidation issued before we re-register would otherwise
//! be lost.
//! Each recovery increments `drbac.net.tcp.reconnect.count`.
//!
//! Shutdown joins every pump and worker: sockets are shut down to
//! unblock readers, queues are closed to unblock writers and workers,
//! and remaining threads are joined under
//! [`DaemonConfig::shutdown_deadline`]. A thread still live past the
//! deadline (e.g. wedged in a blocking syscall a peer refuses to
//! complete) is abandoned and counted in
//! `drbac.net.tcp.shutdown.abandoned.count` — shutdown always returns.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drbac_core::{DelegationId, WalletAddr};
use drbac_wallet::{DelegationEvent, Wallet};
use parking_lot::Mutex;

use crate::host::{Fanout, HostCore};
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
    /// Worker threads executing pipelined (wire v3) requests. `0`
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

    /// Writer-queue bound: replies are capped by `max_inflight`, the
    /// rest is headroom for pushes to a slow subscriber before the
    /// daemon gives up on the link.
    fn out_capacity(&self) -> usize {
        (2 * self.max_inflight + 16).max(64)
    }
}

/// One frame awaiting the connection's writer pump.
struct OutFrame {
    kind: FrameKind,
    /// `Some` → emit a wire v3 frame echoing this request id; `None` →
    /// emit a plain v1 frame (replies to v1/v2 peers, pushes).
    request_id: Option<u64>,
    payload: Vec<u8>,
}

/// State of one accepted connection, shared between its reader pump,
/// its writer pump, the worker pool, and the push fan-out.
struct Conn {
    id: u64,
    /// Outbound frames; drained in batches by the writer pump.
    out: StdMutex<OutState>,
    out_cv: Condvar,
    out_capacity: usize,
    /// The buffered write half of the socket. Both the writer pump and
    /// workers (replying directly) take this lock per batch; every
    /// holder flushes before releasing, so the buffer never carries
    /// another thread's partial frames.
    sock: StdMutex<Option<BufWriter<TcpStream>>>,
    /// Outstanding pipelined requests (incremented at admission,
    /// decremented when the reply is queued).
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

    /// Writes a batch of frames straight to the socket and flushes —
    /// the worker fast path, which skips the writer-pump handoff (one
    /// lock instead of a queue, a wakeup, and a thread switch). `false`
    /// when the connection is gone or the write fails; failure shuts
    /// the socket down and closes the outbound queue so both pumps
    /// unwind.
    fn write_now(&self, frames: impl ExactSizeIterator<Item = OutFrame>) -> bool {
        let Ok(mut sock) = self.sock.lock() else {
            return false;
        };
        let Some(writer) = sock.as_mut() else {
            return false;
        };
        let coalesced = frames.len().saturating_sub(1);
        let mut tx: u64 = 0;
        let mut push_tx: u64 = 0;
        let mut healthy = true;
        for frame in frames {
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
        if healthy {
            healthy = writer.flush().is_ok();
        }
        if tx > 0 {
            drbac_obs::static_counter!("drbac.net.tcp.frame.tx.count").add(tx);
        }
        if push_tx > 0 {
            drbac_obs::static_counter!("drbac.net.tcp.push.tx.count").add(push_tx);
        }
        if coalesced > 0 {
            drbac_obs::static_counter!("drbac.net.tcp.write.coalesced.count")
                .add(coalesced as u64);
        }
        if !healthy {
            // The peer stopped reading: drop the write half and unblock
            // our reader/writer twins.
            let _ = writer.get_ref().shutdown(Shutdown::Both);
            *sock = None;
            drop(sock);
            self.close_out();
            return false;
        }
        true
    }

    /// Queues a frame for the writer pump. `false` when the connection
    /// is closed or its writer queue is full — the frame was dropped.
    fn send(&self, frame: OutFrame) -> bool {
        self.send_batch(std::iter::once(frame))
    }

    /// Queues a batch under one lock with one writer wakeup — workers
    /// completing a run of jobs for the same connection hand the whole
    /// run over at once, which is what lets the writer coalesce them
    /// into one flush. `false` when the connection is closed or the
    /// batch would overflow the queue (nothing is enqueued).
    fn send_batch(&self, frames: impl ExactSizeIterator<Item = OutFrame>) -> bool {
        let mut state = match self.out.lock() {
            Ok(s) => s,
            Err(_) => return false,
        };
        if state.closed || state.items.len() + frames.len() > self.out_capacity {
            return false;
        }
        state.items.extend(frames);
        self.out_cv.notify_one();
        true
    }

    /// Closes the writer queue; the pump exits after draining what it
    /// already holds.
    fn close_out(&self) {
        if let Ok(mut state) = self.out.lock() {
            state.closed = true;
        }
        self.out_cv.notify_all();
    }

    /// Blocks for the next batch of outbound frames; `None` once the
    /// queue is closed and drained.
    fn next_batch(&self) -> Option<VecDeque<OutFrame>> {
        let mut state = self.out.lock().ok()?;
        loop {
            if !state.items.is_empty() {
                return Some(std::mem::take(&mut state.items));
            }
            if state.closed {
                return None;
            }
            state = self.out_cv.wait(state).ok()?;
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

/// State shared between the accept loop, pumps, workers, and the
/// daemon handle.
struct DaemonShared {
    /// The wallet, its subscriber registry and every request's
    /// semantics — shared with the simulator's hosts.
    core: HostCore,
    config: DaemonConfig,
    /// subscriber wallet address → the connection whose writer pump
    /// carries its pushes.
    push_links: Mutex<HashMap<WalletAddr, Arc<Conn>>>,
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
    /// request and link counts; everything else is the host core's.
    fn handle(&self, req: Request) -> Reply {
        match req {
            Request::Stats => Reply::Stats(drbac_obs::global().snapshot()),
            Request::Health => {
                let wallet = self.core.wallet();
                Reply::Health(HealthReport {
                    ok: !self.closed.load(Ordering::SeqCst),
                    wallet: wallet.addr().to_string(),
                    uptime_ns: self.start.elapsed().as_nanos() as u64,
                    delegations: wallet.len() as u64,
                    subscribers: self.push_links.lock().len() as u64,
                    served_requests: self.served.load(Ordering::Relaxed),
                })
            }
            req => {
                let (reply, fanout) = self.core.handle(req);
                if let Some(fanout) = fanout {
                    self.deliver(fanout);
                }
                reply
            }
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
            Err(e) => Reply::Error(format!("undecodable request: {e}")),
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        drbac_obs::static_histogram!("drbac.net.tcp.service.ns")
            .record(rx.elapsed().as_nanos() as u64);
        drbac_obs::clear_current_trace();
        reply
    }

    /// Queues `fanout`'s event as a push frame on every target's
    /// writer pump. A link whose queue is closed or full is dropped —
    /// the subscriber's [`SubscriberLink`] will reconnect and
    /// resubscribe, recovering anything it missed by revalidation.
    fn deliver(&self, fanout: Fanout) {
        let payload = wire::encode_push(&OneWay::Invalidate(fanout.event));
        for target in fanout.targets {
            let link = self.push_links.lock().get(&target).cloned();
            let Some(link) = link else { continue };
            let queued = link.send(OutFrame {
                kind: FrameKind::Push,
                request_id: None,
                payload: payload.clone(),
            });
            if !queued {
                self.push_links.lock().remove(&target);
            }
        }
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
            core: HostCore::new(wallet),
            jobs: JobQueue::new(daemon.queue_capacity),
            config: daemon,
            push_links: Mutex::new(HashMap::new()),
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
        self.shared.core.wallet()
    }

    /// Subscriber wallet addresses currently registered for `id`.
    pub fn subscribers_of(&self, id: DelegationId) -> BTreeSet<WalletAddr> {
        self.shared.core.subscribers_of(id)
    }

    /// Live pump/worker threads (for shutdown-accounting tests).
    pub fn live_threads(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Fans a locally observed invalidation (e.g. an expiry sweep) out
    /// to subscribers, once per event.
    pub fn broadcast_invalidation(&self, event: DelegationEvent) {
        if let Some(fanout) = self.shared.core.originate_once(event) {
            self.shared.deliver(fanout);
        }
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
        self.shared.push_links.lock().clear();
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
/// lock, one flush per run, no writer-pump handoff.
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
            let _ = conn.write_now(frames.into_iter());
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
        // so one stuck subscriber cannot wedge the writer pump.
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
        let writer_conn = Arc::clone(&conn);
        let writer_ok = shared
            .spawn_tracked("drbac-daemon-write".into(), move || writer_pump(writer_conn))
            .is_ok();
        let reader_shared = Arc::clone(&shared);
        let reader_conn = Arc::clone(&conn);
        let reader_ok = writer_ok
            && shared
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

/// Drains the connection's outbound queue — pushes, v1 replies,
/// overload replies — in batches: every frame in a batch goes through
/// the shared `BufWriter` under one lock, then one flush. Worker
/// replies bypass this queue entirely via [`Conn::write_now`].
fn writer_pump(conn: Arc<Conn>) {
    while let Some(batch) = conn.next_batch() {
        if !conn.write_now(batch.into_iter()) {
            // write_now already shut the socket down and closed the
            // queue; nothing left to drain.
            return;
        }
    }
    // Queue closed cleanly; write_now leaves the stream flushed.
}

/// Reads frames off one connection until the peer hangs up, a frame is
/// malformed, or the daemon shuts down. Never panics on bad input — a
/// protocol violation just drops the connection.
///
/// v1/v2 requests are served inline here (strict request/reply order);
/// v3 requests are admitted against the in-flight and queue bounds and
/// handed to the worker pool.
fn reader_pump(stream: TcpStream, conn: Arc<Conn>, shared: Arc<DaemonShared>) {
    // Buffered reads: one syscall slurps every frame a pipelining
    // client flushed in a batch, instead of 2+ syscalls per frame.
    let mut reader = io::BufReader::with_capacity(64 * 1024, stream);
    // The wallet address this connection push-registered, if any.
    let mut registered: Option<WalletAddr> = None;
    // v3 jobs accumulated across one drain of the read buffer, admitted
    // to the worker queue in a single lock + wakeup.
    let mut jobs: Vec<Job> = Vec::new();
    'conn: loop {
        let Ok(first) = wire::read_frame(&mut reader) else {
            break 'conn;
        };
        if shared.closed.load(Ordering::SeqCst) {
            break 'conn;
        }
        let mut rx_count: u64 = 1;
        let mut mux_count: u64 = 0;
        let mut dead = false;
        let mut pending = Some(first);
        loop {
            let frame = match pending.take() {
                Some(f) => f,
                None => {
                    // Keep draining only frames that are *completely*
                    // buffered: a torn frame would otherwise block this
                    // batch behind a trickling peer.
                    if jobs.len() >= WORKER_BATCH {
                        break;
                    }
                    let buf = reader.buffer();
                    match wire::buffered_frame_len(buf) {
                        Some(total) if buf.len() >= total => {
                            match wire::read_frame(&mut reader) {
                                Ok(f) => {
                                    rx_count += 1;
                                    f
                                }
                                Err(_) => {
                                    dead = true;
                                    break;
                                }
                            }
                        }
                        _ => break,
                    }
                }
            };
            match frame.kind {
                FrameKind::Request => match frame.request_id {
                    Some(request_id) => {
                        mux_count += 1;
                        // Backpressure: per-connection in-flight cap, then
                        // the global queue bound. Either rejection is an
                        // immediate overload reply, never a silent queue.
                        if conn.inflight.load(Ordering::SeqCst) >= shared.config.max_inflight {
                            if !send_overload(&conn, request_id, "per-connection in-flight cap") {
                                dead = true;
                                break;
                            }
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
                        // Strict request/reply (wire v1/v2): serve inline on
                        // this thread so replies keep arrival order, and
                        // route the reply through the writer pump so it
                        // serializes with any pushes on this connection.
                        let reply = shared.serve(&frame.payload, frame.trace, Instant::now());
                        let queued = conn.send(OutFrame {
                            kind: FrameKind::Reply,
                            request_id: None,
                            payload: wire::encode_reply(&reply),
                        });
                        if !queued {
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
                    shared
                        .push_links
                        .lock()
                        .insert(subscriber.clone(), Arc::clone(&conn));
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
                if !send_overload(&job.conn, job.request_id, "job queue full") {
                    dead = true;
                }
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
        let mut links = shared.push_links.lock();
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

/// Queues an overload reply for `request_id`; `false` when the
/// connection is already unwritable.
fn send_overload(conn: &Arc<Conn>, request_id: u64, what: &str) -> bool {
    drbac_obs::static_counter!("drbac.net.tcp.overload.count").inc();
    conn.send(OutFrame {
        kind: FrameKind::Reply,
        request_id: Some(request_id),
        payload: wire::encode_reply(&Reply::overloaded(what)),
    })
}

/// Client side of the persistent push connection: registers with a
/// wallet daemon, applies incoming [`OneWay::Invalidate`] events to the
/// local wallet, and — when the connection drops — reconnects,
/// re-registers, and resubscribes every tracked delegation through the
/// revalidation routine the simulator's `resubscribe_cached` runs.
pub struct SubscriberLink {
    inner: Arc<LinkInner>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

struct LinkInner {
    /// Wallet address of the daemon we subscribe at.
    home: WalletAddr,
    /// The local wallet events are applied to (and whose cached
    /// credentials are revalidated after a reconnect), as a host with
    /// no subscribers of its own.
    core: HostCore,
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
            .field("subscriber", self.inner.core.wallet().addr())
            .finish()
    }
}

impl SubscriberLink {
    /// Opens the persistent connection to the daemon serving `home`
    /// and starts the reader thread. Returns once the link is
    /// registered (or has started its first reconnect attempts).
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
            core: HostCore::new(wallet),
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
    /// Connects to the daemon and sends the push-register frame.
    fn establish(&self) -> Result<TcpStream, NetError> {
        let mut stream = self.transport.connect_raw(&self.home)?;
        // Push frames arrive whenever the daemon has something to say;
        // the reader must block past any read deadline.
        stream
            .set_read_timeout(None)
            .map_err(|e| NetError::Protocol(format!("cannot clear read deadline: {e}")))?;
        let payload = wire::encode_push_register(self.core.wallet().addr());
        wire::write_frame(&mut stream, FrameKind::PushRegister, &payload)
            .map_err(|e| NetError::Protocol(format!("push-register failed: {e}")))?;
        stream
            .flush()
            .map_err(|e| NetError::Protocol(format!("push-register flush failed: {e}")))?;
        Ok(stream)
    }

    /// Registers this link's wallet as a subscriber of `id` at `home`.
    fn subscribe(&self, id: DelegationId) {
        let _ = RetryPolicy::standard().run(
            self.transport.as_ref(),
            &self.home,
            &Request::Subscribe {
                delegation: id,
                subscriber: self.core.wallet().addr().clone(),
            },
        );
    }

    /// Re-registers every subscription this link is responsible for —
    /// explicitly tracked ids plus cached credentials sourced from
    /// `home` — and revalidates each cached credential. Entries the
    /// home disowns are invalidated locally (the push we missed while
    /// disconnected is reconstructed from state, not replayed).
    fn resubscribe(&self) {
        let wallet = self.core.wallet();
        let cached: Vec<(DelegationId, WalletAddr)> = wallet
            .cache_entries()
            .into_iter()
            .filter(|(_, entry)| entry.source == self.home)
            .map(|(id, entry)| (id, entry.source))
            .collect();
        // Tracked ids the cache does not hold have nothing to
        // revalidate: re-register them and move on.
        let tracked = self.tracked.lock().clone();
        for id in tracked {
            if !cached.iter().any(|(c, _)| *c == id) {
                self.subscribe(id);
            }
        }
        // The link's wallet has no subscribers of its own to cascade to.
        self.core.revalidate(
            self.transport.as_ref(),
            &RetryPolicy::standard(),
            Some(wallet.addr()),
            cached,
            |_| {},
        );
    }
}

/// Reads push frames, applying each invalidation to the local wallet;
/// on connection loss, reconnects with backoff and resubscribes.
fn reader_loop(mut stream: TcpStream, inner: Arc<LinkInner>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(frame) if frame.kind == FrameKind::Push => {
                if let Ok(OneWay::Invalidate(event)) = wire::decode_push(&frame.payload) {
                    drbac_obs::static_counter!("drbac.net.tcp.push.rx.count").inc();
                    inner.core.wallet().push_event(event);
                }
            }
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
                    "subscriber" => inner.core.wallet().addr().to_string(),
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
