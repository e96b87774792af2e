//! The deterministic simulated network of wallet hosts.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use drbac_core::{DelegationId, SimClock, Ticks, Timestamp, WalletAddr};
use drbac_store::{StoreEvent, WalletStore};
use drbac_wallet::{CacheEntry, DelegationEvent, PushSink, RecoveryReport, Wallet};
use parking_lot::{Mutex, RwLock};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::host;
use crate::proto::{OneWay, Reply, Request};
use crate::transport::RetryPolicy;
use crate::wire::{self, FrameKind};

/// The durable store backing a simulated host's wallet. Crashing a host
/// hands this back to the caller; restarting recovers from it — the
/// bytes themselves never travel through the test code.
pub type StoreHandle = Arc<WalletStore>;

/// Errors from network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No host is registered at the address.
    UnknownHost(WalletAddr),
    /// The host is registered but currently unreachable (failure
    /// injection).
    HostDown(WalletAddr),
    /// The request was sent but no reply arrived within the timeout
    /// budget — lost in transit or stuck behind a partition. The caller
    /// cannot tell which, and may retry.
    Timeout(WalletAddr),
    /// The peer violated the wire protocol (bad frame, CRC mismatch,
    /// undecodable payload). Permanent for this conversation: retrying
    /// a malformed exchange does not repair it.
    Protocol(String),
}

impl NetError {
    /// `true` for transient failures a bounded retry may recover from
    /// (timeouts and downed-but-restartable hosts). [`NetError::UnknownHost`]
    /// is permanent: no amount of retrying materialises a wallet.
    /// [`NetError::Protocol`] is likewise permanent — the peer is
    /// speaking a different protocol, not suffering a transient fault.
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Timeout(_) | NetError::HostDown(_))
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownHost(a) => write!(f, "no wallet host at {a}"),
            NetError::HostDown(a) => write!(f, "wallet host at {a} is down"),
            NetError::Timeout(a) => write!(f, "request to {a} timed out"),
            NetError::Protocol(m) => write!(f, "wire protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Deterministic fault-injection configuration for a [`SimNet`].
///
/// All randomness is drawn from a dedicated RNG seeded with
/// [`FaultPlan::seeded`], so a given seed always produces the same fault
/// schedule and chaos runs replay exactly. With no plan installed the
/// network behaves exactly as the fault-free simulator (no loss, no
/// jitter) — the knobs are strictly additive.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG.
    pub seed: u64,
    /// Probability in `[0, 1]` that a request is lost in transit; the
    /// caller burns [`FaultPlan::timeout_budget`] of simulated time and
    /// observes [`NetError::Timeout`].
    pub request_loss: f64,
    /// Maximum extra delivery latency: each request and push draws a
    /// uniform jitter in `0..=latency_jitter` ticks.
    pub latency_jitter: Ticks,
    /// Simulated time a caller waits before concluding a request is
    /// lost.
    pub timeout_budget: Ticks,
}

/// Timeout charged for requests into a partition when no [`FaultPlan`]
/// is installed.
const DEFAULT_TIMEOUT_BUDGET: Ticks = Ticks(4);

impl FaultPlan {
    /// A no-fault plan (loss 0, jitter 0) with the given RNG seed —
    /// compose with the `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            request_loss: 0.0,
            latency_jitter: Ticks(0),
            timeout_budget: DEFAULT_TIMEOUT_BUDGET,
        }
    }

    /// Sets the request loss probability (clamped to `[0, 1]`).
    pub fn with_request_loss(mut self, p: f64) -> Self {
        self.request_loss = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the maximum per-message latency jitter.
    pub fn with_latency_jitter(mut self, jitter: Ticks) -> Self {
        self.latency_jitter = jitter;
        self
    }

    /// Sets the per-request timeout budget.
    pub fn with_timeout_budget(mut self, budget: Ticks) -> Self {
        self.timeout_budget = budget;
        self
    }
}

/// A [`FaultPlan`] plus the RNG that executes it.
struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector { plan, rng }
    }
}

/// Message accounting for the efficiency experiments.
///
/// This is a *view* built from the network's metrics registry
/// ([`SimNet::registry`]) — the counters under `drbac.net.sim.*` are the
/// single source of truth; nothing is double-booked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages on the wire (a request/reply pair counts as 2).
    pub total_messages: u64,
    /// One-way push messages (invalidations).
    pub push_messages: u64,
    /// Frame bytes on the wire, header included: every request, reply
    /// and push is the frame [`crate::wire`] builds for it.
    pub total_bytes: u64,
    /// Requests that timed out (lost in transit or partitioned).
    pub timeouts: u64,
    /// Request counts by kind tag.
    pub requests_by_kind: BTreeMap<String, u64>,
}

impl NetStats {
    /// Count of requests with the given kind tag.
    pub fn requests(&self, kind: &str) -> u64 {
        self.requests_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Registry counter names backing the [`NetStats`] view.
    pub const MESSAGES: &'static str = "drbac.net.sim.messages.count";
    /// See [`NetStats::MESSAGES`].
    pub const PUSHES: &'static str = "drbac.net.sim.push.count";
    /// See [`NetStats::MESSAGES`].
    pub const BYTES: &'static str = "drbac.net.sim.bytes.total";
    /// RPC timeouts from injected loss or partitions.
    pub const TIMEOUTS: &'static str = "drbac.net.rpc.timeout.count";
    /// Per-kind request counters live at `drbac.net.sim.request.<kind>.count`.
    pub const REQUEST_PREFIX: &'static str = "drbac.net.sim.request.";

    /// Builds the view from a registry snapshot (only `drbac.net.sim.*`
    /// counters are consulted).
    pub fn from_snapshot(snap: &drbac_obs::Snapshot) -> Self {
        let mut requests_by_kind = BTreeMap::new();
        for (name, v) in snap.counters_with_prefix(Self::REQUEST_PREFIX) {
            if v > 0 {
                if let Some(kind) = name
                    .strip_prefix(Self::REQUEST_PREFIX)
                    .and_then(|s| s.strip_suffix(".count"))
                {
                    requests_by_kind.insert(kind.to_string(), v);
                }
            }
        }
        NetStats {
            total_messages: snap.counters.get(Self::MESSAGES).copied().unwrap_or(0),
            push_messages: snap.counters.get(Self::PUSHES).copied().unwrap_or(0),
            total_bytes: snap.counters.get(Self::BYTES).copied().unwrap_or(0),
            timeouts: snap.counters.get(Self::TIMEOUTS).copied().unwrap_or(0),
            requests_by_kind,
        }
    }
}

/// A wallet attached to the network: the wallet, the network's push
/// sink its remote subscribers are reached through, and the write-ahead
/// store handle that crash/restart recovery goes through.
#[derive(Clone)]
pub struct WalletHost {
    addr: WalletAddr,
    wallet: Wallet,
    sink: Arc<SimSink>,
    /// The write-ahead store journaling this wallet's mutations.
    store: Arc<Mutex<StoreHandle>>,
}

impl fmt::Debug for WalletHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalletHost")
            .field("addr", &self.addr)
            .field("wallet", self.wallet())
            .finish()
    }
}

impl From<WalletHost> for Wallet {
    /// A host's wallet (shared state), e.g. for [`crate::DiscoveryAgent`].
    fn from(host: WalletHost) -> Wallet {
        host.wallet().clone()
    }
}

impl From<&WalletHost> for Wallet {
    fn from(host: &WalletHost) -> Wallet {
        host.wallet().clone()
    }
}

impl WalletHost {
    /// The host's address.
    pub fn addr(&self) -> &WalletAddr {
        &self.addr
    }

    /// The wallet served by this host.
    pub fn wallet(&self) -> &Wallet {
        &self.wallet
    }

    /// The write-ahead store currently journaling this host's wallet.
    pub fn store(&self) -> StoreHandle {
        self.store.lock().clone()
    }

    /// Remote wallets currently subscribed to `id` through this network.
    pub fn subscribers_of(&self, id: DelegationId) -> BTreeSet<WalletAddr> {
        self.wallet.remote_subscribers(id, &*self.sink)
    }

    /// Revalidates every stale cached credential against its recorded
    /// source wallet (TTL refresh). Entries the source no longer vouches
    /// for are invalidated locally and cascaded; an unreachable source
    /// leaves the stale entry for now. Returns `(refreshed, dropped)`.
    pub fn refresh_stale(&self, net: &SimNet) -> (usize, usize) {
        let now = self.wallet.now();
        let stale = |entry: &CacheEntry| entry.is_stale(now);
        let done = host::revalidate(&self.wallet, net, &RetryPolicy::none(), None, stale);
        (done.refreshed, done.dropped)
    }

    /// Re-registers this host's push subscriptions for every cached
    /// remote credential at its recorded source wallet, then revalidates
    /// each entry — the recovery step after a peer wallet restart: the
    /// peer's subscriber registry is volatile, so its crash silently
    /// unsubscribed us and any invalidation issued before we re-register
    /// would be lost. Requests are retried with
    /// [`crate::RetryPolicy::standard`]; sources that stay unreachable
    /// leave the entry untouched (TTL refresh remains the backstop).
    /// Entries a source disowns are invalidated locally and cascaded.
    /// Returns `(resubscribed, dropped)`.
    pub fn resubscribe_cached(&self, net: &SimNet) -> (usize, usize) {
        let retry = RetryPolicy::standard();
        let done = host::revalidate(&self.wallet, net, &retry, Some(&self.addr), |_| true);
        (done.resubscribed, done.dropped)
    }

    /// Processes local expiries (the wallet pushes its subscribers) and
    /// returns how many lapsed. Drive after advancing the clock.
    pub fn process_expiries(&self) -> usize {
        self.wallet.process_expiries().0.len()
    }
}

/// The push sink of a network's hosts. Weak: the network owns the
/// wallets that hold it.
struct SimSink(Weak<SimState>);

impl PushSink for SimSink {
    fn push(&self, event: DelegationEvent, targets: BTreeSet<WalletAddr>) {
        if let Some(state) = self.0.upgrade() {
            SimNet { state }.deliver(event, targets);
        }
    }
}

/// An in-flight push frame.
struct Envelope {
    deliver_at: Timestamp,
    seq: u64,
    to: WalletAddr,
    frame: Vec<u8>,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver_at, self.seq) == (other.deliver_at, other.seq)
    }
}
impl Eq for Envelope {}
impl PartialOrd for Envelope {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Envelope {
    /// Min-heap by (time, seq): BinaryHeap is a max-heap, so reverse.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

struct SimState {
    clock: SimClock,
    latency: Ticks,
    hosts: RwLock<HashMap<WalletAddr, WalletHost>>,
    queue: Mutex<BinaryHeap<Envelope>>,
    /// Per-network metrics registry: the single accounting path.
    /// Instances are independent so parallel tests see exact counts.
    registry: Arc<drbac_obs::Registry>,
    /// Cached handles for the hot counters.
    msg_counter: Arc<drbac_obs::Counter>,
    push_msg_counter: Arc<drbac_obs::Counter>,
    bytes_counter: Arc<drbac_obs::Counter>,
    timeout_counter: Arc<drbac_obs::Counter>,
    seq: AtomicU64,
    /// Failure injection: hosts currently unreachable.
    down: Mutex<HashSet<WalletAddr>>,
    /// Failure injection: drop every Nth push (0 = no loss).
    drop_every_nth_push: AtomicU64,
    push_counter: AtomicU64,
    /// Failure injection: seeded loss / jitter / timeout plan
    /// (`None` = fault-free, the default).
    faults: Mutex<Option<FaultInjector>>,
    /// Hosts currently cut off by a network partition. Unlike a downed
    /// host the host itself is healthy: requests time out and pushes are
    /// parked for redelivery at heal time rather than dropped.
    partitioned: Mutex<HashSet<WalletAddr>>,
    /// Pushes addressed into a partition, waiting for the heal.
    parked: Mutex<Vec<Envelope>>,
    /// The sink every host on this network accepts subscriptions for.
    sink: Arc<SimSink>,
}

/// A deterministic discrete-event network of wallet hosts.
///
/// Requests are synchronous RPCs costing one latency each way; pushes are
/// queued one-way messages delivered by [`SimNet::run_until_idle`] in
/// `(time, sequence)` order. All message counts are recorded in
/// [`NetStats`].
///
/// # Example
///
/// ```
/// use drbac_core::{LocalEntity, Node, SimClock, Ticks};
/// use drbac_crypto::SchnorrGroup;
/// use drbac_net::{proto::Request, SimNet};
/// use drbac_wallet::Wallet;
/// # use rand::SeedableRng;
/// # use std::sync::Arc;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(71);
/// # let g = SchnorrGroup::test_256();
/// let clock = SimClock::new();
/// let net = SimNet::new(clock.clone(), Ticks(1));
/// let a = LocalEntity::generate("A", g.clone(), &mut rng);
/// let m = LocalEntity::generate("M", g, &mut rng);
/// net.add_host("wallet.a", Wallet::new("wallet.a", clock.clone()));
///
/// let cert = a.delegate(Node::entity(&m), Node::role(a.role("r"))).sign(&a)?;
/// let reply = net.request(&"wallet.a".into(), Request::Publish { cert: Arc::new(cert), supports: vec![] })?;
/// assert!(!reply.is_error());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct SimNet {
    state: Arc<SimState>,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("hosts", &self.state.hosts.read().len())
            .field("now", &self.state.clock.now())
            .finish()
    }
}

impl SimNet {
    /// Creates a network with the given per-message latency.
    pub fn new(clock: SimClock, latency: Ticks) -> Self {
        let registry = Arc::new(drbac_obs::Registry::new());
        let msg_counter = registry.counter(NetStats::MESSAGES);
        let push_msg_counter = registry.counter(NetStats::PUSHES);
        let bytes_counter = registry.counter(NetStats::BYTES);
        let timeout_counter = registry.counter(NetStats::TIMEOUTS);
        SimNet {
            state: Arc::new_cyclic(|state| SimState {
                clock,
                latency,
                hosts: RwLock::new(HashMap::new()),
                queue: Mutex::new(BinaryHeap::new()),
                registry,
                msg_counter,
                push_msg_counter,
                bytes_counter,
                timeout_counter,
                seq: AtomicU64::new(0),
                down: Mutex::new(HashSet::new()),
                drop_every_nth_push: AtomicU64::new(0),
                push_counter: AtomicU64::new(0),
                faults: Mutex::new(None),
                partitioned: Mutex::new(HashSet::new()),
                parked: Mutex::new(Vec::new()),
                sink: Arc::new(SimSink(state.clone())),
            }),
        }
    }

    /// Installs (or with `None` removes) a seeded fault plan. Replacing
    /// the plan reseeds the fault RNG, so installing the same plan twice
    /// replays the same fault schedule.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.state.faults.lock() = plan.map(FaultInjector::new);
    }

    /// Failure injection: cuts `addr` off behind a network partition.
    /// Requests into the partition burn the timeout budget and fail with
    /// [`NetError::Timeout`]; pushes addressed to it are parked and
    /// redelivered when [`SimNet::heal_partitions`] runs — unlike
    /// [`SimNet::fail_host`], nothing is lost.
    pub fn partition_host(&self, addr: &WalletAddr) {
        self.state.partitioned.lock().insert(addr.clone());
    }

    /// `true` if the host is currently behind a partition.
    pub fn is_partitioned(&self, addr: &WalletAddr) -> bool {
        self.state.partitioned.lock().contains(addr)
    }

    /// Heals all partitions: parked pushes are re-enqueued for delivery
    /// one latency from now (drive [`SimNet::run_until_idle`] to deliver
    /// them). Returns the number of messages released.
    pub fn heal_partitions(&self) -> usize {
        self.state.partitioned.lock().clear();
        let parked: Vec<Envelope> = std::mem::take(&mut *self.state.parked.lock());
        let released = parked.len();
        for envelope in parked {
            // Re-timestamp: the message finally crosses the mended link.
            let deliver_at = self.state.clock.now().after(self.state.latency);
            let seq = self.state.seq.fetch_add(1, Ordering::SeqCst);
            self.state.queue.lock().push(Envelope {
                deliver_at,
                seq,
                to: envelope.to,
                frame: envelope.frame,
            });
        }
        released
    }

    /// Failure injection: crashes the host at `addr`. The host becomes
    /// unreachable and *everything in memory dies with the process* —
    /// the wallet's entire contents, its remote subscribers, volatile
    /// and durable alike. What
    /// survives is the write-ahead store, whose handle is returned for a
    /// later [`SimNet::restart_host`]; any journal bytes the store had
    /// not yet fsynced are lost too (power-loss semantics). Returns
    /// `None` if no host lives at `addr`.
    pub fn crash_host(&self, addr: &WalletAddr) -> Option<StoreHandle> {
        let host = self.host(addr)?;
        self.state.down.lock().insert(addr.clone());
        host.wallet().detach_journal();
        host.wallet().wipe();
        let store = host.store.lock().clone();
        store.lose_unsynced();
        drbac_obs::event!("drbac.net.sim.crash", "addr" => addr.to_string(),);
        Some(store)
    }

    /// Restarts a crashed host from its write-ahead `store`: the wallet
    /// is rebuilt by replaying the whole journal (every credential
    /// re-verified; a torn tail truncated, never a panic; simulated hosts
    /// never checkpoint, so it starts at seq 1), the journal is
    /// re-attached, and the host becomes
    /// reachable again. Peers that held push subscriptions here must
    /// re-register — see [`WalletHost::resubscribe_cached`]. Returns
    /// `None` if no host lives at `addr` or the store's medium fails.
    pub fn restart_host(&self, addr: &WalletAddr, store: &StoreHandle) -> Option<RecoveryReport> {
        let host = self.host(addr)?;
        host.wallet().detach_journal();
        host.wallet().wipe();
        let report = host.wallet().recover_from_store(store).ok()?;
        host.wallet().attach_journal(Arc::clone(store));
        *host.store.lock() = Arc::clone(store);
        self.state.down.lock().remove(addr);
        drbac_obs::event!(
            "drbac.net.sim.restart",
            "addr" => addr.to_string(),
            "replayed" => report.replayed,
            "skipped" => report.skipped,
            "truncated_bytes" => report.truncated_bytes,
            "torn_tail" => report.torn_tail,
        );
        Some(report)
    }

    /// Failure injection: marks a host unreachable. Requests to it fail
    /// with [`NetError::HostDown`]; queued pushes addressed to it are
    /// dropped at delivery time.
    pub fn fail_host(&self, addr: &WalletAddr) {
        self.state.down.lock().insert(addr.clone());
    }

    /// Restores a failed host.
    pub fn restore_host(&self, addr: &WalletAddr) {
        self.state.down.lock().remove(addr);
    }

    /// `true` if the host is currently marked down.
    pub fn is_down(&self, addr: &WalletAddr) -> bool {
        self.state.down.lock().contains(addr)
    }

    /// Failure injection: deterministically drop every `n`th push message
    /// (0 disables loss).
    pub fn drop_every_nth_push(&self, n: u64) {
        self.state.drop_every_nth_push.store(n, Ordering::SeqCst);
    }

    /// Attaches `wallet` at `addr` and returns the host handle. A fresh
    /// in-memory write-ahead store is bound to the wallet: contents the
    /// wallet already holds are journaled into it first, in an order
    /// replay accepts — declarations, supports, first-party then
    /// third-party credentials, marks — and every subsequent mutation is
    /// journaled, so a later [`SimNet::crash_host`] /
    /// [`SimNet::restart_host`] cycle recovers through real log replay.
    pub fn add_host(&self, addr: impl Into<WalletAddr>, wallet: Wallet) -> WalletHost {
        let addr = addr.into();
        let store = Arc::new(WalletStore::in_memory());
        let (mut certs, supports) = wallet.with_graph(|g| (g.iter_certs(), g.all_supports()));
        certs.sort_by_key(|c| (c.delegation().needs_support(), c.id()));
        let declarations = wallet.signed_declarations();
        let marks = wallet.revocation_history();
        let events = (declarations.into_iter().map(StoreEvent::Declare))
            .chain(supports.into_iter().map(StoreEvent::Support))
            .chain(certs.into_iter().map(StoreEvent::Publish))
            .chain(marks.into_iter().map(StoreEvent::RevokeMark));
        for event in events {
            store.append(&event).expect("an in-memory store appends");
        }
        wallet.attach_journal(Arc::clone(&store));
        let host = WalletHost {
            addr: addr.clone(),
            wallet,
            sink: Arc::clone(&self.state.sink),
            store: Arc::new(Mutex::new(store)),
        };
        self.state.hosts.write().insert(addr, host.clone());
        host
    }

    /// The host at `addr`, if any.
    pub fn host(&self, addr: &WalletAddr) -> Option<WalletHost> {
        self.state.hosts.read().get(addr).cloned()
    }

    /// The shared clock.
    pub fn clock(&self) -> SimClock {
        self.state.clock.clone()
    }

    /// Draws the fault verdict for one request to `to`: `Some(budget)`
    /// if the request times out (partition or injected loss), else
    /// `None`. Partitions time out even without a plan installed.
    fn timeout_if_faulted(&self, to: &WalletAddr) -> Option<Ticks> {
        let partitioned = self.is_partitioned(to);
        let mut faults = self.state.faults.lock();
        match faults.as_mut() {
            Some(f) => {
                if partitioned {
                    return Some(f.plan.timeout_budget);
                }
                // Clamp at the point of use: `request_loss` is a pub field,
                // so a plan built without `with_request_loss` may carry an
                // out-of-range or NaN value that would panic `gen_bool`.
                // (NaN fails the `> 0.0` test and counts as "no loss".)
                let loss = f.plan.request_loss.clamp(0.0, 1.0);
                if loss > 0.0 && f.rng.gen_bool(loss) {
                    return Some(f.plan.timeout_budget);
                }
                None
            }
            None if partitioned => Some(DEFAULT_TIMEOUT_BUDGET),
            None => None,
        }
    }

    /// Draws the latency jitter for one message (0 without a plan).
    fn draw_jitter(&self) -> Ticks {
        let mut faults = self.state.faults.lock();
        match faults.as_mut() {
            Some(f) if f.plan.latency_jitter.0 > 0 => {
                Ticks(f.rng.gen_range(0..=f.plan.latency_jitter.0))
            }
            _ => Ticks(0),
        }
    }

    /// Sends a synchronous request; the clock advances one latency each
    /// way and both messages are counted. The request and its reply
    /// cross as the frames a `WalletDaemon` reads and writes: the host
    /// serves what it decodes, never the caller's value.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownHost`] if nothing is registered at `to`;
    /// [`NetError::HostDown`] if the host has crashed or been failed;
    /// [`NetError::Timeout`] if the request was lost to the installed
    /// [`FaultPlan`] or the host is behind a partition — the caller
    /// burns the plan's timeout budget of simulated time waiting;
    /// [`NetError::Protocol`] if a frame cannot be built or the reply
    /// does not decode.
    pub fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
        let host = self
            .host(to)
            .ok_or_else(|| NetError::UnknownHost(to.clone()))?;
        if self.is_down(to) {
            // The attempt still costs a (lost) message and a timeout's
            // worth of waiting.
            self.state.msg_counter.inc();
            self.state.clock.advance(self.state.latency);
            return Err(NetError::HostDown(to.clone()));
        }
        if let Some(budget) = self.timeout_if_faulted(to) {
            self.state.msg_counter.inc();
            self.state.timeout_counter.inc();
            drbac_obs::event!(
                "drbac.net.rpc.timeout",
                "to" => to.to_string(),
                "kind" => req.kind(),
            );
            self.state.clock.advance(budget);
            return Err(NetError::Timeout(to.clone()));
        }
        let jitter = self.draw_jitter();
        let request = frame(FrameKind::Request, &wire::encode_request(&req))?;
        self.state.msg_counter.add(2);
        self.state.bytes_counter.add(request.len() as u64);
        self.state
            .registry
            .counter(format!("{}{}.count", NetStats::REQUEST_PREFIX, req.kind()))
            .inc();
        drbac_obs::event!(
            "drbac.net.sim.request",
            "to" => to.to_string(),
            "kind" => req.kind(),
        );
        self.state
            .clock
            .advance(Ticks(self.state.latency.0 + jitter.0));
        let reply = match wire::decode_request(&payload(&request)?) {
            Ok(req) => host::handle(&host.wallet, &host.sink, req),
            Err(e) => Reply::undecodable_request(&e),
        };
        let reply = frame(FrameKind::Reply, &wire::encode_reply(&reply))?;
        self.state.clock.advance(self.state.latency);
        self.state.bytes_counter.add(reply.len() as u64);
        wire::decode_reply(&payload(&reply)?)
            .map_err(|e| NetError::Protocol(format!("undecodable reply: {e}")))
    }

    /// Enqueues `event` as one push frame per target, each delivered
    /// after one latency (plus any [`FaultPlan`] jitter). The frame is
    /// encoded once and its bytes cloned per target.
    fn deliver(&self, event: DelegationEvent, targets: BTreeSet<WalletAddr>) {
        let push = wire::encode_push(&OneWay::Invalidate(event));
        let push = frame(FrameKind::Push, &push).expect("a push frame is far below the frame cap");
        for to in targets {
            let jitter = self.draw_jitter();
            let deliver_at = self
                .state
                .clock
                .now()
                .after(Ticks(self.state.latency.0 + jitter.0));
            let seq = self.state.seq.fetch_add(1, Ordering::SeqCst);
            self.state.msg_counter.inc();
            self.state.push_msg_counter.inc();
            self.state.bytes_counter.add(push.len() as u64);
            drbac_obs::event!("drbac.net.sim.push", "to" => to.to_string(),);
            self.state.queue.lock().push(Envelope {
                deliver_at,
                seq,
                to,
                frame: push.clone(),
            });
        }
    }

    /// Delivers queued pushes in timestamp order (advancing the clock to
    /// each delivery time) until the queue is empty. Returns the number of
    /// messages delivered.
    pub fn run_until_idle(&self) -> usize {
        let mut delivered = 0;
        loop {
            let envelope = match self.state.queue.lock().pop() {
                Some(e) => e,
                None => return delivered,
            };
            self.state.clock.advance_to(envelope.deliver_at);
            if self.is_down(&envelope.to) {
                continue; // lost: host is down
            }
            if self.is_partitioned(&envelope.to) {
                // Undeliverable but not lost: park until the heal.
                self.state.parked.lock().push(envelope);
                continue;
            }
            let n = self.state.drop_every_nth_push.load(Ordering::SeqCst);
            if n > 0 {
                let count = self.state.push_counter.fetch_add(1, Ordering::SeqCst) + 1;
                if count.is_multiple_of(n) {
                    continue; // injected message loss
                }
            }
            delivered += 1;
            let Some(host) = self.host(&envelope.to) else {
                continue; // host vanished; drop the message
            };
            // An undecodable push is dropped, as a `SubscriberLink` drops
            // it. An applied one reaches the wallet's own subscribers.
            let push = payload(&envelope.frame).map(|p| wire::decode_push(&p));
            if let Ok(Ok(OneWay::Invalidate(event))) = push {
                host.wallet.push_event(event);
            }
        }
    }

    /// A snapshot of the message counters — a [`NetStats`] view over the
    /// network's metrics registry.
    pub fn stats(&self) -> NetStats {
        NetStats::from_snapshot(&self.state.registry.snapshot())
    }

    /// Resets the message counters (between experiment phases). Counters
    /// incremented concurrently land in either the pre- or post-reset
    /// epoch — never both.
    pub fn reset_stats(&self) {
        self.state.registry.reset();
    }

    /// The per-network metrics registry backing [`SimNet::stats`]. Merge
    /// its snapshot with [`drbac_obs::global`]'s for a full picture.
    pub fn registry(&self) -> Arc<drbac_obs::Registry> {
        Arc::clone(&self.state.registry)
    }
}

/// One frame of `kind` carrying `payload`, as `wire` writes it.
fn frame(kind: FrameKind, payload: &[u8]) -> Result<Vec<u8>, NetError> {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, kind, payload).map_err(|e| NetError::Protocol(e.to_string()))?;
    Ok(bytes)
}

/// The payload of the frame in `bytes`, every header check and the CRC
/// applied. A bad frame is a protocol violation, as on a socket.
fn payload(mut bytes: &[u8]) -> Result<Vec<u8>, NetError> {
    wire::read_frame(&mut bytes)
        .map(|f| f.payload)
        .map_err(|e| NetError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{fx, proof_of, publish, Fx};
    use drbac_core::{LocalEntity, Node, SignedDelegation};
    use drbac_wallet::ProofMonitor;

    fn wallet(f: &Fx, addr: &str) -> WalletHost {
        f.net.add_host(addr, Wallet::new(addr, f.clock.clone()))
    }

    fn subscribe(f: &Fx, at: &str, delegation: DelegationId, subscriber: &WalletAddr) {
        let subscriber = subscriber.clone();
        let request = Request::Subscribe {
            delegation,
            subscriber,
        };
        f.net.request(&at.into(), request).unwrap();
    }

    fn revoke_at_home(f: &Fx, cert: &SignedDelegation) {
        let reply = f.net.request(&"home".into(), f.revoke(cert));
        assert!(matches!(reply, Ok(Reply::Revoked(_))));
    }

    /// `home` holds `M → A.r` (cacheable for 10 ticks); `cache` has
    /// absorbed a copy, subscribed to it at `home`, and monitors a
    /// proof built on it.
    fn subscribed_cache(f: &Fx) -> (WalletHost, WalletHost, SignedDelegation, ProofMonitor) {
        let home = wallet(f, "home");
        let cache = wallet(f, "cache");
        let cert = f.cert("r");
        home.wallet().publish(cert.clone(), vec![]).unwrap();
        cache
            .wallet()
            .absorb_proof(&proof_of(&cert), home.addr())
            .unwrap();
        subscribe(f, "home", cert.id(), cache.addr());
        let monitor = cache
            .wallet()
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .unwrap();
        (home, cache, cert, monitor)
    }

    #[test]
    fn request_to_unknown_host_fails() {
        let f = fx();
        let err = f
            .net
            .request(&"nowhere".into(), crate::proto::Request::FetchDeclarations);
        assert!(matches!(err, Err(NetError::UnknownHost(_))));
    }

    #[test]
    fn publish_and_query_via_network() {
        let f = fx();
        wallet(&f, "w1");
        let cert = f.cert("r");
        let reply = f.net.request(&"w1".into(), publish(&cert)).unwrap();
        assert!(matches!(reply, Reply::Published(_)));

        let reply = f.net.request(&"w1".into(), f.query("r")).unwrap();
        match reply {
            Reply::Proofs(proofs) => assert_eq!(proofs.len(), 1),
            other => panic!("unexpected reply {other:?}"),
        }

        let stats = f.net.stats();
        assert_eq!(stats.total_messages, 4);
        assert_eq!(stats.requests("publish"), 1);
        assert_eq!(stats.requests("direct-query"), 1);
        // Each request advanced the clock twice.
        assert_eq!(f.clock.now(), Timestamp(4));
    }

    #[test]
    fn cascaded_pushes_follow_subscription_chains() {
        // home -> cache -> cache2 subscription chain: a revocation at home
        // reaches cache2 through cache.
        let f = fx();
        let (_, cache, cert, _) = subscribed_cache(&f);
        let cache2 = wallet(&f, "cache2");
        cache2
            .wallet()
            .absorb_proof(&proof_of(&cert), cache.addr())
            .unwrap();
        subscribe(&f, "cache", cert.id(), cache2.addr());

        let m2 = cache2
            .wallet()
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .unwrap();
        revoke_at_home(&f, &cert);
        let delivered = f.net.run_until_idle();
        assert_eq!(delivered, 2, "home->cache, cache->cache2");
        assert!(!m2.is_valid());
    }

    #[test]
    fn downed_host_rejects_requests_and_loses_pushes() {
        let f = fx();
        let (_, cache, cert, monitor) = subscribed_cache(&f);

        // Cache goes down; the revocation push is lost.
        f.net.fail_host(&"cache".into());
        assert!(matches!(
            f.net.request(&"cache".into(), Request::FetchDeclarations),
            Err(NetError::HostDown(_))
        ));
        revoke_at_home(&f, &cert);
        assert_eq!(f.net.run_until_idle(), 0, "push dropped while host down");
        assert!(
            monitor.is_valid(),
            "cache is stale — exactly why TTLs exist"
        );

        // Host recovers; TTL refresh discovers the revocation.
        f.net.restore_host(&"cache".into());
        f.clock.advance(Ticks(1_000));
        let (_, dropped) = cache.refresh_stale(&f.net);
        assert_eq!(dropped, 1);
        assert!(!monitor.is_valid(), "refresh caught up with the revocation");
    }

    #[test]
    fn deterministic_push_loss() {
        let f = fx();
        let home = wallet(&f, "home");
        let caches: Vec<WalletHost> = (0..4).map(|i| wallet(&f, &format!("c{i}"))).collect();
        let cert = f.cert("r");
        home.wallet().publish(cert.clone(), vec![]).unwrap();
        for c in &caches {
            c.wallet()
                .absorb_proof(&proof_of(&cert), home.addr())
                .unwrap();
            subscribe(&f, "home", cert.id(), c.addr());
        }
        f.net.drop_every_nth_push(2); // lose half the pushes
        revoke_at_home(&f, &cert);
        let delivered = f.net.run_until_idle();
        assert_eq!(delivered, 2, "2 of 4 pushes delivered");
        let revoked_count = caches
            .iter()
            .filter(|c| c.wallet().is_revoked(cert.id()))
            .count();
        assert_eq!(revoked_count, 2);
    }

    /// Length of the frame `wire` writes for `payload`, header included.
    fn frame_len(kind: FrameKind, payload: &[u8]) -> u64 {
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, kind, payload).unwrap();
        bytes.len() as u64
    }

    #[test]
    fn byte_accounting_tracks_payload_sizes() {
        let f = fx();
        wallet(&f, "w1");
        assert_eq!(f.net.stats().total_bytes, 0);

        // A publish round trip costs its request frame plus its reply frame.
        let cert = f.cert("r");
        let request = publish(&cert);
        let request_len = frame_len(FrameKind::Request, &wire::encode_request(&request));
        let reply = f.net.request(&"w1".into(), request).unwrap();
        let reply_len = frame_len(FrameKind::Reply, &wire::encode_reply(&reply));
        assert!(
            request_len > cert.to_bytes().len() as u64,
            "the frame carries the credential"
        );
        assert_eq!(f.net.stats().total_bytes, request_len + reply_len);

        // One delivered push costs exactly its frame.
        let f = fx();
        let (_, _, cert, _) = subscribed_cache(&f);
        f.net.reset_stats();
        let revoke = f.revoke(&cert);
        let request_len = frame_len(FrameKind::Request, &wire::encode_request(&revoke));
        let reply = f.net.request(&"home".into(), revoke).unwrap();
        let reply_len = frame_len(FrameKind::Reply, &wire::encode_reply(&reply));
        let push_len = frame_len(
            FrameKind::Push,
            &wire::encode_push(&OneWay::Invalidate(drbac_wallet::DelegationEvent {
                delegation: cert.id(),
                reason: drbac_wallet::InvalidationReason::Revoked,
            })),
        );
        assert_eq!(f.net.run_until_idle(), 1);
        let stats = f.net.stats();
        assert_eq!(stats.push_messages, 1);
        assert_eq!(stats.total_bytes, request_len + reply_len + push_len);
    }

    #[test]
    fn stats_view_reflects_registry_counters() {
        let f = fx();
        wallet(&f, "w1");
        f.net
            .request(&"w1".into(), Request::FetchDeclarations)
            .unwrap();
        let snap = f.net.registry().snapshot();
        assert_eq!(snap.counters.get(NetStats::MESSAGES), Some(&2));
        let stats = f.net.stats();
        assert_eq!(stats.total_messages, 2);
        assert_eq!(stats.requests("fetch-declarations"), 1);
        f.net.reset_stats();
        assert_eq!(f.net.stats(), NetStats::default());
        // The registry keeps the (zeroed) instruments; the view hides
        // never-again-seen kinds just like a fresh NetStats would.
        assert_eq!(
            f.net.registry().snapshot().counters.get(NetStats::MESSAGES),
            Some(&0)
        );
    }

    #[test]
    fn concurrent_senders_survive_reset_without_double_counting() {
        // Phase 1: four threads hammer requests while the main thread
        // repeatedly snapshots and resets — must not panic or wedge.
        let f = fx();
        wallet(&f, "w1");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(5));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let net = f.net.clone();
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut sent = 0u64;
                    // Every worker sends at least once, even if the main
                    // thread races through its reset loop first.
                    while sent == 0 || !stop.load(Ordering::SeqCst) {
                        net.request(&"w1".into(), Request::FetchDeclarations)
                            .unwrap();
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        start.wait();
        for _ in 0..100 {
            let _ = f.net.stats();
            f.net.reset_stats();
        }
        stop.store(true, Ordering::SeqCst);
        let sent: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(sent > 0);
        // All senders joined: a final reset leaves everything at zero.
        f.net.reset_stats();
        assert_eq!(f.net.stats(), NetStats::default());

        // Phase 2: with no resets interleaved, concurrent senders are
        // counted exactly once each — no double counting.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let net = f.net.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        net.request(&"w1".into(), Request::FetchDeclarations)
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = f.net.stats();
        assert_eq!(stats.total_messages, 2 * 1000);
        assert_eq!(stats.requests("fetch-declarations"), 1000);
    }

    #[test]
    fn request_loss_is_deterministic_per_seed() {
        // Two independent networks with the same fault plan observe the
        // same loss schedule; a different seed observes a different one.
        let outcomes = |seed: u64| -> Vec<bool> {
            let f = fx();
            wallet(&f, "w1");
            f.net.set_fault_plan(Some(
                FaultPlan::seeded(seed)
                    .with_request_loss(0.3)
                    .with_timeout_budget(Ticks(4)),
            ));
            (0..32)
                .map(|_| {
                    f.net
                        .request(&"w1".into(), Request::FetchDeclarations)
                        .is_ok()
                })
                .collect()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "same seed, same schedule");
        assert_ne!(a, outcomes(8), "different seed, different schedule");
        assert!(
            a.iter().any(|ok| *ok) && a.iter().any(|ok| !ok),
            "30% loss over 32 requests should show both outcomes"
        );

        // Timeouts are visible in the stats view and errors are typed.
        let f = fx();
        wallet(&f, "w1");
        f.net
            .set_fault_plan(Some(FaultPlan::seeded(7).with_request_loss(1.0)));
        assert!(matches!(
            f.net.request(&"w1".into(), Request::FetchDeclarations),
            Err(NetError::Timeout(_))
        ));
        assert_eq!(f.net.stats().timeouts, 1);
        assert_eq!(f.net.stats().total_messages, 1, "the lost request");
    }

    #[test]
    fn timeout_budget_costs_simulated_time() {
        let f = fx();
        wallet(&f, "w1");
        f.net.set_fault_plan(Some(
            FaultPlan::seeded(1)
                .with_request_loss(1.0)
                .with_timeout_budget(Ticks(9)),
        ));
        let before = f.clock.now();
        let _ = f.net.request(&"w1".into(), Request::FetchDeclarations);
        assert_eq!(f.clock.now(), before.after(Ticks(9)));
    }

    #[test]
    fn partitioned_host_parks_pushes_until_heal() {
        let f = fx();
        let (_, _, cert, monitor) = subscribed_cache(&f);

        // The cache drops behind a partition: requests to it time out
        // (even with no fault plan installed)...
        f.net.partition_host(&"cache".into());
        assert!(f.net.is_partitioned(&"cache".into()));
        assert!(matches!(
            f.net.request(&"cache".into(), Request::FetchDeclarations),
            Err(NetError::Timeout(_))
        ));

        // ...and the revocation push is parked, not lost.
        revoke_at_home(&f, &cert);
        assert_eq!(f.net.run_until_idle(), 0, "nothing deliverable yet");
        assert!(monitor.is_valid(), "stale until the partition heals");

        assert_eq!(f.net.heal_partitions(), 1, "one parked push released");
        assert_eq!(f.net.run_until_idle(), 1);
        assert!(!monitor.is_valid(), "parked push delivered after heal");
        assert_eq!(f.net.stats().push_messages, 1);
    }

    #[test]
    fn crash_restart_and_resubscribe_recover_missed_revocations() {
        let f = fx();
        let (home, cache, cert, monitor) = subscribed_cache(&f);

        // The home wallet crashes: unreachable, and its (volatile)
        // subscriber registry dies with it.
        let store = f.net.crash_host(&"home".into()).unwrap();
        assert!(matches!(
            f.net.request(&"home".into(), Request::FetchDeclarations),
            Err(NetError::HostDown(_))
        ));

        // Restart replays the write-ahead log to rebuild the credential
        // store but NOT the subscriber registry — the cache has been
        // silently unsubscribed.
        let report = f.net.restart_host(&"home".into(), &store).unwrap();
        assert_eq!(report.skipped, 0);
        assert_eq!(report.replayed, 1, "the published delegation replays");
        assert!(home.subscribers_of(cert.id()).is_empty());
        revoke_at_home(&f, &cert);
        assert_eq!(f.net.run_until_idle(), 0, "push lost: nobody subscribed");
        assert!(monitor.is_valid(), "cache is dangerously stale");

        // Recovery: re-register subscriptions and revalidate the cache.
        // The missed revocation is caught by the revalidation fetch. The
        // resubscription of an id already revoked at home registers
        // nothing and is pushed the death at once.
        let (resubscribed, dropped) = cache.resubscribe_cached(&f.net);
        assert_eq!((resubscribed, dropped), (1, 1));
        assert!(!monitor.is_valid(), "revalidation caught the revocation");
        assert!(
            home.subscribers_of(cert.id()).is_empty(),
            "a dead id registers nothing"
        );
        assert_eq!(f.net.run_until_idle(), 1, "the death was pushed at once");
    }

    #[test]
    fn prepopulated_host_with_a_third_party_credential_survives_restart() {
        use rand::SeedableRng;
        let f = fx();
        let u = LocalEntity::generate(
            "U",
            drbac_crypto::SchnorrGroup::test_256(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        // M may grant A.tp (A's admin grant); M grants it to U: a
        // third-party credential whose support is derivable in-wallet.
        let admin =
            f.a.delegate(Node::entity(&f.m), Node::role_admin(f.a.role("tp")))
                .sign(&f.a)
                .unwrap();
        let granted =
            f.m.delegate(Node::entity(&u), Node::role(f.a.role("tp")))
                .sign(&f.m)
                .unwrap();
        let pre = Wallet::new("pre", f.clock.clone());
        pre.publish(admin, vec![]).unwrap();
        pre.publish(granted, vec![]).unwrap();
        f.net.add_host("pre", pre);

        let query = || Request::DirectQuery {
            subject: Node::entity(&u),
            object: Node::role(f.a.role("tp")),
            constraints: vec![],
        };
        let proofs = |reply| match reply {
            Ok(Reply::Proofs(proofs)) => proofs.iter().map(|p| p.to_bytes()).collect::<Vec<_>>(),
            other => panic!("unexpected reply {other:?}"),
        };
        let before = proofs(f.net.request(&"pre".into(), query()));
        assert_eq!(
            before.len(),
            1,
            "granted through the third-party credential"
        );

        let store = f.net.crash_host(&"pre".into()).unwrap();
        let report = f.net.restart_host(&"pre".into(), &store).unwrap();
        assert_eq!((report.replayed, report.skipped), (2, 0));
        assert_eq!(proofs(f.net.request(&"pre".into(), query())), before);
    }

    #[test]
    fn restart_event_reports_recovery_counts_in_trace() {
        let f = fx();
        let home = wallet(&f, "obs-home");
        let cert = f.cert("r");
        home.wallet().publish(cert, vec![]).unwrap();
        let store = f.net.crash_host(&"obs-home".into()).unwrap();

        let recorder_lock = crate::testkit::RECORDER.lock().unwrap();
        let ring = drbac_obs::RingRecorder::install(256);
        let report = f.net.restart_host(&"obs-home".into(), &store).unwrap();
        drbac_obs::clear_recorder();
        drop(recorder_lock);
        assert_eq!(report.replayed, 1);

        // The restart event carries the full recovery accounting, so
        // `drbac trace` shows exactly what a rebooted wallet got back.
        let events = ring.drain();
        let mine = |e: &&drbac_obs::TraceEvent| {
            e.name == "drbac.net.sim.restart"
                && e.fields.iter().any(|(k, v)| {
                    *k == "addr" && *v == drbac_obs::FieldValue::from("obs-home".to_string())
                })
        };
        let restart = events.iter().find(mine).expect("restart event traced");
        let field = |k: &str| {
            restart
                .fields
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("replayed"), Some(drbac_obs::FieldValue::from(1usize)));
        assert_eq!(field("skipped"), Some(drbac_obs::FieldValue::from(0usize)));
        assert_eq!(field("torn_tail"), Some(drbac_obs::FieldValue::from(false)));
        assert!(field("truncated_bytes").is_some());
    }

    #[test]
    fn latency_jitter_is_seed_deterministic() {
        let elapsed = |seed: u64| {
            let f = fx();
            wallet(&f, "w1");
            f.net
                .set_fault_plan(Some(FaultPlan::seeded(seed).with_latency_jitter(Ticks(3))));
            for _ in 0..8 {
                f.net
                    .request(&"w1".into(), Request::FetchDeclarations)
                    .unwrap();
            }
            f.clock.now()
        };
        // 8 fault-free requests cost 16 ticks; jitter only adds.
        assert!(elapsed(5) >= Timestamp(16));
        assert_eq!(elapsed(5), elapsed(5), "same seed, same clock");
    }
}
