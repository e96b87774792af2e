//! The wallet itself.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use drbac_core::{
    AttrConstraint, DelegationId, Node, Proof, ProofValidator, SignedAttrDeclaration,
    SignedDelegation, SignedRevocation, SimClock, Ticks, Timestamp, ValidationContext,
    ValidationError, WalletAddr,
};
use drbac_graph::{DelegationGraph, SearchOptions, SearchStats};
use drbac_store::{StoreEvent, WalletStore};
use parking_lot::Mutex;

use crate::cache::{ProofCache, QueryKey, QueryRef};
use crate::dependents::{Dependent, Dependents, PushSink};
use crate::events::{DelegationEvent, InvalidationReason, SubscriptionId};
use crate::monitor::{MonitorCore, ProofMonitor};

/// Errors returned by wallet operations.
#[derive(Debug, Clone, PartialEq)]
pub enum WalletError {
    /// The credential (or a support proof) failed validation.
    Validation(ValidationError),
    /// A third-party delegation was published without the support proofs
    /// its issuer is required to provide.
    SupportNotProvided {
        /// Description of the missing right.
        needed: String,
    },
    /// No proof satisfying the query exists in this wallet.
    NoProof,
    /// A revocation arrived for a delegation this wallet does not hold.
    UnknownDelegation(DelegationId),
    /// The attached write-ahead store failed to journal the mutation
    /// (the mutation was NOT applied — journal-before-apply).
    Storage(String),
}

impl fmt::Display for WalletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalletError::Validation(e) => write!(f, "credential rejected: {e}"),
            WalletError::SupportNotProvided { needed } => {
                write!(
                    f,
                    "third-party publication must provide support for {needed}"
                )
            }
            WalletError::NoProof => f.write_str("no satisfying proof found"),
            WalletError::UnknownDelegation(id) => write!(f, "unknown delegation #{id}"),
            WalletError::Storage(e) => write!(f, "durable store rejected the mutation: {e}"),
        }
    }
}

impl std::error::Error for WalletError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalletError::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidationError> for WalletError {
    fn from(e: ValidationError) -> Self {
        WalletError::Validation(e)
    }
}

/// Coherence metadata for a cached remote credential (paper §4.2.2,
/// "coherent caching of delegations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The wallet the credential was fetched from.
    pub source: WalletAddr,
    /// When it was validated.
    pub fetched_at: Timestamp,
    /// Discovery-tag TTL; zero means "no monitoring required".
    pub ttl: Ticks,
}

impl CacheEntry {
    /// `true` once the TTL has lapsed and the copy needs revalidation.
    pub fn is_stale(&self, now: Timestamp) -> bool {
        self.ttl.0 > 0 && now > self.fetched_at.after(self.ttl)
    }
}

type WatchCallback = Box<dyn Fn(ProofMonitor) + Send + Sync>;

struct ProofWatch {
    subject: Node,
    object: Node,
    constraints: Vec<AttrConstraint>,
    callback: WatchCallback,
}

pub(crate) struct WalletState {
    pub(crate) addr: WalletAddr,
    pub(crate) clock: SimClock,
    /// The delegation store, sharded behind per-shard locks so concurrent
    /// provers and publishers don't serialize (there is deliberately no
    /// outer wallet-wide graph lock any more).
    pub(crate) graph: DelegationGraph,
    /// Local subscriptions and proof monitors, by the credential whose
    /// death they wait for (`dependents.rs`).
    pub(crate) dependents: Arc<Dependents>,
    watches: Mutex<Vec<ProofWatch>>,
    pub(crate) cache_meta: Mutex<HashMap<DelegationId, CacheEntry>>,
    pub(crate) signed_declarations: Mutex<Vec<SignedAttrDeclaration>>,
    /// The revocation-coherent direct-query answer cache; entries track
    /// the delegation ids their proofs depend on and die with them.
    pub(crate) proof_cache: ProofCache,
    cache_enabled: std::sync::atomic::AtomicBool,
    /// The attached write-ahead store, if any. Mutations are journaled
    /// here *before* they are applied to the graph.
    pub(crate) journal: Mutex<Option<Arc<WalletStore>>>,
    /// The attached delegation index, if any (see `planner.rs`). The
    /// handle is cloned out before use so index scans never run under
    /// this lock.
    pub(crate) index: Mutex<Option<Arc<crate::planner::IndexHandle>>>,
    /// Min-heap of `(expiry, id)` over every inserted bounded-lifetime
    /// credential: the expiry sweep's O(expired) fallback when no index
    /// is attached. Entries are discarded lazily on pop (a revoked or
    /// re-inserted credential leaves a stale entry behind).
    pub(crate) expiry_heap:
        Mutex<std::collections::BinaryHeap<std::cmp::Reverse<(Timestamp, DelegationId)>>>,
}

/// A dRBAC wallet (paper Figure 1). Cheap to clone; clones share state.
///
/// # Example
///
/// The single-wallet flow: publish, query, monitor, revoke.
///
/// ```
/// use drbac_core::{LocalEntity, Node, SignedRevocation, SimClock, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// use drbac_wallet::Wallet;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(51);
/// # let g = SchnorrGroup::test_256();
/// let a = LocalEntity::generate("A", g.clone(), &mut rng);
/// let m = LocalEntity::generate("M", g, &mut rng);
/// let clock = SimClock::new();
/// let wallet = Wallet::new("wallet.a.example", clock.clone());
///
/// let cert = a.delegate(Node::entity(&m), Node::role(a.role("r"))).sign(&a)?;
/// wallet.publish(cert.clone(), vec![])?;
///
/// let monitor = wallet
///     .query_direct(&Node::entity(&m), &Node::role(a.role("r")), &[])
///     .expect("proof exists");
/// assert!(monitor.is_valid());
///
/// let revocation = SignedRevocation::revoke(&cert, &a, clock.now())?;
/// wallet.revoke(&revocation)?;
/// assert!(!monitor.is_valid());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct Wallet {
    pub(crate) state: Arc<WalletState>,
}

impl fmt::Debug for Wallet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wallet")
            .field("addr", &self.state.addr)
            .field("delegations", &self.state.graph.len())
            .finish()
    }
}

impl Wallet {
    /// Creates an empty wallet at `addr` sharing `clock`.
    pub fn new(addr: impl Into<WalletAddr>, clock: SimClock) -> Self {
        Wallet {
            state: Arc::new(WalletState {
                addr: addr.into(),
                clock,
                graph: DelegationGraph::new(),
                dependents: Arc::default(),
                watches: Mutex::new(Vec::new()),
                cache_meta: Mutex::new(HashMap::new()),
                signed_declarations: Mutex::new(Vec::new()),
                proof_cache: ProofCache::default(),
                cache_enabled: std::sync::atomic::AtomicBool::new(true),
                journal: Mutex::new(None),
                index: Mutex::new(None),
                expiry_heap: Mutex::new(std::collections::BinaryHeap::new()),
            }),
        }
    }

    /// Attaches a write-ahead store: every subsequent mutating call is
    /// journaled to it before being applied, so the wallet's durable
    /// state can be rebuilt by [`Wallet::recover_from_store`] after a
    /// crash. Replaces any previously attached store.
    pub fn attach_journal(&self, store: Arc<WalletStore>) {
        *self.state.journal.lock() = Some(store);
    }

    /// Detaches the journal, returning it if one was attached.
    /// Subsequent mutations are no longer logged.
    pub fn detach_journal(&self) -> Option<Arc<WalletStore>> {
        self.state.journal.lock().take()
    }

    /// Whether a write-ahead store is currently attached.
    pub fn journaling(&self) -> bool {
        self.state.journal.lock().is_some()
    }

    /// Journals `event` to the attached store (no-op when detached).
    /// Called *before* applying the mutation, and never while holding
    /// the graph lock — the store has its own lock and fsyncs inside it.
    fn journal(&self, event: &StoreEvent) -> Result<(), WalletError> {
        let store = self.state.journal.lock().clone();
        if let Some(store) = store {
            let seq = store
                .append(event)
                .map_err(|e| WalletError::Storage(e.to_string()))?;
            // Same event, same sequence number, into the index — one
            // atomic batch per record. An index failure degrades the
            // planner to graph walks; it never fails the mutation (the
            // WAL, the source of truth, already holds the event).
            self.index_apply(seq, event);
        }
        Ok(())
    }

    /// As [`Wallet::journal`] for paths that must not fail (event
    /// delivery, expiry sweeps): a journal error is counted and traced
    /// but the in-memory mutation proceeds.
    fn journal_best_effort(&self, event: &StoreEvent) {
        if let Err(e) = self.journal(event) {
            drbac_obs::static_counter!("drbac.wallet.journal.error.count").inc();
            drbac_obs::event!(
                "drbac.wallet.journal.error",
                "error" => e.to_string(),
            );
        }
    }

    /// Enables or disables the direct-query answer cache (enabled by
    /// default; disable for measurement).
    pub fn set_query_cache(&self, enabled: bool) {
        self.state.cache_enabled.store(enabled, Ordering::SeqCst);
        if !enabled {
            self.state.proof_cache.clear();
        }
    }

    /// Number of direct-query answers currently held in the proof cache
    /// (diagnostics; both positive and negative answers count).
    pub fn cached_query_answers(&self) -> usize {
        self.state.proof_cache.len()
    }

    /// Search options for the current time and constraints.
    fn search_opts(&self, now: Timestamp, constraints: &[AttrConstraint]) -> SearchOptions {
        let mut opts = SearchOptions::at(now);
        opts.constraints = constraints.to_vec();
        opts
    }

    /// The context this wallet validates proofs in: the shared
    /// declaration set (an `Arc` clone) and the live graph as the
    /// revocation lookup. A validation reads one id shard per credential
    /// it visits, so it costs O(proof) however long the wallet's
    /// revocation history is. Built only where a proof is about to be
    /// validated (`drbac.wallet.validation_ctx.count`).
    ///
    /// Reading marks live instead of from a snapshot taken up front is
    /// safe on the answer path: `revoke` marks the graph *before* it
    /// sweeps the proof cache (`invalidate_dep`), `cached_answer`
    /// captures the cache epoch before it searches, so an answer that
    /// raced a revoke is never stored.
    fn validation_ctx(&self, now: Timestamp) -> ValidationContext<&DelegationGraph> {
        drbac_obs::static_counter!("drbac.wallet.validation_ctx.count").inc();
        ValidationContext::at(now)
            .with_declarations(self.state.graph.declarations())
            .with_revocations(&self.state.graph)
    }

    /// This wallet's address.
    pub fn addr(&self) -> &WalletAddr {
        &self.state.addr
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.state.clock
    }

    /// Current logical time.
    pub fn now(&self) -> Timestamp {
        self.state.clock.now()
    }

    /// Number of stored delegations.
    pub fn len(&self) -> usize {
        self.state.graph.len()
    }

    /// `true` if no delegations are stored.
    pub fn is_empty(&self) -> bool {
        self.state.graph.is_empty()
    }

    /// `true` if the wallet holds delegation `id`.
    pub fn contains(&self, id: DelegationId) -> bool {
        self.state.graph.contains(id)
    }

    /// `true` if delegation `id` is marked revoked here. This reads a
    /// single id shard — the fast path for per-credential liveness checks
    /// (the network layer calls it on every served proof).
    pub fn is_revoked(&self, id: DelegationId) -> bool {
        self.state.graph.is_revoked(id)
    }

    /// Fetches a stored delegation.
    pub fn get(&self, id: DelegationId) -> Option<Arc<SignedDelegation>> {
        self.state.graph.get(id)
    }

    /// Inserts a credential into the graph, tracking bounded lifetimes
    /// in the expiry heap so the sweep stays O(expired) even without an
    /// index attached. Every credential insertion goes through here.
    pub(crate) fn insert_cert(&self, cert: Arc<SignedDelegation>) -> DelegationId {
        if let Some(at) = cert.delegation().expires() {
            self.state
                .expiry_heap
                .lock()
                .push(std::cmp::Reverse((at, cert.id())));
        }
        self.state.graph.insert(cert)
    }

    /// Publishes a credential with its issuer-provided support proofs.
    ///
    /// Verifies the credential and each support proof cryptographically,
    /// and enforces the paper's publication rule: a third-party delegation
    /// (or one carrying foreign attribute clauses) must come with support
    /// proofs for every right its issuer exercises — either in this call
    /// or already present in the wallet.
    ///
    /// # Errors
    ///
    /// [`WalletError::Validation`] or [`WalletError::SupportNotProvided`].
    pub fn publish(
        &self,
        cert: impl Into<Arc<SignedDelegation>>,
        supports: Vec<Proof>,
    ) -> Result<DelegationId, WalletError> {
        let cert: Arc<SignedDelegation> = cert.into();
        let _span = drbac_obs::span!(
            "drbac.wallet.publish",
            "supports" => supports.len(),
        );
        let _timer = drbac_obs::static_histogram!("drbac.wallet.publish.ns").start_timer();
        drbac_obs::static_counter!("drbac.wallet.publish.count").inc();
        let now = self.now();
        cert.verify(now)?;

        // Validate each provided support proof in isolation against the
        // wallet's declarations and its revocation marks as they stand
        // now — the same reads `provide_support` makes when the journaled
        // `Support` event is replayed at recovery. Replay applies events
        // in journal order, so every mark that preceded this publish
        // precedes it again: what is accepted (and committed) here is
        // re-accepted then, and a support holding a locally revoked
        // credential is refused both times. A first-party publish has no
        // support to validate and builds no context at all.
        if !supports.is_empty() {
            let validator = ProofValidator::new(self.validation_ctx(now));
            for support in &supports {
                validator
                    .validate(support)
                    .map_err(WalletError::Validation)?;
            }
        }

        // Journal the validated supports before applying them (never
        // while holding a shard lock — the store fsyncs under its own).
        for support in &supports {
            self.journal(&StoreEvent::Support(support.clone()))?;
        }

        let graph = &self.state.graph;
        for support in supports {
            for c in support.all_certs() {
                self.insert_cert(c);
            }
            graph.provide_support(support);
        }

        // Enforce provided-support rule for every right the issuer needs.
        let delegation = cert.delegation();
        let issuer = delegation.issuer();
        let mut needed: Vec<Node> = Vec::new();
        if let Some(right) = delegation.required_support() {
            needed.push(right);
        }
        for clause in delegation.foreign_clauses() {
            let admin = Node::attr_admin(clause.attr().clone());
            if !needed.contains(&admin) {
                needed.push(admin);
            }
        }
        if !needed.is_empty() {
            // The derivability check below queries the live graph from
            // the issuer; a lazily booted wallet must hydrate that
            // neighborhood first.
            self.plan_forward(&Node::Entity(issuer));
        }
        for right in &needed {
            let provided = graph.provided_support(issuer, right).is_some();
            let derivable = provided || {
                let (p, _) =
                    graph.direct_query(&Node::Entity(issuer), right, &SearchOptions::at(now));
                p.is_some()
            };
            if !derivable {
                return Err(WalletError::SupportNotProvided {
                    needed: right.to_string(),
                });
            }
        }

        // Journal before insertion. Another publisher may slip in
        // between — insertion is idempotent.
        self.journal(&StoreEvent::Publish(Arc::clone(&cert)))?;
        let id = self.insert_cert(Arc::clone(&cert));
        // A new edge can only flip cached negatives, never break a
        // cached proof.
        self.state.proof_cache.invalidate_negatives();
        self.run_watches();
        Ok(id)
    }

    /// Publishes a signed attribute declaration (base value) after
    /// verifying it.
    ///
    /// # Errors
    ///
    /// [`WalletError::Validation`] if the declaration fails verification.
    pub fn publish_declaration(&self, decl: &SignedAttrDeclaration) -> Result<(), WalletError> {
        drbac_obs::static_counter!("drbac.wallet.publish_declaration.count").inc();
        decl.verify(self.now())?;
        let held = self.state.signed_declarations.lock().contains(decl);
        let declared = decl.declaration();
        // A held declaration whose base is still the one in force changes
        // nothing: discovery re-publishes every declaration of each wallet
        // it first contacts, and must not wipe the cached grants each time.
        if held && self.state.graph.declarations().base(&declared.attr) == Some(declared.base) {
            return Ok(());
        }
        if !held {
            self.journal(&StoreEvent::Declare(decl.clone()))?;
        }
        self.state.graph.insert_declaration(declared);
        // Declarations re-base constraint evaluation and can flip answers
        // in either direction — drop everything, and let a pending watch
        // see a proof the new base admits.
        self.state.proof_cache.clear();
        {
            let mut signed = self.state.signed_declarations.lock();
            if !signed.contains(decl) {
                signed.push(decl.clone());
            }
        }
        self.run_watches();
        Ok(())
    }

    /// Every signed attribute declaration this wallet can re-serve to
    /// peers (the network layer forwards these alongside proofs so remote
    /// verifiers learn base values).
    pub fn signed_declarations(&self) -> Vec<SignedAttrDeclaration> {
        self.state.signed_declarations.lock().clone()
    }

    /// Absorbs a validated remote proof into the local cache: verifies the
    /// whole proof, then inserts every credential with coherence metadata
    /// (`source`, TTL from the relevant discovery tags).
    ///
    /// This is paper §5 step 5: "Delegations from this proof are inserted
    /// into the local wallet, which is trusted to verify signatures and
    /// establish its own validation subscriptions."
    ///
    /// A proof that adds nothing — every credential already held with
    /// coherence metadata, every support already registered — is still
    /// validated, and then changes nothing: no journal record, no cache
    /// invalidation, no watch re-run.
    ///
    /// # Errors
    ///
    /// [`WalletError::Validation`] if the proof fails validation.
    pub fn absorb_proof(&self, proof: &Proof, source: &WalletAddr) -> Result<(), WalletError> {
        let _span = drbac_obs::span!(
            "drbac.wallet.absorb",
            "chain_len" => proof.chain_len(),
        );
        drbac_obs::static_counter!("drbac.wallet.absorb.count").inc();
        let now = self.now();
        let certs = proof.all_certs();
        // Discovery re-fetches credentials this wallet already holds and
        // already verified; a byte-identical copy inherits that verdict
        // instead of paying the signature check again.
        for cert in &certs {
            if let Some(stored) = self.state.graph.get(cert.id()) {
                cert.adopt_signature_memo(&stored);
            }
        }
        // Deliberately blind to local revocation marks: discovery absorbs
        // what the remote wallet served and the monitor registered next
        // (`monitor_external_proof`) is what rejects a locally revoked
        // credential. Checking here would change what discovery absorbs —
        // a decision about semantics (ROADMAP item 16), not about cost.
        ProofValidator::new(
            ValidationContext::at(now).with_declarations(self.state.graph.declarations()),
        )
        .validate(proof)
        .map_err(WalletError::Validation)?;
        let graph = &self.state.graph;
        // Validation first, so a twin with an altered byte is refused
        // even when its id is held. Discovery re-delivers mostly what the
        // gateway already absorbed; such a proof costs its validation only.
        let held = {
            let cache = self.state.cache_meta.lock();
            certs
                .iter()
                .all(|c| cache.contains_key(&c.id()) && graph.contains(c.id()))
        };
        if held && supports_registered(graph, proof) {
            drbac_obs::static_counter!("drbac.wallet.absorb.unchanged.count").inc();
            return Ok(());
        }
        self.journal(&StoreEvent::Absorb {
            proof: proof.clone(),
            source: source.clone(),
        })?;
        let mut cache = self.state.cache_meta.lock();
        for cert in certs {
            let ttl = cert
                .delegation()
                .subject_tag()
                .or(cert.delegation().object_tag())
                .map(|t| t.ttl())
                .unwrap_or(Ticks(0));
            drbac_obs::static_counter!("drbac.wallet.absorb.certs.count").inc();
            let id = self.insert_cert(Arc::clone(&cert));
            cache.entry(id).or_insert(CacheEntry {
                source: source.clone(),
                fetched_at: now,
                ttl,
            });
        }
        // Register the sub-proofs so future third-party steps revalidate.
        register_supports(graph, proof);
        drop(cache);
        self.state.proof_cache.invalidate_negatives();
        self.run_watches();
        Ok(())
    }

    /// Coherence metadata for a cached delegation, if it was absorbed from
    /// a remote wallet.
    pub fn cache_entry(&self, id: DelegationId) -> Option<CacheEntry> {
        self.state.cache_meta.lock().get(&id).cloned()
    }

    /// Records a successful revalidation of a cached credential: its TTL
    /// window restarts now. Returns `false` for unknown cache entries.
    pub fn mark_refreshed(&self, id: DelegationId) -> bool {
        let now = self.now();
        match self.state.cache_meta.lock().get_mut(&id) {
            Some(entry) => {
                entry.fetched_at = now;
                drbac_obs::static_counter!("drbac.wallet.cache.refresh.count").inc();
                true
            }
            None => false,
        }
    }

    /// Coherence metadata for every cached delegation, as
    /// `(delegation, entry)` pairs in id order, so a simulated recovery
    /// repeats exactly. Used to re-register push subscriptions at each
    /// entry's source wallet after the source restarts.
    pub fn cache_entries(&self) -> Vec<(DelegationId, CacheEntry)> {
        let mut entries: Vec<(DelegationId, CacheEntry)> = (self.state.cache_meta.lock().iter())
            .map(|(id, entry)| (*id, entry.clone()))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        entries
    }

    /// Ids of cached entries whose TTL has lapsed.
    pub fn stale_entries(&self) -> Vec<DelegationId> {
        let now = self.now();
        self.state
            .cache_meta
            .lock()
            .iter()
            .filter(|(_, e)| e.is_stale(now))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Direct query (§4.1): find, validate, and monitor a proof
    /// `subject ⇒ object` under `constraints`.
    ///
    /// Returns `None` when no valid satisfying proof exists.
    pub fn query_direct(
        &self,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
    ) -> Option<ProofMonitor> {
        self.query_direct_with_stats(subject, object, constraints).0
    }

    /// As [`Wallet::query_direct`], also returning search work counters.
    pub fn query_direct_with_stats(
        &self,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
    ) -> (Option<ProofMonitor>, SearchStats) {
        let _span = drbac_obs::span!(
            "drbac.wallet.query",
            "constraints" => constraints.len(),
        );
        let _timer = drbac_obs::static_histogram!("drbac.wallet.query.ns").start_timer();
        let now = self.now();
        match self.cached_answer(subject, object, constraints, now) {
            (Some((proof, summary)), stats) => (Some(self.monitor_proof(proof, summary)), stats),
            (None, stats) => (None, stats),
        }
    }

    /// Shared direct-query core: serve from the proof cache when
    /// possible, otherwise search + validate and populate the cache. The
    /// cache epoch is captured *before* the search so an invalidation
    /// racing with us discards our insert rather than losing the
    /// invalidation.
    fn cached_answer(
        &self,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
        now: Timestamp,
    ) -> (Option<(Proof, drbac_core::AttrSummary)>, SearchStats) {
        let start = std::time::Instant::now();
        let cache_enabled = self.state.cache_enabled.load(Ordering::SeqCst);
        if cache_enabled {
            let key = QueryRef {
                subject,
                object,
                constraints,
            };
            if let Some(found) = self.state.proof_cache.get(&key, now) {
                drbac_obs::static_counter!("drbac.wallet.query.cache_hit.count").inc();
                drbac_obs::static_histogram!("drbac.wallet.query.warm.ns")
                    .record(start.elapsed().as_nanos() as u64);
                return (found, SearchStats::default());
            }
        }
        drbac_obs::static_counter!("drbac.wallet.query.cache_miss.count").inc();

        // The epoch is taken before hydration: an index read failure
        // inside it moves the epoch, so a denial it caused is not cached.
        let epoch = self.state.proof_cache.epoch();
        self.plan_forward(subject);
        let opts = self.search_opts(now, constraints);
        let (proof, stats) = self.state.graph.direct_query(subject, object, &opts);
        let answer = proof.and_then(|proof| {
            ProofValidator::new(self.validation_ctx(now))
                .validate_query(&proof, subject, object, constraints)
                .ok()
                .map(|summary| (proof, summary))
        });
        if cache_enabled {
            let key = QueryKey::new(subject, object, constraints);
            self.state.proof_cache.insert(key, answer.clone(), epoch);
        }
        drbac_obs::static_histogram!("drbac.wallet.query.cold.ns")
            .record(start.elapsed().as_nanos() as u64);
        (answer, stats)
    }

    /// As [`Wallet::query_direct`] but returning the bare validated proof
    /// without registering a monitor — the form used when answering
    /// remote queries, where monitoring happens at the requester's wallet.
    /// Shares the proof cache with [`Wallet::query_direct`].
    pub fn find_proof(
        &self,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
    ) -> Option<Proof> {
        let now = self.now();
        self.cached_answer(subject, object, constraints, now)
            .0
            .map(|(proof, _)| proof)
    }

    /// Subject query (§4.1): all proofs `subject ⇒ *` not violating
    /// `constraints`.
    pub fn query_subject(&self, subject: &Node, constraints: &[AttrConstraint]) -> Vec<Proof> {
        self.plan_forward(subject);
        let opts = self.search_opts(self.now(), constraints);
        self.state.graph.subject_query(subject, &opts).0
    }

    /// Object query (§4.1): all proofs `* ⇒ object` not violating
    /// `constraints`.
    pub fn query_object(&self, object: &Node, constraints: &[AttrConstraint]) -> Vec<Proof> {
        self.plan_reverse(object);
        let opts = self.search_opts(self.now(), constraints);
        self.state.graph.object_query(object, &opts).0
    }

    /// Registers a freshly discovered support proof after validating it
    /// (paper §4.2.1: "it may become necessary at some point to discover
    /// new supporting delegations").
    ///
    /// # Errors
    ///
    /// [`WalletError::Validation`] if the proof fails validation here.
    pub fn provide_support(&self, support: Proof) -> Result<(), WalletError> {
        let now = self.now();
        ProofValidator::new(self.validation_ctx(now)).validate(&support)?;
        self.journal(&StoreEvent::Support(support.clone()))?;
        for cert in support.all_certs() {
            self.insert_cert(cert);
        }
        self.state.graph.provide_support(support);
        self.state.proof_cache.invalidate_negatives();
        self.run_watches();
        Ok(())
    }

    /// Third-party delegations in this wallet whose issuer's authority
    /// can no longer be proven locally (support missing, revoked, or
    /// expired). Each entry is `(issuer, needed right, acting-as hints)` —
    /// the inputs for remote support re-discovery.
    pub fn unsupported_third_party(&self) -> Vec<(drbac_core::EntityId, Node, Vec<Node>)> {
        let now = self.now();
        let graph = &self.state.graph;
        // Built at the first credential that owes a support; a sweep that
        // finds none validates nothing and builds nothing.
        let mut validator = None;
        let mut out = Vec::new();
        // With an index attached, the candidate set is the `3/` audit
        // prefix — exactly the credentials carrying a support obligation
        // — instead of a walk over every credential in the wallet.
        let candidates = self
            .planned_audit_certs()
            .unwrap_or_else(|| graph.iter_certs());
        for cert in candidates {
            if graph.is_revoked(cert.id()) || cert.delegation().is_expired(now) {
                continue;
            }
            let d = cert.delegation();
            let mut needed: Vec<Node> = Vec::new();
            if let Some(right) = d.required_support() {
                needed.push(right);
            }
            for clause in d.foreign_clauses() {
                let admin = Node::attr_admin(clause.attr().clone());
                if !needed.contains(&admin) {
                    needed.push(admin);
                }
            }
            if needed.is_empty() {
                continue;
            }
            let validator =
                validator.get_or_insert_with(|| ProofValidator::new(self.validation_ctx(now)));
            // A lazily booted wallet must see the issuer's local
            // credentials before the derivation query below can run.
            self.plan_forward(&Node::Entity(d.issuer()));
            for right in needed {
                let provided_ok = graph
                    .provided_support(d.issuer(), &right)
                    .is_some_and(|p| validator.validate(&p).is_ok());
                if provided_ok {
                    continue;
                }
                // Maybe derivable from local credentials anyway.
                let (derived, _) =
                    graph.direct_query(&Node::Entity(d.issuer()), &right, &SearchOptions::at(now));
                if derived.is_some_and(|p| validator.validate(&p).is_ok()) {
                    continue;
                }
                out.push((d.issuer(), right, d.acting_as().to_vec()));
            }
        }
        out
    }

    /// Wraps an externally obtained proof in a monitor after validating,
    /// against this wallet's context, that it answers the direct query
    /// `subject ⇒ object` under `constraints`.
    ///
    /// # Errors
    ///
    /// [`WalletError::Validation`] if the proof does not validate here or
    /// answers a different query.
    pub fn monitor_external_proof(
        &self,
        proof: Proof,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
    ) -> Result<ProofMonitor, WalletError> {
        let now = self.now();
        let summary = ProofValidator::new(self.validation_ctx(now)).validate_query(
            &proof,
            subject,
            object,
            constraints,
        )?;
        Ok(self.monitor_proof(proof, summary))
    }

    fn monitor_proof(&self, proof: Proof, summary: drbac_core::AttrSummary) -> ProofMonitor {
        drbac_obs::static_counter!("drbac.wallet.monitor.register.count").inc();
        let core = MonitorCore::new(proof, summary);
        self.state.dependents.watch(&core, |cert| self.death(cert));
        ProofMonitor { core }
    }

    /// Why `cert` is dead here, if it is: revoked, or past its expiry.
    fn death(&self, cert: &SignedDelegation) -> Option<InvalidationReason> {
        let expired = cert.delegation().is_expired(self.now());
        match self.state.graph.is_revoked(cert.id()) {
            true => Some(InvalidationReason::Revoked),
            false => expired.then_some(InvalidationReason::Expired),
        }
    }

    /// Number of proof monitors the wallet holds registrations for: those
    /// neither fired nor dropped (diagnostics).
    pub fn live_monitor_registrations(&self) -> usize {
        self.state.dependents.monitors()
    }

    /// Registers a delegation subscription: `callback` fires when `id` is
    /// invalidated (push model, §4.2.2). The subscription ends with the
    /// first invalidation it reports.
    pub fn subscribe(
        &self,
        id: DelegationId,
        callback: impl Fn(DelegationEvent) + Send + Sync + 'static,
    ) -> SubscriptionId {
        let callback = Dependent::Subscription(Box::new(callback));
        SubscriptionId(self.state.dependents.insert(vec![id], callback))
    }

    /// Removes a subscription. Returns `true` if it had neither been
    /// removed nor fired.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        self.state.dependents.remove(id.0).is_some()
    }

    /// Registers remote wallet `subscriber` for `id`'s invalidation,
    /// pushed through the accepting host's `sink` (§4.2.2); idempotent
    /// per `(id, subscriber, sink)`, ended by the first invalidation. An
    /// id dead here (revoked, or held past its expiry) registers nothing
    /// and is pushed its death at once; one never held registers.
    pub fn subscribe_remote(
        &self,
        id: DelegationId,
        subscriber: WalletAddr,
        sink: Arc<dyn PushSink>,
    ) {
        let dead = || match self.is_revoked(id) {
            true => Some(InvalidationReason::Revoked),
            false => self.get(id).and_then(|cert| self.death(&cert)),
        };
        (self.state.dependents).subscribe_remote(id, subscriber, sink, dead);
    }

    /// Removes `subscriber`'s subscription to `id` through `sink`;
    /// `true` if it had neither been removed nor fired.
    pub fn unsubscribe_remote(
        &self,
        id: DelegationId,
        subscriber: &WalletAddr,
        sink: &dyn PushSink,
    ) -> bool {
        self.state
            .dependents
            .unsubscribe_remote(id, subscriber, sink)
    }

    /// Remote wallets currently subscribed to `id` through `sink`.
    pub fn remote_subscribers(
        &self,
        id: DelegationId,
        sink: &dyn PushSink,
    ) -> BTreeSet<WalletAddr> {
        self.state.dependents.remote_subscribers(id, sink)
    }

    /// Registers a *pending-proof watch* (§4.2.2): if the wallet cannot
    /// currently provide a proof for the relationship, the callback fires
    /// as soon as a publication makes one available. If a proof already
    /// exists the callback fires immediately.
    pub fn watch_for_proof(
        &self,
        subject: Node,
        object: Node,
        constraints: Vec<AttrConstraint>,
        callback: impl Fn(ProofMonitor) + Send + Sync + 'static,
    ) {
        if let Some(monitor) = self.query_direct(&subject, &object, &constraints) {
            callback(monitor);
            return;
        }
        self.state.watches.lock().push(ProofWatch {
            subject,
            object,
            constraints,
            callback: Box::new(callback),
        });
    }

    fn run_watches(&self) {
        let mut pending = std::mem::take(&mut *self.state.watches.lock());
        let mut still_waiting = Vec::new();
        for watch in pending.drain(..) {
            match self.query_direct(&watch.subject, &watch.object, &watch.constraints) {
                Some(monitor) => (watch.callback)(monitor),
                None => still_waiting.push(watch),
            }
        }
        self.state.watches.lock().extend(still_waiting);
    }

    /// Honors a signed revocation: verifies it against the stored
    /// credential, marks it revoked, and pushes events to subscribers and
    /// proof monitors. Returns the number of notifications delivered.
    ///
    /// # Errors
    ///
    /// [`WalletError::UnknownDelegation`] if the delegation is not stored;
    /// [`WalletError::Validation`] if the notice fails verification.
    pub fn revoke(&self, revocation: &SignedRevocation) -> Result<usize, WalletError> {
        let id = revocation.delegation_id();
        let _span = drbac_obs::span!("drbac.wallet.revoke");
        drbac_obs::static_counter!("drbac.wallet.revoke.count").inc();
        let cert = self.get(id).ok_or(WalletError::UnknownDelegation(id))?;
        revocation.verify_against(&cert)?;
        self.journal(&StoreEvent::Revoke(revocation.clone()))?;
        self.state.graph.revoke(id);
        self.state.proof_cache.invalidate_dep(id);
        Ok(self.push_event(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Revoked,
        }))
    }

    /// Drops expired delegations, notifying their subscribers and
    /// monitors. Returns `(expired_ids, notifications)`: the ids it
    /// removed, found in O(expired), so a caller that fans the expiries
    /// out never has to look at the rest of the wallet. Drive this after
    /// advancing the clock.
    pub fn process_expiries(&self) -> (Vec<DelegationId>, usize) {
        let now = self.now();
        // Route via the `e/` expiry index when attached (one range scan
        // over exactly the lapsed entries), else the in-memory min-heap;
        // both are O(expired), not O(wallet), and both feed the
        // `drbac.wallet.expiry.scanned.count` counter.
        let expired: Vec<DelegationId> = match self.planned_expired(now) {
            Some(ids) => ids,
            None => self.heap_expired(now),
        };
        for id in &expired {
            self.journal_best_effort(&StoreEvent::Expire(*id));
        }
        let mut notifications = 0;
        for id in &expired {
            self.state.graph.remove(*id);
            self.state.proof_cache.invalidate_dep(*id);
        }
        for id in &expired {
            notifications += self.push_event(DelegationEvent {
                delegation: *id,
                reason: InvalidationReason::Expired,
            });
        }
        drbac_obs::static_counter!("drbac.wallet.expired.count").add(expired.len() as u64);
        (expired, notifications)
    }

    /// Delivers an event to local subscribers and proof monitors. Used
    /// directly by the network layer when a remote wallet pushes an
    /// invalidation for a cached credential.
    pub fn push_event(&self, event: DelegationEvent) -> usize {
        drbac_obs::static_counter!("drbac.wallet.push_event.count").inc();
        drbac_obs::event!(
            "drbac.wallet.push_event",
            "reason" => event.reason.to_string(),
        );
        // Journal the invalidation if it is news to this wallet (the
        // revoke()/process_expiries() paths journal before calling here,
        // in which case the graph already reflects it).
        let already_known = match event.reason {
            InvalidationReason::Revoked => self.state.graph.is_revoked(event.delegation),
            InvalidationReason::Expired => !self.state.graph.contains(event.delegation),
        };
        if !already_known {
            self.journal_best_effort(&match event.reason {
                InvalidationReason::Revoked => StoreEvent::RevokeMark(event.delegation),
                InvalidationReason::Expired => StoreEvent::Expire(event.delegation),
            });
        }
        // Mirror the invalidation into the local graph and drop every
        // cached proof depending on it FIRST, so that callbacks
        // re-entering the wallet (e.g. a resilient session immediately
        // re-authorizing) never see the dead credential — cached or live.
        if event.reason == InvalidationReason::Revoked {
            self.state.graph.revoke(event.delegation);
        } else {
            self.state.graph.remove(event.delegation);
        }
        self.state.cache_meta.lock().remove(&event.delegation);
        self.state.proof_cache.invalidate_dep(event.delegation);

        // A repeat of the event finds only what registered since. Local
        // dependents fire first; each sink then pushes its subscribers.
        let mut delivered = 0;
        let mut remote = Vec::new();
        for dependent in self.state.dependents.take(event.delegation) {
            match dependent {
                Dependent::Subscription(callback) => callback(event),
                Dependent::Monitor(core) => match core.upgrade() {
                    Some(core) => core.deliver(event),
                    None => continue, // dropped as the event came
                },
                Dependent::Remote(sink, targets) => {
                    remote.push((sink, targets));
                    continue;
                }
            }
            delivered += 1;
        }
        for (sink, targets) in remote {
            sink.push(event, targets);
        }
        delivered
    }

    /// Read access to the wallet's live [`DelegationGraph`], for
    /// diagnostics, experiments, and oracle checks. A lazily booted
    /// wallet is fully hydrated from its index first, so this is a
    /// whole-wallet view and costs O(wallet) once — prefer the direct
    /// accessors ([`Wallet::is_revoked`], [`Wallet::get`], the query
    /// methods) on hot paths. The graph is not frozen: writes that race
    /// `f` may or may not be visible to it.
    pub fn with_graph<T>(&self, f: impl FnOnce(&DelegationGraph) -> T) -> T {
        self.hydrate_all();
        f(&self.state.graph)
    }

    /// Clears *all* state — durable and volatile — returning the wallet
    /// to empty, the way a process crash loses everything in memory.
    /// Pair with [`Wallet::recover_from_store`] to model a full
    /// crash/restart cycle against a write-ahead store.
    pub fn wipe(&self) {
        self.state.graph.clear();
        self.state.signed_declarations.lock().clear();
        self.state.dependents.clear();
        self.state.watches.lock().clear();
        self.state.cache_meta.lock().clear();
        self.state.proof_cache.clear();
    }

    /// Rebuilds this wallet's durable contents from `store` by replaying
    /// every journal record. A torn or corrupt log tail is truncated by
    /// the store, never a panic. Every credential is re-verified on the
    /// way in; events that no longer apply (e.g. replaying a publication
    /// that has since expired) are counted as skipped.
    ///
    /// The attached journal (if any) is suspended for the duration so
    /// recovery does not re-journal its own replay.
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's medium fails, or if a
    /// checkpoint truncated the journal: its records then start above
    /// seq 1 and the history below lives only in the delegation index,
    /// so a replay would silently drop it. Corruption is *not* an error —
    /// it is reported in the [`RecoveryReport`].
    pub fn recover_from_store(
        &self,
        store: &Arc<WalletStore>,
    ) -> Result<RecoveryReport, WalletError> {
        let _timer = drbac_obs::static_histogram!("drbac.store.replay.ns").start_timer();
        let suspended = self.detach_journal();
        let result = self.recover_from_store_inner(store);
        if let Some(journal) = suspended {
            self.attach_journal(journal);
        }
        result
    }

    fn recover_from_store_inner(
        &self,
        store: &Arc<WalletStore>,
    ) -> Result<RecoveryReport, WalletError> {
        let recovered = store
            .recover()
            .map_err(|e| WalletError::Storage(e.to_string()))?;
        if let Some((first, _)) = recovered.events.first().filter(|(seq, _)| *seq > 1) {
            return Err(WalletError::Storage(format!(
                "the journal starts at seq {first}: a checkpoint moved the records below it \
                 into the delegation index, so only an indexed boot can recover this wallet \
                 (run `drbac store verify`)"
            )));
        }
        let mut report = RecoveryReport {
            truncated_bytes: recovered.truncated_bytes,
            torn_tail: recovered.torn_tail,
            ..RecoveryReport::default()
        };
        for (_, event) in recovered.events {
            match self.apply_event(event) {
                Ok(()) => report.replayed += 1,
                Err(_) => report.skipped += 1,
            }
        }
        Ok(report)
    }

    /// Applies one replayed journal record through the ordinary (fully
    /// re-verifying) mutation paths.
    pub(crate) fn apply_event(&self, event: StoreEvent) -> Result<(), WalletError> {
        match event {
            StoreEvent::Publish(cert) => {
                self.publish(cert, vec![])?;
            }
            StoreEvent::Declare(decl) => self.publish_declaration(&decl)?,
            StoreEvent::Support(proof) => self.provide_support(proof)?,
            StoreEvent::Absorb { proof, source } => self.absorb_proof(&proof, &source)?,
            StoreEvent::Revoke(revocation) => {
                self.revoke(&revocation)?;
            }
            StoreEvent::RevokeMark(id) => {
                self.state.graph.revoke(id);
                self.state.proof_cache.invalidate_dep(id);
            }
            StoreEvent::Expire(id) => {
                self.state.graph.remove(id);
                self.state.cache_meta.lock().remove(&id);
                self.state.proof_cache.invalidate_dep(id);
            }
        }
        Ok(())
    }
}

/// Counts from a [`Wallet::recover_from_store`] restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log records replayed successfully.
    pub replayed: usize,
    /// Log records that no longer applied.
    pub skipped: usize,
    /// Log-tail bytes dropped because they were torn or corrupt.
    pub truncated_bytes: u64,
    /// Whether the dropped bytes were an ordinary torn final record.
    pub torn_tail: bool,
}

/// Recursively registers every support proof found in `proof`.
fn register_supports(graph: &DelegationGraph, proof: &Proof) {
    for step in proof.steps() {
        for support in step.supports() {
            graph.provide_support(support.clone());
            register_supports(graph, support);
        }
    }
}

/// `true` if [`register_supports`] would leave `graph` as it is.
fn supports_registered(graph: &DelegationGraph, proof: &Proof) -> bool {
    proof.steps().iter().all(|step| {
        step.supports()
            .iter()
            .all(|s| graph.holds_support(s) && supports_registered(graph, s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{AttrDeclaration, AttrOp, LocalEntity, ProofStep};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;

    struct Fx {
        a: LocalEntity,
        b: LocalEntity,
        m: LocalEntity,
        clock: SimClock,
        wallet: Wallet,
    }

    fn fx() -> Fx {
        let mut rng = StdRng::seed_from_u64(61);
        let g = SchnorrGroup::test_256();
        let clock = SimClock::new();
        Fx {
            a: LocalEntity::generate("A", g.clone(), &mut rng),
            b: LocalEntity::generate("B", g.clone(), &mut rng),
            m: LocalEntity::generate("M", g, &mut rng),
            wallet: Wallet::new("w.example", clock.clone()),
            clock,
        }
    }

    #[test]
    fn publish_and_query_direct() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        assert_eq!(f.wallet.len(), 1);
        let monitor = f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .expect("proof");
        assert!(monitor.is_valid());
        assert_eq!(monitor.proof().chain_len(), 1);
    }

    #[test]
    fn publish_rejects_bad_credential() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .expires(Timestamp(0))
                .sign(&f.a)
                .unwrap();
        f.clock.advance(Ticks(10));
        assert!(matches!(
            f.wallet.publish(cert, vec![]),
            Err(WalletError::Validation(ValidationError::Expired { .. }))
        ));
    }

    #[test]
    fn third_party_publication_requires_support() {
        let f = fx();
        let member = f.a.role("member");
        let cert =
            f.b.delegate(Node::entity(&f.m), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap();
        // No support provided and none derivable: rejected.
        assert!(matches!(
            f.wallet.publish(cert.clone(), vec![]),
            Err(WalletError::SupportNotProvided { .. })
        ));
        // With the issuer-provided support proof: accepted.
        let grant =
            f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .sign(&f.a)
                .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
        f.wallet.publish(cert, vec![support]).unwrap();
        let monitor = f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(member), &[]);
        assert!(monitor.is_some());
    }

    #[test]
    fn invalid_support_proof_rejected_at_publication() {
        let f = fx();
        let member = f.a.role("member");
        let cert =
            f.b.delegate(Node::entity(&f.m), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap();
        // Support proof signed by the wrong party (m, not a) fails.
        let bogus_grant =
            f.b.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .sign(&f.b)
                .unwrap();
        let bogus = Proof::from_steps(vec![ProofStep::new(bogus_grant)]).unwrap();
        assert!(matches!(
            f.wallet.publish(cert.clone(), vec![bogus]),
            Err(WalletError::Validation(_))
        ));

        // A well-formed support is accepted while its credential lives …
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));
        let grant =
            f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .sign(&f.a)
                .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(grant.clone())]).unwrap();
        f.wallet.publish(cert, vec![support.clone()]).unwrap();
        let revocation = SignedRevocation::revoke(&grant, &f.a, f.clock.now()).unwrap();
        f.wallet.revoke(&revocation).unwrap();
        // … and once that credential is revoked here, a cold query across
        // the third-party edge is denied (asked twice: nothing positive
        // was cached), and the same support no longer admits anything.
        let late =
            f.b.delegate(Node::entity(&f.a), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap();
        let denied_everywhere = |wallet: &Wallet| {
            for _ in 0..2 {
                assert!(wallet
                    .find_proof(&Node::entity(&f.m), &Node::role(member.clone()), &[])
                    .is_none());
            }
            assert_eq!(
                wallet.publish(late.clone(), vec![support.clone()]),
                Err(WalletError::Validation(ValidationError::Revoked(
                    grant.id()
                )))
            );
        };
        denied_everywhere(&f.wallet);
        // Replay re-accepts the support journaled before the mark and
        // ends in the same state: same credentials, same refusals.
        let held = f.wallet.len();
        f.wallet.wipe();
        let report = f.wallet.recover_from_store(&store).unwrap();
        assert_eq!(report.skipped, 0);
        assert_eq!(f.wallet.len(), held);
        denied_everywhere(&f.wallet);
    }

    #[test]
    fn revocation_notifies_monitor_and_subscriber() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        let id = f.wallet.publish(cert.clone(), vec![]).unwrap();

        let monitor = f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .unwrap();
        let events = Arc::new(AtomicUsize::new(0));
        let events2 = Arc::clone(&events);
        f.wallet.subscribe(id, move |e| {
            assert_eq!(e.reason, InvalidationReason::Revoked);
            events2.fetch_add(1, Ordering::SeqCst);
        });

        let revocation = SignedRevocation::revoke(&cert, &f.a, f.clock.now()).unwrap();
        let delivered = f.wallet.revoke(&revocation).unwrap();
        assert_eq!(delivered, 2, "one subscription + one monitor");
        assert_eq!(events.load(Ordering::SeqCst), 1);
        assert!(!monitor.is_valid());

        // Revoked delegation no longer answers queries.
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .is_none());
    }

    #[test]
    fn revocation_of_unknown_delegation_errors() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        let revocation = SignedRevocation::revoke(&cert, &f.a, Timestamp(0)).unwrap();
        assert!(matches!(
            f.wallet.revoke(&revocation),
            Err(WalletError::UnknownDelegation(_))
        ));
    }

    #[test]
    fn expiry_processing_notifies_and_purges() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .expires(Timestamp(10))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        let monitor = f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .unwrap();

        f.clock.advance(Ticks(11));
        let (expired, notified) = f.wallet.process_expiries();
        assert_eq!(expired.len(), 1);
        assert_eq!(notified, 1);
        assert!(!monitor.is_valid());
        assert!(f.wallet.is_empty());
    }

    #[test]
    fn unsubscribe_stops_events() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        let id = f.wallet.publish(cert.clone(), vec![]).unwrap();
        let events = Arc::new(AtomicUsize::new(0));
        let events2 = Arc::clone(&events);
        let sub = f.wallet.subscribe(id, move |_| {
            events2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(f.wallet.unsubscribe(sub));
        assert!(!f.wallet.unsubscribe(sub));
        let revocation = SignedRevocation::revoke(&cert, &f.a, Timestamp(0)).unwrap();
        f.wallet.revoke(&revocation).unwrap();
        assert_eq!(events.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn constraint_queries_respect_declarations() {
        let f = fx();
        let bw = f.a.attr("BW", AttrOp::Min);
        let decl = drbac_core::SignedAttrDeclaration::sign(
            AttrDeclaration::new(bw.clone(), 200.0).unwrap(),
            &f.a,
        )
        .unwrap();
        f.wallet.publish_declaration(&decl).unwrap();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .with_attr(bw.clone(), 100.0)
                .unwrap()
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();

        let ok = f.wallet.query_direct(
            &Node::entity(&f.m),
            &Node::role(f.a.role("r")),
            &[AttrConstraint::at_least(bw.clone(), 100.0)],
        );
        assert!(ok.is_some());
        assert_eq!(ok.unwrap().summary().get(&bw), Some(100.0));
        let too_much = f.wallet.query_direct(
            &Node::entity(&f.m),
            &Node::role(f.a.role("r")),
            &[AttrConstraint::at_least(bw, 150.0)],
        );
        assert!(too_much.is_none());
    }

    #[test]
    fn watch_for_proof_fires_on_publication() {
        let f = fx();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        f.wallet.watch_for_proof(
            Node::entity(&f.m),
            Node::role(f.a.role("r")),
            vec![],
            move |monitor| {
                assert!(monitor.is_valid());
                fired2.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_declaration_that_admits_a_proof_fires_its_watch_and_a_held_one_clears_nothing() {
        let f = fx();
        // Undeclared, a subtracted quota starts at 0: the grant's -5
        // leaves nothing, so a demand for 10 fails until the owner
        // declares a base of 20.
        let quota = f.a.attr("quota", AttrOp::Subtract);
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .with_attr(quota.clone(), 5.0)
                .unwrap()
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        let demand = vec![AttrConstraint::at_least(quota.clone(), 10.0)];
        f.wallet.watch_for_proof(
            Node::entity(&f.m),
            Node::role(f.a.role("r")),
            demand.clone(),
            move |_| {
                fired2.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        let decl =
            SignedAttrDeclaration::sign(AttrDeclaration::new(quota, 20.0).unwrap(), &f.a).unwrap();
        f.wallet.publish_declaration(&decl).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // The cached grant survives the same declaration published again.
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &demand)
            .is_some());
        let cached = f.wallet.cached_query_answers();
        f.wallet.publish_declaration(&decl).unwrap();
        assert_eq!(f.wallet.cached_query_answers(), cached);
    }

    #[test]
    fn watch_fires_immediately_if_proof_exists() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        f.wallet.watch_for_proof(
            Node::entity(&f.m),
            Node::role(f.a.role("r")),
            vec![],
            move |_| {
                fired2.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn absorb_proof_caches_with_ttl_metadata() {
        let f = fx();
        let tag = drbac_core::DiscoveryTag::new("home.example").with_ttl(Ticks(30));
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .subject_tag(tag)
                .sign(&f.a)
                .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(cert.clone())]).unwrap();
        let source = WalletAddr::new("remote.example");
        f.wallet.absorb_proof(&proof, &source).unwrap();
        assert_eq!(f.wallet.len(), 1);
        let entry = f.wallet.cache_entry(cert.id()).expect("cache metadata");
        assert_eq!(entry.source, source);
        assert_eq!(entry.ttl, Ticks(30));
        assert!(f.wallet.stale_entries().is_empty());
        f.clock.advance(Ticks(31));
        assert_eq!(f.wallet.stale_entries(), vec![cert.id()]);
    }

    #[test]
    fn push_event_handles_remote_invalidations() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(cert.clone())]).unwrap();
        f.wallet
            .absorb_proof(&proof, &WalletAddr::new("remote"))
            .unwrap();
        let monitor = f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .unwrap();
        // A remote wallet pushes "revoked" for the cached credential.
        let n = f.wallet.push_event(DelegationEvent {
            delegation: cert.id(),
            reason: InvalidationReason::Revoked,
        });
        assert_eq!(n, 1);
        assert!(!monitor.is_valid());
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .is_none());
    }

    #[test]
    fn dropped_monitors_are_garbage_collected() {
        let f = fx();
        let role = Node::role(f.a.role("r"));
        f.wallet
            .publish(
                f.a.delegate(Node::entity(&f.m), role.clone())
                    .sign(&f.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        f.wallet.set_query_cache(false); // each query builds a fresh monitor
        for _ in 0..50 {
            let m = f
                .wallet
                .query_direct(&Node::entity(&f.m), &role, &[])
                .unwrap();
            drop(m);
        }
        // One more query; GC keeps the registration list from growing
        // without bound (only the newest registration is live).
        let keep = f
            .wallet
            .query_direct(&Node::entity(&f.m), &role, &[])
            .unwrap();
        assert_eq!(f.wallet.live_monitor_registrations(), 1);
        drop(keep);
    }

    #[test]
    fn query_cache_hits_and_invalidates() {
        let f = fx();
        let role = Node::role(f.a.role("r"));
        let cert =
            f.a.delegate(Node::entity(&f.m), role.clone())
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert.clone(), vec![]).unwrap();

        // First query does real work; second hits the cache (zero stats).
        let (m1, s1) = f
            .wallet
            .query_direct_with_stats(&Node::entity(&f.m), &role, &[]);
        assert!(m1.is_some());
        assert!(s1.edges_considered > 0);
        let (m2, s2) = f
            .wallet
            .query_direct_with_stats(&Node::entity(&f.m), &role, &[]);
        assert!(m2.is_some());
        assert_eq!(s2, SearchStats::default(), "cache hit does no search work");
        // Cached monitors are still real monitors.
        let m2 = m2.unwrap();
        assert!(m2.is_valid());

        // Negative answers cache too.
        let missing = Node::role(f.a.role("missing"));
        let (n1, ns1) = f
            .wallet
            .query_direct_with_stats(&Node::entity(&f.m), &missing, &[]);
        assert!(n1.is_none() && ns1.edges_considered > 0);
        let (n2, ns2) = f
            .wallet
            .query_direct_with_stats(&Node::entity(&f.m), &missing, &[]);
        assert!(n2.is_none());
        assert_eq!(ns2, SearchStats::default());

        // A revocation invalidates: the cached positive answer disappears
        // and the monitor from the cached proof is notified.
        let revocation = SignedRevocation::revoke(&cert, &f.a, f.clock.now()).unwrap();
        f.wallet.revoke(&revocation).unwrap();
        assert!(!m2.is_valid());
        let (m3, _) = f
            .wallet
            .query_direct_with_stats(&Node::entity(&f.m), &role, &[]);
        assert!(m3.is_none());

        // Publication invalidates negative answers.
        f.wallet
            .publish(
                f.a.delegate(Node::entity(&f.m), missing.clone())
                    .sign(&f.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let (n3, _) = f
            .wallet
            .query_direct_with_stats(&Node::entity(&f.m), &missing, &[]);
        assert!(n3.is_some());
    }

    #[test]
    fn query_cache_respects_time_and_toggle() {
        let f = fx();
        let role = Node::role(f.a.role("r"));
        let cert =
            f.a.delegate(Node::entity(&f.m), role.clone())
                .expires(Timestamp(10))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &role, &[])
            .is_some());
        // Advancing the clock alone (no generation change) must not serve
        // the stale positive answer once the credential expired.
        f.clock.advance(drbac_core::Ticks(11));
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &role, &[])
            .is_none());

        // Disabling the cache still answers correctly.
        f.wallet.set_query_cache(false);
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &role, &[])
            .is_none());
    }

    #[test]
    fn provide_support_validates_before_accepting() {
        let f = fx();
        let member = f.a.role("member");
        // A support proving the wrong thing (expired credential) is
        // rejected; a valid one is accepted and indexed.
        let expired_grant =
            f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .expires(Timestamp(0))
                .sign(&f.a)
                .unwrap();
        f.clock.advance(drbac_core::Ticks(5));
        let stale = Proof::from_steps(vec![drbac_core::ProofStep::new(expired_grant)]).unwrap();
        assert!(matches!(
            f.wallet.provide_support(stale),
            Err(WalletError::Validation(_))
        ));

        let fresh_grant =
            f.a.delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
                .serial(2)
                .sign(&f.a)
                .unwrap();
        let fresh = Proof::from_steps(vec![drbac_core::ProofStep::new(fresh_grant)]).unwrap();
        f.wallet.provide_support(fresh).unwrap();
        // The support now authorizes a third-party publication without
        // resending it.
        let enrollment =
            f.b.delegate(Node::entity(&f.m), Node::role(member.clone()))
                .sign(&f.b)
                .unwrap();
        f.wallet.publish(enrollment, vec![]).unwrap();
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(member.clone()), &[])
            .is_some());
        assert!(f.wallet.unsupported_third_party().is_empty());

        // A support holding a credential revoked here is refused, live
        // and again after the journal is replayed into an empty wallet.
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));
        let doomed_grant =
            f.a.delegate(Node::entity(&f.m), Node::role_admin(member))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(doomed_grant.clone(), vec![]).unwrap();
        let revocation = SignedRevocation::revoke(&doomed_grant, &f.a, f.clock.now()).unwrap();
        f.wallet.revoke(&revocation).unwrap();
        let dead = Proof::from_steps(vec![ProofStep::new(doomed_grant.clone())]).unwrap();
        let refused = Err(WalletError::Validation(ValidationError::Revoked(
            doomed_grant.id(),
        )));
        assert_eq!(f.wallet.provide_support(dead.clone()), refused);
        f.wallet.wipe();
        f.wallet.recover_from_store(&store).unwrap();
        assert_eq!(f.wallet.provide_support(dead), refused);
    }

    #[test]
    fn monitor_external_proof_validates_against_local_revocations() {
        let f = fx();
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        let proof = Proof::from_steps(vec![ProofStep::new(cert.clone())]).unwrap();
        let monitor = |p: &Proof| {
            f.wallet
                .monitor_external_proof(p.clone(), p.subject(), p.object(), &[])
        };
        assert!(monitor(&proof).is_ok());
        // A valid proof of another query is no answer to this one.
        let other_subject = Node::entity(&f.b);
        let answer =
            f.wallet
                .monitor_external_proof(proof.clone(), &other_subject, proof.object(), &[]);
        assert!(matches!(
            answer,
            Err(WalletError::Validation(
                ValidationError::TargetMismatch { .. }
            ))
        ));
        // After learning of a revocation, the same proof is rejected.
        f.wallet.publish(cert.clone(), vec![]).unwrap();
        let revocation = SignedRevocation::revoke(&cert, &f.a, Timestamp(0)).unwrap();
        f.wallet.revoke(&revocation).unwrap();
        assert!(matches!(
            monitor(&proof),
            Err(WalletError::Validation(ValidationError::Revoked(_)))
        ));

        // The same holds for a support nested two levels below the chain:
        // b enrolls m on c's say-so, c acts on a's.
        let c = LocalEntity::generate(
            "C",
            SchnorrGroup::test_256(),
            &mut StdRng::seed_from_u64(62),
        );
        let member = f.a.role("member");
        let root =
            f.a.delegate(Node::entity(&c), Node::role_admin(member.clone()))
                .sign(&f.a)
                .unwrap();
        let root_id = root.id();
        let inner = Proof::from_steps(vec![ProofStep::new(root)]).unwrap();
        let relay = c
            .delegate(Node::entity(&f.b), Node::role_admin(member.clone()))
            .sign(&c)
            .unwrap();
        let outer = Proof::from_steps(vec![ProofStep::new(relay).with_support(inner)]).unwrap();
        let enroll =
            f.b.delegate(Node::entity(&f.m), Node::role(member))
                .sign(&f.b)
                .unwrap();
        let nested = Proof::from_steps(vec![ProofStep::new(enroll).with_support(outer)]).unwrap();
        assert!(monitor(&nested).is_ok());
        f.wallet.push_event(DelegationEvent {
            delegation: root_id,
            reason: InvalidationReason::Revoked,
        });
        assert_eq!(
            monitor(&nested).err(),
            Some(WalletError::Validation(ValidationError::Revoked(root_id)))
        );
    }

    #[test]
    fn journaled_mutations_survive_wipe_and_recovery() {
        let f = fx();
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));

        // Delegation chain: A hands assignment rights to B, B enrolls M.
        let grant =
            f.a.delegate(Node::entity(&f.b), Node::role_admin(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(grant, vec![]).unwrap();
        let enroll =
            f.b.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.b)
                .unwrap();
        f.wallet.publish(enroll.clone(), vec![]).unwrap();
        // And one revocation.
        let doomed =
            f.a.delegate(Node::entity(&f.b), Node::role(f.a.role("other")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(doomed.clone(), vec![]).unwrap();
        let revocation = SignedRevocation::revoke(&doomed, &f.a, f.clock.now()).unwrap();
        f.wallet.revoke(&revocation).unwrap();

        f.wallet.wipe();
        assert!(f.wallet.is_empty());

        let report = f.wallet.recover_from_store(&store).unwrap();
        assert_eq!(report.replayed, 4, "3 publishes + 1 revocation");
        assert_eq!(report.skipped, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(f.wallet.len(), 3);
        assert!(f.wallet.with_graph(|g| g.is_revoked(doomed.id())));
        // The third-party chain still answers.
        assert!(f
            .wallet
            .query_direct(&Node::entity(&f.m), &Node::role(f.a.role("r")), &[])
            .is_some());
        // Recovery restored the journal it suspended.
        assert!(f.wallet.journaling());
    }

    #[test]
    fn recovery_heals_a_torn_log_and_refuses_a_truncated_one() {
        let f = fx();
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));
        for (subject, role) in [(&f.m, "r"), (&f.b, "r")] {
            let cert =
                f.a.delegate(Node::entity(subject), Node::role(f.a.role(role)))
                    .sign(&f.a)
                    .unwrap();
            f.wallet.publish(cert, vec![]).unwrap();
        }

        // Tear the final record on a copy of the log.
        let mut bytes = store.log_bytes().unwrap();
        let cut = bytes.len() - 5;
        bytes.truncate(cut);
        let torn = Arc::new(drbac_store::WalletStore::from_log_bytes(bytes));
        let restored = Wallet::new("restored", f.clock.clone());
        let report = restored.recover_from_store(&torn).unwrap();
        assert!(report.torn_tail);
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.replayed, 1, "the torn second record is dropped");

        // Once a checkpoint truncated the log, a replay would lose the
        // first publish without a word: it refuses instead.
        store.truncate_through(2).unwrap();
        let full = Wallet::new("full", f.clock.clone());
        let err = full.recover_from_store(&store).unwrap_err();
        assert!(err.to_string().contains("drbac store verify"), "{err}");
        assert!(full.is_empty());
    }

    #[test]
    fn replay_skips_events_that_no_longer_apply() {
        let f = fx();
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));
        let shortlived =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .expires(Timestamp(5))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(shortlived, vec![]).unwrap();

        // The clock moves past expiry before the crash is recovered.
        f.clock.advance(Ticks(10));
        f.wallet.wipe();
        let report = f.wallet.recover_from_store(&store).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.skipped, 1);
        assert!(f.wallet.is_empty());
    }

    #[test]
    fn push_event_journals_remote_invalidations_once() {
        let f = fx();
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert.clone(), vec![]).unwrap();

        // A remote push (no signed notice in hand) journals a mark…
        f.wallet.push_event(DelegationEvent {
            delegation: cert.id(),
            reason: InvalidationReason::Revoked,
        });
        // …and a duplicate push does not journal again.
        f.wallet.push_event(DelegationEvent {
            delegation: cert.id(),
            reason: InvalidationReason::Revoked,
        });
        assert_eq!(store.status().records, 2, "one publish + one mark");

        f.wallet.wipe();
        f.wallet.recover_from_store(&store).unwrap();
        assert!(f.wallet.with_graph(|g| g.is_revoked(cert.id())));
    }

    #[test]
    fn detach_journal_stops_logging() {
        let f = fx();
        let store = Arc::new(drbac_store::WalletStore::in_memory());
        f.wallet.attach_journal(Arc::clone(&store));
        let cert =
            f.a.delegate(Node::entity(&f.m), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(cert, vec![]).unwrap();
        assert_eq!(store.status().records, 1);

        assert!(f.wallet.detach_journal().is_some());
        assert!(!f.wallet.journaling());
        let other =
            f.a.delegate(Node::entity(&f.b), Node::role(f.a.role("r")))
                .sign(&f.a)
                .unwrap();
        f.wallet.publish(other, vec![]).unwrap();
        assert_eq!(store.status().records, 1, "unjournaled after detach");
    }
}
