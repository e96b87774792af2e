//! Tag-directed distributed credential discovery (paper §4.2.1).
//!
//! The agent builds proofs spanning multiple wallets "by conducting
//! searches from subjects towards objects and/or objects towards subjects
//! (using subject and object queries against individual wallets) as
//! directed by discovery tags". Sub-proofs returned by remote wallets are
//! inserted into the local trusted wallet, "with the objects of these
//! proofs serving as the roots for further searches", and the local wallet
//! glues the segments into a complete proof.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use drbac_core::{
    AttrConstraint, DelegationId, DiscoveryTag, EntityId, Node, Proof, Timestamp, WalletAddr,
};
use drbac_wallet::{ProofMonitor, Wallet};

use crate::proto::{Reply, Request};
use crate::sim::NetError;
use crate::transport::{RetryPolicy, Transport};

/// A stored discovery tag plus the time its TTL lapses (`None` =
/// permanent: out-of-band registrations and tags with TTL 0).
#[derive(Debug, Clone)]
struct TagEntry {
    tag: DiscoveryTag,
    expires: Option<Timestamp>,
}

/// Records a learned tag with TTL-coherence refresh semantics:
/// re-observing a tag extends its lifetime (latest expiry wins) and may
/// promote it to permanent, but never shortens it — a permanent
/// registration stays permanent. Returns `true` when `tag` was stored
/// (the key was new); an existing entry keeps its tag.
fn remember<K: std::hash::Hash + Eq>(
    map: &mut HashMap<K, TagEntry>,
    key: K,
    tag: &DiscoveryTag,
    expires: Option<Timestamp>,
) -> bool {
    match map.entry(key) {
        std::collections::hash_map::Entry::Occupied(mut slot) => {
            let entry = slot.get_mut();
            match (entry.expires, expires) {
                (Some(old), Some(new)) if new > old => entry.expires = Some(new),
                (Some(_), None) => entry.expires = None,
                _ => {}
            }
            false
        }
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(TagEntry {
                tag: tag.clone(),
                expires,
            });
            true
        }
    }
}

/// Result of a time-aware tag lookup ([`Directory::lookup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagLookup<'a> {
    /// A live tag — safe to follow.
    Fresh(&'a DiscoveryTag),
    /// A tag whose TTL lapsed; it must not be followed (the home wallet
    /// hint is stale) and the discovery run is degraded.
    Expired(&'a DiscoveryTag),
    /// No tag known for the node.
    Unknown,
}

/// Resolves nodes to their home wallets via discovery tags.
///
/// Initially seeded from out-of-band knowledge (e.g. the tags on
/// credentials an entity presents); enriched automatically with tags
/// carried by discovered delegations. Tags learned from proofs honor the
/// tag's TTL (`<home:role:ttl:flags>`): once it lapses the tag is no
/// longer followed — see [`Directory::lookup`].
#[derive(Debug, Clone, Default)]
pub struct Directory {
    node_tags: HashMap<Node, TagEntry>,
    entity_tags: HashMap<EntityId, TagEntry>,
    /// Whether any tag ever stored carries the subject-search (`S`) or
    /// the object-search (`O`) flag. They only ever turn on, so they
    /// over-approximate the tags held: a direction neither can enable is
    /// one no lookup can enable either.
    subject_search: bool,
    object_search: bool,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node's discovery tag (out-of-band knowledge; never
    /// expires).
    pub fn register(&mut self, node: Node, tag: DiscoveryTag) {
        self.note_flags(&tag);
        self.node_tags.insert(node, TagEntry { tag, expires: None });
    }

    /// Registers a namespace-wide tag for an entity (fallback for roles in
    /// that namespace; never expires).
    pub fn register_entity(&mut self, entity: EntityId, tag: DiscoveryTag) {
        self.note_flags(&tag);
        self.entity_tags
            .insert(entity, TagEntry { tag, expires: None });
    }

    fn note_flags(&mut self, tag: &DiscoveryTag) {
        self.subject_search |= tag.searchable_from_subject();
        self.object_search |= tag.searchable_from_object();
    }

    /// The tag for `node`: exact registration first, then the namespace
    /// owner's tag. Ignores TTL expiry — use [`Directory::lookup`] on
    /// discovery paths.
    pub fn tag_of(&self, node: &Node) -> Option<&DiscoveryTag> {
        self.entry_of(node).map(|e| &e.tag)
    }

    fn entry_of(&self, node: &Node) -> Option<&TagEntry> {
        self.node_tags
            .get(node)
            .or_else(|| self.entity_tags.get(&node.namespace()))
    }

    /// Time-aware lookup: distinguishes a live tag from one whose TTL has
    /// lapsed, so discovery can both refuse to follow the stale hint and
    /// mark the run degraded.
    pub fn lookup(&self, node: &Node, now: Timestamp) -> TagLookup<'_> {
        match self.entry_of(node) {
            None => TagLookup::Unknown,
            Some(entry) => match entry.expires {
                Some(expires) if now > expires => TagLookup::Expired(&entry.tag),
                _ => TagLookup::Fresh(&entry.tag),
            },
        }
    }

    /// Absorbs the subject/object/issuer tags carried by every delegation
    /// in `proof`, without TTL tracking (entries never expire). Prefer
    /// [`Directory::learn_from_proof_at`] when a current time is
    /// available.
    pub fn learn_from_proof(&mut self, proof: &Proof) {
        self.learn(proof, None);
    }

    /// As [`Directory::learn_from_proof`], but tags carrying a non-zero
    /// TTL expire `ttl` ticks after `now` and are then no longer followed.
    pub fn learn_from_proof_at(&mut self, proof: &Proof, now: Timestamp) {
        self.learn(proof, Some(now));
    }

    fn learn(&mut self, proof: &Proof, now: Option<Timestamp>) {
        let expiry = |tag: &DiscoveryTag| match now {
            Some(now) if tag.ttl().0 > 0 => Some(now.after(tag.ttl())),
            _ => None,
        };
        for cert in proof.all_certs() {
            let d = cert.delegation();
            if let Some(tag) = d.subject_tag() {
                if remember(&mut self.node_tags, d.subject().clone(), tag, expiry(tag)) {
                    self.note_flags(tag);
                }
            }
            if let Some(tag) = d.object_tag() {
                if remember(&mut self.node_tags, d.object().clone(), tag, expiry(tag)) {
                    self.note_flags(tag);
                }
            }
            if let Some(tag) = d.issuer_tag() {
                if remember(&mut self.entity_tags, d.issuer(), tag, expiry(tag)) {
                    self.note_flags(tag);
                }
            }
        }
    }

    /// Number of known tags.
    pub fn len(&self) -> usize {
        self.node_tags.len() + self.entity_tags.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.node_tags.is_empty() && self.entity_tags.is_empty()
    }
}

/// Which directions the tags permit searching in (paper §4.2.3: searching
/// simultaneously in both directions sharply reduces the paths
/// considered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Subject has flag `S`: subject-towards-object search is complete.
    Forward,
    /// Object has flag `O`: object-towards-subject search is complete.
    Reverse,
    /// Both flags set: expand both frontiers alternately.
    Bidirectional,
    /// Neither flag: only the local wallet can answer.
    LocalOnly,
}

/// One entry in the discovery trace — the audit log tests use to check
/// the paper's Figure 2 walkthrough step by step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryStep {
    /// Queried the local wallet.
    LocalQuery {
        /// Whether a complete proof was found locally.
        found: bool,
    },
    /// Sent a direct query to a remote wallet.
    RemoteDirect {
        /// The wallet contacted.
        wallet: WalletAddr,
        /// The frontier node queried from (forward) or toward (reverse).
        node: String,
        /// Whether the remote returned a complete sub-proof.
        found: bool,
    },
    /// Sent a subject query (`node ⇒ *`) to a remote wallet.
    RemoteSubjectQuery {
        /// The wallet contacted.
        wallet: WalletAddr,
        /// The frontier node.
        node: String,
        /// Number of sub-proofs returned.
        proofs: usize,
    },
    /// Sent an object query (`* ⇒ node`) to a remote wallet.
    RemoteObjectQuery {
        /// The wallet contacted.
        wallet: WalletAddr,
        /// The frontier node.
        node: String,
        /// Number of sub-proofs returned.
        proofs: usize,
    },
    /// Absorbed remote sub-proofs into the local wallet and subscribed
    /// for coherence.
    Absorbed {
        /// Distinct credentials of each proof the local wallet accepted,
        /// supports included — held ones too, so not the number inserted.
        certs: usize,
    },
    /// Fetched attribute declarations from a remote wallet.
    FetchedDeclarations {
        /// The wallet contacted.
        wallet: WalletAddr,
        /// Declarations received.
        count: usize,
    },
}

impl fmt::Display for DiscoveryStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoveryStep::LocalQuery { found } => write!(f, "local query (found: {found})"),
            DiscoveryStep::RemoteDirect {
                wallet,
                node,
                found,
            } => {
                write!(f, "direct query at {wallet} from {node} (found: {found})")
            }
            DiscoveryStep::RemoteSubjectQuery {
                wallet,
                node,
                proofs,
            } => {
                write!(f, "subject query {node} => * at {wallet} ({proofs} proofs)")
            }
            DiscoveryStep::RemoteObjectQuery {
                wallet,
                node,
                proofs,
            } => {
                write!(f, "object query * => {node} at {wallet} ({proofs} proofs)")
            }
            DiscoveryStep::Absorbed { certs } => write!(f, "absorbed {certs} credentials"),
            DiscoveryStep::FetchedDeclarations { wallet, count } => {
                write!(f, "fetched {count} declarations from {wallet}")
            }
        }
    }
}

/// Result of a distributed discovery run.
#[derive(Debug)]
pub struct DiscoveryOutcome {
    /// The monitored proof, if discovery succeeded.
    pub monitor: Option<ProofMonitor>,
    /// Ordered trace of discovery actions.
    pub trace: Vec<DiscoveryStep>,
    /// Remote wallets contacted.
    pub wallets_contacted: BTreeSet<WalletAddr>,
    /// The search mode the tags selected ([`SearchMode::LocalOnly`] when
    /// the local wallet answered before any tag was consulted).
    pub mode: SearchMode,
    /// `true` when the run did not complete cleanly: some remote hop
    /// needed retries, or a wallet stayed unreachable and was skipped.
    /// The answer is still trustworthy (proofs verify locally) but may
    /// be *incomplete* — a miss under degradation is weaker evidence
    /// than a fault-free miss.
    pub degraded: bool,
}

impl DiscoveryOutcome {
    /// `true` when a proof was found.
    pub fn found(&self) -> bool {
        self.monitor.is_some()
    }
}

/// Which frontier a node sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Subject towards object: direct query, then a subject query.
    Forward,
    /// Object towards subject: direct query, then an object query.
    Reverse,
}

impl Direction {
    fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Reverse,
            Direction::Reverse => Direction::Forward,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Direction::Forward => "forward",
            Direction::Reverse => "reverse",
        }
    }
}

/// One direction's FIFO of nodes still to expand; a node enters at most
/// once per run.
#[derive(Default)]
struct Frontier {
    queue: VecDeque<Node>,
    seen: BTreeSet<Node>,
}

impl Frontier {
    fn push(&mut self, node: Node) {
        if self.seen.insert(node.clone()) {
            self.queue.push_back(node);
        }
    }
}

/// The state of one discovery run.
struct Run<'q> {
    subject: &'q Node,
    object: &'q Node,
    constraints: &'q [AttrConstraint],
    trace: Vec<DiscoveryStep>,
    contacted: BTreeSet<WalletAddr>,
    mode: SearchMode,
    /// Indexed by `Direction as usize`.
    frontiers: [Frontier; 2],
    /// Whose pop is next in the alternation.
    turn: Direction,
}

impl Run<'_> {
    fn frontier(&mut self, dir: Direction) -> &mut Frontier {
        &mut self.frontiers[dir as usize]
    }

    /// Takes the next *level* off the frontiers: the longest run of
    /// pops whose order does not depend on replies still to come. Nodes
    /// come off alternately (forward first), each queue FIFO; an empty
    /// queue is skipped, except that the level ends at a queue this
    /// level has already drawn from — the expansion of those very nodes
    /// may refill it, and its next node would be due right here. With
    /// one live direction a level is the whole queue.
    fn next_level(&mut self) -> Vec<(Direction, Node)> {
        let mut level = Vec::new();
        let mut drew = [false; 2];
        while self.frontiers.iter().any(|f| !f.queue.is_empty()) {
            match self.frontier(self.turn).queue.pop_front() {
                Some(node) => {
                    drew[self.turn as usize] = true;
                    level.push((self.turn, node));
                }
                None if drew[self.turn as usize] => break,
                None => {}
            }
            self.turn = self.turn.flip();
        }
        level
    }

    /// What expanding `node` asks of its home wallet: the paper's
    /// "direct query for Sub => Obj directed towards Sub's home wallet"
    /// — the frontier node standing in for the endpoint on its side —
    /// then the subject (or object) query that enumerates onward.
    fn requests_for(&self, dir: Direction, node: &Node) -> [Request; 2] {
        let constraints = self.constraints.to_vec();
        match dir {
            Direction::Forward => [
                Request::DirectQuery {
                    subject: node.clone(),
                    object: self.object.clone(),
                    constraints: constraints.clone(),
                },
                Request::SubjectQuery {
                    subject: node.clone(),
                    constraints,
                },
            ],
            Direction::Reverse => [
                Request::DirectQuery {
                    subject: self.subject.clone(),
                    object: node.clone(),
                    constraints: constraints.clone(),
                },
                Request::ObjectQuery {
                    object: node.clone(),
                    constraints,
                },
            ],
        }
    }

    /// Puts unprocessed level entries back at the head of their queues
    /// so the next level resumes exactly where this one stopped.
    fn requeue(&mut self, rest: &[Planned]) {
        if let Some(first) = rest.first() {
            self.turn = first.dir;
        }
        for planned in rest.iter().rev() {
            self.frontier(planned.dir)
                .queue
                .push_front(planned.node.clone());
        }
    }
}

/// One frontier node of a level, with the home wallet its requests were
/// addressed to when the level's batch was built (`None`: no followable
/// remote home, nothing was sent for it).
struct Planned {
    dir: Direction,
    node: Node,
    home: Option<WalletAddr>,
}

/// Executes tag-directed discovery over any [`Transport`] —
/// deterministic ([`crate::SimNet`]) or sockets
/// ([`crate::TcpTransport`]) — building the proof in a local trusted wallet.
///
/// Expansion is level-synchronous: every request a frontier level needs
/// goes out through one [`Transport::request_batch`] call, and the
/// replies are then processed one node at a time in the frontier's
/// FIFO/alternating order with a local check after every absorb — so
/// the proof found is the one a strictly sequential walk finds, while a
/// level costs one round trip per wallet instead of three per node.
pub struct DiscoveryAgent {
    transport: Arc<dyn Transport>,
    local: Wallet,
    directory: Directory,
    /// Establish delegation subscriptions for absorbed credentials
    /// (coherence; Figure 2's dotted lines). Default true.
    pub auto_subscribe: bool,
    /// Retry posture for every remote hop. Defaults to
    /// [`RetryPolicy::standard`]; set [`RetryPolicy::none`] to fail
    /// fast.
    pub retry: RetryPolicy,
    /// Recursion guard for support repair.
    repairing: bool,
    /// Set when any hop of the current run retried or failed; copied
    /// into [`DiscoveryOutcome::degraded`].
    run_degraded: bool,
    /// `(source, delegation)` subscriptions the source acknowledged to
    /// this agent; not asked for again. A source's entries are dropped
    /// the moment any request to it fails or needs a retry: it may have
    /// restarted, and its subscriber registry is volatile.
    subscribed: HashMap<WalletAddr, HashSet<DelegationId>>,
    /// Subscriptions owed for credentials absorbed since the last
    /// flush, per source (ordered, so a flush is deterministic).
    pending_subscriptions: BTreeMap<WalletAddr, BTreeSet<DelegationId>>,
}

impl std::fmt::Debug for DiscoveryAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveryAgent")
            .field("local", &self.local)
            .field("directory", &self.directory)
            .finish()
    }
}

impl DiscoveryAgent {
    /// Creates an agent operating `local` as its trusted wallet.
    pub fn new(
        transport: impl Transport + 'static,
        local: impl Into<Wallet>,
        directory: Directory,
    ) -> Self {
        DiscoveryAgent {
            transport: Arc::new(transport),
            local: local.into(),
            directory,
            auto_subscribe: true,
            retry: RetryPolicy::standard(),
            repairing: false,
            run_degraded: false,
            subscribed: HashMap::new(),
            pending_subscriptions: BTreeMap::new(),
        }
    }

    /// Settles one batch entry under the agent's retry policy: `first`
    /// is the entry's own result and counts as attempt one. A hop that
    /// needed retries — or failed outright, skipping the wallet — marks
    /// the whole run degraded and forgets what `to` had acknowledged.
    /// Returns `None` when the wallet stayed unreachable after the
    /// attempt budget.
    fn settle(
        &mut self,
        to: &WalletAddr,
        req: &Request,
        first: Option<Result<Reply, NetError>>,
    ) -> Option<Reply> {
        let first =
            first.unwrap_or_else(|| Err(NetError::Protocol("batch ended before its entry".into())));
        let outcome = self.retry.resume(self.transport.as_ref(), to, req, first);
        if outcome.degraded() {
            self.run_degraded = true;
            self.subscribed.remove(to);
        }
        match outcome.reply {
            Ok(reply) => Some(reply),
            Err(err) => {
                drbac_obs::static_counter!("drbac.net.discovery.skipped_wallet.count").inc();
                drbac_obs::event!(
                    "drbac.net.discovery.skipped_wallet",
                    "wallet" => to.to_string(),
                    "error" => err.to_string(),
                );
                None
            }
        }
    }

    /// Discovers a proof `subject ⇒ object` satisfying `constraints`,
    /// following discovery tags across wallets.
    pub fn discover(
        &mut self,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
    ) -> DiscoveryOutcome {
        self.discover_with_seeds(subject, object, constraints, &[])
    }

    /// As [`DiscoveryAgent::discover`], with extra forward-frontier seed
    /// nodes — used with the *acting-as* hints of third-party delegations
    /// when re-discovering support chains (§4.2.1).
    pub fn discover_with_seeds(
        &mut self,
        subject: &Node,
        object: &Node,
        constraints: &[AttrConstraint],
        extra_seeds: &[Node],
    ) -> DiscoveryOutcome {
        let _span = drbac_obs::span!(
            "drbac.net.discovery.round",
            "subject" => subject.to_string(),
            "object" => object.to_string(),
        );
        let _timer = drbac_obs::static_histogram!("drbac.net.discovery.round.ns").start_timer();
        drbac_obs::static_counter!("drbac.net.discovery.round.count").inc();
        let mut run = Run {
            subject,
            object,
            constraints,
            trace: Vec::new(),
            contacted: BTreeSet::new(),
            mode: SearchMode::LocalOnly,
            frontiers: Default::default(),
            turn: Direction::Forward,
        };
        self.run_degraded = false;
        let monitor = self.search(&mut run, extra_seeds);
        // Every credential behind a returned monitor has its coherence
        // subscription in place (or the run says it is degraded).
        self.flush_subscriptions();
        if monitor.is_some() {
            drbac_obs::static_counter!("drbac.net.discovery.found.count").inc();
        } else {
            drbac_obs::static_counter!("drbac.net.discovery.miss.count").inc();
        }
        DiscoveryOutcome {
            monitor,
            trace: run.trace,
            wallets_contacted: run.contacted,
            mode: run.mode,
            degraded: self.run_degraded,
        }
    }

    fn search(&mut self, run: &mut Run<'_>, extra_seeds: &[Node]) -> Option<ProofMonitor> {
        // Step 1: the local wallet first — a proof it already holds
        // costs one cached query, no tag lookups, no closures.
        if let Some(monitor) = self.query_local(run) {
            return Some(monitor);
        }

        // The search mode comes from the discovery flags of the
        // endpoints *and* of the frontier the local wallet already
        // connects them to — this is how the paper's server wallet
        // "observes that the subject of the desired relationship,
        // `BigISP.member`, has discovery search type 'S'" after
        // combining Maria's presented credential. Flags are read off
        // the unconstrained closures; the frontiers start from the
        // constrained ones, which are the same sets when the query
        // carries no constraints. A direction no tag in the directory
        // can enable needs no roots: its closure is an object (or subject)
        // query over the whole local wallet, and its flag test below
        // would find nothing in it.
        let fwd_roots = match self.directory.subject_search {
            true => self.local_forward_roots(run.subject, &[]),
            false => Vec::new(),
        };
        let rev_roots = match self.directory.object_search {
            true => self.local_reverse_roots(run.object, &[]),
            false => Vec::new(),
        };
        let tagged = |nodes: &[Node], flag: fn(&DiscoveryTag) -> bool| {
            nodes
                .iter()
                .any(|n| self.directory.tag_of(n).is_some_and(flag))
        };
        // Searchable seed tags enable forward expansion even when the
        // subject's own roots carry no usable tag.
        let forward = tagged(&fwd_roots, DiscoveryTag::searchable_from_subject)
            || tagged(extra_seeds, DiscoveryTag::searchable_from_subject);
        let reverse = tagged(&rev_roots, DiscoveryTag::searchable_from_object);
        run.mode = match (forward, reverse) {
            (true, true) => SearchMode::Bidirectional,
            (true, false) => SearchMode::Forward,
            (false, true) => SearchMode::Reverse,
            (false, false) => return None,
        };

        // Frontiers seeded with the endpoints plus everything the local
        // wallet already connects them to, plus caller-provided seeds.
        if forward {
            let roots = match run.constraints {
                [] => fwd_roots,
                constrained => self.local_forward_roots(run.subject, constrained),
            };
            for node in roots.into_iter().chain(extra_seeds.iter().cloned()) {
                run.frontier(Direction::Forward).push(node);
            }
        }
        if reverse {
            let roots = match run.constraints {
                [] => rev_roots,
                constrained => self.local_reverse_roots(run.object, constrained),
            };
            for node in roots {
                run.frontier(Direction::Reverse).push(node);
            }
        }

        loop {
            let level = run.next_level();
            if level.is_empty() {
                break;
            }
            if let Some(monitor) = self.expand_level(run, level) {
                return Some(monitor);
            }
            self.flush_subscriptions();
        }

        // Last resort (§4.2.1): stored support proofs may have been
        // invalidated while fresh authority exists elsewhere — rebuild
        // them from the issuers' *acting-as* hints and retry once.
        if !self.repairing && self.repair_supports(run) {
            return self.query_local(run);
        }
        None
    }

    /// Asks the local wallet for the complete proof and records the
    /// attempt in the trace.
    fn query_local(&self, run: &mut Run<'_>) -> Option<ProofMonitor> {
        let monitor = self
            .local
            .query_direct(run.subject, run.object, run.constraints);
        run.trace.push(DiscoveryStep::LocalQuery {
            found: monitor.is_some(),
        });
        monitor
    }

    /// Re-discovers support proofs for third-party delegations whose
    /// issuer authority can no longer be proven locally. Returns `true`
    /// if at least one support was repaired.
    fn repair_supports(&mut self, run: &mut Run<'_>) -> bool {
        self.repairing = true;
        let broken = self.local.unsupported_third_party();
        let mut repaired = false;
        // The nested runs reset `run_degraded`; fold their verdicts back
        // into the outer run's flag.
        let mut degraded = self.run_degraded;
        for (issuer, right, acting_as) in broken {
            let outcome = self.discover_with_seeds(&Node::Entity(issuer), &right, &[], &acting_as);
            degraded |= outcome.degraded;
            run.trace.extend(outcome.trace);
            run.contacted.extend(outcome.wallets_contacted);
            if let Some(monitor) = outcome.monitor {
                if self.local.provide_support(monitor.proof().clone()).is_ok() {
                    repaired = true;
                }
            }
        }
        self.run_degraded = degraded;
        self.repairing = false;
        repaired
    }

    /// Everything the local wallet already proves the subject can reach.
    fn local_forward_roots(&self, subject: &Node, constraints: &[AttrConstraint]) -> Vec<Node> {
        let mut roots = vec![subject.clone()];
        for proof in self.local.query_subject(subject, constraints) {
            roots.push(proof.object().clone());
        }
        roots
    }

    /// Everything the local wallet already proves can reach the object.
    fn local_reverse_roots(&self, object: &Node, constraints: &[AttrConstraint]) -> Vec<Node> {
        let mut roots = vec![object.clone()];
        for proof in self.local.query_object(object, constraints) {
            roots.push(proof.subject().clone());
        }
        roots
    }

    /// Expands one level: builds the batch every node of it needs —
    /// `FetchDeclarations` on first contact with a wallet, then the
    /// node's two queries ([`Run::requests_for`]) — sends it in one
    /// [`Transport::request_batch`] call, and processes the replies
    /// node by node in level order. Returns as soon as the local wallet
    /// can assemble the proof; replies not yet read are dropped (and on
    /// a lazy transport their requests were never sent).
    fn expand_level(
        &mut self,
        run: &mut Run<'_>,
        level: Vec<(Direction, Node)>,
    ) -> Option<ProofMonitor> {
        drbac_obs::static_counter!("drbac.net.discovery.level.count").inc();
        let mut batch: Vec<(WalletAddr, Request)> = Vec::new();
        let mut greeted = run.contacted.clone();
        let plan: Vec<Planned> = level
            .into_iter()
            .map(|(dir, node)| {
                let home = self.peek_remote_home(&node);
                if let Some(home) = &home {
                    if greeted.insert(home.clone()) {
                        batch.push((home.clone(), Request::FetchDeclarations));
                    }
                    let [direct, enumerate] = run.requests_for(dir, &node);
                    batch.push((home.clone(), direct));
                    batch.push((home.clone(), enumerate));
                }
                Planned { dir, node, home }
            })
            .collect();
        if !batch.is_empty() {
            drbac_obs::static_histogram!("drbac.net.discovery.batch.size")
                .record(batch.len() as u64);
        }

        let transport = Arc::clone(&self.transport);
        let mut replies = transport.request_batch(&batch);
        let mut entries = batch.iter();
        for (at, planned) in plan.iter().enumerate() {
            // Absorbing earlier nodes of this level may have taught the
            // directory this node's home, and the clock may have run
            // past a tag's TTL: the batch was built on a guess that no
            // longer holds from here on, so rebuild it.
            if self.peek_remote_home(&planned.node) != planned.home {
                run.requeue(&plan[at..]);
                return None;
            }
            let Some(home) = &planned.home else {
                self.note_expired_tag(&planned.node);
                continue;
            };
            drbac_obs::static_counter!("drbac.net.discovery.hop.count").inc();
            drbac_obs::event!(
                "drbac.net.discovery.hop",
                "direction" => planned.dir.name(),
                "wallet" => home.to_string(),
                "node" => planned.node.to_string(),
            );
            let mut next = |agent: &mut Self| {
                let (to, req) = entries.next().expect("one batch entry per planned request");
                debug_assert_eq!(to, home);
                agent.settle(to, req, replies.next())
            };

            // First contact with a wallet: pull its attribute
            // declarations so the local wallet can compute effective
            // values and constraints.
            if run.contacted.insert(home.clone()) {
                if let Some(Reply::Declarations(decls)) = next(self) {
                    run.trace.push(DiscoveryStep::FetchedDeclarations {
                        wallet: home.clone(),
                        count: decls.len(),
                    });
                    for d in decls {
                        let _ = self.local.publish_declaration(&d);
                    }
                }
            }

            if let Some(Reply::Proofs(proofs)) = next(self) {
                let found = !proofs.is_empty();
                run.trace.push(DiscoveryStep::RemoteDirect {
                    wallet: home.clone(),
                    node: planned.node.to_string(),
                    found,
                });
                if found {
                    self.absorb(&proofs, home, &mut run.trace);
                    if let Some(m) =
                        self.local
                            .query_direct(run.subject, run.object, run.constraints)
                    {
                        return Some(m);
                    }
                }
            }

            if let Some(Reply::Proofs(proofs)) = next(self) {
                let wallet = home.clone();
                let node = planned.node.to_string();
                run.trace.push(match planned.dir {
                    Direction::Forward => DiscoveryStep::RemoteSubjectQuery {
                        wallet,
                        node,
                        proofs: proofs.len(),
                    },
                    Direction::Reverse => DiscoveryStep::RemoteObjectQuery {
                        wallet,
                        node,
                        proofs: proofs.len(),
                    },
                });
                // Only a proof the local wallet accepted may steer the
                // search: a refused one names nodes nobody vouched for.
                for p in self.absorb(&proofs, home, &mut run.trace) {
                    let far = match planned.dir {
                        Direction::Forward => p.object(),
                        Direction::Reverse => p.subject(),
                    };
                    run.frontier(planned.dir).push(far.clone());
                }
                if let Some(m) = self
                    .local
                    .query_direct(run.subject, run.object, run.constraints)
                {
                    return Some(m);
                }
            }
        }
        None
    }

    /// A frontier node's home wallet as the directory knows it right
    /// now, when that is a live tag naming a wallet other than the
    /// local one. No side effects: this is the planning-time view.
    fn peek_remote_home(&self, node: &Node) -> Option<WalletAddr> {
        match self.directory.lookup(node, self.local.now()) {
            TagLookup::Fresh(tag) if tag.home() != self.local.addr() => Some(tag.home().clone()),
            _ => None,
        }
    }

    /// A frontier node skipped for want of a home: when that is because
    /// its tag's TTL lapsed mid-discovery — the hint is stale and is
    /// *not* followed — the run is marked degraded, so a miss is
    /// reported as weaker evidence.
    fn note_expired_tag(&mut self, node: &Node) {
        if let TagLookup::Expired(tag) = self.directory.lookup(node, self.local.now()) {
            drbac_obs::static_counter!("drbac.net.discovery.tag_expired.count").inc();
            drbac_obs::event!(
                "drbac.net.discovery.tag_expired",
                "node" => node.to_string(),
                "home" => tag.home().to_string(),
            );
            self.run_degraded = true;
        }
    }

    /// Inserts remote sub-proofs into the local wallet, learns their
    /// discovery tags, and queues a subscription at the source for each
    /// credential the source has not already acknowledged. Returns the
    /// proofs the local wallet accepted.
    fn absorb<'p>(
        &mut self,
        proofs: &'p [Proof],
        source: &WalletAddr,
        trace: &mut Vec<DiscoveryStep>,
    ) -> Vec<&'p Proof> {
        let mut certs = 0;
        let mut accepted = Vec::with_capacity(proofs.len());
        for proof in proofs {
            if self.local.absorb_proof(proof, source).is_ok() {
                accepted.push(proof);
                let now = self.local.now();
                self.directory.learn_from_proof_at(proof, now);
                let ids = proof.delegation_ids();
                certs += ids.len();
                if self.auto_subscribe {
                    let acknowledged = self.subscribed.get(source);
                    let owed = ids
                        .into_iter()
                        .filter(|id| !acknowledged.is_some_and(|a| a.contains(id)));
                    self.pending_subscriptions
                        .entry(source.clone())
                        .or_default()
                        .extend(owed);
                }
            }
        }
        if certs > 0 {
            drbac_obs::static_counter!("drbac.net.discovery.absorbed.certs.count")
                .add(certs as u64);
            trace.push(DiscoveryStep::Absorbed { certs });
        }
        accepted
    }

    /// Sends the queued subscriptions as one batch and remembers the
    /// acknowledged ones.
    fn flush_subscriptions(&mut self) {
        if self.pending_subscriptions.is_empty() {
            return;
        }
        let subscriber = self.local.addr();
        let batch: Vec<(WalletAddr, Request)> = std::mem::take(&mut self.pending_subscriptions)
            .into_iter()
            .flat_map(|(source, ids)| {
                ids.into_iter().map(move |delegation| {
                    let subscriber = subscriber.clone();
                    let req = Request::Subscribe {
                        delegation,
                        subscriber,
                    };
                    (source.clone(), req)
                })
            })
            .collect();
        let transport = Arc::clone(&self.transport);
        let mut replies = transport.request_batch(&batch);
        for (to, req) in &batch {
            let acknowledged = matches!(
                self.settle(to, req, replies.next()),
                Some(Reply::Subscribed)
            );
            if let (true, Request::Subscribe { delegation, .. }) = (acknowledged, req) {
                self.subscribed
                    .entry(to.clone())
                    .or_default()
                    .insert(*delegation);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimNet, WalletHost};
    use crate::testkit::{fx, Fx};
    use drbac_core::{ObjectFlag, SubjectFlag, Ticks};
    use drbac_wallet::Wallet;

    fn host(w: &Fx, addr: &str) -> WalletHost {
        w.net.add_host(addr, Wallet::new(addr, w.clock.clone()))
    }

    fn search_tag(home: &str) -> DiscoveryTag {
        DiscoveryTag::new(home)
            .with_subject_flag(SubjectFlag::Search)
            .with_object_flag(ObjectFlag::Search)
    }

    #[test]
    fn local_hit_requires_no_network() {
        let w = fx();
        let local = host(&w, "local");
        let cert =
            w.a.delegate(Node::entity(&w.m), Node::role(w.a.role("r")))
                .sign(&w.a)
                .unwrap();
        local.wallet().publish(cert, vec![]).unwrap();

        let mut agent = DiscoveryAgent::new(w.net.clone(), local, Directory::new());
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(w.a.role("r")), &[]);
        assert!(outcome.found());
        assert_eq!(
            outcome.trace,
            vec![DiscoveryStep::LocalQuery { found: true }]
        );
        assert!(outcome.wallets_contacted.is_empty());
        assert_eq!(w.net.stats().total_messages, 0);
    }

    #[test]
    fn forward_discovery_across_two_wallets() {
        // local knows Maria => A.r1; wallet-a knows A.r1 => A.r2 (its home);
        // discovery stitches Maria => A.r2.
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");

        let r1 = w.a.role("r1");
        let r2 = w.a.role("r2");
        local
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        wallet_a
            .wallet()
            .publish(
                w.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();

        let mut dir = Directory::new();
        dir.register(Node::role(r1.clone()), search_tag("wallet.a"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local.clone(), dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(r2.clone()), &[]);
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
        assert_eq!(outcome.mode, SearchMode::Forward);
        assert!(outcome
            .wallets_contacted
            .contains(&WalletAddr::new("wallet.a")));
        let proof = outcome.monitor.as_ref().unwrap().proof();
        assert_eq!(proof.subject(), &Node::entity(&w.m));
        assert_eq!(proof.object(), &Node::role(r2));
        // The remote credential is now cached locally with coherence
        // subscription registered at the source.
        assert_eq!(local.wallet().len(), 2);
        assert_eq!(w.net.stats().requests("subscribe"), 1);
    }

    #[test]
    fn reverse_discovery_when_only_object_searchable() {
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");

        let r1 = w.a.role("r1");
        let r2 = w.a.role("r2");
        // Local knows the tail end r1 => r2; remote home of r1 knows Maria => r1.
        local
            .wallet()
            .publish(
                w.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        wallet_a
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();

        let mut dir = Directory::new();
        // Only object-side searchability: r1 (and r2) live at wallet.a.
        let tag = DiscoveryTag::new("wallet.a").with_object_flag(ObjectFlag::Search);
        dir.register(Node::role(r1.clone()), tag.clone());
        dir.register(Node::role(r2.clone()), tag);
        let mut agent = DiscoveryAgent::new(w.net.clone(), local, dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(r2), &[]);
        assert_eq!(outcome.mode, SearchMode::Reverse);
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
    }

    #[test]
    fn bidirectional_mode_selected_when_both_flags_set() {
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");
        let wallet_b = host(&w, "wallet.b");

        // Chain Maria => r1 (wallet.a) ; r1 => r2 (wallet.b holds it, r2's home).
        let r1 = w.a.role("r1");
        let r2 = w.b.role("r2");
        wallet_a
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let grant =
            w.b.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                .sign(&w.b)
                .unwrap();
        wallet_b.wallet().publish(grant, vec![]).unwrap();

        let mut dir = Directory::new();
        dir.register(Node::entity(&w.m), search_tag("wallet.a"));
        dir.register(Node::role(r1.clone()), search_tag("wallet.a"));
        dir.register(Node::role(r2.clone()), search_tag("wallet.b"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local, dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(r2), &[]);
        assert_eq!(outcome.mode, SearchMode::Bidirectional);
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
    }

    #[test]
    fn sequential_transport_sends_nothing_speculative() {
        // One level holds two expandable nodes, each homed at its own
        // wallet; the first one's direct query already completes the
        // proof. On SimNet — the lazy sequential batch — nothing
        // planned after that reply may have been sent.
        let w = fx();
        let local = host(&w, "local");
        let target = w.a.role("target");
        for role in ["r1", "r2"] {
            local
                .wallet()
                .publish(
                    w.a.delegate(Node::entity(&w.m), Node::role(w.a.role(role)))
                        .sign(&w.a)
                        .unwrap(),
                    vec![],
                )
                .unwrap();
        }
        // The frontier expands the local wallet's subject-query answers
        // in order: home the first at wallet.first, the other at
        // wallet.second.
        let mut dir = Directory::new();
        let roots = local.wallet().query_subject(&Node::entity(&w.m), &[]);
        assert_eq!(roots.len(), 2);
        for (proof, home) in roots.iter().zip(["wallet.first", "wallet.second"]) {
            dir.register(proof.object().clone(), search_tag(home));
            host(&w, home);
        }
        w.net
            .host(&"wallet.first".into())
            .unwrap()
            .wallet()
            .publish(
                w.a.delegate(roots[0].object().clone(), Node::role(target.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let mut agent = DiscoveryAgent::new(w.net.clone(), local, dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(target), &[]);
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
        let stats = w.net.stats();
        assert_eq!(stats.requests("fetch-declarations"), 1);
        assert_eq!(stats.requests("direct-query"), 1);
        assert_eq!(stats.requests("subject-query"), 0);
        assert_eq!(stats.requests("subscribe"), 1);
        assert_eq!(
            outcome.wallets_contacted,
            BTreeSet::from([WalletAddr::new("wallet.first")])
        );
    }

    #[test]
    fn a_home_learned_mid_level_replans_the_rest_of_the_level() {
        // Both of Maria's roles sit in the first level, but only the
        // first has a known home; the second's home is on a tag carried
        // by a credential the first one's expansion absorbs. A
        // sequential walk follows it — so must the batched one, by
        // re-planning the level from the second role on.
        let w = fx();
        let local = host(&w, "local");
        let target = w.a.role("target");
        for role in ["r1", "r2"] {
            local
                .wallet()
                .publish(
                    w.a.delegate(Node::entity(&w.m), Node::role(w.a.role(role)))
                        .sign(&w.a)
                        .unwrap(),
                    vec![],
                )
                .unwrap();
        }
        let roots = local.wallet().query_subject(&Node::entity(&w.m), &[]);
        let (first, second) = (roots[0].object().clone(), roots[1].object().clone());
        let mut dir = Directory::new();
        dir.register(first.clone(), search_tag("wallet.first"));
        host(&w, "wallet.first")
            .wallet()
            .publish(
                w.a.delegate(first, Node::role(w.a.role("elsewhere")))
                    .subject_tag(search_tag("wallet.first"))
                    .issuer_tag(search_tag("wallet.second"))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        host(&w, "wallet.second")
            .wallet()
            .publish(
                w.a.delegate(second, Node::role(target.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let mut agent = DiscoveryAgent::new(w.net.clone(), local, dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(target), &[]);
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
        assert!(!outcome.degraded);
        assert_eq!(outcome.wallets_contacted.len(), 2);
    }

    #[test]
    fn bidirectional_levels_keep_the_alternating_order() {
        // Forward has three roots, reverse one: the alternation is
        // f, r, f and then the reverse queue — which r's expansion may
        // refill — is due, so the level must stop there.
        let nodes: Vec<Node> = {
            let w = fx();
            (0..6)
                .map(|i| Node::role(w.a.role(&format!("n{i}"))))
                .collect()
        };
        let mut run = Run {
            subject: &nodes[0],
            object: &nodes[1],
            constraints: &[],
            trace: Vec::new(),
            contacted: BTreeSet::new(),
            mode: SearchMode::Bidirectional,
            frontiers: Default::default(),
            turn: Direction::Forward,
        };
        for n in &nodes[..3] {
            run.frontier(Direction::Forward).push(n.clone());
        }
        run.frontier(Direction::Reverse).push(nodes[3].clone());
        let level = run.next_level();
        let order: Vec<(Direction, &Node)> = level.iter().map(|(d, n)| (*d, n)).collect();
        assert_eq!(
            order,
            vec![
                (Direction::Forward, &nodes[0]),
                (Direction::Reverse, &nodes[3]),
                (Direction::Forward, &nodes[1]),
            ]
        );
        // The reverse node produced a child: it is next, before n2.
        run.frontier(Direction::Reverse).push(nodes[4].clone());
        let level = run.next_level();
        assert_eq!(level[0], (Direction::Reverse, nodes[4].clone()));
        assert_eq!(level[1], (Direction::Forward, nodes[2].clone()));
        // With reverse exhausted for good, forward drains in one level.
        for n in &nodes[4..] {
            run.frontier(Direction::Forward).push(n.clone());
        }
        assert_eq!(run.next_level().len(), 2);
        assert!(run.next_level().is_empty());
    }

    #[test]
    fn acknowledged_subscriptions_are_forgotten_when_the_source_errs() {
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");
        let (r1, r2, r3) = (w.a.role("r1"), w.a.role("r2"), w.a.role("r3"));
        local
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let mut remote = Vec::new();
        for to in [&r2, &r3] {
            let cert =
                w.a.delegate(Node::role(r1.clone()), Node::role(to.clone()))
                    .sign(&w.a)
                    .unwrap();
            remote.push(cert.id());
            wallet_a.wallet().publish(cert, vec![]).unwrap();
        }
        let mut dir = Directory::new();
        dir.register(Node::role(r1), search_tag("wallet.a"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local.clone(), dir);
        let maria = Node::entity(&w.m);
        let nowhere = Node::role(w.a.role("nowhere"));
        let subscribes = || w.net.stats().requests("subscribe");

        // The grant subscribes its one remote credential; the denial's
        // subject query re-delivers it beside a new one, and only the
        // new one is subscribed; a repeat of the denial subscribes
        // nothing at all.
        assert!(agent.discover(&maria, &Node::role(r2), &[]).found());
        assert_eq!(subscribes(), 1);
        assert!(!agent.discover(&maria, &nowhere, &[]).found());
        assert_eq!(subscribes(), 2);
        let again = agent.discover(&maria, &nowhere, &[]);
        assert!(!again.found() && !again.degraded);
        assert_eq!(subscribes(), 2);

        // The source crashes: its subscriber registry dies with it, and
        // the failed hop tells the agent so.
        let addr = WalletAddr::new("wallet.a");
        let store = w.net.crash_host(&addr).unwrap();
        assert!(agent.discover(&maria, &nowhere, &[]).degraded);
        w.net.restart_host(&addr, &store).unwrap();
        for id in &remote {
            assert!(wallet_a.subscribers_of(*id).is_empty());
        }

        // Re-absorbed from the restarted host, both are re-subscribed.
        let healed = agent.discover(&maria, &nowhere, &[]);
        assert!(!healed.found() && !healed.degraded);
        assert_eq!(subscribes(), 4);
        for id in &remote {
            assert_eq!(
                wallet_a.subscribers_of(*id),
                BTreeSet::from([WalletAddr::new("local")])
            );
        }
    }

    #[test]
    fn no_tags_means_local_only() {
        let w = fx();
        let local = host(&w, "local");
        let mut agent = DiscoveryAgent::new(w.net.clone(), local, Directory::new());
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(w.a.role("r")), &[]);
        assert_eq!(outcome.mode, SearchMode::LocalOnly);
        assert!(!outcome.found());
        assert_eq!(w.net.stats().total_messages, 0);
    }

    #[test]
    fn unreachable_target_exhausts_frontier() {
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");
        let r1 = w.a.role("r1");
        wallet_a
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let mut dir = Directory::new();
        dir.register(Node::entity(&w.m), search_tag("wallet.a"));
        dir.register(Node::role(r1), search_tag("wallet.a"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local, dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(w.a.role("unrelated")), &[]);
        assert!(!outcome.found());
        assert!(!outcome.wallets_contacted.is_empty());
    }

    #[test]
    fn revoked_support_is_rediscovered_via_acting_as_hints() {
        // §4.2.1: "it may become necessary at some point to discover new
        // supporting delegations" — a third-party delegation's support is
        // revoked, the issuer regains authority through a fresh grant at
        // the owner's home wallet, and discovery repairs the support
        // using the delegation's acting-as hint.
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");
        let owner = &w.a; // controls the role namespace
        let broker = &w.b; // third-party issuer
        let admins = owner.role("admins");
        let role = owner.role("r");

        // Original authority chain.
        let grant_v1 = owner
            .delegate(Node::entity(broker), Node::role(admins.clone()))
            .sign(owner)
            .unwrap();
        let admin_right = owner
            .delegate(Node::role(admins.clone()), Node::role_admin(role.clone()))
            .sign(owner)
            .unwrap();
        let support = Proof::from_steps(vec![
            drbac_core::ProofStep::new(grant_v1.clone()),
            drbac_core::ProofStep::new(admin_right.clone()),
        ])
        .unwrap();

        // The third-party enrollment, with its acting-as hint, lives in
        // the local wallet together with the (soon stale) support.
        let enrollment = broker
            .delegate(Node::entity(&w.m), Node::role(role.clone()))
            .acting_as(Node::role(admins.clone()))
            .sign(broker)
            .unwrap();
        local.wallet().publish(enrollment, vec![support]).unwrap();

        // The owner's home wallet keeps the authority material.
        wallet_a
            .wallet()
            .publish(admin_right.clone(), vec![])
            .unwrap();

        // Sanity: access works.
        let mut dir = Directory::new();
        dir.register_entity(owner.id(), search_tag("wallet.a"));
        dir.register_entity(broker.id(), search_tag("wallet.a"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local.clone(), dir.clone());
        assert!(agent
            .discover(&Node::entity(&w.m), &Node::role(role.clone()), &[])
            .found());

        // The owner revokes the broker's admin grant; the local wallet
        // learns of it.
        let revocation =
            drbac_core::SignedRevocation::revoke(&grant_v1, owner, w.clock.now()).unwrap();
        local.wallet().publish(grant_v1.clone(), vec![]).unwrap();
        local.wallet().revoke(&revocation).unwrap();
        assert!(
            local
                .wallet()
                .query_direct(&Node::entity(&w.m), &Node::role(role.clone()), &[])
                .is_none(),
            "revoked support must invalidate the local answer"
        );
        assert_eq!(local.wallet().unsupported_third_party().len(), 1);

        // Without fresh authority anywhere, repair fails...
        let mut agent = DiscoveryAgent::new(w.net.clone(), local.clone(), dir.clone());
        assert!(!agent
            .discover(&Node::entity(&w.m), &Node::role(role.clone()), &[])
            .found());

        // ...the owner re-grants at its home wallet, and discovery heals.
        let grant_v2 = owner
            .delegate(Node::entity(broker), Node::role(admins))
            .serial(2)
            .sign(owner)
            .unwrap();
        wallet_a.wallet().publish(grant_v2, vec![]).unwrap();

        let mut agent = DiscoveryAgent::new(w.net.clone(), local.clone(), dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(role), &[]);
        assert!(outcome.found(), "support repaired: {:?}", outcome.trace);
        assert!(local.wallet().unsupported_third_party().is_empty());
    }

    #[test]
    fn expired_tag_is_not_followed_and_degrades_the_run() {
        // Chain: Maria => r1 (local), r1 => r2 (wallet.a), r2 => r3
        // (wallet.b). r2's home is advertised only by a TTL'd object tag
        // on the r1 => r2 credential. Each RPC costs one tick per
        // direction, so by the time the frontier reaches r2 the tag has
        // lapsed — it must NOT be followed (no contact with wallet.b) and
        // the run must be marked degraded.
        let w = fx();
        let local = host(&w, "local");
        let wallet_a = host(&w, "wallet.a");
        let wallet_b = host(&w, "wallet.b");

        let r1 = w.a.role("r1");
        let r2 = w.a.role("r2");
        let r3 = w.a.role("r3");
        local
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let stale_tag = DiscoveryTag::new("wallet.b")
            .with_subject_flag(SubjectFlag::Search)
            .with_ttl(Ticks(1));
        wallet_a
            .wallet()
            .publish(
                w.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                    .object_tag(stale_tag)
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        wallet_b
            .wallet()
            .publish(
                w.a.delegate(Node::role(r2.clone()), Node::role(r3.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();

        let mut dir = Directory::new();
        dir.register(Node::role(r1.clone()), search_tag("wallet.a"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local.clone(), dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(r3.clone()), &[]);
        assert!(!outcome.found(), "trace: {:?}", outcome.trace);
        assert!(
            outcome.degraded,
            "an expired tag must mark the run degraded"
        );
        assert!(
            !outcome
                .wallets_contacted
                .contains(&WalletAddr::new("wallet.b")),
            "the stale home hint must not be followed"
        );

        // Control run: the same topology with a generous TTL completes.
        // (A separate intermediate host so the stale-tag credential from
        // the first run can't shadow the fresh tag.)
        let local2 = host(&w, "local2");
        let wallet_a2 = host(&w, "wallet.a2");
        local2
            .wallet()
            .publish(
                w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let fresh_tag = DiscoveryTag::new("wallet.b")
            .with_subject_flag(SubjectFlag::Search)
            .with_ttl(Ticks(1000));
        wallet_a2
            .wallet()
            .publish(
                w.a.delegate(Node::role(r1.clone()), Node::role(r2.clone()))
                    .serial(2)
                    .object_tag(fresh_tag)
                    .sign(&w.a)
                    .unwrap(),
                vec![],
            )
            .unwrap();
        let mut dir = Directory::new();
        dir.register(Node::role(r1), search_tag("wallet.a2"));
        let mut agent = DiscoveryAgent::new(w.net.clone(), local2, dir);
        let outcome = agent.discover(&Node::entity(&w.m), &Node::role(r3), &[]);
        assert!(outcome.found(), "trace: {:?}", outcome.trace);
        assert!(!outcome.degraded);
        assert!(outcome
            .wallets_contacted
            .contains(&WalletAddr::new("wallet.b")));
    }

    #[test]
    fn directory_lookup_distinguishes_fresh_expired_unknown() {
        let w = fx();
        let r1 = w.a.role("r1");
        let cert =
            w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                .object_tag(search_tag("a.home").with_ttl(Ticks(5)))
                .sign(&w.a)
                .unwrap();
        let proof = Proof::from_steps(vec![drbac_core::ProofStep::new(cert)]).unwrap();
        let mut dir = Directory::new();
        dir.learn_from_proof_at(&proof, drbac_core::Timestamp(10));
        let node = Node::role(r1);
        assert!(matches!(
            dir.lookup(&node, drbac_core::Timestamp(15)),
            TagLookup::Fresh(_)
        ));
        assert!(matches!(
            dir.lookup(&node, drbac_core::Timestamp(16)),
            TagLookup::Expired(_)
        ));
        assert!(matches!(
            dir.lookup(&Node::role(w.b.role("x")), drbac_core::Timestamp(0)),
            TagLookup::Unknown
        ));
        // Out-of-band registrations never lapse.
        let reg = Node::role(w.a.role("reg"));
        dir.register(reg.clone(), search_tag("somewhere"));
        assert!(matches!(
            dir.lookup(&reg, drbac_core::Timestamp(1_000_000)),
            TagLookup::Fresh(_)
        ));
        // tag_of keeps answering regardless of expiry (diagnostics).
        assert!(dir.tag_of(&node).is_some());
    }

    #[test]
    fn directory_search_flags_only_turn_on() {
        let w = fx();
        let r1 = Node::role(w.a.role("r1"));
        let learned = |tag: DiscoveryTag| {
            let cert =
                w.a.delegate(Node::entity(&w.m), r1.clone())
                    .object_tag(tag)
                    .sign(&w.a)
                    .unwrap();
            Proof::from_steps(vec![drbac_core::ProofStep::new(cert)]).unwrap()
        };
        let mut dir = Directory::new();
        assert!(!dir.subject_search && !dir.object_search);
        dir.register(r1.clone(), DiscoveryTag::new("a.home"));
        assert!(!dir.subject_search && !dir.object_search);
        // r1 already has a tag: a learned one is not stored, so its flag
        // is not noted either.
        dir.learn_from_proof(&learned(search_tag("a.home")));
        assert!(!dir.subject_search && !dir.object_search);
        let mut dir = Directory::new();
        let object_only = DiscoveryTag::new("a.home").with_object_flag(ObjectFlag::Search);
        dir.learn_from_proof_at(&learned(object_only.with_ttl(Ticks(1))), Timestamp(0));
        assert!(!dir.subject_search && dir.object_search);
        // The learned tag lapses; the flag stays on.
        assert!(matches!(
            dir.lookup(&r1, Timestamp(5)),
            TagLookup::Expired(_)
        ));
        dir.register_entity(w.b.id(), search_tag("b.home"));
        assert!(dir.subject_search && dir.object_search);
    }

    /// Forwards to a SimNet and logs every destination; each proof in a
    /// reply from `from` that ends at `far` arrives with one signature
    /// byte flipped.
    struct Tampering {
        net: SimNet,
        from: WalletAddr,
        far: Node,
        log: parking_lot::Mutex<Vec<WalletAddr>>,
    }

    impl Transport for Tampering {
        fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
            self.log.lock().push(to.clone());
            let tamper = |p: Proof| {
                if *to != self.from || p.object() != &self.far {
                    return p;
                }
                // The signature is the tail of the wire form.
                let mut bytes = p.steps()[0].cert().to_bytes();
                *bytes.last_mut().unwrap() ^= 1;
                let cert = drbac_core::SignedDelegation::from_bytes(&bytes).unwrap();
                Proof::from_steps(vec![drbac_core::ProofStep::new(cert)]).unwrap()
            };
            Ok(match self.net.request(to, req)? {
                Reply::Proofs(proofs) => Reply::Proofs(proofs.into_iter().map(tamper).collect()),
                other => other,
            })
        }
    }

    #[test]
    fn a_refused_proof_does_not_steer_discovery() {
        // M's home serves M => r1 and M => r2; r2 is homed at wallet.z,
        // and the copy of M => r2 in the reply is forged. The real proof
        // runs M => r1 => r3 => T over wallet.b and wallet.c.
        let w = fx();
        let local = host(&w, "local");
        let [r1, r2, r3, t] = ["r1", "r2", "r3", "t"].map(|r| Node::role(w.a.role(r)));
        let m = Node::entity(&w.m);
        for (home, subject, object) in [
            ("wallet.a", &m, &r1),
            ("wallet.a", &m, &r2),
            ("wallet.b", &r1, &r3),
            ("wallet.c", &r3, &t),
            ("wallet.z", &r2, &t),
        ] {
            let cert =
                w.a.delegate(subject.clone(), object.clone())
                    .sign(&w.a)
                    .unwrap();
            let wallet = match w.net.host(&home.into()) {
                Some(h) => h,
                None => host(&w, home),
            };
            wallet.wallet().publish(cert, vec![]).unwrap();
        }
        let s_tag = |home: &str| DiscoveryTag::new(home).with_subject_flag(SubjectFlag::Search);
        let mut dir = Directory::new();
        for (node, home) in [
            (&m, "wallet.a"),
            (&r1, "wallet.b"),
            (&r3, "wallet.c"),
            (&r2, "wallet.z"),
        ] {
            dir.register(node.clone(), s_tag(home));
        }
        let transport = Arc::new(Tampering {
            net: w.net.clone(),
            from: "wallet.a".into(),
            far: r2.clone(),
            log: parking_lot::Mutex::new(Vec::new()),
        });
        let mut agent = DiscoveryAgent::new(Arc::clone(&transport), local, dir);
        let outcome = agent.discover(&m, &t, &[]);

        let proof = outcome.monitor.as_ref().expect("granted over r1").proof();
        let path: Vec<&Node> = proof
            .steps()
            .iter()
            .map(|s| s.cert().delegation().object())
            .collect();
        assert_eq!(path, [&r1, &r3, &t]);
        let log = transport.log.lock();
        assert!(log.contains(&"wallet.c".into()));
        assert!(
            !log.contains(&"wallet.z".into()),
            "a forged proof sent the gateway to the wallet it named"
        );
    }

    #[test]
    fn directory_learns_tags_from_proofs() {
        let w = fx();
        let r1 = w.a.role("r1");
        let cert =
            w.a.delegate(Node::entity(&w.m), Node::role(r1.clone()))
                .subject_tag(search_tag("maria.home"))
                .object_tag(search_tag("a.home"))
                .issuer_tag(search_tag("a.home"))
                .sign(&w.a)
                .unwrap();
        let proof = Proof::from_steps(vec![drbac_core::ProofStep::new(cert)]).unwrap();
        let mut dir = Directory::new();
        assert!(dir.is_empty());
        dir.learn_from_proof(&proof);
        assert_eq!(
            dir.tag_of(&Node::entity(&w.m)).unwrap().home().as_str(),
            "maria.home"
        );
        assert_eq!(
            dir.tag_of(&Node::role(r1)).unwrap().home().as_str(),
            "a.home"
        );
        // Entity fallback: an unregistered role in A's namespace resolves
        // via the issuer tag.
        assert_eq!(
            dir.tag_of(&Node::role(w.a.role("other")))
                .unwrap()
                .home()
                .as_str(),
            "a.home"
        );
        assert_eq!(dir.len(), 3);
    }
}
