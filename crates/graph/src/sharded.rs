//! The delegation graph: one store, sharded behind per-shard
//! reader–writer locks so concurrent provers and publishers don't
//! serialize on a single graph lock.
//!
//! * **edge shards** — `by_subject` / `by_object` adjacency and provided
//!   support proofs, sharded by the *namespace entity* of the keying node
//!   (`Node::namespace()`, i.e. the subject-entity fingerprint). A
//!   delegation lives in the shard of its subject's namespace (subject
//!   index) and the shard of its object's namespace (object index).
//! * **id shards** — the `by_id` index and revocation marks, sharded by
//!   the leading byte of the delegation id.
//! * **declarations** — one small lock of their own.
//!
//! All mutators take `&self`; interior locks are held only for the
//! duration of one method call and are never nested with each other or
//! with anything else (in particular, callers must never journal while a
//! shard lock is held — same rule as drbac-store). A multi-index update
//! (insert, remove) therefore isn't atomic across shards; readers may
//! transiently see a delegation in one direction index before the other.
//! Search tolerates that: each direction is consulted independently, and
//! revocation marks — the safety-critical signal — live in a single id
//! shard per id, so a revoke is observed atomically.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;

use drbac_core::{
    AttrDeclaration, DeclarationSet, DelegationId, EntityId, Node, Proof, RevocationLookup,
    SignedDelegation, Timestamp,
};

use crate::intern::{namespace_hash, FastMap, NodeId, NodeInterner};

/// Number of edge and id shards.
const SHARDS: usize = 16;

/// One adjacency entry: a credential plus the interned id of its far
/// endpoint (the object for subject-indexed edges, the subject for
/// object-indexed ones), so a search never hashes or clones a [`Node`]
/// per edge.
#[derive(Debug, Clone)]
pub(crate) struct InternedEdge {
    pub(crate) cert: Arc<SignedDelegation>,
    pub(crate) far: NodeId,
}

#[derive(Debug, Default)]
struct EdgeShard {
    /// Adjacency keyed by interned subject id; `far` is the object.
    by_subject: FastMap<NodeId, Vec<InternedEdge>>,
    /// Adjacency keyed by interned object id; `far` is the subject.
    by_object: FastMap<NodeId, Vec<InternedEdge>>,
    supports: HashMap<(EntityId, Node), Proof>,
}

/// Inserts `edge` into an adjacency list at its id-ordered position.
/// Lists stay sorted by delegation id so iteration order — and thus every
/// proof-search tie-break among parallel edges — is independent of the
/// order delegations arrived in. Ids are unique per list (duplicates are
/// rejected by the `by_id` check before edges are touched).
fn insert_edge_ordered(list: &mut Vec<InternedEdge>, edge: InternedEdge) {
    let id = edge.cert.id();
    let pos = list.partition_point(|e| e.cert.id() < id);
    list.insert(pos, edge);
}

#[derive(Debug, Default)]
struct IdShard {
    by_id: HashMap<DelegationId, Arc<SignedDelegation>>,
    revoked: BTreeSet<DelegationId>,
}

/// The graph of delegations a wallet holds, indexed by subject, object
/// and id.
///
/// This is the data structure at the heart of a wallet (paper Figure 1):
/// nodes are entities/roles/rights, edges are delegations. Alongside the
/// edges it stores the *support proofs* that issuers of third-party
/// delegations are required to provide at publication, the attribute
/// declarations for base values, and the revocation marks. See the
/// module docs for the shard layout and lock rules.
///
/// # Example
///
/// ```
/// use drbac_core::{LocalEntity, Node, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// use drbac_graph::{DelegationGraph, SearchOptions};
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(21);
/// # let g = SchnorrGroup::test_256();
/// let a = LocalEntity::generate("A", g.clone(), &mut rng);
/// let m = LocalEntity::generate("M", g, &mut rng);
///
/// let graph = DelegationGraph::new();
/// graph.insert(a.delegate(Node::entity(&m), Node::role(a.role("r"))).sign(&a)?);
///
/// let (proof, _stats) = graph.direct_query(
///     &Node::entity(&m),
///     &Node::role(a.role("r")),
///     &SearchOptions::at(Timestamp(0)),
/// );
/// assert!(proof.is_some());
/// # Ok::<(), drbac_core::ValidationError>(())
/// ```
#[derive(Debug)]
pub struct DelegationGraph {
    edge_shards: Box<[RwLock<EdgeShard>]>,
    id_shards: Box<[RwLock<IdShard>]>,
    /// Shared with every search and validation context; written
    /// copy-on-write by the rare `insert_declaration`.
    declarations: RwLock<Arc<DeclarationSet>>,
    /// Node ⇄ dense-id table. Append-only, so ids held by an in-flight
    /// search stay valid across concurrent writes; the cached namespace
    /// hash makes shard routing a table lookup.
    pub(crate) interner: NodeInterner,
}

impl Default for DelegationGraph {
    fn default() -> Self {
        DelegationGraph {
            edge_shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            id_shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            declarations: RwLock::default(),
            interner: NodeInterner::default(),
        }
    }
}

impl DelegationGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shard routing by interned id: the namespace hash was computed once
    /// at intern time, so this is a table lookup, not a fingerprint hash.
    fn edge_shard_of_id(&self, id: NodeId) -> &RwLock<EdgeShard> {
        &self.edge_shards[self.interner.ns_hash(id) as usize % SHARDS]
    }

    fn edge_shard_of_entity(&self, entity: EntityId) -> &RwLock<EdgeShard> {
        &self.edge_shards[namespace_hash(entity) as usize % SHARDS]
    }

    fn id_shard_of(&self, id: DelegationId) -> &RwLock<IdShard> {
        &self.id_shards[id.0[0] as usize % SHARDS]
    }

    /// Read-locks an edge shard, counting contention: if the lock can't be
    /// taken immediately (a writer holds it) the
    /// `drbac.graph.shard.contention.count` counter is bumped before
    /// blocking.
    fn read_edges(shard: &RwLock<EdgeShard>) -> parking_lot::RwLockReadGuard<'_, EdgeShard> {
        match shard.try_read() {
            Some(guard) => guard,
            None => {
                drbac_obs::static_counter!("drbac.graph.shard.contention.count").inc();
                shard.read()
            }
        }
    }

    /// Inserts a delegation. Returns its id; idempotent for identical
    /// delegations.
    ///
    /// Adjacency lists are kept ordered by delegation id, so the graph —
    /// and therefore every search answer, including which of several
    /// parallel edges a proof happens to use — is a pure function of the
    /// delegation *set*, not of insertion order. Journal replay and
    /// index-driven hydration insert in different orders and must still
    /// produce byte-identical proofs.
    pub fn insert(&self, cert: impl Into<Arc<SignedDelegation>>) -> DelegationId {
        let cert: Arc<SignedDelegation> = cert.into();
        let id = cert.id();
        {
            let mut ids = self.id_shard_of(id).write();
            if ids.by_id.contains_key(&id) {
                return id;
            }
            ids.by_id.insert(id, Arc::clone(&cert));
        }
        let subject = self.interner.intern(cert.delegation().subject());
        let object = self.interner.intern(cert.delegation().object());
        insert_edge_ordered(
            self.edge_shard_of_id(subject)
                .write()
                .by_subject
                .entry(subject)
                .or_default(),
            InternedEdge {
                cert: Arc::clone(&cert),
                far: object,
            },
        );
        insert_edge_ordered(
            self.edge_shard_of_id(object)
                .write()
                .by_object
                .entry(object)
                .or_default(),
            InternedEdge { cert, far: subject },
        );
        id
    }

    /// Inserts a third-party delegation together with the support proofs
    /// its issuer must provide (paper §4.1: wallets are freed "from having
    /// to conduct recursive searches to collect the supporting chains").
    pub fn insert_with_supports(
        &self,
        cert: impl Into<Arc<SignedDelegation>>,
        supports: Vec<Proof>,
    ) -> DelegationId {
        let id = self.insert(cert);
        for support in supports {
            self.provide_support(support);
        }
        id
    }

    /// Registers a standalone support proof, keyed by what it proves.
    /// Later insertions with the same key replace earlier ones.
    pub fn provide_support(&self, support: Proof) {
        if let Node::Entity(issuer) = support.subject() {
            let issuer = *issuer;
            let key = (issuer, support.object().clone());
            self.edge_shard_of_entity(issuer)
                .write()
                .supports
                .insert(key, support);
        }
    }

    /// Looks up a provided support proof for `(issuer, right)`.
    pub fn provided_support(&self, issuer: EntityId, right: &Node) -> Option<Proof> {
        let shard = Self::read_edges(self.edge_shard_of_entity(issuer));
        shard.supports.get(&(issuer, right.clone())).cloned()
    }

    /// `true` if [`DelegationGraph::provide_support`] of `support` would
    /// change nothing: it is the proof held under its key, or it has no
    /// key (its subject is not an entity).
    pub fn holds_support(&self, support: &Proof) -> bool {
        let Node::Entity(issuer) = support.subject() else {
            return true;
        };
        let shard = Self::read_edges(self.edge_shard_of_entity(*issuer));
        shard.supports.get(&(*issuer, support.object().clone())) == Some(support)
    }

    /// Every provided support proof (for persistence).
    pub fn all_supports(&self) -> Vec<Proof> {
        let mut out = Vec::new();
        for shard in self.edge_shards.iter() {
            out.extend(shard.read().supports.values().cloned());
        }
        out
    }

    /// Records a verified attribute declaration.
    pub fn insert_declaration(&self, decl: &AttrDeclaration) {
        Arc::make_mut(&mut self.declarations.write()).insert(decl);
    }

    /// The declaration set (base values for effective-value computation)
    /// as of now, shared rather than copied: a later `insert_declaration`
    /// writes a fresh copy and leaves this one as is, so one search or
    /// validation sees one consistent set.
    pub fn declarations(&self) -> Arc<DeclarationSet> {
        Arc::clone(&self.declarations.read())
    }

    /// Marks a delegation revoked. Revoked edges are skipped by searches
    /// and fail validation. Returns `true` if the id was known.
    pub fn revoke(&self, id: DelegationId) -> bool {
        let mut ids = self.id_shard_of(id).write();
        ids.revoked.insert(id);
        ids.by_id.contains_key(&id)
    }

    /// `true` if `id` has been revoked.
    pub fn is_revoked(&self, id: DelegationId) -> bool {
        self.id_shard_of(id).read().revoked.contains(&id)
    }

    /// The full revocation set (union over shards): O(every mark ever
    /// recorded), for whole-wallet rebuilds only. Anything that asks about
    /// a credential uses [`DelegationGraph::is_revoked`];
    /// `drbac.graph.revoked_ids.count` counts the calls so a test can
    /// hold the hot paths to zero.
    pub fn revoked_ids(&self) -> BTreeSet<DelegationId> {
        drbac_obs::static_counter!("drbac.graph.revoked_ids.count").inc();
        let mut out = BTreeSet::new();
        for shard in self.id_shards.iter() {
            out.extend(shard.read().revoked.iter().copied());
        }
        out
    }

    /// Removes a delegation entirely (e.g. an expired cache entry).
    /// Returns the removed credential, if present.
    pub fn remove(&self, id: DelegationId) -> Option<Arc<SignedDelegation>> {
        let cert = self.id_shard_of(id).write().by_id.remove(&id)?;
        let subject = self.interner.intern(cert.delegation().subject());
        let object = self.interner.intern(cert.delegation().object());
        if let Some(v) = self
            .edge_shard_of_id(subject)
            .write()
            .by_subject
            .get_mut(&subject)
        {
            v.retain(|e| e.cert.id() != id);
        }
        if let Some(v) = self
            .edge_shard_of_id(object)
            .write()
            .by_object
            .get_mut(&object)
        {
            v.retain(|e| e.cert.id() != id);
        }
        Some(cert)
    }

    /// Fetches a delegation by id.
    pub fn get(&self, id: DelegationId) -> Option<Arc<SignedDelegation>> {
        self.id_shard_of(id).read().by_id.get(&id).cloned()
    }

    /// `true` if the graph holds `id`.
    pub fn contains(&self, id: DelegationId) -> bool {
        self.id_shard_of(id).read().by_id.contains_key(&id)
    }

    /// Number of stored delegations.
    pub fn len(&self) -> usize {
        self.id_shards.iter().map(|s| s.read().by_id.len()).sum()
    }

    /// `true` if the graph holds no delegations.
    pub fn is_empty(&self) -> bool {
        self.id_shards.iter().all(|s| s.read().by_id.is_empty())
    }

    /// Every stored delegation (owned; order unspecified).
    pub fn iter_certs(&self) -> Vec<Arc<SignedDelegation>> {
        let mut out = Vec::new();
        self.for_each_cert(&mut |cert| out.push(Arc::clone(cert)));
        out
    }

    /// Streams every stored delegation through `f`, one shard at a time
    /// (order unspecified), without materializing the whole set. Used by
    /// index rebuilds and whole-graph sweeps over large wallets. The shard
    /// lock is held across each callback; don't re-enter the graph from
    /// `f`.
    pub fn for_each_cert(&self, f: &mut dyn FnMut(&Arc<SignedDelegation>)) {
        for shard in self.id_shards.iter() {
            for cert in shard.read().by_id.values() {
                f(cert);
            }
        }
    }

    /// Drops every delegation, support, declaration, and revocation mark.
    pub fn clear(&self) {
        for shard in self.edge_shards.iter() {
            *shard.write() = EdgeShard::default();
        }
        for shard in self.id_shards.iter() {
            *shard.write() = IdShard::default();
        }
        *self.declarations.write() = Arc::default();
    }

    /// Usable (unrevoked, unexpired at `now`) delegations whose subject
    /// is the interned `node`, in id order, each with its object endpoint
    /// pre-interned. The search hot path.
    pub(crate) fn edges_from_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge> {
        let edges = Self::read_edges(self.edge_shard_of_id(node))
            .by_subject
            .get(&node)
            .cloned();
        self.usable(edges, now)
    }

    /// Usable delegations whose object is the interned `node`, in id
    /// order, each with its subject endpoint pre-interned.
    pub(crate) fn edges_to_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge> {
        let edges = Self::read_edges(self.edge_shard_of_id(node))
            .by_object
            .get(&node)
            .cloned();
        self.usable(edges, now)
    }

    /// Drops the expired and revoked edges of one adjacency list, read
    /// with its shard lock already released.
    fn usable(&self, edges: Option<Vec<InternedEdge>>, now: Timestamp) -> Vec<InternedEdge> {
        let mut edges = edges.unwrap_or_default();
        edges.retain(|e| !e.cert.delegation().is_expired(now) && !self.is_revoked(e.cert.id()));
        edges
    }

    /// Usable (unrevoked, unexpired at `now`) delegations whose subject
    /// is `node` (outgoing edges), in id order.
    pub fn edges_from(&self, node: &Node, now: Timestamp) -> Vec<Arc<SignedDelegation>> {
        match self.interner.get(node) {
            Some(id) => self
                .edges_from_ids(id, now)
                .into_iter()
                .map(|e| e.cert)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Usable delegations whose object is `node` (incoming edges), in id
    /// order.
    pub fn edges_to(&self, node: &Node, now: Timestamp) -> Vec<Arc<SignedDelegation>> {
        match self.interner.get(node) {
            Some(id) => self
                .edges_to_ids(id, now)
                .into_iter()
                .map(|e| e.cert)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Structural metrics over the stored graph (diagnostics and
    /// experiment reporting), streamed shard by shard.
    pub fn metrics(&self) -> GraphMetrics {
        let mut m = GraphMetrics::default();
        let mut entities: BTreeSet<EntityId> = BTreeSet::new();
        let mut roles: BTreeSet<Node> = BTreeSet::new();
        let mut issuers: BTreeSet<EntityId> = BTreeSet::new();
        self.for_each_cert(&mut |cert| {
            let d = cert.delegation();
            m.delegations += 1;
            for node in [d.subject(), d.object()] {
                if node.is_role_like() {
                    roles.insert(node.clone());
                }
                entities.insert(node.namespace());
            }
            issuers.insert(d.issuer());
            entities.insert(d.issuer());
            if d.kind() == drbac_core::DelegationKind::ThirdParty {
                m.third_party += 1;
            }
            if !d.clauses().is_empty() {
                m.with_attributes += 1;
            }
        });
        for shard in self.edge_shards.iter() {
            let shard = shard.read();
            let widest = shard.by_subject.values().map(Vec::len).max().unwrap_or(0);
            m.max_out_degree = m.max_out_degree.max(widest);
            m.provided_supports += shard.supports.len();
        }
        m.revoked = self.id_shards.iter().map(|s| s.read().revoked.len()).sum();
        m.entities = entities.len();
        m.roles = roles.len();
        m.issuers = issuers.len();
        m.declarations = self.declarations.read().len();
        m
    }
}

/// A validation against this graph reads one id shard per credential it
/// visits, never a copy of the marks.
impl RevocationLookup for DelegationGraph {
    fn is_revoked(&self, id: DelegationId) -> bool {
        DelegationGraph::is_revoked(self, id)
    }
}

/// Structural summary of a delegation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphMetrics {
    /// Stored delegations (including revoked ones still marked).
    pub delegations: usize,
    /// Revocation marks.
    pub revoked: usize,
    /// Distinct entities appearing anywhere.
    pub entities: usize,
    /// Distinct role-like nodes.
    pub roles: usize,
    /// Distinct issuing entities.
    pub issuers: usize,
    /// Third-party delegations.
    pub third_party: usize,
    /// Delegations carrying attribute clauses.
    pub with_attributes: usize,
    /// Largest out-degree of any node.
    pub max_out_degree: usize,
    /// Provided support proofs on file.
    pub provided_supports: usize,
    /// Attribute declarations on file.
    pub declarations: usize,
}

impl std::fmt::Display for GraphMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} delegations ({} third-party, {} with attributes, {} revoked), \
             {} roles across {} entities, max out-degree {}, {} supports, {} declarations",
            self.delegations,
            self.third_party,
            self.with_attributes,
            self.revoked,
            self.roles,
            self.entities,
            self.max_out_degree,
            self.provided_supports,
            self.declarations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchOptions;
    use drbac_core::{LocalEntity, ProofStep};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn local(name: &str, seed: u64) -> LocalEntity {
        LocalEntity::generate(
            name,
            SchnorrGroup::test_256(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    fn opts() -> SearchOptions {
        SearchOptions::at(Timestamp(0))
    }

    #[test]
    fn insert_is_idempotent_and_indexed() {
        let a = local("A", 1);
        let m = local("M", 2);
        let cert = a
            .delegate(Node::entity(&m), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        let g = DelegationGraph::new();
        let id1 = g.insert(cert.clone());
        let id2 = g.insert(cert);
        assert_eq!(id1, id2);
        assert_eq!(g.len(), 1);
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(0)).len(), 1);
        assert_eq!(g.edges_to(&Node::role(a.role("r")), Timestamp(0)).len(), 1);
        assert!(g.contains(id1));
        assert!(g.get(id1).is_some());
    }

    #[test]
    fn revoked_and_expired_edges_are_skipped() {
        let a = local("A", 1);
        let m = local("M", 2);
        let c1 = a
            .delegate(Node::entity(&m), Node::role(a.role("r1")))
            .sign(&a)
            .unwrap();
        let c2 = a
            .delegate(Node::entity(&m), Node::role(a.role("r2")))
            .expires(Timestamp(5))
            .sign(&a)
            .unwrap();
        let g = DelegationGraph::new();
        let id1 = g.insert(c1);
        g.insert(c2);
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(0)).len(), 2);
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(6)).len(), 1);
        assert!(g.revoke(id1));
        assert!(g.is_revoked(id1));
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(6)).len(), 0);
        assert_eq!(g.revoked_ids().len(), 1);
    }

    #[test]
    fn insert_query_revoke_roundtrip() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = DelegationGraph::new();
        let r1 = a.role("r1");
        let r2 = a.role("r2");
        let id = g.insert(
            a.delegate(Node::entity(&m), Node::role(r1.clone()))
                .sign(&a)
                .unwrap(),
        );
        g.insert(
            a.delegate(Node::role(r1), Node::role(r2.clone()))
                .sign(&a)
                .unwrap(),
        );
        let (proof, stats) = g.direct_query(&Node::entity(&m), &Node::role(r2.clone()), &opts());
        assert_eq!(proof.expect("chain").chain_len(), 2);
        assert!(stats.nodes_expanded >= 1);

        g.revoke(id);
        let (proof, _) = g.direct_query(&Node::entity(&m), &Node::role(r2), &opts());
        assert!(proof.is_none(), "revoked first hop breaks the chain");
    }

    #[test]
    fn remove_unindexes_and_clear_empties() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = DelegationGraph::new();
        let id = g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("r")))
                .sign(&a)
                .unwrap(),
        );
        g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("other")))
                .sign(&a)
                .unwrap(),
        );
        assert!(g.remove(id).is_some());
        assert!(g.remove(id).is_none());
        assert_eq!(g.len(), 1);
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(0)).len(), 1);
        g.clear();
        assert!(g.is_empty());
        assert!(g.edges_from(&Node::entity(&m), Timestamp(0)).is_empty());
    }

    #[test]
    fn supports_are_keyed_by_issuer_and_right() {
        let a = local("A", 1);
        let b = local("B", 2);
        let member = a.role("member");
        let grant = a
            .delegate(Node::entity(&b), Node::role_admin(member.clone()))
            .sign(&a)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
        let g = DelegationGraph::new();
        g.provide_support(support.clone());
        assert_eq!(
            g.provided_support(b.id(), &Node::role_admin(member.clone())),
            Some(support)
        );
        assert_eq!(g.provided_support(a.id(), &Node::role_admin(member)), None);
        assert_eq!(g.all_supports().len(), 1);
    }

    #[test]
    fn metrics_count_structure() {
        let a = local("A", 1);
        let b = local("B", 2);
        let m = local("M", 3);
        let g = DelegationGraph::new();
        assert_eq!(g.metrics(), GraphMetrics::default());

        let bw = a.attr("bw", drbac_core::AttrOp::Min);
        g.insert_declaration(&drbac_core::AttrDeclaration::new(bw.clone(), 10.0).unwrap());
        // Self-certified with attribute.
        let c1 = a
            .delegate(Node::entity(&m), Node::role(a.role("r1")))
            .with_attr(bw, 5.0)
            .unwrap()
            .sign(&a)
            .unwrap();
        // Third-party.
        let c2 = b
            .delegate(Node::role(a.role("r1")), Node::role(a.role("r2")))
            .sign(&b)
            .unwrap();
        let id1 = g.insert(c1);
        g.insert(c2);
        g.revoke(id1);

        let metrics = g.metrics();
        assert_eq!(metrics.delegations, 2);
        assert_eq!(metrics.revoked, 1);
        assert_eq!(metrics.third_party, 1);
        assert_eq!(metrics.with_attributes, 1);
        assert_eq!(metrics.roles, 2);
        assert_eq!(metrics.issuers, 2);
        assert_eq!(metrics.entities, 3, "A, B, M");
        assert_eq!(metrics.max_out_degree, 1);
        assert_eq!(metrics.declarations, 1);
        assert!(metrics.to_string().contains("2 delegations"));
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        let a = local("A", 1);
        let users: Vec<LocalEntity> = (0..4).map(|i| local(&format!("U{i}"), 100 + i)).collect();
        let g = DelegationGraph::new();
        let role = a.role("r");
        let mut certs = Vec::new();
        for (i, u) in users.iter().enumerate() {
            certs.push(
                a.delegate(Node::entity(u), Node::role(role.clone()))
                    .serial(i as u64)
                    .sign(&a)
                    .unwrap(),
            );
        }
        std::thread::scope(|s| {
            for chunk in certs.chunks(2) {
                let g = &g;
                s.spawn(move || {
                    for c in chunk {
                        g.insert(c.clone());
                    }
                });
            }
            for u in &users {
                let g = &g;
                let subject = Node::entity(u);
                let target = Node::role(role.clone());
                s.spawn(move || {
                    for _ in 0..20 {
                        let _ = g.direct_query(&subject, &target, &opts());
                    }
                });
            }
        });
        assert_eq!(g.len(), users.len());
        for u in &users {
            let (proof, _) = g.direct_query(&Node::entity(u), &Node::role(role.clone()), &opts());
            assert!(proof.is_some(), "every published grant resolvable");
        }
    }
}
