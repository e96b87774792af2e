//! A delegation store sharded behind per-shard reader–writer locks.
//!
//! [`ShardedGraph`] holds the same data as [`DelegationGraph`] but splits
//! it across independent lock domains so concurrent provers don't
//! serialize on a single graph lock:
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

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use drbac_core::{
    AttrDeclaration, DeclarationSet, DelegationId, EntityId, Node, Proof, RevocationLookup,
    SignedDelegation, Timestamp,
};

use crate::intern::{namespace_hash, FastMap, NodeId, NodeInterner};
use crate::search::{direct_query_on, object_query_on, subject_query_on};
use crate::view::{GraphView, InternedEdge};
use crate::{DelegationGraph, GraphMetrics, SearchOptions, SearchStats};

/// Default number of edge/id shards.
const DEFAULT_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct EdgeShard {
    /// Adjacency keyed by interned subject id; each entry carries the
    /// object endpoint pre-interned so searches never hash a `Node`.
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

/// A concurrently usable delegation graph: the [`DelegationGraph`] data
/// model behind per-shard `RwLock`s. See the module docs for the shard
/// layout and lock rules.
#[derive(Debug)]
pub struct ShardedGraph {
    edge_shards: Box<[RwLock<EdgeShard>]>,
    id_shards: Box<[RwLock<IdShard>]>,
    /// Shared with every validation context the wallet builds; written
    /// copy-on-write by the rare `insert_declaration`.
    declarations: RwLock<Arc<DeclarationSet>>,
    /// Node ⇄ dense-id table. Append-only, so ids held by an in-flight
    /// search stay valid across concurrent writes; the cached namespace
    /// hash makes shard routing a table lookup.
    interner: NodeInterner,
}

impl Default for ShardedGraph {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl ShardedGraph {
    /// An empty graph with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with `shards` lock domains (clamped to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedGraph {
            edge_shards: (0..n).map(|_| RwLock::new(EdgeShard::default())).collect(),
            id_shards: (0..n).map(|_| RwLock::new(IdShard::default())).collect(),
            declarations: RwLock::default(),
            interner: NodeInterner::new(),
        }
    }

    /// Number of shard lock domains.
    pub fn shard_count(&self) -> usize {
        self.edge_shards.len()
    }

    /// Shard routing by interned id: the namespace hash was computed once
    /// at intern time, so this is a table lookup, not a fingerprint hash.
    fn edge_shard_of_id(&self, id: NodeId) -> &RwLock<EdgeShard> {
        let idx = (self.interner.ns_hash(id) as usize) % self.edge_shards.len();
        &self.edge_shards[idx]
    }

    fn edge_shard_of_entity(&self, entity: EntityId) -> &RwLock<EdgeShard> {
        let idx = (namespace_hash(entity) as usize) % self.edge_shards.len();
        &self.edge_shards[idx]
    }

    fn id_shard_of(&self, id: DelegationId) -> &RwLock<IdShard> {
        &self.id_shards[id.0[0] as usize % self.id_shards.len()]
    }

    /// Read-locks an edge shard, counting contention: if the lock can't be
    /// taken immediately (a writer holds it) the
    /// `drbac.graph.shard.contention.count` counter is bumped before
    /// blocking.
    fn read_edges<'a>(
        &'a self,
        shard: &'a RwLock<EdgeShard>,
    ) -> parking_lot::RwLockReadGuard<'a, EdgeShard> {
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
    /// its issuer must provide.
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
        let shard = self.edge_shard_of_entity(issuer);
        let guard = self.read_edges(shard);
        guard.supports.get(&(issuer, right.clone())).cloned()
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

    /// The declaration set as of now, shared rather than copied: a later
    /// `insert_declaration` writes a fresh copy and leaves this one as is.
    pub fn declarations(&self) -> Arc<DeclarationSet> {
        Arc::clone(&self.declarations.read())
    }

    /// Marks a delegation revoked. Revoked edges are skipped by searches.
    /// Returns `true` if the id was known.
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
    /// recorded), for index rebuilds only. Anything that asks about a
    /// credential uses [`ShardedGraph::is_revoked`];
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
        {
            let mut shard = self.edge_shard_of_id(subject).write();
            if let Some(v) = shard.by_subject.get_mut(&subject) {
                v.retain(|e| e.cert.id() != id);
            }
        }
        {
            let mut shard = self.edge_shard_of_id(object).write();
            if let Some(v) = shard.by_object.get_mut(&object) {
                v.retain(|e| e.cert.id() != id);
            }
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
        for shard in self.id_shards.iter() {
            out.extend(shard.read().by_id.values().cloned());
        }
        out
    }

    /// Streams every stored delegation through `f`, one shard at a time
    /// (order unspecified), without materializing the whole set. Used by
    /// index rebuilds and snapshot-adjacent sweeps over large wallets.
    /// The shard lock is held across each callback; don't re-enter the
    /// graph from `f`.
    pub fn for_each_cert(&self, f: &mut dyn FnMut(&Arc<SignedDelegation>)) {
        for shard in self.id_shards.iter() {
            for cert in shard.read().by_id.values() {
                f(cert);
            }
        }
    }

    /// Drops expired delegations given the current time; returns how many
    /// were removed.
    pub fn purge_expired(&self, now: Timestamp) -> usize {
        let expired: Vec<DelegationId> = self
            .iter_certs()
            .into_iter()
            .filter(|c| c.delegation().is_expired(now))
            .map(|c| c.id())
            .collect();
        let mut n = 0;
        for id in expired {
            if self.remove(id).is_some() {
                n += 1;
            }
        }
        n
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

    /// Materializes a single-threaded [`DelegationGraph`] with the same
    /// contents. This walks every shard — it's for diagnostics, export,
    /// and oracle checks, not for the query hot path.
    pub fn snapshot(&self) -> DelegationGraph {
        let mut by_subject: HashMap<Node, Vec<Arc<SignedDelegation>>> = HashMap::new();
        let mut by_object: HashMap<Node, Vec<Arc<SignedDelegation>>> = HashMap::new();
        let mut supports: HashMap<(EntityId, Node), Proof> = HashMap::new();
        for shard in self.edge_shards.iter() {
            let guard = shard.read();
            for (k, v) in &guard.by_subject {
                by_subject.insert(
                    self.interner.resolve(*k),
                    v.iter().map(|e| Arc::clone(&e.cert)).collect(),
                );
            }
            for (k, v) in &guard.by_object {
                by_object.insert(
                    self.interner.resolve(*k),
                    v.iter().map(|e| Arc::clone(&e.cert)).collect(),
                );
            }
            for (k, v) in &guard.supports {
                supports.insert(k.clone(), v.clone());
            }
        }
        let mut by_id: HashMap<DelegationId, Arc<SignedDelegation>> = HashMap::new();
        let mut revoked: BTreeSet<DelegationId> = BTreeSet::new();
        for shard in self.id_shards.iter() {
            let guard = shard.read();
            for (k, v) in &guard.by_id {
                by_id.insert(*k, Arc::clone(v));
            }
            revoked.extend(guard.revoked.iter().copied());
        }
        DelegationGraph {
            by_subject,
            by_object,
            by_id,
            supports,
            declarations: DeclarationSet::clone(&self.declarations.read()),
            revoked,
            interner: NodeInterner::new(),
        }
    }

    /// Structural metrics (via [`ShardedGraph::snapshot`]; diagnostics
    /// only).
    pub fn metrics(&self) -> GraphMetrics {
        self.snapshot().metrics()
    }

    /// Direct query (§4.1) against the live sharded store; see
    /// [`DelegationGraph::direct_query`].
    pub fn direct_query(
        &self,
        subject: &Node,
        object: &Node,
        opts: &SearchOptions,
    ) -> (Option<Proof>, SearchStats) {
        direct_query_on(self, subject, object, opts)
    }

    /// Subject query (§4.1); see [`DelegationGraph::subject_query`].
    pub fn subject_query(&self, subject: &Node, opts: &SearchOptions) -> (Vec<Proof>, SearchStats) {
        subject_query_on(self, subject, opts)
    }

    /// Object query (§4.1); see [`DelegationGraph::object_query`].
    pub fn object_query(&self, object: &Node, opts: &SearchOptions) -> (Vec<Proof>, SearchStats) {
        object_query_on(self, object, opts)
    }
}

impl GraphView for ShardedGraph {
    fn interner(&self) -> &NodeInterner {
        &self.interner
    }

    fn edges_from_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge> {
        let mut edges: Vec<InternedEdge> = {
            let shard = self.edge_shard_of_id(node);
            let guard = self.read_edges(shard);
            guard.by_subject.get(&node).cloned().unwrap_or_default()
        };
        edges.retain(|e| !e.cert.delegation().is_expired(now) && !self.is_revoked(e.cert.id()));
        edges
    }

    fn edges_to_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge> {
        let mut edges: Vec<InternedEdge> = {
            let shard = self.edge_shard_of_id(node);
            let guard = self.read_edges(shard);
            guard.by_object.get(&node).cloned().unwrap_or_default()
        };
        edges.retain(|e| !e.cert.delegation().is_expired(now) && !self.is_revoked(e.cert.id()));
        edges
    }

    fn support_for(&self, issuer: EntityId, right: &Node) -> Option<Proof> {
        self.provided_support(issuer, right)
    }

    fn id_revoked(&self, id: DelegationId) -> bool {
        self.is_revoked(id)
    }

    fn declaration_set(&self) -> DeclarationSet {
        DeclarationSet::clone(&self.declarations.read())
    }
}

/// A validation against this graph reads one id shard per credential it
/// visits, never a copy of the marks.
impl RevocationLookup for ShardedGraph {
    fn is_revoked(&self, id: DelegationId) -> bool {
        ShardedGraph::is_revoked(self, id)
    }
}

impl From<DelegationGraph> for ShardedGraph {
    fn from(graph: DelegationGraph) -> Self {
        let sharded = ShardedGraph::new();
        for cert in graph.by_id.values() {
            sharded.insert(Arc::clone(cert));
        }
        for support in graph.supports.values() {
            sharded.provide_support(support.clone());
        }
        *sharded.declarations.write() = Arc::new(graph.declarations.clone());
        for id in &graph.revoked {
            let mut shard = sharded.id_shard_of(*id).write();
            shard.revoked.insert(*id);
        }
        sharded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn insert_query_revoke_roundtrip() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = ShardedGraph::new();
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
        assert_eq!(g.len(), 2);
        assert!(g.contains(id));
        let (proof, _) = g.direct_query(&Node::entity(&m), &Node::role(r2.clone()), &opts());
        assert_eq!(proof.expect("chain").chain_len(), 2);

        assert!(g.revoke(id));
        assert!(g.is_revoked(id));
        let (proof, _) = g.direct_query(&Node::entity(&m), &Node::role(r2), &opts());
        assert!(proof.is_none(), "revoked first hop breaks the chain");
        assert_eq!(g.revoked_ids().len(), 1);
    }

    #[test]
    fn queries_match_unsharded_graph_across_shard_counts() {
        let a = local("A", 1);
        let b = local("B", 7);
        let m = local("M", 2);
        let mut plain = DelegationGraph::new();
        let mut certs = Vec::new();
        // A few ladders, a third-party edge with support, one revocation.
        let mut prev = Node::entity(&m);
        for d in 0..4 {
            let r = Node::role(a.role(&format!("d{d}")));
            certs.push(a.delegate(prev.clone(), r.clone()).sign(&a).unwrap());
            prev = r;
        }
        certs.push(
            a.delegate(Node::entity(&b), Node::role_admin(a.role("member")))
                .sign(&a)
                .unwrap(),
        );
        certs.push(
            b.delegate(Node::role(a.role("d3")), Node::role(a.role("member")))
                .sign(&b)
                .unwrap(),
        );
        for c in &certs {
            plain.insert(c.clone());
        }
        let revoked_id = certs[1].id();
        plain.revoke(revoked_id);

        for shards in [1usize, 3, 16] {
            let g = ShardedGraph::with_shards(shards);
            for c in &certs {
                g.insert(c.clone());
            }
            g.revoke(revoked_id);
            for target in ["d0", "d1", "d2", "d3", "member"] {
                let t = Node::role(a.role(target));
                let (want, _) = plain.direct_query(&Node::entity(&m), &t, &opts());
                let (got, _) = g.direct_query(&Node::entity(&m), &t, &opts());
                assert_eq!(want, got, "target {target}, shards {shards}");
            }
            let (want_s, _) = plain.subject_query(&Node::entity(&m), &opts());
            let (got_s, _) = g.subject_query(&Node::entity(&m), &opts());
            assert_eq!(want_s, got_s, "subject query, shards {shards}");
            let t = Node::role(a.role("member"));
            let (want_o, _) = plain.object_query(&t, &opts());
            let (got_o, _) = g.object_query(&t, &opts());
            assert_eq!(want_o, got_o, "object query, shards {shards}");
        }
    }

    #[test]
    fn snapshot_preserves_contents() {
        let a = local("A", 1);
        let b = local("B", 5);
        let m = local("M", 2);
        let g = ShardedGraph::new();
        let member = a.role("member");
        let grant = a
            .delegate(Node::entity(&b), Node::role_admin(member.clone()))
            .sign(&a)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
        let id = g.insert_with_supports(
            b.delegate(Node::entity(&m), Node::role(member.clone()))
                .sign(&b)
                .unwrap(),
            vec![support.clone()],
        );
        let other = g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("r")))
                .sign(&a)
                .unwrap(),
        );
        g.revoke(other);

        let snap = g.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap.is_revoked(other));
        assert!(snap.contains(id));
        assert_eq!(
            snap.provided_support(b.id(), &Node::role_admin(member.clone())),
            Some(&support)
        );
        // The snapshot answers queries like the sharded original.
        let (want, _) = g.direct_query(&Node::entity(&m), &Node::role(member.clone()), &opts());
        let (got, _) = snap.direct_query(&Node::entity(&m), &Node::role(member), &opts());
        assert_eq!(want, got);
        // And converting back keeps everything too.
        let back = ShardedGraph::from(snap);
        assert_eq!(back.len(), 2);
        assert!(back.is_revoked(other));
    }

    #[test]
    fn remove_and_purge_unindex_across_shards() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = ShardedGraph::with_shards(4);
        let keep = g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("keep")))
                .sign(&a)
                .unwrap(),
        );
        g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("drop")))
                .expires(Timestamp(3))
                .sign(&a)
                .unwrap(),
        );
        assert_eq!(g.purge_expired(Timestamp(10)), 1);
        assert_eq!(g.len(), 1);
        assert!(g.remove(keep).is_some());
        assert!(g.remove(keep).is_none());
        assert!(g.is_empty());
        assert!(g.edges_from(&Node::entity(&m), Timestamp(0)).is_empty());
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        let a = local("A", 1);
        let users: Vec<LocalEntity> = (0..4).map(|i| local(&format!("U{i}"), 100 + i)).collect();
        let g = Arc::new(ShardedGraph::new());
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
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for c in chunk {
                        g.insert(c.clone());
                    }
                });
            }
            for u in &users {
                let g = Arc::clone(&g);
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
