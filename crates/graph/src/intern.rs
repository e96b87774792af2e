//! Dense integer interning of graph nodes.
//!
//! Every [`Node`] that enters a graph is assigned a dense `u32` id by a
//! graph-owned [`NodeInterner`]. Adjacency, frontier dedup, and
//! edge-endpoint comparisons then operate on [`NodeId`]s — single-word
//! hashes and `==` instead of fingerprint hashing and `Node::clone()` per
//! edge. Alongside the id, the interner caches the hash of the node's
//! namespace entity so shard routing is a table lookup instead of a
//! `DefaultHasher` run over a 32-byte fingerprint.
//!
//! The table is append-only: ids are never reused or remapped, so a
//! search may keep ids across lock acquisitions and a concurrent writer
//! interning new nodes can never invalidate them. Interning an existing
//! node takes a read lock only. Nothing here is visible outside the
//! crate.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use parking_lot::RwLock;

use drbac_core::Node;

/// Dense graph-local identity of an interned [`Node`].
///
/// Ids are only meaningful relative to the [`NodeInterner`] that issued
/// them; they are *not* stable across graphs or process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct NodeId(u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fast one-word hasher for maps keyed by [`NodeId`] (or other small
/// integer keys). Fibonacci-style multiply-xor, in the spirit of FxHash;
/// not DoS-resistant, which is fine for ids we assign ourselves.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FastIdHasher(u64);

const FAST_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FastIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FAST_SEED);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(FAST_SEED);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FAST_SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed by interned ids, using [`FastIdHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastIdHasher>>;

/// `HashSet` of interned ids, using [`FastIdHasher`].
pub(crate) type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<FastIdHasher>>;

#[derive(Debug, Default)]
struct Table {
    ids: HashMap<Node, NodeId>,
    /// `DefaultHasher` hash of each node's namespace, indexed by id — the
    /// shard-routing key, computed once here instead of per access.
    ns_hashes: Vec<u64>,
}

/// Append-only `Node` ⇄ [`NodeId`] table with interior mutability.
///
/// All methods take `&self`; `intern` takes the write lock only when the
/// node is genuinely new.
#[derive(Debug, Default)]
pub(crate) struct NodeInterner {
    table: RwLock<Table>,
}

/// Hashes a namespace entity the same way shard routing always has
/// (`DefaultHasher` over the `EntityId`).
pub(crate) fn namespace_hash(entity: drbac_core::EntityId) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    entity.hash(&mut h);
    h.finish()
}

impl NodeInterner {
    /// The id of `node`, assigning a fresh one if it was never seen.
    pub(crate) fn intern(&self, node: &Node) -> NodeId {
        if let Some(id) = self.table.read().ids.get(node) {
            return *id;
        }
        let mut table = self.table.write();
        if let Some(id) = table.ids.get(node) {
            return *id; // raced with another interning writer
        }
        let id = NodeId(u32::try_from(table.ns_hashes.len()).expect("interner full"));
        table.ns_hashes.push(namespace_hash(node.namespace()));
        table.ids.insert(node.clone(), id);
        id
    }

    /// The id of `node` if it has been interned.
    pub(crate) fn get(&self, node: &Node) -> Option<NodeId> {
        self.table.read().ids.get(node).copied()
    }

    /// The cached namespace hash of `id` (shard-routing key).
    ///
    /// # Panics
    ///
    /// If `id` was not issued by this interner.
    pub(crate) fn ns_hash(&self, id: NodeId) -> u64 {
        self.table.read().ns_hashes[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::LocalEntity;
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = LocalEntity::generate("A", SchnorrGroup::test_256(), &mut rng);
        let interner = NodeInterner::default();
        let n1 = Node::entity(&a);
        let n2 = Node::role(a.role("r"));
        let id1 = interner.intern(&n1);
        let id2 = interner.intern(&n2);
        assert_ne!(id1, id2);
        assert_eq!(interner.intern(&n1), id1, "re-interning is stable");
        assert_eq!(interner.get(&n2), Some(id2));
        assert_eq!((id1.index(), id2.index()), (0, 1), "ids are dense");
    }

    #[test]
    fn ns_hash_matches_default_hasher_of_namespace() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = LocalEntity::generate("A", SchnorrGroup::test_256(), &mut rng);
        let interner = NodeInterner::default();
        let node = Node::role(a.role("r"));
        let id = interner.intern(&node);
        assert_eq!(interner.ns_hash(id), namespace_hash(node.namespace()));
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_node() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = LocalEntity::generate("A", SchnorrGroup::test_256(), &mut rng);
        let interner = NodeInterner::default();
        let nodes: Vec<Node> = (0..32).map(|i| Node::role(a.role(&format!("r{i}")))).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for n in &nodes {
                        interner.intern(n);
                    }
                });
            }
        });
        let mut ids: Vec<NodeId> = nodes.iter().map(|n| interner.get(n).unwrap()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), nodes.len());
        assert_eq!(ids.last().map(|id| id.index()), Some(nodes.len() - 1));
    }
}
