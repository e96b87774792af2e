//! The revocation-coherent proof cache.
//!
//! [`ProofCache`] memoizes direct-query answers keyed by
//! `(subject, object, constraint-set)`. Each positive entry carries the
//! full set of delegation ids its proof depends on — recursively,
//! including every credential inside support proofs — plus the earliest
//! expiry among them. The invariant the wallet maintains through it:
//!
//! > **A cached proof can never outlive any edge in its DAG.** Whenever a
//! > delegation is revoked or expires (locally or via a pushed remote
//! > invalidation), every cached answer depending on it is dropped before
//! > the revocation becomes observable; time-based expiry is checked on
//! > every read against the entry's minimum expiry.
//!
//! Negative answers carry no dependencies: revocation and expiry only
//! *remove* edges, and search answers are monotone in the edge set, so a
//! negative answer can only be flipped by an *addition* (publish, absorb,
//! provide-support). Those paths call
//! [`ProofCache::invalidate_negatives`], which drops the negatives — held
//! in a set of their own — without visiting a cached proof; declaration
//! changes can flip either direction (they re-base constraint
//! evaluation) and clear the whole cache.
//!
//! Concurrency: a lost-invalidation race exists between a prover that
//! searched stale data and an invalidator whose sweep ran before the
//! prover inserted. The cache closes it with an epoch counter —
//! invalidators bump the epoch *before* sweeping, and
//! [`ProofCache::insert`] refuses to store an answer computed against an
//! older epoch.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use drbac_core::{AttrConstraint, AttrRef, AttrSummary, DelegationId, Node, Proof, Timestamp};
use parking_lot::Mutex;

/// Cache key for a direct query: endpoints plus constraints (operand
/// bit-patterns keep `f64` hashable without loss).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    subject: Node,
    object: Node,
    constraints: Vec<(AttrRef, u64)>,
}

impl QueryKey {
    pub(crate) fn new(subject: &Node, object: &Node, constraints: &[AttrConstraint]) -> Self {
        QueryKey {
            subject: subject.clone(),
            object: object.clone(),
            constraints: constraints
                .iter()
                .map(|c| (c.attr.clone(), c.at_least.to_bits()))
                .collect(),
        }
    }
}

/// A key as the cache holds it: allocated once, shared by the answer
/// map, the reverse index and the negatives set, and looked up by
/// borrow (`Arc<QueryKey>: Borrow<QueryKey>`).
type SharedKey = Arc<QueryKey>;

/// A memoized grant. The delegation ids it depends on are read from
/// the proof itself ([`Proof::try_for_each_cert`]), not kept beside it.
#[derive(Debug)]
struct CacheSlot {
    found: (Proof, AttrSummary),
    /// Earliest expiry among the proof's credentials; `None` when none
    /// of them expire.
    min_expiry: Option<Timestamp>,
}

impl CacheSlot {
    fn depends_on(&self, id: DelegationId) -> bool {
        self.found
            .0
            .try_for_each_cert(&mut |cert| {
                if cert.id() == id {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .is_break()
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Cached grants, each slot behind one box so spare map capacity
    /// costs a pointer per bucket.
    entries: HashMap<SharedKey, Box<CacheSlot>>,
    /// Reverse index: delegation id → keys of entries depending on it.
    rev: HashMap<DelegationId, HashSet<SharedKey>>,
    /// Cached denials, apart from the grants: a denial has no
    /// dependencies and no expiry, and an addition drops all of them
    /// without walking a single grant.
    negatives: HashSet<SharedKey>,
}

/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct ProofCache {
    inner: Mutex<CacheInner>,
    /// Bumped by every invalidation *before* the sweep; inserts are
    /// rejected if the epoch moved since the search began.
    epoch: AtomicU64,
}

impl ProofCache {
    /// The current invalidation epoch. Capture before searching; pass to
    /// [`ProofCache::insert`].
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Looks up a cached answer valid at `now`. Entries past their
    /// minimum expiry are dropped on the way out (a proof must not
    /// outlive its earliest-expiring edge).
    pub(crate) fn get(
        &self,
        key: &QueryKey,
        now: Timestamp,
    ) -> Option<Option<(Proof, AttrSummary)>> {
        let mut inner = self.inner.lock();
        let expired = match inner.entries.get(key) {
            None => return inner.negatives.contains(key).then_some(None),
            Some(slot) => slot.min_expiry.is_some_and(|e| now > e),
        };
        if expired {
            let slot = inner.entries.remove(key).expect("checked above");
            deregister(&mut inner, key, &slot);
            return None;
        }
        inner.entries.get(key).map(|slot| Some(slot.found.clone()))
    }

    /// Stores an answer computed while the cache was at `epoch_at_search`.
    /// If any invalidation ran in between, the answer may reflect edges
    /// that no longer exist — it is discarded instead of stored.
    pub(crate) fn insert(
        &self,
        key: QueryKey,
        found: Option<(Proof, AttrSummary)>,
        epoch_at_search: u64,
    ) {
        let mut inner = self.inner.lock();
        if self.epoch.load(Ordering::SeqCst) != epoch_at_search {
            drbac_obs::static_counter!("drbac.graph.proof_cache.race_skip.count").inc();
            return;
        }
        if let Some(old) = inner.entries.remove(&key) {
            deregister(&mut inner, &key, &old);
        }
        let Some(found) = found else {
            inner.negatives.insert(Arc::new(key));
            return;
        };
        inner.negatives.remove(&key);
        let key = Arc::new(key);
        let mut min_expiry = None;
        let _ = found.0.try_for_each_cert(&mut |cert| {
            inner
                .rev
                .entry(cert.id())
                .or_default()
                .insert(Arc::clone(&key));
            min_expiry = min_expiry
                .into_iter()
                .chain(cert.delegation().expires())
                .min();
            ControlFlow::<()>::Continue(())
        });
        inner
            .entries
            .insert(key, Box::new(CacheSlot { found, min_expiry }));
    }

    /// Drops every entry whose proof depends on `id` (revoked or
    /// expired). The epoch is bumped *before* the sweep so concurrent
    /// in-flight searches cannot re-install a stale answer afterwards.
    pub(crate) fn invalidate_dep(&self, id: DelegationId) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock();
        let keys = match inner.rev.remove(&id) {
            Some(keys) => keys,
            None => return,
        };
        let mut dropped = 0u64;
        for key in keys {
            // The reverse index can be stale if the entry was replaced by
            // a proof no longer depending on `id`; verify before removal.
            let depends = inner
                .entries
                .get(&key)
                .is_some_and(|slot| slot.depends_on(id));
            if !depends {
                continue;
            }
            if let Some(slot) = inner.entries.remove(&key) {
                // `id`'s own reverse entry is already gone.
                deregister(&mut inner, &key, &slot);
                dropped += 1;
            }
        }
        if dropped > 0 {
            drbac_obs::static_counter!("drbac.graph.proof_cache.invalidated.count").add(dropped);
        }
    }

    /// Drops every cached negative answer. Called on any path that adds
    /// edges (publish, absorb, provide-support): additions can
    /// flip a negative to a positive but never invalidate a cached proof.
    /// Costs O(negatives held), whatever the number of cached proofs;
    /// `drbac.graph.proof_cache.negative_sweep.visited.count` counts the
    /// entries visited.
    pub(crate) fn invalidate_negatives(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut inner = self.inner.lock();
        drbac_obs::static_counter!("drbac.graph.proof_cache.negative_sweep.visited.count")
            .add(inner.negatives.len() as u64);
        inner.negatives.clear();
    }

    /// Drops everything (declaration changes, wipes, toggles), tables
    /// included: the old maps are swapped out under the lock and freed
    /// after it is released.
    pub(crate) fn clear(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let old = std::mem::take(&mut *self.inner.lock());
        drop(old);
    }

    /// Number of cached answers (diagnostics).
    pub(crate) fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.entries.len() + inner.negatives.len()
    }
}

/// Removes `key` from the reverse index of every id `slot` depends on.
fn deregister(inner: &mut CacheInner, key: &QueryKey, slot: &CacheSlot) {
    let _ = slot.found.0.try_for_each_cert(&mut |cert| {
        let id = cert.id();
        if let Some(keys) = inner.rev.get_mut(&id) {
            keys.remove(key);
            if keys.is_empty() {
                inner.rev.remove(&id);
            }
        }
        ControlFlow::<()>::Continue(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{LocalEntity, ProofStep};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn proof_with_expiry(expiry: Option<Timestamp>) -> (Proof, DelegationId) {
        let mut rng = StdRng::seed_from_u64(17);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let mut b = a.delegate(Node::entity(&m), Node::role(a.role("r")));
        if let Some(e) = expiry {
            b = b.expires(e);
        }
        let cert = b.sign(&a).unwrap();
        let id = cert.id();
        (Proof::from_steps(vec![ProofStep::new(cert)]).unwrap(), id)
    }

    fn key(n: u8) -> QueryKey {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("K", g, &mut rng);
        QueryKey::new(&Node::entity(&a), &Node::role(a.role("r")), &[])
    }

    #[test]
    fn positive_entries_die_with_their_dependency() {
        let cache = ProofCache::default();
        let (proof, id) = proof_with_expiry(None);
        let epoch = cache.epoch();
        cache.insert(key(1), Some((proof, AttrSummary::default())), epoch);
        assert!(cache.get(&key(1), Timestamp(0)).is_some());
        cache.invalidate_dep(id);
        assert!(cache.get(&key(1), Timestamp(0)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn expiry_is_enforced_on_read() {
        let cache = ProofCache::default();
        let (proof, _) = proof_with_expiry(Some(Timestamp(5)));
        cache.insert(key(1), Some((proof, AttrSummary::default())), cache.epoch());
        assert!(
            cache.get(&key(1), Timestamp(5)).is_some(),
            "valid at expiry"
        );
        assert!(cache.get(&key(1), Timestamp(6)).is_none(), "dead after");
        assert_eq!(cache.len(), 0, "expired entry dropped");
    }

    #[test]
    fn negatives_survive_revocation_but_not_additions() {
        let cache = ProofCache::default();
        let (_, id) = proof_with_expiry(None);
        cache.insert(key(1), None, cache.epoch());
        cache.invalidate_dep(id);
        assert!(
            matches!(cache.get(&key(1), Timestamp(0)), Some(None)),
            "revocation cannot flip a negative"
        );
        cache.invalidate_negatives();
        assert!(cache.get(&key(1), Timestamp(0)).is_none());
    }

    #[test]
    fn negative_sweep_follows_replacement_and_spares_positives() {
        let cache = ProofCache::default();
        let (proof, _) = proof_with_expiry(None);
        let positive = || Some((proof.clone(), AttrSummary::default()));
        cache.insert(key(1), positive(), cache.epoch());
        for k in 2..=4 {
            cache.insert(key(k), None, cache.epoch());
        }
        // A negative answered again as a grant leaves the negative set.
        cache.insert(key(2), positive(), cache.epoch());
        assert_eq!(cache.inner.lock().negatives.len(), 2);
        cache.invalidate_negatives();
        assert_eq!(cache.len(), 2, "both positives survive");
        assert!(cache
            .get(&key(2), Timestamp(0))
            .is_some_and(|a| a.is_some()));
        assert!(cache.inner.lock().negatives.is_empty());
    }

    /// `n` two-credential proofs `M{i} → A.r → A.s`, each with its own
    /// first credential and all sharing the second: each proof and its
    /// own id, and the shared (hot) id.
    fn shared_chain(n: usize) -> (Vec<(Proof, DelegationId)>, DelegationId) {
        let mut rng = StdRng::seed_from_u64(23);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let hot = Arc::new(
            a.delegate(Node::role(a.role("r")), Node::role(a.role("s")))
                .sign(&a)
                .unwrap(),
        );
        let proofs = (0..n)
            .map(|i| {
                let m = LocalEntity::generate(format!("M{i}"), g.clone(), &mut rng);
                let own = a
                    .delegate(Node::entity(&m), Node::role(a.role("r")))
                    .sign(&a)
                    .unwrap();
                let id = own.id();
                let steps = vec![ProofStep::new(own), ProofStep::new(Arc::clone(&hot))];
                (Proof::from_steps(steps).unwrap(), id)
            })
            .collect();
        (proofs, hot.id())
    }

    /// Caches `proofs[i]` under `key(i)`.
    fn fill(cache: &ProofCache, proofs: &[(Proof, DelegationId)]) {
        for (i, (proof, _)) in proofs.iter().enumerate() {
            let found = Some((proof.clone(), AttrSummary::default()));
            cache.insert(key(i as u8), found, cache.epoch());
        }
    }

    #[test]
    fn a_replaced_answer_leaves_no_reverse_entry_behind() {
        let cache = ProofCache::default();
        let (first, old) = proof_with_expiry(None);
        let (second, new) = proof_with_expiry(Some(Timestamp(9)));
        assert_ne!(old, new);
        cache.insert(key(1), Some((first, AttrSummary::default())), cache.epoch());
        cache.insert(
            key(1),
            Some((second, AttrSummary::default())),
            cache.epoch(),
        );
        let rev: Vec<DelegationId> = cache.inner.lock().rev.keys().copied().collect();
        assert_eq!(rev, [new], "only the replacement's id is indexed");
        cache.invalidate_dep(old);
        assert!(cache
            .get(&key(1), Timestamp(0))
            .is_some_and(|a| a.is_some()));
    }

    #[test]
    fn the_reverse_index_empties_with_the_cache() {
        let (proofs, hot) = shared_chain(4);
        let cache = ProofCache::default();
        let rev_ids = |cache: &ProofCache| cache.inner.lock().rev.len();

        fill(&cache, &proofs);
        assert_eq!(rev_ids(&cache), proofs.len() + 1);
        for (_, own) in &proofs {
            cache.invalidate_dep(*own);
        }
        assert_eq!((cache.len(), rev_ids(&cache)), (0, 0), "own ids");

        fill(&cache, &proofs);
        cache.invalidate_dep(hot);
        assert_eq!((cache.len(), rev_ids(&cache)), (0, 0), "the hot id");

        fill(&cache, &proofs);
        cache.clear();
        assert_eq!((cache.len(), rev_ids(&cache)), (0, 0), "a clear");

        let (expiring, _) = proof_with_expiry(Some(Timestamp(5)));
        cache.insert(
            key(9),
            Some((expiring, AttrSummary::default())),
            cache.epoch(),
        );
        assert!(cache.get(&key(9), Timestamp(6)).is_none());
        assert_eq!((cache.len(), rev_ids(&cache)), (0, 0), "an expiry");
    }

    #[test]
    fn invalidating_an_id_drops_exactly_its_dependents() {
        const N: usize = 8;
        let (proofs, hot) = shared_chain(N);
        let cache = ProofCache::default();
        fill(&cache, &proofs);
        let invalidated = || {
            drbac_obs::global()
                .counter("drbac.graph.proof_cache.invalidated.count")
                .get()
        };
        let cached = |i: usize| {
            cache
                .get(&key(i as u8), Timestamp(0))
                .is_some_and(|a| a.is_some())
        };

        // An own id takes its one answer, off the hot id's entry too.
        let before = invalidated();
        cache.invalidate_dep(proofs[3].1);
        // Other tests in this process may count invalidations of their
        // own meanwhile; none can take one back.
        assert!(invalidated() - before >= 1);
        assert_eq!(cache.len(), N - 1);
        assert!((0..N).all(|i| cached(i) == (i != 3)));
        assert_eq!(cache.inner.lock().rev[&hot].len(), N - 1);

        // The hot id takes every answer left.
        let before = invalidated();
        cache.invalidate_dep(hot);
        assert!(invalidated() - before >= N as u64 - 1);
        assert_eq!(cache.len(), 0);
        assert!(cache.inner.lock().rev.is_empty());
    }

    #[test]
    fn stale_epoch_insert_is_discarded() {
        let cache = ProofCache::default();
        let (proof, id) = proof_with_expiry(None);
        let epoch = cache.epoch();
        // An invalidation lands between search and insert.
        cache.invalidate_dep(id);
        cache.insert(key(1), Some((proof, AttrSummary::default())), epoch);
        assert!(
            cache.get(&key(1), Timestamp(0)).is_none(),
            "stale answer must not be cached"
        );
    }
}
