//! The query planner: routes wallet queries to the delegation index.
//!
//! With an index attached, `query_subject`/`query_object`/`query_direct`
//! hydrate only the graph neighborhood a search can touch (lazy boot),
//! the audit sweep reads the `3/` third-party set instead of iterating
//! every credential, and the expiry sweep reads the `e/` time-ordered
//! range — all prefix or range scans that cost O(answer), not O(wallet).
//!
//! **Planner rules.** A proof search only ever traverses delegation
//! edges outward from its start node — forward (`subject → object`)
//! for subject/direct queries, reverse for object queries — plus, for
//! any third-party edge it crosses, a forward sub-search from that
//! edge's *issuer* (support resolution). The hydration closure follows
//! exactly those moves over the `s/`/`o/` indexes, so a lazily booted
//! wallet answers byte-identically to a fully replayed one: the search
//! itself still runs on the ordinary in-memory graph, it just never
//! loads credentials no search from this start could reach.
//!
//! **Degradation.** Any index failure — I/O, framing, CRC — bumps
//! `drbac.index.degraded.count`, detaches the index, and falls back to
//! graph walks; a lazily booted wallet first restores the full graph
//! from the attached journal. Queries keep being answered; nothing
//! panics. A lazily booted wallet whose journal a checkpoint truncated
//! cannot restore its graph that way — the index holds the only copy of
//! the history below the journal — so it keeps the index: a failed
//! hydration is retried by the next query that needs it (meanwhile that
//! neighborhood may answer *deny* for a grant, never the reverse:
//! revocation marks load eagerly at boot), and a failed apply leaves the
//! watermark behind the lost event, which the index then refuses to
//! skip, so the next boot catches up from the journal.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drbac_core::{DelegationId, Node, SignedDelegation, Timestamp};
use drbac_index::{node_key, DelegationIndex};
use drbac_store::{StoreError, StoreEvent};
use parking_lot::Mutex;

use crate::wallet::Wallet;

/// The wallet's view of an attached [`DelegationIndex`], plus the lazy
/// hydration bookkeeping.
pub(crate) struct IndexHandle {
    pub(crate) index: Arc<DelegationIndex>,
    /// Whether the wallet was lazily booted: the graph holds only the
    /// hydrated neighborhoods and credentials must be pulled from `c/`
    /// rows before a search can see them. `false` once everything is
    /// known to be in memory.
    lazy: AtomicBool,
    /// Node keys whose forward (subject-side) edges are hydrated.
    hydrated_fwd: Mutex<HashSet<Vec<u8>>>,
    /// Node keys whose reverse (object-side) edges are hydrated.
    hydrated_rev: Mutex<HashSet<Vec<u8>>>,
}

impl IndexHandle {
    fn new(index: Arc<DelegationIndex>, lazy: bool) -> Arc<IndexHandle> {
        Arc::new(IndexHandle {
            index,
            lazy: AtomicBool::new(lazy),
            hydrated_fwd: Mutex::new(HashSet::new()),
            hydrated_rev: Mutex::new(HashSet::new()),
        })
    }

    pub(crate) fn is_lazy(&self) -> bool {
        self.lazy.load(Ordering::SeqCst)
    }
}

impl Wallet {
    /// Attaches a delegation index whose contents already mirror this
    /// wallet (e.g. freshly rebuilt from it). Subsequent journaled
    /// mutations are applied to it transactionally, and queries route
    /// through it where an ordered scan beats a graph walk.
    pub fn attach_index(&self, index: Arc<DelegationIndex>) {
        *self.state.index.lock() = Some(IndexHandle::new(index, false));
    }

    /// As [`Wallet::attach_index`] for a lazily booted wallet: the graph
    /// is mostly empty and credentials hydrate from the index on
    /// demand.
    pub(crate) fn attach_index_lazy(&self, index: Arc<DelegationIndex>) {
        *self.state.index.lock() = Some(IndexHandle::new(index, true));
    }

    /// Detaches the index, returning it if one was attached. The wallet
    /// falls back to graph walks; a lazily booted wallet should be
    /// fully recovered first (see [`Wallet::recover_from_store`]).
    pub fn detach_index(&self) -> Option<Arc<DelegationIndex>> {
        self.state.index.lock().take().map(|h| Arc::clone(&h.index))
    }

    /// The attached delegation index, if any.
    pub fn index(&self) -> Option<Arc<DelegationIndex>> {
        self.state
            .index
            .lock()
            .as_ref()
            .map(|h| Arc::clone(&h.index))
    }

    /// Whether an index is attached and serving queries.
    pub fn indexed(&self) -> bool {
        self.state.index.lock().is_some()
    }

    pub(crate) fn index_handle(&self) -> Option<Arc<IndexHandle>> {
        self.state.index.lock().clone()
    }

    /// Applies one journaled event to the attached index (no-op when
    /// none). Called right after the WAL append that assigned `seq`; an
    /// error degrades the planner instead of failing the mutation.
    pub(crate) fn index_apply(&self, seq: u64, event: &StoreEvent) {
        let Some(handle) = self.index_handle() else {
            return;
        };
        if let Err(e) = handle.index.apply(seq, event) {
            self.degrade_index(&format!("apply seq {seq}: {e}"));
        }
    }

    /// Drops the index after a failure: counts, traces, and — for a
    /// lazily booted wallet — restores the full graph from the attached
    /// journal so graph walks see everything. Never panics; a wallet
    /// with a dead index is a slower wallet, not a dead one. A lazily
    /// booted wallet over a truncated journal keeps its index instead
    /// (see the module docs).
    pub(crate) fn degrade_index(&self, why: &str) {
        let store = self.state.journal.lock().clone();
        let mut slot = self.state.index.lock();
        let Some(handle) = slot.as_ref() else {
            return;
        };
        let keep = handle.is_lazy()
            && store
                .as_ref()
                .is_some_and(|s| s.status().first_seq.is_some_and(|seq| seq > 1));
        drbac_obs::static_counter!("drbac.index.degraded.count").inc();
        drbac_obs::event!(
            "drbac.index.degraded",
            "why" => why.to_string(),
            "kept" => keep,
        );
        if keep {
            drop(slot);
            // Denials computed over the partial graph must not be cached.
            self.state.proof_cache.invalidate_negatives();
            return;
        }
        let handle = slot.take().expect("checked above");
        drop(slot);
        if handle.is_lazy() {
            if let Some(store) = store {
                if let Err(e) = self.recover_from_store(&store) {
                    drbac_obs::event!(
                        "drbac.index.degraded.recover_failed",
                        "error" => e.to_string(),
                    );
                }
            }
        }
    }

    /// Ensures every credential a forward search from `node` could
    /// traverse is in the graph. No-op unless lazily index-booted.
    pub(crate) fn plan_forward(&self, node: &Node) {
        if let Some(handle) = self.index_handle() {
            if handle.is_lazy() {
                if let Err(e) = self.hydrate(&handle, node, true) {
                    self.degrade_index(&format!("hydrate forward: {e}"));
                }
            }
        }
    }

    /// Ensures every credential a reverse search from `node` could
    /// traverse is in the graph. No-op unless lazily index-booted.
    pub(crate) fn plan_reverse(&self, node: &Node) {
        if let Some(handle) = self.index_handle() {
            if handle.is_lazy() {
                if let Err(e) = self.hydrate(&handle, node, false) {
                    self.degrade_index(&format!("hydrate reverse: {e}"));
                }
            }
        }
    }

    /// The hydration closure: a worklist over `(node, direction)` pairs
    /// following exactly the moves a proof search can make (see the
    /// module docs). Memoized per handle, so steady-state queries pay
    /// one hash lookup.
    fn hydrate(&self, handle: &IndexHandle, start: &Node, forward: bool) -> Result<(), StoreError> {
        let mut queue: VecDeque<(Node, bool)> = VecDeque::new();
        queue.push_back((start.clone(), forward));
        while let Some((node, fwd)) = queue.pop_front() {
            let set = if fwd {
                &handle.hydrated_fwd
            } else {
                &handle.hydrated_rev
            };
            if !set.lock().insert(node_key(&node)) {
                continue;
            }
            // A node whose scan fails is not hydrated: the next query
            // that reaches it tries again.
            self.hydrate_node(handle, &node, fwd, &mut queue)
                .inspect_err(|_| {
                    set.lock().remove(&node_key(&node));
                })?;
        }
        Ok(())
    }

    /// Loads `node`'s edges in one direction and queues the moves a
    /// search can make from them.
    fn hydrate_node(
        &self,
        handle: &IndexHandle,
        node: &Node,
        fwd: bool,
        queue: &mut VecDeque<(Node, bool)>,
    ) -> Result<(), StoreError> {
        let ids = if fwd {
            handle.index.ids_by_subject(node)?
        } else {
            handle.index.ids_by_object(node)?
        };
        for id in ids {
            let cert = match self.state.graph.get(id) {
                Some(cert) => cert,
                None => match handle.index.cert(id)? {
                    Some(cert) => {
                        drbac_obs::static_counter!("drbac.index.hydrate.cert.count").inc();
                        self.insert_cert(Arc::clone(&cert));
                        cert
                    }
                    None => continue,
                },
            };
            let d = cert.delegation();
            let far = if fwd { d.object() } else { d.subject() };
            queue.push_back((far.clone(), fwd));
            // Crossing a third-party edge may spawn a forward
            // support search from its issuer.
            if d.needs_support() {
                queue.push_back((Node::Entity(d.issuer()), true));
            }
        }
        Ok(())
    }

    /// Fully hydrates a lazily booted wallet from the index. Called
    /// before whole-wallet views — listings, graph access — whose
    /// answers must cover every credential, not just the hydrated
    /// neighborhoods. A no-op unless the wallet is lazily index-booted;
    /// afterwards the lazy bookkeeping is retired (the index keeps
    /// serving O(answer) scans).
    pub fn hydrate_all(&self) {
        let Some(handle) = self.index_handle() else {
            return;
        };
        if !handle.is_lazy() {
            return;
        }
        let result = handle.index.for_each_cert(&mut |cert| {
            if self.state.graph.get(cert.id()).is_none() {
                self.insert_cert(cert);
            }
        });
        match result {
            Ok(()) => {
                handle.lazy.store(false, Ordering::SeqCst);
                drbac_obs::static_counter!("drbac.index.hydrate.full.count").inc();
            }
            Err(e) => self.degrade_index(&format!("full hydration: {e}")),
        }
    }

    /// The audit sweep's candidate set via the `3/` index: every
    /// credential that needs issuer support, in id order. `None` when no
    /// index is attached (callers fall back to the graph walk).
    pub(crate) fn planned_audit_certs(&self) -> Option<Vec<Arc<SignedDelegation>>> {
        let handle = self.index_handle()?;
        let fetched: Result<Vec<Arc<SignedDelegation>>, StoreError> = (|| {
            let mut out = Vec::new();
            for id in handle.index.third_party_ids()? {
                let cert = match self.state.graph.get(id) {
                    Some(cert) => cert,
                    None => match handle.index.cert(id)? {
                        Some(cert) => {
                            // The audit validates support proofs against
                            // the live graph; make sure the credential
                            // is in it like every hydrated one.
                            self.insert_cert(Arc::clone(&cert));
                            cert
                        }
                        None => continue,
                    },
                };
                out.push(cert);
            }
            Ok(out)
        })();
        match fetched {
            Ok(certs) => Some(certs),
            Err(e) => {
                self.degrade_index(&format!("audit scan: {e}"));
                None
            }
        }
    }

    /// The expiry sweep's candidate ids via the `e/` range scan, with
    /// the `drbac.wallet.expiry.scanned.count` counter recording how
    /// many index entries were touched — O(expired), not O(wallet).
    /// `None` when no index is attached.
    pub(crate) fn planned_expired(&self, now: Timestamp) -> Option<Vec<DelegationId>> {
        let handle = self.index_handle()?;
        match handle.index.expired_ids(now) {
            Ok((ids, scanned)) => {
                drbac_obs::static_counter!("drbac.wallet.expiry.scanned.count").add(scanned);
                Some(ids)
            }
            Err(e) => {
                self.degrade_index(&format!("expiry scan: {e}"));
                None
            }
        }
    }

    /// The expiry sweep's no-index fallback: pop the min-heap while the
    /// top entry's expiry has lapsed. Stale entries (credential gone or
    /// re-inserted) are discarded on pop; every pop counts toward
    /// `drbac.wallet.expiry.scanned.count`, keeping the sweep
    /// O(expired + stale) instead of O(wallet).
    pub(crate) fn heap_expired(&self, now: Timestamp) -> Vec<DelegationId> {
        let mut heap = self.state.expiry_heap.lock();
        let mut out = Vec::new();
        let mut seen: HashSet<DelegationId> = HashSet::new();
        let mut scanned = 0u64;
        while let Some(std::cmp::Reverse((at, _))) = heap.peek() {
            if now.0 <= at.0 {
                break;
            }
            let std::cmp::Reverse((_, id)) = heap.pop().expect("peeked");
            scanned += 1;
            if !seen.insert(id) {
                continue;
            }
            if self
                .state
                .graph
                .get(id)
                .is_some_and(|c| c.delegation().is_expired(now))
            {
                out.push(id);
            }
        }
        drbac_obs::static_counter!("drbac.wallet.expiry.scanned.count").add(scanned);
        out
    }

    /// Rebuilds `index` from this wallet's full in-memory contents,
    /// bulk-loading the backend; `watermark` must be the journal
    /// sequence the wallet is current to (the store's `next_seq - 1`).
    /// This is the store → indexed-store migration step and the repair
    /// path for a corrupt index.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the index backend fails.
    pub fn rebuild_index_into(
        &self,
        index: &DelegationIndex,
        watermark: u64,
    ) -> Result<(), StoreError> {
        let certs = self.state.graph.iter_certs();
        let supports = self.state.graph.all_supports();
        let declarations = self.state.signed_declarations.lock().clone();
        let revoked = self.revocation_history();
        let absorbed: Vec<_> = self
            .state
            .cache_meta
            .lock()
            .iter()
            .map(|(id, entry)| (*id, entry.source.clone()))
            .collect();
        index.rebuild(
            &drbac_index::RebuildSource {
                certs: &certs,
                supports: &supports,
                declarations: &declarations,
                revoked: &revoked,
                absorbed: &absorbed,
            },
            watermark,
        )
    }

    /// Every revocation mark the wallet ever recorded, in id order: the
    /// O(history) read that only whole-wallet copies pay — the index
    /// rebuild above and the journal `SimNet::add_host` writes for a
    /// prepopulated wallet.
    pub fn revocation_history(&self) -> Vec<DelegationId> {
        self.state.graph.revoked_ids().into_iter().collect()
    }
}
