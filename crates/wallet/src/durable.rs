//! A wallet bound to a write-ahead store.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use drbac_core::{SimClock, Ticks, WalletAddr};
use drbac_index::DelegationIndex;
use drbac_store::WalletStore;

use crate::wallet::{CacheEntry, RecoveryReport, Wallet, WalletError};

/// A [`Wallet`] permanently bound to a [`WalletStore`]: opening
/// recovers whatever the store holds and attaches the journal, so every
/// subsequent mutating call is logged before it is applied.
/// Dereferences to [`Wallet`] for the whole query/publish/monitor API.
///
/// A home boots by one route, [`DurableWallet::open_indexed`]: the
/// delegation index's base run is the checkpoint, and the journal holds
/// the records above it. [`DurableWallet::open`] is that route's
/// full-replay case, for a journal that still starts at seq 1.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use drbac_core::{LocalEntity, Node, SimClock};
/// use drbac_crypto::SchnorrGroup;
/// use drbac_store::WalletStore;
/// use drbac_wallet::DurableWallet;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let org = LocalEntity::generate("Org", SchnorrGroup::test_256(), &mut rng);
/// let store = Arc::new(WalletStore::in_memory());
///
/// let (wallet, _) = DurableWallet::open("wallet.org", SimClock::new(), Arc::clone(&store))?;
/// wallet.publish(
///     org.delegate(Node::entity(&org), Node::role(org.role("member"))).sign(&org)?,
///     vec![],
/// )?;
/// drop(wallet); // "crash"
///
/// let (reborn, report) = DurableWallet::open("wallet.org", SimClock::new(), store)?;
/// assert_eq!(report.replayed, 1);
/// assert_eq!(reborn.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DurableWallet {
    wallet: Wallet,
    store: Arc<WalletStore>,
}

impl DurableWallet {
    /// Opens a durable wallet at `addr` over `store` by full replay:
    /// recovers every journal record into a fresh wallet, then attaches
    /// the journal.
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's medium fails, or if a
    /// checkpoint truncated the journal (it no longer starts at seq 1, so
    /// only [`DurableWallet::open_indexed`] can boot it). Corrupt
    /// contents are recovered-around, not errors.
    pub fn open(
        addr: impl Into<WalletAddr>,
        clock: SimClock,
        store: Arc<WalletStore>,
    ) -> Result<(Self, RecoveryReport), WalletError> {
        let wallet = Wallet::new(addr, clock);
        let report = wallet.recover_from_store(&store)?;
        wallet.attach_journal(Arc::clone(&store));
        Ok((DurableWallet { wallet, store }, report))
    }

    /// Opens a durable wallet with a delegation index — the one boot
    /// route: *index open + log-tail heal + catch-up*. The graph starts
    /// out lazily hydrated — queries pull only the neighborhoods they can
    /// reach from the index's `c/` rows — so a million-credential wallet
    /// is answering in milliseconds instead of re-verifying its history.
    ///
    /// The index covers the journal ([`DelegationIndex::covers`]) when its
    /// watermark `w` satisfies
    /// `first logged seq − 1 ≤ w ≤ last logged seq`: everything at or
    /// below `w` is served from the index, and the records above `w`
    /// (the tail) are applied to the index again, through
    /// [`DelegationIndex::apply`] as the live write path does, without
    /// re-verifying them: this wallet admitted each before journaling
    /// it. An empty journal next to a watermark means the index holds
    /// all history; numbering continues after `w`. Otherwise — missing
    /// watermark, index behind the first record or ahead of the tail,
    /// unreadable index — the index is stale:
    /// - while the journal still starts at seq 1, the wallet falls back to
    ///   a full [`DurableWallet::open`] replay, which re-verifies every
    ///   record, and rebuilds the index from the recovered contents;
    /// - once a checkpoint has truncated the journal, nothing else holds
    ///   the records below it, so boot refuses.
    ///
    /// A format-1 index that boots is compacted once, so the format-2
    /// stamp [`DelegationIndex::open`] gave it is durable.
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's medium fails, or when the
    /// index is stale over a truncated journal (the message names
    /// `drbac store verify`; `FileTable::restore_previous` is the
    /// repair).
    pub fn open_indexed(
        addr: impl Into<WalletAddr> + Clone,
        clock: SimClock,
        store: Arc<WalletStore>,
        index: Arc<DelegationIndex>,
    ) -> Result<(Self, IndexedBootReport), WalletError> {
        let timer = drbac_obs::static_histogram!("drbac.wallet.boot.indexed.ns").start_timer();
        let wallet = Wallet::new(addr.clone(), clock.clone());
        match Self::seed_from_index(&wallet, &store, &index) {
            Ok(report) => {
                drop(timer);
                if index.restamped() {
                    index
                        .compact()
                        .map_err(|e| WalletError::Storage(e.to_string()))?;
                }
                wallet.attach_journal(Arc::clone(&store));
                Ok((DurableWallet { wallet, store }, report))
            }
            Err(why) => {
                drop(timer);
                // The journal holds the whole history only while it starts
                // at seq 1, or is empty beside an index that never applied
                // anything.
                let whole = match store.status().first_seq {
                    Some(seq) => seq == 1,
                    None => index.watermark().is_none(),
                };
                if !whole {
                    return Err(WalletError::Storage(format!(
                        "{why}; the journal was truncated by a checkpoint and holds only \
                         the records above it, so it cannot rebuild the index \
                         (run `drbac store verify`)"
                    )));
                }
                drbac_obs::static_counter!("drbac.index.degraded.count").inc();
                drbac_obs::event!(
                    "drbac.index.boot.fallback",
                    "why" => why,
                );
                // Full replay into a *fresh* wallet (the aborted seed may
                // have left partial state), then rebuild the index from
                // the recovered truth.
                let (durable, recovery) = Self::open(addr, clock, store)?;
                let watermark = durable.store.status().next_seq.saturating_sub(1);
                match durable.wallet.rebuild_index_into(&index, watermark) {
                    Ok(()) => durable.wallet.attach_index(index),
                    Err(e) => {
                        drbac_obs::event!(
                            "drbac.index.rebuild.failed",
                            "error" => e.to_string(),
                        );
                    }
                }
                let report = IndexedBootReport {
                    lazy: false,
                    watermark: durable.wallet.index().map(|_| watermark).unwrap_or(0),
                    caught_up: recovery.replayed,
                    recovery: Some(recovery),
                };
                Ok((durable, report))
            }
        }
    }

    /// The fast path of [`DurableWallet::open_indexed`]: applies the log
    /// tail above the watermark to the index, seeds the wallet's eager
    /// state (declarations, support proofs, revocation marks, cache
    /// coherence metadata) from it and attaches it lazily. Any index
    /// trouble returns `Err(reason)` before the wallet is seeded.
    fn seed_from_index(
        wallet: &Wallet,
        store: &Arc<WalletStore>,
        index: &Arc<DelegationIndex>,
    ) -> Result<IndexedBootReport, String> {
        // Heal while scanning: a torn final append must be truncated
        // here exactly as a full recover() would, since this boot path
        // otherwise never touches the damaged bytes.
        let tail = store.heal_tail().map_err(|e| format!("log scan: {e}"))?;
        let first_seq = tail.records.first().map(|r| r.seq);
        let last_seq = tail.records.last().map_or(0, |r| r.seq);

        index.covers(first_seq, last_seq)?;
        let Some(watermark) = index.watermark() else {
            // Fresh store, fresh index: nothing to seed or catch up. The
            // first record stamps the index durably at watermark 0
            // (`DelegationIndex::apply`), so the next boot catches up from
            // seq 1.
            wallet.attach_index(Arc::clone(index));
            return Ok(IndexedBootReport {
                lazy: false,
                watermark: 0,
                caught_up: 0,
                recovery: None,
            });
        };
        if first_seq.is_none() {
            // An empty log beside a watermark: the index is all there is.
            store.continue_after(watermark);
        }

        // Tail catch-up: the records above the watermark rebuild the
        // overlay the last process held, at their original sequence
        // numbers.
        let mut caught_up = 0usize;
        for record in tail.records.iter().filter(|r| r.seq > watermark) {
            index
                .apply(record.seq, &record.event)
                .map_err(|e| format!("index catch-up at seq {}: {e}", record.seq))?;
            caught_up += 1;
        }

        // Eager state. Declarations and support proofs feed every
        // validation context; marks make `is_revoked` answer correctly
        // before the certificate itself is hydrated; absorbed sources
        // restore cache-coherence monitoring.
        let err = |e: drbac_store::StoreError| format!("index read: {e}");
        for decl in index.declarations().map_err(err)? {
            wallet.state.graph.insert_declaration(decl.declaration());
            let mut signed = wallet.state.signed_declarations.lock();
            if !signed.contains(&decl) {
                signed.push(decl);
            }
        }
        for proof in index.supports().map_err(err)? {
            for cert in proof.all_certs() {
                wallet.insert_cert(cert);
            }
            wallet.state.graph.provide_support(proof);
        }
        for (id, mark) in index.marks().map_err(err)? {
            if mark == drbac_index::Mark::Revoked {
                wallet.state.graph.revoke(id);
            }
        }
        let now = wallet.now();
        for (id, source) in index.absorbed().map_err(err)? {
            let ttl = match index.cert(id).map_err(err)? {
                Some(cert) => cert
                    .delegation()
                    .subject_tag()
                    .or(cert.delegation().object_tag())
                    .map(|t| t.ttl())
                    .unwrap_or(Ticks(0)),
                None => Ticks(0),
            };
            wallet
                .state
                .cache_meta
                .lock()
                .entry(id)
                .or_insert(CacheEntry {
                    source,
                    fetched_at: now,
                    ttl,
                });
        }

        wallet.attach_index_lazy(Arc::clone(index));
        Ok(IndexedBootReport {
            lazy: true,
            watermark,
            caught_up,
            recovery: None,
        })
    }

    /// The underlying wallet (also available through `Deref`).
    pub fn wallet(&self) -> &Wallet {
        &self.wallet
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<WalletStore> {
        &self.store
    }

    /// Checkpoints the wallet: syncs the journal, folds the index overlay
    /// into a new durable base run (the run it replaces becomes the
    /// previous run), and only then truncates the journal through the
    /// *previous* run's watermark. Either run plus the journal above it
    /// rebuilds the index, so a crash at any step, or a current run that
    /// goes bad later, loses no acknowledged write. Returns the seq the
    /// journal was truncated through: `None` when the journal stays whole
    /// — no index, no previous run yet, or an index with no durable runs
    /// (a `MemTable`).
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's or the index's medium
    /// fails; the journal is then left whole.
    pub fn checkpoint(&self) -> Result<Option<u64>, WalletError> {
        let storage = |e: drbac_store::StoreError| WalletError::Storage(e.to_string());
        self.store.sync().map_err(storage)?;
        let Some(index) = self.wallet.index() else {
            return Ok(None);
        };
        index.compact().map_err(storage)?;
        let through = index.previous_watermark().map_err(storage)?;
        if let Some(seq) = through {
            self.store.truncate_through(seq).map_err(storage)?;
        }
        Ok(through)
    }
}

/// How [`DurableWallet::open_indexed`] booted.
#[derive(Debug, Clone, Default)]
pub struct IndexedBootReport {
    /// `true` for the fast path: the graph is lazily hydrated from the
    /// index. `false` when the wallet fell back to a full replay (or
    /// both store and index were empty).
    pub lazy: bool,
    /// The index watermark the boot keyed off.
    pub watermark: u64,
    /// Log-tail records applied to the index above the watermark (fast
    /// path), or total records replayed (fallback).
    pub caught_up: usize,
    /// The full-replay report when the boot fell back.
    pub recovery: Option<RecoveryReport>,
}

impl Deref for DurableWallet {
    type Target = Wallet;

    fn deref(&self) -> &Wallet {
        &self.wallet
    }
}

impl fmt::Debug for DurableWallet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableWallet")
            .field("wallet", &self.wallet)
            .field("store", &self.store.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{LocalEntity, Node, Ticks};
    use drbac_crypto::SchnorrGroup;
    use drbac_index::MemTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Held by the tests that move `drbac.index.degraded.count`, so one
    /// that reads it sees only its own boots.
    static DEGRADES: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    fn mem_index() -> Arc<DelegationIndex> {
        Arc::new(DelegationIndex::open(Box::new(MemTable::new())).unwrap())
    }

    /// A shareable mem table so "the same index files" survive a
    /// simulated restart (the index handle is dropped, the table kept).
    #[derive(Clone)]
    struct Shared(Arc<MemTable>);

    impl drbac_index::TableBackend for Shared {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, drbac_store::StoreError> {
            self.0.get(key)
        }
        fn apply(&self, batch: &[drbac_index::TableOp]) -> Result<(), drbac_store::StoreError> {
            self.0.apply(batch)
        }
        fn scan(
            &self,
            start: &[u8],
            end: Option<&[u8]>,
            f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
        ) -> Result<(), drbac_store::StoreError> {
            self.0.scan(start, end, f)
        }
        fn entries(&self) -> Result<u64, drbac_store::StoreError> {
            self.0.entries()
        }
        fn stats(&self) -> drbac_index::TableStats {
            self.0.stats()
        }
        fn compact(&self) -> Result<(), drbac_store::StoreError> {
            self.0.compact()
        }
        fn reset_with(
            &self,
            entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
        ) -> Result<(), drbac_store::StoreError> {
            self.0.reset_with(entries)
        }
    }

    #[test]
    fn indexed_boot_is_lazy_and_answers_like_full_replay() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let store = Arc::new(WalletStore::in_memory());
        let table = Shared(Arc::new(MemTable::new()));

        {
            let index = Arc::new(DelegationIndex::open(Box::new(table.clone())).unwrap());
            let (w, _) = DurableWallet::open("w", SimClock::new(), Arc::clone(&store)).unwrap();
            w.attach_index(index);
            for i in 0..10 {
                let cert = a
                    .delegate(Node::entity(&m), Node::role(a.role(&format!("r{i}"))))
                    .sign(&a)
                    .unwrap();
                w.publish(cert, vec![]).unwrap();
            }
            w.checkpoint().unwrap();
            // Two more after the checkpoint, with the index detached: the
            // log tail the next boot must catch up on.
            w.detach_index().unwrap();
            for i in 10..12 {
                let cert = a
                    .delegate(Node::entity(&m), Node::role(a.role(&format!("r{i}"))))
                    .sign(&a)
                    .unwrap();
                w.publish(cert, vec![]).unwrap();
            }
        }

        let index = Arc::new(DelegationIndex::open(Box::new(table.clone())).unwrap());
        let (reborn, report) =
            DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), index).unwrap();
        assert!(
            report.lazy,
            "index was current; boot must take the fast path"
        );
        assert_eq!(report.caught_up, 2);
        assert!(reborn.len() < 12, "lazy boot must not hydrate everything");

        let (full, _) = DurableWallet::open("w", SimClock::new(), Arc::clone(&store)).unwrap();
        for i in 0..12 {
            let want: Vec<Vec<u8>> = full
                .query_subject(&Node::entity(&m), &[])
                .iter()
                .map(|p| p.to_bytes())
                .collect();
            let got: Vec<Vec<u8>> = reborn
                .query_subject(&Node::entity(&m), &[])
                .iter()
                .map(|p| p.to_bytes())
                .collect();
            assert_eq!(got, want, "indexed answers must match full replay (r{i})");
        }
        assert_eq!(reborn.len(), 12, "subject query hydrates the neighborhood");
    }

    #[test]
    fn stale_index_falls_back_to_full_replay_and_rebuilds() {
        let _degrades = DEGRADES.lock();
        let mut rng = StdRng::seed_from_u64(23);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let store = Arc::new(WalletStore::in_memory());
        {
            let (w, _) = DurableWallet::open("w", SimClock::new(), Arc::clone(&store)).unwrap();
            let cert = a
                .delegate(Node::entity(&m), Node::role(a.role("r")))
                .sign(&a)
                .unwrap();
            w.publish(cert, vec![]).unwrap();
        }
        // A brand-new (empty, no-watermark) index against a non-empty
        // store is stale: boot must fall back, then rebuild it.
        let index = mem_index();
        let (reborn, report) =
            DurableWallet::open_indexed("w", SimClock::new(), store, Arc::clone(&index)).unwrap();
        assert!(!report.lazy);
        assert!(report.recovery.is_some());
        assert_eq!(reborn.len(), 1);
        assert!(reborn.indexed(), "rebuilt index ends up attached");
        assert_eq!(index.watermark(), Some(1));
    }

    #[test]
    fn expiry_sweep_scans_only_the_expired_prefix() {
        let mut rng = StdRng::seed_from_u64(29);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let clock = SimClock::new();
        let store = Arc::new(WalletStore::in_memory());
        let (w, _) = DurableWallet::open("w", clock.clone(), Arc::clone(&store)).unwrap();
        w.attach_index(mem_index());
        for i in 0..8 {
            let mut b = a.delegate(Node::entity(&m), Node::role(a.role(&format!("r{i}"))));
            if i < 3 {
                b = b.expires(clock.now().after(Ticks(5)));
            }
            w.publish(b.sign(&a).unwrap(), vec![]).unwrap();
        }
        clock.advance(Ticks(10));
        let (expired, _) = w.process_expiries();
        assert_eq!(expired.len(), 3);
        assert_eq!(w.len(), 5);
        // Idempotent: nothing left in the lapsed range.
        assert!(w.process_expiries().0.is_empty());
    }

    /// A file-backed index over shared in-memory media whose reads fail
    /// while `fail` is set.
    struct Flaky {
        table: drbac_index::FileTable,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Flaky {
        fn check(&self) -> Result<(), drbac_store::StoreError> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(drbac_store::StoreError::Io("injected read failure".into()));
            }
            Ok(())
        }
    }

    impl drbac_index::TableBackend for Flaky {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, drbac_store::StoreError> {
            self.check()?;
            self.table.get(key)
        }
        fn apply(&self, batch: &[drbac_index::TableOp]) -> Result<(), drbac_store::StoreError> {
            self.table.apply(batch)
        }
        fn scan(
            &self,
            start: &[u8],
            end: Option<&[u8]>,
            f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
        ) -> Result<(), drbac_store::StoreError> {
            self.check()?;
            self.table.scan(start, end, f)
        }
        fn stats(&self) -> drbac_index::TableStats {
            self.table.stats()
        }
        fn compact(&self) -> Result<(), drbac_store::StoreError> {
            self.table.compact()
        }
        fn previous_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, drbac_store::StoreError> {
            self.table.previous_get(key)
        }
        fn reset_with(
            &self,
            entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
        ) -> Result<(), drbac_store::StoreError> {
            self.table.reset_with(entries)
        }
    }

    /// A home whose journal three checkpoints truncated (it starts at
    /// seq 2), holding `A.r0`..`A.r2` for M, and a way to reopen its index.
    fn checkpointed_home() -> (
        Arc<WalletStore>,
        impl Fn(Arc<std::sync::atomic::AtomicBool>) -> Arc<DelegationIndex>,
        LocalEntity,
        LocalEntity,
    ) {
        let mut rng = StdRng::seed_from_u64(31);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let store = Arc::new(WalletStore::in_memory());
        let media = [(); 2].map(|_| drbac_store::MemMedium::new());
        let index = move |fail| {
            let [tab, prev] = media
                .clone()
                .map(|m| Box::new(m) as Box<dyn drbac_store::Medium>);
            let table = drbac_index::FileTable::from_media(tab, prev).unwrap();
            Arc::new(DelegationIndex::open(Box::new(Flaky { table, fail })).unwrap())
        };
        let never = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (w, _) =
            DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), index(never))
                .unwrap();
        for i in 0..3 {
            let cert = a
                .delegate(Node::entity(&m), Node::role(a.role(&format!("r{i}"))))
                .sign(&a)
                .unwrap();
            w.publish(cert, vec![]).unwrap();
            if i > 0 {
                w.checkpoint().unwrap();
            }
        }
        w.checkpoint().unwrap();
        assert_eq!(store.status().first_seq, Some(3));
        (store, index, a, m)
    }

    #[test]
    fn a_checkpointed_journal_without_its_index_refuses_to_boot() {
        let (store, _, _, _) = checkpointed_home();
        let err =
            DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), mem_index())
                .unwrap_err();
        assert!(err.to_string().contains("drbac store verify"), "{err}");
        let err = DurableWallet::open("w", SimClock::new(), store).unwrap_err();
        assert!(err.to_string().contains("drbac store verify"), "{err}");
    }

    #[test]
    fn a_lazy_checkpointed_wallet_keeps_its_index_through_a_read_failure() {
        let _degrades = DEGRADES.lock();
        let (store, index, a, m) = checkpointed_home();
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (w, report) =
            DurableWallet::open_indexed("w", SimClock::new(), store, index(Arc::clone(&fail)))
                .unwrap();
        assert!(report.lazy);
        let (subject, object) = (Node::entity(&m), Node::role(a.role("r0")));
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        // The failed hydration may deny a grant (never the reverse)...
        assert!(w.query_direct(&subject, &object, &[]).is_none());
        assert!(
            w.indexed(),
            "the index holds the only copy of the history: kept"
        );
        // ...and the next query that needs the neighborhood retries it.
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        assert!(w.query_direct(&subject, &object, &[]).is_some());
    }

    #[test]
    fn a_fresh_home_that_never_compacted_boots_lazily_from_its_journal() {
        let _degrades = DEGRADES.lock();
        let mut rng = StdRng::seed_from_u64(37);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let store = Arc::new(WalletStore::in_memory());
        let media = [(); 2].map(|_| drbac_store::MemMedium::new());
        let index = || {
            let [tab, prev] = media
                .clone()
                .map(|m| Box::new(m) as Box<dyn drbac_store::Medium>);
            let table = drbac_index::FileTable::from_media(tab, prev).unwrap();
            Arc::new(DelegationIndex::open(Box::new(table)).unwrap())
        };
        {
            let (w, report) =
                DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), index())
                    .unwrap();
            assert_eq!((report.lazy, report.caught_up), (false, 0));
            for i in 0..3 {
                let cert = a
                    .delegate(Node::entity(&m), Node::role(a.role(&format!("r{i}"))))
                    .sign(&a)
                    .unwrap();
                w.publish(cert, vec![]).unwrap();
            }
        }

        let degraded = drbac_obs::static_counter!("drbac.index.degraded.count");
        let before = degraded.get();
        let (reborn, report) =
            DurableWallet::open_indexed("w", SimClock::new(), Arc::clone(&store), index()).unwrap();
        assert!(report.lazy && report.recovery.is_none(), "{report:?}");
        assert_eq!((report.watermark, report.caught_up), (0, 3));
        assert_eq!(degraded.get(), before, "no fallback, no degraded index");

        let (full, _) = DurableWallet::open("w", SimClock::new(), store).unwrap();
        let answers = |w: &DurableWallet| -> Vec<Vec<u8>> {
            w.query_subject(&Node::entity(&m), &[])
                .iter()
                .map(|p| p.to_bytes())
                .collect()
        };
        assert_eq!(answers(&full).len(), 3);
        assert_eq!(answers(&reborn), answers(&full));
    }
}
