//! A wallet bound to a write-ahead store.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use drbac_core::{Node, SimClock, Ticks, WalletAddr};
use drbac_index::DelegationIndex;
use drbac_store::{StoreEvent, WalletStore};

use crate::wallet::{CacheEntry, RecoveryReport, Wallet, WalletError};

/// A [`Wallet`] permanently bound to a [`WalletStore`]: opening
/// recovers whatever the store holds (latest snapshot + log-tail
/// replay) and attaches the journal, so every subsequent mutating call
/// is logged before it is applied. Dereferences to [`Wallet`] for the
/// whole query/publish/monitor API.
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
    /// Opens a durable wallet at `addr` over `store`: recovers the
    /// store's contents into a fresh wallet, then attaches the journal.
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's medium fails (corrupt
    /// contents are recovered-around, not errors).
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

    /// Opens a durable wallet with a delegation index, skipping the full
    /// replay when the index is current: boot becomes *snapshot header +
    /// index open + log-tail catch-up*. The graph starts out lazily
    /// hydrated — queries pull only the neighborhoods they can reach
    /// from the index's `c/` rows — so a million-credential wallet is
    /// answering in milliseconds instead of re-verifying its history.
    ///
    /// The index is current when its watermark `w` satisfies
    /// `snapshot_seq ≤ w ≤ last logged seq`: everything at or below `w`
    /// is served from the index, and the log records above `w` (the
    /// tail) are replayed through the ordinary verify path. Otherwise —
    /// missing watermark, index behind a compaction, or ahead of a
    /// truncated log — the wallet falls back to a full
    /// [`DurableWallet::open`] replay and rebuilds the index from the
    /// recovered contents, so a stale or corrupt index costs time, not
    /// correctness.
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's medium fails. Index
    /// failures are never errors: they degrade to the rebuild path.
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
                wallet.attach_journal(Arc::clone(&store));
                Ok((DurableWallet { wallet, store }, report))
            }
            Err(why) => {
                drop(timer);
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

    /// The fast path of [`DurableWallet::open_indexed`]: seeds the
    /// wallet's eager state (declarations, support proofs, revocation
    /// marks, cache coherence metadata) from the index, attaches it
    /// lazily, and replays the log tail above the watermark. Any index
    /// trouble returns `Err(reason)` and the caller falls back to a
    /// full replay.
    fn seed_from_index(
        wallet: &Wallet,
        store: &Arc<WalletStore>,
        index: &Arc<DelegationIndex>,
    ) -> Result<IndexedBootReport, String> {
        let status = store.status();
        let snap_seq = status.snapshot_seq.unwrap_or(0);
        // Heal while scanning: a torn final append must be truncated
        // here exactly as a full recover() would, since this boot path
        // otherwise never touches the damaged bytes.
        let tail = store.heal_tail().map_err(|e| format!("log scan: {e}"))?;
        let last_seq = tail.records.last().map_or(0, |r| r.seq).max(snap_seq);

        let watermark = match index.watermark() {
            Some(w) => w,
            None if last_seq == 0 => {
                // Fresh store, fresh index: nothing to seed or catch up.
                wallet.attach_index(Arc::clone(index));
                return Ok(IndexedBootReport {
                    lazy: false,
                    watermark: 0,
                    caught_up: 0,
                    recovery: None,
                });
            }
            None => return Err("index has no watermark for a non-empty store".into()),
        };
        if watermark < snap_seq {
            return Err(format!(
                "index watermark {watermark} is behind the snapshot ({snap_seq}); \
                 the missing records were compacted away"
            ));
        }
        if watermark > last_seq {
            return Err(format!(
                "index watermark {watermark} is ahead of the log tail ({last_seq})"
            ));
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

        // Tail catch-up: records above the watermark replay through the
        // ordinary verify path (the journal is still detached, so
        // nothing is double-logged) and are applied to the index at
        // their original sequence numbers.
        let mut caught_up = 0usize;
        for record in tail.records {
            if record.seq <= watermark {
                continue;
            }
            match &record.event {
                // `publish` enforces the support rule with a live graph
                // query from the issuer; `revoke` needs the certificate
                // present. Hydrate those neighborhoods first.
                StoreEvent::Publish(cert) => {
                    wallet.plan_forward(&Node::Entity(cert.delegation().issuer()));
                }
                StoreEvent::Revoke(revocation) => {
                    let id = revocation.delegation_id();
                    if wallet.state.graph.get(id).is_none() {
                        if let Ok(Some(cert)) = index.cert(id) {
                            wallet.insert_cert(cert);
                        }
                    }
                }
                _ => {}
            }
            if let Err(e) = wallet.apply_event(record.event.clone()) {
                drbac_obs::event!(
                    "drbac.index.boot.tail_skipped",
                    "seq" => record.seq,
                    "error" => e.to_string(),
                );
            }
            index
                .apply(record.seq, &record.event)
                .map_err(|e| format!("index catch-up at seq {}: {e}", record.seq))?;
            caught_up += 1;
        }

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

    /// Installs a snapshot of the wallet's current durable contents and
    /// compacts the log behind it. Returns the sequence number the
    /// snapshot covers.
    ///
    /// # Errors
    ///
    /// [`WalletError::Storage`] if the store's medium fails.
    pub fn snapshot(&self) -> Result<u64, WalletError> {
        let wallet = self.wallet.clone();
        let covered = self
            .store
            .install_snapshot(move || wallet.export_bytes())
            .map_err(|e| WalletError::Storage(e.to_string()))?;
        // Persist the index's delta log alongside the snapshot so the
        // `snapshot_seq ≤ watermark` boot invariant survives a crash
        // right after compaction.
        if let Some(index) = self.wallet.index() {
            if let Err(e) = index.flush() {
                self.wallet.degrade_index(&format!("flush at snapshot: {e}"));
            }
        }
        Ok(covered)
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
    /// Log-tail records replayed above the watermark (fast path), or
    /// total records replayed (fallback).
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
        fn flush(&self) -> Result<(), drbac_store::StoreError> {
            self.0.flush()
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
            w.snapshot().unwrap();
            // Two more after the snapshot, with the index detached (a
            // crash before its delta log synced): the log tail the next
            // boot must catch up on.
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
        assert!(report.lazy, "index was current; boot must take the fast path");
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
        let mut rng = StdRng::seed_from_u64(23);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let store = Arc::new(WalletStore::in_memory());
        {
            let (w, _) = DurableWallet::open("w", SimClock::new(), Arc::clone(&store)).unwrap();
            let cert =
                a.delegate(Node::entity(&m), Node::role(a.role("r"))).sign(&a).unwrap();
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
}
