//! The delegation index: secondary indexes over the wallet's journal,
//! maintained one atomic table batch per [`StoreEvent`].
//!
//! The index is a *projection* of the write-ahead log. `m/watermark`
//! records the last journal sequence number applied; a wallet boots by
//! opening the index, applying the log records past the watermark of
//! its base run (the same [`DelegationIndex::apply`] the live write
//! path makes), and seeding the cheap-but-global state (declarations,
//! support proofs, revocation marks, absorbed-cert coherence).
//! Credentials themselves hydrate lazily from `c/` rows as queries
//! touch their graph neighborhoods — decoded *without* re-verifying
//! signatures, because every indexed credential was admission-verified
//! before it was journaled, and neither the index nor the journal
//! leaves the wallet that wrote them.
//!
//! The index is also the wallet's only checkpoint: its compacted base
//! run holds every record up to its watermark, so the journal below the
//! *previous* run's watermark ([`DelegationIndex::previous_watermark`])
//! can be truncated.

use std::collections::BTreeMap;
use std::sync::Arc;

use drbac_core::{
    DelegationId, Node, Proof, SignedAttrDeclaration, SignedDelegation, Timestamp, WalletAddr,
};
use drbac_store::{StoreError, StoreEvent};
use parking_lot::Mutex;

use crate::keys;
use crate::table::{TableBackend, TableOp, TableStats};

/// Current on-table format version, stored under `m/format`. Format 1
/// also kept `d/`, `i/` and `g/` rows that no read path used; a format-1
/// table is read as is, those rows inert, and restamped.
const FORMAT_VERSION: u64 = 2;

/// A delegation mark under `r/`: the id was revoked or expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The delegation was revoked (credential retained, edges skipped).
    Revoked,
    /// The delegation expired and was dropped.
    Expired,
}

/// Consistency verdict from [`DelegationIndex::verify_against`],
/// re-exported into the store's `VerifyReport` by the CLI.
pub use drbac_store::IndexCheck;

#[derive(Debug, Default, Clone, Copy)]
struct MetaCache {
    watermark: Option<u64>,
    decl_next: u64,
    support_next: u64,
}

/// Secondary indexes over a wallet journal, behind any
/// [`TableBackend`].
pub struct DelegationIndex {
    table: Box<dyn TableBackend>,
    meta: Mutex<MetaCache>,
    /// Opened over a format-1 table and stamped format 2 in memory only.
    restamped: bool,
}

impl DelegationIndex {
    /// Opens the index stored in `table`, reading its metadata row. A
    /// fresh (empty) table is a valid empty index with no watermark.
    ///
    /// A format-1 table opens too: every family this format reads is laid
    /// out the same, and its `d/`, `i/` and `g/` rows are left in place,
    /// unread (an expiry drops only the current families' keys; a rebuild
    /// drops them all). The table is stamped format 2 in memory, and
    /// [`DelegationIndex::restamped`] says so: a booting wallet compacts
    /// it so the stamp is durable (its retired rows are kept, not
    /// deleted), and a read-only open leaves every file as it was. A
    /// binary that still maintains those rows then refuses the compacted
    /// table instead of misreading credentials written without them.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure, or [`StoreError::Corrupt`]
    /// for an unknown format version.
    pub fn open(table: Box<dyn TableBackend>) -> Result<DelegationIndex, StoreError> {
        let format = read_u64(&*table, &keys::meta_key("format"))?;
        match format {
            // A fresh table's stamp reaches its base run with the first
            // record (see `apply`); a format-1 table's with the booting
            // wallet's compaction (see above).
            None | Some(1) => {
                table.apply(&[put_u64(keys::meta_key("format"), FORMAT_VERSION)])?;
            }
            Some(FORMAT_VERSION) => {}
            Some(v) => {
                return Err(StoreError::Corrupt(format!(
                    "unsupported index format version {v}"
                )))
            }
        }
        let meta = MetaCache {
            watermark: read_u64(&*table, &keys::meta_key("watermark"))?,
            decl_next: read_u64(&*table, &keys::meta_key("decl_next"))?.unwrap_or(0),
            support_next: read_u64(&*table, &keys::meta_key("support_next"))?.unwrap_or(0),
        };
        Ok(DelegationIndex {
            table,
            meta: Mutex::new(meta),
            restamped: format == Some(1),
        })
    }

    /// `true` when [`DelegationIndex::open`] found a format-1 table and
    /// stamped it format 2 in memory only: the next
    /// [`DelegationIndex::compact`] makes the stamp durable.
    pub fn restamped(&self) -> bool {
        self.restamped
    }

    /// The last journal sequence number applied, if any event ever was.
    pub fn watermark(&self) -> Option<u64> {
        self.meta.lock().watermark
    }

    /// Whether this index covers a journal whose records run from
    /// `first_seq` (`None`: no record) to `last_seq`: its watermark `w`
    /// must satisfy `first_seq − 1 ≤ w ≤ last_seq`, so every record it
    /// lacks is still in the journal and it holds none the journal never
    /// wrote. An empty journal beside a watermark is covered (the index
    /// holds all history), and an index with no watermark covers only an
    /// empty journal. `Err` says which bound fails.
    ///
    /// # Errors
    ///
    /// The reason the index does not cover the journal.
    pub fn covers(&self, first_seq: Option<u64>, last_seq: u64) -> Result<(), String> {
        match (self.watermark(), first_seq) {
            (None, None) | (Some(_), None) => Ok(()),
            (None, Some(_)) => Err("index has no watermark for a non-empty store".into()),
            (Some(w), Some(first)) if w + 1 < first => Err(format!(
                "index watermark {w} is behind the log's first record ({first})"
            )),
            (Some(w), Some(_)) if w > last_seq => Err(format!(
                "index watermark {w} is ahead of the log tail ({last_seq})"
            )),
            (Some(_), Some(_)) => Ok(()),
        }
    }

    /// The watermark of the run this index was opened over, as a
    /// checkpoint counts a run (see
    /// [`DelegationIndex::previous_watermark`]): for an index opened over
    /// a previous run file alone, before anything is applied to it.
    pub fn run_watermark(&self) -> Option<u64> {
        counted_run(self.watermark())
    }

    /// Applies one journaled event at sequence `seq` as a single atomic
    /// batch. Re-applying an already-applied event is harmless — every op
    /// is an idempotent put or delete — which is what makes log-tail
    /// catch-up at boot safe. Skipping one is not: an event past
    /// `watermark + 1` is refused, so after a failed apply the watermark
    /// stays below the lost event and the next boot catches up from
    /// there.
    ///
    /// An index with no watermark that is handed seq 1 starts beside an
    /// empty journal. It first writes that down — an empty base run at
    /// watermark 0 — so a boot that finds no later base run catches up
    /// from seq 1 instead of rebuilding.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure or a sequence gap; the
    /// caller (the wallet) degrades its planner on any error here.
    pub fn apply(&self, seq: u64, event: &StoreEvent) -> Result<(), StoreError> {
        drbac_obs::static_counter!("drbac.index.apply.count").inc();
        let mut meta = self.meta.lock();
        if let Some(w) = meta.watermark.filter(|w| seq > w + 1) {
            return Err(StoreError::Corrupt(format!(
                "index at watermark {w} cannot apply seq {seq}: the records between were never applied"
            )));
        }
        if meta.watermark.is_none() && seq == 1 {
            let mut stamp = [
                (keys::meta_key("format"), FORMAT_VERSION),
                (keys::meta_key("watermark"), 0),
            ]
            .map(|(key, v)| (key, v.to_be_bytes().to_vec()))
            .into_iter();
            self.table.reset_with(&mut stamp)?;
            meta.watermark = Some(0);
        }
        let mut staged = *meta;
        let mut batch = Vec::new();
        match event {
            StoreEvent::Publish(cert) => stage_cert(&mut batch, cert),
            StoreEvent::Declare(decl) => {
                batch.push(TableOp::Put {
                    key: keys::counter_key(keys::P_DECL, staged.decl_next),
                    value: decl.to_bytes(),
                });
                staged.decl_next += 1;
                batch.push(put_u64(keys::meta_key("decl_next"), staged.decl_next));
            }
            StoreEvent::Support(proof) => {
                stage_support(&mut batch, &mut staged, proof);
            }
            StoreEvent::Absorb { proof, source } => {
                for cert in proof.all_certs() {
                    stage_cert(&mut batch, &cert);
                    batch.push(TableOp::Put {
                        key: keys::absorbed_key(cert.id()),
                        value: source.as_str().as_bytes().to_vec(),
                    });
                }
                // Nested supports re-register on boot exactly like the
                // live absorb path's recursive registration.
                stage_nested_supports(&mut batch, &mut staged, proof);
            }
            StoreEvent::Revoke(revocation) => {
                batch.push(TableOp::Put {
                    key: keys::mark_key(revocation.delegation_id()),
                    value: vec![keys::MARK_REVOKED],
                });
            }
            StoreEvent::RevokeMark(id) => {
                batch.push(TableOp::Put {
                    key: keys::mark_key(*id),
                    value: vec![keys::MARK_REVOKED],
                });
            }
            StoreEvent::Expire(id) => {
                self.stage_expire(&mut batch, *id)?;
            }
        }
        batch.push(put_u64(keys::meta_key("watermark"), seq));
        staged.watermark = Some(seq);
        self.table.apply(&batch)?;
        *meta = staged;
        Ok(())
    }

    /// Stages removal of every key for an expired credential, worked out
    /// from its `c/` row, decoded without re-verifying (as
    /// [`DelegationIndex::cert`] does). A missing row (expiry raced a
    /// revocation purge, or the event is being re-applied) stages only
    /// the tombstone.
    fn stage_expire(&self, batch: &mut Vec<TableOp>, id: DelegationId) -> Result<(), StoreError> {
        if let Some(cert) = self.cert(id)? {
            let d = cert.delegation();
            batch.push(TableOp::Delete {
                key: keys::subject_key(&keys::node_key(d.subject()), id),
            });
            batch.push(TableOp::Delete {
                key: keys::object_key(&keys::node_key(d.object()), id),
            });
            if let Some(at) = d.expires() {
                batch.push(TableOp::Delete {
                    key: keys::expiry_key(at, id),
                });
            }
            for key in [
                keys::third_party_key(id),
                keys::cert_key(id),
                keys::absorbed_key(id),
            ] {
                batch.push(TableOp::Delete { key });
            }
        }
        batch.push(TableOp::Put {
            key: keys::mark_key(id),
            value: vec![keys::MARK_EXPIRED],
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries (the planner's building blocks)
    // ------------------------------------------------------------------

    /// Ids of delegations whose subject is `node`, in id order.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn ids_by_subject(&self, node: &Node) -> Result<Vec<DelegationId>, StoreError> {
        self.collect_ids(&keys::subject_prefix(&keys::node_key(node)))
    }

    /// Ids of delegations whose object is `node`, in id order.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn ids_by_object(&self, node: &Node) -> Result<Vec<DelegationId>, StoreError> {
        self.collect_ids(&keys::object_prefix(&keys::node_key(node)))
    }

    /// The audit set: ids of delegations that need issuer support.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn third_party_ids(&self) -> Result<Vec<DelegationId>, StoreError> {
        self.collect_ids(&[keys::P_THIRD_PARTY])
    }

    /// Ids whose expiry instant `at` satisfies `now > at` — exactly the
    /// wallet's expiry rule — via one ordered range scan that visits
    /// O(expired) entries. The scan count is returned alongside for the
    /// sweep's work counter.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn expired_ids(&self, now: Timestamp) -> Result<(Vec<DelegationId>, u64), StoreError> {
        let start = [keys::P_EXPIRY];
        let end = keys::expiry_key(now, DelegationId([0u8; 32]));
        let mut out = Vec::new();
        let mut scanned = 0u64;
        self.table.scan(&start, Some(&end), &mut |k, _| {
            scanned += 1;
            if let Some(id) = keys::id_suffix(k) {
                out.push(id);
            }
            true
        })?;
        Ok((out, scanned))
    }

    /// Every revocation/expiry mark.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn marks(&self) -> Result<Vec<(DelegationId, Mark)>, StoreError> {
        let mut out = Vec::new();
        self.table.scan_prefix(&[keys::P_MARK], &mut |k, v| {
            if let Some(id) = keys::id_suffix(k) {
                match v.first() {
                    Some(&keys::MARK_REVOKED) => out.push((id, Mark::Revoked)),
                    Some(&keys::MARK_EXPIRED) => out.push((id, Mark::Expired)),
                    _ => {}
                }
            }
            true
        })?;
        Ok(out)
    }

    /// The stored credential bytes for `id`, decoded *without*
    /// re-verifying the signature (see the module docs for why that is
    /// sound). `None` when the id is not indexed.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure or undecodable stored bytes.
    pub fn cert(&self, id: DelegationId) -> Result<Option<Arc<SignedDelegation>>, StoreError> {
        match self.table.get(&keys::cert_key(id))? {
            None => Ok(None),
            Some(bytes) => SignedDelegation::from_bytes(&bytes)
                .map(|c| Some(Arc::new(c)))
                .map_err(|e| StoreError::Corrupt(format!("indexed cert {id:?}: {e}"))),
        }
    }

    /// Streams every indexed credential (decoded, not re-verified) in
    /// id order. The full-hydration path for whole-wallet views over a
    /// lazily booted wallet.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure or undecodable stored bytes.
    pub fn for_each_cert(
        &self,
        f: &mut dyn FnMut(Arc<SignedDelegation>),
    ) -> Result<(), StoreError> {
        let mut err = None;
        self.table.scan_prefix(
            &[keys::P_CERT],
            &mut |_, v| match SignedDelegation::from_bytes(v) {
                Ok(cert) => {
                    f(Arc::new(cert));
                    true
                }
                Err(e) => {
                    err = Some(StoreError::Corrupt(format!("indexed cert: {e}")));
                    false
                }
            },
        )?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Every indexed signed declaration, in admission order.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure or undecodable stored bytes.
    pub fn declarations(&self) -> Result<Vec<SignedAttrDeclaration>, StoreError> {
        let mut out = Vec::new();
        let mut err = None;
        self.table.scan_prefix(
            &[keys::P_DECL],
            &mut |_, v| match SignedAttrDeclaration::from_bytes(v) {
                Ok(d) => {
                    out.push(d);
                    true
                }
                Err(e) => {
                    err = Some(StoreError::Corrupt(format!("indexed declaration: {e}")));
                    false
                }
            },
        )?;
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Every indexed support proof, in admission order.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure or undecodable stored bytes.
    pub fn supports(&self) -> Result<Vec<Proof>, StoreError> {
        let mut out = Vec::new();
        let mut err = None;
        self.table
            .scan_prefix(&[keys::P_SUPPORT], &mut |_, v| match Proof::from_bytes(v) {
                Ok(p) => {
                    out.push(p);
                    true
                }
                Err(e) => {
                    err = Some(StoreError::Corrupt(format!("indexed support: {e}")));
                    false
                }
            })?;
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Coherence seeds: each absorbed credential with the wallet it was
    /// fetched from.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn absorbed(&self) -> Result<Vec<(DelegationId, WalletAddr)>, StoreError> {
        let mut out = Vec::new();
        self.table.scan_prefix(&[keys::P_ABSORBED], &mut |k, v| {
            if let (Some(id), Ok(addr)) = (keys::id_suffix(k), std::str::from_utf8(v)) {
                out.push((id, WalletAddr::new(addr)));
            }
            true
        })?;
        Ok(out)
    }

    /// Number of indexed live credentials (`c/` rows).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn cert_count(&self) -> Result<u64, StoreError> {
        let mut n = 0u64;
        self.table.scan_prefix(&[keys::P_CERT], &mut |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    fn collect_ids(&self, prefix: &[u8]) -> Result<Vec<DelegationId>, StoreError> {
        let mut out = Vec::new();
        self.table.scan_prefix(prefix, &mut |k, _| {
            if let Some(id) = keys::id_suffix(k) {
                out.push(id);
            }
            true
        })?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Backend size/shape numbers.
    pub fn stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Does nothing: applied batches are durable through the journal they
    /// came from, and through a base run once compacted. Kept for callers
    /// written when the index had a delta log of its own to sync.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Folds the overlay into the sorted base. On a file backend the
    /// base run it replaces becomes the previous run.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn compact(&self) -> Result<(), StoreError> {
        self.table.compact()
    }

    /// The watermark of the previous base run: how far a checkpoint may
    /// truncate the journal and still rebuild this index from that run
    /// plus the journal, should the current run go bad. `None` when there
    /// is no previous run (first compaction, or a backend with no durable
    /// runs such as [`MemTable`](crate::MemTable)): the journal then stays
    /// whole. A run at watermark 0 — the stamp a fresh index writes with
    /// its first record (see [`DelegationIndex::apply`]) — holds no record
    /// and counts as none.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn previous_watermark(&self) -> Result<Option<u64>, StoreError> {
        match self.table.previous_get(&keys::meta_key("watermark"))? {
            None => Ok(None),
            Some(v) => decode_u64(&v).map(|w| counted_run(Some(w))),
        }
    }

    /// Rebuilds the whole index from a fully recovered wallet's durable
    /// contents, bulk-loading the backend in one sorted pass and setting
    /// the watermark to `watermark` (the store's last appended
    /// sequence). This is the migration path from a plain WAL store —
    /// and the repair path for a corrupt index.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure.
    pub fn rebuild(&self, contents: &RebuildSource<'_>, watermark: u64) -> Result<(), StoreError> {
        let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut stage = |batch: Vec<TableOp>| {
            for op in batch {
                match op {
                    TableOp::Put { key, value } => {
                        entries.insert(key, value);
                    }
                    TableOp::Delete { key } => {
                        entries.remove(&key);
                    }
                }
            }
        };
        for cert in contents.certs {
            let mut batch = Vec::new();
            stage_cert(&mut batch, cert);
            stage(batch);
        }
        let mut meta = MetaCache {
            watermark: Some(watermark),
            ..MetaCache::default()
        };
        for decl in contents.declarations {
            stage(vec![TableOp::Put {
                key: keys::counter_key(keys::P_DECL, meta.decl_next),
                value: decl.to_bytes(),
            }]);
            meta.decl_next += 1;
        }
        for proof in contents.supports {
            stage(vec![TableOp::Put {
                key: keys::counter_key(keys::P_SUPPORT, meta.support_next),
                value: proof.to_bytes(),
            }]);
            meta.support_next += 1;
        }
        for id in contents.revoked {
            stage(vec![TableOp::Put {
                key: keys::mark_key(*id),
                value: vec![keys::MARK_REVOKED],
            }]);
        }
        for (id, source) in contents.absorbed {
            stage(vec![TableOp::Put {
                key: keys::absorbed_key(*id),
                value: source.as_str().as_bytes().to_vec(),
            }]);
        }
        stage(vec![
            put_u64(keys::meta_key("format"), FORMAT_VERSION),
            put_u64(keys::meta_key("watermark"), watermark),
            put_u64(keys::meta_key("decl_next"), meta.decl_next),
            put_u64(keys::meta_key("support_next"), meta.support_next),
        ]);
        drbac_obs::static_counter!("drbac.index.rebuild.count").inc();
        let mut lock = self.meta.lock();
        self.table.reset_with(&mut entries.into_iter())?;
        *lock = meta;
        Ok(())
    }

    /// Cross-checks this index against the journal's records `events`,
    /// after reading every entry so a damaged block fails its CRC here.
    /// Only the records at or below the watermark are compared: the ones
    /// above it are the overlay a boot rebuilds from the journal. A
    /// journal that starts at seq 1 holds every record the index ever
    /// applied, so both directions are checked: every id those records
    /// leave live is indexed, and nothing else is. A checkpointed journal
    /// starts later: entries at or below its first record are trusted
    /// from the base run, so only the ids its records name are checked —
    /// published ones must be indexed, expired ones must be gone.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend failure or a damaged block
    /// (disagreement is reported in the [`IndexCheck`], not as an error).
    pub fn verify_against(&self, events: &[(u64, StoreEvent)]) -> Result<IndexCheck, StoreError> {
        use std::collections::BTreeSet;
        let mut check = IndexCheck {
            watermark: self.watermark(),
            ..IndexCheck::default()
        };
        self.table.entries()?;
        let mut expected: BTreeSet<DelegationId> = BTreeSet::new();
        let mut expired: BTreeSet<DelegationId> = BTreeSet::new();
        let applied = events
            .iter()
            .take_while(|(seq, _)| check.watermark.is_some_and(|w| *seq <= w));
        for (_, event) in applied {
            let published = match event {
                StoreEvent::Publish(cert) => vec![cert.id()],
                StoreEvent::Support(proof) | StoreEvent::Absorb { proof, .. } => {
                    proof.all_certs().iter().map(|c| c.id()).collect()
                }
                StoreEvent::Expire(id) => {
                    expected.remove(id);
                    expired.insert(*id);
                    continue;
                }
                StoreEvent::Declare(_) | StoreEvent::Revoke(_) | StoreEvent::RevokeMark(_) => {
                    continue
                }
            };
            for id in published {
                expired.remove(&id);
                expected.insert(id);
            }
        }
        let mut indexed: BTreeSet<DelegationId> = BTreeSet::new();
        self.table.scan_prefix(&[keys::P_CERT], &mut |k, _| {
            if let Some(id) = keys::id_suffix(k) {
                indexed.insert(id);
            }
            true
        })?;
        check.entries = indexed.len() as u64;
        check.missing = expected.difference(&indexed).count() as u64;
        let whole = events.first().is_some_and(|(seq, _)| *seq == 1);
        check.orphaned = if whole {
            indexed.difference(&expected).count()
        } else {
            indexed.intersection(&expired).count()
        } as u64;
        if let (Some(w), Some((first, _)), Some((last, _))) =
            (check.watermark, events.first(), events.last())
        {
            if w > *last {
                check.corruption = Some(format!("watermark {w} ahead of journal tail {last}"));
            } else if w + 1 < *first {
                check.corruption = Some(format!(
                    "watermark {w} behind the journal's first record {first}: \
                     the records between were truncated before the index applied them"
                ));
            }
        }
        Ok(check)
    }
}

/// The durable contents of a recovered wallet, borrowed for
/// [`DelegationIndex::rebuild`].
pub struct RebuildSource<'a> {
    /// Every live credential (support certs included).
    pub certs: &'a [Arc<SignedDelegation>],
    /// Every registered support proof.
    pub supports: &'a [Proof],
    /// Every signed declaration.
    pub declarations: &'a [SignedAttrDeclaration],
    /// Every revocation mark.
    pub revoked: &'a [DelegationId],
    /// Absorbed-credential coherence seeds.
    pub absorbed: &'a [(DelegationId, WalletAddr)],
}

/// Stages every key for one credential: its bytes, both adjacency keys,
/// and its expiry and audit-set keys when it has them.
fn stage_cert(batch: &mut Vec<TableOp>, cert: &SignedDelegation) {
    let id = cert.id();
    let d = cert.delegation();
    batch.push(TableOp::Put {
        key: keys::cert_key(id),
        value: cert.to_bytes(),
    });
    let mut key = |key| {
        batch.push(TableOp::Put {
            key,
            value: Vec::new(),
        })
    };
    key(keys::subject_key(&keys::node_key(d.subject()), id));
    key(keys::object_key(&keys::node_key(d.object()), id));
    if let Some(at) = d.expires() {
        key(keys::expiry_key(at, id));
    }
    if d.needs_support() {
        key(keys::third_party_key(id));
    }
}

/// Stages one support proof and (recursively, matching the graph's
/// registration) the proof's own credentials.
fn stage_support(batch: &mut Vec<TableOp>, staged: &mut MetaCache, proof: &Proof) {
    batch.push(TableOp::Put {
        key: keys::counter_key(keys::P_SUPPORT, staged.support_next),
        value: proof.to_bytes(),
    });
    staged.support_next += 1;
    batch.push(put_u64(keys::meta_key("support_next"), staged.support_next));
    for cert in proof.all_certs() {
        stage_cert(batch, &cert);
    }
}

/// Stages every support proof found *inside* `proof`'s steps,
/// recursively — the absorb path's registration shape (the absorbed
/// proof itself is not a provided support).
fn stage_nested_supports(batch: &mut Vec<TableOp>, staged: &mut MetaCache, proof: &Proof) {
    for step in proof.steps() {
        for support in step.supports() {
            stage_support(batch, staged, support);
            stage_nested_supports(batch, staged, support);
        }
    }
}

fn put_u64(key: Vec<u8>, v: u64) -> TableOp {
    TableOp::Put {
        key,
        value: v.to_be_bytes().to_vec(),
    }
}

/// A run at watermark 0 holds no record, so a checkpoint counts it as no
/// run at all.
fn counted_run(watermark: Option<u64>) -> Option<u64> {
    watermark.filter(|&w| w > 0)
}

fn read_u64(table: &dyn TableBackend, key: &[u8]) -> Result<Option<u64>, StoreError> {
    table.get(key)?.map(|v| decode_u64(&v)).transpose()
}

fn decode_u64(v: &[u8]) -> Result<u64, StoreError> {
    let bytes: [u8; 8] = v
        .try_into()
        .map_err(|_| StoreError::Corrupt("index metadata not 8 bytes".into()))?;
    Ok(u64::from_be_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::MemTable;
    use drbac_core::{LocalEntity, Node, Timestamp};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn entities() -> (LocalEntity, LocalEntity) {
        let mut rng = StdRng::seed_from_u64(17);
        let g = SchnorrGroup::test_256();
        (
            LocalEntity::generate("A", g.clone(), &mut rng),
            LocalEntity::generate("B", g, &mut rng),
        )
    }

    #[test]
    fn a_format_1_table_is_restamped_in_memory_until_compacted() {
        let (tab, prev) = (drbac_store::MemMedium::new(), drbac_store::MemMedium::new());
        let table =
            || crate::FileTable::from_media(Box::new(tab.clone()), Box::new(prev.clone())).unwrap();
        let format = || read_u64(&table(), &keys::meta_key("format")).unwrap();
        let old = table();
        old.apply(&[put_u64(keys::meta_key("format"), 1)]).unwrap();
        old.compact().unwrap();

        // A read-only open changes no file.
        let index = DelegationIndex::open(Box::new(table())).unwrap();
        assert!(index.restamped());
        drop(index);
        assert_eq!(format(), Some(1));

        let index = DelegationIndex::open(Box::new(table())).unwrap();
        index.compact().unwrap();
        assert_eq!(format(), Some(FORMAT_VERSION));
        assert!(!DelegationIndex::open(Box::new(table()))
            .unwrap()
            .restamped());
    }

    fn index() -> DelegationIndex {
        DelegationIndex::open(Box::new(MemTable::new())).unwrap()
    }

    #[test]
    fn publish_and_expire_round_trip_every_keyspace() {
        let (a, b) = entities();
        let idx = index();
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("member")))
            .expires(Timestamp(100))
            .sign(&a)
            .unwrap();
        let cert = Arc::new(cert);
        let id = cert.id();
        idx.apply(1, &StoreEvent::Publish(Arc::clone(&cert)))
            .unwrap();

        // Only families a read path uses: bytes, adjacency, expiry, meta.
        let mut families = Vec::new();
        idx.table
            .scan(&[], None, &mut |k, _| {
                families.push(k[0]);
                true
            })
            .unwrap();
        families.dedup();
        assert_eq!(families, b"cemos".to_vec());
        assert_eq!(idx.watermark(), Some(1));
        assert_eq!(idx.ids_by_subject(&Node::entity(&b)).unwrap(), vec![id]);
        assert_eq!(
            idx.ids_by_object(&Node::role(a.role("member"))).unwrap(),
            vec![id]
        );
        // Self-issued: not in the audit set.
        assert!(idx.third_party_ids().unwrap().is_empty());
        // Strict `now > at`: not expired at exactly t=100.
        assert!(idx.expired_ids(Timestamp(100)).unwrap().0.is_empty());
        let (expired, scanned) = idx.expired_ids(Timestamp(101)).unwrap();
        assert_eq!(expired, vec![id]);
        assert_eq!(scanned, 1);
        let got = idx.cert(id).unwrap().expect("cert bytes");
        assert_eq!(got.id(), id);

        idx.apply(2, &StoreEvent::Expire(id)).unwrap();
        assert!(idx.ids_by_subject(&Node::entity(&b)).unwrap().is_empty());
        assert!(idx.expired_ids(Timestamp(200)).unwrap().0.is_empty());
        assert!(idx.cert(id).unwrap().is_none());
        assert_eq!(idx.marks().unwrap(), vec![(id, Mark::Expired)]);
        assert_eq!(idx.watermark(), Some(2));
    }

    #[test]
    fn third_party_publications_join_the_audit_set() {
        let (a, b) = entities();
        let idx = index();
        let member = a.role("member");
        // b issues into a's namespace: needs support.
        let cert = b
            .delegate(Node::entity(&a), Node::role(member))
            .sign(&b)
            .unwrap();
        let id = cert.id();
        idx.apply(1, &StoreEvent::Publish(Arc::new(cert))).unwrap();
        assert_eq!(idx.third_party_ids().unwrap(), vec![id]);
        // Revocation keeps the credential indexed (searches skip it by
        // mark, same as the graph).
        idx.apply(2, &StoreEvent::RevokeMark(id)).unwrap();
        assert_eq!(idx.marks().unwrap(), vec![(id, Mark::Revoked)]);
        assert!(idx.cert(id).unwrap().is_some());
    }

    #[test]
    fn verify_against_flags_missing_and_orphaned_ids() {
        let (a, b) = entities();
        let idx = index();
        let cert1 = Arc::new(
            a.delegate(Node::entity(&b), Node::role(a.role("r1")))
                .sign(&a)
                .unwrap(),
        );
        let cert2 = Arc::new(
            a.delegate(Node::entity(&b), Node::role(a.role("r2")))
                .sign(&a)
                .unwrap(),
        );
        idx.apply(1, &StoreEvent::Publish(Arc::clone(&cert1)))
            .unwrap();
        let clean = idx
            .verify_against(&[(1, StoreEvent::Publish(Arc::clone(&cert1)))])
            .unwrap();
        assert!(clean.is_clean(), "{clean:?}");
        let journal = [
            (1, StoreEvent::Publish(Arc::clone(&cert1))),
            (2, StoreEvent::Publish(Arc::clone(&cert2))),
        ];
        // A record above the watermark is the overlay a boot rebuilds.
        let check = idx.verify_against(&journal).unwrap();
        assert!(check.is_clean(), "{check:?}");
        // At or below it, the journal's cert2 is missing from the index.
        idx.apply(2, &StoreEvent::RevokeMark(cert1.id())).unwrap();
        let check = idx.verify_against(&journal).unwrap();
        assert_eq!(check.missing, 1);
        assert_eq!(check.orphaned, 0);
        // A whole journal that only expires cert1: it is orphaned.
        let check = idx
            .verify_against(&[
                (1, StoreEvent::Publish(Arc::clone(&cert1))),
                (2, StoreEvent::Expire(cert1.id())),
            ])
            .unwrap();
        assert_eq!(check.orphaned, 1);
        // A checkpointed journal (first record above 1) trusts the base
        // run for what it no longer holds: cert1 is not orphaned.
        let check = idx
            .verify_against(&[(1, StoreEvent::Publish(Arc::clone(&cert1)))][1..])
            .unwrap();
        assert!(check.is_clean(), "{check:?}");
        // ...but a watermark behind the first record is damage.
        let check = idx
            .verify_against(&[(5, StoreEvent::Publish(Arc::clone(&cert2)))])
            .unwrap();
        assert!(check.corruption.is_some());
    }

    #[test]
    fn apply_refuses_a_sequence_gap() {
        let (a, b) = entities();
        let idx = index();
        let cert = Arc::new(
            a.delegate(Node::entity(&b), Node::role(a.role("r")))
                .sign(&a)
                .unwrap(),
        );
        idx.apply(1, &StoreEvent::Publish(Arc::clone(&cert)))
            .unwrap();
        idx.apply(1, &StoreEvent::Publish(Arc::clone(&cert)))
            .unwrap();
        assert!(idx.apply(3, &StoreEvent::RevokeMark(cert.id())).is_err());
        assert_eq!(idx.watermark(), Some(1));
        idx.apply(2, &StoreEvent::RevokeMark(cert.id())).unwrap();
    }

    #[test]
    fn reopen_preserves_watermark_and_counters() {
        let (a, b) = entities();
        let table = Arc::new(MemTable::new());
        struct Shared(Arc<MemTable>);
        impl TableBackend for Shared {
            fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
                self.0.get(key)
            }
            fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError> {
                self.0.apply(batch)
            }
            fn scan(
                &self,
                start: &[u8],
                end: Option<&[u8]>,
                f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
            ) -> Result<(), StoreError> {
                self.0.scan(start, end, f)
            }
            fn stats(&self) -> TableStats {
                self.0.stats()
            }
            fn compact(&self) -> Result<(), StoreError> {
                self.0.compact()
            }
            fn reset_with(
                &self,
                entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
            ) -> Result<(), StoreError> {
                self.0.reset_with(entries)
            }
        }
        let idx = DelegationIndex::open(Box::new(Shared(Arc::clone(&table)))).unwrap();
        let cert = Arc::new(
            a.delegate(Node::entity(&b), Node::role(a.role("r")))
                .sign(&a)
                .unwrap(),
        );
        idx.apply(7, &StoreEvent::Publish(cert)).unwrap();
        drop(idx);
        let reopened = DelegationIndex::open(Box::new(Shared(table))).unwrap();
        assert_eq!(reopened.watermark(), Some(7));
        assert_eq!(reopened.cert_count().unwrap(), 1);
    }
}
