//! The ordered-table seam: a byte-keyed, byte-valued, totally ordered
//! table with atomic batches and range scans.
//!
//! Everything above this trait (the delegation index, the wallet's
//! query planner) is written against [`TableBackend`], so the same
//! index logic runs over the in-memory [`MemTable`] (deterministic
//! simulation, oracle property tests) and over the file-backed
//! [`FileTable`](crate::FileTable) (the CLI's on-disk index).

use std::collections::BTreeMap;
use std::ops::Bound;

use parking_lot::Mutex;

use drbac_store::StoreError;

/// One mutation in an atomic [`TableBackend::apply`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOp {
    /// Insert or overwrite `key`.
    Put {
        /// The full table key.
        key: Vec<u8>,
        /// The value stored under it (may be empty — index entries
        /// carry their payload in the key).
        value: Vec<u8>,
    },
    /// Remove `key` if present.
    Delete {
        /// The full table key.
        key: Vec<u8>,
    },
}

impl TableOp {
    /// The key this op touches.
    pub fn key(&self) -> &[u8] {
        match self {
            TableOp::Put { key, .. } | TableOp::Delete { key } => key,
        }
    }
}

/// Cheap size/shape numbers for `drbac store inspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Entries in the immutable sorted base (0 for purely in-memory
    /// backends, which report everything under `delta_ops`).
    pub base_entries: u64,
    /// Bytes of the sorted base file.
    pub base_bytes: u64,
    /// Keys in the overlay on top of the base (puts and deletes not yet
    /// compacted).
    pub delta_ops: u64,
}

/// An ordered byte-key/byte-value table.
///
/// Keys are compared lexicographically as byte strings. A batch is
/// applied whole. Nothing applied outlives the process until
/// [`TableBackend::compact`] (or a backend's own fold) writes it into a
/// base run: the journal the batches were derived from is the durable
/// copy.
pub trait TableBackend: Send + Sync {
    /// Looks up one key.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure or framing corruption.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;

    /// Applies a batch of mutations atomically.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure.
    fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError>;

    /// Streams entries with `start <= key < end` (no upper bound when
    /// `end` is `None`) in key order; the callback returns `false` to
    /// stop early.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure or framing corruption.
    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError>;

    /// Exact number of live entries. May cost a full merged scan on
    /// file backends; meant for verification, not hot paths (use
    /// [`TableBackend::stats`] for cheap numbers).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure.
    fn entries(&self) -> Result<u64, StoreError> {
        let mut n = 0u64;
        self.scan(&[], None, &mut |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Cheap size/shape numbers from bookkeeping (no full scan).
    fn stats(&self) -> TableStats;

    /// Merges accumulated deltas into the sorted base so the next open
    /// replays (almost) nothing. A backend whose runs live on a durable
    /// medium keeps the run this replaces as the *previous run* (see
    /// [`TableBackend::previous_get`]). A no-op for in-memory backends.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure.
    fn compact(&self) -> Result<(), StoreError>;

    /// Reads `key` from the previous run: the base run the last
    /// [`TableBackend::compact`] replaced, kept on the medium as the
    /// recovery source for a current run that goes bad. `None` when the
    /// key is absent or the backend keeps no runs that outlive the
    /// process — which is how the checkpoint knows such an index licenses
    /// no journal truncation.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure or framing corruption.
    fn previous_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let _ = key;
        Ok(None)
    }

    /// Replaces the whole table with `entries`, which must arrive in
    /// strictly increasing key order (bulk load for rebuilds).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure, or [`StoreError::Corrupt`]
    /// if the input is out of order.
    fn reset_with(
        &self,
        entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError>;

    /// Streams every entry whose key starts with `prefix`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on backend I/O failure or framing corruption.
    fn scan_prefix(
        &self,
        prefix: &[u8],
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        let end = prefix_end(prefix);
        self.scan(prefix, end.as_deref(), f)
    }
}

/// The exclusive upper bound of the key range sharing `prefix`: the
/// prefix with its last non-0xFF byte incremented and the tail dropped.
/// `None` means "no upper bound" (the prefix is empty or all 0xFF).
pub fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(last) = end.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

/// The in-memory [`TableBackend`]: a `BTreeMap` behind a lock. Used by
/// simulations and the oracle tests; also the fallback the wallet's
/// planner runs against when no file index is attached.
#[derive(Default)]
pub struct MemTable {
    map: Mutex<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl MemTable {
    /// An empty in-memory table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TableBackend for MemTable {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.map.lock().get(key).cloned())
    }

    fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError> {
        let mut map = self.map.lock();
        for op in batch {
            match op {
                TableOp::Put { key, value } => {
                    map.insert(key.clone(), value.clone());
                }
                TableOp::Delete { key } => {
                    map.remove(key);
                }
            }
        }
        Ok(())
    }

    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        let map = self.map.lock();
        let upper = end.map_or(Bound::Unbounded, |e| Bound::Excluded(e.to_vec()));
        for (k, v) in map.range((Bound::Included(start.to_vec()), upper)) {
            if !f(k, v) {
                break;
            }
        }
        Ok(())
    }

    fn entries(&self) -> Result<u64, StoreError> {
        Ok(self.map.lock().len() as u64)
    }

    fn stats(&self) -> TableStats {
        TableStats {
            delta_ops: self.map.lock().len() as u64,
            ..TableStats::default()
        }
    }

    fn compact(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn reset_with(
        &self,
        entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        let mut map = self.map.lock();
        map.clear();
        let mut prev: Option<Vec<u8>> = None;
        for (k, v) in entries {
            if prev.as_ref().is_some_and(|p| *p >= k) {
                return Err(StoreError::Corrupt(
                    "bulk load keys must be strictly increasing".into(),
                ));
            }
            prev = Some(k.clone());
            map.insert(k, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(key: &[u8], value: &[u8]) -> TableOp {
        TableOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn prefix_end_increments_with_carry() {
        assert_eq!(prefix_end(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_end(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_end(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_end(b""), None);
    }

    #[test]
    fn mem_table_scans_in_order_and_respects_bounds() {
        let t = MemTable::new();
        t.apply(&[put(b"b/1", b"x"), put(b"a/1", b"y"), put(b"b/2", b"z")])
            .unwrap();
        let mut seen = Vec::new();
        t.scan_prefix(b"b/", &mut |k, _| {
            seen.push(k.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen, vec![b"b/1".to_vec(), b"b/2".to_vec()]);
        assert_eq!(t.entries().unwrap(), 3);
        t.apply(&[TableOp::Delete {
            key: b"b/1".to_vec(),
        }])
        .unwrap();
        assert_eq!(t.get(b"b/1").unwrap(), None);
        assert_eq!(t.entries().unwrap(), 2);
    }

    #[test]
    fn bulk_load_rejects_unsorted_input() {
        let t = MemTable::new();
        let mut bad = vec![(b"b".to_vec(), vec![]), (b"a".to_vec(), vec![])].into_iter();
        assert!(t.reset_with(&mut bad).is_err());
    }
}
