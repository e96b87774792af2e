//! The file-backed ordered table: an immutable three-level sorted run
//! over the store's [`Medium`] seam, plus an in-memory overlay.
//!
//! ## Base file (`index.tab`)
//!
//! A bulk-written, immutable sorted run laid out like a three-level
//! B-tree so *open* reads only the trailer and the top-level fence
//! array — a few hundred kilobytes for a million delegations — and a
//! point lookup costs at most two more block reads:
//!
//! ```text
//! base    := blocks… | L1 groups… | L2 | trailer
//! block   := entry…                      (≈4 KiB of entries)
//! entry   := klen:u32be | vlen:u32be | key | value
//! L1      := fence…                      (one fence per block)
//! fence   := klen:u32be | first_key | off:u64be | len:u32be | crc:u32be
//! L2      := fence…                      (one fence per L1 group)
//! trailer := entries:u64be | blocks:u64be | l2_off:u64be
//!          | l2_len:u32be | l2_crc:u32be | magic:8 ("drbacIT1")
//! ```
//!
//! Every fence carries the CRC32 of the region it points at (the same
//! CRC the WAL frames use), so bit rot anywhere is detected before the
//! bytes are trusted. An empty file is an empty table.
//!
//! ## Overlay
//!
//! Mutations land in an in-memory overlay only. The table writes no log
//! of its own: the wallet's journal already holds every record the
//! overlay reflects, and an indexed boot rebuilds the overlay by
//! applying the journal records above the base run's watermark again.
//! [`TableBackend::compact`] merges the overlay into a fresh base
//! (atomic [`Medium::replace`]); so does `apply` once the overlay holds
//! `DELTA_MAX_OPS` keys, which bounds both the overlay and the journal
//! tail a boot applies.
//!
//! ## Previous run (`index.prev`)
//!
//! An explicit compaction first copies the base run it is about to
//! replace into `index.prev`. That previous run is the recovery source
//! for a current run that goes bad: [`FileTable::restore_previous`] puts
//! it back, and the wallet catches up from the journal above its
//! watermark, which a checkpoint never truncates past
//! ([`TableBackend::previous_get`]). The size-triggered fold inside
//! `apply` leaves it alone.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use drbac_store::{crc32, FileMedium, Medium, MemMedium, StoreError};

use crate::table::{TableBackend, TableOp, TableStats};

/// The overlay: `Some` = pending put, `None` = pending delete.
type Overlay = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// Trailing magic of the base file.
pub const INDEX_TAB_MAGIC: [u8; 8] = *b"drbacIT1";

const TRAILER: usize = 8 + 8 + 8 + 4 + 4 + 8;
/// Entries are packed into blocks of roughly this many bytes.
const TARGET_BLOCK_BYTES: usize = 4096;
/// L1 fences are grouped this many blocks per L2 entry.
const GROUP_BLOCKS: usize = 64;
/// A single fence/block length above this is corruption, not an
/// allocation request.
const MAX_REGION: usize = 1 << 26;
/// Auto-compaction threshold: merge the overlay into the base once it
/// holds this many keys.
const DELTA_MAX_OPS: usize = 1 << 16;
/// Blocks kept hot (FIFO eviction). A block is held as read, plus four
/// bytes per entry, so at the default block size this bounds the cache
/// near 4 MiB.
const BLOCK_CACHE: usize = 1024;

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes(b.try_into().expect("4 bytes"))
}

fn be64(b: &[u8]) -> u64 {
    u64::from_be_bytes(b.try_into().expect("8 bytes"))
}

/// One fence: the first key of a region plus its location and CRC.
#[derive(Debug, Clone)]
struct Fence {
    first_key: Vec<u8>,
    off: u64,
    len: u32,
    crc: u32,
}

fn parse_fences(bytes: &[u8]) -> Result<Vec<Fence>, StoreError> {
    let mut fences = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < 4 {
            return Err(corrupt("torn fence header"));
        }
        let klen = be32(&bytes[at..at + 4]) as usize;
        at += 4;
        if klen > MAX_REGION || bytes.len() - at < klen + 16 {
            return Err(corrupt("torn fence"));
        }
        let first_key = bytes[at..at + klen].to_vec();
        at += klen;
        let off = be64(&bytes[at..at + 8]);
        let len = be32(&bytes[at + 8..at + 12]);
        let crc = be32(&bytes[at + 12..at + 16]);
        at += 16;
        fences.push(Fence {
            first_key,
            off,
            len,
            crc,
        });
    }
    Ok(fences)
}

fn push_fence(out: &mut Vec<u8>, f: &Fence) {
    out.extend_from_slice(&(f.first_key.len() as u32).to_be_bytes());
    out.extend_from_slice(&f.first_key);
    out.extend_from_slice(&f.off.to_be_bytes());
    out.extend_from_slice(&f.len.to_be_bytes());
    out.extend_from_slice(&f.crc.to_be_bytes());
}

/// One base-file block as read: its CRC-checked bytes plus the offset
/// of each entry. Lookups binary-search the offsets and scans slice keys
/// and values out of the bytes, so nothing is copied per entry.
struct Block {
    bytes: Box<[u8]>,
    offsets: Box<[u32]>,
}

impl Block {
    /// Frames `bytes` into entries; a block shorter than its entries
    /// claim is corrupt.
    fn parse(bytes: Vec<u8>) -> Result<Self, StoreError> {
        let mut offsets = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            if bytes.len() - at < 8 {
                return Err(corrupt("torn block entry header"));
            }
            let klen = be32(&bytes[at..at + 4]) as usize;
            let vlen = be32(&bytes[at + 4..at + 8]) as usize;
            if klen > MAX_REGION || vlen > MAX_REGION || bytes.len() - at - 8 < klen + vlen {
                return Err(corrupt("torn block entry"));
            }
            offsets.push(u32::try_from(at).map_err(|_| corrupt("block longer than 4 GiB"))?);
            at += 8 + klen + vlen;
        }
        Ok(Block {
            bytes: bytes.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
        })
    }

    /// The key and value of the entry starting at byte `at`.
    fn entry_at(&self, at: u32) -> (&[u8], &[u8]) {
        let at = at as usize;
        let klen = be32(&self.bytes[at..at + 4]) as usize;
        let vlen = be32(&self.bytes[at + 4..at + 8]) as usize;
        let (key, rest) = self.bytes[at + 8..].split_at(klen);
        (key, &rest[..vlen])
    }

    /// The value stored under `key`.
    fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let i = self
            .offsets
            .binary_search_by(|&at| self.entry_at(at).0.cmp(key))
            .ok()?;
        Some(self.entry_at(self.offsets[i]).1)
    }

    /// Entries with keys `>= start`, in order.
    fn entries_from(&self, start: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
        let from = self
            .offsets
            .partition_point(|&at| self.entry_at(at).0 < start);
        self.offsets[from..].iter().map(|&at| self.entry_at(at))
    }
}

/// Parsed trailer + L2 of a non-empty base file.
struct BaseMeta {
    entries: u64,
    bytes: u64,
    l2: Vec<Fence>,
}

struct BaseState {
    medium: Box<dyn Medium>,
    meta: Option<BaseMeta>,
    /// L1 fence groups by group index.
    group_cache: HashMap<usize, Arc<Vec<Fence>>>,
    /// Blocks by file offset, FIFO-evicted.
    block_cache: HashMap<u64, Arc<Block>>,
    block_order: VecDeque<u64>,
}

impl BaseState {
    fn open(medium: Box<dyn Medium>) -> Result<Self, StoreError> {
        let mut state = Self::unloaded(medium);
        state.reload()?;
        Ok(state)
    }

    fn unloaded(medium: Box<dyn Medium>) -> Self {
        BaseState {
            medium,
            meta: None,
            group_cache: HashMap::new(),
            block_cache: HashMap::new(),
            block_order: VecDeque::new(),
        }
    }

    /// (Re)parses the trailer and L2 without touching data blocks.
    fn reload(&mut self) -> Result<(), StoreError> {
        self.meta = None;
        self.group_cache.clear();
        self.block_cache.clear();
        self.block_order.clear();
        let total = self.medium.len()?;
        if total == 0 {
            return Ok(());
        }
        if total < TRAILER as u64 {
            return Err(corrupt("base file shorter than its trailer"));
        }
        let trailer = self.medium.read_at(total - TRAILER as u64, TRAILER)?;
        if trailer.len() != TRAILER || trailer[32..40] != INDEX_TAB_MAGIC {
            return Err(corrupt("base file trailer magic mismatch"));
        }
        let entries = be64(&trailer[0..8]);
        let blocks = be64(&trailer[8..16]);
        let l2_off = be64(&trailer[16..24]);
        let l2_len = be32(&trailer[24..28]) as usize;
        let l2_crc = be32(&trailer[28..32]);
        if l2_len > MAX_REGION || l2_off.saturating_add(l2_len as u64) > total {
            return Err(corrupt("base file L2 region out of bounds"));
        }
        let l2_bytes = self.medium.read_at(l2_off, l2_len)?;
        if l2_bytes.len() != l2_len || crc32(&l2_bytes) != l2_crc {
            return Err(corrupt("base file L2 fence array failed its crc"));
        }
        let l2 = parse_fences(&l2_bytes)?;
        let expected_groups = (blocks as usize).div_ceil(GROUP_BLOCKS);
        if l2.len() != expected_groups {
            return Err(corrupt("base file L2 fence count mismatch"));
        }
        self.meta = Some(BaseMeta {
            entries,
            bytes: total,
            l2,
        });
        Ok(())
    }

    fn group(&mut self, idx: usize) -> Result<Arc<Vec<Fence>>, StoreError> {
        if let Some(g) = self.group_cache.get(&idx) {
            return Ok(g.clone());
        }
        let meta = self.meta.as_ref().expect("group() on empty base");
        let fence = &meta.l2[idx];
        let bytes = self.medium.read_at(fence.off, fence.len as usize)?;
        if bytes.len() != fence.len as usize || crc32(&bytes) != fence.crc {
            return Err(corrupt(format!("L1 fence group {idx} failed its crc")));
        }
        let group = Arc::new(parse_fences(&bytes)?);
        self.group_cache.insert(idx, group.clone());
        Ok(group)
    }

    fn block(&mut self, fence: &Fence) -> Result<Arc<Block>, StoreError> {
        if let Some(b) = self.block_cache.get(&fence.off) {
            return Ok(b.clone());
        }
        let bytes = self.medium.read_at(fence.off, fence.len as usize)?;
        if bytes.len() != fence.len as usize || crc32(&bytes) != fence.crc {
            return Err(corrupt(format!(
                "data block at byte {} failed its crc",
                fence.off
            )));
        }
        let block = Arc::new(Block::parse(bytes)?);
        if self.block_order.len() >= BLOCK_CACHE {
            if let Some(evict) = self.block_order.pop_front() {
                self.block_cache.remove(&evict);
            }
        }
        self.block_cache.insert(fence.off, block.clone());
        self.block_order.push_back(fence.off);
        Ok(block)
    }

    /// Index of the last fence with `first_key <= key` (0 when the key
    /// precedes every fence).
    fn fence_at(fences: &[Fence], key: &[u8]) -> usize {
        fences
            .partition_point(|f| f.first_key.as_slice() <= key)
            .saturating_sub(1)
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(meta) = self.meta.as_ref() else {
            return Ok(None);
        };
        if meta.l2.is_empty() {
            return Ok(None);
        }
        let gi = Self::fence_at(&meta.l2, key);
        let group = self.group(gi)?;
        let bi = Self::fence_at(&group, key);
        let block = self.block(&group[bi])?;
        Ok(block.get(key).map(<[u8]>::to_vec))
    }

    /// Streams base entries with `start <= key < end` in order.
    fn scan(
        &mut self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<bool, StoreError> {
        let Some(meta) = self.meta.as_ref() else {
            return Ok(true);
        };
        if meta.l2.is_empty() {
            return Ok(true);
        }
        let groups = meta.l2.len();
        let mut gi = Self::fence_at(&meta.l2, start);
        let mut bi = {
            let group = self.group(gi)?;
            Self::fence_at(&group, start)
        };
        loop {
            let group = self.group(gi)?;
            while bi < group.len() {
                let fence = &group[bi];
                if end.is_some_and(|e| fence.first_key.as_slice() >= e) {
                    return Ok(true);
                }
                let block = self.block(fence)?;
                for (k, v) in block.entries_from(start) {
                    if end.is_some_and(|e| k >= e) {
                        return Ok(true);
                    }
                    if !f(k, v) {
                        return Ok(false);
                    }
                }
                bi += 1;
            }
            gi += 1;
            bi = 0;
            if gi >= groups {
                return Ok(true);
            }
        }
    }
}

/// Serializes a sorted entry stream into the base file layout.
/// Returns an error if keys are not strictly increasing.
fn build_base(
    entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
) -> Result<Vec<u8>, StoreError> {
    let mut out: Vec<u8> = Vec::new();
    let mut l1: Vec<Fence> = Vec::new();
    let mut block = Vec::new();
    let mut block_first: Option<Vec<u8>> = None;
    let mut prev: Option<Vec<u8>> = None;
    let mut count = 0u64;

    let flush_block = |out: &mut Vec<u8>,
                       block: &mut Vec<u8>,
                       first: &mut Option<Vec<u8>>,
                       l1: &mut Vec<Fence>| {
        if block.is_empty() {
            return;
        }
        l1.push(Fence {
            first_key: first.take().expect("non-empty block has a first key"),
            off: out.len() as u64,
            len: block.len() as u32,
            crc: crc32(block),
        });
        out.extend_from_slice(block);
        block.clear();
    };

    for (k, v) in entries {
        if prev.as_ref().is_some_and(|p| *p >= k) {
            return Err(corrupt("bulk load keys must be strictly increasing"));
        }
        prev = Some(k.clone());
        if block_first.is_none() {
            block_first = Some(k.clone());
        }
        block.extend_from_slice(&(k.len() as u32).to_be_bytes());
        block.extend_from_slice(&(v.len() as u32).to_be_bytes());
        block.extend_from_slice(&k);
        block.extend_from_slice(&v);
        count += 1;
        if block.len() >= TARGET_BLOCK_BYTES {
            flush_block(&mut out, &mut block, &mut block_first, &mut l1);
        }
    }
    flush_block(&mut out, &mut block, &mut block_first, &mut l1);

    if count == 0 {
        // An empty table is an empty file.
        return Ok(Vec::new());
    }

    let blocks = l1.len() as u64;
    let mut l2: Vec<Fence> = Vec::new();
    for chunk in l1.chunks(GROUP_BLOCKS) {
        let mut group_bytes = Vec::new();
        for fence in chunk {
            push_fence(&mut group_bytes, fence);
        }
        l2.push(Fence {
            first_key: chunk[0].first_key.clone(),
            off: out.len() as u64,
            len: group_bytes.len() as u32,
            crc: crc32(&group_bytes),
        });
        out.extend_from_slice(&group_bytes);
    }
    let l2_off = out.len() as u64;
    let mut l2_bytes = Vec::new();
    for fence in &l2 {
        push_fence(&mut l2_bytes, fence);
    }
    let l2_crc = crc32(&l2_bytes);
    let l2_len = l2_bytes.len() as u32;
    out.extend_from_slice(&l2_bytes);
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&blocks.to_be_bytes());
    out.extend_from_slice(&l2_off.to_be_bytes());
    out.extend_from_slice(&l2_len.to_be_bytes());
    out.extend_from_slice(&l2_crc.to_be_bytes());
    out.extend_from_slice(&INDEX_TAB_MAGIC);
    Ok(out)
}

/// The file-backed [`TableBackend`]: immutable sorted base + in-memory
/// overlay + the previous base run, all over [`Medium`] so the oracle
/// tests can run it on in-memory media.
pub struct FileTable {
    overlay: Mutex<Overlay>,
    base: Mutex<BaseState>,
    /// The previous run. A damaged one reads as absent: it then licenses
    /// no journal truncation, which is the safe side.
    prev: Mutex<BaseState>,
}

impl FileTable {
    /// Opens a table over explicit media (base run, previous run). Reads
    /// only the base trailer + top fences: open cost is bounded by the
    /// fence array, not the table. The overlay starts empty.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure; [`StoreError::Corrupt`] if
    /// the base file fails its framing or CRCs.
    pub fn from_media(base: Box<dyn Medium>, prev: Box<dyn Medium>) -> Result<Self, StoreError> {
        let mut prev = BaseState::unloaded(prev);
        let _ = prev.reload();
        Ok(FileTable {
            overlay: Mutex::new(Overlay::new()),
            base: Mutex::new(BaseState::open(base)?),
            prev: Mutex::new(prev),
        })
    }

    /// Opens (creating as needed) `index.tab` + `index.prev` in `dir`.
    ///
    /// # Errors
    ///
    /// As [`FileTable::from_media`], plus directory creation failures.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(StoreError::from)?;
        let [base, prev] = Self::files(dir).map(FileMedium::open);
        Self::from_media(Box::new(base?), Box::new(prev?))
    }

    /// The base run and previous run of the index in `dir`.
    pub fn files(dir: &Path) -> [std::path::PathBuf; 2] {
        ["index.tab", "index.prev"].map(|f| dir.join(f))
    }

    /// Makes the previous base run of the index in `dir` current again
    /// by copying it over the base. A wallet booted over the result
    /// catches up from the journal above the run's watermark. The
    /// previous run is read in full first, so a damaged one is an error
    /// and nothing changes; so is a missing one, reported as `Ok(false)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on file failure, [`StoreError::Corrupt`] when
    /// the previous run fails its framing or CRCs.
    pub fn restore_previous(dir: impl AsRef<Path>) -> Result<bool, StoreError> {
        let Some((bytes, _)) = Self::checked_previous(dir.as_ref())? else {
            return Ok(false);
        };
        let [base, _] = Self::files(dir.as_ref());
        FileMedium::open(base)?.replace(&bytes)?;
        Ok(true)
    }

    /// The previous base run of the index in `dir` as a read-only table
    /// in memory, every block CRC-checked first; `Ok(None)` when there
    /// is none. Unlike the run a table opens beside its base, a damaged
    /// one is an error here, not absent.
    ///
    /// # Errors
    ///
    /// As [`FileTable::restore_previous`].
    pub fn read_previous(dir: impl AsRef<Path>) -> Result<Option<FileTable>, StoreError> {
        Ok(Self::checked_previous(dir.as_ref())?.map(|(_, table)| table))
    }

    /// The bytes of the previous run in `dir` and a table over them,
    /// once every block has been read.
    fn checked_previous(dir: &Path) -> Result<Option<(Vec<u8>, FileTable)>, StoreError> {
        let [_, prev] = Self::files(dir);
        let bytes = if prev.exists() {
            std::fs::read(&prev)?
        } else {
            Vec::new()
        };
        if bytes.is_empty() {
            return Ok(None);
        }
        let table = FileTable::from_media(
            Box::new(MemMedium::with_contents(bytes.clone())),
            Box::new(MemMedium::new()),
        )?;
        table.entries()?;
        Ok(Some((bytes, table)))
    }

    /// Folds the overlay into a new base run. With `prev`, the run being
    /// replaced is copied there first; its blocks were all CRC-checked
    /// by the merge scan.
    fn compact_locked(
        overlay: &mut Overlay,
        base: &mut BaseState,
        prev: Option<&mut BaseState>,
    ) -> Result<(), StoreError> {
        let mut merged = Vec::new();
        merged_scan(base, overlay, &[], None, &mut |k, v| {
            merged.push((k.to_vec(), v.to_vec()));
            true
        })?;
        let image = build_base(&mut merged.into_iter())?;
        if let Some(prev) = prev {
            prev.medium.replace(&base.medium.read_all()?)?;
            let _ = prev.reload();
        }
        base.medium.replace(&image)?;
        base.reload()?;
        overlay.clear();
        drbac_obs::static_counter!("drbac.index.compact.count").inc();
        Ok(())
    }
}

/// Merges the base stream with the overlay for `start <= key < end`.
/// The overlay wins on key collisions; tombstones suppress base entries.
fn merged_scan(
    base: &mut BaseState,
    overlay: &Overlay,
    start: &[u8],
    end: Option<&[u8]>,
    f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
) -> Result<(), StoreError> {
    let upper = end.map_or(Bound::Unbounded, |e| Bound::Excluded(e.to_vec()));
    let overlay: Vec<(&Vec<u8>, &Option<Vec<u8>>)> = overlay
        .range((Bound::Included(start.to_vec()), upper))
        .collect();
    let mut oi = 0usize;
    let mut stopped = false;
    base.scan(start, end, &mut |k, v| {
        // Emit overlay puts strictly before this base key.
        while oi < overlay.len() && overlay[oi].0.as_slice() < k {
            if let Some(val) = overlay[oi].1 {
                if !f(overlay[oi].0, val) {
                    stopped = true;
                    oi += 1;
                    return false;
                }
            }
            oi += 1;
        }
        if oi < overlay.len() && overlay[oi].0.as_slice() == k {
            // Overlay shadows the base entry (put replaces, tombstone
            // suppresses).
            let keep_going = match overlay[oi].1 {
                Some(val) => f(k, val),
                None => true,
            };
            oi += 1;
            if !keep_going {
                stopped = true;
            }
            return keep_going;
        }
        if !f(k, v) {
            stopped = true;
            return false;
        }
        true
    })?;
    if stopped {
        return Ok(());
    }
    while oi < overlay.len() {
        if let Some(val) = overlay[oi].1 {
            if !f(overlay[oi].0, val) {
                break;
            }
        }
        oi += 1;
    }
    Ok(())
}

impl TableBackend for FileTable {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        if let Some(pending) = self.overlay.lock().get(key) {
            return Ok(pending.clone());
        }
        self.base.lock().get(key)
    }

    fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError> {
        let mut overlay = self.overlay.lock();
        for op in batch {
            match op {
                TableOp::Put { key, value } => {
                    overlay.insert(key.clone(), Some(value.clone()));
                }
                TableOp::Delete { key } => {
                    overlay.insert(key.clone(), None);
                }
            }
        }
        if overlay.len() >= DELTA_MAX_OPS {
            let mut base = self.base.lock();
            Self::compact_locked(&mut overlay, &mut base, None)?;
        }
        Ok(())
    }

    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        // Clone the in-range overlay so its lock is not held across
        // block reads; post-compaction overlays are small.
        let overlay: Overlay = {
            let overlay = self.overlay.lock();
            let upper = end.map_or(Bound::Unbounded, |e| Bound::Excluded(e.to_vec()));
            overlay
                .range((Bound::Included(start.to_vec()), upper))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let mut base = self.base.lock();
        merged_scan(&mut base, &overlay, start, end, f)
    }

    fn stats(&self) -> TableStats {
        let overlay = self.overlay.lock();
        let base = self.base.lock();
        TableStats {
            base_entries: base.meta.as_ref().map_or(0, |m| m.entries),
            base_bytes: base.meta.as_ref().map_or(0, |m| m.bytes),
            delta_ops: overlay.len() as u64,
        }
    }

    fn compact(&self) -> Result<(), StoreError> {
        let mut overlay = self.overlay.lock();
        let mut base = self.base.lock();
        let mut prev = self.prev.lock();
        Self::compact_locked(&mut overlay, &mut base, Some(&mut prev))
    }

    fn previous_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.prev.lock().get(key)
    }

    fn reset_with(
        &self,
        entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        let mut overlay = self.overlay.lock();
        let mut base = self.base.lock();
        let image = build_base(entries)?;
        base.medium.replace(&image)?;
        base.reload()?;
        overlay.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_store::MemMedium;

    fn put(key: &[u8], value: &[u8]) -> TableOp {
        TableOp::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    fn mem_table() -> (FileTable, MemMedium) {
        let base = MemMedium::new();
        let t = reopen(&base, &MemMedium::new()).unwrap();
        (t, base)
    }

    fn reopen(base: &MemMedium, prev: &MemMedium) -> Result<FileTable, StoreError> {
        FileTable::from_media(Box::new(base.clone()), Box::new(prev.clone()))
    }

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:06}").into_bytes()
    }

    #[test]
    fn round_trips_through_compaction_and_reopen() {
        let (t, base) = mem_table();
        for i in 0..500u32 {
            t.apply(&[put(&key(i), &i.to_be_bytes())]).unwrap();
        }
        t.compact().unwrap();
        // Post-compaction mutations live in the overlay only.
        t.apply(&[put(&key(42), b"fresh"), TableOp::Delete { key: key(43) }])
            .unwrap();
        assert_eq!(t.get(&key(42)).unwrap(), Some(b"fresh".to_vec()));
        assert_eq!(t.get(&key(43)).unwrap(), None);
        assert_eq!(t.entries().unwrap(), 499);

        // A reopen sees the base run: the overlay is rebuilt by whoever
        // applied it (the wallet, from its journal).
        let reopened = reopen(&base, &MemMedium::new()).unwrap();
        assert_eq!(
            reopened.get(&key(42)).unwrap(),
            Some(42u32.to_be_bytes().to_vec())
        );
        assert!(reopened.get(&key(43)).unwrap().is_some());
        assert_eq!(reopened.entries().unwrap(), 500);
        assert_eq!(reopened.stats().delta_ops, 0);

        // Ordered scans cross block boundaries and respect bounds.
        let mut seen = Vec::new();
        reopened
            .scan(&key(100), Some(&key(105)), &mut |k, _| {
                seen.push(k.to_vec());
                true
            })
            .unwrap();
        assert_eq!(seen, (100..105).map(key).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_base_is_an_error_not_a_panic() {
        let (t, base) = mem_table();
        for i in 0..200u32 {
            t.apply(&[put(&key(i), b"v")]).unwrap();
        }
        t.compact().unwrap();
        let mut bytes = base.read_all().unwrap();
        bytes[40] ^= 0x01; // damage a data block
        base.replace(&bytes).unwrap();
        let reopened = reopen(&base, &MemMedium::new()).unwrap();
        // Open succeeds (trailer + L2 intact); the damaged block is
        // caught by its fence CRC on first touch.
        let err = reopened.get(&key(0)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn bulk_load_builds_a_scannable_base() {
        let (t, _base) = mem_table();
        let mut input = (0..10_000u32).map(|i| (key(i), i.to_be_bytes().to_vec()));
        t.reset_with(&mut input).unwrap();
        assert_eq!(t.entries().unwrap(), 10_000);
        assert_eq!(
            t.get(&key(9_999)).unwrap(),
            Some(9_999u32.to_be_bytes().to_vec())
        );
        let stats = t.stats();
        assert!(stats.base_entries == 10_000 && stats.delta_ops == 0);
        let mut n = 0u64;
        t.scan_prefix(b"k", &mut |_, _| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 10_000);
    }

    #[test]
    fn overlay_shadows_base_in_scans() {
        let (t, _base) = mem_table();
        let mut input = (0..100u32).map(|i| (key(i), b"base".to_vec()));
        t.reset_with(&mut input).unwrap();
        t.apply(&[
            put(&key(10), b"new"),
            TableOp::Delete { key: key(11) },
            put(b"zzz", b"tail"),
        ])
        .unwrap();
        let mut seen = Vec::new();
        t.scan(&key(9), None, &mut |k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            true
        })
        .unwrap();
        let keys: Vec<Vec<u8>> = seen.iter().map(|(k, _)| k.clone()).collect();
        assert!(!keys.contains(&key(11)), "tombstone suppressed");
        assert!(keys.contains(&b"zzz".to_vec()), "overlay tail emitted");
        let v10 = seen.iter().find(|(k, _)| *k == key(10)).unwrap();
        assert_eq!(v10.1, b"new");
    }

    #[test]
    fn explicit_compaction_keeps_the_run_it_replaces() {
        let (base, prev) = (MemMedium::new(), MemMedium::new());
        let t = reopen(&base, &prev).unwrap();
        t.apply(&[put(b"w", b"1")]).unwrap();
        t.compact().unwrap();
        assert_eq!(
            t.previous_get(b"w").unwrap(),
            None,
            "the first run replaced an empty one"
        );
        t.apply(&[put(b"w", b"2")]).unwrap();
        t.compact().unwrap();
        assert_eq!(t.get(b"w").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.previous_get(b"w").unwrap(), Some(b"1".to_vec()));
        // A damaged previous run reads as absent, never as an error at open.
        prev.replace(b"junk").unwrap();
        let reopened = reopen(&base, &prev).unwrap();
        assert_eq!(reopened.previous_get(b"w").unwrap(), None);
    }

    #[test]
    fn restore_previous_swaps_the_run_back_and_refuses_a_damaged_one() {
        let dir = std::env::temp_dir().join(format!(
            "drbac-index-restore-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            !FileTable::restore_previous(&dir).unwrap(),
            "no previous run yet"
        );
        {
            let t = FileTable::open_dir(&dir).unwrap();
            t.apply(&[put(b"w", b"1")]).unwrap();
            t.compact().unwrap();
            t.apply(&[put(b"w", b"2")]).unwrap();
            t.compact().unwrap();
            t.apply(&[put(b"w", b"3")]).unwrap();
        }
        let [tab, prev] = FileTable::files(&dir);
        std::fs::write(&tab, b"damaged").unwrap();
        assert!(FileTable::open_dir(&dir).is_err());
        assert!(FileTable::restore_previous(&dir).unwrap());
        let t = FileTable::open_dir(&dir).unwrap();
        assert_eq!(
            t.get(b"w").unwrap(),
            Some(b"1".to_vec()),
            "the previous run is current again"
        );

        let mut bytes = std::fs::read(&prev).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&prev, &bytes).unwrap();
        std::fs::write(&tab, b"damaged").unwrap();
        assert!(FileTable::restore_previous(&dir).is_err());
        assert_eq!(std::fs::read(&tab).unwrap(), b"damaged", "nothing changed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
