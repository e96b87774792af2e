//! The file-backed ordered table: an immutable three-level sorted run
//! plus a CRC-framed delta log, both over the store's [`Medium`] seam.
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
//! ## Delta log (`index.log`)
//!
//! Mutations land in an in-memory overlay and are journaled as one
//! CRC-framed record per [`TableBackend::apply`] batch — torn tails
//! lose whole batches, never half of one:
//!
//! ```text
//! log     := magic:8 ("drbacIL1") | record…
//! record  := len:u32be | crc:u32be | ops       (crc = crc32(ops))
//! ops     := (op:u8 | klen:u32be | key [| vlen:u32be | value])…
//! ```
//!
//! [`TableBackend::compact`] merges the overlay into a fresh base
//! (atomic [`Medium::replace`]) and resets the log, keeping reopen
//! replay bounded.
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

/// Decoded `(key, value)` entries of one base-file block.
type Entries = Vec<(Vec<u8>, Vec<u8>)>;
/// Decoded delta-log ops: `(key, Some(value))` puts, `(key, None)` deletes.
type DeltaOps = Vec<(Vec<u8>, Option<Vec<u8>>)>;

/// Leading magic of the delta log.
pub const INDEX_LOG_MAGIC: [u8; 8] = *b"drbacIL1";

/// Trailing magic of the base file.
pub const INDEX_TAB_MAGIC: [u8; 8] = *b"drbacIT1";

const TRAILER: usize = 8 + 8 + 8 + 4 + 4 + 8;
const FRAME_HEADER: usize = 8;
/// Entries are packed into blocks of roughly this many bytes.
const TARGET_BLOCK_BYTES: usize = 4096;
/// L1 fences are grouped this many blocks per L2 entry.
const GROUP_BLOCKS: usize = 64;
/// A single record/block length above this is corruption, not an
/// allocation request.
const MAX_REGION: usize = 1 << 26;
/// Auto-compaction thresholds: merge the overlay into the base once it
/// holds this many ops or its log grows past this many bytes.
const DELTA_MAX_OPS: usize = 1 << 16;
const DELTA_MAX_BYTES: u64 = 32 << 20;
/// Decoded blocks kept hot (FIFO eviction); at the default block size
/// this bounds the cache near 4 MiB plus key overhead.
const BLOCK_CACHE: usize = 1024;

const OP_PUT: u8 = 1;
const OP_DEL: u8 = 2;

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

fn parse_block(bytes: &[u8]) -> Result<Entries, StoreError> {
    let mut entries = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < 8 {
            return Err(corrupt("torn block entry header"));
        }
        let klen = be32(&bytes[at..at + 4]) as usize;
        let vlen = be32(&bytes[at + 4..at + 8]) as usize;
        at += 8;
        if klen > MAX_REGION || vlen > MAX_REGION || bytes.len() - at < klen + vlen {
            return Err(corrupt("torn block entry"));
        }
        let key = bytes[at..at + klen].to_vec();
        let value = bytes[at + klen..at + klen + vlen].to_vec();
        at += klen + vlen;
        entries.push((key, value));
    }
    Ok(entries)
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
    /// Decoded blocks by file offset, FIFO-evicted.
    block_cache: HashMap<u64, Arc<Entries>>,
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

    fn block(&mut self, fence: &Fence) -> Result<Arc<Entries>, StoreError> {
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
        let block = Arc::new(parse_block(&bytes)?);
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
        Ok(block
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|i| block[i].1.clone()))
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
                let from = block.partition_point(|(k, _)| k.as_slice() < start);
                for (k, v) in &block[from..] {
                    if end.is_some_and(|e| k.as_slice() >= e) {
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

struct DeltaState {
    log: Box<dyn Medium>,
    /// The overlay: `Some` = pending put, `None` = pending delete.
    map: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Length of the log's longest valid prefix.
    valid_len: u64,
    /// Bytes beyond `valid_len` exist on the medium (torn tail found at
    /// open; truncated lazily by the next append).
    dirty_tail: bool,
    unsynced: bool,
}

impl DeltaState {
    fn open(log: Box<dyn Medium>) -> Result<Self, StoreError> {
        let bytes = log.read_all()?;
        let mut map = BTreeMap::new();
        let mut valid_len = 0u64;
        if !bytes.is_empty()
            && bytes.len() >= INDEX_LOG_MAGIC.len()
            && bytes[..8] == INDEX_LOG_MAGIC
        {
            valid_len = INDEX_LOG_MAGIC.len() as u64;
            let mut at = INDEX_LOG_MAGIC.len();
            while bytes.len() - at >= FRAME_HEADER {
                let len = be32(&bytes[at..at + 4]) as usize;
                let crc = be32(&bytes[at + 4..at + 8]);
                if len > MAX_REGION || bytes.len() - at - FRAME_HEADER < len {
                    break;
                }
                let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len];
                if crc32(payload) != crc {
                    break;
                }
                let Ok(ops) = Self::decode_ops(payload) else {
                    break;
                };
                for (key, value) in ops {
                    map.insert(key, value);
                }
                at += FRAME_HEADER + len;
                valid_len = at as u64;
            }
        }
        let dirty_tail = valid_len < bytes.len() as u64;
        Ok(DeltaState {
            log,
            map,
            valid_len,
            dirty_tail,
            unsynced: false,
        })
    }

    fn decode_ops(payload: &[u8]) -> Result<DeltaOps, StoreError> {
        let mut ops = Vec::new();
        let mut at = 0usize;
        while at < payload.len() {
            if payload.len() - at < 5 {
                return Err(corrupt("torn delta op"));
            }
            let op = payload[at];
            let klen = be32(&payload[at + 1..at + 5]) as usize;
            at += 5;
            if klen > MAX_REGION || payload.len() - at < klen {
                return Err(corrupt("torn delta key"));
            }
            let key = payload[at..at + klen].to_vec();
            at += klen;
            match op {
                OP_PUT => {
                    if payload.len() - at < 4 {
                        return Err(corrupt("torn delta value header"));
                    }
                    let vlen = be32(&payload[at..at + 4]) as usize;
                    at += 4;
                    if vlen > MAX_REGION || payload.len() - at < vlen {
                        return Err(corrupt("torn delta value"));
                    }
                    let value = payload[at..at + vlen].to_vec();
                    at += vlen;
                    ops.push((key, Some(value)));
                }
                OP_DEL => ops.push((key, None)),
                _ => return Err(corrupt(format!("unknown delta op {op}"))),
            }
        }
        Ok(ops)
    }

    fn encode_frame(batch: &[TableOp]) -> Vec<u8> {
        let mut payload = Vec::new();
        for op in batch {
            match op {
                TableOp::Put { key, value } => {
                    payload.push(OP_PUT);
                    payload.extend_from_slice(&(key.len() as u32).to_be_bytes());
                    payload.extend_from_slice(key);
                    payload.extend_from_slice(&(value.len() as u32).to_be_bytes());
                    payload.extend_from_slice(value);
                }
                TableOp::Delete { key } => {
                    payload.push(OP_DEL);
                    payload.extend_from_slice(&(key.len() as u32).to_be_bytes());
                    payload.extend_from_slice(key);
                }
            }
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Makes the log appendable: writes the magic on first use,
    /// truncates a torn tail.
    fn prepare_tail(&mut self) -> Result<(), StoreError> {
        if self.valid_len < INDEX_LOG_MAGIC.len() as u64 {
            self.log.replace(&INDEX_LOG_MAGIC)?;
            self.valid_len = INDEX_LOG_MAGIC.len() as u64;
            self.dirty_tail = false;
        } else if self.dirty_tail {
            self.log.truncate(self.valid_len)?;
            self.log.sync()?;
            self.dirty_tail = false;
        }
        Ok(())
    }
}

/// The file-backed [`TableBackend`]: immutable sorted base + delta
/// overlay + the previous base run, all over [`Medium`] so the oracle
/// tests can run it on in-memory media with power-loss simulation.
pub struct FileTable {
    delta: Mutex<DeltaState>,
    base: Mutex<BaseState>,
    /// The previous run. A damaged one reads as absent: it then licenses
    /// no journal truncation, which is the safe side.
    prev: Mutex<BaseState>,
}

impl FileTable {
    /// Opens a table over explicit media (base run, delta log, previous
    /// run). Reads only the base trailer + top fences and replays the
    /// delta log — open cost is bounded by the delta, not the table.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure; [`StoreError::Corrupt`] if
    /// the base file fails its framing or CRCs (a torn delta *tail* is
    /// not an error — the longest valid prefix is used).
    pub fn from_media(
        base: Box<dyn Medium>,
        log: Box<dyn Medium>,
        prev: Box<dyn Medium>,
    ) -> Result<Self, StoreError> {
        let mut prev = BaseState::unloaded(prev);
        let _ = prev.reload();
        Ok(FileTable {
            delta: Mutex::new(DeltaState::open(log)?),
            base: Mutex::new(BaseState::open(base)?),
            prev: Mutex::new(prev),
        })
    }

    /// Opens (creating as needed) `index.tab` + `index.log` +
    /// `index.prev` in `dir`.
    ///
    /// # Errors
    ///
    /// As [`FileTable::from_media`], plus directory creation failures.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(StoreError::from)?;
        let [base, log, prev] = Self::files(dir).map(FileMedium::open);
        Self::from_media(Box::new(base?), Box::new(log?), Box::new(prev?))
    }

    /// The base run, delta log and previous run of the index in `dir`.
    pub fn files(dir: &Path) -> [std::path::PathBuf; 3] {
        ["index.tab", "index.log", "index.prev"].map(|f| dir.join(f))
    }

    /// Makes the previous base run of the index in `dir` current again:
    /// empties the delta log (its batches belong to the run being
    /// replaced), then copies the previous run over the base. A wallet
    /// booted over the result catches up from the journal above the
    /// run's watermark. The previous run is read in full first, so a
    /// damaged one is an error and nothing changes; so is a missing one,
    /// reported as `Ok(false)`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on file failure, [`StoreError::Corrupt`] when
    /// the previous run fails its framing or CRCs.
    pub fn restore_previous(dir: impl AsRef<Path>) -> Result<bool, StoreError> {
        let Some((bytes, _)) = Self::checked_previous(dir.as_ref())? else {
            return Ok(false);
        };
        let [base, log, _] = Self::files(dir.as_ref());
        FileMedium::open(log)?.replace(&INDEX_LOG_MAGIC)?;
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
        let [_, _, prev] = Self::files(dir);
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
            Box::new(MemMedium::new()),
        )?;
        table.entries()?;
        Ok(Some((bytes, table)))
    }

    /// Power-loss simulation passthrough (meaningful on [`MemMedium`]
    /// media): drops unsynced delta-log bytes, then reloads the overlay
    /// from what survived.
    ///
    /// [`MemMedium`]: drbac_store::MemMedium
    pub fn lose_unsynced(&self) -> Result<(), StoreError> {
        let mut delta = self.delta.lock();
        delta.log.lose_unsynced();
        let log = std::mem::replace(&mut delta.log, Box::new(drbac_store::MemMedium::new()));
        *delta = DeltaState::open(log)?;
        Ok(())
    }

    /// Folds the overlay into a new base run. With `prev`, the run being
    /// replaced is copied there first; its blocks were all CRC-checked
    /// by the merge scan.
    fn compact_locked(
        delta: &mut DeltaState,
        base: &mut BaseState,
        prev: Option<&mut BaseState>,
    ) -> Result<(), StoreError> {
        let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        merged_scan(base, &delta.map, &[], None, &mut |k, v| {
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
        delta.map.clear();
        delta.log.replace(&INDEX_LOG_MAGIC)?;
        delta.valid_len = INDEX_LOG_MAGIC.len() as u64;
        delta.dirty_tail = false;
        delta.unsynced = false;
        drbac_obs::static_counter!("drbac.index.compact.count").inc();
        Ok(())
    }
}

/// Merges the base stream with the delta overlay for `start <= key <
/// end`. The overlay wins on key collisions; tombstones suppress base
/// entries.
fn merged_scan(
    base: &mut BaseState,
    delta: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    start: &[u8],
    end: Option<&[u8]>,
    f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
) -> Result<(), StoreError> {
    let upper = end.map_or(Bound::Unbounded, |e| Bound::Excluded(e.to_vec()));
    let overlay: Vec<(&Vec<u8>, &Option<Vec<u8>>)> = delta
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
        if let Some(pending) = self.delta.lock().map.get(key) {
            return Ok(pending.clone());
        }
        self.base.lock().get(key)
    }

    fn apply(&self, batch: &[TableOp]) -> Result<(), StoreError> {
        let mut delta = self.delta.lock();
        delta.prepare_tail()?;
        let frame = DeltaState::encode_frame(batch);
        delta.log.append(&frame)?;
        delta.valid_len += frame.len() as u64;
        delta.unsynced = true;
        for op in batch {
            match op {
                TableOp::Put { key, value } => {
                    delta.map.insert(key.clone(), Some(value.clone()));
                }
                TableOp::Delete { key } => {
                    delta.map.insert(key.clone(), None);
                }
            }
        }
        if delta.map.len() >= DELTA_MAX_OPS || delta.valid_len >= DELTA_MAX_BYTES {
            let mut base = self.base.lock();
            Self::compact_locked(&mut delta, &mut base, None)?;
        }
        Ok(())
    }

    fn scan(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> Result<(), StoreError> {
        // Clone the in-range overlay so the delta lock is not held
        // across block reads; post-compaction overlays are small.
        let overlay: BTreeMap<Vec<u8>, Option<Vec<u8>>> = {
            let delta = self.delta.lock();
            let upper = end.map_or(Bound::Unbounded, |e| Bound::Excluded(e.to_vec()));
            delta
                .map
                .range((Bound::Included(start.to_vec()), upper))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let mut base = self.base.lock();
        merged_scan(&mut base, &overlay, start, end, f)
    }

    fn stats(&self) -> TableStats {
        let delta = self.delta.lock();
        let base = self.base.lock();
        TableStats {
            base_entries: base.meta.as_ref().map_or(0, |m| m.entries),
            base_bytes: base.meta.as_ref().map_or(0, |m| m.bytes),
            delta_ops: delta.map.len() as u64,
            delta_bytes: delta.valid_len,
        }
    }

    fn flush(&self) -> Result<(), StoreError> {
        let mut delta = self.delta.lock();
        if delta.unsynced {
            delta.log.sync()?;
            delta.unsynced = false;
        }
        Ok(())
    }

    fn compact(&self) -> Result<(), StoreError> {
        let mut delta = self.delta.lock();
        let mut base = self.base.lock();
        let mut prev = self.prev.lock();
        Self::compact_locked(&mut delta, &mut base, Some(&mut prev))
    }

    fn previous_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.prev.lock().get(key)
    }

    fn reset_with(
        &self,
        entries: &mut dyn Iterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<(), StoreError> {
        let mut delta = self.delta.lock();
        let mut base = self.base.lock();
        let image = build_base(entries)?;
        base.medium.replace(&image)?;
        base.reload()?;
        delta.map.clear();
        delta.log.replace(&INDEX_LOG_MAGIC)?;
        delta.valid_len = INDEX_LOG_MAGIC.len() as u64;
        delta.dirty_tail = false;
        delta.unsynced = false;
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

    fn mem_table() -> (FileTable, MemMedium, MemMedium) {
        let base = MemMedium::new();
        let log = MemMedium::new();
        let t = reopen(&base, &log, &MemMedium::new()).unwrap();
        (t, base, log)
    }

    fn reopen(
        base: &MemMedium,
        log: &MemMedium,
        prev: &MemMedium,
    ) -> Result<FileTable, StoreError> {
        FileTable::from_media(
            Box::new(base.clone()),
            Box::new(log.clone()),
            Box::new(prev.clone()),
        )
    }

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:06}").into_bytes()
    }

    #[test]
    fn round_trips_through_compaction_and_reopen() {
        let (t, base, log) = mem_table();
        for i in 0..500u32 {
            t.apply(&[put(&key(i), &i.to_be_bytes())]).unwrap();
        }
        t.compact().unwrap();
        // Post-compaction mutations live in the overlay.
        t.apply(&[put(&key(42), b"fresh"), TableOp::Delete { key: key(43) }])
            .unwrap();
        t.flush().unwrap();

        let reopened = reopen(&base, &log, &MemMedium::new()).unwrap();
        assert_eq!(reopened.get(&key(42)).unwrap(), Some(b"fresh".to_vec()));
        assert_eq!(reopened.get(&key(43)).unwrap(), None);
        assert_eq!(
            reopened.get(&key(7)).unwrap(),
            Some(7u32.to_be_bytes().to_vec())
        );
        assert_eq!(reopened.entries().unwrap(), 499);

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
    fn torn_delta_tail_loses_whole_batches_only() {
        let (t, base, log) = mem_table();
        t.apply(&[put(b"a", b"1")]).unwrap();
        t.flush().unwrap();
        t.apply(&[put(b"b", b"2"), put(b"c", b"3")]).unwrap(); // never flushed
        t.lose_unsynced().unwrap();
        assert_eq!(t.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), None, "unsynced batch fully gone");
        assert_eq!(t.get(b"c").unwrap(), None);

        // A bit-flipped tail is also dropped at the frame boundary.
        t.apply(&[put(b"d", b"4")]).unwrap();
        t.flush().unwrap();
        let mut bytes = log.read_all().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        log.replace(&bytes).unwrap();
        let reopened = reopen(&base, &log, &MemMedium::new()).unwrap();
        assert_eq!(reopened.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(reopened.get(b"d").unwrap(), None);
    }

    #[test]
    fn corrupt_base_is_an_error_not_a_panic() {
        let (t, base, log) = mem_table();
        for i in 0..200u32 {
            t.apply(&[put(&key(i), b"v")]).unwrap();
        }
        t.compact().unwrap();
        let mut bytes = base.read_all().unwrap();
        bytes[40] ^= 0x01; // damage a data block
        base.replace(&bytes).unwrap();
        let reopened = reopen(&base, &log, &MemMedium::new()).unwrap();
        // Open succeeds (trailer + L2 intact); the damaged block is
        // caught by its fence CRC on first touch.
        let err = reopened.get(&key(0)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn bulk_load_builds_a_scannable_base() {
        let (t, _base, _log) = mem_table();
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
        let (t, _base, _log) = mem_table();
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
        let (base, log, prev) = (MemMedium::new(), MemMedium::new(), MemMedium::new());
        let t = reopen(&base, &log, &prev).unwrap();
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
        let reopened = reopen(&base, &log, &prev).unwrap();
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
            t.flush().unwrap();
        }
        let [tab, _, prev] = FileTable::files(&dir);
        std::fs::write(&tab, b"damaged").unwrap();
        assert!(FileTable::open_dir(&dir).is_err());
        assert!(FileTable::restore_previous(&dir).unwrap());
        let t = FileTable::open_dir(&dir).unwrap();
        assert_eq!(
            t.get(b"w").unwrap(),
            Some(b"1".to_vec()),
            "delta log dropped with the run"
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
