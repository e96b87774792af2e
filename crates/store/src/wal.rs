//! The write-ahead log proper: record framing, log scanning with a
//! corruption taxonomy, and the [`WalletStore`] handle providing
//! group-committed appends, checkpoint truncation, and crash recovery.
//!
//! ## Frame format
//!
//! A log is the 8-byte [`LOG_MAGIC`] followed by records:
//!
//! ```text
//! record   := len:u32be | crc:u32be | payload        (len = |payload|)
//! payload  := seq:u64be | kind:u8 | body             (crc = crc32(payload))
//! ```
//!
//! Sequence numbers start at 1 and are strictly increasing; the CRC and
//! the length prefix together detect torn and bit-flipped tails. A
//! checkpoint drops a prefix of records ([`WalletStore::truncate_through`])
//! but always keeps the last record it covers, so the log never empties
//! and numbering never restarts: a log whose first record is seq 1 still
//! holds the whole history, and one that starts later holds the tail
//! above a checkpoint kept elsewhere (the delegation index's base runs).

use std::fmt;
use std::io;
use std::path::Path;

use parking_lot::Mutex;

use drbac_core::{Reader, Writer};

use crate::crc::crc32;
use crate::event::StoreEvent;
use crate::medium::{FileMedium, Medium, MemMedium};

/// Leading magic of a write-ahead log.
pub const LOG_MAGIC: [u8; 8] = *b"drbacWL1";

/// Upper bound on a single record payload (64 MiB). A length prefix
/// above this is treated as corruption rather than an allocation request.
const MAX_RECORD: usize = 1 << 26;

const FRAME_HEADER: usize = 8; // len:u32 + crc:u32

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The backing medium failed.
    Io(String),
    /// The data violates the store's framing invariants in a way that
    /// cannot be repaired by tail truncation (e.g. an oversize record
    /// on the write path).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(e) => write!(f, "store corruption: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Tuning knobs for a [`WalletStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Fsync after every `group_commit` appended records (1 = sync every
    /// append). Higher values batch fsyncs at the cost of losing up to
    /// `group_commit - 1` records on power loss; the log remains
    /// well-formed either way because appends are ordered.
    pub group_commit: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { group_commit: 1 }
    }
}

/// Why a log scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// The file does not begin with [`LOG_MAGIC`].
    BadMagic,
    /// The file ends inside a record header (torn write).
    TornHeader {
        /// Byte offset of the incomplete header.
        offset: usize,
    },
    /// The file ends inside a record payload (torn write).
    TornRecord {
        /// Byte offset of the record's header.
        offset: usize,
        /// Payload bytes the header promised.
        need: usize,
        /// Payload bytes actually present.
        have: usize,
    },
    /// A length prefix exceeded the record size cap.
    OversizeRecord {
        /// Byte offset of the record's header.
        offset: usize,
        /// The implausible length.
        len: usize,
    },
    /// A payload failed its CRC (bit rot or a torn-then-overwritten tail).
    BadCrc {
        /// Byte offset of the record's header.
        offset: usize,
    },
    /// A payload passed its CRC but did not decode as a [`StoreEvent`].
    BadPayload {
        /// Byte offset of the record's header.
        offset: usize,
        /// The decode failure.
        error: String,
    },
    /// A record's sequence number did not increase.
    NonMonotonicSeq {
        /// Byte offset of the record's header.
        offset: usize,
        /// The previous record's sequence number.
        prev: u64,
        /// The offending sequence number.
        found: u64,
    },
}

impl Corruption {
    /// Whether this is an ordinary torn tail (an interrupted final
    /// write) rather than mid-log damage.
    pub fn is_torn(&self) -> bool {
        matches!(
            self,
            Corruption::TornHeader { .. } | Corruption::TornRecord { .. }
        )
    }
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Corruption::BadMagic => f.write_str("missing or damaged log magic"),
            Corruption::TornHeader { offset } => {
                write!(f, "torn record header at byte {offset}")
            }
            Corruption::TornRecord { offset, need, have } => write!(
                f,
                "torn record at byte {offset}: {have} of {need} payload bytes"
            ),
            Corruption::OversizeRecord { offset, len } => {
                write!(f, "implausible record length {len} at byte {offset}")
            }
            Corruption::BadCrc { offset } => write!(f, "crc mismatch at byte {offset}"),
            Corruption::BadPayload { offset, error } => {
                write!(f, "undecodable payload at byte {offset}: {error}")
            }
            Corruption::NonMonotonicSeq {
                offset,
                prev,
                found,
            } => write!(
                f,
                "sequence went backwards at byte {offset}: {prev} then {found}"
            ),
        }
    }
}

/// One record recovered by [`scan_log`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedRecord {
    /// The record's sequence number.
    pub seq: u64,
    /// The decoded event.
    pub event: StoreEvent,
    /// Byte offset one past the record's frame (i.e. the log is valid
    /// up to at least `end`).
    pub end: usize,
}

/// The result of scanning a log image.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Every record of the longest valid prefix, in log order.
    pub records: Vec<ScannedRecord>,
    /// Length in bytes of the longest valid prefix (magic included).
    /// Truncating the log to this length yields a clean log.
    pub valid_len: usize,
    /// Why the scan stopped early, if it did.
    pub corruption: Option<Corruption>,
}

/// Scans a log image and returns the longest valid prefix of records.
///
/// This never panics on arbitrary input: any framing violation —
/// truncated magic, torn header or payload, CRC mismatch, undecodable
/// payload, regressing sequence numbers, implausible lengths — stops
/// the scan and is reported as [`Corruption`], with `valid_len` marking
/// the boundary of the intact prefix.
pub fn scan_log(bytes: &[u8]) -> ScanOutcome {
    if bytes.is_empty() {
        // A never-written medium: valid, vacuously.
        return ScanOutcome {
            records: Vec::new(),
            valid_len: 0,
            corruption: None,
        };
    }
    if bytes.len() < LOG_MAGIC.len() || bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
        return ScanOutcome {
            records: Vec::new(),
            valid_len: 0,
            corruption: Some(Corruption::BadMagic),
        };
    }

    let mut records = Vec::new();
    let mut offset = LOG_MAGIC.len();
    let mut prev_seq: Option<u64> = None;
    let mut corruption = None;

    while offset < bytes.len() {
        if bytes.len() - offset < FRAME_HEADER {
            corruption = Some(Corruption::TornHeader { offset });
            break;
        }
        let len =
            u32::from_be_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            corruption = Some(Corruption::OversizeRecord { offset, len });
            break;
        }
        let have = bytes.len() - offset - FRAME_HEADER;
        if have < len {
            corruption = Some(Corruption::TornRecord {
                offset,
                need: len,
                have,
            });
            break;
        }
        let payload = &bytes[offset + FRAME_HEADER..offset + FRAME_HEADER + len];
        if crc32(payload) != crc {
            corruption = Some(Corruption::BadCrc { offset });
            break;
        }
        let decoded = (|| {
            let mut r = Reader::new(payload);
            let seq = r.u64()?;
            let kind = r.u8()?;
            let event = StoreEvent::decode_body(kind, &mut r)?;
            r.finish()?;
            Ok::<_, drbac_core::DecodeError>((seq, event))
        })();
        let (seq, event) = match decoded {
            Ok(ok) => ok,
            Err(e) => {
                corruption = Some(Corruption::BadPayload {
                    offset,
                    error: e.to_string(),
                });
                break;
            }
        };
        if let Some(prev) = prev_seq {
            if seq <= prev {
                corruption = Some(Corruption::NonMonotonicSeq {
                    offset,
                    prev,
                    found: seq,
                });
                break;
            }
        }
        prev_seq = Some(seq);
        offset += FRAME_HEADER + len;
        records.push(ScannedRecord {
            seq,
            event,
            end: offset,
        });
    }

    let valid_len = records.last().map_or(LOG_MAGIC.len(), |r| r.end);
    ScanOutcome {
        records,
        valid_len,
        corruption,
    }
}

fn encode_frame(seq: u64, event: &StoreEvent) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(seq);
    w.u8(event.kind());
    event.encode_body(&mut w);
    let payload = w.finish();
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Everything recovery produced: the log's records, after healing.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// Every valid log record, in order. The first is seq 1 unless a
    /// checkpoint truncated the log.
    pub events: Vec<(u64, StoreEvent)>,
    /// Bytes dropped from the log tail because they were torn or
    /// corrupt (already truncated from the medium when this is returned).
    pub truncated_bytes: u64,
    /// Whether the damage was an ordinary torn tail (interrupted final
    /// write) as opposed to mid-log corruption.
    pub torn_tail: bool,
    /// Human-readable description of the damage, if any.
    pub corruption: Option<String>,
}

/// A point-in-time summary of a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStatus {
    /// Valid records currently in the log.
    pub records: u64,
    /// Log size in bytes (magic included).
    pub log_bytes: u64,
    /// The sequence number the next append will use.
    pub next_seq: u64,
    /// The first record's sequence number: 1 while the log holds the
    /// whole history, later once a checkpoint truncated it, `None` for
    /// an empty log.
    pub first_seq: Option<u64>,
}

/// The result of a read-only integrity check (`drbac store verify`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Total log size in bytes as found on the medium.
    pub log_bytes: u64,
    /// Records in the longest valid prefix.
    pub records: u64,
    /// First valid sequence number, if any records exist.
    pub first_seq: Option<u64>,
    /// Last valid sequence number, if any records exist.
    pub last_seq: Option<u64>,
    /// Length of the longest valid prefix.
    pub valid_len: u64,
    /// Bytes beyond the valid prefix (0 for a clean log).
    pub trailing_bytes: u64,
    /// Description of the damage, if any.
    pub corruption: Option<String>,
    /// Whether the damage is an ordinary torn tail.
    pub torn_tail: bool,
    /// Cross-check of the delegation index against the recovered event
    /// stream, when an index sits next to this store. `None` means no
    /// index was checked (absent, or the caller did not ask). The store
    /// itself never fills this in — the index layer computes it and the
    /// CLI attaches it, so the report stays a single source of truth for
    /// `drbac store verify`.
    pub index: Option<IndexCheck>,
}

/// Index/WAL consistency, as attached to a [`VerifyReport`] by the
/// index layer: every indexed id must exist in the recovered event
/// stream and vice versa.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexCheck {
    /// Total entries in the index's tables.
    pub entries: u64,
    /// The last store sequence number the index has applied.
    pub watermark: Option<u64>,
    /// Live delegations in the recovered store that the index is
    /// missing (beyond what log-tail catch-up past the watermark would
    /// repair).
    pub missing: u64,
    /// Ids the index holds that the recovered store does not know.
    pub orphaned: u64,
    /// The index files failed their own framing or CRC.
    pub corruption: Option<String>,
}

impl IndexCheck {
    /// True when the index agrees with the recovered event stream.
    pub fn is_clean(&self) -> bool {
        self.missing == 0 && self.orphaned == 0 && self.corruption.is_none()
    }
}

impl VerifyReport {
    /// True when the log parses end-to-end — including the index
    /// cross-check when one was run.
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none()
            && self.trailing_bytes == 0
            && self.index.as_ref().is_none_or(IndexCheck::is_clean)
    }
}

struct Inner {
    log: Box<dyn Medium>,
    /// Sequence number for the next append.
    next_seq: u64,
    /// Lowest `next_seq` may go (see [`WalletStore::continue_after`]).
    floor: u64,
    /// Valid records currently in the log.
    records: u64,
    /// The first valid record's sequence number.
    first_seq: Option<u64>,
    /// Appends since the last fsync.
    unsynced: u64,
    /// Length of the log's longest valid prefix.
    valid_len: u64,
    /// True when bytes beyond `valid_len` exist on the medium (torn or
    /// corrupt tail found at open). The tail is truncated lazily by the
    /// first append or by [`WalletStore::recover`] — never by the
    /// constructors, so `drbac store verify` stays read-only.
    dirty_tail: bool,
}

impl Inner {
    /// Refreshes bookkeeping from the medium without modifying it.
    fn reload(&mut self) -> Result<ScanOutcome, StoreError> {
        let bytes = self.log.read_all()?;
        let outcome = scan_log(&bytes);
        self.count(&outcome);
        self.valid_len = outcome.valid_len as u64;
        self.dirty_tail = outcome.valid_len < bytes.len();
        Ok(outcome)
    }

    /// Record bookkeeping from a scan of the surviving records.
    fn count(&mut self, outcome: &ScanOutcome) {
        self.records = outcome.records.len() as u64;
        self.first_seq = outcome.records.first().map(|r| r.seq);
        let last_seq = outcome.records.last().map_or(0, |r| r.seq);
        self.next_seq = (last_seq + 1).max(self.floor);
    }

    /// Truncates a torn or corrupt tail found by `outcome` (or writes
    /// the magic into an empty or headless log) and refreshes the
    /// bookkeeping. Returns the bytes dropped.
    fn heal(&mut self, bytes_len: usize, outcome: &ScanOutcome) -> Result<u64, StoreError> {
        let truncated = (bytes_len - outcome.valid_len) as u64;
        if outcome.valid_len < LOG_MAGIC.len() {
            self.log.replace(&LOG_MAGIC)?;
        } else if truncated > 0 {
            self.log.truncate(outcome.valid_len as u64)?;
            self.log.sync()?;
        }
        if truncated > 0 {
            drbac_obs::static_counter!("drbac.store.recover.truncated.bytes.total").add(truncated);
        }
        self.count(outcome);
        self.valid_len = outcome.valid_len.max(LOG_MAGIC.len()) as u64;
        self.dirty_tail = false;
        self.unsynced = 0;
        Ok(truncated)
    }

    /// Makes the log tail appendable: truncates a dirty tail, or writes
    /// the leading magic if the log is empty/headless.
    fn prepare_tail(&mut self) -> Result<(), StoreError> {
        if self.valid_len < LOG_MAGIC.len() as u64 {
            self.log.replace(&LOG_MAGIC)?;
            self.valid_len = LOG_MAGIC.len() as u64;
            self.dirty_tail = false;
        } else if self.dirty_tail {
            self.log.truncate(self.valid_len)?;
            self.log.sync()?;
            self.dirty_tail = false;
        }
        Ok(())
    }
}

/// A durable, append-only journal of [`StoreEvent`]s with checkpoint
/// truncation. Thread-safe; typically shared as an `Arc<WalletStore>`
/// between a wallet (journaling writes) and the host runtime
/// (crash/restart, checkpoints).
pub struct WalletStore {
    config: StoreConfig,
    inner: Mutex<Inner>,
}

impl WalletStore {
    /// A store over an explicit log medium (e.g. a wrapper that counts
    /// its writes). Like [`WalletStore::open_dir`], opening never
    /// modifies the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the medium cannot be read.
    pub fn from_media(log: Box<dyn Medium>, config: StoreConfig) -> Result<Self, StoreError> {
        let mut inner = Inner {
            log,
            next_seq: 1,
            floor: 1,
            records: 0,
            first_seq: None,
            unsynced: 0,
            valid_len: 0,
            dirty_tail: false,
        };
        inner.reload()?;
        Ok(WalletStore {
            config,
            inner: Mutex::new(inner),
        })
    }

    /// An empty in-memory store with the default configuration.
    pub fn in_memory() -> Self {
        Self::in_memory_with(StoreConfig::default())
    }

    /// An empty in-memory store with an explicit configuration.
    pub fn in_memory_with(config: StoreConfig) -> Self {
        Self::from_media(Box::new(MemMedium::new()), config).expect("in-memory media cannot fail")
    }

    /// An in-memory store over an existing (possibly damaged) log
    /// image. The constructor never modifies the image; damage is
    /// handled lazily by append/recover.
    pub fn from_log_bytes(bytes: Vec<u8>) -> Self {
        Self::from_media(
            Box::new(MemMedium::with_contents(bytes)),
            StoreConfig::default(),
        )
        .expect("in-memory media cannot fail")
    }

    /// Opens (creating as needed) a file-backed store in directory
    /// `dir`, using `wal.log` within it. An existing damaged log is
    /// *not* modified by opening — only by the first append or an
    /// explicit [`WalletStore::recover`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory or files cannot be opened.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let log = FileMedium::open(dir.join("wal.log"))?;
        Self::from_media(Box::new(log), StoreConfig::default())
    }

    /// Journals one event and returns its sequence number. The record
    /// is durable once this returns iff the configured group-commit
    /// interval elapsed (interval 1, the default, syncs every append).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure; [`StoreError::Corrupt`] if
    /// the encoded record exceeds the size cap.
    pub fn append(&self, event: &StoreEvent) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        inner.prepare_tail()?;
        let seq = inner.next_seq;
        let frame = encode_frame(seq, event);
        if frame.len() - FRAME_HEADER > MAX_RECORD {
            return Err(StoreError::Corrupt(format!(
                "record of {} bytes exceeds the {} byte cap",
                frame.len() - FRAME_HEADER,
                MAX_RECORD
            )));
        }
        inner.log.append(&frame)?;
        inner.valid_len += frame.len() as u64;
        inner.next_seq = seq + 1;
        inner.records += 1;
        inner.first_seq.get_or_insert(seq);
        inner.unsynced += 1;
        drbac_obs::static_counter!("drbac.store.append.count").inc();
        drbac_obs::static_counter!("drbac.store.append.bytes.total").add(frame.len() as u64);
        if inner.unsynced >= self.config.group_commit {
            let timer = drbac_obs::static_histogram!("drbac.store.fsync.ns").start_timer();
            inner.log.sync()?;
            drop(timer);
            inner.unsynced = 0;
            drbac_obs::static_counter!("drbac.store.fsync.count").inc();
        }
        Ok(seq)
    }

    /// Forces any group-commit-buffered appends to durable storage.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if inner.unsynced > 0 {
            let timer = drbac_obs::static_histogram!("drbac.store.fsync.ns").start_timer();
            inner.log.sync()?;
            drop(timer);
            inner.unsynced = 0;
            drbac_obs::static_counter!("drbac.store.fsync.count").inc();
        }
        Ok(())
    }

    /// Recovers the store's contents: every valid log record, after
    /// truncating any torn or corrupt log tail on the medium. Never
    /// panics on a damaged log — the longest valid prefix is recovered
    /// and the rest dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure. Corruption is *not* an
    /// error: it is reported in the returned [`Recovered`].
    pub fn recover(&self) -> Result<Recovered, StoreError> {
        let _timer = drbac_obs::static_histogram!("drbac.store.recover.scan.ns").start_timer();
        let (outcome, truncated_bytes) = self.scan_and_heal()?;
        Ok(Recovered {
            events: outcome
                .records
                .into_iter()
                .map(|r| (r.seq, r.event))
                .collect(),
            truncated_bytes,
            torn_tail: outcome.corruption.as_ref().is_some_and(Corruption::is_torn),
            corruption: outcome.corruption.map(|c| c.to_string()),
        })
    }

    fn scan_and_heal(&self) -> Result<(ScanOutcome, u64), StoreError> {
        let mut inner = self.inner.lock();
        let bytes = inner.log.read_all()?;
        let outcome = scan_log(&bytes);
        let truncated = inner.heal(bytes.len(), &outcome)?;
        Ok((outcome, truncated))
    }

    /// The checkpoint's log step: drops every record below the last one
    /// at or under `seq`, which stays as the anchor that keeps sequence
    /// numbers continuous. Call it only once everything up to `seq` is
    /// durable elsewhere. A no-op when no record lies at or under `seq`
    /// beyond the first. The rewrite is one atomic [`Medium::replace`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure (the log is then unchanged).
    pub fn truncate_through(&self, seq: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let bytes = inner.log.read_all()?;
        let outcome = scan_log(&bytes);
        // Sequence numbers increase, so the survivors are a suffix
        // starting at the anchor.
        let anchor = outcome.records.iter().rposition(|r| r.seq <= seq);
        let Some(anchor @ 1..) = anchor else {
            return Ok(());
        };
        let keep_from = outcome.records[anchor - 1].end;
        let mut rebuilt = Vec::with_capacity(LOG_MAGIC.len() + outcome.valid_len - keep_from);
        rebuilt.extend_from_slice(&LOG_MAGIC);
        rebuilt.extend_from_slice(&bytes[keep_from..outcome.valid_len]);
        inner.log.replace(&rebuilt)?;
        drbac_obs::static_counter!("drbac.store.compact.count").inc();
        let survivors = scan_log(&rebuilt);
        inner.heal(rebuilt.len(), &survivors)?;
        Ok(())
    }

    /// Makes the next append use a sequence number above `seq`. For a
    /// log that holds no records while a checkpoint elsewhere covers
    /// history up to `seq`, so numbering continues instead of
    /// restarting at 1.
    pub fn continue_after(&self, seq: u64) {
        let mut inner = self.inner.lock();
        inner.floor = inner.floor.max(seq + 1);
        inner.next_seq = inner.next_seq.max(inner.floor);
    }

    /// A read-only integrity check of the log as it sits on the medium.
    /// Never modifies it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let inner = self.inner.lock();
        let bytes = inner.log.read_all()?;
        let outcome = scan_log(&bytes);
        Ok(VerifyReport {
            log_bytes: bytes.len() as u64,
            records: outcome.records.len() as u64,
            first_seq: outcome.records.first().map(|r| r.seq),
            last_seq: outcome.records.last().map(|r| r.seq),
            valid_len: outcome.valid_len as u64,
            trailing_bytes: (bytes.len() - outcome.valid_len) as u64,
            torn_tail: outcome.corruption.as_ref().is_some_and(Corruption::is_torn),
            corruption: outcome.corruption.map(|c| c.to_string()),
            index: None,
        })
    }

    /// A cheap summary from the store's bookkeeping (no medium reads
    /// beyond what open already did).
    pub fn status(&self) -> StoreStatus {
        let inner = self.inner.lock();
        StoreStatus {
            records: inner.records,
            log_bytes: inner.valid_len,
            next_seq: inner.next_seq,
            first_seq: inner.first_seq,
        }
    }

    /// Scans the log and truncates any torn or corrupt tail — the
    /// healing [`WalletStore::recover`] performs, without handing the
    /// events over. The indexed boot path uses this so a
    /// crash-interrupted append can't linger just because the full
    /// replay was skipped. Returns the scan of the surviving prefix.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure.
    pub fn heal_tail(&self) -> Result<ScanOutcome, StoreError> {
        Ok(self.scan_and_heal()?.0)
    }

    /// Scans the log as found on the medium (for `drbac store inspect`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure.
    pub fn read_log(&self) -> Result<ScanOutcome, StoreError> {
        let inner = self.inner.lock();
        Ok(scan_log(&inner.log.read_all()?))
    }

    /// The raw log bytes (test and benchmark helper).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failure.
    pub fn log_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let inner = self.inner.lock();
        Ok(inner.log.read_all()?)
    }

    /// Power-loss simulation: drops unsynced bytes from the medium (a
    /// no-op for file-backed stores) and refreshes bookkeeping.
    pub fn lose_unsynced(&self) {
        let mut inner = self.inner.lock();
        inner.log.lose_unsynced();
        let _ = inner.reload();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::DelegationId;

    fn mark(byte: u8) -> StoreEvent {
        StoreEvent::RevokeMark(DelegationId([byte; 32]))
    }

    fn expire(byte: u8) -> StoreEvent {
        StoreEvent::Expire(DelegationId([byte; 32]))
    }

    #[test]
    fn append_scan_round_trip() {
        let store = WalletStore::in_memory();
        let events = [mark(1), expire(2), mark(3)];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(store.append(e).unwrap(), i as u64 + 1);
        }
        let outcome = scan_log(&store.log_bytes().unwrap());
        assert!(outcome.corruption.is_none());
        assert_eq!(outcome.records.len(), 3);
        for (i, r) in outcome.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.event, events[i]);
        }
        let status = store.status();
        assert_eq!(status.records, 3);
        assert_eq!(status.next_seq, 4);
        assert_eq!(status.first_seq, Some(1));
    }

    #[test]
    fn torn_tail_is_truncated_and_seq_continues() {
        let store = WalletStore::in_memory();
        for b in 1..=3 {
            store.append(&mark(b)).unwrap();
        }
        let mut bytes = store.log_bytes().unwrap();
        let cut = bytes.len() - 3; // tear the last record
        bytes.truncate(cut);

        let damaged = WalletStore::from_log_bytes(bytes.clone());
        let recovered = damaged.recover().unwrap();
        assert_eq!(recovered.events.len(), 2);
        assert!(recovered.torn_tail);
        assert!(recovered.truncated_bytes > 0);
        assert!(recovered.corruption.is_some());
        // The medium was healed; a fresh verify is clean and the next
        // append picks the next free sequence number.
        assert!(damaged.verify().unwrap().is_clean());
        assert_eq!(damaged.append(&mark(9)).unwrap(), 3);
    }

    #[test]
    fn bit_flip_stops_scan_at_damaged_record() {
        let store = WalletStore::in_memory();
        for b in 1..=3 {
            store.append(&mark(b)).unwrap();
        }
        let clean = store.log_bytes().unwrap();
        let outcome = scan_log(&clean);
        let second_start = outcome.records[0].end;
        let mut bytes = clean.clone();
        bytes[second_start + FRAME_HEADER + 4] ^= 0x40; // flip a payload bit of record 2
        let damaged = scan_log(&bytes);
        assert_eq!(damaged.records.len(), 1);
        assert!(matches!(
            damaged.corruption,
            Some(Corruption::BadCrc { .. })
        ));
        assert_eq!(damaged.valid_len, second_start);
    }

    #[test]
    fn truncation_keeps_an_anchor_and_numbering_continues() {
        let store = WalletStore::in_memory();
        for b in 1..=5 {
            store.append(&mark(b)).unwrap();
        }
        store.truncate_through(3).unwrap();
        let status = store.status();
        assert_eq!(
            (status.first_seq, status.records),
            (Some(3), 3),
            "seq 3 is the anchor"
        );
        // Truncating through the tip keeps the tip: the log never
        // empties, so numbering cannot restart.
        store.truncate_through(5).unwrap();
        assert_eq!(store.status().first_seq, Some(5));
        assert_eq!(store.status().records, 1);
        // Below the first record it is a no-op.
        store.truncate_through(2).unwrap();
        assert_eq!(store.status().records, 1);
        assert_eq!(store.append(&expire(6)).unwrap(), 6);

        let recovered = store.recover().unwrap();
        assert_eq!(
            recovered.events.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 6]
        );
        assert_eq!(recovered.truncated_bytes, 0);
        assert!(!recovered.torn_tail);
    }

    #[test]
    fn an_empty_log_continues_after_an_outside_checkpoint() {
        let store = WalletStore::in_memory();
        store.continue_after(41);
        assert_eq!(store.status().next_seq, 42);
        assert_eq!(store.append(&mark(1)).unwrap(), 42);
        assert_eq!(store.status().first_seq, Some(42));
    }

    #[test]
    fn group_commit_power_loss_drops_only_unsynced_records() {
        let store = WalletStore::in_memory_with(StoreConfig { group_commit: 4 });
        for b in 1..=3 {
            store.append(&mark(b)).unwrap();
        }
        store.lose_unsynced(); // 3 appends, no sync yet: all lost
        assert_eq!(store.recover().unwrap().events.len(), 0);

        for b in 1..=5 {
            store.append(&mark(b)).unwrap();
        }
        store.lose_unsynced(); // 4 synced at the group boundary, 1 lost
        let recovered = store.recover().unwrap();
        assert_eq!(recovered.events.len(), 4);

        // An explicit sync makes the tail durable.
        store.append(&mark(9)).unwrap();
        store.sync().unwrap();
        store.lose_unsynced();
        assert_eq!(store.recover().unwrap().events.len(), 5);
    }

    #[test]
    fn garbage_log_recovers_to_empty_and_is_usable() {
        let store = WalletStore::from_log_bytes(b"!!not a log at all!!".to_vec());
        let recovered = store.recover().unwrap();
        assert!(recovered.events.is_empty());
        assert!(recovered.truncated_bytes > 0);
        assert!(!recovered.torn_tail);
        assert_eq!(store.append(&mark(1)).unwrap(), 1);
        assert!(store.verify().unwrap().is_clean());
    }

    #[test]
    fn non_monotonic_sequence_is_corruption() {
        let mut bytes = LOG_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(5, &mark(1)));
        bytes.extend_from_slice(&encode_frame(3, &mark(2)));
        let outcome = scan_log(&bytes);
        assert_eq!(outcome.records.len(), 1);
        assert!(matches!(
            outcome.corruption,
            Some(Corruption::NonMonotonicSeq {
                prev: 5,
                found: 3,
                ..
            })
        ));
    }

    #[test]
    fn oversize_length_prefix_is_corruption_not_allocation() {
        let mut bytes = LOG_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        let outcome = scan_log(&bytes);
        assert!(outcome.records.is_empty());
        assert!(matches!(
            outcome.corruption,
            Some(Corruption::OversizeRecord { .. })
        ));
    }

    #[test]
    fn verify_is_read_only_on_damaged_logs() {
        let store = WalletStore::in_memory();
        store.append(&mark(1)).unwrap();
        let mut bytes = store.log_bytes().unwrap();
        bytes.extend_from_slice(b"trailing junk");
        let damaged = WalletStore::from_log_bytes(bytes.clone());
        let report = damaged.verify().unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.records, 1);
        assert!(report.trailing_bytes > 0);
        // verify() must not have healed the medium.
        assert_eq!(damaged.log_bytes().unwrap(), bytes);
    }

    #[test]
    fn file_backed_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "drbac-store-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = WalletStore::open_dir(&dir).unwrap();
            for b in 1..=3 {
                store.append(&mark(b)).unwrap();
            }
            store.truncate_through(3).unwrap();
            store.append(&expire(4)).unwrap();
        }
        {
            let store = WalletStore::open_dir(&dir).unwrap();
            assert_eq!(store.status().next_seq, 5);
            let recovered = store.recover().unwrap();
            assert_eq!(recovered.events.len(), 2, "anchor 3 and record 4");
            // Appending after reopen continues the sequence.
            assert_eq!(store.append(&mark(7)).unwrap(), 5);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_at_every_offset_never_panics() {
        let store = WalletStore::in_memory();
        for b in 1..=4 {
            store.append(&mark(b)).unwrap();
        }
        let bytes = store.log_bytes().unwrap();
        let ends: Vec<usize> = scan_log(&bytes).records.iter().map(|r| r.end).collect();
        for cut in 0..=bytes.len() {
            let outcome = scan_log(&bytes[..cut]);
            let expect = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(outcome.records.len(), expect, "cut at {cut}");
            // And the damaged store recovers without panicking.
            let s = WalletStore::from_log_bytes(bytes[..cut].to_vec());
            let r = s.recover().unwrap();
            assert_eq!(r.events.len(), expect, "recover cut at {cut}");
        }
    }
}
