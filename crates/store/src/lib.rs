#![warn(missing_docs)]

//! Durable wallet storage for dRBAC: a write-ahead log with checkpoint
//! truncation and crash recovery.
//!
//! The paper's wallets hold long-lived trust state — delegations,
//! support proofs, attribute declarations and, critically, revocation
//! marks — that must survive host churn in a dynamic coalition. This
//! crate provides the durability layer underneath `drbac-wallet`:
//!
//! * [`StoreEvent`] — the journal vocabulary: one record per mutating
//!   wallet operation (publish, declare, support, absorb, revoke,
//!   revocation mark, expiry tombstone), encoded with the workspace's
//!   canonical wire format.
//! * [`WalletStore`] — an append-only log of CRC32-framed records with
//!   group-committed fsync batching and checkpoint truncation: once the
//!   delegation index's base runs hold a prefix of the log durably, that
//!   prefix is dropped, keeping its last record as the sequence anchor.
//! * [`Medium`] — the storage backend seam: [`MemMedium`] gives the
//!   deterministic in-memory store used by the simulated network and the
//!   property tests (including power-loss simulation of unsynced
//!   tails); [`FileMedium`] backs the CLI's on-disk store.
//!
//! **Recovery invariant:** a log that starts at seq 1 replays into the
//! whole wallet; a truncated one replays the tail above the index's
//! watermark (`drbac-wallet`'s indexed boot). A torn or corrupted log tail (detected by the
//! length/CRC framing and the strictly-increasing sequence numbers) is
//! *truncated, never a panic*: the store recovers exactly the longest
//! valid prefix of the log. See `DESIGN.md` §4.4 for the full model.

mod crc;
mod event;
mod medium;
mod wal;

pub use crc::crc32;
pub use event::StoreEvent;
pub use medium::{FileMedium, Medium, MemMedium};
pub use wal::{
    scan_log, Corruption, IndexCheck, Recovered, ScanOutcome, ScannedRecord, StoreConfig,
    StoreError, StoreStatus, VerifyReport, WalletStore, LOG_MAGIC,
};
