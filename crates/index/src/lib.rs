#![warn(missing_docs)]

//! Indexed delegation storage for dRBAC: an ordered-table layer with
//! secondary indexes, for million-delegation wallets that answer audit
//! queries and boot in milliseconds.
//!
//! The write-ahead store (`drbac-store`) makes a wallet durable, but
//! recovery re-verifies every journaled credential — fine at thousands
//! of delegations, minutes at a million. This crate adds a *second
//! storage backend*, not a cache: a totally ordered byte-key table
//! ([`TableBackend`]) holding the credentials and the secondary indexes
//! the wallet reads — by subject, object and expiry time, plus the
//! third-party audit set — maintained transactionally (one atomic batch
//! per journaled event) alongside the in-memory delegation graph.
//!
//! * [`TableBackend`] — the ordered-table seam: `get`, atomic `apply`
//!   batches, ordered range scans, bulk load.
//! * [`MemTable`] — `BTreeMap` backend for simulation and oracle tests.
//! * [`FileTable`] — the durable backend: an immutable sorted base file
//!   with two fence levels (open reads the 40-byte trailer plus the
//!   top-level fences only), stored through `drbac-store`'s
//!   [`Medium`](drbac_store::Medium) seam, under an in-memory overlay.
//!   Reads fetch and CRC-check 4 KiB blocks lazily; the overlay folds
//!   into the base automatically as it grows.
//! * [`DelegationIndex`] — the dRBAC-specific keyspaces over a table
//!   (see [`keys`] for the layout), with one `apply(seq, event)` batch
//!   per journal record, prefix-scan queries for the wallet's planner,
//!   a bulk [`DelegationIndex::rebuild`] migration path, and an
//!   index/WAL cross-check ([`DelegationIndex::verify_against`]).
//!
//! The watermark invariant ties the two stores together: the index has
//! applied exactly the journal prefix up to `m/watermark`. On disk that
//! is the base run's watermark: the overlay above it dies with the
//! process, and a boot rebuilds it by applying the journal records past
//! the watermark again, which is idempotent. The index never becomes *ahead* of the log it
//! projects unless the log itself lost data; that case (and any framing
//! damage) is detected at open and answered by a rebuild, never a
//! panic.

mod file;
mod index;
pub mod keys;
mod table;

pub use file::{FileTable, INDEX_TAB_MAGIC};
pub use index::{DelegationIndex, IndexCheck, Mark, RebuildSource};
pub use keys::node_key;
pub use table::{prefix_end, MemTable, TableBackend, TableOp, TableStats};
