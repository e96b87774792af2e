#![warn(missing_docs)]

//! Delegation graph and credential-chain search for dRBAC.
//!
//! The paper's wallets "rely upon graph-based data structures that allow
//! efficient enumeration of delegation chains between any specified
//! subject and object" (§4.1). This crate provides that structure, once:
//!
//! * [`DelegationGraph`] — the store of signed delegations, provided
//!   support proofs, attribute declarations, and revocation marks,
//!   sharded by subject-entity fingerprint behind per-shard locks so
//!   concurrent readers and writers don't serialize on one lock;
//! * the three query forms of §4.1 — [`DelegationGraph::direct_query`]
//!   (`S ⇒ O?`), [`DelegationGraph::subject_query`] (`S ⇒ *`), and
//!   [`DelegationGraph::object_query`] (`* ⇒ O`) — all constraint-aware,
//!   run by one sequential engine;
//! * monotonicity-based pruning of constrained searches (§4.2.3), with
//!   [`SearchStats`] so experiments can measure its effect;
//! * dense node interning, so the search hot path compares and hashes
//!   `u32` ids instead of cloning [`drbac_core::Node`]s.
//!
//! See [`DelegationGraph`] for a worked example.

mod intern;
#[doc(hidden)]
pub mod reference;
mod search;
mod sharded;

pub use search::{SearchOptions, SearchStats};
pub use sharded::{DelegationGraph, GraphMetrics};
