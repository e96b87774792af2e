#![warn(missing_docs)]

//! dRBAC wallets: distributed credential repositories (paper §4.1).
//!
//! "Similar to a real wallet containing identification cards, a dRBAC
//! wallet stores a collection of delegations." A [`Wallet`] supports the
//! paper's three operations:
//!
//! * **Publication** — [`Wallet::publish`] validates a credential and, for
//!   third-party delegations, requires the issuer-provided support proofs
//!   (freeing the wallet "from having to conduct recursive searches");
//! * **Authorization queries** — [`Wallet::query_direct`] (wrapped in a
//!   [`ProofMonitor`]), [`Wallet::query_subject`], and
//!   [`Wallet::query_object`], all accepting valued-attribute constraints;
//! * **Proof monitoring** — [`ProofMonitor`] registers *delegation
//!   subscriptions* ([`Wallet::subscribe`]) on every credential in a proof
//!   and fires callbacks the moment any of them is revoked or expires.
//!
//! Wallets also serve as *validated caches* for remote credentials
//! ([`Wallet::absorb_proof`]) with TTL-based coherence metadata; the
//! inter-wallet protocol that keeps caches coherent lives in `drbac-net`.

mod cache;
mod dependents;
mod durable;
mod events;
mod monitor;
mod planner;
mod wallet;

pub use durable::{DurableWallet, IndexedBootReport};
pub use events::{DelegationEvent, InvalidationReason, SubscriptionId};
pub use monitor::{MonitorStatus, ProofMonitor};
pub use wallet::{CacheEntry, RecoveryReport, Wallet, WalletError};
