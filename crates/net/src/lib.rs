#![warn(missing_docs)]

//! Distributed dRBAC infrastructure (paper §4.2).
//!
//! The paper's prototype ran wallets on Java hosts connected by the
//! Switchboard secure-communication layer. This crate reproduces that
//! architecture on a deterministic substrate:
//!
//! * [`proto`] — the inter-wallet request/reply and push message types;
//! * [`SimNet`] / [`WalletHost`] — a discrete-event simulated network of
//!   wallet hosts with per-message latency and full message accounting
//!   ([`NetStats`]), so tests can assert the exact step-by-step behaviour
//!   of the paper's Figure 2 walkthrough;
//! * [`DiscoveryAgent`] — the §4.2.1 tag-directed distributed discovery
//!   algorithm (forward, reverse, and bidirectional modes);
//! * [`Switchboard`] — credentialed secure channels (handshake with real
//!   signatures, optionally gated on a continuously monitored role proof),
//!   modelled after the Switchboard abstraction the paper builds on (its reference \[8\]).
//!
//! The simulator also injects faults deterministically: a seeded
//! [`FaultPlan`] adds request loss, latency jitter and timeouts, and the
//! network supports partitions (with parked, redelivered pushes) and
//! wallet crash/restart. [`RetryPolicy`] gives discovery and switchboard
//! lookups bounded retries with exponential backoff, and
//! [`DiscoveryOutcome::degraded`](DiscoveryOutcome) records when an
//! answer survived on retries or skipped an unreachable wallet.
//!
//! Two deployment shapes sit under the same [`Transport`] trait, and
//! one wallet host answers behind both: the private `host` module owns
//! the only `Request → Reply` dispatch and cached-credential
//! revalidation. A subscriber becomes a dependent in the served
//! wallet's own index, with the serving deployment's push sink, so each
//! credential death fans out from the wallet once, whatever killed it.
//!
//! * **SimNet** (see DESIGN.md §4.2): wallet hosts inside one process on
//!   a simulated clock, so chaos and parity experiments are exactly
//!   reproducible. Every request, reply and push crosses as the frame
//!   [`wire`] builds and is decoded on arrival, so the message patterns,
//!   byte counts, validation work, and subscription semantics match the
//!   real deployment.
//! * **TCP** ([`wire`] + [`TcpTransport`] + [`WalletDaemon`]): each
//!   wallet served by a socket daemon, messages as length-prefixed
//!   CRC-framed canonical bytes, delegation subscriptions pushed over a
//!   persistent subscriber connection ([`SubscriberLink`]) that
//!   reconnects and resubscribes when the daemon drops.

pub mod audit;
mod daemon;
mod discovery;
mod host;
pub mod proto;
mod sim;
mod switchboard;
mod tcp;
#[cfg(test)]
mod testkit;
mod transport;
pub mod wire;

pub use audit::{audit_store_compliance, redelegations_of, AuditEndpoint, StoreViolation};
pub use daemon::{DaemonConfig, SubscriberLink, WalletDaemon};
pub use discovery::{
    Directory, DiscoveryAgent, DiscoveryOutcome, DiscoveryStep, SearchMode, TagLookup,
};
pub use proto::HealthReport;
pub use sim::{FaultPlan, NetError, NetStats, SimNet, StoreHandle, WalletHost};
pub use switchboard::{Channel, ChannelError, Switchboard};
pub use tcp::{PipelinedClient, TcpConfig, TcpTransport};
pub use transport::{RetryOutcome, RetryPolicy, Transport};
