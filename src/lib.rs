#![warn(missing_docs)]

//! # dRBAC — Distributed Role-Based Access Control
//!
//! A complete Rust implementation of *dRBAC: Distributed Role-based
//! Access Control for Dynamic Coalition Environments* (ICDCS 2002): a
//! decentralized trust-management system in which every entity is a
//! public key defining a role namespace, permissions travel as signed
//! delegation certificates (self-certified, third-party with recursive
//! support proofs, and assignment forms), access levels are modulated by
//! monotone valued attributes, credentials are found by tag-directed
//! discovery across distributed wallets, and established trust
//! relationships are continuously monitored through pub/sub delegation
//! subscriptions.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | entities, roles, delegations, valued attributes, proofs & validation, discovery tags, wire codec, textual syntax, logical clock |
//! | [`graph`] | the delegation graph and the direct/subject/object queries with constraint pruning |
//! | [`wallet`] | credential repositories: publication, queries, proof monitors, subscriptions, persistence |
//! | [`store`] | durability: CRC-framed write-ahead log of wallet events, snapshots, compaction, crash recovery |
//! | [`index`] | the indexed delegation store: ordered tables (memory / file) with secondary indexes by subject, object, issuer, expiry, and tag, powering millisecond boots and O(answer) queries |
//! | [`net`] | simulated network, TCP daemon and transport, tag-directed discovery, subscription push, registry audit |
//! | [`disco`] | application layer: protected resources (the one role gate, local or remote), (resilient) monitored sessions, the paper's scenarios |
//! | [`scenario`] | coalition-scale scenario generator (seven topology families, seeded schedules, oracle ground truth) and the SimNet/TCP federation soak runners |
//! | [`obs`] | observability: metrics registry (counters/gauges/histograms), span & event tracing, JSONL export |
//! | [`crypto`] / [`bignum`] | the from-scratch PKI substrate (SHA-256, Schnorr, big integers) |
//! | [`baselines`] | OCSP / CRL / phantom-role / unidirectional-search comparators for the experiment harness |
//!
//! # Example
//!
//! The paper's headline question — *"does principal P have the
//! permissions associated with role R?"* — answered end to end:
//!
//! ```
//! use drbac::core::{LocalEntity, Node, SimClock};
//! use drbac::crypto::SchnorrGroup;
//! use drbac::wallet::Wallet;
//! # use rand::SeedableRng;
//!
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let group = SchnorrGroup::test_256();
//! let org = LocalEntity::generate("Org", group.clone(), &mut rng);
//! let admin = LocalEntity::generate("Admin", group.clone(), &mut rng);
//! let alice = LocalEntity::generate("Alice", group, &mut rng);
//!
//! let wallet = Wallet::new("wallet.org.example", SimClock::new());
//! // Org hands its `member` assignment right to Admin…
//! wallet.publish(
//!     org.delegate(Node::entity(&admin), Node::role_admin(org.role("member"))).sign(&org)?,
//!     vec![],
//! )?;
//! // …and Admin (a third party) enrolls Alice.
//! wallet.publish(
//!     admin.delegate(Node::entity(&alice), Node::role(org.role("member"))).sign(&admin)?,
//!     vec![],
//! )?;
//!
//! let monitor = wallet
//!     .query_direct(&Node::entity(&alice), &Node::role(org.role("member")), &[])
//!     .expect("Alice is authorized");
//! assert!(monitor.is_valid()); // and continuously monitored from here on
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `README.md` for the architecture, `DESIGN.md` for the paper
//! mapping and substitutions, and `EXPERIMENTS.md` for the reproduction
//! record of every table, figure, and performance claim.

pub use drbac_baselines as baselines;
pub use drbac_bignum as bignum;
pub use drbac_core as core;
pub use drbac_crypto as crypto;
pub use drbac_disco as disco;
pub use drbac_graph as graph;
pub use drbac_index as index;
pub use drbac_net as net;
pub use drbac_obs as obs;
pub use drbac_scenario as scenario;
pub use drbac_store as store;
pub use drbac_wallet as wallet;
