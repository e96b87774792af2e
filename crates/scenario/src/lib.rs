//! Coalition-scale scenario generation and federation soak running.
//!
//! This crate turns a `(family, seed, scale)` triple into a coalition
//! world — entities, a reproducible event schedule (publishes,
//! declarations, revocations, queries), and a centralized oracle graph
//! defining ground truth — and then executes that same schedule over
//! two substrates:
//!
//! * a deterministic [`SimNet`](drbac_net::SimNet) federation,
//!   optionally under [`FaultPlan`](drbac_net::FaultPlan) chaos plus a
//!   partition/heal and crash/restart cycle, and
//! * a real multi-daemon TCP federation (one
//!   [`WalletDaemon`](drbac_net::WalletDaemon) per org wallet).
//!
//! Every run produces a [`SoakReport`] whose [`SoakReport::decision_digest`]
//! is a pure function of the decisions and proof bytes — equal digests
//! across substrates are the byte-identical-proof parity check; the
//! invariant counters (`hard_mismatches`, `unsound`,
//! `termination_failures`, `spurious_terminations`) must all be zero.
//!
//! | Module | Responsibility |
//! |--------|----------------|
//! | [`Family`] / [`Scale`] / [`ScenarioSpec`] | what to generate |
//! | [`Scenario`] / [`Event`] / [`QuerySpec`] | the generated world |
//! | [`Oracle`] | centralized ground truth |
//! | [`SimFederation`] / [`TcpFederation`] | soak substrates |
//! | [`SoakReport`] | per-run metrics and parity digests |

#![warn(missing_docs)]

mod generate;
mod oracle;
mod report;
mod runner;
mod spec;

pub use generate::{Event, QuerySpec, Scenario};
pub use oracle::Oracle;
pub use report::{fnv64, Decision, LatencySummary, QueryRecord, SoakReport};
pub use runner::{run_simnet, run_tcp, RunConfig, SimFederation, TcpFederation};
pub use spec::{Family, Scale, ScenarioSpec};
