#![warn(missing_docs)]

//! Baselines the dRBAC paper compares against (qualitatively, §3.1.3 and
//! §6), implemented so the benchmark harness can measure the comparisons:
//!
//! * [`ocsp`] — online positive status checking: clients poll an
//!   authorized responder on an interval, costing messages even when
//!   nothing changed (contrast: delegation subscriptions push only on
//!   change);
//! * [`crl`] — periodic revocation lists: every subscriber receives the
//!   full list each period, including revocations irrelevant to it;
//! * [`phantom`] — the SPKI/RT0-style *phantom role* encoding of
//!   third-party delegation, to quantify the namespace pollution dRBAC's
//!   third-party form avoids;
//! * [`direction`] — the §4.2.3 search-direction experiment (F-A): the
//!   shipped discovery agent on funnel federations under `S`, `O` and
//!   `S`+`O` tags, and authorizing-path counts on layered DAGs;
//! * [`workload`] — synthetic delegation-forest generators shared by
//!   tests and benches.

pub mod crl;
pub mod direction;
pub mod ocsp;
pub mod phantom;
pub mod workload;
