#![warn(missing_docs)]

//! DisCo-style application layer over dRBAC (paper §1, "Project
//! Context").
//!
//! DisCo "presents a simple, unified interface for application
//! deployment" and "utilizes dRBAC to manage authentication and access
//! control. Application developers reference dRBAC to register new
//! protected resources whose access is regulated using dRBAC roles."
//!
//! * [`ProtectedResource`] — registers a resource behind a role (plus
//!   optional attribute constraints) and hands out monitored
//!   [`AccessSession`]s, authorized against its own wallet, through
//!   discovery, or at the principal's home wallet over a transport. It is
//!   the one role gate: a session lives exactly as long as its proof's
//!   monitor stays valid (§4.2.2);
//! * [`scenario`] — the paper's complete BigISP/AirNet case study
//!   (Table 3, Figure 2, §5), reconstructed end to end: every delegation,
//!   wallet, discovery tag, and the expected effective attribute values
//!   (BW = 100, storage = 30, hours = 18).

mod resource;
pub mod scenario;

pub use resource::{AccessError, AccessSession, ProtectedResource, ResilientSession};
pub use scenario::CoalitionScenario;
