//! The four workloads. Each stresses different layers; for every
//! optimisation one workload exercises its mechanism and another
//! bypasses it (see `benchmark/README.md`).

pub mod coalition_mix;
pub mod discovery;
pub mod front_door;
pub mod guard_strict;
