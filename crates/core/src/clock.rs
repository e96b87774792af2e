//! Logical time.
//!
//! The paper's infrastructure depends on time in three places: credential
//! *expiration dates*, discovery-tag *TTLs* for cached copies, and the
//! ordering of events in the distributed walkthrough of Figure 2. A shared
//! logical clock keeps all three deterministic in tests and simulations;
//! nothing in the workspace reads the wall clock.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;


/// A point in logical time, in ticks since the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A duration in logical ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ticks(pub u64);

impl Timestamp {
    /// The epoch (tick 0).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// This timestamp advanced by `d` ticks (saturating).
    pub fn after(self, d: Ticks) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Ticks elapsed from `earlier` to `self` (saturating at zero).
    pub fn since(self, earlier: Timestamp) -> Ticks {
        Ticks(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

/// A shared, monotonically advancing logical clock.
///
/// Cloning shares the underlying counter, so a simulation hands one clock
/// to every wallet and host.
///
/// # Example
///
/// ```
/// use drbac_core::{SimClock, Ticks};
///
/// let clock = SimClock::new();
/// let observer = clock.clone();
/// clock.advance(Ticks(30));
/// assert_eq!(observer.now().0, 30);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ticks: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Self {
        SimClock {
            ticks: Arc::new(AtomicU64::new(t.0)),
        }
    }

    /// The current logical time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.ticks.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Ticks) -> Timestamp {
        Timestamp(self.ticks.fetch_add(d.0, Ordering::SeqCst) + d.0)
    }

    /// Moves the clock forward to `t` if `t` is in the future; returns the
    /// current time either way. The clock never moves backwards.
    pub fn advance_to(&self, t: Timestamp) -> Timestamp {
        self.ticks.fetch_max(t.0, Ordering::SeqCst);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let c1 = SimClock::new();
        let c2 = c1.clone();
        c1.advance(Ticks(5));
        c2.advance(Ticks(7));
        assert_eq!(c1.now(), Timestamp(12));
        assert_eq!(c2.now(), Timestamp(12));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::starting_at(Timestamp(100));
        assert_eq!(c.advance_to(Timestamp(50)), Timestamp(100));
        assert_eq!(c.advance_to(Timestamp(150)), Timestamp(150));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(10);
        assert_eq!(t.after(Ticks(5)), Timestamp(15));
        assert_eq!(Timestamp(15).since(t), Ticks(5));
        assert_eq!(t.since(Timestamp(15)), Ticks(0)); // saturates
        assert_eq!(Timestamp(u64::MAX).after(Ticks(10)), Timestamp(u64::MAX));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Timestamp(42).to_string(), "t42");
        assert_eq!(Ticks(30).to_string(), "30 ticks");
    }
}
