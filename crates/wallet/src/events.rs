//! Delegation subscription events.

use std::fmt;

use drbac_core::DelegationId;

/// Why a delegation stopped being usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvalidationReason {
    /// The issuer revoked it.
    Revoked,
    /// Its expiration date passed.
    Expired,
}

impl fmt::Display for InvalidationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvalidationReason::Revoked => "revoked",
            InvalidationReason::Expired => "expired",
        })
    }
}

/// A status-change event pushed to delegation subscribers.
///
/// dRBAC's subscriptions "notify subscribers if the corresponding
/// delegation is invalidated" (§4.2.2) using an event push model — no
/// polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelegationEvent {
    /// The delegation whose status changed.
    pub delegation: DelegationId,
    /// What happened to it.
    pub reason: InvalidationReason,
}

impl fmt::Display for DelegationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delegation #{} {}", self.delegation, self.reason)
    }
}

/// Handle identifying one registered subscription, for unsubscribe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub(crate) u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_display() {
        let e = DelegationEvent {
            delegation: DelegationId([0xab; 32]),
            reason: InvalidationReason::Revoked,
        };
        let s = e.to_string();
        assert!(s.contains("revoked"));
        assert!(s.contains("abababab"));
    }
}
