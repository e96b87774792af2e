//! Proof monitors: continuous validity tracking for returned proofs.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

use drbac_core::{AttrSummary, DelegationId, Proof};
use parking_lot::Mutex;

use crate::dependents::Dependents;
use crate::events::{DelegationEvent, InvalidationReason};

/// Current status of a monitored proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorStatus {
    /// Every delegation in the proof is still valid.
    Valid,
    /// A delegation in the proof was invalidated.
    Invalidated {
        /// The delegation that failed.
        delegation: DelegationId,
        /// Why it failed.
        reason: InvalidationReason,
    },
}

impl MonitorStatus {
    /// `true` while the proof remains valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, MonitorStatus::Valid)
    }
}

impl fmt::Display for MonitorStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorStatus::Valid => f.write_str("valid"),
            MonitorStatus::Invalidated { delegation, reason } => {
                write!(f, "invalidated: #{delegation} {reason}")
            }
        }
    }
}

type Callback = Box<dyn Fn(&MonitorStatus) + Send + Sync>;

pub(crate) struct MonitorCore {
    pub(crate) proof: Proof,
    summary: AttrSummary,
    watched: BTreeSet<DelegationId>,
    status: Mutex<MonitorStatus>,
    callbacks: Mutex<Vec<Callback>>,
    /// Its handle in the wallet's dependents index, given up on drop.
    pub(crate) registration: OnceLock<(Weak<Dependents>, u64)>,
}

impl MonitorCore {
    pub(crate) fn new(proof: Proof, summary: AttrSummary) -> Arc<Self> {
        let watched = proof.delegation_ids();
        Arc::new(MonitorCore {
            proof,
            summary,
            watched,
            status: Mutex::new(MonitorStatus::Valid),
            callbacks: Mutex::new(Vec::new()),
            registration: OnceLock::new(),
        })
    }

    pub(crate) fn watched(&self) -> &BTreeSet<DelegationId> {
        &self.watched
    }

    /// Delivers an event; flips status and fires callbacks exactly once.
    pub(crate) fn deliver(&self, event: DelegationEvent) {
        if !self.watched.contains(&event.delegation) {
            return;
        }
        let new_status = {
            let mut status = self.status.lock();
            if !status.is_valid() {
                return; // already invalidated; first cause wins
            }
            *status = MonitorStatus::Invalidated {
                delegation: event.delegation,
                reason: event.reason,
            };
            status.clone()
        };
        drbac_obs::static_counter!("drbac.wallet.monitor.invalidated.count").inc();
        drbac_obs::event!(
            "drbac.wallet.monitor.invalidated",
            "reason" => event.reason.to_string(),
        );
        for cb in self.callbacks.lock().iter() {
            cb(&new_status);
        }
    }
}

impl Drop for MonitorCore {
    fn drop(&mut self) {
        if let Some((index, handle)) = self.registration.get() {
            if let Some(index) = index.upgrade() {
                drop(index.remove(*handle));
            }
        }
    }
}

impl fmt::Debug for MonitorCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorCore")
            .field("proof", &self.proof.to_string())
            .field("status", &*self.status.lock())
            .finish()
    }
}

/// A proof wrapped with continuous monitoring (paper §4.2.2).
///
/// "What [a query] returns is a proof wrapped in a proof monitor object.
/// Proof monitors register delegation subscriptions ... for each
/// delegation in the proof" and notify the requester through a callback
/// when any of them is invalidated.
///
/// Cheap to clone; clones share status and callbacks.
#[derive(Clone, Debug)]
pub struct ProofMonitor {
    pub(crate) core: Arc<MonitorCore>,
}

impl ProofMonitor {
    /// The monitored proof.
    pub fn proof(&self) -> &Proof {
        &self.core.proof
    }

    /// Effective attribute values computed when the proof was validated.
    pub fn summary(&self) -> &AttrSummary {
        &self.core.summary
    }

    /// Current status.
    pub fn status(&self) -> MonitorStatus {
        self.core.status.lock().clone()
    }

    /// `true` while every delegation in the proof remains valid.
    pub fn is_valid(&self) -> bool {
        self.status().is_valid()
    }

    /// Registers a callback fired (once) when the proof is invalidated.
    /// If the proof is already invalid the callback fires immediately.
    pub fn on_invalidate(&self, cb: impl Fn(&MonitorStatus) + Send + Sync + 'static) {
        // Read before taking the list, so a callback may call this from
        // inside a delivery (which holds the list); re-read under it, so
        // a delivery that flips the status meanwhile still fires `cb`.
        let mut status = self.status();
        if status.is_valid() {
            let mut callbacks = self.core.callbacks.lock();
            status = self.status();
            if status.is_valid() {
                return callbacks.push(Box::new(cb));
            }
        }
        cb(&status);
    }

    /// The delegation ids this monitor subscribes to.
    pub fn watched(&self) -> &BTreeSet<DelegationId> {
        self.core.watched()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{LocalEntity, Node, Proof, ProofStep};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample_proof() -> Proof {
        let mut rng = StdRng::seed_from_u64(41);
        let g = SchnorrGroup::test_256();
        let a = LocalEntity::generate("A", g.clone(), &mut rng);
        let m = LocalEntity::generate("M", g, &mut rng);
        let cert = a
            .delegate(Node::entity(&m), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        Proof::from_steps(vec![ProofStep::new(cert)]).unwrap()
    }

    #[test]
    fn deliver_flips_status_once_and_fires_callbacks() {
        let proof = sample_proof();
        let id = *proof.delegation_ids().iter().next().unwrap();
        let core = MonitorCore::new(proof, AttrSummary::default());
        let monitor = ProofMonitor {
            core: Arc::clone(&core),
        };

        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        monitor.on_invalidate(move |status| {
            assert!(!status.is_valid());
            fired2.fetch_add(1, Ordering::SeqCst);
        });

        assert!(monitor.is_valid());
        core.deliver(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Revoked,
        });
        assert!(!monitor.is_valid());
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // Second delivery is a no-op (first cause wins).
        core.deliver(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Expired,
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        match monitor.status() {
            MonitorStatus::Invalidated { reason, .. } => {
                assert_eq!(reason, InvalidationReason::Revoked)
            }
            MonitorStatus::Valid => panic!("should be invalidated"),
        }
    }

    #[test]
    fn events_for_unwatched_delegations_ignored() {
        let core = MonitorCore::new(sample_proof(), AttrSummary::default());
        core.deliver(DelegationEvent {
            delegation: DelegationId([9; 32]),
            reason: InvalidationReason::Revoked,
        });
        assert!(core.status.lock().is_valid());
    }

    #[test]
    fn late_callback_on_already_invalid_fires_immediately() {
        let proof = sample_proof();
        let id = *proof.delegation_ids().iter().next().unwrap();
        let core = MonitorCore::new(proof, AttrSummary::default());
        let monitor = ProofMonitor {
            core: Arc::clone(&core),
        };
        core.deliver(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Expired,
        });

        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        monitor.on_invalidate(move |_| {
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    /// A callback registering another on the same monitor from inside
    /// the delivery (which holds the callback list) fires it at once.
    #[test]
    fn a_callback_may_register_another_during_delivery() {
        let proof = sample_proof();
        let id = *proof.delegation_ids().iter().next().unwrap();
        let core = MonitorCore::new(proof, AttrSummary::default());
        let monitor = ProofMonitor {
            core: Arc::clone(&core),
        };
        let fired = Arc::new(AtomicUsize::new(0));
        let (inner, count) = (monitor.clone(), Arc::clone(&fired));
        monitor.on_invalidate(move |_| {
            let count = Arc::clone(&count);
            inner.on_invalidate(move |_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        core.deliver(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Revoked,
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clones_share_status() {
        let proof = sample_proof();
        let id = *proof.delegation_ids().iter().next().unwrap();
        let core = MonitorCore::new(proof, AttrSummary::default());
        let m1 = ProofMonitor {
            core: Arc::clone(&core),
        };
        let m2 = m1.clone();
        core.deliver(DelegationEvent {
            delegation: id,
            reason: InvalidationReason::Revoked,
        });
        assert!(!m1.is_valid());
        assert!(!m2.is_valid());
    }
}
