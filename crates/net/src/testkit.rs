//! The fixture the host, simulator, audit, wire and discovery unit tests
//! share, and the lock the tests that install a trace recorder take.

use drbac_core::{
    DiscoveryTag, LocalEntity, Node, Proof, ProofStep, SignedDelegation, SignedRevocation,
    SimClock, Ticks,
};
use drbac_crypto::SchnorrGroup;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

use crate::proto::Request;
use crate::sim::SimNet;

pub(crate) struct Fx {
    pub clock: SimClock,
    /// An empty network on `clock`, one tick of latency each way.
    pub net: SimNet,
    pub a: LocalEntity,
    pub m: LocalEntity,
    /// A second namespace owner, for cross-namespace chains.
    pub b: LocalEntity,
}

/// The process has one trace recorder: a unit test that installs one
/// holds this lock until it has cleared it again.
pub(crate) static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub(crate) fn fx() -> Fx {
    let mut rng = StdRng::seed_from_u64(81);
    let g = SchnorrGroup::test_256();
    let clock = SimClock::new();
    Fx {
        net: SimNet::new(clock.clone(), Ticks(1)),
        clock,
        a: LocalEntity::generate("A", g.clone(), &mut rng),
        m: LocalEntity::generate("M", g.clone(), &mut rng),
        b: LocalEntity::generate("B", g, &mut rng),
    }
}

impl Fx {
    /// `M → A.<role>`, self-certifying, cacheable for 10 ticks.
    pub fn cert(&self, role: &str) -> SignedDelegation {
        self.a
            .delegate(Node::entity(&self.m), Node::role(self.a.role(role)))
            .subject_tag(DiscoveryTag::new("home").with_ttl(Ticks(10)))
            .sign(&self.a)
            .unwrap()
    }

    /// `M ⇒ A.<role>?`
    pub fn query(&self, role: &str) -> Request {
        Request::DirectQuery {
            subject: Node::entity(&self.m),
            object: Node::role(self.a.role(role)),
            constraints: vec![],
        }
    }

    /// `A`'s signed revocation of `cert`, as a request.
    pub fn revoke(&self, cert: &SignedDelegation) -> Request {
        Request::Revoke(SignedRevocation::revoke(cert, &self.a, self.clock.now()).unwrap())
    }
}

pub(crate) fn publish(cert: &SignedDelegation) -> Request {
    Request::Publish {
        cert: Arc::new(cert.clone()),
        supports: vec![],
    }
}

pub(crate) fn proof_of(cert: &SignedDelegation) -> Proof {
    Proof::from_steps(vec![ProofStep::new(cert.clone())]).unwrap()
}
