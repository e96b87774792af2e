//! Signed delegation certificates.

use std::fmt;

use crate::delegation::Delegation;
use crate::signed::Signed;

/// Content-addressed identity of a delegation: the SHA-256 of its
/// signing bytes ([`Delegation::wire_bytes`]). Two structurally identical
/// delegations share an id; reissues are distinguished by the serial
/// field inside the body.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DelegationId(pub [u8; 32]);

impl fmt::Display for DelegationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DelegationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DelegationId({self})")
    }
}

/// A delegation signed by its issuer: the credential that circulates
/// between wallets.
///
/// # Example
///
/// ```
/// use drbac_core::{LocalEntity, Node, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let a = LocalEntity::generate("A", SchnorrGroup::test_256(), &mut rng);
/// let b = LocalEntity::generate("B", SchnorrGroup::test_256(), &mut rng);
/// let cert = a.delegate(Node::entity(&b), Node::role(a.role("r"))).sign(&a)?;
/// assert!(cert.verify(Timestamp(0)).is_ok());
/// # Ok::<(), drbac_core::ValidationError>(())
/// ```
pub type SignedDelegation = Signed<Delegation>;

impl Signed<Delegation> {
    /// The delegation body.
    pub fn delegation(&self) -> &Delegation {
        self.body()
    }

    /// The content-addressed id (memoized after the first call).
    pub fn id(&self) -> DelegationId {
        DelegationId(self.digest())
    }
}

impl fmt::Display for SignedDelegation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} #{}", self.delegation(), self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalEntity, Node, Timestamp, ValidationError};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn local(name: &str, seed: u64) -> LocalEntity {
        LocalEntity::generate(
            name,
            SchnorrGroup::test_256(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn sign_requires_matching_issuer() {
        let a = local("A", 1);
        let b = local("B", 2);
        let d = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .build();
        assert!(matches!(
            SignedDelegation::sign(d.clone(), &b),
            Err(ValidationError::WrongSigner { .. })
        ));
        assert!(SignedDelegation::sign(d, &a).is_ok());
    }

    #[test]
    fn verify_enforces_expiry() {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .expires(Timestamp(100))
            .sign(&a)
            .unwrap();
        assert!(cert.verify(Timestamp(100)).is_ok());
        assert!(matches!(
            cert.verify(Timestamp(101)),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn id_is_content_addressed() {
        let a = local("A", 1);
        let b = local("B", 2);
        let c1 = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        let c2 = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        assert_eq!(c1.id(), c2.id());
        let c3 = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .serial(1)
            .sign(&a)
            .unwrap();
        assert_ne!(c1.id(), c3.id());
    }

    #[test]
    fn display_contains_id() {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        assert!(cert.to_string().contains('#'));
    }
}
