//! Revocation notices.
//!
//! The paper monitors "the status of revocable credentials" through
//! delegation subscriptions; the status change itself is communicated by a
//! signed revocation notice from the original issuer. Wallets verify the
//! notice, drop or mark the delegation, and push the update to
//! subscribers.

use std::fmt;

use crate::cert::{DelegationId, SignedDelegation};
use crate::clock::Timestamp;
use crate::entity::{EntityId, LocalEntity};
use crate::error::ValidationError;
use crate::signed::{Body, Signed};
use crate::wire::{Decode, DecodeError, Encode, Reader, Writer};

/// An unsigned revocation body naming the delegation being withdrawn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationNotice {
    /// The delegation being revoked.
    pub delegation: DelegationId,
    /// The revoking entity (must equal the delegation's issuer).
    pub issuer: EntityId,
    /// When the revocation takes effect.
    pub at: Timestamp,
}

impl Body for RevocationNotice {
    const SIGN_TAG: &'static [u8] = b"drbac-revocation-v1";
    const WIRE_TAG: &'static [u8] = b"drbac-signed-revocation-v1";

    fn signer(&self) -> EntityId {
        self.issuer
    }
}

impl Encode for RevocationNotice {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.delegation.0);
        self.issuer.encode(w);
        w.u64(self.at.0);
    }
}

impl Decode for RevocationNotice {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let id: [u8; 32] = r
            .bytes()?
            .try_into()
            .map_err(|_| DecodeError::Invalid("delegation id must be 32 bytes".into()))?;
        Ok(RevocationNotice {
            delegation: DelegationId(id),
            issuer: EntityId::decode(r)?,
            at: Timestamp(r.u64()?),
        })
    }
}

/// A revocation notice signed by the delegation's issuer.
///
/// # Example
///
/// ```
/// use drbac_core::{LocalEntity, Node, SignedRevocation, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(8);
/// let a = LocalEntity::generate("A", SchnorrGroup::test_256(), &mut rng);
/// let b = LocalEntity::generate("B", SchnorrGroup::test_256(), &mut rng);
/// let cert = a.delegate(Node::entity(&b), Node::role(a.role("r"))).sign(&a)?;
/// let revocation = SignedRevocation::revoke(&cert, &a, Timestamp(5))?;
/// assert!(revocation.verify_against(&cert).is_ok());
/// # Ok::<(), drbac_core::ValidationError>(())
/// ```
pub type SignedRevocation = Signed<RevocationNotice>;

impl Signed<RevocationNotice> {
    /// Revokes `cert`, signing as `issuer`.
    ///
    /// # Errors
    ///
    /// [`ValidationError::WrongSigner`] if `issuer` did not issue `cert`.
    pub fn revoke(
        cert: &SignedDelegation,
        issuer: &LocalEntity,
        at: Timestamp,
    ) -> Result<Self, ValidationError> {
        if issuer.id() != cert.delegation().issuer() {
            return Err(ValidationError::WrongSigner {
                expected: cert.delegation().issuer(),
                got: issuer.id(),
            });
        }
        let notice = RevocationNotice {
            delegation: cert.id(),
            issuer: issuer.id(),
            at,
        };
        Signed::sign(notice, issuer)
    }

    /// The revocation body.
    pub fn notice(&self) -> &RevocationNotice {
        self.body()
    }

    /// The revoked delegation's id.
    pub fn delegation_id(&self) -> DelegationId {
        self.notice().delegation
    }

    /// Verifies the signature and signer identity in isolation, once per
    /// instance.
    ///
    /// # Errors
    ///
    /// [`ValidationError::WrongSigner`] or [`ValidationError::BadSignature`].
    pub fn verify(&self) -> Result<(), ValidationError> {
        self.check_signature()
    }

    /// Verifies the notice *and* that it actually targets `cert` and was
    /// issued by `cert`'s issuer — the check a wallet performs before
    /// honoring a revocation.
    ///
    /// # Errors
    ///
    /// [`ValidationError`] for the first failed check; `TargetMismatch` if
    /// the notice names a different delegation.
    pub fn verify_against(&self, cert: &SignedDelegation) -> Result<(), ValidationError> {
        self.verify()?;
        let notice = self.notice();
        if notice.delegation != cert.id() {
            return Err(ValidationError::TargetMismatch {
                expected: cert.id().to_string(),
                got: notice.delegation.to_string(),
            });
        }
        if notice.issuer != cert.delegation().issuer() {
            return Err(ValidationError::WrongSigner {
                expected: cert.delegation().issuer(),
                got: notice.issuer,
            });
        }
        Ok(())
    }
}

impl fmt::Display for SignedRevocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let notice = self.notice();
        write!(
            f,
            "revoke #{} by {} at {}",
            notice.delegation, notice.issuer, notice.at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Node;
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
    fn only_issuer_may_revoke() {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        assert!(matches!(
            SignedRevocation::revoke(&cert, &b, Timestamp(1)),
            Err(ValidationError::WrongSigner { .. })
        ));
        let rev = SignedRevocation::revoke(&cert, &a, Timestamp(1)).unwrap();
        assert!(rev.verify().is_ok());
        assert!(rev.verify_against(&cert).is_ok());
    }

    #[test]
    fn revocation_targets_specific_delegation() {
        let a = local("A", 1);
        let b = local("B", 2);
        let c1 = a
            .delegate(Node::entity(&b), Node::role(a.role("r1")))
            .sign(&a)
            .unwrap();
        let c2 = a
            .delegate(Node::entity(&b), Node::role(a.role("r2")))
            .sign(&a)
            .unwrap();
        let rev = SignedRevocation::revoke(&c1, &a, Timestamp(1)).unwrap();
        assert!(rev.verify_against(&c1).is_ok());
        assert!(matches!(
            rev.verify_against(&c2),
            Err(ValidationError::TargetMismatch { .. })
        ));
    }
}
