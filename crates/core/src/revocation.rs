//! Revocation notices.
//!
//! The paper monitors "the status of revocable credentials" through
//! delegation subscriptions; the status change itself is communicated by a
//! signed revocation notice from the original issuer. Wallets verify the
//! notice, drop or mark the delegation, and push the update to
//! subscribers.

use std::fmt;

use drbac_crypto::{PublicKey, Signature};

use crate::cert::{DelegationId, SignedDelegation};
use crate::clock::Timestamp;
use crate::entity::{EntityId, LocalEntity};
use crate::error::ValidationError;
use crate::wire::{Encode, Writer};

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

impl RevocationNotice {
    /// Canonical signing bytes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut w = Writer::tagged(b"drbac-revocation-v1");
        w.bytes(&self.delegation.0);
        self.issuer.encode(&mut w);
        w.u64(self.at.0);
        w.finish()
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
#[derive(Debug, Clone, PartialEq)]
pub struct SignedRevocation {
    notice: RevocationNotice,
    issuer_key: PublicKey,
    signature: Signature,
}

impl SignedRevocation {
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
        let signature = issuer.sign_bytes(&notice.wire_bytes());
        Ok(SignedRevocation {
            notice,
            issuer_key: issuer.public_key().clone(),
            signature,
        })
    }

    /// The revocation body.
    pub fn notice(&self) -> &RevocationNotice {
        &self.notice
    }

    /// The revoked delegation's id.
    pub fn delegation_id(&self) -> DelegationId {
        self.notice.delegation
    }

    /// Verifies the signature and signer identity in isolation.
    ///
    /// # Errors
    ///
    /// [`ValidationError::WrongSigner`] or [`ValidationError::BadSignature`].
    pub fn verify(&self) -> Result<(), ValidationError> {
        let signer = EntityId(self.issuer_key.fingerprint());
        if signer != self.notice.issuer {
            return Err(ValidationError::WrongSigner {
                expected: self.notice.issuer,
                got: signer,
            });
        }
        if !self
            .issuer_key
            .verify(&self.notice.wire_bytes(), &self.signature)
        {
            return Err(ValidationError::BadSignature);
        }
        Ok(())
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
        if self.notice.delegation != cert.id() {
            return Err(ValidationError::TargetMismatch {
                expected: cert.id().to_string(),
                got: self.notice.delegation.to_string(),
            });
        }
        if self.notice.issuer != cert.delegation().issuer() {
            return Err(ValidationError::WrongSigner {
                expected: cert.delegation().issuer(),
                got: self.notice.issuer,
            });
        }
        Ok(())
    }
}

impl SignedRevocation {
    /// Serializes the signed notice into its canonical wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::wire::{Encode, Writer};
        let mut w = Writer::tagged(b"drbac-signed-revocation-v1");
        w.bytes(&self.notice.delegation.0);
        self.notice.issuer.encode(&mut w);
        w.u64(self.notice.at.0);
        self.issuer_key.encode(&mut w);
        self.signature.encode(&mut w);
        w.finish()
    }

    /// Deserializes a notice produced by [`SignedRevocation::to_bytes`];
    /// call [`SignedRevocation::verify`] before trusting it.
    ///
    /// # Errors
    ///
    /// [`crate::wire::DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::wire::DecodeError> {
        use crate::wire::{Decode, DecodeError, Reader};
        let mut r = Reader::tagged(bytes, b"drbac-signed-revocation-v1")?;
        let id_bytes: [u8; 32] = r
            .bytes()?
            .try_into()
            .map_err(|_| DecodeError::Invalid("delegation id must be 32 bytes".into()))?;
        let issuer = EntityId::decode(&mut r)?;
        let at = Timestamp(r.u64()?);
        let issuer_key = PublicKey::decode(&mut r)?;
        let signature = Signature::decode(&mut r)?;
        r.finish()?;
        Ok(SignedRevocation {
            notice: RevocationNotice {
                delegation: DelegationId(id_bytes),
                issuer,
                at,
            },
            issuer_key,
            signature,
        })
    }
}

impl fmt::Display for SignedRevocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "revoke #{} by {} at {}",
            self.notice.delegation, self.notice.issuer, self.notice.at
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

    #[test]
    fn forged_revocation_rejected() {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        let mut rev = SignedRevocation::revoke(&cert, &a, Timestamp(1)).unwrap();
        // Forge: claim a different effect time without re-signing.
        rev.notice.at = Timestamp(999);
        assert_eq!(rev.verify(), Err(ValidationError::BadSignature));
    }
}
