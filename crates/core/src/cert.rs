//! Signed delegation certificates.

use std::fmt;
use std::sync::OnceLock;

use drbac_crypto::{sha256, PublicKey, Signature};

use crate::clock::Timestamp;
use crate::delegation::Delegation;
use crate::entity::{EntityId, LocalEntity};
use crate::error::ValidationError;

/// Content-addressed identity of a delegation: the SHA-256 of its
/// canonical wire bytes. Two structurally identical delegations share an
/// id; reissues are distinguished by the serial field inside the body.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DelegationId(pub [u8; 32]);

impl DelegationId {
    /// Computes the id of a delegation body.
    pub fn of(delegation: &Delegation) -> Self {
        DelegationId(sha256(&delegation.wire_bytes()))
    }
}

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
#[derive(Debug, Clone)]
pub struct SignedDelegation {
    delegation: Delegation,
    issuer_key: PublicKey,
    signature: Signature,
    /// Memoized content-addressed id. Computing a [`DelegationId`] means
    /// re-serializing the body and hashing it, and the graph search asks
    /// for the id of every edge it touches (revocation filtering), so the
    /// first computation is cached here. Not part of the wire form or of
    /// equality.
    cached_id: OnceLock<DelegationId>,
    /// Digest of the full credential (body, key, signature) at the time a
    /// signature check last *succeeded*. Signature validity is immutable —
    /// only expiry is a function of `now` — so once a credential instance
    /// has verified, revalidating it (every cold proof query re-walks the
    /// same admitted certs) only needs to re-hash and compare. The digest
    /// keying means any mutation of body, key, or signature misses the
    /// memo and takes the full check; clones of a verified instance keep
    /// it. Not part of the wire form or of equality.
    sig_ok_digest: OnceLock<[u8; 32]>,
}

impl PartialEq for SignedDelegation {
    fn eq(&self, other: &Self) -> bool {
        self.delegation == other.delegation
            && self.issuer_key == other.issuer_key
            && self.signature == other.signature
    }
}

impl SignedDelegation {
    /// Signs `delegation` with `issuer`'s key.
    ///
    /// # Errors
    ///
    /// [`ValidationError::WrongSigner`] if `issuer` is not the delegation's
    /// named issuer.
    pub fn sign(delegation: Delegation, issuer: &LocalEntity) -> Result<Self, ValidationError> {
        if issuer.id() != delegation.issuer() {
            return Err(ValidationError::WrongSigner {
                expected: delegation.issuer(),
                got: issuer.id(),
            });
        }
        let signature = issuer.sign_bytes(&delegation.wire_bytes());
        Ok(SignedDelegation {
            delegation,
            issuer_key: issuer.public_key().clone(),
            signature,
            cached_id: OnceLock::new(),
            sig_ok_digest: OnceLock::new(),
        })
    }

    /// The delegation body.
    pub fn delegation(&self) -> &Delegation {
        &self.delegation
    }

    /// The issuer's public key as attached to the credential.
    pub fn issuer_key(&self) -> &PublicKey {
        &self.issuer_key
    }

    /// The content-addressed id (memoized after the first call).
    pub fn id(&self) -> DelegationId {
        *self
            .cached_id
            .get_or_init(|| DelegationId::of(&self.delegation))
    }

    /// Serializes the full credential (body, issuer key, signature) into
    /// its canonical wire form, suitable for transmission or storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::wire::{Encode, Writer};
        let mut w = Writer::tagged(b"drbac-cert-v1");
        self.encode(&mut w);
        w.finish()
    }

    /// Deserializes a credential produced by [`SignedDelegation::to_bytes`].
    /// The result is structurally valid but **not yet verified** — call
    /// [`SignedDelegation::verify`] before trusting it.
    ///
    /// # Errors
    ///
    /// [`crate::wire::DecodeError`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::wire::DecodeError> {
        use crate::wire::{Decode, Reader};
        let mut r = Reader::tagged(bytes, b"drbac-cert-v1")?;
        let cert = SignedDelegation::decode(&mut r)?;
        r.finish()?;
        Ok(cert)
    }

    /// Verifies the credential in isolation: the attached key matches the
    /// named issuer, the signature covers the canonical bytes, and the
    /// delegation has not expired at `now`. (Third-party *authority* is a
    /// proof-level property; see [`crate::ProofValidator`].)
    ///
    /// The signature check — the expensive part — is memoized per
    /// instance: once it has succeeded, later calls re-hash the
    /// credential and compare against the digest recorded at that
    /// success, falling back to the full group-exponentiation check on
    /// any mismatch. Expiry is re-evaluated against `now` on every call.
    ///
    /// # Errors
    ///
    /// [`ValidationError`] for the first failed check.
    pub fn verify(&self, now: Timestamp) -> Result<(), ValidationError> {
        let signer = EntityId(self.issuer_key.fingerprint());
        if signer != self.delegation.issuer() {
            return Err(ValidationError::WrongSigner {
                expected: self.delegation.issuer(),
                got: signer,
            });
        }
        let digest = sha256(&self.to_bytes());
        if self.sig_ok_digest.get() != Some(&digest) {
            drbac_obs::static_counter!("drbac.core.cert.sig_check.count").inc();
            if !self
                .issuer_key
                .verify(&self.delegation.wire_bytes(), &self.signature)
            {
                return Err(ValidationError::BadSignature);
            }
            let _ = self.sig_ok_digest.set(digest);
        }
        if let Some(at) = self.delegation.expires() {
            if now > at {
                return Err(ValidationError::Expired { at, now });
            }
        }
        Ok(())
    }

    /// Adopts `verified`'s signature memo when this credential is
    /// byte-for-byte the same one (body, key, signature), so a copy
    /// that arrives over the wire — decoding drops the memo — is not
    /// re-checked against a signature an equal instance already
    /// passed. Returns whether the memo was adopted; anything that
    /// differs in any field adopts nothing and [`verify`](Self::verify)
    /// takes the full check.
    ///
    /// Sound because the memo is the digest of the full wire form at
    /// the time a check succeeded: equal bytes have an equal digest
    /// and signature validity is a pure function of those bytes.
    /// Expiry is not memoized and stays re-evaluated per call.
    pub fn adopt_signature_memo(&self, verified: &SignedDelegation) -> bool {
        match verified.sig_ok_digest.get() {
            Some(digest) if self == verified => {
                let _ = self.sig_ok_digest.set(*digest);
                true
            }
            _ => false,
        }
    }
}

impl crate::wire::Encode for SignedDelegation {
    fn encode(&self, w: &mut crate::wire::Writer) {
        self.delegation.encode(w);
        self.issuer_key.encode(w);
        self.signature.encode(w);
    }
}

impl crate::wire::Decode for SignedDelegation {
    fn decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::DecodeError> {
        let delegation = Delegation::decode(r)?;
        let issuer_key = PublicKey::decode(r)?;
        let signature = Signature::decode(r)?;
        Ok(SignedDelegation {
            delegation,
            issuer_key,
            signature,
            cached_id: OnceLock::new(),
            sig_ok_digest: OnceLock::new(),
        })
    }
}

impl fmt::Display for SignedDelegation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} #{}", self.delegation, self.id())
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
    fn verify_detects_tampering() {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        assert!(cert.verify(Timestamp(0)).is_ok());

        // Tamper with the body: signature no longer matches.
        let mut tampered = cert.clone();
        tampered.delegation.serial = 99;
        assert_eq!(
            tampered.verify(Timestamp(0)),
            Err(ValidationError::BadSignature)
        );

        // Swap in a different (valid) key: signer mismatch is caught first.
        let mut swapped = cert.clone();
        swapped.issuer_key = b.public_key().clone();
        assert!(matches!(
            swapped.verify(Timestamp(0)),
            Err(ValidationError::WrongSigner { .. })
        ));
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
    fn verify_memoizes_signature_success_across_clones() {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        assert!(cert.sig_ok_digest.get().is_none());
        assert!(cert.verify(Timestamp(0)).is_ok());
        assert!(cert.sig_ok_digest.get().is_some());

        // A clone of a verified instance keeps the memo and still verifies.
        let cloned = cert.clone();
        assert!(cloned.sig_ok_digest.get().is_some());
        assert!(cloned.verify(Timestamp(0)).is_ok());

        // Tampering with a *verified* clone misses the digest and is
        // caught by the full signature check.
        let mut tampered = cert.clone();
        tampered.delegation.serial = 7;
        assert_eq!(
            tampered.verify(Timestamp(0)),
            Err(ValidationError::BadSignature)
        );

        // The wire round-trip drops the memo: a deserialized credential
        // is unverified until checked here.
        let rt = SignedDelegation::from_bytes(&cert.to_bytes()).unwrap();
        assert!(rt.sig_ok_digest.get().is_none());
        assert!(rt.verify(Timestamp(0)).is_ok());
    }

    #[test]
    fn memo_adoption_requires_a_byte_identical_verified_twin() {
        let a = local("A", 1);
        let b = local("B", 2);
        let stored = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .sign(&a)
            .unwrap();
        let copy = SignedDelegation::from_bytes(&stored.to_bytes()).unwrap();

        // Nothing to adopt from an instance that never verified.
        assert!(!copy.adopt_signature_memo(&stored));
        assert!(stored.verify(Timestamp(0)).is_ok());

        // A byte-identical copy adopts, and then verifies on the memo.
        assert!(copy.adopt_signature_memo(&stored));
        assert_eq!(copy.sig_ok_digest.get(), stored.sig_ok_digest.get());
        assert!(copy.verify(Timestamp(0)).is_ok());

        // Same DelegationId, different signature bytes: no adoption,
        // and the full check rejects it.
        let other = a
            .delegate(Node::entity(&b), Node::role(a.role("other")))
            .sign(&a)
            .unwrap();
        let mut twin = SignedDelegation::from_bytes(&stored.to_bytes()).unwrap();
        twin.signature = other.signature.clone();
        assert_eq!(twin.id(), stored.id());
        assert!(!twin.adopt_signature_memo(&stored));
        assert_eq!(
            twin.verify(Timestamp(0)),
            Err(ValidationError::BadSignature)
        );

        // Same for different key bytes.
        let mut rekeyed = SignedDelegation::from_bytes(&stored.to_bytes()).unwrap();
        rekeyed.issuer_key = b.public_key().clone();
        assert!(!rekeyed.adopt_signature_memo(&stored));
        assert!(rekeyed.verify(Timestamp(0)).is_err());
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
