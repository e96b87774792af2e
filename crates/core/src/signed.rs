//! The signed envelope.
//!
//! Every object that crosses a wallet boundary is a body signed by the
//! entity it names: a delegation by its issuer, a revocation notice by
//! the delegation's issuer, an attribute declaration by the namespace
//! owner. [`Signed<B>`] is that one shape, with one sign, one encoding
//! and one verify:
//!
//! * signing bytes = `Writer::tagged(B::SIGN_TAG)` + body fields;
//! * wire form = `Writer::tagged(B::WIRE_TAG)` + body fields + issuer
//!   key + signature.
//!
//! A `Signed<B>` has private fields and no mutator, so once an instance
//! has passed its signature check it cannot change: "verified" is a
//! set-once flag, kept by clones and dropped by decoding.

use std::sync::OnceLock;

use drbac_crypto::{sha256, PublicKey, Signature};

use crate::clock::Timestamp;
use crate::entity::{EntityId, LocalEntity};
use crate::error::ValidationError;
use crate::wire::{encode_tagged, Decode, DecodeError, Encode, Reader, Writer};

/// What an issuer signs. Public only so it can bound [`Signed`]; this
/// module is private, so the three bodies in this crate are the only
/// implementations.
pub trait Body: Encode + Decode {
    /// Domain-separation tag of the signing bytes.
    const SIGN_TAG: &'static [u8];
    /// Domain-separation tag of the signed wire form.
    const WIRE_TAG: &'static [u8];

    /// The entity whose key must sign this body.
    fn signer(&self) -> EntityId;

    /// The canonical bytes the signature covers.
    fn signing_bytes(&self) -> Vec<u8> {
        encode_tagged(Self::SIGN_TAG, self)
    }
}

/// A body that can expire, so verifying it takes the time. (A revocation
/// notice never expires; its `verify` takes no argument.)
pub trait Expiring: Body {
    /// Expiration instant, if any.
    fn expires(&self) -> Option<Timestamp>;
}

/// A body signed by the entity it names, used through
/// [`crate::SignedDelegation`], [`crate::SignedRevocation`] and
/// [`crate::SignedAttrDeclaration`].
///
/// The signature covers the body's canonical encoding under its signing
/// tag; the wire form is body, issuer key and signature under the body's
/// wire tag. An instance never changes after construction, so a
/// successful signature check is remembered for it (and its clones);
/// decoding yields an instance that is not yet verified.
#[derive(Debug, Clone)]
pub struct Signed<B> {
    body: B,
    issuer_key: PublicKey,
    signature: Signature,
    /// SHA-256 of the signing bytes, computed on first use (a
    /// delegation's id; the graph search asks for it on every edge).
    digest: OnceLock<[u8; 32]>,
    /// Set once the signer and signature checked. Sound because the
    /// fields above never change after construction; decoding yields an
    /// unset flag. Neither memo is part of the wire form or of equality.
    verified: OnceLock<()>,
}

impl<B: PartialEq> PartialEq for Signed<B> {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body
            && self.issuer_key == other.issuer_key
            && self.signature == other.signature
    }
}

impl<B: Body> Signed<B> {
    fn new(body: B, issuer_key: PublicKey, signature: Signature) -> Self {
        Signed {
            body,
            issuer_key,
            signature,
            digest: OnceLock::new(),
            verified: OnceLock::new(),
        }
    }

    /// Signs `body` as `issuer`.
    ///
    /// # Errors
    ///
    /// [`ValidationError::WrongSigner`] if `issuer` is not the entity the
    /// body names as its signer.
    pub fn sign(body: B, issuer: &LocalEntity) -> Result<Self, ValidationError> {
        let expected = body.signer();
        if issuer.id() != expected {
            return Err(ValidationError::WrongSigner {
                expected,
                got: issuer.id(),
            });
        }
        let signature = issuer.sign_bytes(&body.signing_bytes());
        Ok(Signed::new(body, issuer.public_key().clone(), signature))
    }

    pub(crate) fn body(&self) -> &B {
        &self.body
    }

    pub(crate) fn digest(&self) -> [u8; 32] {
        *self
            .digest
            .get_or_init(|| sha256(&self.body.signing_bytes()))
    }

    /// The issuer's public key as attached to the credential.
    pub fn issuer_key(&self) -> &PublicKey {
        &self.issuer_key
    }

    /// Serializes the body, issuer key and signature into the canonical
    /// wire form, suitable for transmission or storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_tagged(B::WIRE_TAG, self)
    }

    /// Appends [`Signed::to_bytes`] to `w` as one length-prefixed byte
    /// string — what `w.bytes(&self.to_bytes())` appends — without
    /// building the bytes apart.
    pub fn encode_as_bytes(&self, w: &mut Writer) {
        w.tagged_bytes(B::WIRE_TAG, self);
    }

    /// Deserializes the output of `to_bytes`. The result is structurally
    /// valid but **not yet verified**; call `verify` before trusting it.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input, including trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::tagged(bytes, B::WIRE_TAG)?;
        let signed = Self::decode(&mut r)?;
        r.finish()?;
        Ok(signed)
    }

    /// The attached key belongs to the named signer and the signature
    /// covers the signing bytes. The first success sets the verified
    /// flag; later calls on this instance (or its clones) return at once.
    pub(crate) fn check_signature(&self) -> Result<(), ValidationError> {
        if self.verified.get().is_some() {
            return Ok(());
        }
        let expected = self.body.signer();
        let got = EntityId(self.issuer_key.fingerprint());
        if got != expected {
            return Err(ValidationError::WrongSigner { expected, got });
        }
        drbac_obs::static_counter!("drbac.core.cert.sig_check.count").inc();
        if !self
            .issuer_key
            .verify(&self.body.signing_bytes(), &self.signature)
        {
            return Err(ValidationError::BadSignature);
        }
        let _ = self.verified.set(());
        Ok(())
    }

    /// Adopts `verified`'s verified flag when this credential is byte for
    /// byte the same one (body, key, signature), so a copy that arrives
    /// over the wire — decoding drops the flag — is not re-checked
    /// against a signature an equal instance already passed. Returns
    /// whether the flag was adopted.
    ///
    /// The body is compared by its signing-bytes digest, not by `==`:
    /// `0.0 == -0.0` although their encodings (and so what the signature
    /// covers) differ.
    pub fn adopt_signature_memo(&self, verified: &Self) -> bool {
        let twin = verified.verified.get().is_some()
            && self.issuer_key == verified.issuer_key
            && self.signature == verified.signature
            && self.digest() == verified.digest();
        if twin {
            let _ = self.verified.set(());
        }
        twin
    }
}

impl<B: Expiring> Signed<B> {
    /// Verifies the credential in isolation: the attached key belongs to
    /// the named signer, the signature covers the signing bytes, and the
    /// body has not expired at `now`. (Third-party *authority* is a
    /// proof-level property; see [`crate::ProofValidator`].)
    ///
    /// The signature half is checked once per instance; expiry is
    /// re-evaluated on every call.
    ///
    /// # Errors
    ///
    /// [`ValidationError`] for the first failed check.
    pub fn verify(&self, now: Timestamp) -> Result<(), ValidationError> {
        self.check_signature()?;
        match self.body.expires() {
            Some(at) if now > at => Err(ValidationError::Expired { at, now }),
            _ => Ok(()),
        }
    }
}

impl<B: Body> Encode for Signed<B> {
    fn encode(&self, w: &mut Writer) {
        self.body.encode(w);
        self.issuer_key.encode(w);
        self.signature.encode(w);
    }
}

impl<B: Body> Decode for Signed<B> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let body = B::decode(r)?;
        let issuer_key = PublicKey::decode(r)?;
        let signature = Signature::decode(r)?;
        Ok(Signed::new(body, issuer_key, signature))
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use super::*;
    use crate::{
        AttrDeclaration, AttrOp, DiscoveryTag, Node, RevocationNotice, SignedAttrDeclaration,
        SignedDelegation, SignedRevocation, SubjectFlag, Ticks,
    };
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

    /// One fixed credential of each kind, all issued by `a` (signing is
    /// deterministic, so their bytes are too).
    struct World {
        a: LocalEntity,
        b: LocalEntity,
        cert: SignedDelegation,
        rev: SignedRevocation,
        decl: SignedAttrDeclaration,
    }

    fn world() -> World {
        let a = local("A", 1);
        let b = local("B", 2);
        let cert = a
            .delegate(Node::entity(&b), Node::role(a.role("r")))
            .with_attr(a.attr("BW", AttrOp::Min), 100.0)
            .unwrap()
            .expires(Timestamp(1000))
            .subject_tag(DiscoveryTag::new("b.example").with_subject_flag(SubjectFlag::Search))
            .object_tag(DiscoveryTag::new("a.example").with_ttl(Ticks(60)))
            .sign(&a)
            .unwrap();
        let rev = SignedRevocation::revoke(&cert, &a, Timestamp(5)).unwrap();
        let mut decl = AttrDeclaration::new(a.attr("BW", AttrOp::Min), 200.0).unwrap();
        decl.expires = Some(Timestamp(2000));
        let decl = SignedAttrDeclaration::sign(decl, &a).unwrap();
        World {
            a,
            b,
            cert,
            rev,
            decl,
        }
    }

    fn sha256_hex(bytes: &[u8]) -> String {
        sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `(SHA-256 of the wire form, SHA-256 of the signing bytes)`.
    fn pin<B: Body>(signed: &Signed<B>) -> (String, String) {
        (
            sha256_hex(&signed.to_bytes()),
            sha256_hex(&signed.body().signing_bytes()),
        )
    }

    /// The wire and signing bytes of every kind, pinned: any drift in an
    /// encoding, a tag or the signature fails here.
    #[test]
    fn known_answer_bytes() {
        let w = world();
        let expect = |wire: &str, signing: &str| (wire.to_string(), signing.to_string());
        assert_eq!(
            pin(&w.cert),
            expect(
                "ca496d868741296e4d91a376773e8999a5036b0f35cb7a7fbb8adf83db0983ca",
                "5fef739a53ac5726153d13b19cb6c1112d18c5af6bed6323577e2456db03e523",
            )
        );
        assert_eq!(
            pin(&w.rev),
            expect(
                "0d18e67c4551ea30e72bfd08ef65a980c77eacfd75a35e3557482454127447cf",
                "8e6eca82cc32401cf100ff117c2d3ce5f207cac2d6857f3176b0ec1fbae6f83b",
            )
        );
        assert_eq!(
            pin(&w.decl),
            expect(
                "bfbe0fa7a4fe520dcb2b420e74486a6fbc87d9da28e63555bebf84b018699ce9",
                "e3dd0ea9798e8e50e2551831491b24d0e8416bb307664647a31ec001e56c9a89",
            )
        );
        assert_eq!(w.cert.id().0, sha256(&w.cert.delegation().wire_bytes()));
    }

    /// Wire bytes of a credential assembled from parts, the way a forger
    /// would splice them.
    fn wire<B: Body>(body: &B, key: &PublicKey, signature: &Signature) -> Vec<u8> {
        let mut w = Writer::tagged(B::WIRE_TAG);
        body.encode(&mut w);
        key.encode(&mut w);
        signature.encode(&mut w);
        w.finish()
    }

    fn forge<B: Body>(body: &B, key: &PublicKey, signature: &Signature) -> Signed<B> {
        Signed::from_bytes(&wire(body, key, signature)).expect("spliced bytes decode")
    }

    fn is_verified<B>(signed: &Signed<B>) -> bool {
        signed.verified.get().is_some()
    }

    /// Every memo, tamper and hostile-decode case, for one body kind.
    /// `fresh` is a never-verified credential signed by `signer`;
    /// `other_body` differs from its body but names the same signer.
    fn envelope_cases<B: Body + Clone + PartialEq + Debug>(
        fresh: &Signed<B>,
        other_body: &B,
        signer: &LocalEntity,
        stranger: &LocalEntity,
        verify: impl Fn(&Signed<B>) -> Result<(), ValidationError>,
    ) {
        let bytes = fresh.to_bytes();
        let (body, key, sig) = (&fresh.body, &fresh.issuer_key, &fresh.signature);

        // The flag is set by the first successful check and kept by clones.
        assert!(!is_verified(fresh));
        assert_eq!(verify(fresh), Ok(()));
        assert!(is_verified(fresh));
        let clone = fresh.clone();
        assert!(is_verified(&clone));
        assert_eq!(verify(&clone), Ok(()));

        // Decoding drops it: a copy off the wire is checked afresh.
        let copy = Signed::<B>::from_bytes(&bytes).unwrap();
        assert_eq!(&copy, fresh);
        assert!(!is_verified(&copy));
        assert_eq!(verify(&copy), Ok(()));

        // A different body under the original signature.
        let tampered = forge(other_body, key, sig);
        assert_eq!(verify(&tampered), Err(ValidationError::BadSignature));
        assert!(!is_verified(&tampered));

        // Another (valid) key: the signer mismatch is caught first.
        let swapped = forge(body, stranger.public_key(), sig);
        assert!(matches!(
            verify(&swapped),
            Err(ValidationError::WrongSigner { .. })
        ));

        // Adoption needs a verified, byte-identical twin.
        let unverified = Signed::<B>::from_bytes(&bytes).unwrap();
        let twin = Signed::<B>::from_bytes(&bytes).unwrap();
        assert!(!twin.adopt_signature_memo(&unverified));
        assert!(twin.adopt_signature_memo(fresh));
        assert!(is_verified(&twin));
        assert_eq!(verify(&twin), Ok(()));

        // Same body (same digest), different signature bytes: no adoption,
        // and the full check rejects it.
        let other_sig = Signed::sign(other_body.clone(), signer).unwrap().signature;
        let resigned = forge(body, key, &other_sig);
        assert_eq!(resigned.digest(), fresh.digest());
        assert!(!resigned.adopt_signature_memo(fresh));
        assert_eq!(verify(&resigned), Err(ValidationError::BadSignature));

        // Same for different key bytes.
        let rekeyed = forge(body, stranger.public_key(), sig);
        assert!(!rekeyed.adopt_signature_memo(fresh));
        assert!(verify(&rekeyed).is_err());

        // Hostile input: a trailing byte, or any truncation.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Signed::<B>::from_bytes(&trailing).is_err());
        for len in 0..bytes.len() {
            assert!(Signed::<B>::from_bytes(&bytes[..len]).is_err(), "{len}");
        }
    }

    #[test]
    fn delegation_envelope() {
        let w = world();
        let other =
            w.a.delegate(Node::entity(&w.b), Node::role(w.a.role("r")))
                .serial(99)
                .build();
        envelope_cases(&w.cert, &other, &w.a, &w.b, |c| c.verify(Timestamp(0)));
    }

    #[test]
    fn revocation_envelope() {
        let w = world();
        let other = RevocationNotice {
            at: Timestamp(999),
            ..w.rev.notice().clone()
        };
        envelope_cases(&w.rev, &other, &w.a, &w.b, |r| r.verify());
    }

    #[test]
    fn declaration_envelope() {
        let w = world();
        let other = AttrDeclaration {
            base: 150.0,
            ..w.decl.declaration().clone()
        };
        envelope_cases(&w.decl, &other, &w.a, &w.b, |d| d.verify(Timestamp(0)));

        // A declaration's base must be finite on the wire too.
        let d = &w.decl;
        for base in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let hostile = AttrDeclaration {
                base,
                ..d.declaration().clone()
            };
            assert!(matches!(
                SignedAttrDeclaration::from_bytes(&wire(&hostile, &d.issuer_key, &d.signature)),
                Err(DecodeError::Invalid(_))
            ));
        }
    }

    /// `0.0 == -0.0`, but their encodings (and so the bytes a signature
    /// covers) differ: adoption compares the digest, not `==`.
    #[test]
    fn adoption_is_not_fooled_by_signed_zero() {
        let a = local("A", 1);
        let b = local("B", 2);
        let clause = |x: f64| {
            a.delegate(Node::entity(&b), Node::role(a.role("r")))
                .with_attr(a.attr("BW", AttrOp::Min), x)
                .unwrap()
        };
        let stored = clause(0.0).sign(&a).unwrap();
        stored.verify(Timestamp(0)).unwrap();
        let twin = forge(&clause(-0.0).build(), &stored.issuer_key, &stored.signature);
        assert_eq!(twin, stored);
        assert_ne!(twin.id(), stored.id());
        assert!(!twin.adopt_signature_memo(&stored));
        assert_eq!(
            twin.verify(Timestamp(0)),
            Err(ValidationError::BadSignature)
        );
    }
}
