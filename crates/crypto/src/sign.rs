//! Schnorr signatures with deterministic nonces.

use drbac_bignum::BigUint;

use crate::fingerprint::KeyFingerprint;
use crate::group::{GroupId, SchnorrGroup};
use crate::keys::PublicKey;
use crate::sha256::Sha256;

/// A Schnorr signature `(e, s)` over a message, bound to a signer and
/// group.
///
/// * nonce: `k = H(tag_k ‖ x ‖ msg) mod q` (deterministic, so identical
///   inputs produce identical signatures — convenient for reproducible
///   fixtures and safe against nonce-reuse-across-messages),
/// * commitment: `r = g^k mod p`,
/// * challenge: `e = H(tag_e ‖ fingerprint ‖ r ‖ msg) mod q`,
/// * response: `s = k + x·e mod q`.
///
/// Verification recomputes `r' = g^s · y^(q−e) mod p` and checks the
/// challenge matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    group: GroupId,
    e: BigUint,
    s: BigUint,
}

const NONCE_TAG: &[u8] = b"drbac-nonce-v1";
const CHALLENGE_TAG: &[u8] = b"drbac-challenge-v1";

fn hash_to_scalar(parts: &[&[u8]], q: &BigUint) -> BigUint {
    // Expand to 512 bits before reducing so the bias is negligible even for
    // the 256-bit test group.
    let mut h0 = Sha256::new();
    h0.update(&[0]);
    for p in parts {
        h0.update(&(p.len() as u64).to_be_bytes());
        h0.update(p);
    }
    let mut h1 = Sha256::new();
    h1.update(&[1]);
    for p in parts {
        h1.update(&(p.len() as u64).to_be_bytes());
        h1.update(p);
    }
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&h0.finalize());
    wide[32..].copy_from_slice(&h1.finalize());
    BigUint::from_bytes_be(&wide).rem_ref(q)
}

impl Signature {
    /// Creates a signature; called through [`crate::KeyPair::sign`].
    pub(crate) fn create(
        group: &SchnorrGroup,
        x: &BigUint,
        public: &PublicKey,
        msg: &[u8],
    ) -> Signature {
        let q = group.q();
        let x_bytes = x.to_bytes_be();
        let mut k = hash_to_scalar(&[NONCE_TAG, &x_bytes, msg], q);
        if k.is_zero() {
            k = BigUint::one();
        }
        let r = group.pow_g(&k);
        let fp = public.fingerprint();
        let e = hash_to_scalar(&[CHALLENGE_TAG, fp.as_bytes(), &r.to_bytes_be(), msg], q);
        let s = (&k + &(x * &e)).rem_ref(q);
        Signature {
            group: group.id(),
            e,
            s,
        }
    }

    /// Verifies against a public key's group, element, and fingerprint.
    pub(crate) fn verify_with(
        &self,
        group: &SchnorrGroup,
        y: &BigUint,
        fingerprint: KeyFingerprint,
        msg: &[u8],
    ) -> bool {
        if self.group != group.id() {
            return false;
        }
        let q = group.q();
        if &self.s >= q || &self.e >= q {
            return false;
        }
        if !group.is_subgroup_element(y) {
            return false;
        }
        // r' = g^s * y^(q - e) == g^s * y^(-e)   (y has order q)
        let neg_e = if self.e.is_zero() {
            BigUint::zero()
        } else {
            q - &self.e
        };
        let gs = group.pow_g(&self.s);
        let ye = group.pow(y, &neg_e);
        let r = group.mul(&gs, &ye);
        let expected = hash_to_scalar(
            &[CHALLENGE_TAG, fingerprint.as_bytes(), &r.to_bytes_be(), msg],
            q,
        );
        expected == self.e
    }

    /// The group this signature was produced in.
    pub fn group_id(&self) -> GroupId {
        self.group
    }

    /// The challenge scalar `e`.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// The response scalar `s`.
    pub fn s(&self) -> &BigUint {
        &self.s
    }

    /// Reassembles a signature from its parts (wire decoding). An
    /// ill-formed signature simply fails verification.
    pub fn from_parts(group: GroupId, e: BigUint, s: BigUint) -> Signature {
        Signature { group, e, s }
    }

    /// Approximate encoded size in bytes (for wire accounting).
    pub fn encoded_len(&self) -> usize {
        1 + self.e.to_bytes_be().len() + self.s.to_bytes_be().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(seed: u64) -> KeyPair {
        KeyPair::generate(SchnorrGroup::test_256(), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = pair(1);
        let msgs: [&[u8]; 4] = [b"", b"a", b"hello world", &[0u8; 1000]];
        for msg in msgs {
            let sig = kp.sign(msg);
            assert!(kp.public_key().verify(msg, &sig));
        }
    }

    #[test]
    fn tampered_message_fails() {
        let kp = pair(1);
        let sig = kp.sign(b"original");
        assert!(!kp.public_key().verify(b"tampered", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let a = pair(1);
        let b = pair(2);
        let sig = a.sign(b"msg");
        assert!(!b.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_scalars_fail() {
        let kp = pair(1);
        let sig = kp.sign(b"msg");
        let mut bad = sig.clone();
        bad.s = (&bad.s + &BigUint::one()).rem_ref(kp.public_key().group().q());
        assert!(!kp.public_key().verify(b"msg", &bad));
        let mut bad = sig.clone();
        bad.e = (&bad.e + &BigUint::one()).rem_ref(kp.public_key().group().q());
        assert!(!kp.public_key().verify(b"msg", &bad));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let kp = pair(1);
        let mut sig = kp.sign(b"msg");
        sig.s = kp.public_key().group().q().clone();
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn cross_group_signature_rejected() {
        let test = pair(1);
        let modp = KeyPair::from_secret_exponent(SchnorrGroup::modp_2048(), BigUint::from(9u64));
        let sig = test.sign(b"msg");
        assert!(!modp.public_key().verify(b"msg", &sig));
    }

    /// Known-answer test pinning the exact signature bytes: any change to
    /// the canonical encoding, the hash-to-scalar construction, or the
    /// nonce derivation breaks compatibility with stored credentials and
    /// must show up here.
    #[test]
    fn known_answer_signature() {
        let kp = KeyPair::from_secret_exponent(
            SchnorrGroup::test_256(),
            BigUint::from(0xabcdef123456u64),
        );
        assert_eq!(
            kp.fingerprint().to_hex(),
            "4a24851c55c5e0da9bc091df6bebc33f79eddbd5e45747abe12d3b1592ea1b6b"
        );
        let sig = kp.sign(b"known-answer test message");
        assert_eq!(
            sig.e().to_hex(),
            "351ed234974c000e7b5851a6540323d2e72e3dfe0f53b0ff2452323d6b8997f1"
        );
        assert_eq!(
            sig.s().to_hex(),
            "27a82f24d4292c73577ef182232a7b48cb80b8b2d8e998b6a94db7a993eb177a"
        );
        assert!(kp.public_key().verify(b"known-answer test message", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = pair(1);
        assert_eq!(kp.sign(b"stable"), kp.sign(b"stable"));
        assert_ne!(kp.sign(b"one"), kp.sign(b"two"));
    }

    #[test]
    fn modp_2048_round_trip() {
        // One realistic-size signature to exercise the big group end-to-end.
        let kp =
            KeyPair::from_secret_exponent(SchnorrGroup::modp_2048(), BigUint::from(0xdeadbeefu64));
        let sig = kp.sign(b"big group message");
        assert!(kp.public_key().verify(b"big group message", &sig));
        assert!(!kp.public_key().verify(b"other", &sig));
    }
}
