//! Schnorr signatures with deterministic nonces.

use drbac_bignum::BigUint;

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
/// Verification checks `y` is in the order-`q` subgroup (from the key
/// validity memo when `y` was seen before), recomputes
/// `r' = g^s · y^(q−e) mod p` as one joint exponentiation, and checks the
/// challenge matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    group: GroupId,
    e: BigUint,
    s: BigUint,
}

const NONCE_TAG: &[u8] = b"drbac-nonce-v1";
const CHALLENGE_TAG: &[u8] = b"drbac-challenge-v1";

/// `q − e mod q`: `y^(q−e) = y^(−e)` for `y` of order q.
fn neg(e: &BigUint, q: &BigUint) -> BigUint {
    if e.is_zero() {
        BigUint::zero()
    } else {
        q - e
    }
}

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

    /// Verifies against a public key; called through
    /// [`PublicKey::verify`].
    pub(crate) fn verify_with(&self, key: &PublicKey, msg: &[u8]) -> bool {
        let group = key.group();
        if self.group != group.id() {
            return false;
        }
        let q = group.q();
        if &self.s >= q || &self.e >= q {
            return false;
        }
        // The equation below only binds `e` when `y` has order q: for
        // `y = p − 1` (order 2) and odd `e` it collapses to `r = g^s`, a
        // forgery anyone can compute. Membership comes from the memo
        // wire decoding fills, so only a never-seen key pays for it.
        if !key.is_valid() {
            return false;
        }
        let r = group.pow_g_mul(&self.s, key.y(), &neg(&self.e, q));
        self.challenge_matches(key, &r, msg)
    }

    /// `H(tag ‖ fingerprint ‖ r ‖ msg) mod q == e`.
    fn challenge_matches(&self, key: &PublicKey, r: &BigUint, msg: &[u8]) -> bool {
        let fp = key.fingerprint();
        let expected = hash_to_scalar(
            &[CHALLENGE_TAG, fp.as_bytes(), &r.to_bytes_be(), msg],
            key.group().q(),
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(seed: u64) -> KeyPair {
        KeyPair::generate(SchnorrGroup::test_256(), &mut StdRng::seed_from_u64(seed))
    }

    fn arb_scalar() -> impl Strategy<Value = BigUint> {
        prop::collection::vec(any::<u64>(), 0..=4)
            .prop_map(|limbs| BigUint::from_limbs(limbs).rem_ref(SchnorrGroup::test_256().q()))
    }

    proptest! {
        /// The joint exponentiation verify runs equals the two separate
        /// exponentiations and multiply it replaced, on the naive oracle.
        #[test]
        fn prop_joint_verify_equation_matches_oracle(x in arb_scalar(), s in arb_scalar(), e in arb_scalar()) {
            let group = SchnorrGroup::test_256();
            let p = group.p();
            let y = group.pow_g(&x);
            let oracle = (&group.g().modpow_naive(&s, p) * &y.modpow_naive(&neg(&e, group.q()), p)).rem_ref(p);
            prop_assert_eq!(group.pow_g_mul(&s, &y, &neg(&e, group.q())), oracle);
        }
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

    /// A signature under `y = p − 1` (order 2, outside the subgroup) that
    /// satisfies the verify equation: pick `s`, set `r = g^s` and
    /// `e = H(fp ‖ r ‖ msg)`, and retry until `e` is odd — then
    /// `y^(q−e) = (−1)^even = 1`, so `r' = g^s = r`.
    fn small_subgroup_forgery(msg: &[u8]) -> (PublicKey, Signature) {
        let group = SchnorrGroup::test_256();
        let bad = PublicKey::from_parts(group.clone(), group.p() - &BigUint::one());
        (1u64..)
            .find_map(|i| {
                let s = BigUint::from(i);
                let r = group.pow_g(&s);
                let fp = bad.fingerprint();
                let e = hash_to_scalar(
                    &[CHALLENGE_TAG, fp.as_bytes(), &r.to_bytes_be(), msg],
                    group.q(),
                );
                e.is_odd().then(|| Signature::from_parts(group.id(), e, s))
            })
            .map(|sig| (bad, sig))
            .expect("half of all challenges are odd")
    }

    #[test]
    fn small_subgroup_forgery_is_rejected_cold_and_warm() {
        let msg = b"forged delegation";
        let (bad, forged) = small_subgroup_forgery(msg);
        let group = bad.group();
        // The forgery is meaningful: the equation alone accepts it.
        let r = group.pow_g_mul(forged.s(), bad.y(), &neg(forged.e(), group.q()));
        assert!(forged.challenge_matches(&bad, &r, msg));

        assert!(!bad.verify(msg, &forged), "cold");
        let good = pair(7);
        assert!(good.public_key().is_valid());
        assert!(good.public_key().verify(b"m", &good.sign(b"m")));
        assert!(!bad.verify(msg, &forged), "after a valid key is memoised");
        assert!(!bad.is_valid());
        assert!(
            !bad.verify(msg, &forged),
            "after is_valid on the bad key (invalid keys are never cached)"
        );
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
