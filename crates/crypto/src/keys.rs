//! Key pairs and public keys.

use std::collections::HashSet;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use drbac_bignum::{random_biguint_below, BigUint};
use rand::Rng;

use crate::fingerprint::KeyFingerprint;
use crate::group::{GroupId, SchnorrGroup};
use crate::sha256::Sha256;
use crate::sign::Signature;

/// A Schnorr secret key: an exponent `x` in `[1, q)`.
///
/// Holds its group so it can sign without extra context. The `Debug` impl
/// redacts the exponent.
#[derive(Clone)]
pub struct SecretKey {
    group: SchnorrGroup,
    x: BigUint,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecretKey")
            .field("group", &self.group)
            .field("x", &"<redacted>")
            .finish()
    }
}

impl Drop for SecretKey {
    /// Best-effort scrubbing of the exponent on drop (clones and moves
    /// may still leave copies; see [`drbac_bignum::BigUint::scrub`]).
    fn drop(&mut self) {
        self.x.scrub();
    }
}

/// A Schnorr public key: `y = g^x mod p` in a named group.
///
/// # Example
///
/// ```
/// use drbac_crypto::{KeyPair, SchnorrGroup};
/// # use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let kp = KeyPair::generate(SchnorrGroup::test_256(), &mut rng);
/// let pk = kp.public_key();
/// assert!(pk.group().is_subgroup_element(pk.y()));
/// ```
#[derive(Clone)]
pub struct PublicKey {
    group: SchnorrGroup,
    y: BigUint,
    /// [`Self::fingerprint`], computed on first use: every signature
    /// check and signer comparison asks for it. Not part of equality.
    fingerprint: OnceLock<KeyFingerprint>,
}

/// Equality is over `(group, y)` alone — a derived impl would also compare
/// whether the fingerprint cache has been filled.
impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.y == other.y
    }
}

impl Eq for PublicKey {}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}, {})", self.group.id(), self.fingerprint())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.fingerprint())
    }
}

impl PublicKey {
    /// Reassembles a public key from its parts (wire decoding). Check
    /// [`PublicKey::is_valid`] before trusting a key received this way.
    pub fn from_parts(group: SchnorrGroup, y: BigUint) -> Self {
        PublicKey {
            group,
            y,
            fingerprint: OnceLock::new(),
        }
    }

    /// The group this key lives in.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// The group element `y = g^x`.
    pub fn y(&self) -> &BigUint {
        &self.y
    }

    /// Canonical byte encoding: domain tag, group id, `p`, `g`, and `y`,
    /// all length-prefixed. Signatures and fingerprints bind to this.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"drbac-pk-v1");
        let tag = match self.group.id() {
            GroupId::Test256 => 1u8,
            GroupId::Modp2048 => 2,
            GroupId::Custom => 3,
        };
        out.push(tag);
        for part in [self.group.p(), self.group.g(), &self.y] {
            let bytes = part.to_bytes_be();
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// SHA-256 fingerprint of [`Self::canonical_bytes`]; the entity
    /// identity in dRBAC. Computed once per key instance.
    pub fn fingerprint(&self) -> KeyFingerprint {
        *self.fingerprint.get_or_init(|| {
            let mut h = Sha256::new();
            h.update(&self.canonical_bytes());
            KeyFingerprint(h.finalize())
        })
    }

    /// Verifies a Schnorr signature over `msg`.
    ///
    /// Returns `false` for signatures from a different group, out-of-range
    /// scalars, a key that is not a subgroup element, or any verification
    /// failure — never panics. Membership comes from [`Self::is_valid`]'s
    /// memo, so a key seen before costs one joint exponentiation and a
    /// never-seen key one more.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        sig.verify_with(self, msg)
    }

    /// Structural validity: `y` is a proper subgroup element.
    ///
    /// The membership check costs a full `y^q mod p` exponentiation, and
    /// wire decoding and every signature check need it — while a busy
    /// reply stream repeats the same few issuer keys thousands of times.
    /// For the two named groups membership is a pure function of
    /// `(GroupId, y)` (their `p`, `q`, `g` are constants), so valid `y`s
    /// are memoized in a bounded process-wide set: the first sighting of
    /// a key pays the exponentiation, the rest cost one hash of `y`.
    /// Invalid keys are never cached (re-checking them is the safe
    /// direction). Custom-group keys are checked every time: their `p`
    /// comes off the wire at any size, and the memo stays bounded in
    /// bytes.
    pub fn is_valid(&self) -> bool {
        let Some(slot) = memo_slot(self.group.id()) else {
            return self.group.is_subgroup_element(&self.y);
        };
        let memo = validated_keys();
        if memo.read().is_ok_and(|seen| seen[slot].contains(&self.y)) {
            return true;
        }
        let ok = self.group.is_subgroup_element(&self.y);
        if ok {
            if let Ok(mut seen) = memo.write() {
                if seen.iter().map(HashSet::len).sum::<usize>() >= VALIDATED_KEY_CAP {
                    // Wholesale reset over LRU bookkeeping: a working
                    // set beyond the cap just re-validates.
                    seen.iter_mut().for_each(HashSet::clear);
                }
                seen[slot].insert(self.y.clone());
            }
        }
        ok
    }
}

/// Upper bound on memoized [`PublicKey::is_valid`] results, across both
/// named groups.
const VALIDATED_KEY_CAP: usize = 4096;

/// The memo's set for a named group; `None` for custom groups, which are
/// never memoized.
fn memo_slot(id: GroupId) -> Option<usize> {
    match id {
        GroupId::Test256 => Some(0),
        GroupId::Modp2048 => Some(1),
        GroupId::Custom => None,
    }
}

/// Validated `y`s, one set per named group (see [`memo_slot`]). Read on
/// every signature check, written only on a key's first sighting.
fn validated_keys() -> &'static RwLock<[HashSet<BigUint>; 2]> {
    static VALIDATED: OnceLock<RwLock<[HashSet<BigUint>; 2]>> = OnceLock::new();
    VALIDATED.get_or_init(|| RwLock::new([HashSet::new(), HashSet::new()]))
}

/// A secret/public key pair for one entity.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates a fresh key pair in `group`.
    ///
    /// ```
    /// use drbac_crypto::{KeyPair, SchnorrGroup};
    /// # use rand::SeedableRng;
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    /// let a = KeyPair::generate(SchnorrGroup::test_256(), &mut rng);
    /// let b = KeyPair::generate(SchnorrGroup::test_256(), &mut rng);
    /// assert_ne!(a.public_key().fingerprint(), b.public_key().fingerprint());
    /// ```
    pub fn generate<R: Rng + ?Sized>(group: SchnorrGroup, rng: &mut R) -> Self {
        let q_minus_1 = group.q() - &BigUint::one();
        let x = &random_biguint_below(rng, &q_minus_1) + &BigUint::one();
        Self::from_secret_exponent(group, x)
    }

    /// Builds a key pair from a known exponent `x` (reduced into `[1, q)`).
    /// Useful for reproducible fixtures.
    pub fn from_secret_exponent(group: SchnorrGroup, x: BigUint) -> Self {
        let x = x.rem_ref(group.q());
        let x = if x.is_zero() { BigUint::one() } else { x };
        let y = group.pow_g(&x);
        KeyPair {
            public: PublicKey::from_parts(group.clone(), y),
            secret: SecretKey { group, x },
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The entity fingerprint of the public key.
    pub fn fingerprint(&self) -> KeyFingerprint {
        self.public.fingerprint()
    }

    /// Signs `msg` with a deterministic (hash-derived) nonce.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature::create(&self.secret.group, &self.secret.x, &self.public, msg)
    }

    /// Serializes the key pair (group and secret exponent) for keyring
    /// storage. **The output contains the unencrypted secret key**;
    /// protect the file accordingly.
    pub fn export_secret(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"drbac-sk-v1");
        let tag = match self.secret.group.id() {
            GroupId::Test256 => 1u8,
            GroupId::Modp2048 => 2,
            GroupId::Custom => 3,
        };
        out.push(tag);
        let mut put = |v: &BigUint| {
            let b = v.to_bytes_be();
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(&b);
        };
        if self.secret.group.id() == GroupId::Custom {
            put(self.secret.group.p());
            put(self.secret.group.q());
            put(self.secret.group.g());
        }
        put(&self.secret.x);
        out
    }

    /// Restores a key pair from [`KeyPair::export_secret`] output.
    /// Returns `None` for malformed input.
    pub fn import_secret(bytes: &[u8]) -> Option<KeyPair> {
        let rest = bytes.strip_prefix(b"drbac-sk-v1")?;
        let (&tag, mut rest) = rest.split_first()?;
        let take = |rest: &mut &[u8]| -> Option<BigUint> {
            let (len, tail) = rest.split_at_checked(4)?;
            let len = u32::from_be_bytes(len.try_into().ok()?) as usize;
            let (value, tail) = tail.split_at_checked(len)?;
            *rest = tail;
            Some(BigUint::from_bytes_be(value))
        };
        let group = match tag {
            1 => SchnorrGroup::test_256(),
            2 => SchnorrGroup::modp_2048(),
            3 => {
                let p = take(&mut rest)?;
                let q = take(&mut rest)?;
                let g = take(&mut rest)?;
                if p.is_even() || p.is_zero() {
                    return None;
                }
                SchnorrGroup::custom_from_parts(p, q, g)
            }
            _ => return None,
        };
        let x = take(&mut rest)?;
        if !rest.is_empty() || x.is_zero() {
            return None;
        }
        Some(KeyPair::from_secret_exponent(group, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(seed: u64) -> KeyPair {
        KeyPair::generate(SchnorrGroup::test_256(), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn public_key_is_subgroup_element() {
        assert!(pair(1).public_key().is_valid());
    }

    #[test]
    fn fingerprint_is_stable_and_distinct() {
        let a = pair(1);
        let b = pair(2);
        assert_eq!(a.fingerprint(), a.public_key().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn equality_ignores_the_fingerprint_cache() {
        let kp = pair(4);
        let warm = kp.public_key().clone();
        let _ = warm.fingerprint();
        let cold = PublicKey::from_parts(warm.group().clone(), warm.y().clone());
        assert_eq!(warm, cold);
        assert_eq!(warm.fingerprint(), cold.fingerprint());
        let mut h = Sha256::new();
        h.update(&cold.canonical_bytes());
        assert_eq!(cold.fingerprint(), KeyFingerprint(h.finalize()));
    }

    #[test]
    fn fixture_exponent_is_reproducible() {
        let g = SchnorrGroup::test_256();
        let a = KeyPair::from_secret_exponent(g.clone(), BigUint::from(42u64));
        let b = KeyPair::from_secret_exponent(g, BigUint::from(42u64));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn zero_exponent_is_normalized() {
        let g = SchnorrGroup::test_256();
        let kp = KeyPair::from_secret_exponent(g.clone(), BigUint::zero());
        assert_eq!(kp.public_key().y(), &g.pow_g(&BigUint::one()));
    }

    #[test]
    fn debug_redacts_secret() {
        let kp = pair(3);
        let dbg = format!("{:?}", kp);
        assert!(dbg.contains("<redacted>"));
    }

    #[test]
    fn secret_export_round_trips() {
        let kp = pair(9);
        let restored = KeyPair::import_secret(&kp.export_secret()).expect("round trip");
        assert_eq!(restored.fingerprint(), kp.fingerprint());
        // Signatures from the restored key verify against the original.
        let sig = restored.sign(b"hello");
        assert!(kp.public_key().verify(b"hello", &sig));

        // Malformed inputs fail cleanly.
        assert!(KeyPair::import_secret(b"garbage").is_none());
        let mut truncated = kp.export_secret();
        truncated.truncate(truncated.len() - 3);
        assert!(KeyPair::import_secret(&truncated).is_none());
        let mut trailing = kp.export_secret();
        trailing.push(0);
        assert!(KeyPair::import_secret(&trailing).is_none());
    }

    #[test]
    fn canonical_bytes_bind_group_and_key() {
        let a = pair(1);
        let modp = KeyPair::from_secret_exponent(SchnorrGroup::modp_2048(), BigUint::from(7u64));
        assert_ne!(
            a.public_key().canonical_bytes(),
            modp.public_key().canonical_bytes()
        );
    }
}
