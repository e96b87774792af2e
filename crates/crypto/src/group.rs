//! Named Schnorr groups: safe-prime multiplicative subgroups in which
//! keys live and signatures are computed.

use std::fmt;
use std::sync::Arc;

use drbac_bignum::{is_probable_prime, random_prime, BigUint, MontgomeryCtx, PowerTable};
use rand::Rng;

/// Identifier naming a [`SchnorrGroup`], carried inside signatures so a
/// verifier can reject cross-group confusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupId {
    /// 256-bit safe-prime group. Fast, **not secure**; for tests and
    /// simulations only.
    Test256,
    /// RFC 3526 2048-bit MODP group (group 14), prime-order subgroup of the
    /// squares with generator 4. Realistic cryptographic cost.
    Modp2048,
    /// A caller-generated group (see [`SchnorrGroup::generate`]).
    Custom,
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupId::Test256 => f.write_str("test-256"),
            GroupId::Modp2048 => f.write_str("modp-2048"),
            GroupId::Custom => f.write_str("custom"),
        }
    }
}

/// A Schnorr group: a prime `p = 2q + 1`, the prime subgroup order `q`, and
/// a generator `g` of the order-`q` subgroup of squares mod `p`.
///
/// The struct is cheaply clonable (`Arc` internals, including a cached
/// Montgomery context for exponentiations mod `p` and `g`'s 4-bit window
/// table, built once per group).
///
/// Every exponentiation it performs counts one on
/// `drbac.crypto.exp.count`, so a work ledger can pin how many an
/// operation pays.
///
/// # Example
///
/// ```
/// use drbac_crypto::SchnorrGroup;
/// use drbac_bignum::BigUint;
///
/// let g = SchnorrGroup::test_256();
/// // g^q == 1: the generator really has order q.
/// assert!(g.pow_g(g.q()).is_one());
/// ```
#[derive(Clone)]
pub struct SchnorrGroup {
    inner: Arc<GroupInner>,
}

struct GroupInner {
    id: GroupId,
    p: BigUint,
    q: BigUint,
    g: BigUint,
    mont_p: MontgomeryCtx,
    /// `g^0 .. g^15` in Montgomery form (512 B at 256 bits).
    g_table: PowerTable,
}

impl fmt::Debug for SchnorrGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrGroup")
            .field("id", &self.inner.id)
            .field("bits", &self.inner.p.bits())
            .finish()
    }
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        self.inner.p == other.inner.p && self.inner.g == other.inner.g
    }
}

impl Eq for SchnorrGroup {}

fn count_exponentiation() {
    drbac_obs::static_counter!("drbac.crypto.exp.count").inc();
}

/// 256-bit safe prime (seeded generation; see `tools` note in DESIGN.md).
const TEST256_P: &str = "b7e9f735f74bf461eb409d67747a627534f17ded4ba95a60790f978549c8c24f";
const TEST256_Q: &str = "5bf4fb9afba5fa30f5a04eb3ba3d313a9a78bef6a5d4ad303c87cbc2a4e46127";

/// RFC 3526 group 14 prime (2048-bit MODP).
const MODP2048_P: &str = concat!(
    "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74",
    "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437",
    "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed",
    "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05",
    "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb",
    "9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3b",
    "e39e772c180e86039b2783a2ec07a28fb5c55df06f4c52c9de2bcbf695581718",
    "3995497cea956ae515d2261898fa051015728e5a8aacaa68ffffffffffffffff",
);

impl SchnorrGroup {
    /// The fast, insecure 256-bit test group.
    pub fn test_256() -> Self {
        // Built once: constructing a group computes a Montgomery context
        // for p, and decoders call this for every key they parse.
        static GROUP: std::sync::OnceLock<SchnorrGroup> = std::sync::OnceLock::new();
        GROUP
            .get_or_init(|| {
                let p = BigUint::from_hex(TEST256_P).expect("valid constant");
                let q = BigUint::from_hex(TEST256_Q).expect("valid constant");
                Self::from_parts(GroupId::Test256, p, q, BigUint::from(4u64))
            })
            .clone()
    }

    /// The RFC 3526 2048-bit MODP group (group 14), subgroup of squares.
    pub fn modp_2048() -> Self {
        static GROUP: std::sync::OnceLock<SchnorrGroup> = std::sync::OnceLock::new();
        GROUP
            .get_or_init(|| {
                let p = BigUint::from_hex(MODP2048_P).expect("valid constant");
                let q = (&p - &BigUint::one()).shr_bits(1);
                Self::from_parts(GroupId::Modp2048, p, q, BigUint::from(4u64))
            })
            .clone()
    }

    /// Generates a fresh safe-prime group with a `bits`-bit modulus.
    ///
    /// Intended for tests and experiments; generation cost grows steeply
    /// with `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 8`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 8, "group modulus too small");
        loop {
            let q = random_prime(rng, bits - 1);
            let p = &(&q + &q) + &BigUint::one();
            if is_probable_prime(&p, 32, rng) {
                return Self::from_parts(GroupId::Custom, p, q, BigUint::from(4u64));
            }
        }
    }

    /// Builds a [`GroupId::Custom`] group from explicit parts without
    /// validation; used when deserializing foreign keys. Call
    /// [`Self::validate_parameters`] before trusting such a group.
    pub fn custom_from_parts(p: BigUint, q: BigUint, g: BigUint) -> Self {
        Self::from_parts(GroupId::Custom, p, q, g)
    }

    fn from_parts(id: GroupId, p: BigUint, q: BigUint, g: BigUint) -> Self {
        let mont_p = MontgomeryCtx::new(&p).expect("group modulus is an odd prime");
        let g_table = mont_p.power_table(&g);
        SchnorrGroup {
            inner: Arc::new(GroupInner {
                id,
                p,
                q,
                g,
                mont_p,
                g_table,
            }),
        }
    }

    /// The group identifier.
    pub fn id(&self) -> GroupId {
        self.inner.id
    }

    /// The modulus `p`.
    pub fn p(&self) -> &BigUint {
        &self.inner.p
    }

    /// The subgroup order `q = (p - 1) / 2`.
    pub fn q(&self) -> &BigUint {
        &self.inner.q
    }

    /// The subgroup generator `g`.
    pub fn g(&self) -> &BigUint {
        &self.inner.g
    }

    /// `g^e mod p`, on the group's prebuilt table for `g`.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        count_exponentiation();
        let inner = &*self.inner;
        inner.mont_p.multi_pow(&[(&inner.g_table, e)])
    }

    /// `base^e mod p`.
    pub fn pow(&self, base: &BigUint, e: &BigUint) -> BigUint {
        count_exponentiation();
        self.inner.mont_p.modpow(base, e)
    }

    /// `g^a · base^b mod p` as one joint exponentiation: the squarings are
    /// shared, so it costs little more than one [`Self::pow`]. Schnorr
    /// verification's `g^s · y^(q−e)`.
    pub fn pow_g_mul(&self, a: &BigUint, base: &BigUint, b: &BigUint) -> BigUint {
        count_exponentiation();
        let inner = &*self.inner;
        let base_table = inner.mont_p.power_table(base);
        inner
            .mont_p
            .multi_pow(&[(&inner.g_table, a), (&base_table, b)])
    }

    /// Checks that `y` is a valid subgroup element: `1 < y < p` and
    /// `y^q == 1 mod p`. Public keys must satisfy this.
    pub fn is_subgroup_element(&self, y: &BigUint) -> bool {
        if y <= &BigUint::one() || y >= self.p() {
            return false;
        }
        self.pow(y, self.q()).is_one()
    }

    /// Validates the group parameters themselves: `p` and `q` prime,
    /// `p == 2q + 1`, and `g` generates the order-`q` subgroup. Expensive;
    /// intended for tests and for accepting foreign custom groups.
    pub fn validate_parameters<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        let p_ok = is_probable_prime(self.p(), 16, rng);
        let q_ok = is_probable_prime(self.q(), 16, rng);
        let safe = &(&self.inner.q + &self.inner.q) + &BigUint::one() == self.inner.p;
        let g_ok = !self.inner.g.is_one() && self.pow_g(self.q()).is_one();
        p_ok && q_ok && safe && g_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn test_256_parameters_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(SchnorrGroup::test_256().validate_parameters(&mut rng));
    }

    #[test]
    fn modp_2048_basic_structure() {
        let g = SchnorrGroup::modp_2048();
        assert_eq!(g.p().bits(), 2048);
        // p = 2q + 1 by construction of q.
        assert_eq!(&(g.q() + g.q()) + &BigUint::one(), *g.p());
        // generator has order q (one 2048-bit exponentiation; primality of
        // the RFC constant is well established, not re-checked here).
        assert!(g.pow_g(g.q()).is_one());
    }

    #[test]
    fn generated_group_is_valid() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = SchnorrGroup::generate(64, &mut rng);
        assert_eq!(g.id(), GroupId::Custom);
        assert!(g.validate_parameters(&mut rng));
    }

    #[test]
    fn subgroup_membership() {
        let g = SchnorrGroup::test_256();
        let elem = g.pow_g(&BigUint::from(12345u64));
        assert!(g.is_subgroup_element(&elem));
        assert!(!g.is_subgroup_element(&BigUint::one()));
        assert!(!g.is_subgroup_element(&BigUint::zero()));
        assert!(!g.is_subgroup_element(g.p()));
        // A non-square (generator 2 of the full group) is not in the
        // squares subgroup when its order is 2q.
        let two = BigUint::from(2u64);
        if !g.pow(&two, g.q()).is_one() {
            assert!(!g.is_subgroup_element(&two));
        }
    }

    #[test]
    fn joint_exponentiation_matches_separate_powers() {
        let g = SchnorrGroup::test_256();
        let y = g.pow_g(&BigUint::from(777u64));
        let (a, b) = (BigUint::from(123_456u64), g.q() - &BigUint::from(5u64));
        let separate = (&g.pow_g(&a) * &g.pow(&y, &b)).rem_ref(g.p());
        assert_eq!(g.pow_g_mul(&a, &y, &b), separate);
        assert_eq!(g.pow_g(&a), g.pow(g.g(), &a));
    }

    #[test]
    fn groups_compare_by_parameters() {
        assert_eq!(SchnorrGroup::test_256(), SchnorrGroup::test_256());
        assert_ne!(SchnorrGroup::test_256(), SchnorrGroup::modp_2048());
    }
}
