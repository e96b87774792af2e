//! Modular arithmetic: Montgomery multiplication, modular exponentiation,
//! and modular inverse.
//!
//! Schnorr key generation, signing, and verification in `drbac-crypto` all
//! reduce to exponentiation modulo the group prime, so this module is the
//! performance-critical core of the whole PKI substrate.
//!
//! Everything over an odd modulus runs on **one kernel**: a CIOS Montgomery
//! multiply of two `k`-limb operands into a caller-owned scratch buffer of
//! `k + 1` limbs. Nothing is allocated per multiplication, and no
//! [`BigUint`] is built until a result leaves Montgomery form.
//!
//! * A base's 4-bit window — its Montgomery-form powers `base^0..base^15`
//!   — is one flat [`PowerTable`] of `16·k` limbs, built once per base (a
//!   fixed base such as a group generator keeps its table for life).
//! * [`MontgomeryCtx::multi_pow`] computes `Π base_i^exp_i` over any number
//!   of tables Straus/Shamir-style: one pass over the exponents' 4-bit
//!   windows from the top, the four squarings per window shared by every
//!   term. [`MontgomeryCtx::modpow`] is its one-term case, and a Schnorr
//!   verify's `g^s · y^(q−e)` its two-term case, which costs one
//!   exponentiation's squarings instead of two.
//! * [`MontgomeryCtx::mul`] is one conversion plus one kernel call.
//!
//! Exponentiation is variable-time (windows whose digit is zero skip their
//! multiply), as it always was here; see DESIGN.md §4.1. Even moduli fall
//! back to square-and-multiply with explicit division
//! ([`BigUint::modpow_naive`], also the differential oracle in the tests).

use crate::BigUint;

/// Precomputed state for Montgomery arithmetic modulo an odd modulus.
///
/// Construct once per modulus and reuse across many multiplications or
/// exponentiations (as signature verification does).
///
/// # Example
///
/// ```
/// use drbac_bignum::{BigUint, MontgomeryCtx};
///
/// let p = BigUint::from(101u64);
/// let ctx = MontgomeryCtx::new(&p).unwrap();
/// let a = BigUint::from(77u64);
/// let b = BigUint::from(55u64);
/// assert_eq!(ctx.mul(&a, &b), BigUint::from(77u64 * 55 % 101));
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    n: BigUint,
    /// Number of limbs in the modulus; R = 2^(64 * k).
    k: usize,
    /// -n^{-1} mod 2^64.
    n0inv: u64,
    /// R mod n (the Montgomery form of 1), `k` limbs.
    one: Vec<u64>,
    /// R^2 mod n, `k` limbs, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// 1, `k` limbs, used to convert out of Montgomery form.
    unit: Vec<u64>,
}

/// The Montgomery-form powers `base^0 .. base^15` of one base modulo one
/// [`MontgomeryCtx`]'s modulus, as a flat array of `16·k` limbs: the 4-bit
/// window [`MontgomeryCtx::multi_pow`] reads.
///
/// Built by [`MontgomeryCtx::power_table`]; only meaningful with the
/// context that built it.
#[derive(Debug, Clone)]
pub struct PowerTable {
    limbs: Vec<u64>,
}

impl PowerTable {
    /// `base^digit` in Montgomery form.
    fn entry(&self, digit: usize, k: usize) -> &[u64] {
        &self.limbs[digit * k..(digit + 1) * k]
    }
}

/// `n`'s `k` limbs, zero-padded (`n` has at most `k`).
fn padded(n: &BigUint, k: usize) -> Vec<u64> {
    let mut limbs = n.as_limbs().to_vec();
    limbs.resize(k, 0);
    limbs
}

/// The 4-bit digit `w` of `exp` (digit 0 is the least significant). A
/// digit never straddles two limbs.
fn digit(exp: &BigUint, w: usize) -> usize {
    exp.as_limbs()
        .get(w / 16)
        .map_or(0, |&limb| ((limb >> ((w % 16) * 4)) & 0xf) as usize)
}

impl MontgomeryCtx {
    /// Creates a context for the given modulus.
    ///
    /// Returns `None` if the modulus is zero or even (Montgomery reduction
    /// requires an odd modulus).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let k = modulus.as_limbs().len();
        let n0 = modulus.as_limbs()[0];
        // Newton iteration: inv = inv * (2 - n0 * inv), doubling precision.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0inv = inv.wrapping_neg();

        let r = BigUint::one().shl_bits(64 * k);
        let r_mod_n = r.rem_ref(modulus);
        let r2_mod_n = (&r_mod_n * &r_mod_n).rem_ref(modulus);
        Some(MontgomeryCtx {
            n: modulus.clone(),
            k,
            n0inv,
            one: padded(&r_mod_n, k),
            r2: padded(&r2_mod_n, k),
            unit: padded(&BigUint::one(), k),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The kernel: `t[..k] = a·b·R⁻¹ mod n` for a `k`-limb `a` below `n`
    /// and any `k`-limb `b` (so `a·b < n·R` and one final subtraction
    /// suffices). CIOS method, the multiply and reduce passes fused into
    /// one loop; `t` is the caller's scratch of `k + 1` limbs, and nothing
    /// is allocated.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k;
        let (n, b, t) = (&self.n.as_limbs()[..k], &b[..k], &mut t[..=k]);
        t.fill(0);
        for &ai in &a[..k] {
            // t = (t + ai·b + m·n) / 2^64, m chosen so the low limb
            // vanishes; c1 carries the product row, c2 the reduction row.
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (s as u64).wrapping_mul(self.n0inv);
            let r = (s as u64) as u128 + m as u128 * n[0] as u128;
            let (mut c1, mut c2) = (s >> 64, r >> 64);
            for j in 1..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + c1;
                let r = (s as u64) as u128 + m as u128 * n[j] as u128 + c2;
                t[j - 1] = r as u64;
                (c1, c2) = (s >> 64, r >> 64);
            }
            let s = t[k] as u128 + c1 + c2;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
        self.final_subtract(t);
    }

    /// Brings `t[..=k]` (below `2n`) under `n` in place.
    fn final_subtract(&self, t: &mut [u64]) {
        let k = self.k;
        let n = self.n.as_limbs();
        if t[k] == 0 && t[..k].iter().rev().lt(n.iter().rev()) {
            return;
        }
        let mut borrow = false;
        for (tj, &nj) in t[..k].iter_mut().zip(n) {
            let (d, b1) = tj.overflowing_sub(nj);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *tj = d;
            borrow = b1 || b2;
        }
        t[k] = 0;
    }

    /// Writes `a mod n` in Montgomery form to `out` (`k` limbs).
    fn to_mont(&self, a: &BigUint, out: &mut [u64], t: &mut [u64]) {
        self.load(a, out);
        self.mont_mul(out, &self.r2, t);
        out.copy_from_slice(&t[..self.k]);
    }

    /// Writes `a mod n` to `out` (`k` limbs), zero-padded.
    fn load(&self, a: &BigUint, out: &mut [u64]) {
        out.fill(0);
        if a < &self.n {
            out[..a.len()].copy_from_slice(a.as_limbs());
        } else {
            let r = a.rem_ref(&self.n);
            out[..r.len()].copy_from_slice(r.as_limbs());
        }
    }

    /// Leaves Montgomery form: `a·1·R⁻¹ mod n`, the first [`BigUint`]
    /// the computation builds.
    fn out_of_mont(&self, a: &[u64], t: &mut [u64]) -> BigUint {
        self.mont_mul(a, &self.unit, t);
        BigUint::from_limbs(t[..self.k].to_vec())
    }

    /// Modular multiplication `a * b mod n` for ordinary (non-Montgomery)
    /// inputs. Inputs need not be reduced.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.k;
        let mut t = vec![0u64; k + 1];
        let mut am = vec![0u64; k];
        let mut b_plain = vec![0u64; k];
        // (a·R) · b · R⁻¹ = a·b: one conversion, one kernel call.
        self.to_mont(a, &mut am, &mut t);
        self.load(b, &mut b_plain);
        self.mont_mul(&am, &b_plain, &mut t);
        BigUint::from_limbs(t[..k].to_vec())
    }

    /// The 4-bit window of `base` (reduced mod n first): its Montgomery
    /// powers `base^0 .. base^15`, 15 kernel calls into one flat buffer.
    pub fn power_table(&self, base: &BigUint) -> PowerTable {
        let k = self.k;
        let mut t = vec![0u64; k + 1];
        let mut limbs = vec![0u64; 16 * k];
        limbs[..k].copy_from_slice(&self.one);
        self.to_mont(base, &mut limbs[k..2 * k], &mut t);
        for i in 2..16 {
            let (done, rest) = limbs.split_at_mut(i * k);
            self.mont_mul(&done[(i - 1) * k..], &done[k..2 * k], &mut t);
            rest[..k].copy_from_slice(&t[..k]);
        }
        PowerTable { limbs }
    }

    /// `Π base_i^exp_i mod n` over `terms` of (window table, exponent) —
    /// Straus/Shamir simultaneous exponentiation: one pass over the 4-bit
    /// windows of the longest exponent, each window's four squarings
    /// shared by every term, then one multiply per term whose digit is
    /// non-zero. One scratch buffer and one accumulator for the whole
    /// computation, however long the exponents.
    ///
    /// # Panics
    ///
    /// Panics if a table was built by a context of a different size.
    ///
    /// ```
    /// use drbac_bignum::{BigUint, MontgomeryCtx};
    ///
    /// let p = BigUint::from(1_000_003u64);
    /// let ctx = MontgomeryCtx::new(&p).unwrap();
    /// let (g, y) = (BigUint::from(2u64), BigUint::from(5u64));
    /// let (a, b) = (BigUint::from(1234u64), BigUint::from(987u64));
    /// let joint = ctx.multi_pow(&[(&ctx.power_table(&g), &a), (&ctx.power_table(&y), &b)]);
    /// assert_eq!(joint, ctx.mul(&ctx.modpow(&g, &a), &ctx.modpow(&y, &b)));
    /// ```
    pub fn multi_pow(&self, terms: &[(&PowerTable, &BigUint)]) -> BigUint {
        let k = self.k;
        for (table, _) in terms {
            assert_eq!(table.limbs.len(), 16 * k, "table from another modulus");
        }
        let mut t = vec![0u64; k + 1];
        let mut acc = self.one.clone();
        let windows = terms
            .iter()
            .map(|(_, exp)| exp.bits())
            .max()
            .unwrap_or(0)
            .div_ceil(4);
        for w in (0..windows).rev() {
            if w + 1 < windows {
                for _ in 0..4 {
                    self.mont_mul(&acc, &acc, &mut t);
                    acc.copy_from_slice(&t[..k]);
                }
            }
            for (table, exp) in terms {
                let d = digit(exp, w);
                if d != 0 {
                    self.mont_mul(&acc, table.entry(d, k), &mut t);
                    acc.copy_from_slice(&t[..k]);
                }
            }
        }
        self.out_of_mont(&acc, &mut t)
    }

    /// Modular exponentiation `base^exp mod n` with a 4-bit fixed window:
    /// [`Self::multi_pow`] with one term.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.multi_pow(&[(&self.power_table(base), exp)])
    }
}

impl BigUint {
    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses Montgomery arithmetic for odd moduli and binary
    /// square-and-multiply with explicit reduction otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    ///
    /// ```
    /// # use drbac_bignum::BigUint;
    /// let m = BigUint::from(1000u64);
    /// assert_eq!(BigUint::from(7u64).modpow(&BigUint::from(3u64), &m), BigUint::from(343u64));
    /// ```
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if let Some(ctx) = MontgomeryCtx::new(modulus) {
            return ctx.modpow(self, exp);
        }
        self.modpow_naive(exp, modulus)
    }

    /// Binary square-and-multiply with explicit division-based reduction:
    /// the fallback for even moduli, exposed for the ablation benchmarks
    /// (Montgomery vs naive).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow_naive(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem_ref(modulus);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = (&result * &base).rem_ref(modulus);
            }
            base = (&base * &base).rem_ref(modulus);
        }
        result
    }

    /// Multiplicative inverse of `self` modulo `modulus`, if it exists
    /// (i.e. `gcd(self, modulus) == 1`).
    ///
    /// ```
    /// # use drbac_bignum::BigUint;
    /// let p = BigUint::from(101u64);
    /// let inv = BigUint::from(7u64).modinv(&p).unwrap();
    /// assert_eq!((&inv * &BigUint::from(7u64)) % &p, BigUint::one());
    /// ```
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid tracking only the coefficient of `self`,
        // with (sign, magnitude) bookkeeping to stay unsigned.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem_ref(modulus);
        let mut t0 = (false, BigUint::zero()); // coefficient of modulus
        let mut t1 = (true, BigUint::one()); // coefficient of self
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = &q * &t1.1;
            let t2 = match (t0.0, t1.0) {
                (s0, s1) if s0 == s1 => {
                    if t0.1 >= qt1 {
                        (s0, &t0.1 - &qt1)
                    } else {
                        (!s0, &qt1 - &t0.1)
                    }
                }
                (s0, _) => (s0, &t0.1 + &qt1),
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None; // not coprime
        }
        let (positive, mag) = t0;
        let mag = mag.rem_ref(modulus);
        Some(if positive || mag.is_zero() {
            mag
        } else {
            modulus - &mag
        })
    }

    /// Greatest common divisor.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn big(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn mont_ctx_rejects_even_and_zero() {
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from(10u64)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from(9u64)).is_some());
    }

    #[test]
    fn mont_mul_matches_naive() {
        let p = big("ffffffffffffffffffffffffffffff61"); // odd 128-bit
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let a = big("123456789abcdef0fedcba9876543210");
        let b = big("0f0e0d0c0b0a09080706050403020100");
        assert_eq!(ctx.mul(&a, &b), (&a * &b).rem_ref(&p));
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // p = 2^61 - 1 (Mersenne prime): a^(p-1) = 1 mod p.
        let p = BigUint::from((1u64 << 61) - 1);
        let a = BigUint::from(123456789u64);
        let exp = &p - &BigUint::one();
        assert_eq!(a.modpow(&exp, &p), BigUint::one());
    }

    #[test]
    fn modpow_edge_cases() {
        let m = BigUint::from(13u64);
        assert_eq!(
            BigUint::from(5u64).modpow(&BigUint::zero(), &m),
            BigUint::one()
        );
        assert_eq!(
            BigUint::zero().modpow(&BigUint::from(5u64), &m),
            BigUint::zero()
        );
        assert_eq!(
            BigUint::from(5u64).modpow(&BigUint::one(), &m),
            BigUint::from(5u64)
        );
        assert_eq!(
            BigUint::from(5u64).modpow(&BigUint::from(3u64), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn modpow_even_modulus() {
        let m = BigUint::from(1000u64);
        assert_eq!(
            BigUint::from(7u64).modpow(&BigUint::from(13u64), &m),
            BigUint::from(7u64.pow(13) % 1000)
        );
    }

    #[test]
    fn modpow_large_known_vector() {
        // Computed independently: 3^(2^64) mod (2^127 - 1).
        let p = big("7fffffffffffffffffffffffffffffff");
        let e = big("10000000000000000");
        let got = BigUint::from(3u64).modpow(&e, &p);
        // Verify via Fermat: 3^(p-1) = 1, so 3^(2^64) has order dividing p-1.
        // Cross-check with square-and-multiply on the even-modulus path by
        // multiplying p by 2 and reducing.
        let doubled = BigUint::from(3u64).modpow(&e, &(&p * &BigUint::from(2u64)));
        assert_eq!(doubled.rem_ref(&p), got);
    }

    #[test]
    fn modinv_known_and_missing() {
        let p = BigUint::from(97u64);
        for a in 1u64..97 {
            let inv = BigUint::from(a).modinv(&p).unwrap();
            assert_eq!(
                (&inv * &BigUint::from(a)).rem_ref(&p),
                BigUint::one(),
                "a={a}"
            );
        }
        // 6 has no inverse mod 9.
        assert!(BigUint::from(6u64).modinv(&BigUint::from(9u64)).is_none());
        assert!(BigUint::from(3u64).modinv(&BigUint::one()).is_none());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(
            BigUint::from(48u64).gcd(&BigUint::from(18u64)),
            BigUint::from(6u64)
        );
        assert_eq!(
            BigUint::from(17u64).gcd(&BigUint::from(31u64)),
            BigUint::one()
        );
        assert_eq!(
            BigUint::zero().gcd(&BigUint::from(5u64)),
            BigUint::from(5u64)
        );
    }

    fn arb_biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
        prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(BigUint::from_limbs)
    }

    /// An odd modulus of 1–33 limbs; every other one has an all-ones top
    /// limb, where the kernel's result most often lands in `[n, 2n)` and
    /// the final subtraction fires.
    fn arb_odd_modulus() -> impl Strategy<Value = BigUint> {
        (prop::collection::vec(any::<u64>(), 1..=33), any::<bool>()).prop_map(
            |(mut limbs, all_ones_top)| {
                limbs[0] |= 1;
                let top = limbs.len() - 1;
                if all_ones_top {
                    limbs[top] = u64::MAX;
                } else if limbs[top] == 0 {
                    limbs[top] = 1;
                }
                BigUint::from_limbs(limbs)
            },
        )
    }

    /// An exponent of up to 4 limbs (so the naive oracle stays quick at
    /// 33-limb moduli), sometimes all ones.
    fn arb_exponent() -> impl Strategy<Value = BigUint> {
        (arb_biguint(4), any::<bool>()).prop_map(|(e, all_ones)| {
            if all_ones {
                BigUint::one().shl_bits(e.bits().max(1)) - BigUint::one()
            } else {
                e
            }
        })
    }

    /// A base up to one limb longer than any modulus, so `base ≥ n` is
    /// exercised (and base 0 when the vector is empty).
    fn arb_base() -> impl Strategy<Value = BigUint> {
        arb_biguint(34)
    }

    #[test]
    fn kernel_edge_cases_match_oracle() {
        let all_ones_256 = BigUint::one().shl_bits(256) - BigUint::one();
        let moduli = [
            BigUint::one(),
            BigUint::from(3u64),
            BigUint::from(u64::MAX),
            // Top limb all ones, low limbs small: results near R land in
            // [n, 2n) and take the final subtraction.
            BigUint::from_limbs(vec![0x61, 0, 0, u64::MAX]),
            BigUint::one().shl_bits(2048) - BigUint::from(159u64),
        ];
        for n in &moduli {
            let ctx = MontgomeryCtx::new(n).unwrap();
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                n - &BigUint::one(),
                n.clone(),
                n + &BigUint::from(5u64),
                n * n,
            ];
            let exps = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from(16u64),
                all_ones_256.clone(),
            ];
            for base in &bases {
                for exp in &exps {
                    let want = base.modpow_naive(exp, n);
                    assert_eq!(ctx.modpow(base, exp), want, "n={n:?} b={base:?} e={exp:?}");
                    let table = ctx.power_table(base);
                    assert_eq!(ctx.multi_pow(&[(&table, exp)]), want);
                }
                assert_eq!(
                    ctx.mul(base, &(n - &BigUint::one())),
                    (base * &(n - &BigUint::one())).rem_ref(n)
                );
            }
            assert_eq!(ctx.multi_pow(&[]), BigUint::one().rem_ref(n));
        }
    }

    proptest! {
        #[test]
        fn prop_kernel_modpow_matches_naive(n in arb_odd_modulus(), base in arb_base(), exp in arb_exponent()) {
            let ctx = MontgomeryCtx::new(&n).unwrap();
            prop_assert_eq!(ctx.modpow(&base, &exp), base.modpow_naive(&exp, &n));
        }

        #[test]
        fn prop_kernel_mul_matches_naive(n in arb_odd_modulus(), a in arb_base(), b in arb_base()) {
            let ctx = MontgomeryCtx::new(&n).unwrap();
            prop_assert_eq!(ctx.mul(&a, &b), (&a * &b).rem_ref(&n));
        }

        #[test]
        fn prop_joint_pow_matches_naive(
            n in arb_odd_modulus(),
            g in arb_base(),
            a in arb_exponent(),
            y in arb_base(),
            b in arb_exponent(),
        ) {
            let ctx = MontgomeryCtx::new(&n).unwrap();
            let joint = ctx.multi_pow(&[(&ctx.power_table(&g), &a), (&ctx.power_table(&y), &b)]);
            let want = (&g.modpow_naive(&a, &n) * &y.modpow_naive(&b, &n)).rem_ref(&n);
            prop_assert_eq!(joint, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_modpow_multiplicative(a in arb_biguint(2), e1 in 0u64..64, e2 in 0u64..64, mut m in arb_biguint(2)) {
            m.limbs.push(3);
            if m.is_even() { m = &m + &BigUint::one(); }
            let pow1 = a.modpow(&BigUint::from(e1), &m);
            let pow2 = a.modpow(&BigUint::from(e2), &m);
            let sum = a.modpow(&BigUint::from(e1 + e2), &m);
            prop_assert_eq!((&pow1 * &pow2).rem_ref(&m), sum);
        }

        #[test]
        fn prop_modinv_is_inverse(a in arb_biguint(3), mut m in arb_biguint(2)) {
            m.limbs.push(5);
            if let Some(inv) = a.modinv(&m) {
                prop_assert_eq!((&inv * &a).rem_ref(&m), BigUint::one().rem_ref(&m));
                prop_assert!(inv < m);
            } else {
                prop_assert!(!a.gcd(&m).is_one() || m.is_one() || m.is_zero());
            }
        }
    }
}
