//! The [`BigUint`] type: representation, construction, conversion, and
//! formatting. Arithmetic lives in [`crate::arith`] and [`crate::modular`].

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with no trailing zero limbs
/// (canonical form); zero is the empty limb vector. All public operations
/// preserve canonical form.
///
/// # Example
///
/// ```
/// use drbac_bignum::BigUint;
///
/// let a = BigUint::from(10u64);
/// let b = BigUint::from(32u64);
/// assert_eq!((&a * &b).to_string(), "320");
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

/// Error returned when parsing a [`BigUint`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    pub(crate) offending: char,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid digit {:?} in big integer literal",
            self.offending
        )
    }
}

impl std::error::Error for ParseBigUintError {}

impl BigUint {
    /// The value 0.
    ///
    /// ```
    /// # use drbac_bignum::BigUint;
    /// assert!(BigUint::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even. Zero is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for the value 0).
    ///
    /// ```
    /// # use drbac_bignum::BigUint;
    /// assert_eq!(BigUint::from(255u64).bits(), 8);
    /// assert_eq!(BigUint::from(256u64).bits(), 9);
    /// ```
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            None => false,
            Some(&l) => (l >> (i % 64)) & 1 == 1,
        }
    }

    /// Number of limbs in the canonical representation.
    pub(crate) fn len(&self) -> usize {
        self.limbs.len()
    }

    /// Constructs from little-endian limbs, dropping trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Borrow the little-endian limbs (no trailing zeros).
    pub fn as_limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Constructs from big-endian bytes.
    ///
    /// ```
    /// # use drbac_bignum::BigUint;
    /// assert_eq!(BigUint::from_bytes_be(&[0x01, 0x00]), BigUint::from(256u64));
    /// ```
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Big-endian byte representation with no leading zero bytes
    /// (empty for the value 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        self.extend_bytes_be(&mut out);
        out
    }

    /// Length of [`BigUint::to_bytes_be`]'s output.
    ///
    /// ```
    /// # use drbac_bignum::BigUint;
    /// assert_eq!(BigUint::from(256u64).byte_len(), 2);
    /// assert_eq!(BigUint::zero().byte_len(), 0);
    /// ```
    pub fn byte_len(&self) -> usize {
        self.bits().div_ceil(8)
    }

    /// Appends [`BigUint::to_bytes_be`]'s bytes to `out` without
    /// building them apart.
    pub fn extend_bytes_be(&self, out: &mut Vec<u8>) {
        let Some((&top, rest)) = self.limbs.split_last() else {
            return;
        };
        // The limbs have no trailing zero, so only the top limb has
        // leading zero bytes to skip.
        let top_len = self.byte_len() - 8 * rest.len();
        out.extend_from_slice(&top.to_be_bytes()[8 - top_len..]);
        for limb in rest.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigUintError`] if any character is not a hex digit.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        let mut limbs: Vec<u64> = Vec::with_capacity(s.len() / 16 + 1);
        let digits: Vec<u8> = s
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_')
            .map(|c| {
                c.to_digit(16)
                    .map(|d| d as u8)
                    .ok_or(ParseBigUintError { offending: c })
            })
            .collect::<Result<_, _>>()?;
        for chunk in digits.rchunks(16) {
            let mut limb = 0u64;
            for &d in chunk {
                limb = (limb << 4) | d as u64;
            }
            limbs.push(limb);
        }
        Ok(Self::from_limbs(limbs))
    }

    /// Lowercase hexadecimal representation, `"0"` for zero.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Overwrites the limbs with zeros and truncates (best-effort
    /// scrubbing of secret material; note that `Clone` copies and moves
    /// may leave other instances in memory).
    pub fn scrub(&mut self) {
        for limb in &mut self.limbs {
            // Volatile write so the zeroing is not optimized away.
            unsafe { std::ptr::write_volatile(limb, 0) };
        }
        self.limbs.clear();
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_limbs(vec![v])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        Self::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    /// Decimal representation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let (q, r) = n.divrem_u64(CHUNK);
            digits.push(r.to_string());
            n = q;
        }
        let mut out = String::new();
        for (i, d) in digits.iter().rev().enumerate() {
            if i == 0 {
                out.push_str(d);
            } else {
                out.push_str(&format!("{:0>19}", d));
            }
        }
        f.write_str(&out)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl FromStr for BigUint {
    type Err = ParseBigUintError;

    /// Parses a decimal string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut acc = BigUint::zero();
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c.to_digit(10).ok_or(ParseBigUintError { offending: c })?;
            acc = acc.mul_u64(10);
            acc = &acc + &BigUint::from(d as u64);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_canonical_empty() {
        assert_eq!(BigUint::zero().as_limbs(), &[] as &[u64]);
        assert_eq!(BigUint::from(0u64).as_limbs(), &[] as &[u64]);
        assert_eq!(BigUint::from_limbs(vec![0, 0, 0]), BigUint::zero());
    }

    #[test]
    fn bits_and_bit_access() {
        let n = BigUint::from_hex("8000000000000000").unwrap();
        assert_eq!(n.bits(), 64);
        assert!(n.bit(63));
        assert!(!n.bit(62));
        assert!(!n.bit(64));
        assert_eq!(BigUint::zero().bits(), 0);
    }

    #[test]
    fn hex_round_trip() {
        let cases = [
            "0",
            "1",
            "ff",
            "deadbeefcafebabe",
            "123456789abcdef0123456789abcdef",
        ];
        for c in cases {
            let n = BigUint::from_hex(c).unwrap();
            assert_eq!(n.to_hex(), c);
        }
        // Leading zeros normalize away.
        assert_eq!(BigUint::from_hex("000ff").unwrap().to_hex(), "ff");
        assert_eq!(BigUint::from_hex("0000").unwrap().to_hex(), "0");
    }

    #[test]
    fn hex_rejects_bad_digit() {
        let err = BigUint::from_hex("12g4").unwrap_err();
        assert_eq!(err.offending, 'g');
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_hex("0102030405060708090a0b").unwrap();
        let bytes = n.to_bytes_be();
        assert_eq!(bytes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(BigUint::from_bytes_be(&bytes), n);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]), BigUint::from(5u64));
    }

    #[test]
    fn decimal_display_and_parse() {
        let n: BigUint = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        assert_eq!(
            n,
            BigUint::from_hex("100000000000000000000000000000000").unwrap()
        );
        assert_eq!(n.to_string(), "340282366920938463463374607431768211456");
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!("12345".parse::<BigUint>().unwrap().to_u64(), Some(12345));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from_hex("10000000000000000").unwrap(); // 2^64
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn u128_conversion() {
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let n = BigUint::from(v);
        assert_eq!(n.to_hex(), format!("{v:x}"));
    }
}
