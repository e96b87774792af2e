//! Key fingerprints: the compact, unforgeable identity of an entity.

use std::fmt;

/// SHA-256 fingerprint of a public key's canonical encoding.
///
/// dRBAC names every namespace by the public key of its owning entity; the
/// fingerprint is the canonical 32-byte form of that name used in indexes,
/// wire messages, and display.
///
/// # Example
///
/// ```
/// use drbac_crypto::{KeyPair, SchnorrGroup};
/// # use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let kp = KeyPair::generate(SchnorrGroup::test_256(), &mut rng);
/// let fp = kp.public_key().fingerprint();
/// assert_eq!(fp.to_string().len(), 16); // 8-byte short hex form
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyFingerprint(pub [u8; 32]);

impl KeyFingerprint {
    /// The raw 32 bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Full 64-character hex form.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses the full 64-character hex form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(KeyFingerprint(out))
    }
}

impl fmt::Display for KeyFingerprint {
    /// Short 16-character (8-byte) hex prefix, enough to disambiguate in
    /// logs and traces.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for KeyFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyFingerprint({self})")
    }
}

impl AsRef<[u8]> for KeyFingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let fp = KeyFingerprint([0xabu8; 32]);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(KeyFingerprint::from_hex(&hex), Some(fp));
        assert_eq!(KeyFingerprint::from_hex("zz"), None);
        assert_eq!(KeyFingerprint::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn display_is_short_prefix() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0x12;
        bytes[7] = 0x34;
        bytes[8] = 0xff; // beyond the displayed prefix
        let fp = KeyFingerprint(bytes);
        assert_eq!(fp.to_string(), "1200000000000034");
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = KeyFingerprint([0u8; 32]);
        let b = KeyFingerprint([1u8; 32]);
        assert!(a < b);
    }
}
