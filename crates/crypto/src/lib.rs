#![warn(missing_docs)]

//! PKI substrate for dRBAC, implemented from scratch.
//!
//! The dRBAC paper (ICDCS 2002) identifies every entity — resource owners
//! and principals alike — with a PKI public key, and every delegation is a
//! certificate signed by its issuer. This crate provides exactly that
//! machinery with no external crypto dependencies:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256,
//! * [`SchnorrGroup`] — named safe-prime groups ([`SchnorrGroup::test_256`]
//!   for fast deterministic tests, [`SchnorrGroup::modp_2048`] for
//!   realistic-cost benchmarks),
//! * [`KeyPair`] / [`PublicKey`] / [`Signature`] — Schnorr signatures with
//!   deterministic (hash-derived) nonces,
//! * [`KeyFingerprint`] — the 32-byte identity dRBAC uses to name an
//!   entity's namespace.
//!
//! # Example
//!
//! ```
//! use drbac_crypto::{KeyPair, SchnorrGroup};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let group = SchnorrGroup::test_256();
//! let mut rng = StdRng::seed_from_u64(1);
//! let alice = KeyPair::generate(group, &mut rng);
//! let sig = alice.sign(b"delegation bytes");
//! assert!(alice.public_key().verify(b"delegation bytes", &sig));
//! assert!(!alice.public_key().verify(b"tampered bytes", &sig));
//! ```

mod fingerprint;
mod group;
mod keys;
mod sha256;
mod sign;

pub use fingerprint::KeyFingerprint;
pub use group::{GroupId, SchnorrGroup};
pub use keys::{KeyPair, PublicKey, SecretKey};
pub use sha256::{sha256, Sha256};
pub use sign::Signature;
