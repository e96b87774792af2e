#![warn(missing_docs)]

//! Arbitrary-precision unsigned integer arithmetic for the dRBAC workspace.
//!
//! The dRBAC paper assumes a PKI: every entity *is* a public key, and every
//! delegation is a signed certificate. This workspace implements that PKI
//! from scratch (see `drbac-crypto`), and this crate provides the number
//! theory it stands on: an [`BigUint`] type with schoolbook and
//! Montgomery-accelerated modular arithmetic, plus Miller–Rabin primality
//! testing for validating group parameters.
//!
//! The implementation favours clarity and reviewability over raw speed, but
//! is fast enough that a 2048-bit Schnorr signature verifies in a few
//! milliseconds, which the benchmark suite exercises.
//!
//! # Example
//!
//! ```
//! use drbac_bignum::BigUint;
//!
//! let p = BigUint::from_hex("ffffffffffffffc5").unwrap(); // largest 64-bit prime
//! let g = BigUint::from(3u64);
//! let x = BigUint::from(0x1234_5678u64);
//! let y = g.modpow(&x, &p);
//! assert_eq!(y, BigUint::from_hex("279e5f229f3e9f0f").unwrap());
//! ```

mod arith;
mod biguint;
mod modular;
mod prime;

pub use biguint::{BigUint, ParseBigUintError};
pub use modular::{MontgomeryCtx, PowerTable};
pub use prime::{is_probable_prime, random_biguint_below, random_prime};
