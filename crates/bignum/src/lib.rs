//! Arbitrary-precision unsigned integer arithmetic for CryptDB.
//!
//! The paper's implementation used NTL for its number theory; this crate is
//! the from-scratch substitute. It provides everything the cryptographic
//! subsystems need:
//!
//! * [`Ubig`] — an unsigned big integer on 64-bit limbs with schoolbook and
//!   Karatsuba multiplication and Knuth Algorithm D division. Its
//!   heap-allocating multiply and division are the cross-check oracle
//!   for the Montgomery kernels.
//! * [`Montgomery`] — Montgomery-form modular multiplication and
//!   exponentiation for odd moduli (Paillier's hot path): one CIOS
//!   product (squares included), allocation-free on caller-provided
//!   limb slices. [`MontScratch`] carries every working
//!   buffer across repeated exponentiations.
//! * `prime` (internal) — Miller–Rabin probable-prime testing and random prime
//!   generation (Paillier key generation).
//!
//! The crate is `#![forbid(unsafe_code)]`: all invariants (limb
//! normalisation, divisor non-zero, modulus oddness) are enforced at module
//! boundaries.

#![forbid(unsafe_code)]

mod mont;
mod prime;
mod ubig;

pub use mont::{MontScratch, Montgomery};
pub use prime::{gen_prime, gen_safe_prime, is_prime, miller_rabin};
pub use ubig::Ubig;
