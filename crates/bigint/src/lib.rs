//! # ppms-bigint
//!
//! Arbitrary-precision integer arithmetic for the PPMS reproduction.
//!
//! The PPMS paper's two market mechanisms are built entirely out of
//! public-key cryptography over large integers (RSA, Schnorr groups,
//! a group tower over a Cunningham chain, and a Type-A pairing). This
//! crate provides the number substrate from scratch — no external
//! bignum crates — with the performance features those workloads need:
//!
//! * [`BigUint`]: little-endian `u64`-limb unsigned integers, always
//!   normalized (no trailing zero limbs),
//! * one schoolbook product for every operand size (no caller comes near
//!   the 64-limb operands where a recursive product would pay),
//! * Knuth Algorithm D division,
//! * [`FpMont`]: the one modular-arithmetic backend — Montgomery
//!   kernels monomorphized over `const LIMBS` widths (stack-resident
//!   residues, thread-local scratch arena), serving any odd modulus up
//!   to the width by zero-padding, proven allocation-free by a
//!   counting-allocator test,
//! * [`ModRing`]: a constructed-once per-modulus context over the
//!   smallest `FpMont` width that holds an odd modulus of at most
//!   2048 bits, with cached fixed-base window tables, Shamir
//!   simultaneous multi-exponentiation, and RSA-CRT ([`RsaCrt`]) — the
//!   layer every crate above exponentiates through,
//! * [`modpow_plain`]: square-and-multiply for every other modulus,
//!   and the reference the equivalence tests compare against,
//! * [`BigUint::modinv`]: one modular inverse for every modulus, a
//!   binary GCD that strips all trailing zeros with one shift and
//!   divides its cofactor by the matching power of two with one
//!   multiply-add, over four limb buffers allocated once per call,
//! * gcd, lcm, Jacobi symbols,
//! * random generation, and decimal/hex/byte conversions.
//!
//! ## Example
//!
//! ```
//! use ppms_bigint::BigUint;
//!
//! let a = BigUint::from(123456789u64);
//! let b = BigUint::parse_dec("987654321987654321").unwrap();
//! let m = BigUint::from(1000000007u64);
//! let c = a.modpow(&b, &m);
//! assert_eq!(c.to_dec(), "689051811");
//! ```

mod arith;
mod biguint;
mod convert;
mod div;
mod fixed;
mod gcd;
mod modular;
mod mul;
mod random;
mod ring;
mod shift;

pub use crate::biguint::BigUint;
pub use crate::convert::ParseBigUintError;
pub use crate::fixed::FpMont;
pub use crate::gcd::{gcd, jacobi, lcm};
pub use crate::modular::modpow_plain;
pub use crate::random::{random_below, random_bits, random_odd_bits, random_unit_range};
pub use crate::ring::{ModRing, RsaCrt};
