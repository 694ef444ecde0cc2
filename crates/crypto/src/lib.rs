//! # ppms-crypto
//!
//! The cryptographic substrate of the PPMS reproduction, implemented
//! from scratch on top of [`ppms_bigint`]:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (the workspace's only hash),
//! * [`hash`] — domain-separated hashing into integers/groups, MGF1,
//!   HMAC-SHA256,
//! * [`rsa`] — key generation, hybrid encryption (an OAEP-wrapped seed
//!   keying an encrypt-then-MAC body), FDH signatures,
//!   Chaum blind signatures and the RSA **partially blind signature**
//!   used by PPMSpbs (paper ref \[40\]),
//! * [`group`] — prime-order subgroups of `Z_p*` (Schnorr groups),
//! * [`tower`] — the DEC group tower `G_1 … G_{L+1}` whose orders form
//!   a Cunningham chain (paper §III-C1),
//! * [`pedersen`] — Pedersen commitments,
//! * [`zkp`] — Fiat–Shamir NIZKs: Schnorr discrete log, Okamoto
//!   representation, Stadler double discrete log, CDS OR-composition
//!   and Chaum–Pedersen equality (paper §VI-C, refs \[34\]–\[39\]),
//! * [`pairing`] — a Type-A symmetric pairing (supersingular
//!   `y² = x³ + x` over `F_p`, Tate pairing via Miller's algorithm) —
//!   the same family the paper's jPBC dependency provides,
//! * [`cl`] — Camenisch–Lysyanskaya signatures over that pairing
//!   (paper ref \[27\]).

pub mod cl;
pub mod group;
pub mod hash;
pub mod pairing;
pub mod pedersen;
pub mod rsa;
pub mod sha256;
pub mod tower;
pub mod zkp;

pub use cl::{ClKeyPair, ClPublicKey, ClSignature};
pub use group::SchnorrGroup;
pub use pedersen::{PedersenCommitment, PedersenParams};
pub use sha256::Sha256;
pub use tower::GroupTower;
