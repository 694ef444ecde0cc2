//! A Type-A symmetric pairing, built from scratch.
//!
//! The paper's implementation used jPBC's Type A parameters (refs
//! \[31\]–\[33\]): the supersingular curve `E: y² = x³ + x` over `F_p`
//! with `p ≡ 3 (mod 4)`, which has `#E(F_p) = p + 1` and embedding
//! degree 2. For a prime `r | p + 1`, the `r`-torsion subgroup
//! `G ⊂ E(F_p)` admits a **symmetric** bilinear pairing
//! `ê: G × G → μ_r ⊂ F_p²` via the Tate pairing composed with the
//! distortion map `φ(x, y) = (−x, i·y)` (where `i² = −1` in
//! `F_p² = F_p[i]`).
//!
//! Modules:
//! * [`fp`] — arithmetic in `F_p`,
//! * [`fp2`] — arithmetic in `F_p²`,
//! * [`curve`] — points of `E(F_p)` and scalar multiplication,
//! * [`miller`] — Miller's algorithm in Jacobian coordinates + the
//!   split final exponentiation,
//! * [`typea`] — parameter generation and the [`typea::TypeAPairing`]
//!   front-end used by the CL signature.

pub mod curve;
pub mod fp;
pub mod fp2;
pub mod miller;
#[cfg(test)]
pub(crate) mod oracle;
pub mod typea;

pub use curve::Point;
pub use fp::Fp;
pub use fp2::Fp2;
pub use typea::TypeAPairing;
