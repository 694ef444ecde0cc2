//! Camenisch–Lysyanskaya signatures (paper ref \[27\], CRYPTO 2004
//! "Scheme A") over the Type-A pairing.
//!
//! Keys: secret `(x, y)`, public `(X, Y) = (x·g, y·g)`.
//! Signature on `m ∈ Z_r`: pick random `a ∈ G`, output
//! `(a, b, c) = (a, y·a, (x + m·x·y)·a)`.
//! Verification (two pairing equations):
//!
//! ```text
//! ê(a, Y)           == ê(g, b)
//! ê(X, a)·ê(X, b)^m == ê(g, c)
//! ```
//!
//! By symmetry and bilinearity on `G`, the second left side is
//! `ê(X, a + m·b)`, so each equation is one product-of-pairings check
//! with a single final exponentiation (see
//! [`TypeAPairing::pairings_equal`]). Bilinearity needs `a, b, c ∈ G`,
//! so verification first refuses points outside `G`.
//!
//! In PPMSdec the JO binds a CL public key to its bank account and
//! authorizes withdrawals by CL-signing a fresh nonce (the paper's
//! `clpk_JO` in the money-withdrawal phase).

use crate::hash::hash_to_int;
use crate::pairing::{Point, TypeAPairing};
use ppms_bigint::BigUint;
use rand::Rng;

/// A CL public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClPublicKey {
    /// `X = x·g`.
    pub x_pub: Point,
    /// `Y = y·g`.
    pub y_pub: Point,
}

impl ClPublicKey {
    /// Canonical encoding for identity binding and traffic accounting.
    pub fn to_bytes(&self, pairing: &TypeAPairing) -> Vec<u8> {
        let mut out = self.x_pub.to_bytes(&pairing.curve.fp);
        out.extend_from_slice(&self.y_pub.to_bytes(&pairing.curve.fp));
        out
    }

    /// Whether the key can be bound to an account: `X` and `Y` are
    /// finite points of `G` with canonical coordinates.
    pub fn is_valid(&self, pairing: &TypeAPairing) -> bool {
        [&self.x_pub, &self.y_pub]
            .into_iter()
            .all(|pt| !pt.is_infinity() && pairing.in_g(pt))
    }
}

/// A CL key pair.
#[derive(Debug, Clone)]
pub struct ClKeyPair {
    /// Public part.
    pub public: ClPublicKey,
    x: BigUint,
    y: BigUint,
}

/// A CL signature `(a, b, c)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClSignature {
    /// Random base point.
    pub a: Point,
    /// `b = y·a`.
    pub b: Point,
    /// `c = (x + m·x·y)·a`.
    pub c: Point,
}

impl ClKeyPair {
    /// Generates a key pair over `pairing`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, pairing: &TypeAPairing) -> ClKeyPair {
        let x = pairing.random_scalar(rng);
        let y = pairing.random_scalar(rng);
        let public = ClPublicKey {
            x_pub: pairing.g_mul(&x),
            y_pub: pairing.g_mul(&y),
        };
        ClKeyPair { public, x, y }
    }

    /// Signs a scalar message `m ∈ Z_r`.
    pub fn sign_scalar<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pairing: &TypeAPairing,
        m: &BigUint,
    ) -> ClSignature {
        let a = pairing.random_torsion_point(rng);
        let b = pairing.mul(&self.y, &a);
        // c = (x + m·x·y)·a
        let exp =
            (&self.x + &m.modmul(&self.x.modmul(&self.y, &pairing.r), &pairing.r)) % &pairing.r;
        let c = pairing.mul(&exp, &a);
        ClSignature { a, b, c }
    }

    /// Signs arbitrary bytes (hashed into `Z_r`).
    pub fn sign_bytes<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pairing: &TypeAPairing,
        msg: &[u8],
    ) -> ClSignature {
        self.sign_scalar(rng, pairing, &hash_msg(pairing, msg))
    }
}

/// Hashes bytes to a CL message scalar.
pub fn hash_msg(pairing: &TypeAPairing, msg: &[u8]) -> BigUint {
    hash_to_int("ppms-cl-msg", &[msg], &pairing.r)
}

impl ClSignature {
    /// Verifies against a scalar message.
    ///
    /// Span: `cl.verify_ns`.
    pub fn verify_scalar(&self, pairing: &TypeAPairing, pk: &ClPublicKey, m: &BigUint) -> bool {
        let _span = ppms_obs::timed!("cl.verify_ns");
        if self.a.is_infinity() {
            return false;
        }
        if ![&self.a, &self.b, &self.c]
            .into_iter()
            .all(|pt| pairing.in_g(pt))
        {
            return false;
        }
        // ê(Y, a) == ê(g, b)
        if !pairing.pairings_equal((&pk.y_pub, &self.a), (&pairing.g, &self.b)) {
            return false;
        }
        // ê(X, a)·ê(X, b)^m = ê(X, a + m·b) == ê(g, c)
        let a_mb = pairing.curve.add(&self.a, &pairing.mul(m, &self.b));
        pairing.pairings_equal((&pk.x_pub, &a_mb), (&pairing.g, &self.c))
    }

    /// Verifies against a byte message.
    pub fn verify_bytes(&self, pairing: &TypeAPairing, pk: &ClPublicKey, msg: &[u8]) -> bool {
        self.verify_scalar(pairing, pk, &hash_msg(pairing, msg))
    }

    /// Re-randomizes the signature (CL signatures stay valid under
    /// `(a, b, c) → (t·a, t·b, t·c)`) — the property that makes them
    /// suitable for anonymous credentials.
    pub fn randomize<R: Rng + ?Sized>(&self, rng: &mut R, pairing: &TypeAPairing) -> ClSignature {
        loop {
            let t = pairing.random_scalar(rng);
            if t.is_zero() {
                continue;
            }
            return ClSignature {
                a: pairing.mul(&t, &self.a),
                b: pairing.mul(&t, &self.b),
                c: pairing.mul(&t, &self.c),
            };
        }
    }

    /// Serialized size in bytes.
    pub fn size_bytes(&self, pairing: &TypeAPairing) -> usize {
        self.a.to_bytes(&pairing.curve.fp).len()
            + self.b.to_bytes(&pairing.curve.fp).len()
            + self.c.to_bytes(&pairing.curve.fp).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::oracle::affine_tate_pairing;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// The five-pairing verification the two product checks replaced,
    /// on the affine oracle pairing. It shares [`Curve::is_on_curve`],
    /// so a non-canonical point is refused here as well.
    ///
    /// [`Curve::is_on_curve`]: crate::pairing::curve::Curve::is_on_curve
    fn five_pairing_verify(
        sig: &ClSignature,
        pairing: &TypeAPairing,
        pk: &ClPublicKey,
        m: &BigUint,
    ) -> bool {
        let e = |p: &Point, q: &Point| {
            affine_tate_pairing(&pairing.curve, &pairing.fp2, p, q, &pairing.r)
        };
        if sig.a.is_infinity() {
            return false;
        }
        if !pairing.curve.is_on_curve(&sig.a)
            || !pairing.curve.is_on_curve(&sig.b)
            || !pairing.curve.is_on_curve(&sig.c)
        {
            return false;
        }
        if e(&sig.a, &pk.y_pub) != e(&pairing.g, &sig.b) {
            return false;
        }
        let e_xa = e(&pk.x_pub, &sig.a);
        let e_xb_m = pairing.gt_pow(&e(&pk.x_pub, &sig.b), m);
        pairing.fp2.mul(&e_xa, &e_xb_m) == e(&pairing.g, &sig.c)
    }

    /// `pt` with `p` added to its x (`coord == 0`) or y coordinate.
    fn non_canonical(pairing: &TypeAPairing, pt: &Point, coord: usize) -> Point {
        let Point::Affine { x, y } = pt else {
            panic!("infinity has no coordinates");
        };
        let p = &pairing.curve.fp.p;
        match coord {
            0 => Point::Affine {
                x: x + p,
                y: y.clone(),
            },
            _ => Point::Affine {
                x: x.clone(),
                y: y + p,
            },
        }
    }

    fn field_mut(sig: &mut ClSignature, field: usize) -> &mut Point {
        match field {
            0 => &mut sig.a,
            1 => &mut sig.b,
            _ => &mut sig.c,
        }
    }

    fn setup() -> (TypeAPairing, ClKeyPair) {
        let mut rng = StdRng::seed_from_u64(1000);
        let pairing = TypeAPairing::generate(&mut rng, 48);
        let keys = ClKeyPair::generate(&mut rng, &pairing);
        (pairing, keys)
    }

    #[test]
    fn sign_verify_scalar() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let m = pairing.random_scalar(&mut rng);
        let sig = keys.sign_scalar(&mut rng, &pairing, &m);
        assert!(sig.verify_scalar(&pairing, &keys.public, &m));
    }

    #[test]
    fn sign_verify_bytes() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let sig = keys.sign_bytes(&mut rng, &pairing, b"withdrawal nonce 42");
        assert!(sig.verify_bytes(&pairing, &keys.public, b"withdrawal nonce 42"));
        assert!(!sig.verify_bytes(&pairing, &keys.public, b"withdrawal nonce 43"));
    }

    #[test]
    fn wrong_key_rejected() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let other = ClKeyPair::generate(&mut rng, &pairing);
        let m = pairing.random_scalar(&mut rng);
        let sig = keys.sign_scalar(&mut rng, &pairing, &m);
        assert!(!sig.verify_scalar(&pairing, &other.public, &m));
    }

    #[test]
    fn tampered_component_rejected() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let m = pairing.random_scalar(&mut rng);
        let sig = keys.sign_scalar(&mut rng, &pairing, &m);
        for field in 0..3 {
            let mut bad = sig.clone();
            let twist = pairing.random_torsion_point(&mut rng);
            match field {
                0 => bad.a = pairing.curve.add(&bad.a, &twist),
                1 => bad.b = pairing.curve.add(&bad.b, &twist),
                _ => bad.c = pairing.curve.add(&bad.c, &twist),
            }
            assert!(
                !bad.verify_scalar(&pairing, &keys.public, &m),
                "field {field}"
            );
        }
    }

    #[test]
    fn randomized_signature_still_verifies() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let m = pairing.random_scalar(&mut rng);
        let sig = keys.sign_scalar(&mut rng, &pairing, &m);
        let rand_sig = sig.randomize(&mut rng, &pairing);
        assert_ne!(rand_sig, sig, "randomization changes the triple");
        assert!(rand_sig.verify_scalar(&pairing, &keys.public, &m));
    }

    #[test]
    fn infinity_a_rejected() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let m = pairing.random_scalar(&mut rng);
        let mut sig = keys.sign_scalar(&mut rng, &pairing, &m);
        sig.a = Point::Infinity;
        sig.b = Point::Infinity;
        sig.c = Point::Infinity;
        assert!(
            !sig.verify_scalar(&pairing, &keys.public, &m),
            "all-infinity forgery"
        );
    }

    #[test]
    fn non_canonical_coordinates_rejected_without_panic() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let msg = b"withdrawal nonce 7";
        let sig = keys.sign_bytes(&mut rng, &pairing, msg);
        assert!(sig.verify_bytes(&pairing, &keys.public, msg));
        for field in 0..3 {
            for coord in 0..2 {
                let mut bad = sig.clone();
                let pt = field_mut(&mut bad, field);
                *pt = non_canonical(&pairing, pt, coord);
                assert!(
                    !bad.verify_bytes(&pairing, &keys.public, msg),
                    "field {field}, coordinate {coord}"
                );
            }
        }
    }

    #[test]
    fn points_outside_g_rejected() {
        // (0, 0) has order 2; adding it moves a point out of G while
        // keeping it on the curve.
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let m = pairing.random_scalar(&mut rng);
        let sig = keys.sign_scalar(&mut rng, &pairing, &m);
        let two_torsion = Point::Affine {
            x: BigUint::zero(),
            y: BigUint::zero(),
        };
        for field in 0..3 {
            let mut bad = sig.clone();
            let pt = field_mut(&mut bad, field);
            *pt = pairing.curve.add(pt, &two_torsion);
            assert!(pairing.curve.is_on_curve(pt));
            assert!(
                !bad.verify_scalar(&pairing, &keys.public, &m),
                "field {field}"
            );
        }
    }

    #[test]
    fn verify_is_timed_with_its_miller_loops() {
        let (pairing, keys) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let sig = keys.sign_bytes(&mut rng, &pairing, b"timed");
        let verifies = ppms_obs::global().histogram("cl.verify_ns");
        let loops = ppms_obs::global().histogram("pairing.miller_ns");
        let (v0, l0) = (verifies.count(), loops.count());
        assert!(sig.verify_bytes(&pairing, &keys.public, b"timed"));
        // Other tests verify concurrently, so the counts only bound.
        assert!(verifies.count() > v0);
        assert!(
            loops.count() >= l0 + 4,
            "two checks of two Miller loops each"
        );
    }

    #[test]
    fn public_key_validity() {
        let (pairing, keys) = setup();
        assert!(keys.public.is_valid(&pairing));
        let two_torsion = Point::Affine {
            x: BigUint::zero(),
            y: BigUint::zero(),
        };
        let variants = [
            (Point::Infinity, keys.public.y_pub.clone()),
            (keys.public.x_pub.clone(), Point::Infinity),
            (
                non_canonical(&pairing, &keys.public.x_pub, 0),
                keys.public.y_pub.clone(),
            ),
            (
                keys.public.x_pub.clone(),
                non_canonical(&pairing, &keys.public.y_pub, 1),
            ),
            (two_torsion.clone(), keys.public.y_pub.clone()),
            (
                keys.public.x_pub.clone(),
                pairing.curve.add(&keys.public.y_pub, &two_torsion),
            ),
            (
                Point::Affine {
                    x: BigUint::from(2u64),
                    y: BigUint::from(2u64),
                },
                keys.public.y_pub.clone(),
            ),
        ];
        for (x_pub, y_pub) in variants {
            let pk = ClPublicKey { x_pub, y_pub };
            assert!(!pk.is_valid(&pairing), "{pk:?}");
        }
    }

    fn oracle_setup() -> &'static (TypeAPairing, ClKeyPair) {
        static S: OnceLock<(TypeAPairing, ClKeyPair)> = OnceLock::new();
        S.get_or_init(setup)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn two_check_verify_matches_five_pairing_oracle(
            seed in any::<u64>(),
            field in 0usize..3,
            coord in 0usize..2,
        ) {
            let (pairing, keys) = oracle_setup();
            let mut rng = StdRng::seed_from_u64(seed);
            let other = ClKeyPair::generate(&mut rng, pairing);
            let m = pairing.random_scalar(&mut rng);
            let sig = keys.sign_scalar(&mut rng, pairing, &m);

            let mut tampered = sig.clone();
            let pt = field_mut(&mut tampered, field);
            *pt = pairing.curve.add(pt, &pairing.random_torsion_point(&mut rng));
            let mut shifted = sig.clone();
            let pt = field_mut(&mut shifted, field);
            *pt = non_canonical(pairing, pt, coord);
            let mut at_infinity = sig.clone();
            *field_mut(&mut at_infinity, field) = Point::Infinity;

            let wrong_m = (&m + 1u64) % &pairing.r;
            let cases = [
                (&sig, &keys.public, &m, true),
                (&sig.randomize(&mut rng, pairing), &keys.public, &m, true),
                (&tampered, &keys.public, &m, false),
                (&shifted, &keys.public, &m, false),
                (&at_infinity, &keys.public, &m, false),
                (&sig, &keys.public, &wrong_m, false),
                (&sig, &other.public, &m, false),
            ];
            for (i, (sig, pk, m, expected)) in cases.into_iter().enumerate() {
                let new = sig.verify_scalar(pairing, pk, m);
                prop_assert_eq!(new, five_pairing_verify(sig, pairing, pk, m), "case {}", i);
                prop_assert_eq!(new, expected, "case {}", i);
            }
        }
    }
}
