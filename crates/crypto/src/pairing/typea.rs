//! Type-A pairing parameter generation and front-end — the Rust
//! equivalent of jPBC's `TypeACurveGenerator` (paper ref \[33\]).
//!
//! Parameters: prime group order `r`, cofactor `h ≡ 0 (mod 4)` with
//! `p = h·r − 1` prime. Then `p ≡ 3 (mod 4)`, `#E(F_p) = p + 1 = h·r`,
//! and multiplying random points by `h` lands in the order-`r` torsion
//! subgroup `G`, on which [`TypeAPairing::pairing`] is a symmetric,
//! non-degenerate bilinear map into `μ_r ⊂ F_p²`.

use super::curve::{Curve, Point};
use super::fp::Fp;
use super::fp2::{Fp2, Fp2Ctx};
use super::miller::{final_exp, miller_loop, tate_pairing};
use ppms_bigint::{random_below, BigUint};
use ppms_primes::gen::random_prime;
use ppms_primes::miller_rabin::is_probable_prime_rounds;
use rand::Rng;

/// A complete Type-A pairing instance.
#[derive(Debug, Clone)]
pub struct TypeAPairing {
    /// The curve `y² = x³ + x` over `F_p`.
    pub curve: Curve,
    /// Arithmetic for pairing values.
    pub fp2: Fp2Ctx,
    /// Prime order of the torsion subgroup `G`.
    pub r: BigUint,
    /// Cofactor (`p + 1 = h·r`).
    pub h: BigUint,
    /// Canonical generator of `G`.
    pub g: Point,
}

impl TypeAPairing {
    /// Generates parameters with an `r_bits`-bit group order.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, r_bits: usize) -> TypeAPairing {
        assert!(r_bits >= 16, "group order too small to be meaningful");
        let r = random_prime(rng, r_bits);
        // Search cofactors h = 4, 8, 12, ... for prime p = h·r − 1.
        let mut h = BigUint::from(4u64);
        let p = loop {
            let cand = &(&h * &r) - 1u64;
            if is_probable_prime_rounds(&cand, 32, rng) {
                break cand;
            }
            h = &h + &BigUint::from(4u64);
        };
        debug_assert_eq!(&p % 4u64, 3);

        let fp = Fp::new(&p);
        let curve = Curve::new(fp.clone());
        let fp2 = Fp2Ctx::new(fp);

        // Generator: cofactor-multiply random points into G.
        let g = loop {
            let pt = curve.random_point(rng);
            let g = curve.mul(&h, &pt);
            if !g.is_infinity() {
                debug_assert!(curve.mul(&r, &g).is_infinity());
                break g;
            }
        };

        TypeAPairing {
            curve,
            fp2,
            r,
            h,
            g,
        }
    }

    /// The symmetric pairing `ê(P, Q)` for `P, Q ∈ G`.
    pub fn pairing(&self, p: &Point, q: &Point) -> Fp2 {
        tate_pairing(&self.curve, &self.fp2, p, q, &self.r, &self.h)
    }

    /// Whether `ê(P₁, Q₁) = ê(P₂, Q₂)`, as a product of pairings with
    /// one final exponentiation: `(f_{P₁}(Q₁)·conj(f_{P₂}(Q₂)))` reduces
    /// to `ê(P₁, Q₁)·ê(P₂, Q₂)⁻¹`, since conjugation commutes with the
    /// final exponentiation and inverts the norm-one reduced values.
    pub fn pairings_equal(&self, (p1, q1): (&Point, &Point), (p2, q2): (&Point, &Point)) -> bool {
        let f1 = miller_loop(&self.curve, p1, q1, &self.r);
        let f2 = miller_loop(&self.curve, p2, q2, &self.r);
        let ratio = self.fp2.mul(&f1, &self.fp2.conj(&f2));
        final_exp(&self.fp2, &ratio, &self.h).is_one()
    }

    /// Whether `pt` lies in `G`: on the curve with canonical
    /// coordinates, and `r·pt = O`. Bilinearity holds only on `G`.
    pub fn in_g(&self, pt: &Point) -> bool {
        self.curve.is_on_curve(pt) && self.curve.mul(&self.r, pt).is_infinity()
    }

    /// Scalar multiplication in `G`.
    pub fn mul(&self, k: &BigUint, p: &Point) -> Point {
        self.curve.mul(&(k % &self.r), p)
    }

    /// `k·g`.
    pub fn g_mul(&self, k: &BigUint) -> Point {
        self.mul(k, &self.g.clone())
    }

    /// Uniform scalar in `[0, r)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        random_below(rng, &self.r)
    }

    /// Uniform element of `G` (never infinity).
    pub fn random_torsion_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        loop {
            let k = self.random_scalar(rng);
            let pt = self.g_mul(&k);
            if !pt.is_infinity() {
                return pt;
            }
        }
    }

    /// Exponentiation in the target group `μ_r`.
    pub fn gt_pow(&self, x: &Fp2, e: &BigUint) -> Fp2 {
        self.fp2.pow(x, &(e % &self.r))
    }
}

#[cfg(test)]
mod tests {
    use super::super::oracle::{affine_mul, affine_tate_pairing};
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn pairing() -> TypeAPairing {
        let mut rng = StdRng::seed_from_u64(7);
        TypeAPairing::generate(&mut rng, 48)
    }

    #[test]
    fn parameters_wellformed() {
        let e = pairing();
        let p_plus_1 = &e.curve.fp.p + 1u64;
        assert_eq!(&e.h * &e.r, p_plus_1, "p + 1 = h·r");
        assert_eq!(&e.curve.fp.p % 4u64, 3);
        assert!(e.curve.is_on_curve(&e.g));
        assert!(
            e.curve.mul(&e.r, &e.g).is_infinity(),
            "generator has order r"
        );
    }

    #[test]
    fn non_degenerate() {
        let e = pairing();
        let v = e.pairing(&e.g, &e.g);
        assert!(!v.is_one(), "e(g, g) must generate μ_r");
        // Output has order dividing r (and exactly r by primality).
        assert!(e.fp2.pow(&v, &e.r).is_one());
    }

    #[test]
    fn bilinearity() {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(1);
        let a = e.random_scalar(&mut rng);
        let b = e.random_scalar(&mut rng);
        let lhs = e.pairing(&e.g_mul(&a), &e.g_mul(&b));
        let base = e.pairing(&e.g, &e.g);
        let rhs = e.gt_pow(&base, &a.modmul(&b, &e.r));
        assert_eq!(lhs, rhs, "e(aG, bG) = e(G, G)^(ab)");
    }

    #[test]
    fn bilinear_in_each_slot() {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(2);
        let p = e.random_torsion_point(&mut rng);
        let q = e.random_torsion_point(&mut rng);
        let k = e.random_scalar(&mut rng);
        let kp_q = e.pairing(&e.mul(&k, &p), &q);
        let p_kq = e.pairing(&p, &e.mul(&k, &q));
        let pq_k = e.gt_pow(&e.pairing(&p, &q), &k);
        assert_eq!(kp_q, pq_k);
        assert_eq!(p_kq, pq_k);
    }

    #[test]
    fn symmetric() {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(3);
        let p = e.random_torsion_point(&mut rng);
        let q = e.random_torsion_point(&mut rng);
        assert_eq!(e.pairing(&p, &q), e.pairing(&q, &p));
    }

    #[test]
    fn infinity_maps_to_one() {
        let e = pairing();
        assert!(e.pairing(&Point::Infinity, &e.g).is_one());
        assert!(e.pairing(&e.g, &Point::Infinity).is_one());
    }

    #[test]
    fn multiplicative_in_first_argument() {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(4);
        let p1 = e.random_torsion_point(&mut rng);
        let p2 = e.random_torsion_point(&mut rng);
        let q = e.random_torsion_point(&mut rng);
        let lhs = e.pairing(&e.curve.add(&p1, &p2), &q);
        let rhs = e.fp2.mul(&e.pairing(&p1, &q), &e.pairing(&p2, &q));
        assert_eq!(lhs, rhs, "e(P1 + P2, Q) = e(P1, Q)·e(P2, Q)");
    }

    #[test]
    fn pairings_equal_is_the_pairing_comparison() {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(5);
        let p = e.random_torsion_point(&mut rng);
        let q = e.random_torsion_point(&mut rng);
        let k = e.random_scalar(&mut rng);
        let kq = e.mul(&k, &q);
        assert!(e.pairings_equal((&e.mul(&k, &p), &q), (&p, &kq)));
        assert!(e.pairings_equal((&p, &Point::Infinity), (&Point::Infinity, &q)));
        assert!(!e.pairings_equal((&p, &q), (&p, &e.curve.add(&q, &q))));
        assert!(!e.pairings_equal((&p, &q), (&e.g, &Point::Infinity)));
    }

    #[test]
    fn in_g_refuses_points_outside_the_subgroup() {
        let e = pairing();
        let two_torsion = Point::Affine {
            x: BigUint::zero(),
            y: BigUint::zero(),
        };
        assert!(e.in_g(&e.g) && e.in_g(&Point::Infinity));
        assert!(e.curve.is_on_curve(&two_torsion) && !e.in_g(&two_torsion));
        assert!(!e.in_g(&e.curve.add(&e.g, &two_torsion)));
        let Point::Affine { x, y } = &e.g else {
            unreachable!()
        };
        for (x, y) in [
            (x + &e.curve.fp.p, y.clone()),
            (x.clone(), y + &e.curve.fp.p),
        ] {
            let shifted = Point::Affine { x, y };
            assert!(!e.curve.is_on_curve(&shifted), "non-canonical coordinates");
            assert!(!e.in_g(&shifted));
        }
    }

    #[test]
    fn jacobian_mul_matches_affine_double_and_add() {
        let e = pairing();
        let mut rng = StdRng::seed_from_u64(6);
        let two_torsion = Point::Affine {
            x: BigUint::zero(),
            y: BigUint::zero(),
        };
        let off_g = e.curve.random_point(&mut rng);
        let points = [
            e.g.clone(),
            e.random_torsion_point(&mut rng),
            off_g,
            two_torsion,
        ];
        let scalars = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(2u64),
            e.r.clone(),
            &e.r + 3u64,
            &e.curve.fp.p + 1u64,
            e.random_scalar(&mut rng),
        ];
        for p in &points {
            for k in &scalars {
                assert_eq!(
                    e.curve.mul(k, p),
                    affine_mul(&e.curve, k, p),
                    "k = {k:?}, P = {p:?}"
                );
            }
        }
    }

    fn oracle_pairing() -> &'static TypeAPairing {
        static E: OnceLock<TypeAPairing> = OnceLock::new();
        E.get_or_init(pairing)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn pairing_matches_affine_oracle(seed in any::<u64>()) {
            let e = oracle_pairing();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = e.random_scalar(&mut rng);
            let b = e.random_scalar(&mut rng);
            let (p, q) = (e.g_mul(&a), e.g_mul(&b));
            prop_assert_eq!(e.pairing(&p, &q), affine_tate_pairing(&e.curve, &e.fp2, &p, &q, &e.r));
            let p = e.random_torsion_point(&mut rng);
            prop_assert_eq!(
                e.pairing(&p, &e.g),
                affine_tate_pairing(&e.curve, &e.fp2, &p, &e.g, &e.r)
            );
        }

        #[test]
        fn jacobian_mul_matches_affine_oracle(seed in any::<u64>()) {
            let e = oracle_pairing();
            let mut rng = StdRng::seed_from_u64(seed);
            let k = random_below(&mut rng, &(&e.curve.fp.p + 1u64));
            let p = e.curve.random_point(&mut rng);
            prop_assert_eq!(e.curve.mul(&k, &p), affine_mul(&e.curve, &k, &p));
            let q = e.random_torsion_point(&mut rng);
            prop_assert_eq!(e.curve.mul(&k, &q), affine_mul(&e.curve, &k, &q));
        }
    }
}
