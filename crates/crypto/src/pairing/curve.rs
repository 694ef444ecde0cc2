//! The supersingular curve `E: y² = x³ + x` over `F_p` and its group
//! law. With `p ≡ 3 (mod 4)` this curve has exactly `p + 1` points.

use super::fp::{with_width, Fp, FpL};
use ppms_bigint::{random_below, BigUint};
use rand::Rng;

/// A point of `E(F_p)` in affine coordinates; `Infinity` is the
/// neutral element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Point {
    /// The point at infinity.
    Infinity,
    /// An affine point.
    Affine {
        /// x-coordinate.
        x: BigUint,
        /// y-coordinate.
        y: BigUint,
    },
}

impl Point {
    /// `true` iff the neutral element.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// Canonical encoding (empty for infinity).
    pub fn to_bytes(&self, f: &Fp) -> Vec<u8> {
        match self {
            Point::Infinity => vec![0],
            Point::Affine { x, y } => {
                let w = f.p.bits().div_ceil(8);
                let mut out = vec![1];
                out.extend_from_slice(&x.to_bytes_be_padded(w));
                out.extend_from_slice(&y.to_bytes_be_padded(w));
                out
            }
        }
    }
}

/// A point in Jacobian coordinates `(X : Y : Z)` over [`FpL`]
/// residues, standing for the affine `(X/Z², Y/Z³)`; `Z = 0` is the
/// point at infinity. Doubling and mixed addition need no inversion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Jacobian<const L: usize> {
    pub(crate) x: [u64; L],
    pub(crate) y: [u64; L],
    pub(crate) z: [u64; L],
}

impl<const L: usize> Jacobian<L> {
    pub(crate) fn infinity() -> Jacobian<L> {
        Jacobian {
            x: [0; L],
            y: [0; L],
            z: [0; L],
        }
    }

    pub(crate) fn from_affine(f: &FpL<L>, x: &[u64; L], y: &[u64; L]) -> Jacobian<L> {
        Jacobian {
            x: *x,
            y: *y,
            z: f.one(),
        }
    }

    pub(crate) fn is_infinity(&self) -> bool {
        FpL::is_zero(&self.z)
    }
}

/// What a doubling step computes on the way that Miller's tangent line
/// reuses: the slope numerator `M = 3X² + Z⁴`, `Z²` and `Y²`.
pub(crate) struct Tangent<const L: usize> {
    pub(crate) m: [u64; L],
    pub(crate) zz: [u64; L],
    pub(crate) yy: [u64; L],
}

/// The outcome of a mixed addition `T + P`.
pub(crate) enum Chord<const L: usize> {
    /// `T + P`, and the chord's slope numerator `R` (slope `R / Z₃`,
    /// with `Z₃` the sum's `Z`).
    Sum(Jacobian<L>, [u64; L]),
    /// `T = −P`: the chord is vertical and the sum is `O`.
    Vertical,
    /// `T = P`: the chord degenerates to the tangent at `P`.
    Tangent,
}

/// `2T` for `T ≠ O`, with the tangent's ingredients, or `None` when
/// `2T = O` (`T = O` or the vertical tangent at `y = 0`). The slope of
/// the tangent is `M / (2·Y·Z)`. Costs 6 squarings and 3
/// multiplications (`a = 1`).
pub(crate) fn double_jacobian<const L: usize>(
    f: &FpL<L>,
    t: &Jacobian<L>,
) -> Option<(Jacobian<L>, Tangent<L>)> {
    if t.is_infinity() || FpL::is_zero(&t.y) {
        return None;
    }
    let xx = f.sqr(&t.x);
    let yy = f.sqr(&t.y);
    let zz = f.sqr(&t.z);
    let s = f.dbl(&f.dbl(&f.mul(&t.x, &yy)));
    // M = 3X² + a·Z⁴ with a = 1.
    let m = f.add(&f.add(&xx, &f.dbl(&xx)), &f.sqr(&zz));
    let x3 = f.sub(&f.sqr(&m), &f.dbl(&s));
    let yyyy8 = f.dbl(&f.dbl(&f.dbl(&f.sqr(&yy))));
    let y3 = f.sub(&f.mul(&m, &f.sub(&s, &x3)), &yyyy8);
    let z3 = f.mul(&f.dbl(&t.y), &t.z);
    Some((
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        },
        Tangent { m, zz, yy },
    ))
}

/// `T + P` for `T ≠ O` and affine `P = (x2, y2)` (mixed addition: 3
/// squarings and 8 multiplications).
pub(crate) fn add_mixed<const L: usize>(
    f: &FpL<L>,
    t: &Jacobian<L>,
    x2: &[u64; L],
    y2: &[u64; L],
) -> Chord<L> {
    let z1z1 = f.sqr(&t.z);
    let u2 = f.mul(x2, &z1z1);
    let s2 = f.mul(&f.mul(y2, &t.z), &z1z1);
    let h = f.sub(&u2, &t.x);
    let r = f.sub(&s2, &t.y);
    if FpL::is_zero(&h) {
        return if FpL::is_zero(&r) {
            Chord::Tangent
        } else {
            Chord::Vertical
        };
    }
    let hh = f.sqr(&h);
    let hhh = f.mul(&h, &hh);
    let v = f.mul(&t.x, &hh);
    let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.dbl(&v));
    let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&t.y, &hhh));
    let z3 = f.mul(&t.z, &h);
    Chord::Sum(
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        },
        r,
    )
}

/// `k·P` for affine `P = (px, py)` by double-and-add.
fn jacobian_mul<const L: usize>(
    f: &FpL<L>,
    k: &BigUint,
    px: &[u64; L],
    py: &[u64; L],
) -> Jacobian<L> {
    let double =
        |t: &Jacobian<L>| double_jacobian(f, t).map_or_else(Jacobian::infinity, |(t2, _)| t2);
    let mut acc = Jacobian::infinity();
    for i in (0..k.bits()).rev() {
        acc = double(&acc);
        if k.bit(i) {
            acc = if acc.is_infinity() {
                Jacobian::from_affine(f, px, py)
            } else {
                match add_mixed(f, &acc, px, py) {
                    Chord::Sum(t, _) => t,
                    Chord::Vertical => Jacobian::infinity(),
                    Chord::Tangent => double(&acc),
                }
            };
        }
    }
    acc
}

/// `(X/Z², Y/Z³)`, the one inversion of a Jacobian computation.
fn to_affine<const L: usize>(f: &FpL<L>, t: &Jacobian<L>) -> Point {
    if t.is_infinity() {
        return Point::Infinity;
    }
    let zinv = f.inv(&t.z);
    let zinv2 = f.sqr(&zinv);
    Point::Affine {
        x: f.leave(&f.mul(&t.x, &zinv2)),
        y: f.leave(&f.mul(&t.y, &f.mul(&zinv2, &zinv))),
    }
}

/// Curve context: the base field (the curve constant is fixed, `a=1`,
/// `b=0`).
#[derive(Debug, Clone)]
pub struct Curve {
    /// Base field.
    pub fp: Fp,
}

impl Curve {
    /// Wraps the field context. Requires `p ≡ 3 (mod 4)` so the curve
    /// is supersingular with `p + 1` points.
    pub fn new(fp: Fp) -> Curve {
        assert_eq!(&fp.p % 4u64, 3, "Type A needs p ≡ 3 (mod 4)");
        Curve { fp }
    }

    /// `true` iff `pt` is the point at infinity or `(x, y)` has
    /// canonical coordinates (`x, y < p`) satisfying `y² = x³ + x`.
    pub fn is_on_curve(&self, pt: &Point) -> bool {
        match pt {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                if x >= &self.fp.p || y >= &self.fp.p {
                    return false;
                }
                let lhs = self.fp.square(y);
                let rhs = self.fp.add(&self.fp.mul(&self.fp.square(x), x), x);
                lhs == rhs
            }
        }
    }

    /// Point negation.
    pub fn neg(&self, pt: &Point) -> Point {
        match pt {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine {
                x: x.clone(),
                y: self.fp.neg(y),
            },
        }
    }

    /// Group law.
    pub fn add(&self, p: &Point, q: &Point) -> Point {
        match (p, q) {
            (Point::Infinity, _) => q.clone(),
            (_, Point::Infinity) => p.clone(),
            (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 {
                        if y1.is_zero() {
                            return Point::Infinity; // order-2 point doubled
                        }
                        // Doubling: λ = (3x² + 1) / 2y
                        let x1sq = self.fp.square(x1);
                        let num = self.fp.add(
                            &self.fp.add(&x1sq, &self.fp.add(&x1sq, &x1sq)),
                            &BigUint::one(),
                        );
                        let den = self.fp.add(y1, y1);
                        let lam = self.fp.mul(&num, &self.fp.inv(&den));
                        self.chord(x1, y1, x2, &lam)
                    } else {
                        Point::Infinity // P + (−P)
                    }
                } else {
                    // Chord: λ = (y2 − y1) / (x2 − x1)
                    let num = self.fp.sub(y2, y1);
                    let den = self.fp.sub(x2, x1);
                    let lam = self.fp.mul(&num, &self.fp.inv(&den));
                    self.chord(x1, y1, x2, &lam)
                }
            }
        }
    }

    fn chord(&self, x1: &BigUint, y1: &BigUint, x2: &BigUint, lam: &BigUint) -> Point {
        let x3 = self.fp.sub(&self.fp.sub(&self.fp.square(lam), x1), x2);
        let y3 = self.fp.sub(&self.fp.mul(lam, &self.fp.sub(x1, &x3)), y1);
        Point::Affine { x: x3, y: y3 }
    }

    /// Scalar multiplication: double-and-add in Jacobian coordinates
    /// on fixed-width residues, with the one inversion in the final
    /// conversion to affine.
    pub fn mul(&self, k: &BigUint, p: &Point) -> Point {
        let Point::Affine { x, y } = p else {
            return Point::Infinity;
        };
        with_width!(self.fp, f => to_affine(f, &jacobian_mul(f, k, &f.enter(x), &f.enter(y))))
    }

    /// Samples a uniformly random curve point (excluding infinity).
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        loop {
            let x = random_below(rng, &self.fp.p);
            let rhs = self.fp.add(&self.fp.mul(&self.fp.square(&x), &x), &x);
            if let Some(y) = self.fp.sqrt(&rhs) {
                // Randomize the sign of y for uniformity.
                let y = if rng.next_u32() & 1 == 0 {
                    y
                } else {
                    self.fp.neg(&y)
                };
                let pt = Point::Affine { x, y };
                if !pt.is_infinity() {
                    return pt;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// p = 1019 ≡ 3 mod 4 is prime; E(F_1019) has 1020 points.
    fn curve() -> Curve {
        Curve::new(Fp::new(&BigUint::from(1019u64)))
    }

    #[test]
    fn random_points_on_curve() {
        let c = curve();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert!(c.is_on_curve(&c.random_point(&mut rng)));
        }
    }

    #[test]
    fn group_axioms() {
        let c = curve();
        let mut rng = StdRng::seed_from_u64(2);
        let p = c.random_point(&mut rng);
        let q = c.random_point(&mut rng);
        let r = c.random_point(&mut rng);
        // Identity, inverse, commutativity, associativity.
        assert_eq!(c.add(&p, &Point::Infinity), p);
        assert_eq!(c.add(&p, &c.neg(&p)), Point::Infinity);
        assert_eq!(c.add(&p, &q), c.add(&q, &p));
        assert_eq!(c.add(&c.add(&p, &q), &r), c.add(&p, &c.add(&q, &r)));
    }

    #[test]
    fn curve_order_is_p_plus_one() {
        let c = curve();
        let mut rng = StdRng::seed_from_u64(3);
        let order = &c.fp.p + 1u64;
        for _ in 0..5 {
            let p = c.random_point(&mut rng);
            assert_eq!(c.mul(&order, &p), Point::Infinity);
        }
    }

    #[test]
    fn scalar_mul_consistency() {
        let c = curve();
        let mut rng = StdRng::seed_from_u64(4);
        let p = c.random_point(&mut rng);
        // 5P = P + P + P + P + P
        let five = c.mul(&BigUint::from(5u64), &p);
        let mut acc = Point::Infinity;
        for _ in 0..5 {
            acc = c.add(&acc, &p);
        }
        assert_eq!(five, acc);
        assert_eq!(c.mul(&BigUint::zero(), &p), Point::Infinity);
        assert_eq!(c.mul(&BigUint::one(), &p), p);
    }

    #[test]
    fn order_two_point_handled() {
        // (0, 0) is on y² = x³ + x and has order 2; doubling it must
        // give the point at infinity, not a division-by-zero panic.
        let c = curve();
        let two_torsion = Point::Affine {
            x: BigUint::zero(),
            y: BigUint::zero(),
        };
        assert!(c.is_on_curve(&two_torsion));
        assert_eq!(c.add(&two_torsion, &two_torsion), Point::Infinity);
        assert_eq!(c.neg(&two_torsion), two_torsion);
        assert_eq!(c.mul(&BigUint::from(2u64), &two_torsion), Point::Infinity);
        assert_eq!(c.mul(&BigUint::from(3u64), &two_torsion), two_torsion);
    }

    #[test]
    fn mul_large_scalar_wraps() {
        let c = curve();
        let mut rng = StdRng::seed_from_u64(6);
        let p = c.random_point(&mut rng);
        let order = &c.fp.p + 1u64;
        // (order + 3)·P = 3·P
        let k = &order + 3u64;
        assert_eq!(c.mul(&k, &p), c.mul(&BigUint::from(3u64), &p));
    }

    #[test]
    fn results_stay_on_curve() {
        let c = curve();
        let mut rng = StdRng::seed_from_u64(5);
        let p = c.random_point(&mut rng);
        let q = c.random_point(&mut rng);
        assert!(c.is_on_curve(&c.add(&p, &q)));
        assert!(c.is_on_curve(&c.mul(&BigUint::from(123u64), &p)));
        assert!(c.is_on_curve(&c.neg(&p)));
    }
}
