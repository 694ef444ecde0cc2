//! Test oracles: the affine pairing and scalar multiplication that the
//! inversion-free ones replaced. Every Miller step and every curve
//! addition here computes its slope with an `F_p` inversion. The
//! equivalence proptests in [`super::typea`] and [`crate::cl`] hold the
//! Jacobian code to these results.

use super::curve::{Curve, Point};
use super::fp2::{Fp2, Fp2Ctx};
use ppms_bigint::BigUint;

/// Evaluates the Miller line through `t` (and `p`, or tangent when
/// doubling) at the distorted point `φ(Q) = (−xq, i·yq)`.
///
/// For a line `y = λ(x − x1) + y1`, the evaluation at `φ(Q)` is
/// `i·yq − λ(−xq − x1) − y1`, i.e. real part `−λ(−xq − x1) − y1`
/// and imaginary part `yq`.
fn line_eval(
    curve: &Curve,
    lam: &BigUint,
    x1: &BigUint,
    y1: &BigUint,
    xq: &BigUint,
    yq: &BigUint,
) -> Fp2 {
    let f = &curve.fp;
    // real = −(λ(−xq − x1) + y1) = λ(xq + x1) − y1
    let real = f.sub(&f.mul(lam, &f.add(xq, x1)), y1);
    Fp2 {
        a: real,
        b: yq.clone(),
    }
}

/// The Miller loop `f_{r,P}(φ(Q))` (unreduced pairing value).
fn affine_miller_loop(curve: &Curve, fp2: &Fp2Ctx, p: &Point, q: &Point, r: &BigUint) -> Fp2 {
    let (Point::Affine { x: xq, y: yq }, false) = (q, p.is_infinity()) else {
        return Fp2::one();
    };
    let f = &curve.fp;
    let mut acc = Fp2::one();
    let mut t = p.clone();
    for i in (0..r.bits() - 1).rev() {
        // Doubling step.
        if let Point::Affine { x: x1, y: y1 } = &t {
            acc = fp2.square(&acc);
            if y1.is_zero() {
                // Tangent is vertical (order-2 point): contributes an
                // F_p factor only — eliminated.
                t = Point::Infinity;
            } else {
                let x1sq = f.square(x1);
                let num = f.add(&f.add(&x1sq, &f.add(&x1sq, &x1sq)), &BigUint::one());
                let den = f.add(y1, y1);
                let lam = f.mul(&num, &f.inv(&den));
                acc = fp2.mul(&acc, &line_eval(curve, &lam, x1, y1, xq, yq));
                t = curve.add(&t, &t);
            }
        } else {
            acc = fp2.square(&acc);
        }
        // Addition step.
        if r.bit(i) {
            if let (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) = (&t, p) {
                if x1 == x2 {
                    // Vertical chord (T = −P): F_p factor — eliminated.
                    t = Point::Infinity;
                } else {
                    let num = f.sub(y2, y1);
                    let den = f.sub(x2, x1);
                    let lam = f.mul(&num, &f.inv(&den));
                    acc = fp2.mul(&acc, &line_eval(curve, &lam, x1, y1, xq, yq));
                    t = curve.add(&t, p);
                }
            } else if t.is_infinity() {
                t = p.clone();
            }
        }
    }
    acc
}

/// Full reduced Tate pairing with distortion:
/// `ê(P, Q) = f_{r,P}(φ(Q))^((p²−1)/r)`.
pub(crate) fn affine_tate_pairing(
    curve: &Curve,
    fp2: &Fp2Ctx,
    p: &Point,
    q: &Point,
    r: &BigUint,
) -> Fp2 {
    if p.is_infinity() || q.is_infinity() {
        return Fp2::one();
    }
    let raw = affine_miller_loop(curve, fp2, p, q, r);
    if raw.is_zero() {
        // Degenerate evaluation (P, Q in special position) — the
        // pairing of torsion points never hits this for valid inputs.
        return Fp2::one();
    }
    let p2_minus_1 = &(&curve.fp.p * &curve.fp.p) - 1u64;
    let exp = &p2_minus_1 / r;
    fp2.pow(&raw, &exp)
}

/// Scalar multiplication by affine double-and-add.
pub(crate) fn affine_mul(curve: &Curve, k: &BigUint, p: &Point) -> Point {
    let mut acc = Point::Infinity;
    for i in (0..k.bits()).rev() {
        acc = curve.add(&acc, &acc);
        if k.bit(i) {
            acc = curve.add(&acc, p);
        }
    }
    acc
}
