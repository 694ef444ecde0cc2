//! Miller's algorithm for the Tate pairing on the Type-A curve,
//! with the distortion map and denominator elimination, free of
//! inversions until the final exponentiation.
//!
//! We compute `ê(P, Q) = f_{r,P}(φ(Q))^((p²−1)/r)` where
//! `φ(x, y) = (−x, i·y)` is the distortion map into `E(F_p²)`.
//!
//! Denominator elimination: with embedding degree 2 the vertical-line
//! factors of Miller's algorithm evaluate in `F_p*`, and anything in
//! `F_p*` is annihilated by the final exponentiation (because
//! `(p²−1)/r = (p−1)·((p+1)/r)` and `a^(p−1) = 1` for `a ∈ F_p*`),
//! so they are skipped entirely.
//!
//! The same argument lets the loop run `T` in Jacobian coordinates on
//! fixed-width residues (`FpL`), allocation-free:
//! each line is evaluated multiplied by the `F_p*` factor that clears
//! its slope's denominator (`2·Y·Z³` for a tangent, `Z₃` for a chord),
//! and the final exponentiation removes that factor too. The reduced
//! value is therefore exactly the affine loop's.
//!
//! The final exponentiation splits as `f^(p−1) = conj(f)·f⁻¹` (the
//! Frobenius is conjugation because `p ≡ 3 (mod 4)`), which costs one
//! `F_p` inversion, followed by the short power `h = (p+1)/r`.

use super::curve::{add_mixed, double_jacobian, Chord, Curve, Jacobian, Point};
use super::fp::{with_width, FpL};
use super::fp2::{Fp2, Fp2Ctx};
use ppms_bigint::BigUint;

/// An element `a + b·i` of `F_p²` on [`FpL`] residues.
type Fp2L<const L: usize> = ([u64; L], [u64; L]);

/// `x · y` with three base-field multiplications.
fn fp2_mul<const L: usize>(f: &FpL<L>, x: &Fp2L<L>, y: &Fp2L<L>) -> Fp2L<L> {
    let ac = f.mul(&x.0, &y.0);
    let bd = f.mul(&x.1, &y.1);
    let cross = f.mul(&f.add(&x.0, &x.1), &f.add(&y.0, &y.1));
    (f.sub(&ac, &bd), f.sub(&f.sub(&cross, &ac), &bd))
}

/// `x² = (a + b)(a − b) + 2ab·i`.
fn fp2_sqr<const L: usize>(f: &FpL<L>, x: &Fp2L<L>) -> Fp2L<L> {
    (
        f.mul(&f.add(&x.0, &x.1), &f.sub(&x.0, &x.1)),
        f.dbl(&f.mul(&x.0, &x.1)),
    )
}

/// The Miller loop `f_{r,P}(φ(Q))`, up to an `F_p*` factor (the
/// unreduced pairing value). A zero value, which only a `Q` of order
/// two in special position produces, is returned as `1`, so the
/// pairing of such a `Q` is `1`.
///
/// Span: `pairing.miller_ns`.
pub fn miller_loop(curve: &Curve, p: &Point, q: &Point, r: &BigUint) -> Fp2 {
    let (Point::Affine { x: xp, y: yp }, Point::Affine { x: xq, y: yq }) = (p, q) else {
        return Fp2::one();
    };
    let _span = ppms_obs::timed!("pairing.miller_ns");
    with_width!(curve.fp, f => {
        let (a, b) = miller_loop_at(
            f,
            (&f.enter(xp), &f.enter(yp)),
            (&f.enter(xq), &f.enter(yq)),
            r,
        );
        if FpL::is_zero(&a) && FpL::is_zero(&b) {
            Fp2::one()
        } else {
            Fp2 {
                a: f.leave(&a),
                b: f.leave(&b),
            }
        }
    })
}

/// [`miller_loop`] on residues, for affine `P = (xp, yp)` and
/// `Q = (xq, yq)`.
fn miller_loop_at<const L: usize>(
    f: &FpL<L>,
    (xp, yp): (&[u64; L], &[u64; L]),
    (xq, yq): (&[u64; L], &[u64; L]),
    r: &BigUint,
) -> Fp2L<L> {
    let xq_plus_xp = f.add(xq, xp);
    let mut acc = (f.one(), [0u64; L]);
    let mut t = Jacobian::from_affine(f, xp, yp);
    for i in (0..r.bits() - 1).rev() {
        acc = fp2_sqr(f, &acc);
        // Doubling step. A vertical tangent (T of order 2) contributes
        // an F_p factor only — eliminated.
        if !t.is_infinity() {
            t = match double_jacobian(f, &t) {
                Some((t2, tangent)) => {
                    // (λ(xq + x) − y)·2YZ³ with λ = M / 2YZ:
                    // real M·(xq·Z² + X) − 2Y², imaginary Z₃·Z²·yq.
                    let real = f.sub(
                        &f.mul(&tangent.m, &f.add(&f.mul(xq, &tangent.zz), &t.x)),
                        &f.dbl(&tangent.yy),
                    );
                    let imag = f.mul(&f.mul(&t2.z, &tangent.zz), yq);
                    acc = fp2_mul(f, &acc, &(real, imag));
                    t2
                }
                None => Jacobian::infinity(),
            };
        }
        // Addition step.
        if r.bit(i) {
            t = if t.is_infinity() {
                Jacobian::from_affine(f, xp, yp)
            } else {
                match add_mixed(f, &t, xp, yp) {
                    Chord::Sum(t2, slope) => {
                        // (λ(xq + xP) − yP)·Z₃ with λ = R / Z₃:
                        // real R·(xq + xP) − yP·Z₃, imaginary Z₃·yq.
                        let real = f.sub(&f.mul(&slope, &xq_plus_xp), &f.mul(yp, &t2.z));
                        let imag = f.mul(&t2.z, yq);
                        acc = fp2_mul(f, &acc, &(real, imag));
                        t2
                    }
                    // Vertical chord (T = −P): F_p factor — eliminated.
                    // T = P cannot occur for P in G before the last
                    // step; it is treated as vertical too.
                    Chord::Vertical | Chord::Tangent => Jacobian::infinity(),
                }
            };
        }
    }
    acc
}

/// The final exponentiation `f^((p²−1)/r) = (conj(f)·f⁻¹)^h` for a
/// nonzero `f`, with `h = (p+1)/r`.
pub fn final_exp(fp2: &Fp2Ctx, f: &Fp2, h: &BigUint) -> Fp2 {
    fp2.pow(&fp2.mul(&fp2.conj(f), &fp2.inv(f)), h)
}

/// Full reduced Tate pairing with distortion:
/// `ê(P, Q) = f_{r,P}(φ(Q))^((p²−1)/r)`, with `h = (p+1)/r`.
pub fn tate_pairing(
    curve: &Curve,
    fp2: &Fp2Ctx,
    p: &Point,
    q: &Point,
    r: &BigUint,
    h: &BigUint,
) -> Fp2 {
    final_exp(fp2, &miller_loop(curve, p, q, r), h)
}
