//! The prime field `F_p`, over one Montgomery context with two faces:
//!
//! * [`Fp`]'s methods take and return canonical [`BigUint`]s. They
//!   serve the public API and the cold paths: curve checks, square
//!   roots, sampling, single additions, the final exponentiation.
//! * `FpL` works on Montgomery residues held in `[u64; L]` stack
//!   arrays and never allocates. The Jacobian scalar multiplication and
//!   the Miller loop run on it, converting their inputs once on entry
//!   and their result once on exit.
//!
//! `Fp` picks the smallest width `L ∈ {1, 2, 4, 8}` that holds `p`, so
//! fields of at most 512 bits are supported.

use ppms_bigint::{BigUint, FpMont};

/// Field context for `F_p` (`p` an odd prime of at most 512 bits).
#[derive(Debug, Clone)]
pub struct Fp {
    /// The prime modulus.
    pub p: BigUint,
    width: Width,
}

/// [`FpL`] at the width that holds `p`.
#[derive(Debug, Clone)]
pub(crate) enum Width {
    L1(FpL<1>),
    L2(FpL<2>),
    L4(FpL<4>),
    L8(FpL<8>),
}

/// Runs `$body` with `$f` bound to the [`FpL`] of the [`Fp`] `$fp`,
/// at its concrete width.
macro_rules! with_width {
    ($fp:expr, $f:ident => $body:expr) => {
        match $fp.width() {
            $crate::pairing::fp::Width::L1($f) => $body,
            $crate::pairing::fp::Width::L2($f) => $body,
            $crate::pairing::fp::Width::L4($f) => $body,
            $crate::pairing::fp::Width::L8($f) => $body,
        }
    };
}
pub(crate) use with_width;

impl Fp {
    /// Creates the field context. `p` must be an odd prime (unchecked
    /// beyond oddness) of at most 512 bits.
    pub fn new(p: &BigUint) -> Fp {
        assert!(p.is_odd() && !p.is_one(), "Fp needs an odd prime");
        let width = match p.limbs().len() {
            1 => FpL::new(p).map(Width::L1),
            2 => FpL::new(p).map(Width::L2),
            3..=4 => FpL::new(p).map(Width::L4),
            5..=8 => FpL::new(p).map(Width::L8),
            _ => None,
        };
        Fp {
            p: p.clone(),
            width: width.expect("pairing fields have at most 512 bits"),
        }
    }

    /// The fixed-width face of the field.
    pub(crate) fn width(&self) -> &Width {
        &self.width
    }

    /// Canonical representative of `x`.
    pub fn reduce(&self, x: &BigUint) -> BigUint {
        x % &self.p
    }

    /// `a + b`.
    pub fn add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let s = a + b;
        if s >= self.p {
            &s - &self.p
        } else {
            s
        }
    }

    /// `a - b`.
    pub fn sub(&self, a: &BigUint, b: &BigUint) -> BigUint {
        if a >= b {
            a - b
        } else {
            &(a + &self.p) - b
        }
    }

    /// `-a`.
    pub fn neg(&self, a: &BigUint) -> BigUint {
        if a.is_zero() {
            BigUint::zero()
        } else {
            &self.p - a
        }
    }

    /// `a · b`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        with_width!(self, f => f.mont.mul(a, b))
    }

    /// `a²`.
    pub fn square(&self, a: &BigUint) -> BigUint {
        self.mul(a, a)
    }

    /// `a^e`.
    pub fn pow(&self, a: &BigUint, e: &BigUint) -> BigUint {
        with_width!(self, f => f.mont.pow(a, e))
    }

    /// `a⁻¹` by Fermat, `a^(p−2)`; panics on zero.
    pub fn inv(&self, a: &BigUint) -> BigUint {
        with_width!(self, f => f.leave(&f.inv(&f.enter(a))))
    }

    /// Square root for `p ≡ 3 (mod 4)`: `a^((p+1)/4)`, or `None` if
    /// `a` is a non-residue.
    pub fn sqrt(&self, a: &BigUint) -> Option<BigUint> {
        debug_assert_eq!(&self.p % 4u64, 3);
        if a.is_zero() {
            return Some(BigUint::zero());
        }
        let e = &(&self.p + 1u64) >> 2usize;
        let r = self.pow(a, &e);
        if self.square(&r) == self.reduce(a) {
            Some(r)
        } else {
            None
        }
    }
}

/// `F_p` on Montgomery residues `[u64; L]` (`x·R mod p`, always
/// canonical, so equal residues are equal elements and `0` is zero).
#[derive(Debug, Clone)]
pub(crate) struct FpL<const L: usize> {
    mont: FpMont<L>,
    /// `p`, little-endian limbs.
    p: [u64; L],
    /// The residue of `1`.
    one: [u64; L],
    /// `p − 2`, the Fermat inversion exponent.
    p_minus_2: BigUint,
}

impl<const L: usize> FpL<L> {
    fn new(p: &BigUint) -> Option<FpL<L>> {
        let mont = FpMont::new(p)?;
        let mut limbs = [0u64; L];
        limbs[..p.limbs().len()].copy_from_slice(p.limbs());
        Some(FpL {
            one: mont.to_mont(&BigUint::one()),
            mont,
            p: limbs,
            p_minus_2: p - 2u64,
        })
    }

    /// The residue of `x` (reduced first if `x ≥ p`).
    pub(crate) fn enter(&self, x: &BigUint) -> [u64; L] {
        self.mont.to_mont(x)
    }

    /// The canonical value of a residue.
    pub(crate) fn leave(&self, x: &[u64; L]) -> BigUint {
        self.mont.from_mont(x)
    }

    pub(crate) fn one(&self) -> [u64; L] {
        self.one
    }

    pub(crate) fn is_zero(a: &[u64; L]) -> bool {
        a.iter().all(|&w| w == 0)
    }

    pub(crate) fn add(&self, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        let mut s = [0u64; L];
        let mut carry = false;
        for i in 0..L {
            let (x, c1) = a[i].overflowing_add(b[i]);
            let (x, c2) = x.overflowing_add(carry as u64);
            s[i] = x;
            carry = c1 | c2;
        }
        // a + b < 2p: one subtraction of p when the sum reaches p.
        if carry || !Self::below(&s, &self.p) {
            let mut borrow = false;
            for (si, pi) in s.iter_mut().zip(&self.p) {
                let (x, b1) = si.overflowing_sub(*pi);
                let (x, b2) = x.overflowing_sub(borrow as u64);
                *si = x;
                borrow = b1 | b2;
            }
        }
        s
    }

    pub(crate) fn sub(&self, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        let mut d = [0u64; L];
        let mut borrow = false;
        for i in 0..L {
            let (x, b1) = a[i].overflowing_sub(b[i]);
            let (x, b2) = x.overflowing_sub(borrow as u64);
            d[i] = x;
            borrow = b1 | b2;
        }
        // a − b wrapped below zero: add p back (the carry out cancels
        // the wrap).
        if borrow {
            let mut carry = false;
            for (di, pi) in d.iter_mut().zip(&self.p) {
                let (x, c1) = di.overflowing_add(*pi);
                let (x, c2) = x.overflowing_add(carry as u64);
                *di = x;
                carry = c1 | c2;
            }
        }
        d
    }

    /// `2a`.
    pub(crate) fn dbl(&self, a: &[u64; L]) -> [u64; L] {
        self.add(a, a)
    }

    pub(crate) fn mul(&self, a: &[u64; L], b: &[u64; L]) -> [u64; L] {
        self.mont.mont_mul(a, b)
    }

    /// `a²`.
    pub(crate) fn sqr(&self, a: &[u64; L]) -> [u64; L] {
        self.mont.mont_sqr(a)
    }

    /// `a⁻¹ = a^(p−2)`; panics on zero.
    pub(crate) fn inv(&self, a: &[u64; L]) -> [u64; L] {
        assert!(!Self::is_zero(a), "inverse of zero in Fp");
        self.mont.pow_mont(a, &self.p_minus_2)
    }

    /// `a < b` as little-endian limb arrays.
    fn below(a: &[u64; L], b: &[u64; L]) -> bool {
        for i in (0..L).rev() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> Fp {
        Fp::new(&BigUint::from(1_000_003u64)) // prime ≡ 3 mod 4
    }

    #[test]
    fn ring_ops() {
        let f = f();
        let a = BigUint::from(999_999u64);
        let b = BigUint::from(10u64);
        assert_eq!(f.add(&a, &b), BigUint::from(6u64));
        assert_eq!(f.sub(&b, &a), BigUint::from(1_000_003u64 - 999_989));
        assert_eq!(f.neg(&BigUint::zero()), BigUint::zero());
        assert_eq!(f.add(&a, &f.neg(&a)), BigUint::zero());
    }

    #[test]
    fn mul_inv() {
        let f = f();
        let a = BigUint::from(12345u64);
        assert_eq!(f.mul(&a, &f.inv(&a)), BigUint::one());
        let big = &f.p + 3u64;
        assert_eq!(f.inv(&big), f.inv(&BigUint::from(3u64)));
        for x in [1u64, 2, 999_999, 1_000_002] {
            let x = BigUint::from(x);
            assert_eq!(
                f.inv(&x),
                x.modinv(&f.p).unwrap(),
                "Fermat = ext-gcd at {x:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero in Fp")]
    fn inv_zero_panics() {
        let f = f();
        f.inv(&f.p.clone());
    }

    #[test]
    fn sqrt_roundtrip() {
        let f = f();
        assert_eq!(&f.p % 4u64, 3);
        let a = BigUint::from(54321u64);
        let sq = f.square(&a);
        let r = f.sqrt(&sq).expect("square has a root");
        assert!(r == a || r == f.neg(&a));
    }

    #[test]
    fn sqrt_nonresidue_none() {
        let f = f();
        // Find a non-residue: -1 is one since p ≡ 3 mod 4.
        let nr = f.neg(&BigUint::one());
        assert!(f.sqrt(&nr).is_none());
    }

    #[test]
    fn pow_fermat() {
        let f = f();
        let a = BigUint::from(777u64);
        assert_eq!(f.pow(&a, &(&f.p - 1u64)), BigUint::one());
    }

    /// Each [`FpL`] operation equals plain `BigUint` arithmetic at every
    /// width, including moduli that fill their top limb, where a sum
    /// carries out of the array.
    #[test]
    fn fixed_width_ops_match_biguint() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let mut moduli = vec![
            BigUint::from(1_000_003u64),
            BigUint::from(u64::MAX - 58),          // 2⁶⁴ − 59
            &(BigUint::one() << 127usize) - 1u64,  // 2¹²⁷ − 1
            &(BigUint::one() << 255usize) - 19u64, // 2²⁵⁵ − 19
        ];
        for bits in [45, 100, 165, 300, 448, 512] {
            moduli.push(ppms_primes::gen::random_prime(&mut rng, bits));
        }
        for p in &moduli {
            let f = Fp::new(p);
            let mut values = vec![
                BigUint::zero(),
                BigUint::one(),
                p - 1u64,
                p - 2u64,
                p >> 1usize,
            ];
            values.extend((0..4).map(|_| ppms_bigint::random_below(&mut rng, p)));
            with_width!(f, w => {
                for a in &values {
                    let am = w.enter(a);
                    assert_eq!(&w.leave(&am), a);
                    assert_eq!(w.leave(&w.dbl(&am)), (a + a) % p);
                    assert_eq!(w.leave(&w.sqr(&am)), (a * a) % p);
                    if !a.is_zero() {
                        assert_eq!(w.leave(&w.inv(&am)), a.modinv(p).unwrap());
                    }
                    for b in &values {
                        let bm = w.enter(b);
                        assert_eq!(w.leave(&w.add(&am, &bm)), (a + b) % p);
                        assert_eq!(w.leave(&w.sub(&am, &bm)), &(&(a + p) - b) % p);
                        assert_eq!(w.leave(&w.mul(&am, &bm)), (a * b) % p);
                    }
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "pairing fields have at most 512 bits")]
    fn wider_fields_refused() {
        Fp::new(&(&(BigUint::one() << 521usize) - 1u64));
    }
}
