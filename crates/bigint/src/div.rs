//! Division and remainder via Knuth's Algorithm D (TAOCP vol. 2, 4.3.1),
//! with a fast path for single-limb divisors.

use crate::BigUint;
use std::ops::{Div, Rem};

/// Divides by a single limb; returns (quotient, remainder).
fn divrem_limb(a: &BigUint, d: u64) -> (BigUint, u64) {
    debug_assert!(d != 0);
    let mut q = vec![0u64; a.limbs.len()];
    let mut rem = 0u128;
    for i in (0..a.limbs.len()).rev() {
        let cur = (rem << 64) | a.limbs[i] as u128;
        q[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    (BigUint::from_limbs(q), rem as u64)
}

/// Full Knuth Algorithm D for multi-limb divisors.
fn divrem_knuth(a: &BigUint, b: &BigUint) -> (BigUint, BigUint) {
    let n = b.limbs.len();
    let m = a.limbs.len() - n;
    // D1: normalize so the divisor's top limb has its high bit set.
    let s = b.limbs[n - 1].leading_zeros() as usize;
    let v = (b << s).limbs;
    let mut u = (a << s).limbs;
    u.resize(a.limbs.len() + 1, 0); // extra high limb u[m+n]

    let mut q = vec![0u64; m + 1];
    let b_radix = 1u128 << 64;

    // D2..D7: main loop over quotient digits, most significant first.
    for j in (0..=m).rev() {
        // D3: estimate qhat from the top two limbs of the current window.
        let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = top / v[n - 1] as u128;
        let mut rhat = top % v[n - 1] as u128;
        while qhat >= b_radix
            || (n >= 2 && qhat * v[n - 2] as u128 > ((rhat << 64) | u[j + n - 2] as u128))
        {
            qhat -= 1;
            rhat += v[n - 1] as u128;
            if rhat >= b_radix {
                break;
            }
        }

        // D4: multiply and subtract qhat * v from u[j..=j+n]. `k` folds
        // the multiplication carry and the subtraction borrow together
        // (Hacker's Delight divmnu): k stays in [0, 2^64].
        let mut k = 0i128;
        for i in 0..n {
            let p = qhat * v[i] as u128;
            let t = u[j + i] as i128 - k - (p as u64) as i128;
            u[j + i] = t as u64;
            k = (p >> 64) as i128 - (t >> 64); // t >> 64 is 0 or -1
        }
        let t = u[j + n] as i128 - k;
        u[j + n] = t as u64;

        // D5/D6: if we overshot (negative), add one divisor back.
        if t < 0 {
            qhat -= 1;
            let mut carry2 = 0u128;
            for i in 0..n {
                let t = u[j + i] as u128 + v[i] as u128 + carry2;
                u[j + i] = t as u64;
                carry2 = t >> 64;
            }
            u[j + n] = (u[j + n] as u128).wrapping_add(carry2) as u64;
        }
        q[j] = qhat as u64;
    }

    // D8: denormalize the remainder.
    let rem = BigUint::from_limbs(u[..n].to_vec()) >> s;
    (BigUint::from_limbs(q), rem)
}

/// Computes `(a / b, a % b)`. Panics if `b` is zero.
pub(crate) fn divrem(a: &BigUint, b: &BigUint) -> (BigUint, BigUint) {
    assert!(!b.is_zero(), "division by zero BigUint");
    if a < b {
        return (BigUint::zero(), a.clone());
    }
    if b.limbs.len() == 1 {
        let (q, r) = divrem_limb(a, b.limbs[0]);
        return (q, BigUint::from(r));
    }
    divrem_knuth(a, b)
}

impl BigUint {
    /// `(self / d, self % d)` in one pass.
    #[inline]
    pub fn divrem(&self, d: &BigUint) -> (BigUint, BigUint) {
        divrem(self, d)
    }

    /// Divides by a `u64`, returning `(quotient, remainder)`.
    pub fn divrem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        divrem_limb(self, d)
    }
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        divrem(self, rhs).0
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        divrem(&self, &rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        divrem(self, rhs).1
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        divrem(&self, &rhs).1
    }
}

impl Rem<u64> for &BigUint {
    type Output = u64;
    /// Folds the remainder limb by limb, most significant first; unlike
    /// [`BigUint::divrem_u64`] no quotient is built, so it never
    /// allocates (trial division calls this thousands of times).
    fn rem(self, rhs: u64) -> u64 {
        assert!(rhs != 0, "division by zero");
        let d = rhs as u128;
        self.limbs
            .iter()
            .rev()
            .fold(0u128, |rem, &limb| ((rem << 64) | limb as u128) % d) as u64
    }
}

impl Div<&BigUint> for BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        divrem(&self, rhs).0
    }
}

impl Div<BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        divrem(self, &rhs).0
    }
}

impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        divrem(&self, rhs).1
    }
}

impl Rem<BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        divrem(self, &rhs).1
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    #[test]
    fn small_division() {
        let a = BigUint::from(100u64);
        let b = BigUint::from(7u64);
        let (q, r) = a.divrem(&b);
        assert_eq!(q, BigUint::from(14u64));
        assert_eq!(r, BigUint::from(2u64));
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let a = BigUint::from(3u64);
        let b = BigUint::from(10u64);
        let (q, r) = a.divrem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn exact_division() {
        let b = BigUint::from(0xABCDEFu64);
        let a = &b * &BigUint::from(0x123456789u64);
        let (q, r) = a.divrem(&b);
        assert_eq!(q, BigUint::from(0x123456789u64));
        assert!(r.is_zero());
    }

    #[test]
    fn multi_limb_knuth_path() {
        // a = b*q + r with multi-limb b, exercising the D-loop.
        let b = BigUint::from_limbs(vec![0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321, 7]);
        let q_true = BigUint::from_limbs(vec![u64::MAX, 0x8000_0000_0000_0001, 42]);
        let r_true = BigUint::from_limbs(vec![99, 5]);
        assert!(r_true < b);
        let a = &(&b * &q_true) + &r_true;
        let (q, r) = a.divrem(&b);
        assert_eq!(q, q_true);
        assert_eq!(r, r_true);
    }

    #[test]
    fn knuth_add_back_case() {
        // Constructed to trigger the rare D6 add-back branch:
        // divisor with max top limb, dividend forcing qhat overestimate.
        let b = BigUint::from_limbs(vec![0, u64::MAX]);
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX - 1, u64::MAX - 1]);
        let (q, r) = a.divrem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn division_by_one_and_self() {
        let a = BigUint::from_limbs(vec![1, 2, 3]);
        assert_eq!(&a / &BigUint::one(), a);
        assert_eq!(&a % &BigUint::one(), BigUint::zero());
        assert_eq!(&a / &a.clone(), BigUint::one());
        assert_eq!(&a % &a.clone(), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigUint::one().divrem(&BigUint::zero());
    }

    #[test]
    fn rem_u64() {
        let a = BigUint::from_limbs(vec![5, 9, 13]);
        let m = 1_000_003u64;
        let r = &a % m;
        let (_, r2) = a.divrem(&BigUint::from(m));
        assert_eq!(BigUint::from(r), r2);
    }

    #[test]
    fn u128_reference_division() {
        for (x, y) in [
            (u128::MAX, 3u128),
            (u128::MAX, u64::MAX as u128),
            ((1u128 << 127) + 12345, (1u128 << 65) + 7),
            (999_999_999_999_999_999, 1_000_000_007),
        ] {
            let (q, r) = BigUint::from(x).divrem(&BigUint::from(y));
            assert_eq!(q.to_u128(), Some(x / y), "q for {x}/{y}");
            assert_eq!(r.to_u128(), Some(x % y), "r for {x}/{y}");
        }
    }
}
