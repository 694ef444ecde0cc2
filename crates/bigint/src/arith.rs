//! Addition and subtraction for [`BigUint`], plus the operator impls.
//!
//! Subtraction panics on underflow (unsigned type); use
//! [`BigUint::checked_sub`] when the sign is not statically known.

use crate::BigUint;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// `a + b` into a fresh value.
pub(crate) fn add(a: &BigUint, b: &BigUint) -> BigUint {
    let (long, short) = if a.limbs.len() >= b.limbs.len() {
        (a, b)
    } else {
        (b, a)
    };
    let mut out = Vec::with_capacity(long.limbs.len() + 1);
    let mut carry = 0u64;
    for i in 0..long.limbs.len() {
        let x = long.limbs[i];
        let y = short.limbs.get(i).copied().unwrap_or(0);
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 | c2) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    BigUint::from_limbs(out)
}

/// `a += b` in place.
pub(crate) fn add_assign(a: &mut BigUint, b: &BigUint) {
    if a.limbs.len() < b.limbs.len() {
        a.limbs.resize(b.limbs.len(), 0);
    }
    let mut carry = 0u64;
    for i in 0..a.limbs.len() {
        let y = b.limbs.get(i).copied().unwrap_or(0);
        if y == 0 && carry == 0 && i >= b.limbs.len() {
            break;
        }
        let (s1, c1) = a.limbs[i].overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        a.limbs[i] = s2;
        carry = (c1 | c2) as u64;
    }
    if carry != 0 {
        a.limbs.push(carry);
    }
    a.debug_check();
}

/// `a - b`; returns `None` on underflow.
pub(crate) fn checked_sub(a: &BigUint, b: &BigUint) -> Option<BigUint> {
    if a < b {
        return None;
    }
    let mut out = Vec::with_capacity(a.limbs.len());
    let mut borrow = 0u64;
    for i in 0..a.limbs.len() {
        let y = b.limbs.get(i).copied().unwrap_or(0);
        let (d1, b1) = a.limbs[i].overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0);
    Some(BigUint::from_limbs(out))
}

impl BigUint {
    /// `self - other`, or `None` if the result would be negative.
    #[inline]
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        checked_sub(self, other)
    }

    /// `self - other` saturating at zero.
    #[inline]
    pub fn saturating_sub(&self, other: &BigUint) -> BigUint {
        checked_sub(self, other).unwrap_or_default()
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        add(self, rhs)
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        add(&self, &rhs)
    }
}

impl Add<u64> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: u64) -> BigUint {
        add(self, &BigUint::from(rhs))
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        add_assign(self, rhs);
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// Panics on underflow.
    fn sub(self, rhs: &BigUint) -> BigUint {
        checked_sub(self, rhs).expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Sub<u64> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: u64) -> BigUint {
        self - &BigUint::from(rhs)
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = checked_sub(self, rhs).expect("BigUint subtraction underflow");
    }
}

// Mixed-ownership operator impls so call sites read naturally.
impl Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        add(&self, rhs)
    }
}

impl Add<BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        add(self, &rhs)
    }
}

impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        &self - rhs
    }
}

impl Sub<BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        self - &rhs
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    #[test]
    fn add_small() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        assert_eq!(&a + &b, BigUint::from(1u128 << 64));
    }

    #[test]
    fn add_asymmetric_lengths() {
        let a = BigUint::from(u128::MAX);
        let b = BigUint::from(1u64);
        let s = &a + &b;
        assert_eq!(s.limbs(), &[0, 0, 1]);
        assert_eq!(&b + &a, s);
    }

    #[test]
    fn add_zero_identity() {
        let a = BigUint::from(12345u64);
        assert_eq!(&a + &BigUint::zero(), a);
        assert_eq!(&BigUint::zero() + &a, a);
    }

    #[test]
    fn add_assign_carry_propagation() {
        let mut a = BigUint::from(u128::MAX);
        a += &BigUint::one();
        assert_eq!(a.limbs(), &[0, 0, 1]);
    }

    #[test]
    fn sub_basics() {
        let a = BigUint::from(1u128 << 64);
        let b = BigUint::one();
        assert_eq!(&a - &b, BigUint::from(u64::MAX));
        assert_eq!(&a - &a.clone(), BigUint::zero());
    }

    #[test]
    fn sub_underflow_is_none() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(6u64);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(a.saturating_sub(&b), BigUint::zero());
    }

    #[test]
    fn add_u128_reference() {
        // Cross-check against native u128 arithmetic on values that fit.
        for (x, y) in [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (1 << 90, 1 << 90),
            (12345, 67890),
        ] {
            let s = BigUint::from(x) + BigUint::from(y);
            assert_eq!(s.to_u128(), Some(x + y));
        }
    }
}
