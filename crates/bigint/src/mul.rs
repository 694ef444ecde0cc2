//! Multiplication: one schoolbook product for every operand size.
//!
//! Every modulus the market uses is at most 2048 bits
//! ([`crate::ModRing::MAX_BITS`]), so no heap product reaches the
//! 4096-bit operands at which a sub-quadratic product first beat this
//! loop (EXPERIMENTS A22); `ModRing` exponentiation multiplies in
//! [`crate::FpMont`] and does not come here at all.

use crate::BigUint;
use std::ops::{Mul, MulAssign};

/// Multiplies two `BigUint`s.
pub(crate) fn mul(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let (a, b) = (&a.limbs, &b.limbs);
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    BigUint::from_limbs(out)
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        mul(self, rhs)
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        mul(&self, &rhs)
    }
}

impl Mul<u64> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: u64) -> BigUint {
        mul(self, &BigUint::from(rhs))
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = mul(self, rhs);
    }
}

impl Mul<&BigUint> for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        mul(&self, rhs)
    }
}

impl Mul<BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        mul(self, &rhs)
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    #[test]
    fn mul_by_zero_and_one() {
        let a = BigUint::from(123456789u64);
        assert_eq!(&a * &BigUint::zero(), BigUint::zero());
        assert_eq!(&a * &BigUint::one(), a);
    }

    #[test]
    fn mul_u128_reference() {
        for (x, y) in [
            (3u128, 5u128),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 63, 1 << 63),
            (987654321, 123456789),
        ] {
            let p = BigUint::from(x) * BigUint::from(y);
            assert_eq!(p.to_u128(), Some(x * y), "{x} * {y}");
        }
    }

    #[test]
    fn mul_carries_across_limbs() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = BigUint::from(u128::MAX);
        let sq = &a * &a;
        let expected = (BigUint::one() << 256usize) - (BigUint::one() << 129usize) + BigUint::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn mul_commutative_associative() {
        let a = BigUint::from(0xDEADBEEFu64);
        let b = BigUint::from(0xC0FFEEu64);
        let c = BigUint::from(0x1234_5678_9ABCu64);
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }
}
