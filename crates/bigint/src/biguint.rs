//! The [`BigUint`] type: construction, normalization, inspection and
//! comparison. Arithmetic lives in the sibling modules.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Representation: little-endian `u64` limbs, **normalized** — the most
/// significant limb is never zero, and zero is the empty limb vector.
/// Every constructor and every operation upholds this invariant; it is
/// checked by `debug_assert`s throughout.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    #[inline]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    #[inline]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// The value `2`.
    #[inline]
    pub fn two() -> Self {
        BigUint { limbs: vec![2] }
    }

    /// Builds from little-endian limbs, normalizing.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Read-only view of the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// `true` iff the value is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` iff the value is odd.
    #[inline]
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => (self.limbs.len() - 1) * 64 + (64 - hi.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian bit order).
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `v`, growing as needed.
    pub fn set_bit(&mut self, i: usize, v: bool) {
        let (limb, off) = (i / 64, i % 64);
        if v {
            if limb >= self.limbs.len() {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << off);
            self.normalize();
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Strips trailing zero limbs (restores the normalization invariant).
    #[inline]
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    #[inline]
    pub(crate) fn debug_check(&self) {
        debug_assert!(self.limbs.last() != Some(&0), "unnormalized BigUint");
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_dec())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::zero().limbs().len(), 0);
        assert_eq!(BigUint::from(0u64), BigUint::zero());
    }

    #[test]
    fn normalization() {
        let a = BigUint::from_limbs(vec![5, 0, 0]);
        assert_eq!(a.limbs(), &[5]);
        let b = BigUint::from_limbs(vec![0, 0]);
        assert!(b.is_zero());
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::from(0xffu64).bits(), 8);
        assert_eq!(BigUint::from(1u128 << 100).bits(), 101);
    }

    #[test]
    fn bit_get_set() {
        let mut a = BigUint::zero();
        a.set_bit(130, true);
        assert!(a.bit(130));
        assert!(!a.bit(129));
        assert_eq!(a.bits(), 131);
        a.set_bit(130, false);
        assert!(a.is_zero());
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert!(BigUint::from(2u64).is_even());
        assert!(BigUint::from(u64::MAX).is_odd());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from(5u64);
        let b = BigUint::from(1u128 << 80);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(BigUint::one().trailing_zeros(), Some(0));
        assert_eq!(BigUint::from(8u64).trailing_zeros(), Some(3));
        assert_eq!(BigUint::from(1u128 << 70).trailing_zeros(), Some(70));
    }

    #[test]
    fn u64_u128_roundtrip() {
        assert_eq!(BigUint::from(42u64).to_u64(), Some(42));
        assert_eq!(BigUint::from(1u128 << 90).to_u64(), None);
        assert_eq!(BigUint::from(1u128 << 90).to_u128(), Some(1u128 << 90));
    }
}
