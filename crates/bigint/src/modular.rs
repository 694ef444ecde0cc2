//! Modular arithmetic entry points on [`BigUint`]: `modpow` (through
//! [`ModRing`] for odd moduli of at most 2048 bits, square-and-multiply
//! otherwise), `modinv`, `modmul`, and small helpers used pervasively
//! by the crypto crates.

use crate::gcd::inv_odd;
use crate::{BigUint, ModRing};

/// Plain square-and-multiply with a division per step: the path for
/// moduli [`ModRing`] does not serve (even, or wider than 2048 bits),
/// and the single reference the equivalence tests compare against.
pub fn modpow_plain(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "zero modulus");
    if m.is_one() {
        return BigUint::zero();
    }
    let mut acc = BigUint::one();
    let mut b = base % m;
    for i in 0..exp.bits() {
        if exp.bit(i) {
            acc = &(&acc * &b) % m;
        }
        if i + 1 < exp.bits() {
            b = &(&b * &b) % m;
        }
    }
    acc
}

impl BigUint {
    /// `self^exp mod m`: through a [`ModRing`] when it serves `m`,
    /// by [`modpow_plain`] otherwise.
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        if ModRing::supports(m) {
            ModRing::new(m).pow(self, exp)
        } else {
            modpow_plain(self, exp, m)
        }
    }

    /// `self * other mod m`.
    pub fn modmul(&self, other: &BigUint, m: &BigUint) -> BigUint {
        &(self * other) % m
    }

    /// `self - other mod m` (wrapping into `[0, m)`).
    pub fn modsub(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let a = self % m;
        let b = other % m;
        if a >= b {
            &a - &b
        } else {
            &(&a + m) - &b
        }
    }

    /// Multiplicative inverse mod `m`: the unique `x < m` with
    /// `self·x ≡ 1 (mod m)`, or `None` if `gcd(self, m) ≠ 1` or
    /// `m ≤ 1`. Binary GCD (`gcd::inv_odd`) for an odd `m`; an even `m`
    /// goes through the same kernel by inverting `m` modulo `self`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let reduced;
        let a = if self < m {
            self
        } else {
            reduced = self % m;
            &reduced
        };
        if m.is_odd() {
            return inv_odd(a.limbs(), m.limbs());
        }
        if a.is_even() {
            return None;
        }
        if a.is_one() {
            return Some(BigUint::one());
        }
        // t = m⁻¹ mod a makes m·t − 1 = a·s, so a·(m − s) ≡ 1 (mod m),
        // and 0 < s < m.
        let t = inv_odd((m % a).limbs(), a.limbs())?;
        Some(m - &(&(&(m * &t) - 1u64) / a))
    }

    /// `-self mod m`.
    pub fn modneg(&self, m: &BigUint) -> BigUint {
        let r = self % m;
        if r.is_zero() {
            r
        } else {
            m - &r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigUint;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn modpow_odd_even_agree_with_naive() {
        for m in [97u64, 96, 1024, 1_000_000_007, 1 << 32, 3] {
            let m = b(m);
            let base = b(123456789);
            let exp = b(987654);
            assert_eq!(
                base.modpow(&exp, &m),
                modpow_plain(&base, &exp, &m),
                "m = {m}"
            );
        }
    }

    #[test]
    fn modpow_known_value() {
        // 5^117 mod 19 = 1 (ord(5) mod 19 is 9; 117 = 13*9)
        assert_eq!(b(5).modpow(&b(117), &b(19)), b(1));
        // 2^10 mod 1000 = 24
        assert_eq!(b(2).modpow(&b(10), &b(1000)), b(24));
    }

    #[test]
    fn modpow_mod_one() {
        assert_eq!(b(7).modpow(&b(3), &b(1)), BigUint::zero());
    }

    #[test]
    fn modinv_basics() {
        assert_eq!(b(3).modinv(&b(7)), Some(b(5))); // 3*5 = 15 = 1 mod 7
        assert_eq!(b(2).modinv(&b(4)), None); // gcd 2
        assert_eq!(b(1).modinv(&b(97)), Some(b(1)));
        assert_eq!(b(0).modinv(&b(97)), None);
    }

    #[test]
    fn modinv_large_prime() {
        let p = BigUint::parse_dec("170141183460469231731687303715884105727").unwrap(); // 2^127-1, prime
        let a = BigUint::parse_dec("123456789123456789").unwrap();
        let inv = a.modinv(&p).unwrap();
        assert_eq!(a.modmul(&inv, &p), BigUint::one());
    }

    #[test]
    fn modsub_wraps() {
        assert_eq!(b(3).modsub(&b(5), &b(7)), b(5));
        assert_eq!(b(5).modsub(&b(3), &b(7)), b(2));
        assert_eq!(b(5).modsub(&b(5), &b(7)), BigUint::zero());
        // Operands larger than the modulus are reduced first.
        assert_eq!(b(10).modsub(&b(20), &b(7)), b(4)); // 3 - 6 mod 7 = 4
    }

    #[test]
    fn modneg() {
        assert_eq!(b(3).modneg(&b(7)), b(4));
        assert_eq!(b(0).modneg(&b(7)), b(0));
        assert_eq!(b(14).modneg(&b(7)), b(0));
    }

    #[test]
    fn fermat_multilimb() {
        // 2^255-19 is prime; check a^(p-1) = 1 through the dispatching modpow.
        let p = (BigUint::one() << 255usize) - b(19);
        let a = BigUint::parse_hex("abcdef0123456789abcdef0123456789").unwrap();
        assert_eq!(a.modpow(&(&p - 1u64), &p), BigUint::one());
    }
}
