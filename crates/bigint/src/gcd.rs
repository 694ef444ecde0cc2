//! Euclidean machinery: gcd, extended gcd (signed), lcm, Jacobi symbol.

use crate::{BigInt, BigUint};

/// Greatest common divisor (binary-free Euclid; division is fast here).
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple; `lcm(0, x) = 0`.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = gcd(a, b);
    &(a / &g) * b
}

/// Extended gcd: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
pub fn ext_gcd(a: &BigUint, b: &BigUint) -> (BigUint, BigInt, BigInt) {
    let mut r0 = BigInt::from_biguint(a.clone());
    let mut r1 = BigInt::from_biguint(b.clone());
    let (mut x0, mut x1) = (BigInt::one(), BigInt::zero());
    let (mut y0, mut y1) = (BigInt::zero(), BigInt::one());
    while !r1.is_zero() {
        let (q, r) = r0.divrem_floor(&r1);
        r0 = r1;
        r1 = r;
        let nx = &x0 - &(&q * &x1);
        x0 = x1;
        x1 = nx;
        let ny = &y0 - &(&q * &y1);
        y0 = y1;
        y1 = ny;
    }
    (r0.abs_biguint(), x0, y0)
}

/// Jacobi symbol `(a/n)` for odd positive `n`. Returns `0`, `1` or `-1`.
/// Panics if `n` is even or zero.
pub fn jacobi(a: &BigUint, n: &BigUint) -> i32 {
    assert!(n.is_odd() && !n.is_zero(), "Jacobi symbol needs odd n > 0");
    // Subtraction-based binary algorithm over two reused limb
    // buffers. A shift strips all factors of two at once and the
    // subtract step at least halves the larger operand, so the whole
    // symbol is O(bits) in-place limb passes with exactly two
    // allocations (the working copies). This is the hot path of
    // safe-prime group membership ((x/p) = 1 ⟺ x ∈ QR_p), screened
    // per claim in batch verification.
    let mut a: Vec<u64> = (a % n).limbs().to_vec();
    let mut n: Vec<u64> = n.limbs().to_vec();
    let mut t = 1i32;
    while !limbs_zero(&a) {
        let z = limbs_tz(&a);
        limbs_shr(&mut a, z);
        if z & 1 == 1 {
            let r = n[0] & 7;
            if r == 3 || r == 5 {
                t = -t;
            }
        }
        // Both operands odd now. Reciprocity fires on the swap that
        // restores a ≥ n; the difference of two odd numbers is even,
        // so the next pass shifts again.
        if limbs_cmp(&a, &n) == std::cmp::Ordering::Less {
            std::mem::swap(&mut a, &mut n);
            if a[0] & 3 == 3 && n[0] & 3 == 3 {
                t = -t;
            }
        }
        limbs_sub(&mut a, &n);
    }
    if limbs_one(&n) {
        t
    } else {
        0
    }
}

fn limbs_zero(v: &[u64]) -> bool {
    v.iter().all(|&l| l == 0)
}

fn limbs_one(v: &[u64]) -> bool {
    !v.is_empty() && v[0] == 1 && v[1..].iter().all(|&l| l == 0)
}

/// Trailing zero bits of a nonzero limb vector.
fn limbs_tz(v: &[u64]) -> usize {
    let mut z = 0;
    for &l in v {
        if l == 0 {
            z += 64;
        } else {
            return z + l.trailing_zeros() as usize;
        }
    }
    z
}

/// In-place right shift by `k` bits.
fn limbs_shr(v: &mut [u64], k: usize) {
    let (skip, bits) = (k / 64, k % 64);
    let len = v.len();
    if skip > 0 {
        for i in 0..len {
            v[i] = if i + skip < len { v[i + skip] } else { 0 };
        }
    }
    if bits > 0 {
        let mut carry = 0u64;
        for x in v.iter_mut().rev() {
            let next = *x << (64 - bits);
            *x = (*x >> bits) | carry;
            carry = next;
        }
    }
}

/// Compare two limb vectors of possibly different lengths.
fn limbs_cmp(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    for i in (0..a.len().max(b.len())).rev() {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        if x != y {
            return x.cmp(&y);
        }
    }
    std::cmp::Ordering::Equal
}

/// `a -= b`, requiring `a >= b`.
fn limbs_sub(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, x) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, u1) = x.overflowing_sub(bi);
        let (d2, u2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = (u1 | u2) as u64;
    }
    debug_assert_eq!(borrow, 0, "limbs_sub underflow: a < b");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BigUint;

    fn b(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(&b(12), &b(18)), b(6));
        assert_eq!(gcd(&b(17), &b(31)), b(1));
        assert_eq!(gcd(&b(0), &b(5)), b(5));
        assert_eq!(gcd(&b(5), &b(0)), b(5));
        assert_eq!(gcd(&b(0), &b(0)), b(0));
    }

    #[test]
    fn gcd_large() {
        let a = BigUint::parse_dec("123456789123456789123456789").unwrap();
        let c = BigUint::from(999983u64); // prime
        let x = &a * &c;
        let y = &b(424242) * &c;
        assert_eq!(&gcd(&x, &y) % &c, BigUint::zero());
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(&b(4), &b(6)), b(12));
        assert_eq!(lcm(&b(0), &b(9)), b(0));
        assert_eq!(lcm(&b(7), &b(13)), b(91));
    }

    #[test]
    fn ext_gcd_bezout() {
        for (x, y) in [(240u64, 46u64), (17, 31), (100, 75), (1, 1), (999983, 2)] {
            let (g, s, t) = ext_gcd(&b(x), &b(y));
            assert_eq!(g, gcd(&b(x), &b(y)), "gcd mismatch for {x},{y}");
            let lhs = &(&BigInt::from_biguint(b(x)) * &s) + &(&BigInt::from_biguint(b(y)) * &t);
            assert_eq!(lhs, BigInt::from_biguint(g), "Bezout for {x},{y}");
        }
    }

    #[test]
    fn jacobi_known_values() {
        // (a/7): QRs mod 7 are {1,2,4}.
        assert_eq!(jacobi(&b(1), &b(7)), 1);
        assert_eq!(jacobi(&b(2), &b(7)), 1);
        assert_eq!(jacobi(&b(3), &b(7)), -1);
        assert_eq!(jacobi(&b(4), &b(7)), 1);
        assert_eq!(jacobi(&b(5), &b(7)), -1);
        assert_eq!(jacobi(&b(6), &b(7)), -1);
        assert_eq!(jacobi(&b(7), &b(7)), 0);
        // Composite lower argument: (2/15) = (2/3)(2/5) = (-1)(-1) = 1.
        assert_eq!(jacobi(&b(2), &b(15)), 1);
        // (1001/9907) = -1 (classic textbook example).
        assert_eq!(jacobi(&b(1001), &b(9907)), -1);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn jacobi_even_n_panics() {
        jacobi(&b(3), &b(8));
    }

    #[test]
    fn jacobi_matches_euler_criterion_on_a_prime() {
        // For odd prime p, (a/p) ≡ a^((p-1)/2) (mod p). Exercises the
        // limb machinery on multi-limb operands (p is 89 bits).
        let p = BigUint::parse_dec("618970019642690137449562111").unwrap();
        let e = &(&p - 1u64) >> 1usize;
        for seed in 1u64..40 {
            let a = BigUint::from(seed.wrapping_mul(0x9E3779B97F4A7C15));
            let pow = crate::modular::modpow_plain(&(&a % &p), &e, &p);
            let expect = if pow.is_zero() {
                0
            } else if pow.is_one() {
                1
            } else {
                -1
            };
            assert_eq!(jacobi(&a, &p), expect, "seed {seed}");
        }
    }

    #[test]
    fn jacobi_multiplicative_in_lower_argument() {
        // (ab/n) = (a/n)(b/n) for odd composite n, across limb widths.
        let n = BigUint::parse_dec("364808831468848405003757568104202675623").unwrap();
        for i in 1u64..30 {
            let a = BigUint::from(i * i) + BigUint::from(i * 7 + 1);
            let c = &BigUint::from(0xDEADBEEFu64) + &BigUint::from(i);
            let ab = &a * &c;
            assert_eq!(jacobi(&ab, &n), jacobi(&a, &n) * jacobi(&c, &n), "i={i}");
        }
    }

    #[test]
    fn jacobi_zero_and_unit_modulus() {
        assert_eq!(jacobi(&BigUint::zero(), &b(1)), 1);
        assert_eq!(jacobi(&b(5), &b(1)), 1);
        assert_eq!(jacobi(&BigUint::zero(), &b(9)), 0);
        assert_eq!(jacobi(&b(9), &b(9)), 0);
    }
}
