//! Euclidean machinery: gcd, lcm, the binary-GCD modular inverse and
//! the Jacobi symbol.

use crate::fixed::neg_inv_u64;
use crate::BigUint;
use std::cmp::Ordering;

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

/// `a⁻¹ mod m` for an odd modulus `m` and `a < m`, given as limbs;
/// `None` when `gcd(a, m) ≠ 1`. The inverse behind
/// [`BigUint::modinv`](crate::BigUint::modinv).
///
/// Binary GCD over four buffers of the modulus width, allocated once
/// per call: `u` and `v` start at `a` and `m`, and the cofactors keep
/// `a·xu ≡ u` and `a·xv ≡ v (mod m)`. Each step subtracts the smaller
/// operand from the larger (and the matching cofactor, mod `m`), then
/// strips every trailing zero of the difference with one shift and
/// divides its cofactor by the same `2^k` with one multiply-add
/// ([`div_pow2_mod`]) instead of `k` halvings. When `u = v` it is the
/// gcd, and `xu` is the inverse iff that gcd is one. The algorithm
/// family is Pornin, "Optimized Binary GCD for Modular Inversion"
/// (IACR ePrint 2020/972). Variable-time.
pub(crate) fn inv_odd(a: &[u64], m: &[u64]) -> Option<BigUint> {
    let n = m.len();
    debug_assert!(n > 0 && m[0] & 1 == 1 && a.len() <= n);
    if a.is_empty() {
        return None;
    }
    let m_inv = neg_inv_u64(m[0]);
    // [xu | xv | u | v]; `xu` leads so the buffer becomes the result.
    let mut buf = vec![0u64; 4 * n];
    let (xu, rest) = buf.split_at_mut(n);
    let (xv, rest) = rest.split_at_mut(n);
    let (u, v) = rest.split_at_mut(n);
    u[..a.len()].copy_from_slice(a);
    v.copy_from_slice(m);
    xu[0] = 1;
    let (mut ul, mut vl) = (a.len(), n);
    strip(u, &mut ul, xu, m, m_inv);
    loop {
        match limbs_cmp(&u[..ul], &v[..vl]) {
            Ordering::Equal => break,
            Ordering::Greater => {
                limbs_sub(&mut u[..ul], &v[..vl]);
                sub_mod(xu, xv, m);
                strip(u, &mut ul, xu, m, m_inv);
            }
            Ordering::Less => {
                limbs_sub(&mut v[..vl], &u[..ul]);
                sub_mod(xv, xu, m);
                strip(v, &mut vl, xv, m, m_inv);
            }
        }
    }
    if ul != 1 || u[0] != 1 {
        return None;
    }
    buf.truncate(n);
    Some(BigUint::from_limbs(buf))
}

/// Makes the nonzero `u[..*ul]` odd: shifts out its `k` trailing
/// zeros, trims `*ul`, and divides the cofactor `x` by `2^k mod m`.
fn strip(u: &mut [u64], ul: &mut usize, x: &mut [u64], m: &[u64], m_inv: u64) {
    let mut k = limbs_tz(&u[..*ul]);
    limbs_shr(&mut u[..*ul], k);
    while u[*ul - 1] == 0 {
        *ul -= 1;
    }
    while k > 0 {
        let step = k.min(64);
        div_pow2_mod(x, step as u32, m, m_inv);
        k -= step;
    }
}

/// `x ← x / 2^k mod m` for `x < m` and `1 ≤ k ≤ 64`, where
/// `m_inv = −m⁻¹ mod 2^64`: with `q = x·m_inv mod 2^k`, `x + q·m` is a
/// multiple of `2^k` below `2^k·m`, so one multiply-add and one shift
/// give the exact quotient, again below `m`.
fn div_pow2_mod(x: &mut [u64], k: u32, m: &[u64], m_inv: u64) {
    let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    let q = (x[0].wrapping_mul(m_inv) & mask) as u128;
    // The low limb of `x + q·m` has k zero bits: shift limb pairs.
    let join = |lo: u64, hi: u64| ((hi as u128) << 64 | lo as u128) >> k;
    let t = x[0] as u128 + q * m[0] as u128;
    let (mut prev, mut carry) = (t as u64, t >> 64);
    for i in 1..m.len() {
        let t = x[i] as u128 + q * m[i] as u128 + carry;
        x[i - 1] = join(prev, t as u64) as u64;
        (prev, carry) = (t as u64, t >> 64);
    }
    x[m.len() - 1] = join(prev, carry as u64) as u64;
}

/// `x ← x − y mod m` for `x, y < m`.
fn sub_mod(x: &mut [u64], y: &[u64], m: &[u64]) {
    if limbs_sub(x, y) {
        let mut carry = 0u64;
        for (xi, &mi) in x.iter_mut().zip(m) {
            let (s1, c1) = xi.overflowing_add(mi);
            let (s2, c2) = s1.overflowing_add(carry);
            *xi = s2;
            carry = (c1 | c2) as u64;
        }
    }
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
        if limbs_cmp(&a, &n) == Ordering::Less {
            std::mem::swap(&mut a, &mut n);
            if a[0] & 3 == 3 && n[0] & 3 == 3 {
                t = -t;
            }
        }
        let borrow = limbs_sub(&mut a, &n);
        debug_assert!(!borrow);
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
fn limbs_cmp(a: &[u64], b: &[u64]) -> Ordering {
    for i in (0..a.len().max(b.len())).rev() {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        if x != y {
            return x.cmp(&y);
        }
    }
    Ordering::Equal
}

/// `a -= b` for `b.len() <= a.len()`, returning the borrow out (set
/// iff `a < b`, the result then wrapping mod `2^(64·a.len())`).
fn limbs_sub(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (i, x) in a.iter_mut().enumerate() {
        let y = match b.get(i) {
            Some(&y) => y,
            None if !borrow => break,
            None => 0,
        };
        let (d1, u1) = x.overflowing_sub(y);
        let (d2, u2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = u1 | u2;
    }
    borrow
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
