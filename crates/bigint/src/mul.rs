//! Multiplication and squaring: schoolbook for small operands,
//! Karatsuba above a crossover. The crossovers (in limbs) were tuned
//! with `ablation_bigint` in `ppms-bench`.
//!
//! Karatsuba runs over a caller-allocated workspace: one scratch
//! buffer sized up front covers the whole recursion tree, so a
//! multiply performs two allocations (output + scratch) total instead
//! of four fresh `Vec`s per recursion level. The squaring kernel
//! halves the partial products of the schoolbook inner loop
//! (cross-terms computed once and doubled by a single 1-bit shift)
//! and keeps the all-squares recursion of Karatsuba, which is what
//! plain square-and-multiply spends most of its time in.

use crate::BigUint;
use std::ops::{Mul, MulAssign};

/// Operand size (in limbs) above which workspace Karatsuba beats
/// schoolbook for general products. Measured with the
/// `ablation_karatsuba_threshold` rows of `ablation_bigint`: forced
/// Karatsuba still trails schoolbook at 48 limbs (~2.9µs vs ~2.5µs)
/// and wins at 64 (~4.1µs vs ~4.5µs).
pub(crate) const KARATSUBA_THRESHOLD: usize = 64;

/// Operand size (in limbs) above which Karatsuba squaring beats the
/// doubled-cross-term schoolbook square. The schoolbook square does
/// roughly half the work of a schoolbook multiply, so its crossover
/// would sit even higher — but the Karatsuba recursion halves into
/// the same cheap squares, and the measured curves cross at the same
/// 64 limbs as the multiply (48: ~2.0µs vs ~1.5µs; 64: ~2.4µs vs
/// ~2.6µs).
pub(crate) const KARATSUBA_SQR_THRESHOLD: usize = 64;

/// Schoolbook `a * b` over raw limb slices.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    mul_schoolbook_into(a, b, &mut out);
    out
}

/// Schoolbook `a * b` into a zeroed output slice of exactly
/// `a.len() + b.len()` limbs.
fn mul_schoolbook_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
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
}

/// Schoolbook `a²` into a zeroed output slice of exactly `2·a.len()`
/// limbs: cross-terms `aᵢ·aⱼ (i < j)` accumulated once and doubled by
/// a 1-bit shift, then the diagonal squares added — about half the
/// 64×64 partial products of `mul_schoolbook_into(a, a, ..)`.
fn sqr_schoolbook_into(a: &[u64], out: &mut [u64]) {
    let n = a.len();
    debug_assert_eq!(out.len(), 2 * n);
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in a.iter().enumerate().skip(i + 1) {
            let t = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + n;
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    // Double the cross-term sum: 2·Σ < a², so the shifted-out bit of
    // the top limb is always zero.
    let mut top = 0u64;
    for limb in out.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | top;
        top = next;
    }
    debug_assert_eq!(top, 0, "doubled cross terms overflowed");
    // Add the diagonal squares at even limb positions.
    let mut carry = 0u128;
    for (i, &x) in a.iter().enumerate() {
        let lo = out[2 * i] as u128 + x as u128 * x as u128 + carry;
        out[2 * i] = lo as u64;
        let hi = out[2 * i + 1] as u128 + (lo >> 64);
        out[2 * i + 1] = hi as u64;
        carry = hi >> 64;
    }
    debug_assert_eq!(carry, 0, "square overflowed its 2n limbs");
}

/// Adds `b` into `acc` starting at limb offset `shift`.
fn add_shifted(acc: &mut Vec<u64>, b: &[u64], shift: usize) {
    if acc.len() < shift + b.len() + 1 {
        acc.resize(shift + b.len() + 1, 0);
    }
    let mut carry = 0u64;
    for (j, &y) in b.iter().enumerate() {
        let (s1, c1) = acc[shift + j].overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        acc[shift + j] = s2;
        carry = (c1 | c2) as u64;
    }
    let mut k = shift + b.len();
    while carry != 0 {
        if k == acc.len() {
            acc.push(0);
        }
        let (s, c) = acc[k].overflowing_add(carry);
        acc[k] = s;
        carry = c as u64;
        k += 1;
    }
}

/// Adds `b` into the fixed-size slice `acc` at limb offset `shift`.
/// The caller guarantees the mathematical sum fits in `acc` (true for
/// every partial sum of a product written into an `a+b`-limb output).
fn add_shifted_slice(acc: &mut [u64], b: &[u64], shift: usize) {
    let mut carry = 0u64;
    for (j, &y) in b.iter().enumerate() {
        let (s1, c1) = acc[shift + j].overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        acc[shift + j] = s2;
        carry = (c1 | c2) as u64;
    }
    let mut k = shift + b.len();
    while carry != 0 {
        let (s, c) = acc[k].overflowing_add(carry);
        acc[k] = s;
        carry = c as u64;
        k += 1;
    }
}

/// Subtracts `b` from `acc` in place; `acc >= b` must hold.
#[allow(clippy::needless_range_loop)] // dual-slice indexing with early exit
fn sub_in_place(acc: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..acc.len() {
        let y = b.get(i).copied().unwrap_or(0);
        if y == 0 && borrow == 0 && i >= b.len() {
            break;
        }
        let (d1, b1) = acc[i].overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        acc[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0, "sub_in_place underflow");
}

fn normalized(mut v: Vec<u64>) -> Vec<u64> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// View of a limb slice with trailing zero limbs dropped — the slice
/// analogue of [`normalized`], allocation-free.
fn trim(mut s: &[u64]) -> &[u64] {
    while s.last() == Some(&0) {
        s = &s[..s.len() - 1];
    }
    s
}

/// Writes `a + b` into `out` (`out.len() >= max(a,b) + 1`) and returns
/// the trimmed length of the sum.
fn add_into(a: &[u64], b: &[u64], out: &mut [u64]) -> usize {
    let n = a.len().max(b.len());
    let mut carry = 0u64;
    for (i, slot) in out.iter_mut().enumerate().take(n) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        *slot = s2;
        carry = (c1 | c2) as u64;
    }
    out[n] = carry;
    let mut len = n + 1;
    while len > 0 && out[len - 1] == 0 {
        len -= 1;
    }
    len
}

/// Scratch limbs one whole Karatsuba recursion over `n`-limb operands
/// needs: per level two sum buffers plus the `z1` product, recursing
/// on `half + 1` limbs.
fn ws_len(mut n: usize, threshold: usize) -> usize {
    let mut total = 0;
    while n >= threshold.max(2) {
        let half = n.div_ceil(2);
        total += 4 * (half + 1); // asum + bsum + z1
        n = half + 1;
    }
    total
}

/// Workspace Karatsuba `a * b`: writes the product into the zeroed
/// prefix of `out` and uses `ws` for every intermediate, allocating
/// nothing. `out.len()` must be at least the trimmed `a.len() +
/// b.len()`; `ws` must satisfy [`ws_len`].
fn kara_mul_rec(a: &[u64], b: &[u64], out: &mut [u64], ws: &mut [u64]) {
    let a = trim(a);
    let b = trim(b);
    if a.is_empty() || b.is_empty() {
        return;
    }
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        mul_schoolbook_into(a, b, &mut out[..a.len() + b.len()]);
        return;
    }
    let half = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));

    // z0 = a0·b0 sits in out[..2·half]; z2 = a1·b1 in out[2·half..].
    // The regions are disjoint, so both recurse directly into `out`.
    kara_mul_rec(a0, b0, &mut out[..a0.len() + b0.len()], ws);
    if !a1.is_empty() && !b1.is_empty() {
        let hi = 2 * half;
        kara_mul_rec(a1, b1, &mut out[hi..hi + a1.len() + b1.len()], ws);
    }

    // z1 = (a0+a1)(b0+b1) − z0 − z2, built in the workspace.
    let (asum_buf, rest) = ws.split_at_mut(half + 1);
    let (bsum_buf, rest) = rest.split_at_mut(half + 1);
    let alen = add_into(a0, a1, asum_buf);
    let blen = add_into(b0, b1, bsum_buf);
    if alen == 0 || blen == 0 {
        return; // a or b was all zeros
    }
    let (z1_buf, ws_rest) = rest.split_at_mut(alen + blen);
    z1_buf.fill(0);
    kara_mul_rec(&asum_buf[..alen], &bsum_buf[..blen], z1_buf, ws_rest);
    sub_in_place(z1_buf, trim(&out[..(2 * half).min(out.len())]));
    if !a1.is_empty() && !b1.is_empty() {
        sub_in_place(z1_buf, trim(&out[2 * half..]));
    }
    add_shifted_slice(out, trim(z1_buf), half);
}

/// Workspace Karatsuba `a²`: the three recursive products are all
/// squares, so the halved-partial-product base case applies at every
/// level of the tree.
fn kara_sqr_rec(a: &[u64], out: &mut [u64], ws: &mut [u64]) {
    let a = trim(a);
    if a.is_empty() {
        return;
    }
    if a.len() < KARATSUBA_SQR_THRESHOLD {
        sqr_schoolbook_into(a, &mut out[..2 * a.len()]);
        return;
    }
    let half = a.len().div_ceil(2);
    let (a0, a1) = a.split_at(half);
    kara_sqr_rec(a0, &mut out[..2 * a0.len()], ws);
    let hi = 2 * half;
    kara_sqr_rec(a1, &mut out[hi..hi + 2 * a1.len()], ws);

    let (asum_buf, rest) = ws.split_at_mut(half + 1);
    let alen = add_into(a0, a1, asum_buf);
    if alen == 0 {
        return;
    }
    let (z1_buf, ws_rest) = rest.split_at_mut(2 * alen);
    z1_buf.fill(0);
    kara_sqr_rec(&asum_buf[..alen], z1_buf, ws_rest);
    sub_in_place(z1_buf, trim(&out[..(2 * half).min(out.len())]));
    sub_in_place(z1_buf, trim(&out[2 * half..]));
    add_shifted_slice(out, trim(z1_buf), half);
}

/// Karatsuba `a * b` through the one-shot workspace: two allocations
/// total (output + scratch) for the whole recursion tree.
fn mul_karatsuba_ws(a: &[u64], b: &[u64]) -> Vec<u64> {
    let a = trim(a);
    let b = trim(b);
    let mut out = vec![0u64; a.len() + b.len()];
    let mut ws = vec![0u64; ws_len(a.len().max(b.len()), KARATSUBA_THRESHOLD)];
    kara_mul_rec(a, b, &mut out, &mut ws);
    out
}

/// `a²` over raw limbs, dispatching on size; returns `2·a.len()`
/// limbs before normalization.
pub(crate) fn sqr_limbs(a: &[u64]) -> Vec<u64> {
    let width = 2 * a.len();
    let at = trim(a);
    let mut out = vec![0u64; width];
    if at.len() < KARATSUBA_SQR_THRESHOLD {
        sqr_schoolbook_into(at, &mut out[..2 * at.len()]);
    } else {
        let mut ws = vec![0u64; ws_len(at.len(), KARATSUBA_SQR_THRESHOLD)];
        kara_sqr_rec(at, &mut out[..2 * at.len()], &mut ws);
    }
    out
}

/// `a²` as a `BigUint`, through the dedicated squaring kernel.
pub(crate) fn sqr(a: &BigUint) -> BigUint {
    if a.is_zero() {
        return BigUint::zero();
    }
    BigUint::from_limbs(sqr_limbs(&a.limbs))
}

/// Allocating Karatsuba `a * b`; kept as the pre-workspace reference
/// the ablation bench compares against.
fn mul_karatsuba_alloc(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    let half = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = a.split_at(half.min(a.len()));
    let (b0, b1) = b.split_at(half.min(b.len()));
    let a0 = normalized(a0.to_vec());
    let b0 = normalized(b0.to_vec());

    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2
    let z0 = mul_karatsuba_alloc(&a0, &b0);
    let z2 = mul_karatsuba_alloc(a1, b1);
    let mut asum = a0.clone();
    add_shifted(&mut asum, a1, 0);
    let asum = normalized(asum);
    let mut bsum = b0.clone();
    add_shifted(&mut bsum, b1, 0);
    let bsum = normalized(bsum);
    let mut z1 = mul_karatsuba_alloc(&asum, &bsum);
    sub_in_place(&mut z1, &z0);
    sub_in_place(&mut z1, &z2);
    let z1 = normalized(z1);

    let mut out = z0;
    add_shifted(&mut out, &z1, half);
    add_shifted(&mut out, &z2, 2 * half);
    out
}

/// Multiplies two `BigUint`s, dispatching on operand size.
pub(crate) fn mul(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let limbs = if a.limbs.len().min(b.limbs.len()) >= KARATSUBA_THRESHOLD {
        mul_karatsuba_ws(&a.limbs, &b.limbs)
    } else {
        mul_schoolbook(&a.limbs, &b.limbs)
    };
    BigUint::from_limbs(limbs)
}

/// Schoolbook multiply, exposed for the Karatsuba-threshold ablation bench.
pub fn mul_schoolbook_pub(a: &BigUint, b: &BigUint) -> BigUint {
    BigUint::from_limbs(mul_schoolbook(&a.limbs, &b.limbs))
}

/// Allocating Karatsuba multiply, exposed for the ablation bench.
pub fn mul_karatsuba_pub(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    BigUint::from_limbs(mul_karatsuba_alloc(&a.limbs, &b.limbs))
}

/// Workspace Karatsuba multiply, exposed for the ablation bench.
pub fn mul_karatsuba_ws_pub(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    BigUint::from_limbs(mul_karatsuba_ws(&a.limbs, &b.limbs))
}

/// Schoolbook square (doubled cross terms), exposed for the ablation
/// bench.
pub fn sqr_schoolbook_pub(a: &BigUint) -> BigUint {
    if a.is_zero() {
        return BigUint::zero();
    }
    let mut out = vec![0u64; 2 * a.limbs.len()];
    sqr_schoolbook_into(&a.limbs, &mut out);
    BigUint::from_limbs(out)
}

/// Karatsuba square (threshold-free recursion entry), exposed for the
/// ablation bench.
pub fn sqr_karatsuba_pub(a: &BigUint) -> BigUint {
    if a.is_zero() {
        return BigUint::zero();
    }
    let n = a.limbs.len();
    let mut out = vec![0u64; 2 * n];
    let mut ws = vec![0u64; ws_len(n, KARATSUBA_SQR_THRESHOLD)];
    kara_sqr_rec(&a.limbs, &mut out, &mut ws);
    BigUint::from_limbs(out)
}

impl BigUint {
    /// `self * other` by reference.
    #[inline]
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        mul(self, other)
    }
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
    use super::*;
    use crate::BigUint;

    fn xorshift_limbs(seed: u64, len: usize) -> Vec<u64> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

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
        let sq = a.square();
        let expected = (BigUint::one() << 256usize) - (BigUint::one() << 129usize) + BigUint::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Deterministic pseudo-random operands big enough to recurse.
        for len in [KARATSUBA_THRESHOLD, KARATSUBA_THRESHOLD * 2 + 3, 100] {
            let a = BigUint::from_limbs(xorshift_limbs(0x9E3779B97F4A7C15, len));
            let b = BigUint::from_limbs(xorshift_limbs(0xD1B54A32D192ED03, len + 7));
            let expect = mul_schoolbook_pub(&a, &b);
            assert_eq!(mul_karatsuba_pub(&a, &b), expect, "alloc len {len}");
            assert_eq!(mul_karatsuba_ws_pub(&a, &b), expect, "ws len {len}");
        }
    }

    #[test]
    fn karatsuba_asymmetric_operands() {
        let a = BigUint::from_limbs(vec![u64::MAX; 80]);
        let b = BigUint::from_limbs(vec![u64::MAX; 33]);
        let expect = mul_schoolbook_pub(&a, &b);
        assert_eq!(mul_karatsuba_pub(&a, &b), expect);
        assert_eq!(mul_karatsuba_ws_pub(&a, &b), expect);
    }

    #[test]
    fn ws_karatsuba_internal_zero_blocks() {
        // Operands with zero-filled halves exercise the trimmed-slice
        // paths (empty z2, short sums) of the workspace recursion.
        for (lo_zero, hi_zero) in [(true, false), (false, true), (true, true)] {
            let len = KARATSUBA_THRESHOLD * 2 + 5;
            let mut limbs = xorshift_limbs(0xABCDEF12345, len);
            if lo_zero {
                limbs[..len / 2].fill(0);
            }
            if hi_zero {
                limbs[len / 2..len - 1].fill(0);
            }
            let a = BigUint::from_limbs(limbs);
            let b = BigUint::from_limbs(xorshift_limbs(0x5DEECE66D, len + 3));
            assert_eq!(
                mul_karatsuba_ws_pub(&a, &b),
                mul_schoolbook_pub(&a, &b),
                "lo_zero={lo_zero} hi_zero={hi_zero}"
            );
        }
    }

    #[test]
    fn square_matches_mul_small_and_large() {
        for len in [
            1,
            3,
            17,
            KARATSUBA_SQR_THRESHOLD,
            KARATSUBA_SQR_THRESHOLD * 2 + 9,
        ] {
            let a = BigUint::from_limbs(xorshift_limbs(0xBADC0FFEE ^ len as u64, len));
            let expect = mul_schoolbook_pub(&a, &a);
            assert_eq!(a.square(), expect, "square dispatch len {len}");
            assert_eq!(sqr_schoolbook_pub(&a), expect, "schoolbook sqr len {len}");
            assert_eq!(sqr_karatsuba_pub(&a), expect, "karatsuba sqr len {len}");
        }
        assert_eq!(BigUint::zero().square(), BigUint::zero());
        assert_eq!(BigUint::one().square(), BigUint::one());
    }

    #[test]
    fn sqr_limbs_keeps_double_width() {
        // Exactly 2k limbs even when the top limbs of the square are
        // zero.
        let a = vec![3u64, 0, 0, 0]; // 4 limbs, value 3
        let sq = sqr_limbs(&a);
        assert_eq!(sq.len(), 8);
        assert_eq!(sq[0], 9);
        assert!(sq[1..].iter().all(|&l| l == 0));
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
