//! `FpMont<LIMBS>`: allocation-free fixed-width Montgomery arithmetic,
//! the one modular-arithmetic backend behind [`ModRing`](crate::ModRing).
//!
//! The CIOS kernels are monomorphized over a `const LIMBS: usize` width
//! so that residues live in `[u64; LIMBS]` on the stack, loop bounds are
//! compile-time constants and the whole exponentiation ladder runs
//! without touching the allocator.
//!
//! A context serves any odd modulus `n > 1` of at most `LIMBS` limbs:
//! narrower moduli are zero-padded to the width. CIOS and REDC only
//! need an odd `n < R = 2^(64·LIMBS)`, and the final conditional
//! subtraction compares all `LIMBS` limbs, so the padded limbs stay
//! zero throughout. `ModRing` instantiates widths 1, 2, 4, 8, 16 and 32
//! and picks the smallest that holds the modulus — the protocol moduli
//! (the fixture towers, RSA moduli and their CRT halves) all land on a
//! width equal to their limb count. The pairing field picks its own
//! width the same way and runs its curve loops on the residues.
//!
//! Squaring is the product: [`FpMont::mont_sqr`] is
//! `mont_mul(a, a)`. A dedicated kernel (cross products once into a
//! double-width buffer, then a separate REDC pass) measured slower than
//! the interleaved CIOS product at every instantiated width — about
//! 15 vs 9 ns at 1 limb, 77 vs 39 ns at 4, 200 vs 105 ns at 8,
//! 490–640 vs 330–460 ns at 16 and 2.0–3.9 vs 1.8–3.1 µs at 32 limbs
//! (2-vCPU Xeon VM) — so every ladder squares with the one product.
//!
//! Allocation discipline, mechanically enforced by
//! `tests/alloc_free.rs` with a counting global allocator:
//!
//! * [`FpMont::mont_mul`], [`FpMont::mont_sqr`], [`FpMont::pow_mont`]:
//!   **zero** heap allocations, always — accumulators, window tables
//!   and scratch are stack arrays.
//! * [`FpMont::multi_pow_n_mont`] (Straus/Pippenger) and
//!   [`FpMont::shamir_mont`]: tables live in a thread-local scratch
//!   arena that is grown once and reused; a *warmed* call (arena
//!   capacity established) performs zero allocations.
//! * Conversions at the [`BigUint`] boundary (`from_mont`, and
//!   `to_mont` of an unreduced operand) allocate exactly the result —
//!   callers inside the ladder never cross that boundary.

use crate::BigUint;
use std::cell::RefCell;

/// Window width shared by every 4-bit-digit path in this crate (the
/// fixed-base tables, Straus interleaving and the pow ladders).
pub(crate) const WINDOW_BITS: usize = 4;
pub(crate) const WINDOW_SPAN: usize = 1 << WINDOW_BITS;

/// `-n^{-1} mod 2^64` by Newton–Hensel lifting (n odd).
///
/// The seed `x = n0` is already an inverse of `n0` mod 2^3: every odd
/// `n0` satisfies `n0² ≡ 1 (mod 8)`, i.e. `n0·n0 ≡ 1`, so `x` starts
/// with 3 correct low bits. Each Hensel step
/// `x ← x·(2 − n0·x)` doubles the number of correct bits
/// (if `n0·x = 1 + ε·2^k` then `n0·x' = 1 − ε²·2^2k`), so the correct
/// bit count goes 3 → 6 → 12 → 24 → 48 → 96 ≥ 64: **5 lifts suffice**.
pub(crate) fn neg_inv_u64(n0: u64) -> u64 {
    debug_assert!(n0 & 1 == 1);
    let mut x = n0;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
    }
    debug_assert_eq!(n0.wrapping_mul(x), 1);
    x.wrapping_neg()
}

/// The `w`-bit digit of `exp` starting at bit `pos`.
#[inline]
pub(crate) fn digit_at(exp: &BigUint, pos: usize, w: usize) -> usize {
    let mut digit = 0usize;
    for b in (0..w).rev() {
        digit <<= 1;
        if exp.bit(pos + b) {
            digit |= 1;
        }
    }
    digit
}

/// Window width for Pippenger bucketing, by base count: wider windows
/// amortize the `2^w` bucket walk over more per-window bucket
/// insertions (one mul per base).
pub(crate) fn pippenger_window(n: usize) -> usize {
    match n {
        0..=15 => 4,
        16..=63 => 5,
        64..=255 => 6,
        256..=1023 => 7,
        _ => 8,
    }
}

thread_local! {
    /// Reusable limb arena for the multi-exponentiation tables. Grown
    /// monotonically; once a thread has run its largest batch shape the
    /// arena never allocates again. One arena serves every `LIMBS`
    /// instantiation (the layouts are flat `u64` runs).
    static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over a zero-initialized thread-local scratch of `words`
/// limbs, reusing (and if needed growing) the arena. Callers must not
/// re-enter (the multi-exp evaluators are leaf routines).
fn with_scratch<R>(words: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    SCRATCH.with(|s| {
        let mut v = s.borrow_mut();
        if v.len() < words {
            v.resize(words, 0);
        }
        let slice = &mut v[..words];
        slice.fill(0);
        f(slice)
    })
}

/// A Montgomery context for a fixed odd modulus of at most `LIMBS`
/// 64-bit limbs, zero-padded to the full width. Residues are
/// `[u64; LIMBS]` stack arrays in Montgomery form.
#[derive(Clone, Debug)]
pub struct FpMont<const LIMBS: usize> {
    /// The modulus, little-endian limbs.
    n: [u64; LIMBS],
    /// The modulus as a `BigUint` (boundary comparisons / cold reduce).
    modulus: BigUint,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R mod n` — the Montgomery form of 1 (`R = 2^(64·LIMBS)`).
    r1: [u64; LIMBS],
    /// `R² mod n`, used to enter the Montgomery domain.
    r2: [u64; LIMBS],
}

impl<const LIMBS: usize> FpMont<LIMBS> {
    /// Builds the context, or `None` when the modulus is even, `1`, or
    /// wider than `LIMBS` limbs.
    pub fn new(n: &BigUint) -> Option<FpMont<LIMBS>> {
        if LIMBS == 0 || n.limbs().len() > LIMBS || !n.is_odd() || n.is_one() {
            return None;
        }
        let nn: [u64; LIMBS] = to_arr(n);
        let r1 = &(BigUint::one() << (64 * LIMBS)) % n;
        let r2 = &(&r1 * &r1) % n;
        Some(FpMont {
            n: nn,
            modulus: n.clone(),
            n_prime: neg_inv_u64(nn[0]),
            r1: to_arr(&r1),
            r2: to_arr(&r2),
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Final CIOS step: the accumulator is `< 2n` with `t_hi ∈ {0, 1}`
    /// as its `LIMBS`-th limb; one conditional subtraction lands it in
    /// `[0, n)`.
    #[inline]
    fn sub_n_if_needed(&self, mut t: [u64; LIMBS], t_hi: u64) -> [u64; LIMBS] {
        let needs_sub = t_hi != 0 || {
            let mut ge = true;
            for j in (0..LIMBS).rev() {
                if t[j] != self.n[j] {
                    ge = t[j] > self.n[j];
                    break;
                }
            }
            ge
        };
        if needs_sub {
            let mut borrow = 0u64;
            for (tj, nj) in t.iter_mut().zip(self.n.iter()) {
                let (d1, b1) = tj.overflowing_sub(*nj);
                let (d2, b2) = d1.overflowing_sub(borrow);
                *tj = d2;
                borrow = (b1 | b2) as u64;
            }
            // t_hi == borrow here: the subtraction consumed the
            // overflow limb and the result is < n.
        }
        t
    }

    /// `a · b · R⁻¹ mod n` for Montgomery residues — interleaved CIOS,
    /// all state on the stack.
    pub fn mont_mul(&self, a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
        let mut t = [0u64; LIMBS];
        let mut t_hi = 0u64; // t[LIMBS]
        for &ai in a.iter() {
            // t += aᵢ · b
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let x = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = x as u64;
                carry = x >> 64;
            }
            let x = t_hi as u128 + carry;
            t_hi = x as u64;
            let t_hi2 = (x >> 64) as u64; // t[LIMBS + 1], always 0 or 1

            // m = t[0] · n' mod 2^64;  t = (t + m·n) >> 64
            let m = t[0].wrapping_mul(self.n_prime);
            let x = t[0] as u128 + m as u128 * self.n[0] as u128;
            let mut carry = x >> 64;
            for j in 1..LIMBS {
                let x = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = x as u64;
                carry = x >> 64;
            }
            let x = t_hi as u128 + carry;
            t[LIMBS - 1] = x as u64;
            t_hi = t_hi2 + (x >> 64) as u64;
        }
        self.sub_n_if_needed(t, t_hi)
    }

    /// `a² · R⁻¹ mod n`, as the interleaved product `a · a` (see the
    /// module doc for why there is no dedicated squaring kernel).
    #[inline]
    pub fn mont_sqr(&self, a: &[u64; LIMBS]) -> [u64; LIMBS] {
        self.mont_mul(a, a)
    }

    /// Enters the Montgomery domain. Reduced operands (`x < n`, the
    /// steady state of every protocol value) convert without touching
    /// the allocator; wider operands pay one cold `BigUint` reduction.
    pub fn to_mont(&self, x: &BigUint) -> [u64; LIMBS] {
        if x < &self.modulus {
            let mut a = [0u64; LIMBS];
            a[..x.limbs().len()].copy_from_slice(x.limbs());
            self.mont_mul(&a, &self.r2)
        } else {
            let r = x % &self.modulus;
            let mut a = [0u64; LIMBS];
            a[..r.limbs().len()].copy_from_slice(r.limbs());
            self.mont_mul(&a, &self.r2)
        }
    }

    /// Leaves the Montgomery domain, allocating exactly the result.
    pub fn from_mont(&self, x: &[u64; LIMBS]) -> BigUint {
        let mut one = [0u64; LIMBS];
        one[0] = 1;
        BigUint::from_limbs(self.mont_mul(x, &one).to_vec())
    }

    /// `a · b mod n` through the Montgomery domain (plain residues in,
    /// plain residue out).
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// `base^exp · R⁻¹·…` — the 4-bit-window ladder over Montgomery
    /// residues: stack window table, zero heap allocations.
    pub fn pow_mont(&self, base: &[u64; LIMBS], exp: &BigUint) -> [u64; LIMBS] {
        if exp.is_zero() {
            return self.r1;
        }
        // table[d] = base^d in Montgomery form.
        let mut table = [[0u64; LIMBS]; WINDOW_SPAN];
        table[0] = self.r1;
        table[1] = *base;
        for d in 2..WINDOW_SPAN {
            table[d] = self.mont_mul(&table[d - 1], base);
        }
        let nwindows = exp.bits().div_ceil(WINDOW_BITS);
        let mut acc = self.r1;
        let mut started = false;
        for w in (0..nwindows).rev() {
            if started {
                for _ in 0..WINDOW_BITS {
                    acc = self.mont_sqr(&acc);
                }
            }
            let digit = digit_at(exp, w * WINDOW_BITS, WINDOW_BITS);
            if digit != 0 {
                acc = self.mont_mul(&acc, &table[digit]);
                started = true;
            }
        }
        acc
    }

    /// `base^exp mod n` at the `BigUint` boundary.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.from_mont(&self.pow_mont(&self.to_mont(base), exp))
    }

    /// Simultaneous `∏ baseᵢ^expᵢ` in Montgomery form by Shamir's
    /// trick: a `2^n − 1`-entry subset-product table in the arena
    /// (entry `mask − 1` holds `∏ baseᵢ` over the set bits of `mask`, so
    /// the converted bases sit at the power-of-two slots), then one
    /// shared square-per-bit chain with a single table multiplication
    /// per bit. `pairs` must be nonempty and small (the table is
    /// exponential in its length).
    pub fn shamir_mont(&self, pairs: &[(&BigUint, &BigUint)]) -> [u64; LIMBS] {
        debug_assert!(!pairs.is_empty() && pairs.len() < usize::BITS as usize);
        let nmasks = (1usize << pairs.len()) - 1;
        with_scratch(nmasks * LIMBS, |subset| {
            for mask in 1..=nmasks {
                let low = mask & mask.wrapping_neg();
                let rest = mask ^ low;
                let v = if rest == 0 {
                    self.to_mont(pairs[low.trailing_zeros() as usize].0)
                } else {
                    let a: &[u64; LIMBS] =
                        subset[(rest - 1) * LIMBS..][..LIMBS].try_into().unwrap();
                    let b: &[u64; LIMBS] = subset[(low - 1) * LIMBS..][..LIMBS].try_into().unwrap();
                    self.mont_mul(a, b)
                };
                subset[(mask - 1) * LIMBS..mask * LIMBS].copy_from_slice(&v);
            }
            let max_bits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
            let mut acc = self.r1;
            let mut started = false;
            for bit in (0..max_bits).rev() {
                if started {
                    acc = self.mont_sqr(&acc);
                }
                let mask = pairs
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, e))| e.bit(bit))
                    .fold(0usize, |m, (i, _)| m | 1 << i);
                if mask != 0 {
                    let entry: &[u64; LIMBS] =
                        subset[(mask - 1) * LIMBS..][..LIMBS].try_into().unwrap();
                    acc = if started {
                        self.mont_mul(&acc, entry)
                    } else {
                        *entry
                    };
                    started = true;
                }
            }
            acc
        })
    }

    /// Unbounded simultaneous `∏ baseᵢ^expᵢ` in Montgomery form —
    /// Straus interleaved windows or Pippenger buckets, both on the
    /// thread-local arena. `pairs` must be nonempty.
    pub fn multi_pow_n_mont(&self, pairs: &[(&BigUint, &BigUint)], bucketed: bool) -> [u64; LIMBS] {
        if bucketed {
            self.pippenger_mont(pairs)
        } else {
            self.straus_mont(pairs)
        }
    }

    /// Straus interleaved multi-exponentiation: a 15-entry odd-digit
    /// table per base in the arena, one shared 4-bit squaring chain.
    pub fn straus_mont(&self, pairs: &[(&BigUint, &BigUint)]) -> [u64; LIMBS] {
        debug_assert!(!pairs.is_empty());
        let stride = (WINDOW_SPAN - 1) * LIMBS;
        with_scratch(pairs.len() * stride, |tab| {
            for (i, (base, _)) in pairs.iter().enumerate() {
                let b1 = self.to_mont(base);
                let row = &mut tab[i * stride..(i + 1) * stride];
                row[..LIMBS].copy_from_slice(&b1);
                for d in 2..WINDOW_SPAN {
                    let prev: &[u64; LIMBS] =
                        row[(d - 2) * LIMBS..(d - 1) * LIMBS].try_into().unwrap();
                    let v = self.mont_mul(prev, &b1);
                    row[(d - 1) * LIMBS..d * LIMBS].copy_from_slice(&v);
                }
            }
            let max_bits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
            let nwindows = max_bits.div_ceil(WINDOW_BITS);
            let mut acc = self.r1;
            let mut started = false;
            for w in (0..nwindows).rev() {
                if started {
                    for _ in 0..WINDOW_BITS {
                        acc = self.mont_sqr(&acc);
                    }
                }
                for (i, (_, e)) in pairs.iter().enumerate() {
                    let digit = digit_at(e, w * WINDOW_BITS, WINDOW_BITS);
                    if digit != 0 {
                        let entry: &[u64; LIMBS] = tab[i * stride + (digit - 1) * LIMBS..][..LIMBS]
                            .try_into()
                            .unwrap();
                        acc = self.mont_mul(&acc, entry);
                        started = true;
                    }
                }
            }
            acc
        })
    }

    /// Pippenger bucket multi-exponentiation: converted bases and the
    /// `2^w − 1` buckets live in the arena, bucket occupancy in a stack
    /// bitmap, and `∏ bucket_d^d` is assembled with the suffix
    /// running-product walk.
    pub fn pippenger_mont(&self, pairs: &[(&BigUint, &BigUint)]) -> [u64; LIMBS] {
        debug_assert!(!pairs.is_empty());
        let w = pippenger_window(pairs.len());
        let nbuckets = (1usize << w) - 1;
        debug_assert!(nbuckets <= 256, "bitmap covers 256 buckets");
        let nb = pairs.len();
        with_scratch((nb + nbuckets) * LIMBS, |scratch| {
            let (bases, buckets) = scratch.split_at_mut(nb * LIMBS);
            for (i, (base, _)) in pairs.iter().enumerate() {
                let bm = self.to_mont(base);
                bases[i * LIMBS..(i + 1) * LIMBS].copy_from_slice(&bm);
            }
            let max_bits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
            let nwindows = max_bits.div_ceil(w);
            let mut acc = self.r1;
            let mut started = false;
            for win in (0..nwindows).rev() {
                if started {
                    for _ in 0..w {
                        acc = self.mont_sqr(&acc);
                    }
                }
                let mut occupied = [0u64; 4];
                for (i, (_, e)) in pairs.iter().enumerate() {
                    let d = digit_at(e, win * w, w);
                    if d != 0 {
                        let bi = d - 1;
                        let slot = bi * LIMBS;
                        let base: &[u64; LIMBS] = bases[i * LIMBS..][..LIMBS].try_into().unwrap();
                        if occupied[bi / 64] >> (bi % 64) & 1 == 1 {
                            let cur: &[u64; LIMBS] = buckets[slot..][..LIMBS].try_into().unwrap();
                            let v = self.mont_mul(cur, base);
                            buckets[slot..slot + LIMBS].copy_from_slice(&v);
                        } else {
                            buckets[slot..slot + LIMBS].copy_from_slice(base);
                            occupied[bi / 64] |= 1 << (bi % 64);
                        }
                    }
                }
                // windowsum = ∏ bucket_d^d via the running suffix
                // product (bucket_d is folded in exactly d times).
                let mut running = [0u64; LIMBS];
                let mut have_running = false;
                let mut windowsum = [0u64; LIMBS];
                let mut have_ws = false;
                for bi in (0..nbuckets).rev() {
                    if occupied[bi / 64] >> (bi % 64) & 1 == 1 {
                        let bucket: &[u64; LIMBS] =
                            buckets[bi * LIMBS..][..LIMBS].try_into().unwrap();
                        running = if have_running {
                            self.mont_mul(&running, bucket)
                        } else {
                            *bucket
                        };
                        have_running = true;
                    }
                    if have_running {
                        windowsum = if have_ws {
                            self.mont_mul(&windowsum, &running)
                        } else {
                            running
                        };
                        have_ws = true;
                    }
                }
                if have_ws {
                    acc = if started {
                        self.mont_mul(&acc, &windowsum)
                    } else {
                        windowsum
                    };
                    started = true;
                }
            }
            if started {
                acc
            } else {
                self.r1
            }
        })
    }

    /// Evaluates a flat fixed-base window table (rows of 15 Montgomery
    /// entries per 4-bit window, built by the ring): one multiplication
    /// per nonzero digit, no squarings, no allocations besides the
    /// result.
    pub fn eval_window_table(&self, flat: &[u64], table_windows: usize, exp: &BigUint) -> BigUint {
        let stride = (WINDOW_SPAN - 1) * LIMBS;
        debug_assert_eq!(flat.len(), table_windows * stride);
        let nwindows = exp.bits().div_ceil(WINDOW_BITS).min(table_windows);
        let mut acc = self.r1;
        for j in 0..nwindows {
            let digit = digit_at(exp, j * WINDOW_BITS, WINDOW_BITS);
            if digit != 0 {
                let entry: &[u64; LIMBS] = flat[j * stride + (digit - 1) * LIMBS..][..LIMBS]
                    .try_into()
                    .unwrap();
                acc = self.mont_mul(&acc, entry);
            }
        }
        self.from_mont(&acc)
    }

    /// Builds the flat fixed-base window table for `base`, sized for
    /// exponents up to `nbits` bits (one allocation, cached by the
    /// ring).
    pub fn build_window_table(&self, base: &BigUint, nbits: usize) -> (usize, Vec<u64>) {
        let stride = (WINDOW_SPAN - 1) * LIMBS;
        let nwindows = nbits.div_ceil(WINDOW_BITS).max(1);
        let mut flat = vec![0u64; nwindows * stride];
        let mut cur = self.to_mont(base); // base^(16^j), advancing j
        for wdx in 0..nwindows {
            let row = &mut flat[wdx * stride..(wdx + 1) * stride];
            row[..LIMBS].copy_from_slice(&cur);
            for d in 2..WINDOW_SPAN {
                let prev: &[u64; LIMBS] = row[(d - 2) * LIMBS..(d - 1) * LIMBS].try_into().unwrap();
                let v = self.mont_mul(prev, &cur);
                row[(d - 1) * LIMBS..d * LIMBS].copy_from_slice(&v);
            }
            let last: &[u64; LIMBS] = row[(WINDOW_SPAN - 2) * LIMBS..(WINDOW_SPAN - 1) * LIMBS]
                .try_into()
                .unwrap();
            cur = self.mont_mul(last, &cur); // ^16
        }
        (nwindows, flat)
    }
}

/// Copies a `BigUint` known to fit into `LIMBS` limbs, zero-padding.
fn to_arr<const LIMBS: usize>(x: &BigUint) -> [u64; LIMBS] {
    debug_assert!(x.limbs().len() <= LIMBS);
    let mut a = [0u64; LIMBS];
    a[..x.limbs().len()].copy_from_slice(x.limbs());
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modpow_plain;

    fn n192() -> BigUint {
        BigUint::parse_hex("f123456789abcdef0123456789abcdef0123456789abcdef").unwrap()
    }

    #[test]
    fn new_rejects_wrong_widths() {
        let n = n192(); // 3 limbs
        assert!(FpMont::<3>::new(&n).is_some());
        assert!(FpMont::<4>::new(&n).is_some()); // zero-padded
        assert!(FpMont::<2>::new(&n).is_none()); // too wide
        assert!(FpMont::<3>::new(&(&n + 1u64)).is_none()); // even
        assert!(FpMont::<1>::new(&BigUint::one()).is_none());
        assert!(FpMont::<1>::new(&BigUint::zero()).is_none());
    }

    #[test]
    fn neg_inv_works() {
        for n0 in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let x = neg_inv_u64(n0);
            assert_eq!(n0.wrapping_mul(x), 1u64.wrapping_neg(), "n0 = {n0:#x}");
        }
    }

    #[test]
    fn neg_inv_exhaustive_odd_u8() {
        // Every odd 8-bit value, embedded in u64 — small enough to
        // enumerate completely, and the low byte is exactly where the
        // 3-bit seed of the Hensel lift starts.
        for low in (1u64..256).step_by(2) {
            let x = neg_inv_u64(low);
            assert_eq!(low.wrapping_mul(x), 1u64.wrapping_neg(), "n0 = {low:#x}");
        }
    }

    #[test]
    fn neg_inv_randomized_u64() {
        // Deterministic xorshift64* stream, forced odd: exercises the
        // full 64-bit range the 5-lift doubling argument covers.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1000 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let n0 = state.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            let x = neg_inv_u64(n0);
            assert_eq!(n0.wrapping_mul(x), 1u64.wrapping_neg(), "n0 = {n0:#x}");
        }
    }

    #[test]
    fn mont_mul_small() {
        let n = BigUint::from(101u64);
        let fp = FpMont::<1>::new(&n).unwrap();
        assert_eq!(
            fp.mul(&BigUint::from(7u64), &BigUint::from(20u64)),
            BigUint::from(39u64)
        );
        assert_eq!(
            fp.mul(&BigUint::from(100u64), &BigUint::from(100u64)),
            BigUint::one()
        );
    }

    #[test]
    fn modpow_fermat() {
        // a^(p-1) = 1 mod p, on the one-limb width and padded to two.
        let p = BigUint::from(1_000_000_007u64);
        let fp1 = FpMont::<1>::new(&p).unwrap();
        let fp2 = FpMont::<2>::new(&p).unwrap();
        for a in [2u64, 3, 12345, 999_999_999] {
            let a = BigUint::from(a);
            assert_eq!(fp1.pow(&a, &(&p - 1u64)), BigUint::one(), "a = {a}");
            assert_eq!(fp2.pow(&a, &(&p - 1u64)), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn padded_width_matches_exact_width() {
        let n = n192();
        let exact = FpMont::<3>::new(&n).unwrap();
        let padded = FpMont::<8>::new(&n).unwrap();
        let a = BigUint::parse_hex("deadbeefcafebabe1122334455667788").unwrap();
        let b = BigUint::parse_hex("0102030405060708090a0b0c0d0e0f10").unwrap();
        assert_eq!(padded.mul(&a, &b), exact.mul(&a, &b));
        assert_eq!(padded.pow(&a, &b), exact.pow(&a, &b));
        assert_eq!(
            padded.pow(&(&n - 1u64), &b),
            modpow_plain(&(&n - 1u64), &b, &n)
        );
        let pairs = [(&a, &b), (&b, &a)];
        assert_eq!(
            padded.from_mont(&padded.shamir_mont(&pairs)),
            exact.from_mont(&exact.shamir_mont(&pairs))
        );
    }

    #[test]
    fn mul_and_pow_match_reference() {
        let n = n192();
        let fp = FpMont::<3>::new(&n).unwrap();
        let a = BigUint::parse_hex("deadbeefcafebabe1122334455667788").unwrap();
        let b = BigUint::parse_hex("0102030405060708090a0b0c0d0e0f10").unwrap();
        assert_eq!(fp.mul(&a, &b), (&a * &b) % &n);
        assert_eq!(fp.pow(&a, &b), modpow_plain(&a, &b, &n));
        // Edge exponents / operands.
        assert_eq!(fp.pow(&a, &BigUint::zero()), BigUint::one());
        assert_eq!(fp.pow(&BigUint::zero(), &b), BigUint::zero());
        assert_eq!(fp.pow(&(&n - 1u64), &b), modpow_plain(&(&n - 1u64), &b, &n));
        // Unreduced operands take the cold reduction path.
        let wide = &a + &(&n << 2usize);
        assert_eq!(fp.pow(&wide, &b), modpow_plain(&wide, &b, &n));
    }

    #[test]
    fn mont_round_trip() {
        let n = n192();
        let fp = FpMont::<3>::new(&n).unwrap();
        for v in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(0xFFFF_FFFF_FFFFu64),
            &n - 1u64,
        ] {
            assert_eq!(fp.from_mont(&fp.to_mont(&v)), v);
        }
    }

    #[test]
    fn multi_pow_matches_products() {
        let n = n192();
        let fp = FpMont::<3>::new(&n).unwrap();
        let owned: Vec<(BigUint, BigUint)> = (1..9u64)
            .map(|i| {
                (
                    BigUint::from(i * 0x1234_5678_9ABCu64),
                    BigUint::from(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            })
            .collect();
        let pairs: Vec<(&BigUint, &BigUint)> = owned.iter().map(|(b, e)| (b, e)).collect();
        let expect = pairs.iter().fold(BigUint::one(), |acc, (b, e)| {
            (&acc * &modpow_plain(b, e, &n)) % &n
        });
        for bucketed in [false, true] {
            let got = fp.from_mont(&fp.multi_pow_n_mont(&pairs, bucketed));
            assert_eq!(got, expect, "bucketed = {bucketed}");
        }
        let got = fp.from_mont(&fp.shamir_mont(&pairs[..6]));
        let expect6 = pairs[..6].iter().fold(BigUint::one(), |acc, (b, e)| {
            (&acc * &modpow_plain(b, e, &n)) % &n
        });
        assert_eq!(got, expect6, "shamir");
    }

    #[test]
    fn window_table_build_and_eval() {
        let n = n192();
        let fp = FpMont::<3>::new(&n).unwrap();
        let g = BigUint::from(7u64);
        let (windows, flat) = fp.build_window_table(&g, n.bits());
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(16u64),
            &n - 1u64,
        ] {
            assert_eq!(
                fp.eval_window_table(&flat, windows, &e),
                modpow_plain(&g, &e, &n),
                "e = {e:?}"
            );
        }
    }
}
