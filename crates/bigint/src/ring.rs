//! `ModRing`: a constructed-once modular-arithmetic context that every
//! exponentiation in the workspace goes through.
//!
//! A `ModRing` derives the Montgomery constants (`n' = -n^{-1} mod
//! 2^64`, `R mod n`, `R² mod n`) once per modulus and layers three
//! accelerations on top:
//!
//! * **fixed-base windows** ([`ModRing::pow_fixed`]): k-ary tables
//!   (`w = 4`) of `base^(d·16^j)` built lazily per *registered* base and
//!   cached behind a `parking_lot::RwLock`, turning a full
//!   square-and-multiply into ~`bits/4` multiplications with zero
//!   squarings,
//! * **simultaneous multi-exponentiation** ([`ModRing::multi_pow`]):
//!   Shamir's trick with a subset-product table, covering the
//!   `g^a · h^b` shape that dominates Pedersen commitments, CL
//!   signatures and the representation/OR ZK proofs,
//! * **RSA-CRT** ([`ModRing::pow_crt`] via [`RsaCrt`]): secret-key
//!   exponentiations split over the prime factors with Garner
//!   recombination, roughly 4× cheaper than a full-width `pow`.
//!
//! Every operation runs on one backend: the allocation-free
//! [`FpMont`] kernels, instantiated at 1, 2, 4, 8, 16 and 32 limbs. The
//! ring picks the smallest width that holds the modulus and zero-pads
//! the rest, so it serves every odd modulus `1 < n < 2^2048`; even and
//! wider moduli are rejected at construction ([`ModRing::supports`]).
//!
//! Clones of a `ModRing` *share* the fixed-base table cache, so cloning
//! parameter sets across worker threads — as the threaded market in
//! `ppms-core` does — amortizes precomputation instead of repeating it.

use crate::fixed::{pippenger_window, FpMont, WINDOW_BITS};
use crate::BigUint;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Maximum number of bases `multi_pow` accepts (subset table is `2^n`).
const MULTI_POW_MAX: usize = 6;

/// The monomorphized [`FpMont`] widths. 32 and 16 limbs hold the
/// 2048/1024-bit RSA and group moduli, 8 and 4 their CRT halves (and
/// the 512-bit bench modulus), 2 the fixture-tower groups and 1 the
/// one-limb moduli (the ~45-bit CL pairing field holds its own
/// `FpMont<1>`). Moduli between two widths are zero-padded to the
/// wider one.
// The enum lives once per ModRing; keeping the widest context inline
// (rather than boxed) spares every kernel dispatch a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum Fixed {
    L1(FpMont<1>),
    L2(FpMont<2>),
    L4(FpMont<4>),
    L8(FpMont<8>),
    L16(FpMont<16>),
    L32(FpMont<32>),
}

/// Dispatches `$body` over whichever `FpMont<LIMBS>` instantiation the
/// ring carries, binding it to `$fp`. Each arm monomorphizes `$body`
/// at its concrete width.
macro_rules! with_fp {
    ($fixed:expr, $fp:ident => $body:expr) => {
        match $fixed {
            Fixed::L1($fp) => $body,
            Fixed::L2($fp) => $body,
            Fixed::L4($fp) => $body,
            Fixed::L8($fp) => $body,
            Fixed::L16($fp) => $body,
            Fixed::L32($fp) => $body,
        }
    };
}

impl Fixed {
    /// The smallest instantiation that holds `n` (odd, `1 < n < 2^2048`).
    fn for_modulus(n: &BigUint) -> Fixed {
        let fixed = match n.limbs().len() {
            1 => FpMont::new(n).map(Fixed::L1),
            2 => FpMont::new(n).map(Fixed::L2),
            3..=4 => FpMont::new(n).map(Fixed::L4),
            5..=8 => FpMont::new(n).map(Fixed::L8),
            9..=16 => FpMont::new(n).map(Fixed::L16),
            _ => FpMont::new(n).map(Fixed::L32),
        };
        fixed.expect("ModRing::new checked the modulus")
    }

    /// The instantiated width in limbs (diagnostic).
    fn limbs(&self) -> usize {
        match self {
            Fixed::L1(_) => 1,
            Fixed::L2(_) => 2,
            Fixed::L4(_) => 4,
            Fixed::L8(_) => 8,
            Fixed::L16(_) => 16,
            Fixed::L32(_) => 32,
        }
    }
}

/// Per-base precomputation: `windows` rows of 15 odd-digit Montgomery
/// entries (`base^(d · 16^j)` for `d` in `1..16`), each `LIMBS` limbs,
/// evaluated by [`FpMont::eval_window_table`] without intermediate
/// allocations.
struct FixedTable {
    windows: usize,
    flat: Vec<u64>,
}

/// A reusable ring `Z/nZ` with cached exponentiation acceleration.
pub struct ModRing {
    modulus: BigUint,
    fixed: Fixed,
    /// `base (mod n)` → `None` (registered, table not yet built) or
    /// `Some(table)`. Shared across clones so precomputation done by
    /// one thread benefits all holders of the same parameter set.
    tables: Arc<RwLock<HashMap<BigUint, Option<Arc<FixedTable>>>>>,
}

impl Clone for ModRing {
    fn clone(&self) -> ModRing {
        ModRing {
            modulus: self.modulus.clone(),
            fixed: self.fixed.clone(),
            tables: Arc::clone(&self.tables),
        }
    }
}

impl std::fmt::Debug for ModRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModRing")
            .field("modulus_bits", &self.modulus.bits())
            .field("width_limbs", &self.fixed.limbs())
            .field("registered_bases", &self.tables.read().len())
            .finish()
    }
}

impl PartialEq for ModRing {
    fn eq(&self, other: &ModRing) -> bool {
        self.modulus == other.modulus
    }
}

impl Eq for ModRing {}

impl ModRing {
    /// The widest modulus a ring serves, in bits.
    pub const MAX_BITS: usize = 2048;

    /// Whether [`ModRing::new`] accepts `n`: odd, greater than 1 and at
    /// most [`ModRing::MAX_BITS`] bits.
    pub fn supports(n: &BigUint) -> bool {
        n.is_odd() && !n.is_one() && n.bits() <= Self::MAX_BITS
    }

    /// Creates a ring for an odd modulus `1 < n < 2^2048`.
    ///
    /// Panics on an even, `1` or wider modulus; callers holding
    /// untrusted moduli check [`ModRing::supports`] first.
    pub fn new(n: &BigUint) -> ModRing {
        assert!(
            n.is_odd() && !n.is_one(),
            "ModRing modulus must be odd and exceed 1"
        );
        assert!(
            n.bits() <= Self::MAX_BITS,
            "ModRing modulus must be at most {} bits, got {}",
            Self::MAX_BITS,
            n.bits()
        );
        ModRing {
            modulus: n.clone(),
            fixed: Fixed::for_modulus(n),
            tables: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// The [`FpMont`] width this ring runs on, in limbs (diagnostic /
    /// bench aid): the smallest instantiated width that holds the
    /// modulus.
    pub fn width_limbs(&self) -> usize {
        self.fixed.limbs()
    }

    /// A process-wide shared ring for `n`, memoized so repeated
    /// call-sites (every RSA verify/sign against the same key, every
    /// protocol round against the same group) reuse one context. The
    /// cache is bounded; evicting an entry only costs re-derivation.
    pub fn shared(n: &BigUint) -> Arc<ModRing> {
        static CACHE: OnceLock<RwLock<HashMap<BigUint, Arc<ModRing>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| RwLock::new(HashMap::new()));
        if let Some(ring) = cache.read().get(n) {
            return Arc::clone(ring);
        }
        let ring = Arc::new(ModRing::new(n));
        let mut w = cache.write();
        // Re-check under the write lock; another thread may have won.
        if let Some(existing) = w.get(n) {
            return Arc::clone(existing);
        }
        if w.len() >= 128 {
            // Simple bound: moduli are long-lived keys/groups, so the
            // cache only grows when many ephemeral keys churn through
            // (e.g. per-round one-time RSA keys). Dropping everything
            // is correct — entries are pure caches.
            w.clear();
        }
        w.insert(n.clone(), Arc::clone(&ring));
        ring
    }

    /// The ring modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `x mod n`.
    pub fn reduce(&self, x: &BigUint) -> BigUint {
        if x < &self.modulus {
            x.clone()
        } else {
            x % &self.modulus
        }
    }

    /// `a · b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        with_fp!(&self.fixed, fp => fp.mul(a, b))
    }

    /// `base^exp mod n` on the fixed-width stack ladder.
    ///
    /// Span: `ring.pow_ns` (nested under `ring.pow_fixed_ns` /
    /// `ring.pow_crt_ns` when those paths fall through to here).
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let _span = ppms_obs::timed!("ring.pow_ns");
        with_fp!(&self.fixed, fp => fp.pow(base, exp))
    }

    /// Marks `base` as a fixed base worth precomputing for. The k-ary
    /// window table itself is built lazily on the first
    /// [`ModRing::pow_fixed`] call, so registration is cheap and safe
    /// to do for every long-lived generator.
    pub fn register_base(&self, base: &BigUint) {
        let key = self.reduce(base);
        self.tables.write().entry(key).or_insert(None);
    }

    /// Whether `base` has been registered (test/diagnostic aid).
    pub fn is_registered(&self, base: &BigUint) -> bool {
        self.tables.read().contains_key(&self.reduce(base))
    }

    /// Eagerly builds window tables for every registered base (they
    /// otherwise build lazily on first [`ModRing::pow_fixed`] use).
    /// Call once before fanning work out to threads so workers share
    /// prebuilt tables instead of each paying the first-use cost.
    pub fn precompute(&self) {
        let pending: Vec<BigUint> = self
            .tables
            .read()
            .iter()
            .filter(|(_, table)| table.is_none())
            .map(|(base, _)| base.clone())
            .collect();
        for base in pending {
            let built = Arc::new(self.build_table(&base));
            let mut w = self.tables.write();
            if let Some(slot) = w.get_mut(&base) {
                if slot.is_none() {
                    *slot = Some(built);
                }
            }
        }
    }

    /// `base^exp mod n` using the fixed-base window table for `base`.
    ///
    /// Falls back to [`ModRing::pow`] when `base` was never registered
    /// or `exp` is wider than the precomputed table (tables cover
    /// exponents up to the modulus width, which bounds every group
    /// exponent in the protocols).
    pub fn pow_fixed(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let _span = ppms_obs::timed!("ring.pow_fixed_ns");
        let key = self.reduce(base);
        let cached = {
            let t = self.tables.read();
            match t.get(&key) {
                None => return self.pow(base, exp), // unregistered base
                Some(Some(table)) => Some(Arc::clone(table)),
                Some(None) => None, // registered, not yet built
            }
        };
        let table = match cached {
            Some(t) => t,
            None => {
                // Build outside any lock: construction is the expensive
                // part and must not serialize other readers.
                let built = Arc::new(self.build_table(&key));
                let mut w = self.tables.write();
                let slot = w.entry(key).or_insert(None);
                match slot {
                    Some(existing) => Arc::clone(existing), // raced: keep winner
                    None => {
                        *slot = Some(Arc::clone(&built));
                        built
                    }
                }
            }
        };
        if exp.bits() > table.windows * WINDOW_BITS {
            return self.pow(base, exp);
        }
        with_fp!(&self.fixed, fp => fp.eval_window_table(&table.flat, table.windows, exp))
    }

    /// Builds the per-base window table sized for exponents up to the
    /// modulus width.
    fn build_table(&self, base: &BigUint) -> FixedTable {
        let (windows, flat) =
            with_fp!(&self.fixed, fp => fp.build_window_table(base, self.modulus.bits()));
        FixedTable { windows, flat }
    }

    /// Simultaneous `∏ baseᵢ^expᵢ mod n` via Shamir's trick: a
    /// `2^len`-entry subset-product table, then one shared
    /// square-per-bit pass. For the dominant two-base shape this costs
    /// one squaring chain instead of two.
    ///
    /// Panics if more than 6 pairs are supplied (table growth is
    /// exponential; the protocols never exceed 3).
    pub fn multi_pow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let _span = ppms_obs::timed!("ring.multi_pow_ns");
        assert!(
            pairs.len() <= MULTI_POW_MAX,
            "multi_pow supports at most {MULTI_POW_MAX} bases"
        );
        if pairs.is_empty() {
            return self.reduce(&BigUint::one());
        }
        with_fp!(&self.fixed, fp => fp.from_mont(&fp.shamir_mont(pairs)))
    }

    /// Unbounded simultaneous `∏ baseᵢ^expᵢ mod n` for batch
    /// verification: Straus interleaved 4-bit windows or Pippenger
    /// bucket accumulation, picked per call by `pick_bucketed`'s
    /// multiplication-count model (the crossover depends on both the
    /// base count and the exponent width). Unlike
    /// [`ModRing::multi_pow`] there is no subset table, so `N` is
    /// unlimited; all terms share one squaring chain.
    ///
    /// Exponents are used as given (callers reduce mod the group order
    /// where that is meaningful — this ring cannot know the order).
    /// Empty input yields `1 mod n`.
    ///
    /// Span: `ring.multi_pow_n_ns`.
    pub fn multi_pow_n(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let _span = ppms_obs::timed!("ring.multi_pow_n_ns");
        let max_bits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
        self.multi_pow_n_impl(pairs, pick_bucketed(pairs.len(), max_bits))
    }

    /// Straus evaluation regardless of `N` — exposed so the bench can
    /// measure the crossover against [`ModRing::multi_pow_n_pippenger`].
    pub fn multi_pow_n_straus(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        self.multi_pow_n_impl(pairs, false)
    }

    /// Pippenger evaluation regardless of `N` — exposed for crossover
    /// measurement.
    pub fn multi_pow_n_pippenger(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        self.multi_pow_n_impl(pairs, true)
    }

    fn multi_pow_n_impl(&self, pairs: &[(&BigUint, &BigUint)], bucketed: bool) -> BigUint {
        if pairs.is_empty() {
            return self.reduce(&BigUint::one());
        }
        with_fp!(&self.fixed, fp => fp.from_mont(&fp.multi_pow_n_mont(pairs, bucketed)))
    }

    /// Batch modular inversion by Montgomery's trick: one real
    /// inversion plus `3(N−1)` multiplications for `N` inputs.
    ///
    /// Per-slot results are exactly what per-element
    /// `x.modinv(modulus)` returns: if any input is not invertible the
    /// aggregate inversion fails and the routine falls back to
    /// element-wise inversion, so non-invertible slots come back
    /// `None` and the rest are still correct.
    ///
    /// Span: `ring.batch_inv_ns`.
    pub fn batch_inv(&self, xs: &[BigUint]) -> Vec<Option<BigUint>> {
        let _span = ppms_obs::timed!("ring.batch_inv_ns");
        if xs.is_empty() {
            return Vec::new();
        }
        let reduced: Vec<BigUint> = xs.iter().map(|x| self.reduce(x)).collect();
        // prefix[i] = r₀·…·rᵢ mod n
        let mut prefix = Vec::with_capacity(reduced.len());
        prefix.push(reduced[0].clone());
        for r in &reduced[1..] {
            let next = self.mul(prefix.last().unwrap(), r);
            prefix.push(next);
        }
        let Some(total_inv) = prefix.last().unwrap().modinv(&self.modulus) else {
            // Some element shares a factor with n (or is zero): the
            // aggregate is non-invertible. Element-wise fallback keeps
            // every slot bit-identical to the sequential path.
            return reduced.iter().map(|r| r.modinv(&self.modulus)).collect();
        };
        // Walk back: running holds (r₀·…·rᵢ)⁻¹; multiplying by
        // prefix[i−1] isolates rᵢ⁻¹, multiplying by rᵢ steps down.
        let mut out = vec![None; reduced.len()];
        let mut running = total_inv;
        for i in (0..reduced.len()).rev() {
            out[i] = Some(if i == 0 {
                running.clone()
            } else {
                self.mul(&running, &prefix[i - 1])
            });
            if i > 0 {
                running = self.mul(&running, &reduced[i]);
            }
        }
        out
    }

    /// Secret-exponent power through the CRT decomposition of an RSA
    /// modulus: `base^d mod pq` computed as two half-width
    /// exponentiations plus Garner recombination.
    ///
    /// Debug-asserts that `crt` matches this ring's modulus.
    pub fn pow_crt(&self, base: &BigUint, crt: &RsaCrt) -> BigUint {
        debug_assert_eq!(
            &(crt.p() * crt.q()),
            &self.modulus,
            "RsaCrt does not factor this ring's modulus"
        );
        crt.pow_secret(base)
    }
}

/// Chooses between Straus and Pippenger for [`ModRing::multi_pow_n`]
/// by predicted multiplication count. Straus pays a 14-mul odd-digit
/// table per base plus one insertion per base per 4-bit window.
/// Pippenger pays per `w`-bit window one insertion per base — but an
/// insertion into an empty bucket is a copy, not a mul — plus the
/// suffix running-product walk, which only multiplies at occupied
/// buckets, so its per-window cost sits near *half* the `2^w − 1`
/// bucket count rather than the `2·2^w` the previous model charged.
/// Both share one squaring chain, so squarings cancel out.
///
/// Constants are tuned to the `fixed_crossover` table of the
/// `ablation_fixed` bench (1024-bit modulus on the fixed-width
/// kernels): full-width exponents cross near n≈96–128 (measured
/// 8.9ms/9.0ms at 96, 15.1ms/13.5ms at 192), while 64-bit
/// small-exponent batches — the batch-verification shape — flip to
/// Pippenger by n≈16 already (285µs vs 239µs; 2531µs vs 1239µs at
/// 256). The Vec-path model this replaces put the small-exponent
/// crossover near 150 and sent every batch-verify call down the slow
/// path.
fn pick_bucketed(n: usize, max_bits: usize) -> bool {
    if n == 0 || max_bits == 0 {
        return false;
    }
    let w = pippenger_window(n);
    // Straus: 14·n table muls + (15/16)·n insertions per 4-bit window.
    let straus = 14 * n + max_bits.div_ceil(WINDOW_BITS) * (n - n / 16);
    // Pippenger: per window, ~n insertion muls (first touches are
    // copies, folded into the halved walk term) + ~(2^w − 1)/2 + 2
    // walk muls over the occupied buckets.
    let pippenger = max_bits.div_ceil(w) * (n + ((1 << w) - 1) / 2 + 2);
    pippenger < straus
}

/// CRT decomposition of an RSA secret key: `p`, `q`, `d_p = d mod
/// (p−1)`, `d_q = d mod (q−1)`, `q_inv = q^{-1} mod p`, plus cached
/// half-width rings for the two prime moduli.
///
/// Equality ignores the cached rings (they are derived state).
#[derive(Clone, Debug)]
pub struct RsaCrt {
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
    ring_p: ModRing,
    ring_q: ModRing,
}

impl PartialEq for RsaCrt {
    fn eq(&self, other: &RsaCrt) -> bool {
        self.p == other.p && self.q == other.q && self.d_p == other.d_p && self.d_q == other.d_q
    }
}

impl Eq for RsaCrt {}

impl RsaCrt {
    /// Builds the CRT context from the prime factorization and the
    /// secret exponent. Panics if `q` is not invertible mod `p`
    /// (impossible for distinct primes).
    pub fn new(p: &BigUint, q: &BigUint, d: &BigUint) -> RsaCrt {
        let p1 = p - 1u64;
        let q1 = q - 1u64;
        let q_inv = q.modinv(p).expect("p, q must be distinct primes");
        RsaCrt {
            p: p.clone(),
            q: q.clone(),
            d_p: d % &p1,
            d_q: d % &q1,
            q_inv,
            ring_p: ModRing::new(p),
            ring_q: ModRing::new(q),
        }
    }

    pub fn p(&self) -> &BigUint {
        &self.p
    }

    pub fn q(&self) -> &BigUint {
        &self.q
    }

    /// `base^d mod pq` using the cached `d_p`/`d_q`.
    pub fn pow_secret(&self, base: &BigUint) -> BigUint {
        self.pow_split(base, &self.d_p, &self.d_q)
    }

    /// `base^e mod pq` for an arbitrary exponent `e` (reduced per
    /// prime first) — used by partially blind signatures where the
    /// secret exponent depends on the common info string.
    pub fn pow(&self, base: &BigUint, e: &BigUint) -> BigUint {
        let e_p = e % &(&self.p - 1u64);
        let e_q = e % &(&self.q - 1u64);
        self.pow_split(base, &e_p, &e_q)
    }

    /// Garner recombination: `m = m₂ + q · (q_inv · (m₁ − m₂) mod p)`.
    ///
    /// Span: `ring.pow_crt_ns` — the two half-width `ring.pow_ns`
    /// spans it drives nest inside it.
    fn pow_split(&self, base: &BigUint, e_p: &BigUint, e_q: &BigUint) -> BigUint {
        let _span = ppms_obs::timed!("ring.pow_crt_ns");
        let m1 = self.ring_p.pow(&self.ring_p.reduce(base), e_p);
        let m2 = self.ring_q.pow(&self.ring_q.reduce(base), e_q);
        let h = self.ring_p.mul(&self.q_inv, &m1.modsub(&m2, &self.p));
        &m2 + &(&self.q * &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modpow_plain;

    fn n_odd() -> BigUint {
        BigUint::parse_hex("f123456789abcdef0123456789abcdef0123456789abcdef").unwrap()
    }

    /// Odd moduli of 1, 2, 3 (padded to 4), 4 and 5 (padded to 8)
    /// limbs, each with a small top limb.
    fn odd_moduli() -> Vec<BigUint> {
        [1usize, 2, 3, 4, 5]
            .into_iter()
            .map(|limbs| {
                let mut v = vec![0x9E37_79B9_7F4A_7C15u64; limbs];
                v[0] |= 1;
                v[limbs - 1] = 0x2B;
                BigUint::from_limbs(v)
            })
            .collect()
    }

    #[test]
    fn pow_matches_plain_at_every_width() {
        let base = BigUint::parse_hex("deadbeefcafebabe1122334455667788").unwrap();
        let exp = BigUint::parse_hex("0102030405060708090a0b0c0d0e0f10").unwrap();
        for n in odd_moduli() {
            let ring = ModRing::new(&n);
            assert!(ring.width_limbs() >= n.limbs().len());
            assert_eq!(ring.pow(&base, &exp), modpow_plain(&base, &exp, &n));
        }
    }

    #[test]
    fn picks_smallest_width() {
        for (limbs, width) in [
            (1, 1),
            (2, 2),
            (3, 4),
            (4, 4),
            (5, 8),
            (9, 16),
            (17, 32),
            (32, 32),
        ] {
            let mut v = vec![1u64; limbs];
            v[limbs - 1] = 3;
            assert_eq!(ModRing::new(&BigUint::from_limbs(v)).width_limbs(), width);
        }
        assert_eq!(ModRing::new(&BigUint::from(3u64)).width_limbs(), 1);
    }

    #[test]
    fn supports_only_odd_moduli_up_to_2048_bits() {
        let max = &(BigUint::one() << 2048usize) - 1u64;
        assert!(ModRing::supports(&max));
        assert!(ModRing::supports(&BigUint::from(3u64)));
        for n in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(10u64),
            &max + 2u64, // 2049 bits
        ] {
            assert!(!ModRing::supports(&n), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn new_rejects_even_modulus() {
        ModRing::new(&(&n_odd() + 1u64));
    }

    #[test]
    #[should_panic(expected = "at most 2048 bits")]
    fn new_rejects_2049_bit_modulus() {
        ModRing::new(&(&(BigUint::one() << 2048usize) + 1u64));
    }

    #[test]
    fn pow_fixed_matches_pow() {
        let n = n_odd();
        let ring = ModRing::new(&n);
        let g = BigUint::from(7u64);
        // Unregistered: silent fallback.
        let e = BigUint::parse_hex("0123456789abcdef55aa55aa").unwrap();
        assert_eq!(ring.pow_fixed(&g, &e), ring.pow(&g, &e));
        // Registered: table path.
        ring.register_base(&g);
        assert!(ring.is_registered(&g));
        for exp in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(16u64),
            e.clone(),
            &n - 1u64,
        ] {
            assert_eq!(
                ring.pow_fixed(&g, &exp),
                ring.pow(&g, &exp),
                "exp = {}",
                exp.to_dec()
            );
        }
    }

    #[test]
    fn pow_fixed_oversized_exponent_falls_back() {
        let n = BigUint::from(1_000_003u64); // ~20-bit modulus
        let ring = ModRing::new(&n);
        let g = BigUint::from(5u64);
        ring.register_base(&g);
        let huge = BigUint::one() << 100; // wider than the table
        assert_eq!(ring.pow_fixed(&g, &huge), modpow_plain(&g, &huge, &n));
    }

    #[test]
    fn clones_share_tables() {
        let ring = ModRing::new(&n_odd());
        let clone = ring.clone();
        clone.register_base(&BigUint::from(11u64));
        assert!(ring.is_registered(&BigUint::from(11u64)));
    }

    #[test]
    fn multi_pow_matches_products() {
        let n = n_odd();
        let ring = ModRing::new(&n);
        let g = BigUint::from(2u64);
        let h = BigUint::from(65537u64);
        let k = BigUint::from(1234567u64);
        let a = BigUint::parse_hex("a5a5a5a5a5a5a5a5").unwrap();
        let b = BigUint::parse_hex("0f0f0f0f0f0f").unwrap();
        let c = BigUint::from(3u64);
        let expect = ring.mul(
            &ring.mul(&ring.pow(&g, &a), &ring.pow(&h, &b)),
            &ring.pow(&k, &c),
        );
        assert_eq!(ring.multi_pow(&[(&g, &a), (&h, &b), (&k, &c)]), expect);
        // Degenerate shapes.
        assert_eq!(ring.multi_pow(&[]), BigUint::one());
        assert_eq!(ring.multi_pow(&[(&g, &BigUint::zero())]), BigUint::one());
        assert_eq!(ring.multi_pow(&[(&g, &a)]), ring.pow(&g, &a));
    }

    #[test]
    fn crt_matches_plain_exponent() {
        // Small primes; d chosen coprime to nothing in particular —
        // CRT only needs p, q prime and distinct.
        let p = BigUint::from(1_000_003u64);
        let q = BigUint::from(999_983u64);
        let n = &p * &q;
        let d = BigUint::from(0x1234_5677u64);
        let crt = RsaCrt::new(&p, &q, &d);
        let ring = ModRing::new(&n);
        for base in [2u64, 17, 999_999_999, 123_456_789_012_345] {
            let base = BigUint::from(base);
            assert_eq!(ring.pow_crt(&base, &crt), ring.pow(&base, &d));
            assert_eq!(crt.pow(&base, &d), ring.pow(&base, &d));
        }
    }

    #[test]
    fn shared_ring_is_memoized() {
        let n = n_odd();
        let a = ModRing::shared(&n);
        let b = ModRing::shared(&n);
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Deterministic (base, exp) pairs for the multi-exp tests.
    fn pseudo_pairs(n: &BigUint, count: usize, exp_bits: usize) -> Vec<(BigUint, BigUint)> {
        let mut state = 0x1234_5678_9ABC_DEF0u64 ^ count as u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let base = &BigUint::from(next()) % n;
                let mut e = BigUint::from(next());
                while e.bits() < exp_bits {
                    e = (e << 64usize) + BigUint::from(next());
                }
                let shift = e.bits() - exp_bits;
                (base, e >> shift)
            })
            .collect()
    }

    fn product_of_pows(ring: &ModRing, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        pairs
            .iter()
            .fold(ring.reduce(&BigUint::one()), |acc, (b, e)| {
                ring.mul(&acc, &ring.pow(b, e))
            })
    }

    #[test]
    fn multi_pow_n_matches_products_at_every_width() {
        for n in odd_moduli() {
            let ring = ModRing::new(&n);
            for count in [1usize, 2, 7, 33, 70] {
                let owned = pseudo_pairs(&n, count, 64);
                let pairs: Vec<(&BigUint, &BigUint)> = owned.iter().map(|(b, e)| (b, e)).collect();
                let expect = product_of_pows(&ring, &pairs);
                assert_eq!(ring.multi_pow_n(&pairs), expect, "dispatch count {count}");
                assert_eq!(
                    ring.multi_pow_n_straus(&pairs),
                    expect,
                    "straus count {count}"
                );
                assert_eq!(
                    ring.multi_pow_n_pippenger(&pairs),
                    expect,
                    "pippenger count {count}"
                );
            }
        }
    }

    #[test]
    fn multi_pow_n_edge_shapes() {
        let n = n_odd();
        let ring = ModRing::new(&n);
        assert_eq!(ring.multi_pow_n(&[]), BigUint::one());
        let g = BigUint::from(7u64);
        let zero = BigUint::zero();
        assert_eq!(ring.multi_pow_n(&[(&g, &zero)]), BigUint::one());
        // Wide exponents (full modulus width) still match.
        let e = &n - 2u64;
        assert_eq!(ring.multi_pow_n(&[(&g, &e)]), ring.pow(&g, &e));
        assert_eq!(ring.multi_pow_n_pippenger(&[(&g, &e)]), ring.pow(&g, &e));
        // Repeated bases multiply through like separate terms.
        let a = BigUint::from(123_456_789u64);
        let b = BigUint::from(987_654_321u64);
        let expect = ring.mul(&ring.pow(&g, &a), &ring.pow(&g, &b));
        assert_eq!(ring.multi_pow_n(&[(&g, &a), (&g, &b)]), expect);
    }

    #[test]
    fn batch_inv_matches_modinv() {
        let n = n_odd();
        let ring = ModRing::new(&n);
        let owned = pseudo_pairs(&n, 9, 64);
        let xs: Vec<BigUint> = owned.into_iter().map(|(b, _)| b).collect();
        let got = ring.batch_inv(&xs);
        for (x, inv) in xs.iter().zip(&got) {
            assert_eq!(inv, &x.modinv(&n), "x = {}", x.to_dec());
            if let Some(inv) = inv {
                assert!(ring.mul(&ring.reduce(x), inv).is_one());
            }
        }
    }

    #[test]
    fn batch_inv_noninvertible_elements_fall_back() {
        // Odd composite n = 15·p: multiples of 3 or 5 (and zero) are
        // non-invertible, the rest must still come back inverted.
        let n = &n_odd() * 15u64;
        let ring = ModRing::new(&n);
        let xs = vec![
            BigUint::from(7u64),
            BigUint::zero(),
            BigUint::from(10u64),
            BigUint::from(12347u64),
        ];
        let got = ring.batch_inv(&xs);
        for (x, inv) in xs.iter().zip(&got) {
            assert_eq!(inv, &x.modinv(&n), "x = {}", x.to_dec());
        }
        assert!(got[1].is_none() && got[2].is_none());
        assert!(got[0].is_some() && got[3].is_some());
        assert!(ring.batch_inv(&[]).is_empty());
    }
}
