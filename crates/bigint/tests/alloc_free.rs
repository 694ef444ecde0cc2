//! Mechanical proof of the fixed-width core's allocation discipline:
//! a counting global allocator wraps [`std::alloc::System`] and the
//! tests assert a **zero** heap-allocation count inside the hot
//! kernels — `mont_mul` / `mont_sqr` / `pow_mont` always, and the
//! Straus/Pippenger `multi_pow_n_mont` and Shamir `shamir_mont`
//! evaluators once the thread-local scratch arena is warmed — at the
//! protocol widths, at one limb, and at a padded width (a 3-limb
//! modulus on the 4-limb kernels). At the `ModRing` boundary a warmed
//! `pow` is pinned to exactly one allocation: the result `BigUint`
//! itself, and a warmed `modinv` to its one working buffer. The
//! trial-division remainder `&n % p` allocates nothing.
//!
//! The counter is a `const`-initialized `thread_local!` `Cell` — no
//! lazy initialization and no drop registration, so bumping it from
//! inside `GlobalAlloc` cannot recurse. Counting is gated per thread
//! so the allocator stays honest under parallel test threads.

use ppms_bigint::{BigUint, FpMont, ModRing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed by `f` on this thread (growth only:
/// `alloc` + `realloc`; frees are not counted).
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// Deterministic odd modulus of exactly `limbs` limbs (top bit set),
/// plus a base and an exponent of the same width.
fn fixture(limbs: usize) -> (BigUint, BigUint, BigUint) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut n: Vec<u64> = (0..limbs).map(|_| next()).collect();
    n[0] |= 1;
    n[limbs - 1] |= 1 << 63;
    let base: Vec<u64> = (0..limbs).map(|_| next()).collect();
    let exp: Vec<u64> = (0..limbs).map(|_| next()).collect();
    (
        BigUint::from_limbs(n),
        BigUint::from_limbs(base),
        BigUint::from_limbs(exp),
    )
}

/// Checks the kernels of `FpMont<LIMBS>` over a `mod_limbs`-limb
/// modulus (`mod_limbs < LIMBS` runs them zero-padded).
fn assert_kernels_allocation_free<const LIMBS: usize>(mod_limbs: usize) {
    let (n, base, exp) = fixture(mod_limbs);
    let fp = FpMont::<LIMBS>::new(&n).expect("odd modulus within the width");
    let base = &base % &n;
    let am = fp.to_mont(&base);

    assert_eq!(
        allocs_in(|| {
            black_box(fp.mont_mul(black_box(&am), black_box(&am)));
        }),
        0,
        "mont_mul allocated"
    );
    assert_eq!(
        allocs_in(|| {
            black_box(fp.mont_sqr(black_box(&am)));
        }),
        0,
        "mont_sqr allocated"
    );
    // to_mont of a reduced operand stays on the stack.
    assert_eq!(
        allocs_in(|| {
            black_box(fp.to_mont(black_box(&base)));
        }),
        0,
        "to_mont of reduced operand allocated"
    );
    // The full-width pow ladder: window table and accumulator are all
    // stack arrays — zero allocations, no warmup needed.
    assert_eq!(
        allocs_in(|| {
            black_box(fp.pow_mont(black_box(&am), black_box(&exp)));
        }),
        0,
        "pow_mont allocated"
    );
}

#[test]
fn kernels_allocation_free_1024() {
    assert_kernels_allocation_free::<16>(16);
}

#[test]
fn kernels_allocation_free_2048() {
    assert_kernels_allocation_free::<32>(32);
}

#[test]
fn kernels_allocation_free_one_limb() {
    assert_kernels_allocation_free::<1>(1);
}

#[test]
fn kernels_allocation_free_padded() {
    assert_kernels_allocation_free::<4>(3);
}

fn assert_multi_pow_warmed_allocation_free<const LIMBS: usize>(mod_limbs: usize, npairs: usize) {
    let (n, _, _) = fixture(mod_limbs);
    let fp = FpMont::<LIMBS>::new(&n).expect("odd modulus within the width");
    let mut state = 0xdead_beef_cafe_f00du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let bases: Vec<BigUint> = (0..npairs)
        .map(|_| &BigUint::from_limbs((0..LIMBS).map(|_| next()).collect()) % &n)
        .collect();
    let exps: Vec<BigUint> = (0..npairs)
        .map(|_| BigUint::from_limbs((0..LIMBS).map(|_| next()).collect()))
        .collect();
    let pairs: Vec<(&BigUint, &BigUint)> = bases.iter().zip(exps.iter()).collect();

    // Warm the thread-local arena (first call may grow it).
    black_box(fp.straus_mont(&pairs));
    black_box(fp.pippenger_mont(&pairs));
    black_box(fp.shamir_mont(&pairs[..3]));

    assert_eq!(
        allocs_in(|| {
            black_box(fp.straus_mont(black_box(&pairs)));
        }),
        0,
        "warmed straus_mont allocated"
    );
    assert_eq!(
        allocs_in(|| {
            black_box(fp.pippenger_mont(black_box(&pairs)));
        }),
        0,
        "warmed pippenger_mont allocated"
    );
    assert_eq!(
        allocs_in(|| {
            black_box(fp.shamir_mont(black_box(&pairs[..3])));
        }),
        0,
        "warmed shamir_mont allocated"
    );
}

#[test]
fn multi_pow_n_warmed_allocation_free_1024() {
    assert_multi_pow_warmed_allocation_free::<16>(16, 8);
}

#[test]
fn multi_pow_n_warmed_allocation_free_2048() {
    assert_multi_pow_warmed_allocation_free::<32>(32, 4);
}

#[test]
fn multi_pow_n_warmed_allocation_free_one_limb() {
    assert_multi_pow_warmed_allocation_free::<1>(1, 8);
}

#[test]
fn multi_pow_n_warmed_allocation_free_padded() {
    assert_multi_pow_warmed_allocation_free::<4>(3, 8);
}

/// At the `ModRing` boundary the only unavoidable allocation is the
/// result `BigUint` handed back to the caller (`from_mont` collects
/// the limbs into a fresh `Vec`). A warmed 1024-bit `pow` is pinned to
/// exactly that one allocation — the ladder itself touches nothing.
#[test]
fn ring_pow_allocates_only_the_result() {
    let (n, base, exp) = fixture(16);
    let ring = ModRing::new(&n);
    assert_eq!(ring.width_limbs(), 16, "16-limb modulus must run unpadded");
    let base = ring.reduce(&base);
    // Warm the call site: resolves the obs histogram handle once.
    black_box(ring.pow(&base, &exp));
    assert_eq!(
        allocs_in(|| {
            black_box(ring.pow(black_box(&base), black_box(&exp)));
        }),
        1,
        "warmed ModRing::pow must allocate exactly the result BigUint"
    );
}

/// `&n % p` — the trial-division step — folds the remainder without
/// building a quotient, so it allocates nothing at any width.
#[test]
fn rem_u64_allocation_free() {
    for limbs in [1usize, 4, 16, 32] {
        let (n, _, _) = fixture(limbs);
        // Warm the call site, as for the kernels above.
        black_box(&n % 65521u64);
        assert_eq!(
            allocs_in(|| {
                for p in [3u64, 65521, u64::MAX] {
                    black_box(black_box(&n) % black_box(p));
                }
            }),
            0,
            "&BigUint % u64 must not allocate ({limbs} limbs)"
        );
    }
}

/// A warmed 512-bit `modinv` allocates once for every operand: the one
/// working buffer, which becomes the result. No step of the binary GCD
/// allocates, however many steps an operand takes.
#[test]
fn modinv_allocates_one_buffer_per_call() {
    let (m, _, _) = fixture(8);
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    black_box(BigUint::from(3u64).modinv(&m));
    for _ in 0..32 {
        let a = &BigUint::from_limbs((0..8).map(|_| next()).collect()) % &m;
        let mut inv = None;
        let allocs = allocs_in(|| inv = black_box(black_box(&a).modinv(black_box(&m))));
        assert_eq!(allocs, 1, "modinv of {a} allocated {allocs} times");
        if let Some(x) = inv {
            assert!(a.modmul(&x, &m).is_one());
        }
    }
}
