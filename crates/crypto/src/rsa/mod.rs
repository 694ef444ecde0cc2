//! RSA: key generation plus the four operations the PPMS protocols
//! need — hybrid OAEP-KEM [`encryption`](mod@encrypt), FDH [`signatures`](mod@sign),
//! Chaum [`blind signatures`](mod@blind) (DEC withdrawal), and
//! [`partially blind signatures`](mod@pbs) (the PPMSpbs digital coin).

pub mod blind;
pub mod encrypt;
pub mod pbs;
pub mod sign;

use ppms_bigint::{BigUint, ModRing, RsaCrt};
use ppms_primes::random_prime;
use rand::Rng;
use std::sync::Arc;

pub use blind::{blind, sign_blinded, unblind, BlindingFactor};
pub use encrypt::{decrypt, encrypt};
pub use pbs::{pbs_blind, pbs_sign, pbs_unblind, pbs_verify, PbsBlinding};
pub use sign::{batch_verify, sign, verify};

/// The standard public exponent.
pub const E: u64 = 65537;

/// The shortest modulus, in bytes, whose OAEP block (`2·HLEN + 2`
/// bytes of padding) holds the hybrid encryption's seed: 50 bytes,
/// 400 bits.
const MIN_MODULUS_BYTES: usize = 2 * encrypt::HLEN + 2 + encrypt::SEED_LEN;

/// An RSA public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

impl RsaPublicKey {
    /// Modulus length in bytes (the ciphertext/signature size).
    pub fn size_bytes(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// The process-wide cached [`ModRing`] for this modulus. Every
    /// public-key operation (verify, encrypt, blind) goes through this
    /// so the Montgomery constants for `n` are derived once per key,
    /// not once per call.
    pub fn ring(&self) -> Arc<ModRing> {
        ModRing::shared(&self.n)
    }

    /// Canonical encoding (length-prefixed `n`, then `e`), used for
    /// hashing identities and accounting message sizes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Decodes [`Self::to_bytes`]. Returns `None` on malformed input,
    /// and on a modulus the key operations cannot serve: even, wider
    /// than [`ModRing::MAX_BITS`], or too short for the OAEP block that
    /// carries an encryption's seed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (n, rest) = read_lv(bytes)?;
        let (e, rest) = read_lv(rest)?;
        if !rest.is_empty() {
            return None;
        }
        let n = BigUint::from_bytes_be(n);
        if !ModRing::supports(&n) || n.bits().div_ceil(8) < MIN_MODULUS_BYTES {
            return None;
        }
        Some(RsaPublicKey {
            n,
            e: BigUint::from_bytes_be(e),
        })
    }
}

fn read_lv(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    if bytes.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(bytes[..4].try_into().ok()?) as usize;
    if bytes.len() < 4 + len {
        return None;
    }
    Some((&bytes[4..4 + len], &bytes[4 + len..]))
}

/// An RSA private key. Retains `p`, `q` and `φ(n)` — the partially
/// blind scheme derives per-transaction private exponents from `φ(n)`.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    /// The matching public key.
    pub public: RsaPublicKey,
    /// Private exponent `d = e⁻¹ mod φ(n)`.
    pub d: BigUint,
    pub(crate) phi: BigUint,
    /// CRT decomposition built at keygen; all secret-key
    /// exponentiations go through it.
    crt: RsaCrt,
}

impl RsaPrivateKey {
    /// Euler's totient of the modulus (needed by [`pbs::pbs_sign`]).
    pub fn phi(&self) -> &BigUint {
        &self.phi
    }

    /// The CRT context for secret-key exponentiations.
    pub fn crt(&self) -> &RsaCrt {
        &self.crt
    }
}

/// Generates an RSA key pair with a modulus of (about) `bits` bits.
///
/// `400 < bits <= 2048`; tests in this workspace use 512, the report
/// harness 1024 — the paper's Java implementation also used short
/// moduli for its timing study.
pub fn keygen<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> RsaPrivateKey {
    keygen_with(rng, bits, random_prime)
}

/// [`keygen`] with the prime search supplied by the caller, so the
/// `ablation_bigint` bench can time another walk through the same key
/// assembly.
#[doc(hidden)]
pub fn keygen_with<R: Rng + ?Sized>(
    rng: &mut R,
    bits: usize,
    mut prime: impl FnMut(&mut R, usize) -> BigUint,
) -> RsaPrivateKey {
    assert!(
        bits > 8 * MIN_MODULUS_BYTES,
        "modulus too small to hold OAEP padding"
    );
    assert!(
        bits <= ModRing::MAX_BITS,
        "modulus wider than {} bits",
        ModRing::MAX_BITS
    );
    let e = BigUint::from(E);
    loop {
        let p = prime(rng, bits / 2);
        let q = prime(rng, bits.div_ceil(2));
        if p == q {
            continue;
        }
        let n = &p * &q;
        let phi = &(&p - 1u64) * &(&q - 1u64);
        let Some(d) = e.modinv(&phi) else { continue };
        let crt = RsaCrt::new(&p, &q, &d);
        return RsaPrivateKey {
            public: RsaPublicKey { n, e },
            d,
            phi,
            crt,
        };
    }
}

#[cfg(test)]
pub(crate) fn test_key(seed: u64) -> RsaPrivateKey {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    keygen(&mut rng, 512)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keygen_consistency() {
        let key = test_key(1);
        // e*d = 1 mod phi
        assert_eq!(key.public.e.modmul(&key.d, &key.phi), BigUint::one());
        // raw RSA roundtrip: (m^e)^d = m
        let m = BigUint::from(0xDEADBEEFu64);
        let c = m.modpow(&key.public.e, &key.public.n);
        assert_eq!(c.modpow(&key.d, &key.public.n), m);
    }

    #[test]
    fn keygen_is_pinned_for_a_seed() {
        // Seeded keys (the MA's bank key, fixtures, wire and ledger
        // counts) rely on prime generation returning the same primes
        // for a seed; this modulus was computed before the residue
        // sieve replaced per-candidate trial division.
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            keygen(&mut rng, 512).public.n.to_hex(),
            "82b987f87f60a9c1924137c2aa18eb602cbc3d7a922404d648e8b82cb6b5ac9e\
             35a9b7c7c3ef8ca9b4c3bab61177ea7818ad472ed0e21a121e31b518a9b83e49"
        );
    }

    #[test]
    fn keygen_is_pinned_for_seed_2() {
        // Computed before the four-prime grouping of the residue sieve
        // and the switch of squaring to the Montgomery product.
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            keygen(&mut rng, 512).public.n.to_hex(),
            "b0425eb2a02cacbc3e2a44f3bb7fa83060fd58e9f89fb6d5e9dbbaae952e226a\
             76a5ef2ab4b294b30e3263e6be8ee1829c597b718a3a47b9f7d38b937478bfe3"
        );
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        assert_ne!(test_key(1).public.n, test_key(2).public.n);
    }

    #[test]
    fn modulus_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = keygen(&mut rng, 512);
        let bits = key.public.n.bits();
        assert!((511..=512).contains(&bits), "got {bits} bits");
        assert_eq!(key.public.size_bytes(), 64);
    }

    #[test]
    fn pubkey_bytes_roundtrip() {
        let key = test_key(4);
        let enc = key.public.to_bytes();
        assert_eq!(RsaPublicKey::from_bytes(&enc), Some(key.public));
        assert_eq!(RsaPublicKey::from_bytes(&enc[..enc.len() - 1]), None);
        assert_eq!(RsaPublicKey::from_bytes(&[]), None);
    }

    #[test]
    fn from_bytes_rejects_unservable_moduli() {
        let odd_bits = |bits: usize| &(BigUint::one() << (bits - 1)) + 1u64;
        for n in [
            BigUint::zero(),
            BigUint::one(),
            &test_key(5).public.n + 1u64, // even
            odd_bits(128),
            odd_bits(4096),
        ] {
            let pk = RsaPublicKey {
                n,
                e: BigUint::from(E),
            };
            assert_eq!(
                RsaPublicKey::from_bytes(&pk.to_bytes()),
                None,
                "n = {}",
                pk.n
            );
        }
        // The narrowest and widest servable moduli still decode.
        for bits in [8 * MIN_MODULUS_BYTES, ModRing::MAX_BITS] {
            let pk = RsaPublicKey {
                n: odd_bits(bits),
                e: BigUint::from(E),
            };
            assert_eq!(RsaPublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        }
    }
}
