//! Hybrid RSA encryption: an RSA-OAEP KEM (PKCS#1 v2.2 style,
//! SHA-256 + MGF1) wrapping one 16-byte seed, and an encrypt-then-MAC
//! DEM (MGF1 keystream + HMAC-SHA256) carrying the body.
//!
//! The PPMS protocols wrap payments and identity tokens in
//! `RSA_ENC_rpk(...)`. A ciphertext is `kem_block ‖ body ‖ tag`, of
//! length `k + |msg| + 32` for a `k`-byte modulus, so opening one costs
//! a single private-key exponentiation whatever the message length
//! (a whole broken-up e-cash bundle included).

use super::{RsaPrivateKey, RsaPublicKey};
use crate::hash::{hash_tagged, hmac_sha256, mgf1};
use crate::sha256::Sha256;
use ppms_bigint::BigUint;
use rand::Rng;

/// OAEP hash/seed length. SHA-256 output truncated to 16 bytes so the
/// padding (`2·HLEN + 2` bytes) fits the 512-bit moduli the tests and
/// the paper-scale benchmarks use.
pub(crate) const HLEN: usize = 16;

/// Length of the seed the KEM block carries; the DEM keys are derived
/// from it.
pub(crate) const SEED_LEN: usize = 16;

/// Length of the HMAC-SHA256 tag closing every ciphertext.
const TAG_LEN: usize = 32;

/// The (truncated) label hash.
fn lhash() -> [u8; HLEN] {
    Sha256::digest(b"")[..HLEN].try_into().expect("HLEN <= 32")
}

/// Maximum plaintext bytes for a single OAEP block under `pk`.
pub fn max_block_len(pk: &RsaPublicKey) -> usize {
    pk.size_bytes() - 2 * HLEN - 2
}

/// Errors from decryption.
///
/// Once the length is plausible, every failure — a KEM block out of
/// range, bad OAEP padding, a seed of the wrong length, a tag mismatch
/// — is the one [`DecryptError::BadPadding`], so a caller (or an
/// adversary watching it) learns only that the ciphertext was refused,
/// never which check refused it: decrypt is not a padding oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecryptError {
    /// Ciphertext is shorter than one KEM block plus a tag.
    BadLength,
    /// The ciphertext did not open (tampered, wrong key or malformed).
    BadPadding,
}

impl std::fmt::Display for DecryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecryptError::BadLength => write!(f, "ciphertext length mismatch"),
            DecryptError::BadPadding => write!(f, "ciphertext failed to open"),
        }
    }
}

impl std::error::Error for DecryptError {}

fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Encrypts one OAEP block (`msg.len() <= max_block_len`).
fn encrypt_block<R: Rng + ?Sized>(rng: &mut R, pk: &RsaPublicKey, msg: &[u8]) -> Vec<u8> {
    let k = pk.size_bytes();
    assert!(msg.len() <= k - 2 * HLEN - 2, "OAEP block too long");

    // DB = lHash || 0..0 || 0x01 || msg
    let mut db = Vec::with_capacity(k - HLEN - 1);
    db.extend_from_slice(&lhash()); // empty label
    db.resize(k - HLEN - 1 - msg.len() - 1, 0);
    db.push(0x01);
    db.extend_from_slice(msg);

    let mut seed = [0u8; HLEN];
    rng.fill_bytes(&mut seed);

    let db_mask = mgf1(&seed, db.len());
    xor_into(&mut db, &db_mask);
    let seed_mask = mgf1(&db, HLEN);
    let mut masked_seed = seed;
    xor_into(&mut masked_seed, &seed_mask);

    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.extend_from_slice(&masked_seed);
    em.extend_from_slice(&db);

    let m = BigUint::from_bytes_be(&em);
    debug_assert!(m < pk.n);
    pk.ring().pow(&m, &pk.e).to_bytes_be_padded(k)
}

/// Decrypts one OAEP block.
fn decrypt_block(sk: &RsaPrivateKey, block: &[u8]) -> Result<Vec<u8>, DecryptError> {
    let k = sk.public.size_bytes();
    if block.len() != k {
        return Err(DecryptError::BadLength);
    }
    let c = BigUint::from_bytes_be(block);
    // RFC 8017 §7.1.2: ciphertext representative out of range.
    if c >= sk.public.n {
        return Err(DecryptError::BadPadding);
    }
    let em = sk.crt().pow_secret(&c).to_bytes_be_padded(k);
    if em[0] != 0 {
        return Err(DecryptError::BadPadding);
    }
    let mut seed: [u8; HLEN] = em[1..1 + HLEN].try_into().expect("HLEN slice");
    let mut db = em[1 + HLEN..].to_vec();
    let seed_mask = mgf1(&db, HLEN);
    xor_into(&mut seed, &seed_mask);
    let db_mask = mgf1(&seed, db.len());
    xor_into(&mut db, &db_mask);

    if db[..HLEN] != lhash() {
        return Err(DecryptError::BadPadding);
    }
    // Skip the zero padding, expect the 0x01 separator.
    let rest = &db[HLEN..];
    let sep = rest
        .iter()
        .position(|&b| b != 0)
        .ok_or(DecryptError::BadPadding)?;
    if rest[sep] != 0x01 {
        return Err(DecryptError::BadPadding);
    }
    Ok(rest[sep + 1..].to_vec())
}

/// The DEM's keystream and MAC keys, derived from the KEM seed under
/// separate domain tags.
fn dem_keys(seed: &[u8]) -> ([u8; 32], [u8; 32]) {
    (
        hash_tagged("ppms.rsa.dem.enc", seed),
        hash_tagged("ppms.rsa.dem.mac", seed),
    )
}

/// Compares two byte strings in time independent of where they differ.
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Encrypts an arbitrary-length message: one OAEP block carries a fresh
/// seed, the body is XORed with an MGF1 keystream, and an HMAC over
/// `kem_block ‖ body` closes it. Output length is `k + |msg| + 32`.
pub fn encrypt<R: Rng + ?Sized>(rng: &mut R, pk: &RsaPublicKey, msg: &[u8]) -> Vec<u8> {
    let mut seed = [0u8; SEED_LEN];
    rng.fill_bytes(&mut seed);
    let (k_enc, k_mac) = dem_keys(&seed);
    let mut out = Vec::with_capacity(pk.size_bytes() + msg.len() + TAG_LEN);
    out.extend_from_slice(&encrypt_block(rng, pk, &seed));
    let body = out.len();
    out.extend_from_slice(msg);
    xor_into(&mut out[body..], &mgf1(&k_enc, msg.len()));
    let tag = hmac_sha256(&k_mac, &out);
    out.extend_from_slice(&tag);
    out
}

/// Decrypts a message produced by [`encrypt`]. The tag is checked
/// before the body is unmasked; see [`DecryptError`] for why every
/// refusal past the length check is the same error.
pub fn decrypt(sk: &RsaPrivateKey, ct: &[u8]) -> Result<Vec<u8>, DecryptError> {
    let k = sk.public.size_bytes();
    if ct.len() < k + TAG_LEN {
        return Err(DecryptError::BadLength);
    }
    let (sealed, tag) = ct.split_at(ct.len() - TAG_LEN);
    let (kem_block, body) = sealed.split_at(k);
    let seed = decrypt_block(sk, kem_block)?;
    if seed.len() != SEED_LEN {
        return Err(DecryptError::BadPadding);
    }
    let (k_enc, k_mac) = dem_keys(&seed);
    if !ct_eq(&hmac_sha256(&k_mac, sealed), tag) {
        return Err(DecryptError::BadPadding);
    }
    let mut msg = body.to_vec();
    xor_into(&mut msg, &mgf1(&k_enc, body.len()));
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::test_key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_various_lengths() {
        let key = test_key(10);
        let mut rng = StdRng::seed_from_u64(11);
        for len in [0usize, 1, 31, 32, 33, 100, 500, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = encrypt(&mut rng, &key.public, &msg);
            assert_eq!(decrypt(&key, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn ciphertext_randomized() {
        let key = test_key(12);
        let mut rng = StdRng::seed_from_u64(13);
        let c1 = encrypt(&mut rng, &key.public, b"same message");
        let c2 = encrypt(&mut rng, &key.public, b"same message");
        assert_ne!(c1, c2, "OAEP must be probabilistic");
    }

    #[test]
    fn tampering_detected() {
        let key = test_key(14);
        let mut rng = StdRng::seed_from_u64(15);
        let mut ct = encrypt(&mut rng, &key.public, b"sensitive payment");
        ct[5] ^= 0x40;
        assert!(decrypt(&key, &ct).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let k1 = test_key(16);
        let k2 = test_key(17);
        let mut rng = StdRng::seed_from_u64(18);
        let ct = encrypt(&mut rng, &k1.public, b"for key 1 only");
        assert!(decrypt(&k2, &ct).is_err());
    }

    #[test]
    fn bad_lengths_rejected() {
        let key = test_key(19);
        assert_eq!(decrypt(&key, &[]), Err(DecryptError::BadLength));
        assert_eq!(decrypt(&key, &[0u8; 65]), Err(DecryptError::BadLength));
    }

    #[test]
    fn multiblock_boundary() {
        let key = test_key(20);
        let mut rng = StdRng::seed_from_u64(21);
        let block = max_block_len(&key.public);
        // Exactly one block of framed payload, one byte less, one more.
        for len in [block - 8, block - 7, block, 2 * block] {
            let msg = vec![0x5Au8; len];
            let ct = encrypt(&mut rng, &key.public, &msg);
            assert_eq!(decrypt(&key, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn ciphertext_is_one_block_plus_body_plus_tag() {
        let key = test_key(22);
        let mut rng = StdRng::seed_from_u64(23);
        let k = key.public.size_bytes();
        for len in [0usize, 1, 1533, 4096] {
            let msg = vec![0xA5u8; len];
            let ct = encrypt(&mut rng, &key.public, &msg);
            assert_eq!(ct.len(), k + len + TAG_LEN, "len {len}");
            assert_eq!(decrypt(&key, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn flipped_bit_in_each_part_rejected() {
        let key = test_key(24);
        let mut rng = StdRng::seed_from_u64(25);
        let k = key.public.size_bytes();
        let ct = encrypt(&mut rng, &key.public, b"a broken-up e-cash bundle");
        let (kem, body, tag) = (k / 2, k + 3, ct.len() - 1);
        for pos in [kem, body, tag] {
            let mut bad = ct.clone();
            bad[pos] ^= 0x01;
            assert_eq!(
                decrypt(&key, &bad),
                Err(DecryptError::BadPadding),
                "pos {pos}"
            );
        }
    }

    #[test]
    fn swapped_kem_blocks_rejected() {
        let key = test_key(26);
        let mut rng = StdRng::seed_from_u64(27);
        let k = key.public.size_bytes();
        let a = encrypt(&mut rng, &key.public, b"payment for task A");
        let b = encrypt(&mut rng, &key.public, b"payment for task B");
        let mut a_with_b = b[..k].to_vec();
        a_with_b.extend_from_slice(&a[k..]);
        let mut b_with_a = a[..k].to_vec();
        b_with_a.extend_from_slice(&b[k..]);
        assert_eq!(decrypt(&key, &a_with_b), Err(DecryptError::BadPadding));
        assert_eq!(decrypt(&key, &b_with_a), Err(DecryptError::BadPadding));
    }

    #[test]
    fn truncated_tag_rejected() {
        let key = test_key(28);
        let mut rng = StdRng::seed_from_u64(29);
        let mut ct = encrypt(&mut rng, &key.public, b"sensitive payment");
        ct.pop();
        assert!(decrypt(&key, &ct).is_err());
    }

    #[test]
    fn out_of_range_kem_block_rejected() {
        // `c + n` is congruent to a valid block `c`, so only the range
        // check tells them apart.
        let key = test_key(30);
        let mut rng = StdRng::seed_from_u64(31);
        let k = key.public.size_bytes();
        let (block, shifted) = loop {
            let block = encrypt_block(&mut rng, &key.public, b"seed");
            let shifted = &BigUint::from_bytes_be(&block) + &key.public.n;
            if shifted.bits() <= 8 * k {
                break (block, shifted.to_bytes_be_padded(k));
            }
        };
        assert_eq!(decrypt_block(&key, &block).unwrap(), b"seed");
        assert_eq!(decrypt_block(&key, &shifted), Err(DecryptError::BadPadding));
    }
}
