//! RSA-OAEP encryption (PKCS#1 v2.2 style, SHA-256 + MGF1).
//!
//! The PPMS protocols wrap payments and identity tokens in
//! `RSA_ENC_rpk(...)`; long payloads (a whole broken-up e-cash bundle)
//! are chunked across multiple OAEP blocks.

use super::{RsaPrivateKey, RsaPublicKey};
use crate::hash::mgf1;
use crate::sha256::Sha256;
use ppms_bigint::BigUint;
use rand::Rng;

/// OAEP hash/seed length. SHA-256 output truncated to 16 bytes so the
/// padding (`2·HLEN + 2` bytes) fits the 512-bit moduli the tests and
/// the paper-scale benchmarks use.
pub(crate) const HLEN: usize = 16;

/// The (truncated) label hash.
fn lhash() -> [u8; HLEN] {
    Sha256::digest(b"")[..HLEN].try_into().expect("HLEN <= 32")
}

/// Maximum plaintext bytes for a single OAEP block under `pk`.
pub fn max_block_len(pk: &RsaPublicKey) -> usize {
    pk.size_bytes() - 2 * HLEN - 2
}

/// Errors from decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecryptError {
    /// Ciphertext length is not a multiple of the modulus size.
    BadLength,
    /// OAEP padding check failed (tampered or wrong-key ciphertext).
    BadPadding,
}

impl std::fmt::Display for DecryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecryptError::BadLength => write!(f, "ciphertext length mismatch"),
            DecryptError::BadPadding => write!(f, "OAEP padding check failed"),
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

/// Encrypts an arbitrary-length message, chunking across OAEP blocks.
/// The output length is a multiple of the modulus size; an explicit
/// 8-byte length header keeps the chunking reversible.
pub fn encrypt<R: Rng + ?Sized>(rng: &mut R, pk: &RsaPublicKey, msg: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(8 + msg.len());
    framed.extend_from_slice(&(msg.len() as u64).to_be_bytes());
    framed.extend_from_slice(msg);
    let block_len = max_block_len(pk);
    let mut out = Vec::new();
    for chunk in framed.chunks(block_len) {
        out.extend_from_slice(&encrypt_block(rng, pk, chunk));
    }
    out
}

/// Decrypts a message produced by [`encrypt`].
pub fn decrypt(sk: &RsaPrivateKey, ct: &[u8]) -> Result<Vec<u8>, DecryptError> {
    let k = sk.public.size_bytes();
    if ct.is_empty() || !ct.len().is_multiple_of(k) {
        return Err(DecryptError::BadLength);
    }
    let mut framed = Vec::new();
    for block in ct.chunks(k) {
        framed.extend_from_slice(&decrypt_block(sk, block)?);
    }
    if framed.len() < 8 {
        return Err(DecryptError::BadPadding);
    }
    let len = u64::from_be_bytes(framed[..8].try_into().expect("8 bytes")) as usize;
    if framed.len() - 8 < len {
        return Err(DecryptError::BadPadding);
    }
    framed.truncate(8 + len);
    Ok(framed.split_off(8))
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
}
