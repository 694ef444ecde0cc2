//! Hashing utilities over SHA-256: domain separation, hash-to-integer,
//! MGF1 (the mask generation function used by OAEP and FDH), and
//! HMAC-SHA256 (the MAC of the hybrid [`rsa::encrypt`](fn@crate::rsa::encrypt)).

use crate::sha256::Sha256;
use ppms_bigint::BigUint;

/// Hashes `data` under a domain-separation `tag` to 32 bytes.
pub fn hash_tagged(tag: &str, data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(tag.len() as u64).to_be_bytes());
    h.update(tag.as_bytes());
    h.update(data);
    h.finalize()
}

/// Hashes a sequence of length-prefixed byte strings under a tag.
/// The length prefixes make the encoding injective.
pub fn hash_parts(tag: &str, parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(tag.len() as u64).to_be_bytes());
    h.update(tag.as_bytes());
    for p in parts {
        h.update(&(p.len() as u64).to_be_bytes());
        h.update(p);
    }
    h.finalize()
}

/// MGF1 with SHA-256: expands `seed` to `len` bytes.
pub fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u32;
    while out.len() < len {
        let mut h = Sha256::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

/// HMAC-SHA256 (RFC 2104): `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ data))`,
/// with a key longer than the 64-byte block hashed first.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    const BLOCK: usize = 64;
    let mut block = [0u8; BLOCK];
    if key.len() > BLOCK {
        block[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let pad = |byte: u8| block.map(|b| b ^ byte);
    let mut inner = Sha256::new();
    inner.update(&pad(0x36));
    inner.update(data);
    let mut outer = Sha256::new();
    outer.update(&pad(0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// Hashes parts to a uniformly-distributed integer in `[0, bound)` by
/// expanding with MGF1 to `bound.bits() + 64` bits and reducing — the
/// 64 extra bits make the modular bias negligible.
pub fn hash_to_int(tag: &str, parts: &[&[u8]], bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero());
    let seed = hash_parts(tag, parts);
    let nbytes = (bound.bits() + 64).div_ceil(8);
    let wide = BigUint::from_bytes_be(&mgf1(&seed, nbytes));
    &wide % bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_separate_domains() {
        assert_ne!(hash_tagged("a", b"msg"), hash_tagged("b", b"msg"));
        assert_ne!(hash_tagged("a", b"msg1"), hash_tagged("a", b"msg2"));
    }

    #[test]
    fn parts_encoding_injective() {
        // ["ab", "c"] must differ from ["a", "bc"] — length prefixes.
        assert_ne!(
            hash_parts("t", &[b"ab", b"c"]),
            hash_parts("t", &[b"a", b"bc"])
        );
        assert_ne!(hash_parts("t", &[b"ab"]), hash_parts("t", &[b"ab", b""]));
    }

    #[test]
    fn mgf1_deterministic_prefix_free() {
        let a = mgf1(b"seed", 100);
        let b = mgf1(b"seed", 40);
        assert_eq!(&a[..40], &b[..]);
        assert_eq!(a.len(), 100);
        assert_ne!(mgf1(b"seed1", 32), mgf1(b"seed2", 32));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn hmac_sha256_rfc4231_case_1() {
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_sha256_rfc4231_case_2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_sha256_rfc4231_case_6_hashes_a_long_key() {
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hash_to_int_in_range() {
        let bound = BigUint::from(1_000_003u64);
        for i in 0..50u32 {
            let v = hash_to_int("test", &[&i.to_be_bytes()], &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn hash_to_int_spreads() {
        // Over a tiny bound, all residues should be hit quickly.
        let bound = BigUint::from(7u64);
        let mut seen = [false; 7];
        for i in 0..100u32 {
            let v = hash_to_int("spread", &[&i.to_be_bytes()], &bound);
            seen[v.to_u64().unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
