//! # scale-crypto
//!
//! From-scratch cryptographic primitives for the SCALE LTE control-plane
//! reproduction. Everything the EPC substrate needs is implemented here,
//! with no external crypto dependencies:
//!
//! - [`md5`] — ring hashing for consistent-hash placement (as in the
//!   paper's MLB prototype, which used MD5 to hash GUTIs onto the ring);
//! - [`sha256`] + [`hmac`] — the PRF underneath the 3GPP KDF;
//! - [`aes`] — AES-128, core of Milenage and the EEA2/EIA2 algorithms;
//! - [`cmac`] — AES-CMAC and the EIA2 NAS integrity MAC;
//! - [`milenage`] — f1–f5* authentication functions run by the HSS/USIM;
//! - [`kdf`] — K_ASME and NAS key derivation (EPS key hierarchy).
//!
//! Each module is validated against its published test vectors
//! (RFC 1321, FIPS 180-4, RFC 4231, FIPS-197, RFC 4493, TS 35.208).
//!
//! ## Speed
//!
//! One attach runs six HMAC-SHA-256 derivations, ≈38 AES block
//! encryptions and ≈11 AES key expansions across HSS, MME and USIM (the
//! per-procedure counts are tabulated in DESIGN.md §2): crypto is the
//! largest single share of a procedure's service time, which is what an
//! MMP fleet is sized by. The modules on that path are written for speed
//! and marked `//! lint: hot-path` (no heap allocation):
//!
//! - AES encryption is table-driven: one 256 × `u32` table, derived at
//!   first use from the algebraically generated S-box, folds SubBytes
//!   and MixColumns into a lookup per state byte; the schedule is 44
//!   words. It is the only encryptor outside `#[cfg(test)]`, where a
//!   byte-wise FIPS-197 cipher serves as the differential test's oracle.
//!   Decryption, which no runtime path uses, is byte-wise.
//! - CMAC streams `head || msg` into the chaining block, SHA-256 pads
//!   in one or two block writes over a 16-word rolling schedule, and a
//!   `Copy` keyed HMAC state ([`hmac::HmacSha256`]) absorbs a key once
//!   for any number of derivations ([`kdf::NasSecurityKeys::from_kasme`]).
//! - Keys are re-expanded per call on purpose. An expansion costs about
//!   one block, while a cached schedule, CMAC subkey or HMAC state would
//!   add 100–400 bytes to every replicated device context.
//!
//! There is no AES-NI/SHA-NI path: the intrinsics need `unsafe` (this
//! crate forbids it) or a `target-feature` build flag, and the repo
//! keeps neither a build knob nor a second code path to test. Nothing
//! here is constant-time: tables are indexed by secret-dependent bytes,
//! exactly as a byte-wise cipher indexes its S-box (and its GF(2^8)
//! multiply branches on data), so the timing side-channel class is the
//! one any table-based software AES has. This is a protocol substrate
//! for control-plane experiments, not a hardened library.
//! `bench_summary` records the kernels' timings against the parent
//! commit's in `results/BENCH_crypto.json`.

#![forbid(unsafe_code)]

pub mod aes;
pub mod cmac;
pub mod hmac;
pub mod kdf;
pub mod md5;
pub mod milenage;
pub mod sha256;

/// Copy the first `N` bytes of `src` into an array. All callers pass
/// slices whose length is fixed by the algorithm (digest widths, block
/// sizes), so the length check in `copy_from_slice` is statically
/// satisfied — this replaces `try_into().unwrap()` noise at every
/// digest-slicing site.
pub fn take<const N: usize>(src: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&src[..N]);
    out
}

/// Render bytes as lowercase hex.
pub fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Parse lowercase/uppercase hex into bytes. Returns `None` on odd length
/// or non-hex characters.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn hex_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let s = hex(&bytes);
            prop_assert_eq!(unhex(&s).unwrap(), bytes);
        }

        #[test]
        fn md5_deterministic_and_sensitive(a in proptest::collection::vec(any::<u8>(), 0..128),
                                            b in proptest::collection::vec(any::<u8>(), 0..128)) {
            let da = md5::Md5::digest(&a);
            prop_assert_eq!(da, md5::Md5::digest(&a));
            if a != b {
                // Not a collision test — just that digests distinguish
                // typical distinct inputs.
                prop_assert_ne!(da, md5::Md5::digest(&b));
            }
        }

        #[test]
        fn aes_roundtrip(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
            let aes = aes::Aes128::new(&key);
            let mut block = pt;
            aes.encrypt_block(&mut block);
            aes.decrypt_block(&mut block);
            prop_assert_eq!(block, pt);
        }

        #[test]
        fn ctr_involution(key in any::<[u8; 16]>(),
                          ctr in any::<[u8; 16]>(),
                          mut data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let aes = aes::Aes128::new(&key);
            let orig = data.clone();
            aes.ctr_xor(&ctr, &mut data);
            aes.ctr_xor(&ctr, &mut data);
            prop_assert_eq!(data, orig);
        }

        #[test]
        fn cmac_is_prefix_sensitive(key in any::<[u8; 16]>(),
                                    msg in proptest::collection::vec(any::<u8>(), 1..100)) {
            let full = cmac::aes_cmac(&key, &msg);
            let truncated = cmac::aes_cmac(&key, &msg[..msg.len() - 1]);
            prop_assert_ne!(full, truncated);
        }

        #[test]
        fn hmac_key_sensitivity(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(),
                                msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            if k1 != k2 {
                prop_assert_ne!(hmac::hmac_sha256(&k1, &msg), hmac::hmac_sha256(&k2, &msg));
            }
        }
    }
}
