//! Differential and boundary suite for the compute kernels.
//!
//! The kernels are written for speed (table-driven AES, streaming CMAC,
//! block-wise SHA-256 padding, a reusable keyed HMAC state), so each is
//! pinned here against a slower formulation of the same function that
//! shares no code path with it: the byte-wise block inverse, the MAC of
//! the concatenated message, a byte-at-a-time hash, the one-shot HMAC.
//! The published vectors (FIPS-197, RFC 4493, FIPS 180-4, RFC 4231,
//! TS 35.208) live with the modules; the table-driven encryptor is also
//! compared with the byte-wise FIPS-197 cipher it replaced in
//! `aes.rs`'s own tests, where that `#[cfg(test)]` reference is visible.

use proptest::prelude::*;
use scale_crypto::aes::Aes128;
use scale_crypto::cmac::{aes_cmac, eia2_mac, Cmac};
use scale_crypto::hmac::{hmac_sha256, HmacSha256};
use scale_crypto::kdf::{derive_alg_key, derive_kasme, derive_nas_keys, AlgKeyType, NasSecurityKeys, ALG_ID_AES};
use scale_crypto::sha256::Sha256;
use scale_crypto::{hex, unhex};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 17) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The byte-wise inverse cipher undoes the table-driven encryptor.
    #[test]
    fn bytewise_decrypt_inverts_table_driven_encrypt(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
        let aes = Aes128::new(&key);
        let mut block = aes.encrypt(&pt);
        aes.decrypt_block(&mut block);
        prop_assert_eq!(block, pt);
    }
}

proptest! {
    /// EIA2 is the CMAC of `COUNT || BEARER|DIR || 0^24 || msg`.
    #[test]
    fn eia2_is_cmac_of_the_prefixed_message(key in any::<[u8; 16]>(),
                                            count in any::<u32>(),
                                            bearer in 0u8..32,
                                            downlink in any::<bool>(),
                                            msg in proptest::collection::vec(any::<u8>(), 0..120)) {
        let mut whole = count.to_be_bytes().to_vec();
        whole.extend_from_slice(&[(bearer << 3) | (u8::from(downlink) << 2), 0, 0, 0]);
        whole.extend_from_slice(&msg);
        prop_assert_eq!(eia2_mac(&key, count, bearer, downlink, &msg)[..], aes_cmac(&key, &whole)[..4]);
    }

    /// Both NAS keys from one absorption of K_ASME equal the two
    /// independent derivations.
    #[test]
    fn shared_state_nas_keys_match_two_derivations(kasme in any::<[u8; 32]>()) {
        let keys = NasSecurityKeys::from_kasme(kasme);
        prop_assert_eq!(keys.kasme, kasme);
        prop_assert_eq!(keys.k_nas_enc, derive_alg_key(&kasme, AlgKeyType::NasEnc, ALG_ID_AES));
        prop_assert_eq!(keys.k_nas_int, derive_alg_key(&kasme, AlgKeyType::NasInt, ALG_ID_AES));
    }

    /// A keyed state reused for two messages gives the two one-shot tags.
    #[test]
    fn keyed_hmac_state_is_reusable(key in proptest::collection::vec(any::<u8>(), 0..150),
                                    m1 in proptest::collection::vec(any::<u8>(), 0..150),
                                    m2 in proptest::collection::vec(any::<u8>(), 0..150)) {
        let keyed = HmacSha256::new(&key);
        prop_assert_eq!(keyed.mac(&m1), hmac_sha256(&key, &m1));
        prop_assert_eq!(keyed.mac(&m2), hmac_sha256(&key, &m2));
        prop_assert_eq!(keyed.mac(&m1), hmac_sha256(&key, &m1));
    }
}

/// Streaming CMAC over every two-way split of every message of 0..=80
/// bytes equals the MAC of the whole — every block-boundary position of
/// `head || msg`, including empty pieces and the complete-last-block
/// (K1) and padded (K2) endings.
#[test]
fn streaming_cmac_matches_concatenation_at_every_split() {
    let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
    for total in 0..=80usize {
        let whole = pattern(total);
        let want = aes_cmac(&key, &whole);
        for split in 0..=total {
            let mut mac = Cmac::new(&key);
            mac.update(&whole[..split]);
            mac.update(&whole[split..]);
            assert_eq!(mac.finalize(), want, "total {total} split {split}");
        }
        let mut bytewise = Cmac::new(&key);
        for b in &whole {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finalize(), want, "total {total} byte at a time");
    }
}

/// RFC 4493 §4 example 3 (40 bytes), streamed in uneven pieces.
#[test]
fn rfc4493_example_3_streamed() {
    let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c").unwrap().try_into().unwrap();
    let msg = unhex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411"
    ))
    .unwrap();
    let mut mac = Cmac::new(&key);
    for piece in [&msg[..8], &msg[8..8], &msg[8..33], &msg[33..]] {
        mac.update(piece);
    }
    assert_eq!(hex(&mac.finalize()), "dfa66747de9ae63030ca32611497c827");
}

/// One-shot SHA-256 at every length 0..=200 equals a byte-at-a-time
/// `update` of the same input: the lengths cross both padding shapes
/// (trailer fits / spills) at 55/56, 63/64, 119/120 and 127/128.
#[test]
fn sha256_every_length_matches_bytewise_update() {
    let data = pattern(200);
    for len in 0..=200usize {
        let mut ctx = Sha256::new();
        for b in &data[..len] {
            ctx.update(std::slice::from_ref(b));
        }
        assert_eq!(ctx.finalize(), Sha256::digest(&data[..len]), "len {len}");
    }
}

/// RFC 4231 case 6 (131-byte key, hashed first) and case 2 off one
/// another's heels: a keyed state per key, each used twice.
#[test]
fn rfc4231_vectors_from_reused_keyed_states() {
    let long_key = HmacSha256::new(&[0xaa; 131]);
    let jefe = HmacSha256::new(b"Jefe");
    for _ in 0..2 {
        assert_eq!(
            hex(&long_key.mac(b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        assert_eq!(
            hex(&jefe.mac(b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }
}

/// The streamed KDF parameter string is the TS 33.220 one: K_ASME is
/// HMAC-SHA-256(CK || IK, FC || PLMN || 0x0003 || SQN⊕AK || 0x0006).
#[test]
fn kasme_is_hmac_over_the_ts33220_string() {
    let (ck, ik) = ([0x11u8; 16], [0x22u8; 16]);
    let (plmn, sqn_xor_ak) = ([0x00, 0xf1, 0x10], [1, 2, 3, 4, 5, 6]);
    let mut key = ck.to_vec();
    key.extend_from_slice(&ik);
    let mut s = vec![0x10];
    s.extend_from_slice(&plmn);
    s.extend_from_slice(&[0, 3]);
    s.extend_from_slice(&sqn_xor_ak);
    s.extend_from_slice(&[0, 6]);
    assert_eq!(derive_kasme(&ck, &ik, &plmn, &sqn_xor_ak), hmac_sha256(&key, &s));
    let keys = derive_nas_keys(&ck, &ik, &plmn, &sqn_xor_ak);
    assert_eq!(keys, NasSecurityKeys::from_kasme(hmac_sha256(&key, &s)));
}
