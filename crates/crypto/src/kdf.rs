//! 3GPP key-derivation function and the EPS key hierarchy (TS 33.401 annex A).
//!
//! Shape of the hierarchy reproduced here:
//!
//! ```text
//!  K (USIM/HSS) --Milenage--> CK, IK --A.2--> K_ASME --A.7--> K_NASenc, K_NASint
//! ```
//!
//! The generic KDF (TS 33.220 annex B) is `HMAC-SHA-256(key, FC || P0 ||
//! L0 || P1 || L1 ...)`; each derivation is tagged by its FC byte. The
//! parameter string is streamed into the keyed HMAC state, never built.
//!
//! lint: hot-path

use crate::hmac::HmacSha256;

/// FC tag for K_ASME derivation (TS 33.401 A.2).
pub const FC_KASME: u8 = 0x10;
/// FC tag for NAS/RRC/UP algorithm key derivation (TS 33.401 A.7).
pub const FC_ALG_KEY: u8 = 0x15;

/// Algorithm type distinguishers for [`derive_alg_key`] (TS 33.401 A.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgKeyType {
    /// NAS encryption key.
    NasEnc,
    /// NAS integrity key.
    NasInt,
    /// RRC encryption key (unused by the MME but kept for completeness).
    RrcEnc,
    /// RRC integrity key.
    RrcInt,
}

impl AlgKeyType {
    fn distinguisher(self) -> u8 {
        match self {
            AlgKeyType::NasEnc => 0x01,
            AlgKeyType::NasInt => 0x02,
            AlgKeyType::RrcEnc => 0x03,
            AlgKeyType::RrcInt => 0x04,
        }
    }
}

/// The generic 3GPP KDF: HMAC-SHA-256 over an FC-tagged parameter string.
/// Each `(param, len)` pair is appended as `P_i || L_i` with `L_i` a
/// 2-byte big-endian length.
pub fn kdf(key: &[u8], fc: u8, params: &[&[u8]]) -> [u8; 32] {
    kdf_keyed(&HmacSha256::new(key), fc, params)
}

/// [`kdf`] on an already-keyed PRF, for several derivations from one key.
fn kdf_keyed(prf: &HmacSha256, fc: u8, params: &[&[u8]]) -> [u8; 32] {
    let mut h = *prf;
    h.update(&[fc]);
    for p in params {
        h.update(p);
        h.update(&(p.len() as u16).to_be_bytes());
    }
    h.finalize()
}

/// Derive K_ASME from CK/IK, the serving-network id (PLMN, 3 bytes) and
/// SQN ⊕ AK (6 bytes), per TS 33.401 A.2.
pub fn derive_kasme(ck: &[u8; 16], ik: &[u8; 16], plmn: &[u8; 3], sqn_xor_ak: &[u8; 6]) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(ck);
    key[16..].copy_from_slice(ik);
    kdf(&key, FC_KASME, &[plmn, sqn_xor_ak])
}

/// Derive a 128-bit algorithm key (e.g. K_NASint for EIA2) from K_ASME,
/// per TS 33.401 A.7: the low-order 128 bits of the 256-bit KDF output.
pub fn derive_alg_key(kasme: &[u8; 32], ty: AlgKeyType, alg_id: u8) -> [u8; 16] {
    alg_key(&HmacSha256::new(kasme), ty, alg_id)
}

fn alg_key(keyed_kasme: &HmacSha256, ty: AlgKeyType, alg_id: u8) -> [u8; 16] {
    let out = kdf_keyed(keyed_kasme, FC_ALG_KEY, &[&[ty.distinguisher()], &[alg_id]]);
    crate::take(&out[16..])
}

/// Everything the MME stores for one NAS security context, derived in one
/// shot after a successful AKA run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NasSecurityKeys {
    /// K_ASME, the anchor key.
    pub kasme: [u8; 32],
    /// NAS encryption key (EEA2 id 2).
    pub k_nas_enc: [u8; 16],
    /// NAS integrity key (EIA2 id 2).
    pub k_nas_int: [u8; 16],
}

/// EIA2/EEA2 algorithm identity used in the derivations.
pub const ALG_ID_AES: u8 = 0x02;

impl NasSecurityKeys {
    /// Derive both AES NAS algorithm keys from `kasme` — what the MME
    /// and the USIM each do once per AKA run. K_ASME is absorbed into
    /// the PRF once and the keyed state serves both derivations.
    pub fn from_kasme(kasme: [u8; 32]) -> Self {
        let prf = HmacSha256::new(&kasme);
        NasSecurityKeys {
            kasme,
            k_nas_enc: alg_key(&prf, AlgKeyType::NasEnc, ALG_ID_AES),
            k_nas_int: alg_key(&prf, AlgKeyType::NasInt, ALG_ID_AES),
        }
    }
}

/// Derive the full NAS security context from one AKA output.
pub fn derive_nas_keys(
    ck: &[u8; 16],
    ik: &[u8; 16],
    plmn: &[u8; 3],
    sqn_xor_ak: &[u8; 6],
) -> NasSecurityKeys {
    NasSecurityKeys::from_kasme(derive_kasme(ck, ik, plmn, sqn_xor_ak))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kasme_depends_on_every_input() {
        let ck = [1u8; 16];
        let ik = [2u8; 16];
        let plmn = [0x02, 0xf8, 0x10];
        let sqn_ak = [9u8; 6];
        let base = derive_kasme(&ck, &ik, &plmn, &sqn_ak);
        assert_ne!(base, derive_kasme(&[3u8; 16], &ik, &plmn, &sqn_ak));
        assert_ne!(base, derive_kasme(&ck, &[3u8; 16], &plmn, &sqn_ak));
        assert_ne!(base, derive_kasme(&ck, &ik, &[1, 2, 3], &sqn_ak));
        assert_ne!(base, derive_kasme(&ck, &ik, &plmn, &[0u8; 6]));
        // Deterministic.
        assert_eq!(base, derive_kasme(&ck, &ik, &plmn, &sqn_ak));
    }

    #[test]
    fn alg_keys_are_distinct_per_type_and_alg() {
        let kasme = [7u8; 32];
        let enc = derive_alg_key(&kasme, AlgKeyType::NasEnc, ALG_ID_AES);
        let int = derive_alg_key(&kasme, AlgKeyType::NasInt, ALG_ID_AES);
        let int_other_alg = derive_alg_key(&kasme, AlgKeyType::NasInt, 0x01);
        assert_ne!(enc, int);
        assert_ne!(int, int_other_alg);
    }

    #[test]
    fn full_hierarchy_is_stable() {
        let keys = derive_nas_keys(&[1; 16], &[2; 16], &[0x13, 0x00, 0x14], &[5; 6]);
        let again = derive_nas_keys(&[1; 16], &[2; 16], &[0x13, 0x00, 0x14], &[5; 6]);
        assert_eq!(keys, again);
        assert_ne!(keys.k_nas_enc, keys.k_nas_int);
    }

    #[test]
    fn kdf_length_framing_is_unambiguous() {
        // ("ab", "c") must differ from ("a", "bc") thanks to L_i framing.
        let k = [0u8; 16];
        assert_ne!(
            kdf(&k, 0x10, &[b"ab", b"c"]),
            kdf(&k, 0x10, &[b"a", b"bc"])
        );
    }
}
