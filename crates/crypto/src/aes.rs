//! AES-128 block cipher (FIPS-197).
//!
//! AES-128 is the core primitive of EPS security: Milenage (authentication
//! vector generation at the HSS) is a mode of AES, and the EEA2/EIA2
//! NAS ciphering/integrity algorithms are AES-CTR and AES-CMAC.
//!
//! Encryption is table-driven: one 256-entry `u32` table folds SubBytes
//! and MixColumns into a lookup per state byte (the other three column
//! positions are byte rotations of the same entry), the state is four
//! big-endian column words and the schedule is 44 words. An attach runs
//! ≈38 block encryptions and ≈11 key expansions, so this kernel is what
//! the per-procedure service time is made of. Decryption is on no
//! runtime path and is byte-wise, which also makes it an independent
//! oracle for the encryptor.
//!
//! The S-box is generated from its algebraic definition (multiplicative
//! inverse in GF(2^8) followed by the affine transform) instead of being
//! transcribed, eliminating table-typo risk, and the encryption table is
//! derived from it; the FIPS-197 known-answer tests pin the result.
//!
//! lint: hot-path

use std::sync::OnceLock;

/// GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// `te[x]` is the MixColumns image of a column holding `S[x]` in
    /// row 0: bytes `(2·S[x], S[x], S[x], 3·S[x])`, most significant
    /// first. Rows 1–3 use the same entry rotated right by 8/16/24.
    te: [u32; 256],
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(|| {
        // Multiplicative inverses via exhaustive search (fine: done once).
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        let mut te = [0u32; 256];
        for x in 0..=255u8 {
            let b = inv[x as usize];
            let s = b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4)
                ^ 0x63;
            sbox[x as usize] = s;
            inv_sbox[s as usize] = x;
            te[x as usize] = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
        }
        Tables { sbox, inv_sbox, te }
    })
}

/// SubWord (FIPS-197 §5.2): the S-box applied to each byte of a word.
fn sub_word(sbox: &[u8; 256], w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        sbox[a as usize],
        sbox[b as usize],
        sbox[c as usize],
        sbox[d as usize],
    ])
}

/// An expanded AES-128 key schedule: 11 round keys of four big-endian
/// column words each. This is the only schedule representation — every
/// emulated UE owns one inside its `Milenage`, so its size is pinned.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl Aes128 {
    /// Expand `key` into the round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        let t = tables();
        let mut w = [0u32; 44];
        for (word, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(crate::take(chunk));
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(&t.sbox, temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        let te = &t.te;
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (c, word) in s.iter_mut().enumerate() {
            *word = u32::from_be_bytes(crate::take(&block[c * 4..])) ^ rk[c];
        }
        // Rounds 1..=9: SubBytes + ShiftRows + MixColumns as one lookup
        // per state byte. Column c takes row r from column (c + r) % 4.
        for round in 1..10 {
            let mut n = [0u32; 4];
            for (c, word) in n.iter_mut().enumerate() {
                *word = te[(s[c] >> 24) as usize]
                    ^ te[(s[(c + 1) % 4] >> 16) as usize & 0xff].rotate_right(8)
                    ^ te[(s[(c + 2) % 4] >> 8) as usize & 0xff].rotate_right(16)
                    ^ te[s[(c + 3) % 4] as usize & 0xff].rotate_right(24)
                    ^ rk[round * 4 + c];
            }
            s = n;
        }
        // Final round has no MixColumns: plain S-box bytes.
        let sb = &t.sbox;
        for c in 0..4 {
            let word = u32::from_be_bytes([
                sb[(s[c] >> 24) as usize],
                sb[(s[(c + 1) % 4] >> 16) as usize & 0xff],
                sb[(s[(c + 2) % 4] >> 8) as usize & 0xff],
                sb[s[(c + 3) % 4] as usize & 0xff],
            ]) ^ rk[40 + c];
            block[c * 4..c * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Round key `round` as the 16 bytes the byte-wise code XORs in.
    fn round_key_bytes(&self, round: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        for c in 0..4 {
            out[c * 4..c * 4 + 4].copy_from_slice(&self.round_keys[round * 4 + c].to_be_bytes());
        }
        out
    }

    /// Decrypt a single 16-byte block in place (byte-wise: no runtime
    /// path deciphers with the block inverse — CTR and CMAC only encrypt).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        add_round_key(block, &self.round_key_bytes(10));
        inv_shift_rows(block);
        sub_bytes(block, &t.inv_sbox);
        for round in (1..10).rev() {
            add_round_key(block, &self.round_key_bytes(round));
            inv_mix_columns(block);
            inv_shift_rows(block);
            sub_bytes(block, &t.inv_sbox);
        }
        add_round_key(block, &self.round_key_bytes(0));
    }

    /// Encrypt a copy of `block` and return it.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }

    /// AES-CTR keystream XOR (used by the EEA2 NAS ciphering emulation):
    /// encrypts/decrypts `data` in place with a 16-byte initial counter
    /// block, incrementing the counter big-endian per block.
    pub fn ctr_xor(&self, counter0: &[u8; 16], data: &mut [u8]) {
        let mut counter = u128::from_be_bytes(*counter0);
        for chunk in data.chunks_mut(16) {
            let ks = self.encrypt(&counter.to_be_bytes());
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

/// State layout note: the byte-wise helpers keep the block in
/// column-major order (byte i of the input is row i%4, column i/4),
/// matching FIPS-197, so ShiftRows works on strided indices.
fn add_round_key(block: &mut [u8; 16], rk: &[u8; 16]) {
    for (b, k) in block.iter_mut().zip(rk.iter()) {
        *b ^= k;
    }
}

fn sub_bytes(block: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in block.iter_mut() {
        *b = sbox[*b as usize];
    }
}

fn inv_shift_rows(block: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [block[r], block[r + 4], block[r + 8], block[r + 12]];
        for c in 0..4 {
            block[r + c * 4] = row[(c + 4 - r) % 4];
        }
    }
}

fn inv_mix_columns(block: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            block[c * 4],
            block[c * 4 + 1],
            block[c * 4 + 2],
            block[c * 4 + 3],
        ];
        block[c * 4] =
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        block[c * 4 + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        block[c * 4 + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        block[c * 4 + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

/// The byte-wise FIPS-197 cipher (§5.1) and key expansion (§5.2),
/// transcribed from the standard: the oracle the differential test
/// holds the table-driven encryptor to. It shares only the S-box with
/// the code above.
#[cfg(test)]
mod reference {
    use super::{add_round_key, gf_mul, sub_bytes, tables};

    pub fn expand(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let t = tables();
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = t.sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    fn shift_rows(block: &mut [u8; 16]) {
        // Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in 1..4 {
            let row = [block[r], block[r + 4], block[r + 8], block[r + 12]];
            for c in 0..4 {
                block[r + c * 4] = row[(c + r) % 4];
            }
        }
    }

    fn mix_columns(block: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                block[c * 4],
                block[c * 4 + 1],
                block[c * 4 + 2],
                block[c * 4 + 3],
            ];
            block[c * 4] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            block[c * 4 + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            block[c * 4 + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            block[c * 4 + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }

    pub fn encrypt_block(round_keys: &[[u8; 16]; 11], block: &mut [u8; 16]) {
        let t = tables();
        add_round_key(block, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(block, &t.sbox);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block, &t.sbox);
        shift_rows(block);
        add_round_key(block, &round_keys[10]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};
    use proptest::prelude::*;

    /// FIPS-197 appendix C.1 known-answer test.
    #[test]
    fn fips197_c1() {
        let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        let ct = aes.encrypt(&pt);
        assert_eq!(hex(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
        let mut back = ct;
        aes.decrypt_block(&mut back);
        assert_eq!(back, pt);
    }

    /// FIPS-197 appendix B worked example.
    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = unhex("3243f6a8885a308d313198a2e0370734")
            .unwrap()
            .try_into()
            .unwrap();
        let ct = Aes128::new(&key).encrypt(&pt);
        assert_eq!(hex(&ct), "3925841d02dc09fbdc118597196a0b32");
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = Aes128::new(&[7u8; 16]);
        for i in 0..64u8 {
            let pt = [i; 16];
            let mut b = pt;
            aes.encrypt_block(&mut b);
            assert_ne!(b, pt);
            aes.decrypt_block(&mut b);
            assert_eq!(b, pt);
        }
    }

    #[test]
    fn ctr_is_an_involution() {
        let aes = Aes128::new(&[0x42; 16]);
        let ctr = [1u8; 16];
        let mut data: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let orig = data.clone();
        aes.ctr_xor(&ctr, &mut data);
        assert_ne!(data, orig);
        aes.ctr_xor(&ctr, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_counter_carries_across_byte_boundary() {
        let aes = Aes128::new(&[1u8; 16]);
        // Counter ending in 0xff must carry into the next byte between blocks.
        let mut ctr = [0u8; 16];
        ctr[15] = 0xff;
        let mut two_blocks = vec![0u8; 32];
        aes.ctr_xor(&ctr, &mut two_blocks);
        // Second block keystream must equal encryption of counter 0x...0100.
        let mut ctr2 = [0u8; 16];
        ctr2[14] = 0x01;
        let ks2 = aes.encrypt(&ctr2);
        assert_eq!(&two_blocks[16..], &ks2[..]);
    }

    /// The schedule is one representation, 44 words: every emulated UE
    /// owns one, so it must not grow past the parent's 176 bytes.
    #[test]
    fn schedule_size_is_pinned() {
        assert_eq!(std::mem::size_of::<Aes128>(), 176);
    }

    #[test]
    fn schedule_matches_bytewise_expansion() {
        let key: [u8; 16] = core::array::from_fn(|i| (i * 17 + 3) as u8);
        let aes = Aes128::new(&key);
        let want = reference::expand(&key);
        for (round, rk) in want.iter().enumerate() {
            assert_eq!(&aes.round_key_bytes(round), rk, "round {round}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The table-driven encryptor and schedule agree with the
        /// byte-wise cipher on random keys and blocks.
        #[test]
        fn table_driven_matches_bytewise(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
            let mut want = pt;
            reference::encrypt_block(&reference::expand(&key), &mut want);
            prop_assert_eq!(Aes128::new(&key).encrypt(&pt), want);
        }
    }
}
