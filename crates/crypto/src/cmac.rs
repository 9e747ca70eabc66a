//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! EIA2, the AES-based LTE integrity algorithm, is AES-CMAC over the NAS
//! message prefixed with count/bearer/direction; the NAS codec uses the
//! truncated 32-bit MAC exactly as the spec does.
//!
//! lint: hot-path

use crate::aes::Aes128;

/// Doubling in GF(2^128) (RFC 4493 §2.3): shift left one bit and fold
/// the carried-out bit back in as R_128 = 0x87.
fn dbl(block: u128) -> u128 {
    (block << 1) ^ ((block >> 127) * 0x87)
}

/// Streaming AES-CMAC: the message arrives in any number of pieces and
/// is XORed straight into the chaining block, so a caller with a header
/// and a body (EIA2) never concatenates them.
///
/// The key is expanded per MAC and the subkeys derived in
/// [`Cmac::finalize`]; nothing here is meant to be stored per device.
pub struct Cmac {
    aes: Aes128,
    /// CBC chaining value with the bytes of the current block XORed in.
    x: [u8; 16],
    /// Bytes of the current block absorbed into `x` (0..=16). A full
    /// block is only encrypted when more input follows, because the
    /// last block takes a subkey first.
    fill: usize,
}

impl Cmac {
    /// Start a MAC under `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        Cmac {
            aes: Aes128::new(key),
            x: [0u8; 16],
            fill: 0,
        }
    }

    /// Absorb the next piece of the message.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.fill == 16 {
                self.aes.encrypt_block(&mut self.x);
                self.fill = 0;
            }
            let n = data.len().min(16 - self.fill);
            for (x, d) in self.x[self.fill..self.fill + n].iter_mut().zip(data) {
                *x ^= d;
            }
            self.fill += n;
            data = &data[n..];
        }
    }

    /// Finish and return the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        // Last block: XOR with K1 if complete, pad + K2 otherwise.
        let k1 = dbl(u128::from_be_bytes(self.aes.encrypt(&[0u8; 16])));
        let subkey = if self.fill == 16 {
            k1
        } else {
            self.x[self.fill] ^= 0x80;
            dbl(k1)
        };
        let mut last = (u128::from_be_bytes(self.x) ^ subkey).to_be_bytes();
        self.aes.encrypt_block(&mut last);
        last
    }
}

/// Compute the full 16-byte AES-CMAC tag of `msg` under `key`.
pub fn aes_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    let mut mac = Cmac::new(key);
    mac.update(msg);
    mac.finalize()
}

/// EIA2-style 32-bit MAC: CMAC over `count || bearer/direction || msg`,
/// truncated to the first four bytes (TS 33.401 B.2.3).
pub fn eia2_mac(key: &[u8; 16], count: u32, bearer: u8, downlink: bool, msg: &[u8]) -> [u8; 4] {
    // COUNT || BEARER (5 bits) | DIRECTION (1 bit) | 26 zero bits.
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&count.to_be_bytes());
    head[4] = (bearer << 3) | (u8::from(downlink) << 2);
    let mut mac = Cmac::new(key);
    mac.update(&head);
    mac.update(msg);
    crate::take(&mac.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};

    fn rfc_key() -> [u8; 16] {
        unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap()
    }

    // RFC 4493 §4 test vectors.
    #[test]
    fn rfc4493_empty() {
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), b"")),
            "bb1d6929e95937287fa37d129b756746"
        );
    }

    #[test]
    fn rfc4493_16_bytes() {
        let msg = unhex("6bc1bee22e409f96e93d7e117393172a").unwrap();
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), &msg)),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
    }

    #[test]
    fn rfc4493_40_bytes() {
        let msg = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411"
        ))
        .unwrap();
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), &msg)),
            "dfa66747de9ae63030ca32611497c827"
        );
    }

    #[test]
    fn rfc4493_64_bytes() {
        let msg = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ))
        .unwrap();
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), &msg)),
            "51f0bebf7e3b9d92fc49741779363cfe"
        );
    }

    #[test]
    fn eia2_direction_and_count_matter() {
        let key = [9u8; 16];
        let m1 = eia2_mac(&key, 1, 0, false, b"nas message");
        let m2 = eia2_mac(&key, 2, 0, false, b"nas message");
        let m3 = eia2_mac(&key, 1, 0, true, b"nas message");
        assert_ne!(m1, m2);
        assert_ne!(m1, m3);
        // Deterministic.
        assert_eq!(m1, eia2_mac(&key, 1, 0, false, b"nas message"));
    }
}
