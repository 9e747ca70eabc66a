//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! The 3GPP key-derivation function (TS 33.401 annex A) is defined as
//! HMAC-SHA-256 over an FC-tagged parameter string; see [`crate::kdf`].
//!
//! lint: hot-path

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// A keyed HMAC-SHA-256 state: the inner and outer hashes with the
/// padded key block already absorbed (one compression each).
///
/// `Copy`, so one keyed state authenticates any number of messages —
/// copy it, stream the message in, finalize — without paying the two
/// key-block compressions again. Both NAS algorithm keys come from one
/// state keyed with K_ASME.
///
/// ```
/// use scale_crypto::hmac::{hmac_sha256, HmacSha256};
/// let keyed = HmacSha256::new(b"Jefe");
/// assert_eq!(keyed.mac(b"one"), hmac_sha256(b"Jefe", b"one"));
/// assert_eq!(keyed.mac(b"two"), hmac_sha256(b"Jefe", b"two"));
/// ```
#[derive(Clone, Copy)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Absorb `key` (hashed first when longer than one block).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Stream message bytes in.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(mut self) -> [u8; 32] {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }

    /// Tag of `msg` under this key, leaving the keyed state reusable.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut h = *self;
        h.update(msg);
        h.finalize()
    }
}

/// Compute HMAC-SHA-256 of `msg` under `key`.
///
/// ```
/// use scale_crypto::hmac::hmac_sha256;
/// let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
/// assert_eq!(
///     scale_crypto::hex(&mac),
///     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacSha256::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};

    // RFC 4231 test cases 1, 2, 3, 6 (6 exercises key > block size).
    #[test]
    fn rfc4231_case1() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let mac = hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn unhex_roundtrip() {
        let bytes = unhex("00ff10a5").unwrap();
        assert_eq!(bytes, vec![0x00, 0xff, 0x10, 0xa5]);
        assert_eq!(hex(&bytes), "00ff10a5");
        assert!(unhex("0g").is_none());
        assert!(unhex("abc").is_none());
    }
}
