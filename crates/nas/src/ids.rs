//! LTE identities: IMSI, GUTI, TAI and the PLMN id.
//!
//! The GUTI is load-bearing for SCALE: the paper's MLB hashes the GUTI
//! onto the consistent hash ring to find a device's master MMP, and the
//! MME id embedded in the GUTI is what pins a device to one MME in the
//! legacy (3GPP-pool) baseline (§3.1 "Static Assignment").

use crate::wire::{NasError, Reader, Writer};
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};

/// A PLMN identity (MCC + MNC), stored in its 3-byte BCD wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Plmn(pub [u8; 3]);

impl Plmn {
    /// Build from MCC/MNC digit strings (MNC of 2 or 3 digits).
    pub fn new(mcc: &str, mnc: &str) -> Self {
        let d = |s: &str, i: usize| s.as_bytes()[i] - b'0';
        let mcc1 = d(mcc, 0);
        let mcc2 = d(mcc, 1);
        let mcc3 = d(mcc, 2);
        let (mnc1, mnc2, mnc3) = if mnc.len() == 2 {
            (d(mnc, 0), d(mnc, 1), 0xf)
        } else {
            (d(mnc, 0), d(mnc, 1), d(mnc, 2))
        };
        Plmn([
            (mcc2 << 4) | mcc1,
            (mnc3 << 4) | mcc3,
            (mnc2 << 4) | mnc1,
        ])
    }

    /// The test network 001/01.
    pub fn test() -> Self {
        Plmn::new("001", "01")
    }
}

/// Globally Unique Temporary Identity (TS 23.003 §2.8): identifies both
/// the device and the MME that allocated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Guti {
    pub plmn: Plmn,
    /// MME group within the PLMN.
    pub mme_group_id: u16,
    /// MME code within the group — in the legacy pool this is what routes
    /// every subsequent request back to the same MME.
    pub mme_code: u8,
    /// Temporary subscriber id unique within the MME.
    pub m_tmsi: u32,
}

impl Guti {
    pub const WIRE_LEN: usize = 10;

    /// Canonical 10-byte wire encoding — also the byte string SCALE's
    /// MLB hashes onto the consistent hash ring.
    pub fn to_bytes(&self) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[..3].copy_from_slice(&self.plmn.0);
        out[3..5].copy_from_slice(&self.mme_group_id.to_be_bytes());
        out[5] = self.mme_code;
        out[6..10].copy_from_slice(&self.m_tmsi.to_be_bytes());
        out
    }

    pub fn from_bytes(b: &[u8; 10]) -> Self {
        Guti {
            plmn: Plmn([b[0], b[1], b[2]]),
            mme_group_id: u16::from_be_bytes([b[3], b[4]]),
            mme_code: b[5],
            m_tmsi: u32::from_be_bytes([b[6], b[7], b[8], b[9]]),
        }
    }

    pub fn encode(&self, w: &mut Writer) {
        w.slice(&self.to_bytes());
    }

    pub fn decode(r: &mut Reader) -> Result<Self, NasError> {
        let b: [u8; 10] = r.array("guti")?;
        Ok(Guti::from_bytes(&b))
    }
}

/// Tracking Area Identity: PLMN + 16-bit tracking area code. Paging
/// fans out to every eNodeB in the device's TA (§2, Paging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tai {
    pub plmn: Plmn,
    pub tac: u16,
}

impl Tai {
    pub const WIRE_LEN: usize = 5;

    pub fn new(plmn: Plmn, tac: u16) -> Self {
        Tai { plmn, tac }
    }

    pub fn encode(&self, w: &mut Writer) {
        w.slice(&self.plmn.0);
        w.u16(self.tac);
    }

    pub fn decode(r: &mut Reader) -> Result<Self, NasError> {
        let plmn: [u8; 3] = r.array("tai plmn")?;
        let tac = r.u16("tac")?;
        Ok(Tai {
            plmn: Plmn(plmn),
            tac,
        })
    }
}

/// An IMSI held by value: up to fifteen decimal digits packed four bits
/// each, low digit first, with the digit count in the top four bits so
/// that leading zeros survive. Eight bytes and `Copy`, it keys a table
/// without a heap string behind it.
///
/// The packed `u64` is kept as its high and low `u32` words, so the type
/// is 4-byte aligned: an entry `(Imsi, u32)` takes 12 bytes, where a
/// `u64` field would pad it to 16. Equality is the `u64`'s, and a value
/// hashes as its packed `u64`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Imsi([u32; 2]);

const _: () = assert!(std::mem::size_of::<Imsi>() == 8 && std::mem::align_of::<Imsi>() == 4);
const _: () = assert!(std::mem::size_of::<(Imsi, u32)>() == 12);

impl Hash for Imsi {
    fn hash<H: Hasher>(&self, h: &mut H) {
        h.write_u64(self.packed());
    }
}

impl Imsi {
    /// The longest IMSI, in digits (TS 23.003 §2.2).
    pub const MAX_DIGITS: usize = 15;

    /// Parse 1–15 ASCII digits. Anything else is not an IMSI.
    pub fn from_ascii(digits: &[u8]) -> Option<Imsi> {
        if digits.is_empty() || digits.len() > Self::MAX_DIGITS {
            return None;
        }
        let mut packed = (digits.len() as u64) << 60;
        for (i, &d) in digits.iter().enumerate() {
            if !d.is_ascii_digit() {
                return None;
            }
            packed |= u64::from(d - b'0') << (4 * i);
        }
        Some(Imsi::of(packed))
    }

    fn of(packed: u64) -> Imsi {
        Imsi([(packed >> 32) as u32, packed as u32])
    }

    /// Number of digits, 1–15.
    pub fn digit_count(self) -> usize {
        (self.packed() >> 60) as usize
    }

    /// The packed form itself: the digit count in the top four bits and
    /// the digits below, four bits each, low digit first. Eight bytes
    /// where the ASCII form takes up to sixteen, so the replica blob
    /// carries this.
    pub fn packed(self) -> u64 {
        (u64::from(self.0[0]) << 32) | u64::from(self.0[1])
    }

    /// Inverse of [`Imsi::packed`], for canonical values only: a count
    /// of 1–15, every digit at most 9 and nothing but zeros above the
    /// last digit. So an IMSI read back this way writes back the same
    /// eight bytes, and equal IMSIs are equal `u64`s.
    pub fn from_packed(packed: u64) -> Option<Imsi> {
        let count = (packed >> 60) as usize;
        if count == 0 || count > Self::MAX_DIGITS {
            return None;
        }
        let digits = packed & ((1u64 << (4 * count)) - 1);
        if packed & ((1u64 << 60) - 1) != digits {
            return None;
        }
        let any_above_nine = (0..count).any(|i| (digits >> (4 * i)) & 0xf > 9);
        (!any_above_nine).then_some(Imsi::of(packed))
    }

    /// The digits as ASCII: the first [`Imsi::digit_count`] bytes of the
    /// array.
    pub fn to_ascii(self) -> [u8; Self::MAX_DIGITS] {
        let packed = self.packed();
        let mut out = [0u8; Self::MAX_DIGITS];
        for (i, d) in out.iter_mut().enumerate().take(self.digit_count()) {
            *d = b'0' + ((packed >> (4 * i)) & 0xf) as u8;
        }
        out
    }
}

impl fmt::Display for Imsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ascii = self.to_ascii();
        for &d in &ascii[..self.digit_count()] {
            f.write_char(char::from(d))?;
        }
        Ok(())
    }
}

impl fmt::Debug for Imsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Imsi({self})")
    }
}

/// EPS mobile identity: either a permanent IMSI (first attach) or a
/// previously-allocated GUTI (re-attach / TAU / service request).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MobileId {
    Imsi(String),
    Guti(Guti),
}

impl MobileId {
    const TAG_IMSI: u8 = 1;
    const TAG_GUTI: u8 = 6;

    pub fn encode(&self, w: &mut Writer) {
        match self {
            MobileId::Imsi(digits) => {
                w.u8(Self::TAG_IMSI);
                let bcd = encode_bcd(digits);
                w.lv(&bcd);
            }
            MobileId::Guti(guti) => {
                w.u8(Self::TAG_GUTI);
                guti.encode(w);
            }
        }
    }

    pub fn decode(r: &mut Reader) -> Result<Self, NasError> {
        match r.u8("mobile id tag")? {
            Self::TAG_IMSI => {
                let bcd = r.lv("imsi bcd")?;
                Ok(MobileId::Imsi(decode_bcd(&bcd)))
            }
            Self::TAG_GUTI => Ok(MobileId::Guti(Guti::decode(r)?)),
            other => Err(NasError::Invalid {
                what: "mobile id tag",
                value: other as u64,
            }),
        }
    }
}

/// BCD digit packing (low nibble first, 0xf filler on odd counts).
pub fn encode_bcd(digits: &str) -> Vec<u8> {
    let d: Vec<u8> = digits
        .bytes()
        .filter(|b| b.is_ascii_digit())
        .map(|b| b - b'0')
        .collect();
    d.chunks(2)
        .map(|pair| {
            let lo = pair[0];
            let hi = if pair.len() == 2 { pair[1] } else { 0xf };
            (hi << 4) | lo
        })
        .collect()
}

/// Inverse of [`encode_bcd`].
pub fn decode_bcd(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        let lo = b & 0x0f;
        let hi = b >> 4;
        if lo != 0xf {
            s.push((b'0' + lo) as char);
        }
        if hi != 0xf {
            s.push((b'0' + hi) as char);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn plmn_two_and_three_digit_mnc() {
        let p2 = Plmn::new("310", "17");
        let p3 = Plmn::new("310", "170");
        assert_ne!(p2, p3);
        // MCC digits land in the documented nibbles.
        assert_eq!(p2.0[0], 0x13);
    }

    #[test]
    fn guti_roundtrip() {
        let guti = Guti {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 7,
            m_tmsi: 0xdead_beef,
        };
        assert_eq!(Guti::from_bytes(&guti.to_bytes()), guti);
        let mut w = Writer::new();
        guti.encode(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes.len(), Guti::WIRE_LEN);
        assert_eq!(Guti::decode(&mut Reader::new(bytes)).unwrap(), guti);
    }

    #[test]
    fn guti_bytes_embed_mme_code() {
        // The legacy pool routes on this byte; make sure it is where the
        // baseline router expects it.
        let guti = Guti {
            plmn: Plmn::test(),
            mme_group_id: 1,
            mme_code: 42,
            m_tmsi: 5,
        };
        assert_eq!(guti.to_bytes()[5], 42);
    }

    #[test]
    fn tai_roundtrip() {
        let tai = Tai::new(Plmn::test(), 0x1234);
        let mut w = Writer::new();
        tai.encode(&mut w);
        assert_eq!(Tai::decode(&mut Reader::new(w.finish())).unwrap(), tai);
    }

    #[test]
    fn mobile_id_both_variants() {
        for id in [
            MobileId::Imsi("001010123456789".into()),
            MobileId::Guti(Guti {
                plmn: Plmn::test(),
                mme_group_id: 2,
                mme_code: 3,
                m_tmsi: 4,
            }),
        ] {
            let mut w = Writer::new();
            id.encode(&mut w);
            assert_eq!(MobileId::decode(&mut Reader::new(w.finish())).unwrap(), id);
        }
    }

    #[test]
    fn mobile_id_bad_tag() {
        let err = MobileId::decode(&mut Reader::new(Bytes::from_static(&[9]))).unwrap_err();
        assert!(matches!(err, NasError::Invalid { .. }));
    }

    #[test]
    fn imsi_keeps_leading_zeros_and_refuses_what_is_not_one() {
        for digits in [
            "0",
            "001010000000001",
            "999999999999999",
            "00000",
            "12345678901234",
        ] {
            let imsi = Imsi::from_ascii(digits.as_bytes()).unwrap();
            assert_eq!(imsi.to_string(), digits);
            assert_eq!(imsi.digit_count(), digits.len());
            assert_eq!(&imsi.to_ascii()[..digits.len()], digits.as_bytes());
        }
        // Same digits, different lengths: different IMSIs.
        assert_ne!(Imsi::from_ascii(b"0012"), Imsi::from_ascii(b"012"));
        for bad in ["", "0010100000000012", "00101a", "00101 ", "١٢٣"] {
            assert_eq!(Imsi::from_ascii(bad.as_bytes()), None, "{bad:?}");
        }
        assert_eq!(std::mem::size_of::<Imsi>(), 8);
    }

    #[test]
    fn a_packed_imsi_reads_back_only_in_canonical_form() {
        for digits in ["0", "001010000000001", "999999999999999", "12345678901234"] {
            let imsi = Imsi::from_ascii(digits.as_bytes()).unwrap();
            assert_eq!(Imsi::from_packed(imsi.packed()), Some(imsi));
        }
        let one = Imsi::from_ascii(b"7").unwrap().packed();
        assert_eq!(one, (1 << 60) | 7);
        for bad in [
            0,                                  // no digits
            7,                                  // a digit, count 0
            (1 << 60) | 0xa,                    // a nibble above 9
            (1 << 60) | 0x17,                   // a bit above the last digit
            (1 << 60) | (1 << 59),              // the bit below the count
            (15 << 60) | 0x0fff_ffff_ffff_ffff, // fifteen nibbles of f
            u64::MAX,                           // a count of 15, then f
        ] {
            assert_eq!(Imsi::from_packed(bad), None, "{bad:#018x}");
        }
    }

    #[test]
    fn bcd_odd_and_even() {
        assert_eq!(decode_bcd(&encode_bcd("12345")), "12345");
        assert_eq!(decode_bcd(&encode_bcd("123456")), "123456");
        assert_eq!(encode_bcd("12345").len(), 3);
    }
}
