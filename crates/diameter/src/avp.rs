//! Diameter AVP codec (RFC 6733 §4) with the S6a AVPs the MME uses.
//!
//! AVPs are `code(4) || flags(1) || length(3) || [vendor-id(4)] || data`,
//! padded to a 4-byte boundary. S6a AVPs (TS 29.272) are vendor-specific
//! (3GPP vendor id 10415) and carry the V flag.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// 3GPP vendor id for S6a AVPs.
pub const VENDOR_3GPP: u32 = 10415;

/// AVP flag bits.
pub const FLAG_VENDOR: u8 = 0x80;
pub const FLAG_MANDATORY: u8 = 0x40;

/// AVP codes used by the S6a procedures in this reproduction.
pub mod avp_code {
    /// RFC 6733 base AVPs.
    pub const USER_NAME: u32 = 1;
    pub const RESULT_CODE: u32 = 268;
    pub const SESSION_ID: u32 = 263;
    pub const ORIGIN_HOST: u32 = 264;
    pub const ORIGIN_REALM: u32 = 296;
    pub const DESTINATION_REALM: u32 = 283;
    pub const AUTH_SESSION_STATE: u32 = 277;
    /// 3GPP TS 29.272 S6a AVPs.
    pub const VISITED_PLMN_ID: u32 = 1407;
    pub const REQUESTED_EUTRAN_AUTH_INFO: u32 = 1408;
    pub const NUMBER_OF_REQUESTED_VECTORS: u32 = 1410;
    /// RAND ‖ AUTS of a USIM's synchronisation failure.
    pub const RE_SYNCHRONIZATION_INFO: u32 = 1411;
    pub const AUTHENTICATION_INFO: u32 = 1413;
    pub const EUTRAN_VECTOR: u32 = 1414;
    pub const RAND: u32 = 1447;
    pub const XRES: u32 = 1448;
    pub const AUTN: u32 = 1449;
    pub const KASME: u32 = 1450;
    pub const ULA_FLAGS: u32 = 1406;
    pub const SUBSCRIPTION_DATA: u32 = 1400;
    pub const AMBR_MAX_UL: u32 = 516;
    pub const AMBR_MAX_DL: u32 = 515;
}

/// Diameter result codes (subset).
pub mod result_code {
    pub const SUCCESS: u32 = 2001;
    pub const UNABLE_TO_COMPLY: u32 = 5012;
    /// TS 29.272: subscriber unknown in HSS.
    pub const USER_UNKNOWN: u32 = 5001;
    /// TS 29.272 experimental result: no vector can be produced (here:
    /// a Re-Synchronization-Info whose MAC-S does not verify).
    pub const AUTHENTICATION_DATA_UNAVAILABLE: u32 = 4181;
}

/// Decode failure for Diameter PDUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiameterError {
    Truncated { what: &'static str },
    Invalid { what: &'static str, value: u64 },
    MissingAvp { msg: &'static str, avp: u32 },
}

impl fmt::Display for DiameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiameterError::Truncated { what } => write!(f, "truncated diameter {what}"),
            DiameterError::Invalid { what, value } => write!(f, "invalid {what}: {value}"),
            DiameterError::MissingAvp { msg, avp } => {
                write!(f, "{msg} missing mandatory AVP {avp}")
            }
        }
    }
}

impl std::error::Error for DiameterError {}

/// One AVP: code, flags, optional vendor id and raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Avp {
    pub code: u32,
    pub flags: u8,
    pub vendor_id: Option<u32>,
    pub data: Bytes,
}

impl Avp {
    /// A base (IETF) mandatory AVP.
    pub fn base(code: u32, data: impl Into<Bytes>) -> Self {
        Avp {
            code,
            flags: FLAG_MANDATORY,
            vendor_id: None,
            data: data.into(),
        }
    }

    /// A 3GPP vendor-specific mandatory AVP.
    pub fn tgpp(code: u32, data: impl Into<Bytes>) -> Self {
        Avp {
            code,
            flags: FLAG_VENDOR | FLAG_MANDATORY,
            vendor_id: Some(VENDOR_3GPP),
            data: data.into(),
        }
    }

    /// UTF-8 string AVP.
    pub fn utf8(code: u32, s: &str) -> Self {
        Avp::base(code, Bytes::copy_from_slice(s.as_bytes()))
    }

    /// Unsigned32 AVP.
    pub fn u32(code: u32, v: u32) -> Self {
        Avp::base(code, Bytes::copy_from_slice(&v.to_be_bytes()))
    }

    /// 3GPP Unsigned32 AVP.
    pub fn tgpp_u32(code: u32, v: u32) -> Self {
        Avp::tgpp(code, Bytes::copy_from_slice(&v.to_be_bytes()))
    }

    /// Grouped AVP from sub-AVPs.
    pub fn grouped(code: u32, vendor: bool, avps: &[Avp]) -> Self {
        let mut buf = BytesMut::new();
        for a in avps {
            a.encode(&mut buf);
        }
        if vendor {
            Avp::tgpp(code, buf.freeze())
        } else {
            Avp::base(code, buf.freeze())
        }
    }

    /// Interpret payload as Unsigned32.
    pub fn as_u32(&self) -> Result<u32, DiameterError> {
        if self.data.len() != 4 {
            return Err(DiameterError::Invalid {
                what: "u32 avp length",
                value: self.data.len() as u64,
            });
        }
        Ok(u32::from_be_bytes([
            self.data[0],
            self.data[1],
            self.data[2],
            self.data[3],
        ]))
    }

    /// Interpret payload as UTF-8.
    pub fn as_utf8(&self) -> Result<String, DiameterError> {
        String::from_utf8(self.data.to_vec()).map_err(|_| DiameterError::Invalid {
            what: "utf8 avp",
            value: 0,
        })
    }

    /// Parse grouped payload into sub-AVPs.
    pub fn sub_avps(&self) -> Result<Vec<Avp>, DiameterError> {
        decode_avps(self.data.clone())
    }

    /// Wire length including header and vendor id, excluding padding.
    fn wire_len(&self) -> usize {
        8 + if self.vendor_id.is_some() { 4 } else { 0 } + self.data.len()
    }

    /// Encode with trailing padding to 4 bytes.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.code);
        let len = self.wire_len() as u32;
        buf.put_u8(self.flags);
        buf.put_u8((len >> 16) as u8);
        buf.put_u16(len as u16);
        if let Some(v) = self.vendor_id {
            buf.put_u32(v);
        }
        buf.put_slice(&self.data);
        let pad = (4 - self.data.len() % 4) % 4;
        buf.put_bytes(0, pad);
    }

    /// Decode one AVP, consuming its padding.
    pub fn decode(buf: &mut Bytes) -> Result<Avp, DiameterError> {
        if buf.remaining() < 8 {
            return Err(DiameterError::Truncated { what: "avp header" });
        }
        let code = buf.get_u32();
        let flags = buf.get_u8();
        let len = ((buf.get_u8() as usize) << 16) | buf.get_u16() as usize;
        let vendor_len = if flags & FLAG_VENDOR != 0 { 4 } else { 0 };
        if len < 8 + vendor_len {
            return Err(DiameterError::Invalid {
                what: "avp length",
                value: len as u64,
            });
        }
        let vendor_id = if vendor_len == 4 {
            if buf.remaining() < 4 {
                return Err(DiameterError::Truncated { what: "vendor id" });
            }
            Some(buf.get_u32())
        } else {
            None
        };
        let data_len = len - 8 - vendor_len;
        if buf.remaining() < data_len {
            return Err(DiameterError::Truncated { what: "avp data" });
        }
        let data = buf.copy_to_bytes(data_len);
        let pad = (4 - data_len % 4) % 4;
        if buf.remaining() < pad {
            return Err(DiameterError::Truncated { what: "avp padding" });
        }
        buf.advance(pad);
        Ok(Avp {
            code,
            flags,
            vendor_id,
            data,
        })
    }
}

/// Decode a sequence of AVPs until the buffer is exhausted.
pub fn decode_avps(mut buf: Bytes) -> Result<Vec<Avp>, DiameterError> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(Avp::decode(&mut buf)?);
    }
    Ok(out)
}

/// Find the first AVP with `code` in a slice.
pub fn find(avps: &[Avp], code: u32) -> Option<&Avp> {
    avps.iter().find(|a| a.code == code)
}

/// Find the first AVP with `code` or fail with a MissingAvp error.
pub fn require<'a>(avps: &'a [Avp], code: u32, msg: &'static str) -> Result<&'a Avp, DiameterError> {
    find(avps, code).ok_or(DiameterError::MissingAvp { msg, avp: code })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avp_roundtrip_with_padding() {
        // 5-byte payload forces 3 bytes of padding.
        let avp = Avp::base(avp_code::SESSION_ID, Bytes::from_static(b"hello"));
        let mut buf = BytesMut::new();
        avp.encode(&mut buf);
        assert_eq!(buf.len() % 4, 0, "AVP must be 4-byte aligned");
        let mut bytes = buf.freeze();
        let back = Avp::decode(&mut bytes).unwrap();
        assert_eq!(back, avp);
        assert_eq!(bytes.len(), 0);
    }

    #[test]
    fn vendor_avp_roundtrip() {
        let avp = Avp::tgpp(avp_code::RAND, Bytes::from_static(&[7u8; 16]));
        let mut buf = BytesMut::new();
        avp.encode(&mut buf);
        let back = Avp::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back.vendor_id, Some(VENDOR_3GPP));
        assert_eq!(back, avp);
    }

    #[test]
    fn grouped_avp_nests() {
        let inner = [
            Avp::tgpp(avp_code::RAND, Bytes::from_static(&[1u8; 16])),
            Avp::tgpp(avp_code::XRES, Bytes::from_static(&[2u8; 8])),
        ];
        let grouped = Avp::grouped(avp_code::EUTRAN_VECTOR, true, &inner);
        let subs = grouped.sub_avps().unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].code, avp_code::RAND);
        assert_eq!(&subs[1].data[..], &[2u8; 8]);
    }

    #[test]
    fn u32_and_utf8_accessors() {
        assert_eq!(Avp::u32(avp_code::RESULT_CODE, 2001).as_u32().unwrap(), 2001);
        assert_eq!(
            Avp::utf8(avp_code::USER_NAME, "001010123456789").as_utf8().unwrap(),
            "001010123456789"
        );
        assert!(Avp::utf8(avp_code::USER_NAME, "x").as_u32().is_err());
    }

    #[test]
    fn truncated_avp_errors() {
        let mut short = Bytes::from_static(&[0, 0, 1, 7, 0x40]);
        assert_eq!(
            Avp::decode(&mut short).unwrap_err(),
            DiameterError::Truncated { what: "avp header" }
        );
    }

    #[test]
    fn bogus_length_rejected() {
        // Declared length 4 < minimum 8.
        let raw: &[u8] = &[0, 0, 0, 1, 0, 0, 0, 4];
        let mut b = Bytes::from_static(raw);
        assert!(matches!(
            Avp::decode(&mut b).unwrap_err(),
            DiameterError::Invalid { what: "avp length", .. }
        ));
    }

    #[test]
    fn find_and_require() {
        let avps = vec![Avp::u32(avp_code::RESULT_CODE, 2001)];
        assert!(find(&avps, avp_code::RESULT_CODE).is_some());
        assert!(find(&avps, avp_code::USER_NAME).is_none());
        assert!(require(&avps, avp_code::USER_NAME, "test").is_err());
    }
}
