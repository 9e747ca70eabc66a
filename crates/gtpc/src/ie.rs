//! GTPv2-C information elements (TS 29.274 §8).
//!
//! IEs are encoded as `type(1) || length(2) || spare/instance(1) || value`.
//! Unknown IE types are preserved as raw bytes so a decode→encode cycle
//! is loss-free even across versions.

use crate::wire::{DecodeError, Reader, Writer};
use bytes::Bytes;

/// IE type codes used by the S11 procedures in this reproduction.
pub mod ie_type {
    pub const IMSI: u8 = 1;
    pub const CAUSE: u8 = 2;
    pub const RECOVERY: u8 = 3;
    pub const APN: u8 = 71;
    pub const AMBR: u8 = 72;
    pub const EBI: u8 = 73;
    pub const MSISDN: u8 = 76;
    pub const PAA: u8 = 79;
    pub const BEARER_QOS: u8 = 80;
    pub const FTEID: u8 = 87;
    pub const BEARER_CONTEXT: u8 = 93;
}

/// GTPv2 cause values (subset of TS 29.274 table 8.4-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    RequestAccepted,
    ContextNotFound,
    NoResourcesAvailable,
    SystemFailure,
    /// Any other value, preserved verbatim.
    Other(u8),
}

impl Cause {
    pub fn code(self) -> u8 {
        match self {
            Cause::RequestAccepted => 16,
            Cause::ContextNotFound => 64,
            Cause::NoResourcesAvailable => 73,
            Cause::SystemFailure => 72,
            Cause::Other(v) => v,
        }
    }

    pub fn from_code(v: u8) -> Self {
        match v {
            16 => Cause::RequestAccepted,
            64 => Cause::ContextNotFound,
            73 => Cause::NoResourcesAvailable,
            72 => Cause::SystemFailure,
            other => Cause::Other(other),
        }
    }

    /// True when the cause signals success.
    pub fn is_accepted(self) -> bool {
        matches!(self, Cause::RequestAccepted)
    }
}

/// Fully-qualified tunnel endpoint identifier: interface type, TEID and
/// an IPv4 address (the testbed is v4-only, as OpenEPC's was).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fteid {
    /// Interface type (e.g. 10 = S11 MME, 11 = S11/S4 SGW, 0 = S1-U eNB).
    pub iface: u8,
    pub teid: u32,
    pub ipv4: [u8; 4],
}

/// S11 interface types used here.
pub mod iface_type {
    pub const S1U_ENODEB: u8 = 0;
    pub const S1U_SGW: u8 = 1;
    pub const S11_MME: u8 = 10;
    pub const S11_SGW: u8 = 11;
}

/// Aggregate maximum bit rate, uplink/downlink in kbit/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ambr {
    pub uplink_kbps: u32,
    pub downlink_kbps: u32,
}

/// Bearer-level QoS: QCI plus MBR/GBR (flattened subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BearerQos {
    pub qci: u8,
    pub arp_priority: u8,
}

/// A bearer context group IE: EPS bearer id, optional F-TEIDs and QoS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BearerContext {
    pub ebi: u8,
    pub s1u_enodeb_fteid: Option<Fteid>,
    pub s1u_sgw_fteid: Option<Fteid>,
    pub qos: Option<BearerQos>,
    pub cause: Option<Cause>,
}

impl BearerContext {
    pub fn new(ebi: u8) -> Self {
        BearerContext {
            ebi,
            s1u_enodeb_fteid: None,
            s1u_sgw_fteid: None,
            qos: None,
            cause: None,
        }
    }
}

/// One decoded IE.
#[derive(Debug, Clone, PartialEq)]
pub enum Ie {
    Imsi(String),
    Cause(Cause),
    Recovery(u8),
    Apn(String),
    Ambr(Ambr),
    Ebi(u8),
    Msisdn(String),
    /// PDN address allocation (IPv4 only).
    Paa([u8; 4]),
    BearerQos(BearerQos),
    Fteid {
        instance: u8,
        fteid: Fteid,
    },
    BearerContext(BearerContext),
    /// Unknown IE preserved verbatim.
    Unknown {
        ie_type: u8,
        instance: u8,
        data: Bytes,
    },
}

/// Encode digits as TBCD (two digits per byte, low nibble first, 0xf pad).
fn encode_tbcd(digits: &str, w: &mut Writer) {
    let d: Vec<u8> = digits
        .bytes()
        .filter(|b| b.is_ascii_digit())
        .map(|b| b - b'0')
        .collect();
    for pair in d.chunks(2) {
        let lo = pair[0];
        let hi = if pair.len() == 2 { pair[1] } else { 0xf };
        w.u8((hi << 4) | lo);
    }
}

/// Decode TBCD digits.
fn decode_tbcd(data: &[u8]) -> String {
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

impl Ie {
    fn type_and_instance(&self) -> (u8, u8) {
        match self {
            Ie::Imsi(_) => (ie_type::IMSI, 0),
            Ie::Cause(_) => (ie_type::CAUSE, 0),
            Ie::Recovery(_) => (ie_type::RECOVERY, 0),
            Ie::Apn(_) => (ie_type::APN, 0),
            Ie::Ambr(_) => (ie_type::AMBR, 0),
            Ie::Ebi(_) => (ie_type::EBI, 0),
            Ie::Msisdn(_) => (ie_type::MSISDN, 0),
            Ie::Paa(_) => (ie_type::PAA, 0),
            Ie::BearerQos(_) => (ie_type::BEARER_QOS, 0),
            Ie::Fteid { instance, .. } => (ie_type::FTEID, *instance),
            Ie::BearerContext(_) => (ie_type::BEARER_CONTEXT, 0),
            Ie::Unknown { ie_type, instance, .. } => (*ie_type, *instance),
        }
    }

    /// Encode this IE (header + value) into `w`.
    pub fn encode(&self, w: &mut Writer) {
        let (ty, instance) = self.type_and_instance();
        let mut body = Writer::new();
        match self {
            Ie::Imsi(digits) | Ie::Msisdn(digits) => encode_tbcd(digits, &mut body),
            Ie::Cause(c) => {
                body.u8(c.code());
                body.u8(0); // flags: no PCE/BCE/CS
            }
            Ie::Recovery(counter) => body.u8(*counter),
            Ie::Apn(apn) => body.slice(apn.as_bytes()),
            Ie::Ambr(a) => {
                body.u32(a.uplink_kbps);
                body.u32(a.downlink_kbps);
            }
            Ie::Ebi(ebi) => body.u8(ebi & 0x0f),
            Ie::Paa(addr) => {
                body.u8(1); // PDN type IPv4
                body.slice(addr);
            }
            Ie::BearerQos(q) => {
                body.u8(q.arp_priority);
                body.u8(q.qci);
            }
            Ie::Fteid { fteid, .. } => {
                // V4 flag (bit 8) | interface type.
                body.u8(0x80 | (fteid.iface & 0x3f));
                body.u32(fteid.teid);
                body.slice(&fteid.ipv4);
            }
            Ie::BearerContext(bc) => {
                body.slice(&encode_bearer_context(bc));
            }
            Ie::Unknown { data, .. } => body.slice(data),
        }
        let value = body.finish();
        w.u8(ty);
        w.u16(value.len() as u16);
        w.u8(instance & 0x0f);
        w.slice(&value);
    }

    /// Decode one IE from the reader.
    pub fn decode(r: &mut Reader) -> Result<Ie, DecodeError> {
        let ty = r.u8("ie type")?;
        let len = r.u16("ie length")? as usize;
        let instance = r.u8("ie instance")? & 0x0f;
        let data = r.bytes("ie value", len)?;
        let mut vr = Reader::new(data.clone());
        Ok(match ty {
            ie_type::IMSI => Ie::Imsi(decode_tbcd(&data)),
            ie_type::MSISDN => Ie::Msisdn(decode_tbcd(&data)),
            ie_type::CAUSE => {
                let code = vr.u8("cause code")?;
                Ie::Cause(Cause::from_code(code))
            }
            ie_type::RECOVERY => Ie::Recovery(vr.u8("recovery counter")?),
            ie_type::APN => Ie::Apn(String::from_utf8_lossy(&data).into_owned()),
            ie_type::AMBR => Ie::Ambr(Ambr {
                uplink_kbps: vr.u32("ambr ul")?,
                downlink_kbps: vr.u32("ambr dl")?,
            }),
            ie_type::EBI => Ie::Ebi(vr.u8("ebi")? & 0x0f),
            ie_type::PAA => {
                let pdn_type = vr.u8("paa pdn type")?;
                if pdn_type != 1 {
                    return Err(DecodeError::Invalid {
                        what: "paa pdn type (only IPv4 supported)",
                        value: pdn_type as u64,
                    });
                }
                Ie::Paa(vr.array("paa v4 addr")?)
            }
            ie_type::BEARER_QOS => Ie::BearerQos(BearerQos {
                arp_priority: vr.u8("arp")?,
                qci: vr.u8("qci")?,
            }),
            ie_type::FTEID => {
                let flags = vr.u8("fteid flags")?;
                if flags & 0x80 == 0 {
                    return Err(DecodeError::Invalid {
                        what: "fteid without v4 flag",
                        value: flags as u64,
                    });
                }
                Ie::Fteid {
                    instance,
                    fteid: Fteid {
                        iface: flags & 0x3f,
                        teid: vr.u32("teid")?,
                        ipv4: vr.array("fteid v4 addr")?,
                    },
                }
            }
            ie_type::BEARER_CONTEXT => Ie::BearerContext(decode_bearer_context(data)?),
            _ => Ie::Unknown {
                ie_type: ty,
                instance,
                data,
            },
        })
    }
}

fn encode_bearer_context(bc: &BearerContext) -> Bytes {
    let mut w = Writer::new();
    Ie::Ebi(bc.ebi).encode(&mut w);
    if let Some(f) = bc.s1u_enodeb_fteid {
        Ie::Fteid { instance: 0, fteid: f }.encode(&mut w);
    }
    if let Some(f) = bc.s1u_sgw_fteid {
        Ie::Fteid { instance: 1, fteid: f }.encode(&mut w);
    }
    if let Some(q) = bc.qos {
        Ie::BearerQos(q).encode(&mut w);
    }
    if let Some(c) = bc.cause {
        Ie::Cause(c).encode(&mut w);
    }
    w.finish()
}

fn decode_bearer_context(data: Bytes) -> Result<BearerContext, DecodeError> {
    let mut r = Reader::new(data);
    let mut bc = BearerContext::new(0);
    let mut saw_ebi = false;
    while r.remaining() > 0 {
        match Ie::decode(&mut r)? {
            Ie::Ebi(e) => {
                bc.ebi = e;
                saw_ebi = true;
            }
            Ie::Fteid { instance: 0, fteid } => bc.s1u_enodeb_fteid = Some(fteid),
            Ie::Fteid { instance: 1, fteid } => bc.s1u_sgw_fteid = Some(fteid),
            Ie::BearerQos(q) => bc.qos = Some(q),
            Ie::Cause(c) => bc.cause = Some(c),
            _ => {} // tolerate and drop nested unknowns
        }
    }
    if !saw_ebi {
        return Err(DecodeError::MissingIe {
            msg: "BearerContext",
            ie: "EBI",
        });
    }
    Ok(bc)
}

/// Decode all IEs until the reader is exhausted.
pub fn decode_all(r: &mut Reader) -> Result<Vec<Ie>, DecodeError> {
    let mut out = Vec::new();
    while r.remaining() > 0 {
        out.push(Ie::decode(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ie: &Ie) -> Ie {
        let mut w = Writer::new();
        ie.encode(&mut w);
        let mut r = Reader::new(w.finish());
        let back = Ie::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn imsi_tbcd_roundtrip() {
        // Odd digit count exercises the 0xf filler nibble.
        let back = roundtrip(&Ie::Imsi("310170123456789".into()));
        assert_eq!(back, Ie::Imsi("310170123456789".into()));
        let back = roundtrip(&Ie::Imsi("1234".into()));
        assert_eq!(back, Ie::Imsi("1234".into()));
    }

    #[test]
    fn cause_codes() {
        assert!(Cause::RequestAccepted.is_accepted());
        assert!(!Cause::ContextNotFound.is_accepted());
        assert_eq!(Cause::from_code(16), Cause::RequestAccepted);
        assert_eq!(Cause::from_code(99), Cause::Other(99));
        assert_eq!(Cause::Other(99).code(), 99);
        assert_eq!(roundtrip(&Ie::Cause(Cause::SystemFailure)), Ie::Cause(Cause::SystemFailure));
    }

    #[test]
    fn fteid_roundtrip_both_instances() {
        for instance in [0u8, 1] {
            let ie = Ie::Fteid {
                instance,
                fteid: Fteid {
                    iface: iface_type::S11_MME,
                    teid: 0xdead_beef,
                    ipv4: [10, 0, 0, 1],
                },
            };
            assert_eq!(roundtrip(&ie), ie);
        }
    }

    #[test]
    fn bearer_context_roundtrip() {
        let bc = BearerContext {
            ebi: 5,
            s1u_enodeb_fteid: Some(Fteid {
                iface: iface_type::S1U_ENODEB,
                teid: 111,
                ipv4: [192, 168, 1, 2],
            }),
            s1u_sgw_fteid: Some(Fteid {
                iface: iface_type::S1U_SGW,
                teid: 222,
                ipv4: [192, 168, 1, 3],
            }),
            qos: Some(BearerQos { qci: 9, arp_priority: 8 }),
            cause: Some(Cause::RequestAccepted),
        };
        assert_eq!(roundtrip(&Ie::BearerContext(bc.clone())), Ie::BearerContext(bc));
    }

    #[test]
    fn bearer_context_without_ebi_rejected() {
        let mut w = Writer::new();
        Ie::Cause(Cause::RequestAccepted).encode(&mut w);
        let inner = w.finish();
        let mut outer = Writer::new();
        outer.u8(ie_type::BEARER_CONTEXT);
        outer.u16(inner.len() as u16);
        outer.u8(0);
        outer.slice(&inner);
        let err = Ie::decode(&mut Reader::new(outer.finish())).unwrap_err();
        assert!(matches!(err, DecodeError::MissingIe { ie: "EBI", .. }));
    }

    #[test]
    fn unknown_ie_preserved() {
        let ie = Ie::Unknown {
            ie_type: 200,
            instance: 3,
            data: Bytes::from_static(&[1, 2, 3]),
        };
        assert_eq!(roundtrip(&ie), ie);
    }

    #[test]
    fn paa_rejects_non_ipv4() {
        let mut w = Writer::new();
        w.u8(ie_type::PAA);
        w.u16(17);
        w.u8(0);
        w.u8(2); // IPv6
        w.slice(&[0u8; 16]);
        let err = Ie::decode(&mut Reader::new(w.finish())).unwrap_err();
        assert!(matches!(err, DecodeError::Invalid { .. }));
    }

    #[test]
    fn decode_all_consumes_everything() {
        let mut w = Writer::new();
        Ie::Ebi(5).encode(&mut w);
        Ie::Recovery(17).encode(&mut w);
        Ie::Apn("internet.mnc017.mcc310".into()).encode(&mut w);
        let ies = decode_all(&mut Reader::new(w.finish())).unwrap();
        assert_eq!(ies.len(), 3);
        assert_eq!(ies[0], Ie::Ebi(5));
        assert_eq!(ies[2], Ie::Apn("internet.mnc017.mcc310".into()));
    }
}
