//! EMM (EPS Mobility Management) messages — TS 24.301 §8, simplified to
//! a byte-aligned TLV encoding but with the spec's message set, type
//! codes and field semantics.
//!
//! These are the messages whose processing cost the paper measures:
//! attach, service request and tracking-area update dominate MME load
//! (§2 "MME Procedures"), and the delay of each is what every figure of
//! the evaluation reports.

use crate::ids::{Guti, MobileId, Tai};
use crate::wire::{NasError, Reader, Writer};
use bytes::Bytes;

/// EMM protocol discriminator (TS 24.007).
pub const PD_EMM: u8 = 0x07;

/// EMM cause values (subset of TS 24.301 annex A).
pub mod emm_cause {
    pub const IMSI_UNKNOWN_IN_HSS: u8 = 2;
    pub const ILLEGAL_UE: u8 = 3;
    pub const EPS_NOT_ALLOWED: u8 = 7;
    pub const UE_IDENTITY_UNKNOWN: u8 = 9;
    pub const NETWORK_FAILURE: u8 = 17;
    pub const CONGESTION: u8 = 22;
    pub const MAC_FAILURE: u8 = 20;
    pub const SYNCH_FAILURE: u8 = 21;
}

/// IEI of the Authentication failure parameter (AUTS) in an
/// Authentication Failure (TS 24.301 §8.2.5).
const AUTH_FAILURE_PARAM_IEI: u8 = 0x30;

/// EMM message type codes (TS 24.301 table 9.8.1).
pub mod msg_type {
    pub const ATTACH_REQUEST: u8 = 0x41;
    pub const ATTACH_ACCEPT: u8 = 0x42;
    pub const ATTACH_COMPLETE: u8 = 0x43;
    pub const ATTACH_REJECT: u8 = 0x44;
    pub const DETACH_REQUEST: u8 = 0x45;
    pub const DETACH_ACCEPT: u8 = 0x46;
    pub const TAU_REQUEST: u8 = 0x48;
    pub const TAU_ACCEPT: u8 = 0x49;
    pub const TAU_COMPLETE: u8 = 0x4a;
    pub const TAU_REJECT: u8 = 0x4b;
    pub const SERVICE_REQUEST: u8 = 0x4d;
    pub const SERVICE_REJECT: u8 = 0x4e;
    pub const AUTHENTICATION_REQUEST: u8 = 0x52;
    pub const AUTHENTICATION_RESPONSE: u8 = 0x53;
    pub const AUTHENTICATION_REJECT: u8 = 0x54;
    pub const AUTHENTICATION_FAILURE: u8 = 0x5c;
    pub const SECURITY_MODE_COMMAND: u8 = 0x5d;
    pub const SECURITY_MODE_COMPLETE: u8 = 0x5e;
    pub const SECURITY_MODE_REJECT: u8 = 0x5f;
    pub const EMM_STATUS: u8 = 0x60;
}

/// A plain (not security-protected) EMM message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmmMessage {
    /// UE → MME: initial registration (or re-attach from Idle with GUTI).
    AttachRequest {
        /// EPS attach type (1 = EPS attach).
        attach_type: u8,
        id: MobileId,
        /// Last visited TAI, drives TA-list assignment.
        tai: Tai,
    },
    /// MME → UE: attach succeeded; carries the allocated GUTI, TA list
    /// and (folded-in, as the default-bearer ESM payload) the PDN address.
    AttachAccept {
        guti: Guti,
        tai_list: Vec<Tai>,
        /// Periodic TAU timer T3412, seconds.
        t3412_s: u32,
        /// Default EPS bearer id.
        ebi: u8,
        apn: String,
        /// PDN IPv4 address.
        pdn_addr: [u8; 4],
    },
    /// UE → MME: acknowledges GUTI reallocation.
    AttachComplete,
    AttachReject {
        cause: u8,
    },
    /// UE → MME: Idle→Active transition ("service request" in §2).
    /// The real message is the short format protected by a 2-byte
    /// short MAC; we keep the KSI+sequence+short-MAC structure.
    ServiceRequest {
        ksi: u8,
        seq: u8,
        short_mac: [u8; 2],
    },
    /// MME → UE: the Service Request cannot be served. Cause
    /// `UE_IDENTITY_UNKNOWN` (#9, "UE identity cannot be derived by the
    /// network") tells the device to drop its GUTI and security context
    /// and fall back to a fresh IMSI attach — the §4.6 recovery path
    /// when a failover loses an Active-mode context that was never
    /// replicated.
    ServiceReject {
        cause: u8,
    },
    /// MME → UE: EPS AKA challenge (RAND/AUTN from the HSS vector).
    AuthenticationRequest {
        ksi: u8,
        rand: [u8; 16],
        autn: [u8; 16],
    },
    /// UE → MME: RES computed by the USIM.
    AuthenticationResponse {
        res: [u8; 8],
    },
    AuthenticationReject,
    /// UE → MME: the USIM refused the challenge. A synch failure (#21)
    /// carries the Authentication failure parameter, AUTS =
    /// (SQN_MS ⊕ AK*) ‖ MAC-S (TS 24.301 §9.9.3.15, TS 33.102 §6.3.3).
    AuthenticationFailure {
        cause: u8,
        auts: Option<[u8; 14]>,
    },
    /// MME → UE: selects EEA/EIA algorithms, activates security context.
    SecurityModeCommand {
        ksi: u8,
        /// Selected ciphering algorithm (2 = EEA2).
        eea: u8,
        /// Selected integrity algorithm (2 = EIA2).
        eia: u8,
    },
    SecurityModeComplete,
    SecurityModeReject {
        cause: u8,
    },
    /// UE → MME: periodic or mobility TAU (§2, "TA updates").
    TauRequest {
        guti: Guti,
        tai: Tai,
    },
    TauAccept {
        t3412_s: u32,
        /// Optional GUTI reallocation.
        guti: Option<Guti>,
    },
    TauComplete,
    TauReject {
        cause: u8,
    },
    /// UE → MME: detach (power-off or explicit).
    DetachRequest {
        switch_off: bool,
        id: MobileId,
    },
    DetachAccept,
    EmmStatus {
        cause: u8,
    },
}

impl EmmMessage {
    /// The TS 24.301 message type code.
    pub fn msg_type(&self) -> u8 {
        use msg_type::*;
        match self {
            EmmMessage::AttachRequest { .. } => ATTACH_REQUEST,
            EmmMessage::AttachAccept { .. } => ATTACH_ACCEPT,
            EmmMessage::AttachComplete => ATTACH_COMPLETE,
            EmmMessage::AttachReject { .. } => ATTACH_REJECT,
            EmmMessage::ServiceRequest { .. } => SERVICE_REQUEST,
            EmmMessage::ServiceReject { .. } => SERVICE_REJECT,
            EmmMessage::AuthenticationRequest { .. } => AUTHENTICATION_REQUEST,
            EmmMessage::AuthenticationResponse { .. } => AUTHENTICATION_RESPONSE,
            EmmMessage::AuthenticationReject => AUTHENTICATION_REJECT,
            EmmMessage::AuthenticationFailure { .. } => AUTHENTICATION_FAILURE,
            EmmMessage::SecurityModeCommand { .. } => SECURITY_MODE_COMMAND,
            EmmMessage::SecurityModeComplete => SECURITY_MODE_COMPLETE,
            EmmMessage::SecurityModeReject { .. } => SECURITY_MODE_REJECT,
            EmmMessage::TauRequest { .. } => TAU_REQUEST,
            EmmMessage::TauAccept { .. } => TAU_ACCEPT,
            EmmMessage::TauComplete => TAU_COMPLETE,
            EmmMessage::TauReject { .. } => TAU_REJECT,
            EmmMessage::DetachRequest { .. } => DETACH_REQUEST,
            EmmMessage::DetachAccept => DETACH_ACCEPT,
            EmmMessage::EmmStatus { .. } => EMM_STATUS,
        }
    }

    /// Human-readable procedure name (used in logs and metrics labels).
    pub fn procedure(&self) -> &'static str {
        match self {
            EmmMessage::AttachRequest { .. }
            | EmmMessage::AttachAccept { .. }
            | EmmMessage::AttachComplete
            | EmmMessage::AttachReject { .. } => "attach",
            EmmMessage::ServiceRequest { .. } | EmmMessage::ServiceReject { .. } => {
                "service-request"
            }
            EmmMessage::AuthenticationRequest { .. }
            | EmmMessage::AuthenticationResponse { .. }
            | EmmMessage::AuthenticationReject
            | EmmMessage::AuthenticationFailure { .. } => "authentication",
            EmmMessage::SecurityModeCommand { .. }
            | EmmMessage::SecurityModeComplete
            | EmmMessage::SecurityModeReject { .. } => "security-mode",
            EmmMessage::TauRequest { .. }
            | EmmMessage::TauAccept { .. }
            | EmmMessage::TauComplete
            | EmmMessage::TauReject { .. } => "tau",
            EmmMessage::DetachRequest { .. } | EmmMessage::DetachAccept => "detach",
            EmmMessage::EmmStatus { .. } => "status",
        }
    }

    /// Encode as a plain NAS message: `PD/SHT || type || body`.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Append the plain encoding to `w` (the security wrapper encodes
    /// straight into its output buffer).
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.u8(PD_EMM); // security header type 0 (plain) in the high nibble
        w.u8(self.msg_type());
        self.encode_body(w);
    }

    pub(crate) fn encode_body(&self, w: &mut Writer) {
        match self {
            EmmMessage::AttachRequest {
                attach_type,
                id,
                tai,
            } => {
                w.u8(*attach_type);
                id.encode(w);
                tai.encode(w);
            }
            EmmMessage::AttachAccept {
                guti,
                tai_list,
                t3412_s,
                ebi,
                apn,
                pdn_addr,
            } => {
                guti.encode(w);
                w.u8(tai_list.len() as u8);
                for tai in tai_list {
                    tai.encode(w);
                }
                w.u32(*t3412_s);
                w.u8(*ebi);
                w.lv(apn.as_bytes());
                w.slice(pdn_addr);
            }
            EmmMessage::AttachComplete
            | EmmMessage::AuthenticationReject
            | EmmMessage::SecurityModeComplete
            | EmmMessage::TauComplete
            | EmmMessage::DetachAccept => {}
            EmmMessage::AuthenticationFailure { cause, auts } => {
                w.u8(*cause);
                if let Some(auts) = auts {
                    w.u8(AUTH_FAILURE_PARAM_IEI);
                    w.lv(auts);
                }
            }
            EmmMessage::AttachReject { cause }
            | EmmMessage::SecurityModeReject { cause }
            | EmmMessage::TauReject { cause }
            | EmmMessage::ServiceReject { cause }
            | EmmMessage::EmmStatus { cause } => w.u8(*cause),
            EmmMessage::ServiceRequest { ksi, seq, short_mac } => {
                w.u8(*ksi);
                w.u8(*seq);
                w.slice(short_mac);
            }
            EmmMessage::AuthenticationRequest { ksi, rand, autn } => {
                w.u8(*ksi);
                w.slice(rand);
                w.slice(autn);
            }
            EmmMessage::AuthenticationResponse { res } => w.slice(res),
            EmmMessage::SecurityModeCommand { ksi, eea, eia } => {
                w.u8(*ksi);
                w.u8(*eea);
                w.u8(*eia);
            }
            EmmMessage::TauRequest { guti, tai } => {
                guti.encode(w);
                tai.encode(w);
            }
            EmmMessage::TauAccept { t3412_s, guti } => {
                w.u32(*t3412_s);
                match guti {
                    Some(g) => {
                        w.u8(1);
                        g.encode(w);
                    }
                    None => w.u8(0),
                }
            }
            EmmMessage::DetachRequest { switch_off, id } => {
                w.u8(if *switch_off { 1 } else { 0 });
                id.encode(w);
            }
        }
    }

    /// Decode a plain NAS message. Fails on security-protected input
    /// (use [`crate::security::NasSecurityContext::unprotect`] there).
    pub fn decode(buf: Bytes) -> Result<EmmMessage, NasError> {
        let mut r = Reader::new(buf);
        let first = r.u8("nas first octet")?;
        if first & 0x0f != PD_EMM {
            return Err(NasError::Invalid {
                what: "protocol discriminator",
                value: (first & 0x0f) as u64,
            });
        }
        if first >> 4 != 0 {
            return Err(NasError::Invalid {
                what: "security header type on plain decode",
                value: (first >> 4) as u64,
            });
        }
        let ty = r.u8("emm message type")?;
        Self::decode_body(ty, &mut r)
    }

    pub(crate) fn decode_body(ty: u8, r: &mut Reader) -> Result<EmmMessage, NasError> {
        use msg_type::*;
        let msg = match ty {
            ATTACH_REQUEST => EmmMessage::AttachRequest {
                attach_type: r.u8("attach type")?,
                id: MobileId::decode(r)?,
                tai: Tai::decode(r)?,
            },
            ATTACH_ACCEPT => {
                let guti = Guti::decode(r)?;
                let n = r.u8("tai list len")? as usize;
                // Sized by what is there to decode, not by what the count claims.
                let mut tai_list = Vec::with_capacity(n.min(r.remaining() / Tai::WIRE_LEN));
                for _ in 0..n {
                    tai_list.push(Tai::decode(r)?);
                }
                EmmMessage::AttachAccept {
                    guti,
                    tai_list,
                    t3412_s: r.u32("t3412")?,
                    ebi: r.u8("ebi")?,
                    apn: r.lv_str("apn")?,
                    pdn_addr: r.array("pdn addr")?,
                }
            }
            ATTACH_COMPLETE => EmmMessage::AttachComplete,
            ATTACH_REJECT => EmmMessage::AttachReject {
                cause: r.u8("cause")?,
            },
            SERVICE_REQUEST => EmmMessage::ServiceRequest {
                ksi: r.u8("ksi")?,
                seq: r.u8("seq")?,
                short_mac: r.array("short mac")?,
            },
            SERVICE_REJECT => EmmMessage::ServiceReject {
                cause: r.u8("cause")?,
            },
            AUTHENTICATION_REQUEST => EmmMessage::AuthenticationRequest {
                ksi: r.u8("ksi")?,
                rand: r.array("rand")?,
                autn: r.array("autn")?,
            },
            AUTHENTICATION_RESPONSE => EmmMessage::AuthenticationResponse {
                res: r.array("res")?,
            },
            AUTHENTICATION_REJECT => EmmMessage::AuthenticationReject,
            AUTHENTICATION_FAILURE => {
                let cause = r.u8("cause")?;
                let auts = match r.remaining() {
                    0 => None,
                    _ => match r.u8("auth failure parameter iei")? {
                        AUTH_FAILURE_PARAM_IEI => {
                            let auts = r.lv("auts")?;
                            Some(auts[..].try_into().map_err(|_| NasError::Invalid {
                                what: "auts length",
                                value: auts.len() as u64,
                            })?)
                        }
                        iei => {
                            return Err(NasError::Invalid {
                                what: "authentication failure iei",
                                value: iei as u64,
                            })
                        }
                    },
                };
                EmmMessage::AuthenticationFailure { cause, auts }
            }
            SECURITY_MODE_COMMAND => EmmMessage::SecurityModeCommand {
                ksi: r.u8("ksi")?,
                eea: r.u8("eea")?,
                eia: r.u8("eia")?,
            },
            SECURITY_MODE_COMPLETE => EmmMessage::SecurityModeComplete,
            SECURITY_MODE_REJECT => EmmMessage::SecurityModeReject {
                cause: r.u8("cause")?,
            },
            TAU_REQUEST => EmmMessage::TauRequest {
                guti: Guti::decode(r)?,
                tai: Tai::decode(r)?,
            },
            TAU_ACCEPT => {
                let t3412_s = r.u32("t3412")?;
                let guti = match r.u8("guti present")? {
                    0 => None,
                    1 => Some(Guti::decode(r)?),
                    v => {
                        return Err(NasError::Invalid {
                            what: "guti present flag",
                            value: v as u64,
                        })
                    }
                };
                EmmMessage::TauAccept { t3412_s, guti }
            }
            TAU_COMPLETE => EmmMessage::TauComplete,
            TAU_REJECT => EmmMessage::TauReject {
                cause: r.u8("cause")?,
            },
            DETACH_REQUEST => EmmMessage::DetachRequest {
                switch_off: r.u8("switch off")? != 0,
                id: MobileId::decode(r)?,
            },
            DETACH_ACCEPT => EmmMessage::DetachAccept,
            EMM_STATUS => EmmMessage::EmmStatus {
                cause: r.u8("cause")?,
            },
            other => {
                return Err(NasError::Invalid {
                    what: "emm message type",
                    value: other as u64,
                })
            }
        };
        if r.remaining() != 0 {
            return Err(NasError::Invalid {
                what: "trailing bytes after emm message",
                value: r.remaining() as u64,
            });
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Plmn;

    fn sample_guti() -> Guti {
        Guti {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 3,
            m_tmsi: 0x00c0_ffee,
        }
    }

    fn sample_tai() -> Tai {
        Tai::new(Plmn::test(), 0x0101)
    }

    fn all_messages() -> Vec<EmmMessage> {
        vec![
            EmmMessage::AttachRequest {
                attach_type: 1,
                id: MobileId::Imsi("001010123456789".into()),
                tai: sample_tai(),
            },
            EmmMessage::AttachRequest {
                attach_type: 1,
                id: MobileId::Guti(sample_guti()),
                tai: sample_tai(),
            },
            EmmMessage::AttachAccept {
                guti: sample_guti(),
                tai_list: vec![sample_tai(), Tai::new(Plmn::test(), 0x0102)],
                t3412_s: 3240,
                ebi: 5,
                apn: "internet".into(),
                pdn_addr: [100, 64, 0, 1],
            },
            EmmMessage::AttachComplete,
            EmmMessage::AttachReject { cause: emm_cause::CONGESTION },
            EmmMessage::ServiceRequest { ksi: 1, seq: 12, short_mac: [0xab, 0xcd] },
            EmmMessage::ServiceReject { cause: emm_cause::UE_IDENTITY_UNKNOWN },
            EmmMessage::AuthenticationRequest { ksi: 1, rand: [1; 16], autn: [2; 16] },
            EmmMessage::AuthenticationResponse { res: [3; 8] },
            EmmMessage::AuthenticationReject,
            EmmMessage::AuthenticationFailure { cause: emm_cause::MAC_FAILURE, auts: None },
            EmmMessage::AuthenticationFailure {
                cause: emm_cause::SYNCH_FAILURE,
                auts: Some([9; 14]),
            },
            EmmMessage::SecurityModeCommand { ksi: 1, eea: 2, eia: 2 },
            EmmMessage::SecurityModeComplete,
            EmmMessage::SecurityModeReject { cause: 23 },
            EmmMessage::TauRequest { guti: sample_guti(), tai: sample_tai() },
            EmmMessage::TauAccept { t3412_s: 3240, guti: None },
            EmmMessage::TauAccept { t3412_s: 3240, guti: Some(sample_guti()) },
            EmmMessage::TauComplete,
            EmmMessage::TauReject { cause: 9 },
            EmmMessage::DetachRequest {
                switch_off: true,
                id: MobileId::Guti(sample_guti()),
            },
            EmmMessage::DetachAccept,
            EmmMessage::EmmStatus { cause: 97 },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let bytes = msg.encode();
            let back = EmmMessage::decode(bytes).unwrap_or_else(|e| {
                panic!("decode failed for {msg:?}: {e}");
            });
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn type_codes_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for msg in all_messages() {
            seen.insert(msg.msg_type());
        }
        // TauAccept appears twice (with/without GUTI), AttachRequest
        // twice (IMSI/GUTI) and AuthenticationFailure twice (with and
        // without AUTS), so unique codes = messages - 3.
        assert_eq!(seen.len(), all_messages().len() - 3);
    }

    #[test]
    fn rejects_wrong_pd() {
        let mut bytes = EmmMessage::AttachComplete.encode().to_vec();
        bytes[0] = 0x02; // ESM pd
        assert!(EmmMessage::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn rejects_protected_header_on_plain_decode() {
        let mut bytes = EmmMessage::AttachComplete.encode().to_vec();
        bytes[0] = 0x17; // integrity protected sht=1
        assert!(matches!(
            EmmMessage::decode(Bytes::from(bytes)).unwrap_err(),
            NasError::Invalid { what: "security header type on plain decode", .. }
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = EmmMessage::AttachComplete.encode().to_vec();
        bytes.push(0xff);
        assert!(EmmMessage::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn procedure_labels() {
        assert_eq!(
            EmmMessage::ServiceRequest { ksi: 0, seq: 0, short_mac: [0; 2] }.procedure(),
            "service-request"
        );
        assert_eq!(EmmMessage::TauComplete.procedure(), "tau");
    }
}
