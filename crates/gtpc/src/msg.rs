//! GTPv2-C messages for the S11 interface (TS 29.274 §7).
//!
//! The MME drives the S-GW with these messages on every attach
//! (Create Session), Idle→Active transition (Modify Bearer), Active→Idle
//! transition (Release Access Bearers), detach (Delete Session) and
//! downlink-triggered paging (Downlink Data Notification). SCALE's MLB
//! exposes this interface unchanged to the S-GW (§4.1), and each MMP
//! embeds its VM id in the S11 tunnel id so the MLB can route follow-up
//! messages to the active MMP (§5, "Load Balancing").

use crate::ie::{decode_all, Ambr, BearerContext, Cause, Fteid, Ie};
use crate::wire::{DecodeError, Reader, Writer};
use bytes::Bytes;

/// Message type codes (TS 29.274 table 6.1-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    EchoRequest = 1,
    EchoResponse = 2,
    CreateSessionRequest = 32,
    CreateSessionResponse = 33,
    ModifyBearerRequest = 34,
    ModifyBearerResponse = 35,
    DeleteSessionRequest = 36,
    DeleteSessionResponse = 37,
    ReleaseAccessBearersRequest = 170,
    ReleaseAccessBearersResponse = 171,
    DownlinkDataNotification = 176,
    DownlinkDataNotificationAck = 177,
}

impl MsgType {
    pub fn from_code(v: u8) -> Option<Self> {
        Some(match v {
            1 => MsgType::EchoRequest,
            2 => MsgType::EchoResponse,
            32 => MsgType::CreateSessionRequest,
            33 => MsgType::CreateSessionResponse,
            34 => MsgType::ModifyBearerRequest,
            35 => MsgType::ModifyBearerResponse,
            36 => MsgType::DeleteSessionRequest,
            37 => MsgType::DeleteSessionResponse,
            170 => MsgType::ReleaseAccessBearersRequest,
            171 => MsgType::ReleaseAccessBearersResponse,
            176 => MsgType::DownlinkDataNotification,
            177 => MsgType::DownlinkDataNotificationAck,
            _ => return None,
        })
    }
}

/// A GTPv2-C message: header plus typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Tunnel endpoint id of the *receiving* end (0 on initial messages).
    pub teid: u32,
    /// Transaction sequence number (24 bits on the wire).
    pub sequence: u32,
    pub body: Body,
}

/// Typed message bodies. Field selection follows the procedures the MME
/// actually runs; every body round-trips through the wire format.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    EchoRequest {
        recovery: u8,
    },
    EchoResponse {
        recovery: u8,
    },
    /// MME → S-GW at attach: create the default bearer.
    CreateSessionRequest {
        imsi: String,
        apn: String,
        sender_fteid: Fteid,
        ambr: Ambr,
        bearer: BearerContext,
    },
    CreateSessionResponse {
        cause: Cause,
        sender_fteid: Option<Fteid>,
        paa: Option<[u8; 4]>,
        bearer: Option<BearerContext>,
    },
    /// MME → S-GW at Idle→Active: install the eNodeB's S1-U endpoint.
    ModifyBearerRequest {
        bearer: BearerContext,
    },
    ModifyBearerResponse {
        cause: Cause,
        bearer: Option<BearerContext>,
    },
    DeleteSessionRequest {
        ebi: u8,
    },
    DeleteSessionResponse {
        cause: Cause,
    },
    /// MME → S-GW at Active→Idle: drop the eNodeB-side data path.
    ReleaseAccessBearersRequest,
    ReleaseAccessBearersResponse {
        cause: Cause,
    },
    /// S-GW → MME: downlink packet arrived for an Idle device (triggers
    /// the paging procedure, §2 (c)).
    DownlinkDataNotification {
        ebi: u8,
    },
    DownlinkDataNotificationAck {
        cause: Cause,
    },
}

impl Body {
    pub fn msg_type(&self) -> MsgType {
        match self {
            Body::EchoRequest { .. } => MsgType::EchoRequest,
            Body::EchoResponse { .. } => MsgType::EchoResponse,
            Body::CreateSessionRequest { .. } => MsgType::CreateSessionRequest,
            Body::CreateSessionResponse { .. } => MsgType::CreateSessionResponse,
            Body::ModifyBearerRequest { .. } => MsgType::ModifyBearerRequest,
            Body::ModifyBearerResponse { .. } => MsgType::ModifyBearerResponse,
            Body::DeleteSessionRequest { .. } => MsgType::DeleteSessionRequest,
            Body::DeleteSessionResponse { .. } => MsgType::DeleteSessionResponse,
            Body::ReleaseAccessBearersRequest => MsgType::ReleaseAccessBearersRequest,
            Body::ReleaseAccessBearersResponse { .. } => MsgType::ReleaseAccessBearersResponse,
            Body::DownlinkDataNotification { .. } => MsgType::DownlinkDataNotification,
            Body::DownlinkDataNotificationAck { .. } => MsgType::DownlinkDataNotificationAck,
        }
    }

    fn encode_ies(&self, w: &mut Writer) {
        match self {
            Body::EchoRequest { recovery } | Body::EchoResponse { recovery } => {
                Ie::Recovery(*recovery).encode(w);
            }
            Body::CreateSessionRequest {
                imsi,
                apn,
                sender_fteid,
                ambr,
                bearer,
            } => {
                Ie::Imsi(imsi.clone()).encode(w);
                Ie::Apn(apn.clone()).encode(w);
                Ie::Fteid {
                    instance: 0,
                    fteid: *sender_fteid,
                }
                .encode(w);
                Ie::Ambr(*ambr).encode(w);
                Ie::BearerContext(bearer.clone()).encode(w);
            }
            Body::CreateSessionResponse {
                cause,
                sender_fteid,
                paa,
                bearer,
            } => {
                Ie::Cause(*cause).encode(w);
                if let Some(f) = sender_fteid {
                    Ie::Fteid {
                        instance: 0,
                        fteid: *f,
                    }
                    .encode(w);
                }
                if let Some(p) = paa {
                    Ie::Paa(*p).encode(w);
                }
                if let Some(b) = bearer {
                    Ie::BearerContext(b.clone()).encode(w);
                }
            }
            Body::ModifyBearerRequest { bearer } => {
                Ie::BearerContext(bearer.clone()).encode(w);
            }
            Body::ModifyBearerResponse { cause, bearer } => {
                Ie::Cause(*cause).encode(w);
                if let Some(b) = bearer {
                    Ie::BearerContext(b.clone()).encode(w);
                }
            }
            Body::DeleteSessionRequest { ebi } | Body::DownlinkDataNotification { ebi } => {
                Ie::Ebi(*ebi).encode(w);
            }
            Body::DeleteSessionResponse { cause }
            | Body::ReleaseAccessBearersResponse { cause }
            | Body::DownlinkDataNotificationAck { cause } => {
                Ie::Cause(*cause).encode(w);
            }
            Body::ReleaseAccessBearersRequest => {}
        }
    }

    fn decode_ies(ty: MsgType, ies: Vec<Ie>) -> Result<Body, DecodeError> {
        let mut imsi = None;
        let mut apn = None;
        let mut cause = None;
        let mut recovery = None;
        let mut ambr = None;
        let mut ebi = None;
        let mut paa = None;
        let mut fteid0 = None;
        let mut bearer = None;
        for ie in ies {
            match ie {
                Ie::Imsi(v) => imsi = Some(v),
                Ie::Apn(v) => apn = Some(v),
                Ie::Cause(v) => cause = Some(v),
                Ie::Recovery(v) => recovery = Some(v),
                Ie::Ambr(v) => ambr = Some(v),
                Ie::Ebi(v) => ebi = Some(v),
                Ie::Paa(v) => paa = Some(v),
                Ie::Fteid { instance: 0, fteid } => fteid0 = Some(fteid),
                Ie::BearerContext(v) => bearer = Some(v),
                _ => {}
            }
        }
        macro_rules! require {
            ($opt:expr, $msg:literal, $ie:literal) => {
                $opt.ok_or(DecodeError::MissingIe { msg: $msg, ie: $ie })?
            };
        }
        Ok(match ty {
            MsgType::EchoRequest => Body::EchoRequest {
                recovery: require!(recovery, "EchoRequest", "Recovery"),
            },
            MsgType::EchoResponse => Body::EchoResponse {
                recovery: require!(recovery, "EchoResponse", "Recovery"),
            },
            MsgType::CreateSessionRequest => Body::CreateSessionRequest {
                imsi: require!(imsi, "CreateSessionRequest", "IMSI"),
                apn: require!(apn, "CreateSessionRequest", "APN"),
                sender_fteid: require!(fteid0, "CreateSessionRequest", "Sender F-TEID"),
                ambr: require!(ambr, "CreateSessionRequest", "AMBR"),
                bearer: require!(bearer, "CreateSessionRequest", "BearerContext"),
            },
            MsgType::CreateSessionResponse => Body::CreateSessionResponse {
                cause: require!(cause, "CreateSessionResponse", "Cause"),
                sender_fteid: fteid0,
                paa,
                bearer,
            },
            MsgType::ModifyBearerRequest => Body::ModifyBearerRequest {
                bearer: require!(bearer, "ModifyBearerRequest", "BearerContext"),
            },
            MsgType::ModifyBearerResponse => Body::ModifyBearerResponse {
                cause: require!(cause, "ModifyBearerResponse", "Cause"),
                bearer,
            },
            MsgType::DeleteSessionRequest => Body::DeleteSessionRequest {
                ebi: require!(ebi, "DeleteSessionRequest", "EBI"),
            },
            MsgType::DeleteSessionResponse => Body::DeleteSessionResponse {
                cause: require!(cause, "DeleteSessionResponse", "Cause"),
            },
            MsgType::ReleaseAccessBearersRequest => Body::ReleaseAccessBearersRequest,
            MsgType::ReleaseAccessBearersResponse => Body::ReleaseAccessBearersResponse {
                cause: require!(cause, "ReleaseAccessBearersResponse", "Cause"),
            },
            MsgType::DownlinkDataNotification => Body::DownlinkDataNotification {
                ebi: require!(ebi, "DownlinkDataNotification", "EBI"),
            },
            MsgType::DownlinkDataNotificationAck => Body::DownlinkDataNotificationAck {
                cause: require!(cause, "DownlinkDataNotificationAck", "Cause"),
            },
        })
    }
}

impl Message {
    /// Encode to the wire: GTPv2 header (version 2, T flag set) + IEs.
    pub fn encode(&self) -> Bytes {
        let mut ies = Writer::new();
        self.body.encode_ies(&mut ies);
        let ies = ies.finish();
        let mut w = Writer::new();
        // Flags: version=2 (bits 6-8), P=0, T=1.
        w.u8(0x48);
        w.u8(self.body.msg_type() as u8);
        // Length counts everything after the length field: TEID(4) + seq(3)
        // + spare(1) + IEs.
        w.u16((8 + ies.len()) as u16);
        w.u32(self.teid);
        w.u24(self.sequence & 0x00ff_ffff);
        w.u8(0);
        w.slice(&ies);
        w.finish()
    }

    /// Decode from the wire.
    pub fn decode(buf: Bytes) -> Result<Message, DecodeError> {
        let mut r = Reader::new(buf);
        let flags = r.u8("gtp flags")?;
        if flags >> 5 != 2 {
            return Err(DecodeError::Invalid {
                what: "gtp version",
                value: (flags >> 5) as u64,
            });
        }
        if flags & 0x08 == 0 {
            return Err(DecodeError::Invalid {
                what: "gtp T flag (TEID required)",
                value: flags as u64,
            });
        }
        let ty_code = r.u8("gtp message type")?;
        let ty = MsgType::from_code(ty_code).ok_or(DecodeError::Invalid {
            what: "gtp message type",
            value: ty_code as u64,
        })?;
        let len = r.u16("gtp length")? as usize;
        if len < 8 {
            return Err(DecodeError::Invalid {
                what: "gtp length",
                value: len as u64,
            });
        }
        r.need("gtp body", len)?;
        let teid = r.u32("teid")?;
        let sequence = r.u24("sequence")?;
        let _spare = r.u8("spare")?;
        let ies_bytes = r.bytes("ies", len - 8)?;
        let ies = decode_all(&mut Reader::new(ies_bytes))?;
        Ok(Message {
            teid,
            sequence,
            body: Body::decode_ies(ty, ies)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::{iface_type, BearerQos};

    fn roundtrip(msg: &Message) {
        let bytes = msg.encode();
        let back = Message::decode(bytes).unwrap();
        assert_eq!(&back, msg);
    }

    fn sample_bearer() -> BearerContext {
        BearerContext {
            ebi: 5,
            s1u_enodeb_fteid: None,
            s1u_sgw_fteid: Some(Fteid {
                iface: iface_type::S1U_SGW,
                teid: 42,
                ipv4: [10, 0, 0, 9],
            }),
            qos: Some(BearerQos {
                qci: 9,
                arp_priority: 12,
            }),
            cause: None,
        }
    }

    #[test]
    fn create_session_roundtrip() {
        roundtrip(&Message {
            teid: 0,
            sequence: 77,
            body: Body::CreateSessionRequest {
                imsi: "310170123456789".into(),
                apn: "internet".into(),
                sender_fteid: Fteid {
                    iface: iface_type::S11_MME,
                    teid: 0x0100_0007,
                    ipv4: [10, 0, 0, 1],
                },
                ambr: Ambr {
                    uplink_kbps: 50_000,
                    downlink_kbps: 150_000,
                },
                bearer: sample_bearer(),
            },
        });
    }

    #[test]
    fn create_session_response_roundtrip() {
        roundtrip(&Message {
            teid: 0x0100_0007,
            sequence: 77,
            body: Body::CreateSessionResponse {
                cause: Cause::RequestAccepted,
                sender_fteid: Some(Fteid {
                    iface: iface_type::S11_SGW,
                    teid: 900,
                    ipv4: [10, 0, 0, 2],
                }),
                paa: Some([100, 64, 0, 1]),
                bearer: Some(sample_bearer()),
            },
        });
    }

    #[test]
    fn all_simple_bodies_roundtrip() {
        for body in [
            Body::EchoRequest { recovery: 3 },
            Body::EchoResponse { recovery: 3 },
            Body::ModifyBearerRequest {
                bearer: sample_bearer(),
            },
            Body::ModifyBearerResponse {
                cause: Cause::RequestAccepted,
                bearer: None,
            },
            Body::DeleteSessionRequest { ebi: 5 },
            Body::DeleteSessionResponse {
                cause: Cause::RequestAccepted,
            },
            Body::ReleaseAccessBearersRequest,
            Body::ReleaseAccessBearersResponse {
                cause: Cause::RequestAccepted,
            },
            Body::DownlinkDataNotification { ebi: 5 },
            Body::DownlinkDataNotificationAck {
                cause: Cause::RequestAccepted,
            },
        ] {
            roundtrip(&Message {
                teid: 1,
                sequence: 2,
                body,
            });
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let msg = Message {
            teid: 1,
            sequence: 2,
            body: Body::EchoRequest { recovery: 0 },
        };
        let mut bytes = msg.encode().to_vec();
        bytes[0] = 0x28; // version 1
        let err = Message::decode(Bytes::from(bytes)).unwrap_err();
        assert!(matches!(err, DecodeError::Invalid { what: "gtp version", .. }));
    }

    #[test]
    fn rejects_unknown_type() {
        let msg = Message {
            teid: 1,
            sequence: 2,
            body: Body::EchoRequest { recovery: 0 },
        };
        let mut bytes = msg.encode().to_vec();
        bytes[1] = 250;
        assert!(Message::decode(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn rejects_missing_mandatory_ie() {
        // DeleteSessionRequest without EBI.
        let mut w = Writer::new();
        w.u8(0x48);
        w.u8(MsgType::DeleteSessionRequest as u8);
        w.u16(8);
        w.u32(1);
        w.u24(2);
        w.u8(0);
        let err = Message::decode(w.finish()).unwrap_err();
        assert!(matches!(err, DecodeError::MissingIe { .. }));
    }

    #[test]
    fn sequence_is_24_bit() {
        let msg = Message {
            teid: 1,
            sequence: 0x01ff_ffff, // top byte must be masked off
            body: Body::EchoRequest { recovery: 0 },
        };
        let back = Message::decode(msg.encode()).unwrap();
        assert_eq!(back.sequence, 0x00ff_ffff);
    }

    #[test]
    fn truncated_header_errors() {
        let err = Message::decode(Bytes::from_static(&[0x48, 1])).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }
}
