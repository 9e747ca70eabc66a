//! Diameter header and the S6a command pairs the MME exchanges with the
//! HSS: Authentication-Information-Request/-Answer (AIR/AIA, code 318)
//! during attach, and Update-Location-Request/-Answer (ULR/ULA, code
//! 316) after successful authentication.

use crate::avp::{
    avp_code, decode_avps, find, require, result_code, Avp, DiameterError,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// S6a application id (TS 29.272).
pub const APP_S6A: u32 = 16777251;

/// Command codes.
pub const CMD_UPDATE_LOCATION: u32 = 316;
pub const CMD_AUTH_INFO: u32 = 318;

/// Header flag bits.
pub const FLAG_REQUEST: u8 = 0x80;
pub const FLAG_PROXYABLE: u8 = 0x40;

/// A raw Diameter message: header fields plus AVP list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiameterMsg {
    pub flags: u8,
    pub command: u32,
    pub app_id: u32,
    pub hop_by_hop: u32,
    pub end_to_end: u32,
    pub avps: Vec<Avp>,
}

impl DiameterMsg {
    pub fn is_request(&self) -> bool {
        self.flags & FLAG_REQUEST != 0
    }

    /// Encode to the RFC 6733 wire layout.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        for avp in &self.avps {
            avp.encode(&mut body);
        }
        let total = 20 + body.len();
        let mut buf = BytesMut::with_capacity(total);
        buf.put_u8(1); // version
        buf.put_u8((total >> 16) as u8);
        buf.put_u16(total as u16);
        buf.put_u8(self.flags);
        buf.put_u8((self.command >> 16) as u8);
        buf.put_u16(self.command as u16);
        buf.put_u32(self.app_id);
        buf.put_u32(self.hop_by_hop);
        buf.put_u32(self.end_to_end);
        buf.put_slice(&body);
        buf.freeze()
    }

    /// Decode from the wire.
    pub fn decode(mut buf: Bytes) -> Result<DiameterMsg, DiameterError> {
        if buf.remaining() < 20 {
            return Err(DiameterError::Truncated { what: "header" });
        }
        let version = buf.get_u8();
        if version != 1 {
            return Err(DiameterError::Invalid {
                what: "diameter version",
                value: version as u64,
            });
        }
        let len = ((buf.get_u8() as usize) << 16) | buf.get_u16() as usize;
        if len < 20 {
            return Err(DiameterError::Invalid {
                what: "diameter length",
                value: len as u64,
            });
        }
        let flags = buf.get_u8();
        let command = ((buf.get_u8() as u32) << 16) | buf.get_u16() as u32;
        let app_id = buf.get_u32();
        let hop_by_hop = buf.get_u32();
        let end_to_end = buf.get_u32();
        if buf.remaining() < len - 20 {
            return Err(DiameterError::Truncated { what: "avps" });
        }
        let avps = decode_avps(buf.copy_to_bytes(len - 20))?;
        Ok(DiameterMsg {
            flags,
            command,
            app_id,
            hop_by_hop,
            end_to_end,
            avps,
        })
    }
}

/// One E-UTRAN authentication vector as delivered by the HSS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EutranVector {
    pub rand: [u8; 16],
    pub xres: [u8; 8],
    pub autn: [u8; 16],
    pub kasme: [u8; 32],
}

impl EutranVector {
    fn to_avp(&self) -> Avp {
        Avp::grouped(
            avp_code::EUTRAN_VECTOR,
            true,
            &[
                Avp::tgpp(avp_code::RAND, Bytes::copy_from_slice(&self.rand)),
                Avp::tgpp(avp_code::XRES, Bytes::copy_from_slice(&self.xres)),
                Avp::tgpp(avp_code::AUTN, Bytes::copy_from_slice(&self.autn)),
                Avp::tgpp(avp_code::KASME, Bytes::copy_from_slice(&self.kasme)),
            ],
        )
    }

    fn from_avp(avp: &Avp) -> Result<Self, DiameterError> {
        let subs = avp.sub_avps()?;
        let fixed = |code: u32, what: &'static str| -> Result<Bytes, DiameterError> {
            Ok(require(&subs, code, "E-UTRAN-Vector")
                .map_err(|_| DiameterError::MissingAvp {
                    msg: "E-UTRAN-Vector",
                    avp: code,
                })?
                .data
                .clone())
            .and_then(|d| {
                if d.is_empty() {
                    Err(DiameterError::Invalid { what, value: 0 })
                } else {
                    Ok(d)
                }
            })
        };
        let arr16 = |b: &Bytes, what: &'static str| -> Result<[u8; 16], DiameterError> {
            b[..].try_into().map_err(|_| DiameterError::Invalid {
                what,
                value: b.len() as u64,
            })
        };
        let rand = arr16(&fixed(avp_code::RAND, "rand")?, "rand len")?;
        let autn = arr16(&fixed(avp_code::AUTN, "autn")?, "autn len")?;
        let xres_b = fixed(avp_code::XRES, "xres")?;
        let xres: [u8; 8] = xres_b[..].try_into().map_err(|_| DiameterError::Invalid {
            what: "xres len",
            value: xres_b.len() as u64,
        })?;
        let kasme_b = fixed(avp_code::KASME, "kasme")?;
        let kasme: [u8; 32] = kasme_b[..].try_into().map_err(|_| DiameterError::Invalid {
            what: "kasme len",
            value: kasme_b.len() as u64,
        })?;
        Ok(EutranVector {
            rand,
            xres,
            autn,
            kasme,
        })
    }
}

/// Typed S6a exchanges layered over [`DiameterMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S6a {
    /// MME → HSS: request `vectors` authentication vectors for `imsi`;
    /// after a USIM's synchronisation failure, `resync` carries the
    /// RAND it refused and its AUTS (TS 33.102 §6.3.5).
    AuthInfoRequest {
        imsi: String,
        visited_plmn: [u8; 3],
        vectors: u32,
        resync: Option<[u8; 30]>,
    },
    /// HSS → MME: vectors or an error result code.
    AuthInfoAnswer {
        result: u32,
        vectors: Vec<EutranVector>,
    },
    /// MME → HSS: register this MME as serving `imsi`.
    UpdateLocationRequest {
        imsi: String,
        visited_plmn: [u8; 3],
    },
    /// HSS → MME: subscription data (AMBR here) or an error.
    UpdateLocationAnswer {
        result: u32,
        ambr_ul_kbps: u32,
        ambr_dl_kbps: u32,
    },
}

impl S6a {
    /// Wrap into a [`DiameterMsg`] with the given hop-by-hop/end-to-end ids.
    pub fn into_msg(self, hop_by_hop: u32, end_to_end: u32) -> DiameterMsg {
        let (flags, command, avps) = match self {
            S6a::AuthInfoRequest {
                imsi,
                visited_plmn,
                vectors,
                resync,
            } => {
                let mut req = vec![Avp::tgpp_u32(avp_code::NUMBER_OF_REQUESTED_VECTORS, vectors)];
                if let Some(info) = resync {
                    req.push(Avp::tgpp(
                        avp_code::RE_SYNCHRONIZATION_INFO,
                        Bytes::copy_from_slice(&info),
                    ));
                }
                (
                    FLAG_REQUEST | FLAG_PROXYABLE,
                    CMD_AUTH_INFO,
                    vec![
                        Avp::utf8(avp_code::SESSION_ID, &format!("mme;{hop_by_hop}")),
                        Avp::utf8(avp_code::USER_NAME, &imsi),
                        Avp::tgpp(avp_code::VISITED_PLMN_ID, Bytes::copy_from_slice(&visited_plmn)),
                        Avp::grouped(avp_code::REQUESTED_EUTRAN_AUTH_INFO, true, &req),
                    ],
                )
            }
            S6a::AuthInfoAnswer { result, vectors } => {
                let mut avps = vec![Avp::u32(avp_code::RESULT_CODE, result)];
                if !vectors.is_empty() {
                    let vec_avps: Vec<Avp> = vectors.iter().map(|v| v.to_avp()).collect();
                    avps.push(Avp::grouped(avp_code::AUTHENTICATION_INFO, true, &vec_avps));
                }
                (FLAG_PROXYABLE, CMD_AUTH_INFO, avps)
            }
            S6a::UpdateLocationRequest { imsi, visited_plmn } => (
                FLAG_REQUEST | FLAG_PROXYABLE,
                CMD_UPDATE_LOCATION,
                vec![
                    Avp::utf8(avp_code::SESSION_ID, &format!("mme;{hop_by_hop}")),
                    Avp::utf8(avp_code::USER_NAME, &imsi),
                    Avp::tgpp(avp_code::VISITED_PLMN_ID, Bytes::copy_from_slice(&visited_plmn)),
                ],
            ),
            S6a::UpdateLocationAnswer {
                result,
                ambr_ul_kbps,
                ambr_dl_kbps,
            } => (
                FLAG_PROXYABLE,
                CMD_UPDATE_LOCATION,
                vec![
                    Avp::u32(avp_code::RESULT_CODE, result),
                    Avp::grouped(
                        avp_code::SUBSCRIPTION_DATA,
                        true,
                        &[
                            Avp::tgpp_u32(avp_code::AMBR_MAX_UL, ambr_ul_kbps),
                            Avp::tgpp_u32(avp_code::AMBR_MAX_DL, ambr_dl_kbps),
                        ],
                    ),
                ],
            ),
        };
        DiameterMsg {
            flags,
            command,
            app_id: APP_S6A,
            hop_by_hop,
            end_to_end,
            avps,
        }
    }

    /// Interpret a [`DiameterMsg`] as an S6a exchange.
    pub fn from_msg(msg: &DiameterMsg) -> Result<S6a, DiameterError> {
        match (msg.command, msg.is_request()) {
            (CMD_AUTH_INFO, true) => {
                let imsi = require(&msg.avps, avp_code::USER_NAME, "AIR")?.as_utf8()?;
                let plmn_avp = require(&msg.avps, avp_code::VISITED_PLMN_ID, "AIR")?;
                let visited_plmn: [u8; 3] =
                    plmn_avp.data[..].try_into().map_err(|_| DiameterError::Invalid {
                        what: "plmn length",
                        value: plmn_avp.data.len() as u64,
                    })?;
                let (mut vectors, mut resync) = (1, None);
                if let Some(req) = find(&msg.avps, avp_code::REQUESTED_EUTRAN_AUTH_INFO) {
                    let subs = req.sub_avps()?;
                    if let Some(a) = find(&subs, avp_code::NUMBER_OF_REQUESTED_VECTORS) {
                        vectors = a.as_u32()?;
                    }
                    if let Some(a) = find(&subs, avp_code::RE_SYNCHRONIZATION_INFO) {
                        resync = Some(a.data[..].try_into().map_err(|_| DiameterError::Invalid {
                            what: "re-synchronization-info length",
                            value: a.data.len() as u64,
                        })?);
                    }
                }
                Ok(S6a::AuthInfoRequest {
                    imsi,
                    visited_plmn,
                    vectors,
                    resync,
                })
            }
            (CMD_AUTH_INFO, false) => {
                let result = require(&msg.avps, avp_code::RESULT_CODE, "AIA")?.as_u32()?;
                let mut vectors = Vec::new();
                if let Some(info) = find(&msg.avps, avp_code::AUTHENTICATION_INFO) {
                    for sub in info.sub_avps()? {
                        if sub.code == avp_code::EUTRAN_VECTOR {
                            vectors.push(EutranVector::from_avp(&sub)?);
                        }
                    }
                }
                Ok(S6a::AuthInfoAnswer { result, vectors })
            }
            (CMD_UPDATE_LOCATION, true) => {
                let imsi = require(&msg.avps, avp_code::USER_NAME, "ULR")?.as_utf8()?;
                let plmn_avp = require(&msg.avps, avp_code::VISITED_PLMN_ID, "ULR")?;
                let visited_plmn: [u8; 3] =
                    plmn_avp.data[..].try_into().map_err(|_| DiameterError::Invalid {
                        what: "plmn length",
                        value: plmn_avp.data.len() as u64,
                    })?;
                Ok(S6a::UpdateLocationRequest { imsi, visited_plmn })
            }
            (CMD_UPDATE_LOCATION, false) => {
                let result = require(&msg.avps, avp_code::RESULT_CODE, "ULA")?.as_u32()?;
                let (mut ul, mut dl) = (0, 0);
                if let Some(sub_data) = find(&msg.avps, avp_code::SUBSCRIPTION_DATA) {
                    let subs = sub_data.sub_avps()?;
                    if let Some(a) = find(&subs, avp_code::AMBR_MAX_UL) {
                        ul = a.as_u32()?;
                    }
                    if let Some(a) = find(&subs, avp_code::AMBR_MAX_DL) {
                        dl = a.as_u32()?;
                    }
                }
                Ok(S6a::UpdateLocationAnswer {
                    result,
                    ambr_ul_kbps: ul,
                    ambr_dl_kbps: dl,
                })
            }
            (cmd, _) => Err(DiameterError::Invalid {
                what: "s6a command",
                value: cmd as u64,
            }),
        }
    }
}

/// Convenience: is this answer a success?
pub fn is_success(result: u32) -> bool {
    result == result_code::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s6a: &S6a) {
        let msg = s6a.clone().into_msg(7, 9);
        let bytes = msg.encode();
        let back_msg = DiameterMsg::decode(bytes).unwrap();
        assert_eq!(back_msg.hop_by_hop, 7);
        assert_eq!(back_msg.end_to_end, 9);
        assert_eq!(back_msg.app_id, APP_S6A);
        assert_eq!(&S6a::from_msg(&back_msg).unwrap(), s6a);
    }

    fn sample_vector(seed: u8) -> EutranVector {
        EutranVector {
            rand: [seed; 16],
            xres: [seed ^ 1; 8],
            autn: [seed ^ 2; 16],
            kasme: [seed ^ 3; 32],
        }
    }

    #[test]
    fn air_roundtrip() {
        roundtrip(&S6a::AuthInfoRequest {
            imsi: "001010123456789".into(),
            visited_plmn: [0x00, 0xf1, 0x10],
            vectors: 3,
            resync: None,
        });
        roundtrip(&S6a::AuthInfoRequest {
            imsi: "001010123456789".into(),
            visited_plmn: [0x00, 0xf1, 0x10],
            vectors: 1,
            resync: Some([7; 30]),
        });
    }

    #[test]
    fn aia_roundtrip_with_vectors() {
        roundtrip(&S6a::AuthInfoAnswer {
            result: result_code::SUCCESS,
            vectors: vec![sample_vector(1), sample_vector(2)],
        });
    }

    #[test]
    fn aia_error_has_no_vectors() {
        roundtrip(&S6a::AuthInfoAnswer {
            result: result_code::USER_UNKNOWN,
            vectors: vec![],
        });
    }

    #[test]
    fn ulr_ula_roundtrip() {
        roundtrip(&S6a::UpdateLocationRequest {
            imsi: "001010123456789".into(),
            visited_plmn: [0x00, 0xf1, 0x10],
        });
        roundtrip(&S6a::UpdateLocationAnswer {
            result: result_code::SUCCESS,
            ambr_ul_kbps: 50_000,
            ambr_dl_kbps: 150_000,
        });
    }

    #[test]
    fn request_flag_distinguishes_directions() {
        let req = S6a::AuthInfoRequest {
            imsi: "1".into(),
            visited_plmn: [1, 2, 3],
            vectors: 1,
            resync: None,
        }
        .into_msg(1, 1);
        assert!(req.is_request());
        let ans = S6a::AuthInfoAnswer {
            result: result_code::SUCCESS,
            vectors: vec![],
        }
        .into_msg(1, 1);
        assert!(!ans.is_request());
    }

    #[test]
    fn wrong_version_rejected() {
        let msg = S6a::UpdateLocationRequest {
            imsi: "1".into(),
            visited_plmn: [1, 2, 3],
        }
        .into_msg(1, 1);
        let mut raw = msg.encode().to_vec();
        raw[0] = 2;
        assert!(matches!(
            DiameterMsg::decode(Bytes::from(raw)).unwrap_err(),
            DiameterError::Invalid { what: "diameter version", .. }
        ));
    }

    #[test]
    fn unknown_command_rejected_at_s6a_layer() {
        let mut msg = S6a::UpdateLocationRequest {
            imsi: "1".into(),
            visited_plmn: [1, 2, 3],
        }
        .into_msg(1, 1);
        msg.command = 999;
        assert!(S6a::from_msg(&msg).is_err());
    }

    #[test]
    fn is_success_helper() {
        assert!(is_success(result_code::SUCCESS));
        assert!(!is_success(result_code::USER_UNKNOWN));
    }
}
