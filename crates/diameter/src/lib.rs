//! # scale-diameter
//!
//! Diameter (RFC 6733) codec with the S6a application (TS 29.272) used
//! between the MME and the HSS: the MME fetches E-UTRAN authentication
//! vectors with AIR/AIA during attach and registers itself as the
//! serving node with ULR/ULA. SCALE's MLB terminates S6 unchanged
//! (§4.1 of the paper) and forwards to the owning MMP.

#![forbid(unsafe_code)]

mod avp;
mod msg;

pub use avp::{
    avp_code, decode_avps, find, require, result_code, Avp, DiameterError, FLAG_MANDATORY,
    FLAG_VENDOR, VENDOR_3GPP,
};
pub use msg::{
    is_success, DiameterMsg, EutranVector, S6a, APP_S6A, CMD_AUTH_INFO, CMD_UPDATE_LOCATION,
    FLAG_PROXYABLE, FLAG_REQUEST,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = DiameterMsg::decode(Bytes::from(data));
        }

        #[test]
        fn vector_roundtrip(rand in any::<[u8; 16]>(), xres in any::<[u8; 8]>(),
                            autn in any::<[u8; 16]>(), seed in any::<u8>()) {
            let v = EutranVector { rand, xres, autn, kasme: [seed; 32] };
            let s6a = S6a::AuthInfoAnswer { result: result_code::SUCCESS, vectors: vec![v] };
            let msg = s6a.clone().into_msg(1, 2);
            let back = S6a::from_msg(&DiameterMsg::decode(msg.encode()).unwrap()).unwrap();
            prop_assert_eq!(back, s6a);
        }

        #[test]
        fn imsi_roundtrip(imsi in "[0-9]{6,15}", hbh in any::<u32>(), e2e in any::<u32>()) {
            let s6a = S6a::UpdateLocationRequest { imsi: imsi.clone(), visited_plmn: [9, 9, 9] };
            let msg = s6a.into_msg(hbh, e2e);
            let decoded = DiameterMsg::decode(msg.encode()).unwrap();
            prop_assert_eq!(decoded.hop_by_hop, hbh);
            match S6a::from_msg(&decoded).unwrap() {
                S6a::UpdateLocationRequest { imsi: got, .. } => prop_assert_eq!(got, imsi),
                _ => prop_assert!(false),
            }
        }
    }
}
