//! # scale-nas
//!
//! LTE NAS (Non-Access Stratum) codec: the EMM message set a real MME
//! processes (attach, service request, authentication, security mode,
//! TAU, detach), LTE identities (IMSI, GUTI, TAI) and the NAS security
//! layer (EIA2 integrity, EEA2 ciphering, COUNT handling).
//!
//! Wire-format note (documented substitution, see DESIGN.md): messages
//! use a byte-aligned TLV encoding rather than 3GPP's packed IE syntax,
//! but keep the spec's protocol discriminator, security header types,
//! message type codes and field semantics — everything SCALE's routing
//! and processing logic depends on.

#![forbid(unsafe_code)]

pub mod emm;
pub mod ids;
pub mod security;
pub mod wire;

pub use emm::{emm_cause, msg_type, EmmMessage, PD_EMM};
pub use ids::{decode_bcd, encode_bcd, Guti, Imsi, MobileId, Plmn, Tai};
pub use security::{is_protected, Direction, NasSecurityContext, SecurityHeader};
pub use wire::{NasError, Reader, View, Writer};

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn arb_guti() -> impl Strategy<Value = Guti> {
        (any::<[u8; 3]>(), any::<u16>(), any::<u8>(), any::<u32>()).prop_map(
            |(plmn, group, code, tmsi)| Guti {
                plmn: Plmn(plmn),
                mme_group_id: group,
                mme_code: code,
                m_tmsi: tmsi,
            },
        )
    }

    fn arb_tai() -> impl Strategy<Value = Tai> {
        (any::<[u8; 3]>(), any::<u16>()).prop_map(|(plmn, tac)| Tai {
            plmn: Plmn(plmn),
            tac,
        })
    }

    fn arb_msg() -> impl Strategy<Value = EmmMessage> {
        prop_oneof![
            ("[0-9]{6,15}", arb_tai()).prop_map(|(imsi, tai)| EmmMessage::AttachRequest {
                attach_type: 1,
                id: MobileId::Imsi(imsi),
                tai,
            }),
            (arb_guti(), arb_tai()).prop_map(|(guti, tai)| EmmMessage::TauRequest { guti, tai }),
            (arb_guti(), proptest::collection::vec(arb_tai(), 0..5), any::<u32>())
                .prop_map(|(guti, tai_list, t)| EmmMessage::AttachAccept {
                    guti,
                    tai_list,
                    t3412_s: t,
                    ebi: 5,
                    apn: "internet".into(),
                    pdn_addr: [10, 0, 0, 1],
                }),
            (any::<u8>(), any::<[u8; 16]>(), any::<[u8; 16]>()).prop_map(|(ksi, rand, autn)| {
                EmmMessage::AuthenticationRequest { ksi: ksi & 0x0f, rand, autn }
            }),
            any::<u8>().prop_map(|c| EmmMessage::AttachReject { cause: c }),
            any::<u8>().prop_map(|c| EmmMessage::ServiceReject { cause: c }),
            (any::<u8>(), any::<u8>(), any::<[u8; 2]>()).prop_map(|(ksi, seq, mac)| {
                EmmMessage::ServiceRequest { ksi: ksi & 0x0f, seq, short_mac: mac }
            }),
        ]
    }

    proptest! {
        #[test]
        fn emm_roundtrip(msg in arb_msg()) {
            prop_assert_eq!(EmmMessage::decode(msg.encode()).unwrap(), msg);
        }

        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = EmmMessage::decode(Bytes::from(data));
        }

        #[test]
        fn protected_roundtrip(msg in arb_msg(), seed in any::<u8>(), ciphered in any::<bool>()) {
            use scale_crypto::kdf::derive_nas_keys;
            let keys = derive_nas_keys(&[seed; 16], &[2; 16], &[0, 1, 2], &[3; 6]);
            let mut tx = NasSecurityContext::new(keys, 1);
            let mut rx = tx.clone();
            let header = if ciphered { SecurityHeader::IntegrityCiphered } else { SecurityHeader::Integrity };
            let wire = tx.protect(&msg, Direction::Uplink, header);
            prop_assert_eq!(rx.unprotect(wire, Direction::Uplink).unwrap(), msg);
        }

        #[test]
        fn unprotect_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            use scale_crypto::kdf::derive_nas_keys;
            let keys = derive_nas_keys(&[1; 16], &[2; 16], &[0, 1, 2], &[3; 6]);
            let mut ctx = NasSecurityContext::new(keys, 1);
            let _ = ctx.unprotect(Bytes::from(data), Direction::Uplink);
        }
    }
}
