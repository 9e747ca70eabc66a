//! # scale-s1ap
//!
//! S1AP codec: the control protocol between eNodeBs and the MME (or
//! SCALE's MLB, which terminates S1AP unchanged so eNodeBs need no
//! modification — the architectural requirement of §4.1 of the paper).
//!
//! Wire-format note (documented substitution, DESIGN.md): IEs use a
//! byte-aligned `id(2)||len(2)||value` frame instead of aligned PER, but
//! carry the genuine S1AP ProtocolIE-IDs and procedure codes, and the
//! message set matches the elementary procedures of TS 36.413 that the
//! paper's experiments exercise.

#![forbid(unsafe_code)]

mod encode;
pub mod ie;
pub mod pdu;
mod peek;

pub use ie::{ie_id, Ies};
pub use pdu::{cause, proc_code, ErabSetup, Gummei, PduKind, S1apPdu};
pub use peek::RouteKey;

// Re-export the shared reader/writer so downstream crates use one set
// of codec primitives for NAS + S1AP.
pub use scale_nas::wire;

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use scale_nas::{Plmn, Tai};

    fn arb_tai() -> impl Strategy<Value = Tai> {
        (any::<[u8; 3]>(), any::<u16>()).prop_map(|(p, tac)| Tai { plmn: Plmn(p), tac })
    }

    fn arb_erab() -> impl Strategy<Value = ErabSetup> {
        (0u8..16, any::<u8>(), any::<u32>(), any::<[u8; 4]>()).prop_map(
            |(erab_id, qci, gtp_teid, transport_addr)| ErabSetup {
                erab_id,
                qci,
                gtp_teid,
                transport_addr,
            },
        )
    }

    fn arb_nas() -> impl Strategy<Value = Bytes> {
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from)
    }

    fn arb_erabs() -> impl Strategy<Value = Vec<ErabSetup>> {
        proptest::collection::vec(arb_erab(), 0..4)
    }

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z0-9-]{0,16}"
    }

    fn arb_gummei() -> impl Strategy<Value = Gummei> {
        (any::<[u8; 3]>(), any::<u16>(), any::<u8>()).prop_map(|(p, mme_group_id, mme_code)| {
            Gummei {
                plmn: Plmn(p),
                mme_group_id,
                mme_code,
            }
        })
    }

    /// Every variant, every field arbitrary.
    fn arb_pdu() -> impl Strategy<Value = S1apPdu> {
        let ids = || (any::<u32>(), any::<u32>());
        prop_oneof![
            (any::<u32>(), arb_name(), proptest::collection::vec(arb_tai(), 0..4)).prop_map(
                |(global_enb_id, enb_name, supported_tais)| S1apPdu::S1SetupRequest {
                    global_enb_id,
                    enb_name,
                    supported_tais,
                }
            ),
            (arb_name(), proptest::collection::vec(arb_gummei(), 0..3), any::<u8>()).prop_map(
                |(mme_name, served_gummeis, relative_mme_capacity)| S1apPdu::S1SetupResponse {
                    mme_name,
                    served_gummeis,
                    relative_mme_capacity,
                }
            ),
            any::<u8>().prop_map(|cause| S1apPdu::S1SetupFailure { cause }),
            (any::<u32>(), arb_nas(), arb_tai(), any::<u8>(),
             proptest::option::of((any::<u8>(), any::<u32>())))
                .prop_map(|(enb_ue_id, nas_pdu, tai, establishment_cause, s_tmsi)| {
                    S1apPdu::InitialUeMessage {
                        enb_ue_id,
                        nas_pdu,
                        tai,
                        establishment_cause,
                        s_tmsi,
                    }
                }),
            (ids(), arb_nas()).prop_map(|((mme_ue_id, enb_ue_id), nas_pdu)| {
                S1apPdu::DownlinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu,
                }
            }),
            (ids(), arb_nas(), arb_tai()).prop_map(|((mme_ue_id, enb_ue_id), nas_pdu, tai)| {
                S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu,
                    tai,
                }
            }),
            (ids(), arb_erabs(), any::<u32>(), any::<u32>(), any::<[u8; 32]>()).prop_map(
                |((mme_ue_id, enb_ue_id), erabs, ue_ambr_ul_kbps, ue_ambr_dl_kbps, security_key)| {
                    S1apPdu::InitialContextSetupRequest {
                        mme_ue_id,
                        enb_ue_id,
                        erabs,
                        ue_ambr_ul_kbps,
                        ue_ambr_dl_kbps,
                        security_key,
                    }
                }
            ),
            (ids(), arb_erabs()).prop_map(|((mme_ue_id, enb_ue_id), erabs)| {
                S1apPdu::InitialContextSetupResponse {
                    mme_ue_id,
                    enb_ue_id,
                    erabs,
                }
            }),
            (ids(), any::<u8>()).prop_map(|((mme_ue_id, enb_ue_id), cause)| {
                S1apPdu::InitialContextSetupFailure {
                    mme_ue_id,
                    enb_ue_id,
                    cause,
                }
            }),
            (ids(), any::<u8>()).prop_map(|((mme_ue_id, enb_ue_id), cause)| {
                S1apPdu::UeContextReleaseRequest {
                    mme_ue_id,
                    enb_ue_id,
                    cause,
                }
            }),
            (ids(), any::<u8>()).prop_map(|((mme_ue_id, enb_ue_id), cause)| {
                S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id,
                    cause,
                }
            }),
            ids().prop_map(|(mme_ue_id, enb_ue_id)| S1apPdu::UeContextReleaseComplete {
                mme_ue_id,
                enb_ue_id,
            }),
            ((any::<u8>(), any::<u32>()), proptest::collection::vec(arb_tai(), 0..8))
                .prop_map(|(ue_paging_id, tai_list)| S1apPdu::Paging { ue_paging_id, tai_list }),
            (ids(), any::<u32>(), any::<u8>()).prop_map(
                |((mme_ue_id, enb_ue_id), target_enb_id, cause)| S1apPdu::HandoverRequired {
                    mme_ue_id,
                    enb_ue_id,
                    target_enb_id,
                    cause,
                }
            ),
            (any::<u32>(), arb_erabs(), any::<[u8; 32]>()).prop_map(
                |(mme_ue_id, erabs, security_key)| S1apPdu::HandoverRequest {
                    mme_ue_id,
                    erabs,
                    security_key,
                }
            ),
            (ids(), arb_erabs()).prop_map(|((mme_ue_id, enb_ue_id), erabs)| {
                S1apPdu::HandoverRequestAck {
                    mme_ue_id,
                    enb_ue_id,
                    erabs,
                }
            }),
            ids().prop_map(|(mme_ue_id, enb_ue_id)| S1apPdu::HandoverCommand {
                mme_ue_id,
                enb_ue_id,
            }),
            (ids(), arb_tai()).prop_map(|((mme_ue_id, enb_ue_id), tai)| {
                S1apPdu::HandoverNotify {
                    mme_ue_id,
                    enb_ue_id,
                    tai,
                }
            }),
            Just(S1apPdu::OverloadStart),
            Just(S1apPdu::OverloadStop),
            (proptest::option::of(any::<u32>()), proptest::option::of(any::<u32>()), any::<u8>())
                .prop_map(|(mme_ue_id, enb_ue_id, cause)| S1apPdu::ErrorIndication {
                    mme_ue_id,
                    enb_ue_id,
                    cause,
                }),
        ]
    }

    proptest! {
        #[test]
        fn pdu_roundtrip(pdu in arb_pdu()) {
            prop_assert_eq!(S1apPdu::decode(pdu.encode()).unwrap(), pdu);
        }

        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = S1apPdu::decode(Bytes::from(data));
        }

        /// `peek` is `decode` followed by `route_key`, on every PDU and
        /// on every PDU with an unknown IE appended (which `decode`
        /// skips).
        #[test]
        fn peek_reads_what_decode_reads(pdu in arb_pdu(), extra in proptest::collection::vec(any::<u8>(), 0..12)) {
            let mut bytes = pdu.encode().to_vec();
            prop_assert_eq!(S1apPdu::peek(&bytes), Ok(pdu.route_key()));
            bytes.extend_from_slice(&[0x03, 0xe7, 0, extra.len() as u8]);
            bytes.extend_from_slice(&extra);
            prop_assert_eq!(S1apPdu::decode(Bytes::from(bytes.clone())).as_ref(), Ok(&pdu));
            prop_assert_eq!(S1apPdu::peek(&bytes), Ok(pdu.route_key()));
        }

        /// On any bytes at all: where `decode` succeeds `peek` agrees
        /// with it, and where the header or the IE framing is broken
        /// both refuse. (`peek` may pass what `decode` refuses — a
        /// malformed value in an IE it does not route by — but not a
        /// header `decode` has no PDU for: see
        /// `peek_and_decode_know_the_same_procedures`.)
        #[test]
        fn peek_agrees_with_decode_on_damaged_pdus(pdu in arb_pdu(), cut in any::<usize>(),
                                                   pos in any::<usize>(), xor in 1u8..=255) {
            let valid = pdu.encode().to_vec();
            let mut flipped = valid.clone();
            let i = pos % flipped.len();
            flipped[i] ^= xor;
            for bytes in [valid[..cut % valid.len()].to_vec(), flipped] {
                let framed = bytes.len() >= 2 && bytes[0] <= 2 && Ies::parse(&bytes[2..]).is_ok();
                match S1apPdu::decode(Bytes::from(bytes.clone())) {
                    Ok(decoded) => prop_assert_eq!(S1apPdu::peek(&bytes), Ok(decoded.route_key())),
                    Err(_) if !framed => prop_assert!(S1apPdu::peek(&bytes).is_err()),
                    Err(_) => {}
                }
            }
        }

        /// Inputs one step from valid — a PDU cut short anywhere, or
        /// with any one byte changed — reach every length and id check
        /// with plausible bytes around it: an error or a value, never a
        /// panic.
        #[test]
        fn damaged_pdus_never_panic(pdu in arb_pdu(), cut in any::<usize>(),
                                    pos in any::<usize>(), xor in 1u8..=255) {
            let valid = pdu.encode().to_vec();
            let _ = S1apPdu::decode(Bytes::from(valid[..cut % valid.len()].to_vec()));
            let mut flipped = valid;
            let i = pos % flipped.len();
            flipped[i] ^= xor;
            let _ = S1apPdu::decode(Bytes::from(flipped));
        }
    }

    /// Every header there is, over an empty IE region: `peek` refuses
    /// exactly the (kind, procedure code) pairs `decode` has no PDU
    /// for, with the same error — so a peer that speaks procedures we
    /// do not is dropped by a front end that peeks as it is by one that
    /// decodes.
    #[test]
    fn peek_and_decode_know_the_same_procedures() {
        let unknown = |e: &scale_nas::NasError| {
            matches!(e, scale_nas::NasError::Invalid { what, .. } if what.contains("combination"))
        };
        let mut known = 0;
        for kind in 0..=2u8 {
            for code in 0..=255u8 {
                let decoded = S1apPdu::decode(Bytes::from(vec![kind, code]));
                let peeked = S1apPdu::peek(&[kind, code]);
                match &decoded {
                    Err(e) if unknown(e) => assert_eq!(peeked.as_ref(), Err(e), "{kind}/{code}"),
                    _ => {
                        known += 1;
                        assert!(!matches!(&peeked, Err(e) if unknown(e)), "{kind}/{code}");
                    }
                }
            }
        }
        assert_eq!(known, 21, "one header per PDU variant");
    }
}
