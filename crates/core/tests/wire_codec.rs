//! Codec suite for `WireMsg`: whatever a link delivers — a message, a
//! damaged message, noise — decodes to a value or an error, never a
//! panic, and every value survives the round trip.

use bytes::Bytes;
use proptest::prelude::*;
use scale_core::wire::{WireMsg, WireRole};
use scale_nas::{Plmn, Tai};
use scale_s1ap::{ErabSetup, S1apPdu};

fn arb_tai() -> impl Strategy<Value = Tai> {
    (any::<[u8; 3]>(), any::<u16>()).prop_map(|(p, tac)| Tai { plmn: Plmn(p), tac })
}

fn arb_nas() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..96).prop_map(Bytes::from)
}

/// The PDUs a session puts inside an envelope (the S1AP suite covers
/// every variant on its own).
fn arb_pdu() -> impl Strategy<Value = S1apPdu> {
    prop_oneof![
        (
            any::<u32>(),
            arb_nas(),
            arb_tai(),
            proptest::option::of((any::<u8>(), any::<u32>()))
        )
            .prop_map(
                |(enb_ue_id, nas_pdu, tai, s_tmsi)| S1apPdu::InitialUeMessage {
                    enb_ue_id,
                    nas_pdu,
                    tai,
                    establishment_cause: 3,
                    s_tmsi,
                }
            ),
        (any::<u32>(), any::<u32>(), arb_nas(), arb_tai()).prop_map(
            |(mme_ue_id, enb_ue_id, nas_pdu, tai)| S1apPdu::UplinkNasTransport {
                mme_ue_id,
                enb_ue_id,
                nas_pdu,
                tai,
            }
        ),
        (any::<u32>(), any::<u32>(), arb_nas()).prop_map(|(mme_ue_id, enb_ue_id, nas_pdu)| {
            S1apPdu::DownlinkNasTransport {
                mme_ue_id,
                enb_ue_id,
                nas_pdu,
            }
        }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<[u8; 32]>()).prop_map(
            |(mme_ue_id, enb_ue_id, gtp_teid, security_key)| {
                S1apPdu::InitialContextSetupRequest {
                    mme_ue_id,
                    enb_ue_id,
                    erabs: vec![ErabSetup {
                        erab_id: 5,
                        qci: 9,
                        gtp_teid,
                        transport_addr: [10, 0, 0, 2],
                    }],
                    ue_ambr_ul_kbps: 50_000,
                    ue_ambr_dl_kbps: 150_000,
                    security_key,
                }
            }
        ),
        (any::<u32>(), any::<u32>()).prop_map(|(mme_ue_id, enb_ue_id)| {
            S1apPdu::UeContextReleaseComplete {
                mme_ue_id,
                enb_ue_id,
            }
        }),
    ]
}

fn arb_msg() -> impl Strategy<Value = WireMsg> {
    let hint = || proptest::option::of(any::<u32>());
    prop_oneof![
        (any::<bool>(), any::<u32>()).prop_map(|(mmp, id)| WireMsg::Hello {
            role: if mmp { WireRole::Mmp } else { WireRole::Enb },
            id,
        }),
        (any::<u32>(), hint(), arb_pdu()).prop_map(|(enb_id, attach_hint, pdu)| {
            WireMsg::Uplink {
                enb_id,
                attach_hint,
                pdu,
            }
        }),
        (any::<u32>(), hint(), any::<u32>(), arb_pdu()).prop_map(|(vm, guti_hint, enb_id, pdu)| {
            WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            }
        }),
        (any::<u32>(), arb_pdu()).prop_map(|(enb_id, pdu)| WireMsg::ToEnb { enb_id, pdu }),
        (any::<u32>(), any::<bool>())
            .prop_map(|(m_tmsi, active)| WireMsg::Settled { m_tmsi, active }),
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..400)).prop_map(|(vm, blob)| {
            WireMsg::Replicate {
                vm,
                blob: Bytes::from(blob),
            }
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(vm, m_tmsi)| WireMsg::DropCtx { vm, m_tmsi }),
        any::<u32>().prop_map(|m_tmsi| WireMsg::ProcFailed { m_tmsi }),
        any::<u32>().prop_map(|vm| WireMsg::VmDown { vm }),
        any::<u32>().prop_map(|vm| WireMsg::VmUp { vm }),
    ]
}

proptest! {
    #[test]
    fn every_message_round_trips(msg in arb_msg()) {
        let bytes = msg.encode();
        let back = WireMsg::decode(bytes.clone()).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = WireMsg::decode(Bytes::from(data));
    }

    /// A message cut short or extended is always refused: the blob
    /// length and the trailing-bytes check leave no slack for the
    /// decoder to read into the next message or stop before the end.
    #[test]
    fn a_wrong_length_is_always_an_error(msg in arb_msg(), delta in 1usize..16,
                                         extend in any::<bool>()) {
        let valid = msg.encode().to_vec();
        let damaged = if extend {
            let mut v = valid;
            v.extend(std::iter::repeat_n(0xAA, delta));
            v
        } else {
            valid[..valid.len().saturating_sub(delta)].to_vec()
        };
        prop_assert!(WireMsg::decode(Bytes::from(damaged)).is_err());
    }

    /// Any one byte changed: an error or a value, never a panic, and a
    /// value that came out goes back in — what a lenient field (a flag
    /// byte, an unknown IE) let through is normalised, not mangled.
    #[test]
    fn a_flipped_byte_never_panics(msg in arb_msg(), pos in any::<usize>(), xor in 1u8..=255) {
        let mut bytes = msg.encode().to_vec();
        let i = pos % bytes.len();
        bytes[i] ^= xor;
        if let Ok(parsed) = WireMsg::decode(Bytes::from(bytes)) {
            prop_assert_eq!(WireMsg::decode(parsed.encode()).unwrap(), parsed);
        }
    }
}
