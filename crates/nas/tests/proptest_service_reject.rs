//! Property suite for the reject messages the §4.6 recovery path
//! depends on: Service Reject (type 0x4e) and TAU Reject (type 0x4b)
//! carrying cause #9 ("UE identity cannot be derived by the network").
//!
//! The protocol model checker's `RejectWithoutCause` mutation shows
//! what a codec bug here costs: if cause #9 does not survive the wire
//! byte-for-byte, a device whose context died with a crashed worker
//! never learns to discard its GUTI and re-attach — it is stuck
//! retrying forever. So beyond round-trip, this suite pins the exact
//! wire image, canonicality (a decoded reject re-encodes to the same
//! bytes), and rejection of truncated / extended / corrupted input.

use bytes::Bytes;
use proptest::prelude::*;
use scale_nas::{emm_cause, msg_type, Direction, EmmMessage, NasSecurityContext, SecurityHeader, PD_EMM};

/// The fixed 3-byte plain wire image of a cause reject.
fn wire(ty: u8, cause: u8) -> Vec<u8> {
    vec![PD_EMM, ty, cause]
}

proptest! {
    /// Service Reject round-trips for every cause and its wire image
    /// is exactly `[PD_EMM, 0x4e, cause]` — no hidden state, so the
    /// checker's byte-level mutation interception sees every reject.
    #[test]
    fn service_reject_roundtrip_and_wire_image(cause in any::<u8>()) {
        let msg = EmmMessage::ServiceReject { cause };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.as_ref(), wire(msg_type::SERVICE_REJECT, cause).as_slice());
        prop_assert_eq!(EmmMessage::decode(encoded).unwrap(), msg);
    }

    /// Same for TAU Reject: `[PD_EMM, 0x4b, cause]`.
    #[test]
    fn tau_reject_roundtrip_and_wire_image(cause in any::<u8>()) {
        let msg = EmmMessage::TauReject { cause };
        let encoded = msg.encode();
        prop_assert_eq!(encoded.as_ref(), wire(msg_type::TAU_REJECT, cause).as_slice());
        prop_assert_eq!(EmmMessage::decode(encoded).unwrap(), msg);
    }

    /// SR and TAU rejects with the same cause must stay distinct on
    /// the wire — the UE reacts differently (service retry vs TAU
    /// retry) even though both drop the GUTI on cause #9.
    #[test]
    fn sr_and_tau_rejects_are_distinct(cause in any::<u8>()) {
        prop_assert_ne!(
            EmmMessage::ServiceReject { cause }.encode(),
            EmmMessage::TauReject { cause }.encode()
        );
    }

    /// Every strict prefix of a reject encoding fails to decode —
    /// truncation cannot turn a reject into a different valid message.
    #[test]
    fn truncated_rejects_fail(ty in prop_oneof![Just(msg_type::SERVICE_REJECT), Just(msg_type::TAU_REJECT)],
                              cause in any::<u8>(),
                              cut in 0usize..3) {
        let full = wire(ty, cause);
        let truncated = Bytes::copy_from_slice(&full[..cut]);
        prop_assert!(EmmMessage::decode(truncated).is_err());
    }

    /// Appended bytes fail too: the codec is length-strict, so a
    /// smuggled payload after a reject is an error, not ignored.
    #[test]
    fn extended_rejects_fail(ty in prop_oneof![Just(msg_type::SERVICE_REJECT), Just(msg_type::TAU_REJECT)],
                             cause in any::<u8>(),
                             extra in proptest::collection::vec(any::<u8>(), 1..8)) {
        let mut bytes = wire(ty, cause);
        bytes.extend_from_slice(&extra);
        prop_assert!(EmmMessage::decode(Bytes::from(bytes)).is_err());
    }

    /// Single-byte corruption of a cause-#9 reject is either rejected
    /// outright or yields a *different* message that canonically
    /// re-encodes to the corrupted bytes — it can never silently decode
    /// back to the original reject.
    #[test]
    fn corrupted_cause9_never_aliases(ty in prop_oneof![Just(msg_type::SERVICE_REJECT), Just(msg_type::TAU_REJECT)],
                                      pos in 0usize..3,
                                      flip in 1u8..=255) {
        let original = wire(ty, emm_cause::UE_IDENTITY_UNKNOWN);
        let mut mutated = original.clone();
        mutated[pos] ^= flip;
        if let Ok(decoded) = EmmMessage::decode(Bytes::copy_from_slice(&mutated)) {
            prop_assert_eq!(decoded.encode().as_ref(), mutated.as_slice());
            prop_assert_ne!(mutated.as_slice(), original.as_slice());
        }
    }

    /// A nonzero security-header nibble means protected input; the
    /// plain decoder must refuse it whatever follows.
    #[test]
    fn plain_decode_refuses_protected_header(header in 1u8..=15, rest in proptest::collection::vec(any::<u8>(), 0..8)) {
        let mut bytes = vec![(header << 4) | PD_EMM];
        bytes.extend_from_slice(&rest);
        prop_assert!(EmmMessage::decode(Bytes::from(bytes)).is_err());
    }

    /// Canonicality over arbitrary input: whenever random bytes decode
    /// to *any* reject, re-encoding reproduces the input exactly. With
    /// the strict 3-byte format this means rejects have exactly one
    /// wire representation — nothing for an interception layer to miss.
    #[test]
    fn any_decoded_reject_is_canonical(data in proptest::collection::vec(any::<u8>(), 0..16)) {
        let bytes = Bytes::from(data.clone());
        if let Ok(msg @ (EmmMessage::ServiceReject { .. } | EmmMessage::TauReject { .. })) =
            EmmMessage::decode(bytes)
        {
            prop_assert_eq!(msg.encode().as_ref(), data.as_slice());
        }
    }

    /// Cause #9 survives the full security layer round-trip — the path
    /// the real engine uses for the reject it sends to a live, keyed
    /// session (integrity-only and ciphered both).
    #[test]
    fn cause9_survives_protection(ty_sr in any::<bool>(), seed in any::<u8>(), ciphered in any::<bool>()) {
        use scale_crypto::kdf::derive_nas_keys;
        let msg = if ty_sr {
            EmmMessage::ServiceReject { cause: emm_cause::UE_IDENTITY_UNKNOWN }
        } else {
            EmmMessage::TauReject { cause: emm_cause::UE_IDENTITY_UNKNOWN }
        };
        let keys = derive_nas_keys(&[seed; 16], &[7; 16], &[0, 1, 2], &[9; 6]);
        let mut tx = NasSecurityContext::new(keys, 1);
        let mut rx = tx.clone();
        let header = if ciphered { SecurityHeader::IntegrityCiphered } else { SecurityHeader::Integrity };
        let protected = tx.protect(&msg, Direction::Downlink, header);
        prop_assert_eq!(rx.unprotect(protected, Direction::Downlink).unwrap(), msg);
    }
}
