//! The routing view of an uplink PDU, read from a typed PDU or — for a
//! front end that forwards PDUs without consuming them — from a PDU's
//! bytes where they lie.
//!
//! lint: hot-path

use crate::ie::{ie_id, Ies};
use crate::pdu::{proc_code, PduKind, S1apPdu};
use scale_nas::wire::{NasError, View};

/// What a front end that terminates S1 toward eNodeBs needs of an
/// uplink PDU to place it, and nothing more: which kind of step it is
/// on a UE's signalling connection, and the id it is routed by. It is
/// read the same from a typed PDU ([`S1apPdu::route_key`]) and from a
/// PDU's bytes ([`S1apPdu::peek`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKey {
    /// S1 Setup Request: answered by whoever terminates S1.
    S1Setup,
    /// Initial UE Message: opens a signalling connection.
    Initial {
        /// (MME code, M-TMSI) when the UE is already registered.
        s_tmsi: Option<(u8, u32)>,
    },
    /// A later uplink step of a connection, named by the
    /// MME-UE-S1AP-ID the MME gave it, which carries the minting VM.
    Connected {
        /// The MME-UE-S1AP-ID.
        mme_ue_id: u32,
    },
    /// Nothing an eNodeB sends up a UE's signalling connection. Handover
    /// PDUs are here too: nothing routes them yet.
    Other,
}

/// `(MME code, M-TMSI)`: the value of an S-TMSI or UE Paging Identity.
pub(crate) fn read_tmsi(value: &[u8], what: &'static str) -> Result<(u8, u32), NasError> {
    let mut v = View::new(value);
    Ok((v.u8(what)?, v.u32(what)?))
}

impl S1apPdu {
    /// The routing view of this PDU (see [`RouteKey`]).
    pub fn route_key(&self) -> RouteKey {
        match self {
            S1apPdu::S1SetupRequest { .. } => RouteKey::S1Setup,
            S1apPdu::InitialUeMessage { s_tmsi, .. } => RouteKey::Initial { s_tmsi: *s_tmsi },
            S1apPdu::InitialContextSetupResponse { mme_ue_id, .. }
            | S1apPdu::InitialContextSetupFailure { mme_ue_id, .. }
            | S1apPdu::UplinkNasTransport { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseRequest { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseComplete { mme_ue_id, .. }
            | S1apPdu::ErrorIndication {
                mme_ue_id: Some(mme_ue_id),
                ..
            } => RouteKey::Connected {
                mme_ue_id: *mme_ue_id,
            },
            _ => RouteKey::Other,
        }
    }

    /// [`S1apPdu::route_key`] of an encoded PDU, without building it:
    /// the header (a kind and procedure code `decode` has a PDU for),
    /// the framing of every IE and the routing IEs are checked —
    /// `peek(b)` is `decode(b).route_key()` wherever `decode` succeeds,
    /// and an error wherever any of those three is broken — while the
    /// contents of the other IEs are left to whoever consumes the PDU.
    pub fn peek(buf: &[u8]) -> Result<RouteKey, NasError> {
        use ie_id::MME_UE_S1AP_ID;
        use proc_code::*;
        let (kind, code, set) = Self::open(buf)?;
        match (kind, code) {
            (PduKind::Initiating, S1_SETUP) => Ok(RouteKey::S1Setup),
            (PduKind::Initiating, INITIAL_UE_MESSAGE) => Ok(RouteKey::Initial {
                s_tmsi: Self::s_tmsi(&set)?,
            }),
            (PduKind::SuccessfulOutcome | PduKind::UnsuccessfulOutcome, INITIAL_CONTEXT_SETUP)
            | (PduKind::Initiating, UPLINK_NAS_TRANSPORT | UE_CONTEXT_RELEASE_REQUEST)
            | (PduKind::SuccessfulOutcome, UE_CONTEXT_RELEASE) => Ok(RouteKey::Connected {
                mme_ue_id: set.u32(MME_UE_S1AP_ID, "mme ue id")?,
            }),
            (PduKind::Initiating, ERROR_INDICATION) => {
                Ok(match set.opt_u32(MME_UE_S1AP_ID, "mme ue id")? {
                    Some(mme_ue_id) => RouteKey::Connected { mme_ue_id },
                    None => RouteKey::Other,
                })
            }
            // Everything else `decode` has a PDU for: none of it is an
            // uplink step of a UE's connection.
            (PduKind::SuccessfulOutcome | PduKind::UnsuccessfulOutcome, S1_SETUP)
            | (
                PduKind::Initiating,
                DOWNLINK_NAS_TRANSPORT
                | INITIAL_CONTEXT_SETUP
                | UE_CONTEXT_RELEASE
                | PAGING
                | HANDOVER_NOTIFICATION
                | OVERLOAD_START
                | OVERLOAD_STOP,
            )
            | (
                PduKind::Initiating | PduKind::SuccessfulOutcome,
                HANDOVER_PREPARATION | HANDOVER_RESOURCE_ALLOCATION,
            ) => Ok(RouteKey::Other),
            _ => Err(Self::unknown_procedure(kind, code)),
        }
    }

    /// The error of a header naming a procedure, or an outcome of one,
    /// that this S1AP has no PDU for.
    pub(crate) fn unknown_procedure(kind: PduKind, code: u8) -> NasError {
        NasError::Invalid {
            what: "s1ap kind/procedure combination",
            value: ((kind as u64) << 8) | u64::from(code),
        }
    }

    /// Header and IE framing of an encoded PDU: everything `decode` and
    /// `peek` check before they look at a single value.
    pub(crate) fn open(buf: &[u8]) -> Result<(PduKind, u8, Ies<'_>), NasError> {
        let mut head = View::new(buf);
        let kind_code = head.u8("s1ap pdu kind")?;
        let kind = PduKind::from_code(kind_code).ok_or(NasError::Invalid {
            what: "s1ap pdu kind",
            value: u64::from(kind_code),
        })?;
        let code = head.u8("s1ap procedure code")?;
        Ok((kind, code, Ies::parse(head.rest())?))
    }

    pub(crate) fn s_tmsi(set: &Ies<'_>) -> Result<Option<(u8, u32)>, NasError> {
        set.opt_value(ie_id::S_TMSI)
            .map(|v| read_tmsi(v, "s-tmsi"))
            .transpose()
    }
}
