//! S1AP PDUs (TS 36.413): the eNodeB↔MME control protocol.
//!
//! Covers the elementary procedures the paper's experiments exercise:
//! S1 Setup (including the Relative MME Capacity weight that makes the
//! legacy scale-out of Fig 2(d) so slow), NAS transport, Initial Context
//! Setup, UE Context Release (both directions — the MME-triggered release
//! with `load-balancing-TAU-required` is the 3GPP pool's reactive
//! offload of Fig 2(b)), Paging, S1 handover and MME Overload Start/Stop.

use crate::ie::ie_id;
use crate::peek::read_tmsi;
use bytes::Bytes;
use scale_nas::wire::{NasError, Reader, View, Writer};
use scale_nas::{Plmn, Tai};

/// PDU wrapper kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PduKind {
    Initiating = 0,
    SuccessfulOutcome = 1,
    UnsuccessfulOutcome = 2,
}

impl PduKind {
    pub(crate) fn from_code(v: u8) -> Option<Self> {
        Some(match v {
            0 => PduKind::Initiating,
            1 => PduKind::SuccessfulOutcome,
            2 => PduKind::UnsuccessfulOutcome,
            _ => return None,
        })
    }
}

/// Genuine S1AP procedure codes (TS 36.413 §9.3.7).
pub mod proc_code {
    pub const HANDOVER_PREPARATION: u8 = 0;
    pub const HANDOVER_RESOURCE_ALLOCATION: u8 = 1;
    pub const HANDOVER_NOTIFICATION: u8 = 2;
    pub const INITIAL_CONTEXT_SETUP: u8 = 9;
    pub const PAGING: u8 = 10;
    pub const DOWNLINK_NAS_TRANSPORT: u8 = 11;
    pub const INITIAL_UE_MESSAGE: u8 = 12;
    pub const UPLINK_NAS_TRANSPORT: u8 = 13;
    pub const ERROR_INDICATION: u8 = 15;
    pub const UE_CONTEXT_RELEASE_REQUEST: u8 = 18;
    pub const S1_SETUP: u8 = 17;
    pub const UE_CONTEXT_RELEASE: u8 = 23;
    pub const OVERLOAD_START: u8 = 34;
    pub const OVERLOAD_STOP: u8 = 35;
}

/// S1AP cause values (flattened across cause groups; subset).
pub mod cause {
    /// RadioNetwork: user inactivity — eNodeB asks to release to Idle.
    pub const USER_INACTIVITY: u8 = 20;
    /// RadioNetwork: load-balancing TAU required — legacy MME offload.
    pub const LOAD_BALANCING_TAU_REQUIRED: u8 = 22;
    /// RadioNetwork: successful handover.
    pub const SUCCESSFUL_HANDOVER: u8 = 2;
    /// RadioNetwork: unknown or inconsistent pair of UE S1AP ID — the
    /// answer to a UE-associated message whose ids name no connection
    /// (TS 36.413 §10.6).
    pub const UNKNOWN_PAIR_UE_S1AP_ID: u8 = 15;
    /// Misc: control processing overload.
    pub const CONTROL_PROCESSING_OVERLOAD: u8 = 40;
    /// NAS: normal release — the release after an Attach Reject.
    pub const NAS_NORMAL_RELEASE: u8 = 50;
    /// NAS: detach.
    pub const NAS_DETACH: u8 = 51;
    /// NAS: authentication failure — the release after an
    /// Authentication Reject.
    pub const NAS_AUTHENTICATION_FAILURE: u8 = 52;
    /// Transport: unspecified failure.
    pub const TRANSPORT_FAILURE: u8 = 60;
}

/// One E-RAB to be set up on the radio side: bearer id, QoS class and
/// the S-GW's S1-U endpoint (TEID + IPv4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErabSetup {
    pub erab_id: u8,
    pub qci: u8,
    pub gtp_teid: u32,
    pub transport_addr: [u8; 4],
}

impl ErabSetup {
    const WIRE_LEN: usize = 10;

    pub(crate) fn encode(&self, w: &mut Writer) {
        w.u8(self.erab_id);
        w.u8(self.qci);
        w.u32(self.gtp_teid);
        w.slice(&self.transport_addr);
    }

    fn decode(r: &mut Reader) -> Result<Self, NasError> {
        Ok(ErabSetup {
            erab_id: r.u8("erab id")?,
            qci: r.u8("qci")?,
            gtp_teid: r.u32("erab teid")?,
            transport_addr: r.array("erab addr")?,
        })
    }
}

fn decode_erab_list(data: Bytes) -> Result<Vec<ErabSetup>, NasError> {
    let mut r = Reader::new(data);
    let n = r.u8("erab count")? as usize;
    // Sized by what is there to decode, not by what the count claims.
    let mut out = Vec::with_capacity(n.min(r.remaining() / ErabSetup::WIRE_LEN));
    for _ in 0..n {
        out.push(ErabSetup::decode(&mut r)?);
    }
    Ok(out)
}

fn decode_tai(data: Bytes) -> Result<Tai, NasError> {
    Tai::decode(&mut Reader::new(data))
}

fn decode_tai_list(data: Bytes) -> Result<Vec<Tai>, NasError> {
    let mut r = Reader::new(data);
    let n = r.u8("tai count")? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / Tai::WIRE_LEN));
    for _ in 0..n {
        out.push(Tai::decode(&mut r)?);
    }
    Ok(out)
}

/// A GUMMEI: PLMN + MME group id + MME code, advertised in S1 Setup
/// Response. The eNodeB routes GUTI-bearing requests by matching the
/// GUTI's MME code against these (§3.1 "Static Assignment").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gummei {
    pub plmn: Plmn,
    pub mme_group_id: u16,
    pub mme_code: u8,
}

impl Gummei {
    const WIRE_LEN: usize = 6;
}

fn decode_gummeis(data: Bytes) -> Result<Vec<Gummei>, NasError> {
    let mut r = Reader::new(data);
    let n = r.u8("gummei count")? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining() / Gummei::WIRE_LEN));
    for _ in 0..n {
        let plmn: [u8; 3] = r.array("gummei plmn")?;
        out.push(Gummei {
            plmn: Plmn(plmn),
            mme_group_id: r.u16("gummei group")?,
            mme_code: r.u8("gummei code")?,
        });
    }
    Ok(out)
}

/// An S1AP PDU, typed by elementary procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum S1apPdu {
    /// eNodeB → MME on association setup.
    S1SetupRequest {
        global_enb_id: u32,
        enb_name: String,
        supported_tais: Vec<Tai>,
    },
    S1SetupResponse {
        mme_name: String,
        served_gummeis: Vec<Gummei>,
        /// Weight factor for eNodeB MME selection; newly added MMEs are
        /// configured low, which is why legacy scale-out converges slowly
        /// (Fig 2(d)).
        relative_mme_capacity: u8,
    },
    S1SetupFailure {
        cause: u8,
    },
    /// eNodeB → MME: first uplink NAS message of a UE; carries the
    /// S-TMSI when the UE already holds a GUTI, which is how the eNodeB
    /// (or SCALE's MLB) routes to the owning MME/MMP.
    InitialUeMessage {
        enb_ue_id: u32,
        nas_pdu: Bytes,
        tai: Tai,
        establishment_cause: u8,
        /// (MME code, M-TMSI) when the UE is already registered.
        s_tmsi: Option<(u8, u32)>,
    },
    DownlinkNasTransport {
        mme_ue_id: u32,
        enb_ue_id: u32,
        nas_pdu: Bytes,
    },
    UplinkNasTransport {
        mme_ue_id: u32,
        enb_ue_id: u32,
        nas_pdu: Bytes,
        tai: Tai,
    },
    /// MME → eNodeB: move UE to Active, set up bearers; the security key
    /// is K_eNB derived from K_ASME.
    InitialContextSetupRequest {
        mme_ue_id: u32,
        enb_ue_id: u32,
        erabs: Vec<ErabSetup>,
        ue_ambr_ul_kbps: u32,
        ue_ambr_dl_kbps: u32,
        security_key: [u8; 32],
    },
    InitialContextSetupResponse {
        mme_ue_id: u32,
        enb_ue_id: u32,
        /// eNodeB-side S1-U endpoints for the accepted E-RABs.
        erabs: Vec<ErabSetup>,
    },
    InitialContextSetupFailure {
        mme_ue_id: u32,
        enb_ue_id: u32,
        cause: u8,
    },
    /// eNodeB → MME: asks for release (e.g. user inactivity timeout —
    /// the Active→Idle transition of §2).
    UeContextReleaseRequest {
        mme_ue_id: u32,
        enb_ue_id: u32,
        cause: u8,
    },
    /// MME → eNodeB: release the UE context. With cause
    /// `LOAD_BALANCING_TAU_REQUIRED` this is the legacy pool's reactive
    /// device reassignment (Fig 2(b)).
    UeContextReleaseCommand {
        mme_ue_id: u32,
        enb_ue_id: u32,
        cause: u8,
    },
    UeContextReleaseComplete {
        mme_ue_id: u32,
        enb_ue_id: u32,
    },
    /// MME → eNodeBs in the UE's tracking areas.
    Paging {
        /// (MME code, M-TMSI) identifying the paged UE.
        ue_paging_id: (u8, u32),
        tai_list: Vec<Tai>,
    },
    /// Source eNodeB → MME: start S1 handover.
    HandoverRequired {
        mme_ue_id: u32,
        enb_ue_id: u32,
        target_enb_id: u32,
        cause: u8,
    },
    /// MME → target eNodeB.
    HandoverRequest {
        mme_ue_id: u32,
        erabs: Vec<ErabSetup>,
        security_key: [u8; 32],
    },
    /// Target eNodeB → MME.
    HandoverRequestAck {
        mme_ue_id: u32,
        enb_ue_id: u32,
        erabs: Vec<ErabSetup>,
    },
    /// MME → source eNodeB: proceed with the handover.
    HandoverCommand {
        mme_ue_id: u32,
        enb_ue_id: u32,
    },
    /// Target eNodeB → MME: UE has arrived.
    HandoverNotify {
        mme_ue_id: u32,
        enb_ue_id: u32,
        tai: Tai,
    },
    /// MME → eNodeB: reject new non-emergency traffic (3GPP overload
    /// protection, §3.1).
    OverloadStart,
    OverloadStop,
    ErrorIndication {
        mme_ue_id: Option<u32>,
        enb_ue_id: Option<u32>,
        cause: u8,
    },
}

impl S1apPdu {
    /// `(kind, procedure code)` of this PDU.
    pub fn kind_and_code(&self) -> (PduKind, u8) {
        use proc_code::*;
        use PduKind::*;
        match self {
            S1apPdu::S1SetupRequest { .. } => (Initiating, S1_SETUP),
            S1apPdu::S1SetupResponse { .. } => (SuccessfulOutcome, S1_SETUP),
            S1apPdu::S1SetupFailure { .. } => (UnsuccessfulOutcome, S1_SETUP),
            S1apPdu::InitialUeMessage { .. } => (Initiating, INITIAL_UE_MESSAGE),
            S1apPdu::DownlinkNasTransport { .. } => (Initiating, DOWNLINK_NAS_TRANSPORT),
            S1apPdu::UplinkNasTransport { .. } => (Initiating, UPLINK_NAS_TRANSPORT),
            S1apPdu::InitialContextSetupRequest { .. } => (Initiating, INITIAL_CONTEXT_SETUP),
            S1apPdu::InitialContextSetupResponse { .. } => {
                (SuccessfulOutcome, INITIAL_CONTEXT_SETUP)
            }
            S1apPdu::InitialContextSetupFailure { .. } => {
                (UnsuccessfulOutcome, INITIAL_CONTEXT_SETUP)
            }
            S1apPdu::UeContextReleaseRequest { .. } => (Initiating, UE_CONTEXT_RELEASE_REQUEST),
            S1apPdu::UeContextReleaseCommand { .. } => (Initiating, UE_CONTEXT_RELEASE),
            S1apPdu::UeContextReleaseComplete { .. } => (SuccessfulOutcome, UE_CONTEXT_RELEASE),
            S1apPdu::Paging { .. } => (Initiating, PAGING),
            S1apPdu::HandoverRequired { .. } => (Initiating, HANDOVER_PREPARATION),
            S1apPdu::HandoverRequest { .. } => (Initiating, HANDOVER_RESOURCE_ALLOCATION),
            S1apPdu::HandoverRequestAck { .. } => {
                (SuccessfulOutcome, HANDOVER_RESOURCE_ALLOCATION)
            }
            S1apPdu::HandoverCommand { .. } => (SuccessfulOutcome, HANDOVER_PREPARATION),
            S1apPdu::HandoverNotify { .. } => (Initiating, HANDOVER_NOTIFICATION),
            S1apPdu::OverloadStart => (Initiating, OVERLOAD_START),
            S1apPdu::OverloadStop => (Initiating, OVERLOAD_STOP),
            S1apPdu::ErrorIndication { .. } => (Initiating, ERROR_INDICATION),
        }
    }

    /// The MME-side UE id carried by the PDU, if any. SCALE's MLB routes
    /// Active-mode messages by the MMP id embedded in this value.
    pub fn mme_ue_id(&self) -> Option<u32> {
        match self {
            S1apPdu::DownlinkNasTransport { mme_ue_id, .. }
            | S1apPdu::UplinkNasTransport { mme_ue_id, .. }
            | S1apPdu::InitialContextSetupRequest { mme_ue_id, .. }
            | S1apPdu::InitialContextSetupResponse { mme_ue_id, .. }
            | S1apPdu::InitialContextSetupFailure { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseRequest { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseCommand { mme_ue_id, .. }
            | S1apPdu::UeContextReleaseComplete { mme_ue_id, .. }
            | S1apPdu::HandoverRequired { mme_ue_id, .. }
            | S1apPdu::HandoverRequest { mme_ue_id, .. }
            | S1apPdu::HandoverRequestAck { mme_ue_id, .. }
            | S1apPdu::HandoverCommand { mme_ue_id, .. }
            | S1apPdu::HandoverNotify { mme_ue_id, .. } => Some(*mme_ue_id),
            S1apPdu::ErrorIndication { mme_ue_id, .. } => *mme_ue_id,
            _ => None,
        }
    }

    /// Decode from the wire. Values that are byte strings (the NAS PDU)
    /// share `buf`'s storage (which is why it takes the handle, not a
    /// slice).
    #[allow(clippy::needless_pass_by_value)]
    pub fn decode(buf: Bytes) -> Result<S1apPdu, NasError> {
        use ie_id::*;
        use proc_code::*;
        const HEADER: usize = 2;
        let (kind, code, set) = Self::open(&buf)?;
        let bytes = |id, what| {
            set.require(id, what)
                .map(|at| buf.slice(HEADER + at.start..HEADER + at.end))
        };
        let name = |id, what| set.value(id, what).map(|v| String::from_utf8_lossy(v).into_owned());
        let key = || {
            let key = set.value(SECURITY_KEY, "security key")?;
            key.try_into().map_err(|_| NasError::Invalid {
                what: "security key length",
                value: key.len() as u64,
            })
        };
        let mme_ue_id = || set.u32(MME_UE_S1AP_ID, "mme ue id");
        let enb_ue_id = || set.u32(ENB_UE_S1AP_ID, "enb ue id");
        let cause = || set.u8(CAUSE, "cause");

        let pdu = match (kind, code) {
            (PduKind::Initiating, S1_SETUP) => S1apPdu::S1SetupRequest {
                global_enb_id: set.u32(GLOBAL_ENB_ID, "global enb id")?,
                enb_name: name(ENB_NAME, "enb name")?,
                supported_tais: decode_tai_list(bytes(SUPPORTED_TAS, "supported tas")?)?,
            },
            (PduKind::SuccessfulOutcome, S1_SETUP) => S1apPdu::S1SetupResponse {
                mme_name: name(MME_NAME, "mme name")?,
                served_gummeis: decode_gummeis(bytes(SERVED_GUMMEIS, "served gummeis")?)?,
                relative_mme_capacity: set.u8(RELATIVE_MME_CAPACITY, "relative capacity")?,
            },
            (PduKind::UnsuccessfulOutcome, S1_SETUP) => S1apPdu::S1SetupFailure { cause: cause()? },
            (PduKind::Initiating, INITIAL_UE_MESSAGE) => S1apPdu::InitialUeMessage {
                s_tmsi: Self::s_tmsi(&set)?,
                enb_ue_id: enb_ue_id()?,
                nas_pdu: bytes(NAS_PDU, "nas pdu")?,
                tai: decode_tai(bytes(TAI, "tai")?)?,
                establishment_cause: set.u8(RRC_ESTABLISHMENT_CAUSE, "establishment cause")?,
            },
            (PduKind::Initiating, DOWNLINK_NAS_TRANSPORT) => S1apPdu::DownlinkNasTransport {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
                nas_pdu: bytes(NAS_PDU, "nas pdu")?,
            },
            (PduKind::Initiating, UPLINK_NAS_TRANSPORT) => S1apPdu::UplinkNasTransport {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
                nas_pdu: bytes(NAS_PDU, "nas pdu")?,
                tai: decode_tai(bytes(TAI, "tai")?)?,
            },
            (PduKind::Initiating, INITIAL_CONTEXT_SETUP) => {
                let mut ambr = View::new(set.value(UE_AGGREGATE_MAX_BITRATE, "ue ambr")?);
                let security_key = key()?;
                S1apPdu::InitialContextSetupRequest {
                    mme_ue_id: mme_ue_id()?,
                    enb_ue_id: enb_ue_id()?,
                    erabs: decode_erab_list(bytes(ERAB_TO_BE_SETUP_LIST, "erab list")?)?,
                    ue_ambr_ul_kbps: ambr.u32("ambr ul")?,
                    ue_ambr_dl_kbps: ambr.u32("ambr dl")?,
                    security_key,
                }
            }
            (PduKind::SuccessfulOutcome, INITIAL_CONTEXT_SETUP) => {
                S1apPdu::InitialContextSetupResponse {
                    mme_ue_id: mme_ue_id()?,
                    enb_ue_id: enb_ue_id()?,
                    erabs: decode_erab_list(bytes(ERAB_SETUP_LIST, "erab list")?)?,
                }
            }
            (PduKind::UnsuccessfulOutcome, INITIAL_CONTEXT_SETUP) => {
                S1apPdu::InitialContextSetupFailure {
                    mme_ue_id: mme_ue_id()?,
                    enb_ue_id: enb_ue_id()?,
                    cause: cause()?,
                }
            }
            (PduKind::Initiating, UE_CONTEXT_RELEASE_REQUEST) => S1apPdu::UeContextReleaseRequest {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
                cause: cause()?,
            },
            (PduKind::Initiating, UE_CONTEXT_RELEASE) => S1apPdu::UeContextReleaseCommand {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
                cause: cause()?,
            },
            (PduKind::SuccessfulOutcome, UE_CONTEXT_RELEASE) => S1apPdu::UeContextReleaseComplete {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
            },
            (PduKind::Initiating, PAGING) => S1apPdu::Paging {
                ue_paging_id: read_tmsi(set.value(UE_PAGING_ID, "ue paging id")?, "ue paging id")?,
                tai_list: decode_tai_list(bytes(TAI_LIST, "tai list")?)?,
            },
            (PduKind::Initiating, HANDOVER_PREPARATION) => S1apPdu::HandoverRequired {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
                target_enb_id: set.u32(TARGET_ID, "target enb")?,
                cause: cause()?,
            },
            (PduKind::SuccessfulOutcome, HANDOVER_PREPARATION) => S1apPdu::HandoverCommand {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
            },
            (PduKind::Initiating, HANDOVER_RESOURCE_ALLOCATION) => {
                let security_key = key()?;
                S1apPdu::HandoverRequest {
                    mme_ue_id: mme_ue_id()?,
                    erabs: decode_erab_list(bytes(ERAB_TO_BE_SETUP_LIST, "erab list")?)?,
                    security_key,
                }
            }
            (PduKind::SuccessfulOutcome, HANDOVER_RESOURCE_ALLOCATION) => {
                S1apPdu::HandoverRequestAck {
                    mme_ue_id: mme_ue_id()?,
                    enb_ue_id: enb_ue_id()?,
                    erabs: decode_erab_list(bytes(ERAB_SETUP_LIST, "erab list")?)?,
                }
            }
            (PduKind::Initiating, HANDOVER_NOTIFICATION) => S1apPdu::HandoverNotify {
                mme_ue_id: mme_ue_id()?,
                enb_ue_id: enb_ue_id()?,
                tai: decode_tai(bytes(TAI, "tai")?)?,
            },
            (PduKind::Initiating, OVERLOAD_START) => S1apPdu::OverloadStart,
            (PduKind::Initiating, OVERLOAD_STOP) => S1apPdu::OverloadStop,
            (PduKind::Initiating, ERROR_INDICATION) => S1apPdu::ErrorIndication {
                mme_ue_id: set.opt_u32(MME_UE_S1AP_ID, "mme ue id")?,
                enb_ue_id: set.opt_u32(ENB_UE_S1AP_ID, "enb ue id")?,
                cause: cause()?,
            },
            _ => return Err(Self::unknown_procedure(kind, code)),
        };
        Ok(pdu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tai(tac: u16) -> Tai {
        Tai::new(Plmn::test(), tac)
    }

    fn erab() -> ErabSetup {
        ErabSetup {
            erab_id: 5,
            qci: 9,
            gtp_teid: 0xfeed,
            transport_addr: [10, 0, 0, 3],
        }
    }

    fn all_pdus() -> Vec<S1apPdu> {
        vec![
            S1apPdu::S1SetupRequest {
                global_enb_id: 0x0100_0001,
                enb_name: "enb-salt-lake-1".into(),
                supported_tais: vec![tai(1), tai(2)],
            },
            S1apPdu::S1SetupResponse {
                mme_name: "mlb-dc1".into(),
                served_gummeis: vec![Gummei {
                    plmn: Plmn::test(),
                    mme_group_id: 0x8001,
                    mme_code: 1,
                }],
                relative_mme_capacity: 255,
            },
            S1apPdu::S1SetupFailure { cause: cause::TRANSPORT_FAILURE },
            S1apPdu::InitialUeMessage {
                enb_ue_id: 17,
                nas_pdu: Bytes::from_static(&[7, 0x41, 1]),
                tai: tai(3),
                establishment_cause: 3,
                s_tmsi: Some((2, 0xc0ffee)),
            },
            S1apPdu::InitialUeMessage {
                enb_ue_id: 18,
                nas_pdu: Bytes::from_static(&[7, 0x41, 1]),
                tai: tai(3),
                establishment_cause: 3,
                s_tmsi: None,
            },
            S1apPdu::DownlinkNasTransport {
                mme_ue_id: 0x0100_0001,
                enb_ue_id: 17,
                nas_pdu: Bytes::from_static(&[1, 2, 3, 4]),
            },
            S1apPdu::UplinkNasTransport {
                mme_ue_id: 0x0100_0001,
                enb_ue_id: 17,
                nas_pdu: Bytes::from_static(&[9, 9]),
                tai: tai(3),
            },
            S1apPdu::InitialContextSetupRequest {
                mme_ue_id: 1,
                enb_ue_id: 2,
                erabs: vec![erab()],
                ue_ambr_ul_kbps: 50_000,
                ue_ambr_dl_kbps: 100_000,
                security_key: [0xab; 32],
            },
            S1apPdu::InitialContextSetupResponse {
                mme_ue_id: 1,
                enb_ue_id: 2,
                erabs: vec![erab()],
            },
            S1apPdu::InitialContextSetupFailure { mme_ue_id: 1, enb_ue_id: 2, cause: 5 },
            S1apPdu::UeContextReleaseRequest {
                mme_ue_id: 1,
                enb_ue_id: 2,
                cause: cause::USER_INACTIVITY,
            },
            S1apPdu::UeContextReleaseCommand {
                mme_ue_id: 1,
                enb_ue_id: 2,
                cause: cause::LOAD_BALANCING_TAU_REQUIRED,
            },
            S1apPdu::UeContextReleaseComplete { mme_ue_id: 1, enb_ue_id: 2 },
            S1apPdu::Paging {
                ue_paging_id: (3, 0xbeef),
                tai_list: vec![tai(1), tai(2), tai(3)],
            },
            S1apPdu::HandoverRequired {
                mme_ue_id: 1,
                enb_ue_id: 2,
                target_enb_id: 0x0100_0002,
                cause: 1,
            },
            S1apPdu::HandoverRequest {
                mme_ue_id: 1,
                erabs: vec![erab()],
                security_key: [0xcd; 32],
            },
            S1apPdu::HandoverRequestAck { mme_ue_id: 1, enb_ue_id: 9, erabs: vec![erab()] },
            S1apPdu::HandoverCommand { mme_ue_id: 1, enb_ue_id: 2 },
            S1apPdu::HandoverNotify { mme_ue_id: 1, enb_ue_id: 9, tai: tai(4) },
            S1apPdu::OverloadStart,
            S1apPdu::OverloadStop,
            S1apPdu::ErrorIndication {
                mme_ue_id: Some(1),
                enb_ue_id: None,
                cause: cause::CONTROL_PROCESSING_OVERLOAD,
            },
        ]
    }

    #[test]
    fn every_pdu_roundtrips() {
        for pdu in all_pdus() {
            let bytes = pdu.encode();
            let back = S1apPdu::decode(bytes)
                .unwrap_or_else(|e| panic!("decode failed for {pdu:?}: {e}"));
            assert_eq!(back, pdu);
        }
    }

    #[test]
    fn kind_code_pairs_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for pdu in all_pdus() {
            seen.insert(pdu.kind_and_code());
        }
        // InitialUeMessage appears twice (with/without S-TMSI).
        assert_eq!(seen.len(), all_pdus().len() - 1);
    }

    #[test]
    fn mme_ue_id_extraction() {
        assert_eq!(
            S1apPdu::DownlinkNasTransport {
                mme_ue_id: 42,
                enb_ue_id: 1,
                nas_pdu: Bytes::new()
            }
            .mme_ue_id(),
            Some(42)
        );
        assert_eq!(S1apPdu::OverloadStart.mme_ue_id(), None);
        assert_eq!(
            S1apPdu::InitialUeMessage {
                enb_ue_id: 1,
                nas_pdu: Bytes::new(),
                tai: tai(1),
                establishment_cause: 0,
                s_tmsi: None
            }
            .mme_ue_id(),
            None
        );
    }

    #[test]
    fn unknown_procedure_rejected() {
        let err = S1apPdu::decode(Bytes::from_static(&[0, 99])).unwrap_err();
        assert!(matches!(err, NasError::Invalid { .. }));
    }

    #[test]
    fn unknown_pdu_kind_rejected() {
        let err = S1apPdu::decode(Bytes::from_static(&[7, 12])).unwrap_err();
        assert!(matches!(err, NasError::Invalid { what: "s1ap pdu kind", .. }));
    }

    #[test]
    fn missing_mandatory_ie_rejected() {
        // Paging with no IEs at all.
        let err = S1apPdu::decode(Bytes::from_static(&[0, 10])).unwrap_err();
        assert!(matches!(err, NasError::Invalid { .. }));
    }

    #[test]
    fn extra_unknown_ie_tolerated() {
        // Decoders look IEs up by id, so an extra unknown IE must not break.
        let pdu = S1apPdu::UeContextReleaseComplete { mme_ue_id: 1, enb_ue_id: 2 };
        let mut bytes = pdu.encode().to_vec();
        // Append unknown IE id 999, len 2.
        bytes.extend_from_slice(&[0x03, 0xe7, 0x00, 0x02, 0xaa, 0xbb]);
        assert_eq!(S1apPdu::decode(Bytes::from(bytes)).unwrap(), pdu);
    }
}
