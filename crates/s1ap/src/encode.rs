//! Encoding of S1AP PDUs: every field is written once, where it stays
//! — IE values straight behind their headers, the PDU straight into
//! whatever buffer the caller's [`Writer`] continues (an envelope, a
//! frame, an egress unit).
//!
//! lint: hot-path

use crate::ie::{ie_id::*, put_ie, put_ie_bytes, put_ie_u32, put_ie_u8};
use crate::pdu::{ErabSetup, Gummei, S1apPdu};
use bytes::Bytes;
use scale_nas::wire::Writer;
use scale_nas::Tai;

fn write_erab_list(w: &mut Writer, list: &[ErabSetup]) {
    w.u8(list.len() as u8);
    for e in list {
        e.encode(w);
    }
}

fn write_tai_list(w: &mut Writer, list: &[Tai]) {
    w.u8(list.len() as u8);
    for t in list {
        t.encode(w);
    }
}

fn write_gummeis(w: &mut Writer, list: &[Gummei]) {
    w.u8(list.len() as u8);
    for g in list {
        w.slice(&g.plmn.0);
        w.u16(g.mme_group_id);
        w.u8(g.mme_code);
    }
}

/// `(MME code, M-TMSI)`: the value of an S-TMSI or UE Paging Identity.
fn write_tmsi(w: &mut Writer, (code, tmsi): (u8, u32)) {
    w.u8(code);
    w.u32(tmsi);
}

impl S1apPdu {
    /// Append the encoding, `kind(1) || proc(1) || ies…`, to `w`: every
    /// field is written once, where it stays.
    pub fn encode_into(&self, w: &mut Writer) {
        let (kind, code) = self.kind_and_code();
        w.u8(kind as u8);
        w.u8(code);
        let ue_ids = |w: &mut Writer, mme_ue_id: u32, enb_ue_id: u32| {
            put_ie_u32(w, MME_UE_S1AP_ID, mme_ue_id);
            put_ie_u32(w, ENB_UE_S1AP_ID, enb_ue_id);
        };
        match self {
            S1apPdu::S1SetupRequest {
                global_enb_id,
                enb_name,
                supported_tais,
            } => {
                put_ie_u32(w, GLOBAL_ENB_ID, *global_enb_id);
                put_ie_bytes(w, ENB_NAME, enb_name.as_bytes());
                put_ie(w, SUPPORTED_TAS, |w| write_tai_list(w, supported_tais));
            }
            S1apPdu::S1SetupResponse {
                mme_name,
                served_gummeis,
                relative_mme_capacity,
            } => {
                put_ie_bytes(w, MME_NAME, mme_name.as_bytes());
                put_ie(w, SERVED_GUMMEIS, |w| write_gummeis(w, served_gummeis));
                put_ie_u8(w, RELATIVE_MME_CAPACITY, *relative_mme_capacity);
            }
            S1apPdu::S1SetupFailure { cause } => put_ie_u8(w, CAUSE, *cause),
            S1apPdu::InitialUeMessage {
                enb_ue_id,
                nas_pdu,
                tai,
                establishment_cause,
                s_tmsi,
            } => {
                put_ie_u32(w, ENB_UE_S1AP_ID, *enb_ue_id);
                put_ie_bytes(w, NAS_PDU, nas_pdu);
                put_ie(w, TAI, |w| tai.encode(w));
                put_ie_u8(w, RRC_ESTABLISHMENT_CAUSE, *establishment_cause);
                if let Some(id) = s_tmsi {
                    put_ie(w, S_TMSI, |w| write_tmsi(w, *id));
                }
            }
            S1apPdu::DownlinkNasTransport {
                mme_ue_id,
                enb_ue_id,
                nas_pdu,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie_bytes(w, NAS_PDU, nas_pdu);
            }
            S1apPdu::UplinkNasTransport {
                mme_ue_id,
                enb_ue_id,
                nas_pdu,
                tai,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie_bytes(w, NAS_PDU, nas_pdu);
                put_ie(w, TAI, |w| tai.encode(w));
            }
            S1apPdu::InitialContextSetupRequest {
                mme_ue_id,
                enb_ue_id,
                erabs,
                ue_ambr_ul_kbps,
                ue_ambr_dl_kbps,
                security_key,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie(w, ERAB_TO_BE_SETUP_LIST, |w| write_erab_list(w, erabs));
                put_ie(w, UE_AGGREGATE_MAX_BITRATE, |w| {
                    w.u32(*ue_ambr_ul_kbps);
                    w.u32(*ue_ambr_dl_kbps);
                });
                put_ie_bytes(w, SECURITY_KEY, security_key);
            }
            S1apPdu::InitialContextSetupResponse {
                mme_ue_id,
                enb_ue_id,
                erabs,
            }
            | S1apPdu::HandoverRequestAck {
                mme_ue_id,
                enb_ue_id,
                erabs,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie(w, ERAB_SETUP_LIST, |w| write_erab_list(w, erabs));
            }
            S1apPdu::InitialContextSetupFailure {
                mme_ue_id,
                enb_ue_id,
                cause,
            }
            | S1apPdu::UeContextReleaseRequest {
                mme_ue_id,
                enb_ue_id,
                cause,
            }
            | S1apPdu::UeContextReleaseCommand {
                mme_ue_id,
                enb_ue_id,
                cause,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie_u8(w, CAUSE, *cause);
            }
            S1apPdu::UeContextReleaseComplete {
                mme_ue_id,
                enb_ue_id,
            }
            | S1apPdu::HandoverCommand {
                mme_ue_id,
                enb_ue_id,
            } => ue_ids(w, *mme_ue_id, *enb_ue_id),
            S1apPdu::Paging {
                ue_paging_id,
                tai_list,
            } => {
                put_ie(w, UE_PAGING_ID, |w| write_tmsi(w, *ue_paging_id));
                put_ie(w, TAI_LIST, |w| write_tai_list(w, tai_list));
            }
            S1apPdu::HandoverRequired {
                mme_ue_id,
                enb_ue_id,
                target_enb_id,
                cause,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie_u32(w, TARGET_ID, *target_enb_id);
                put_ie_u8(w, CAUSE, *cause);
            }
            S1apPdu::HandoverRequest {
                mme_ue_id,
                erabs,
                security_key,
            } => {
                put_ie_u32(w, MME_UE_S1AP_ID, *mme_ue_id);
                put_ie(w, ERAB_TO_BE_SETUP_LIST, |w| write_erab_list(w, erabs));
                put_ie_bytes(w, SECURITY_KEY, security_key);
            }
            S1apPdu::HandoverNotify {
                mme_ue_id,
                enb_ue_id,
                tai,
            } => {
                ue_ids(w, *mme_ue_id, *enb_ue_id);
                put_ie(w, TAI, |w| tai.encode(w));
            }
            S1apPdu::OverloadStart | S1apPdu::OverloadStop => {}
            S1apPdu::ErrorIndication {
                mme_ue_id,
                enb_ue_id,
                cause,
            } => {
                if let Some(id) = mme_ue_id {
                    put_ie_u32(w, MME_UE_S1AP_ID, *id);
                }
                if let Some(id) = enb_ue_id {
                    put_ie_u32(w, ENB_UE_S1AP_ID, *id);
                }
                put_ie_u8(w, CAUSE, *cause);
            }
        }
    }

    /// Encode to a buffer of its own.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.finish()
    }
}
