//! The eNodeB emulator: RRC connection bookkeeping and the eNodeB side
//! of every S1AP procedure — the "eNodeB emulator supporting the
//! higher-layer protocols" of the paper's testbed (§5).

use bytes::Bytes;
use scale_nas::Tai;
use scale_s1ap::{cause as s1_cause, ErabSetup, S1apPdu};
use std::collections::HashMap;

/// One RRC connection.
#[derive(Debug, Clone)]
struct Rrc {
    /// Harness-side UE handle.
    ue: usize,
    /// MME-side S1AP id, learned from the first downlink PDU.
    mme_ue_id: Option<u32>,
}

/// What the eNodeB asks its surroundings to do.
#[derive(Debug, Clone, PartialEq)]
pub enum EnbEvent {
    /// Forward this PDU to the MME (or MLB).
    ToMme(S1apPdu),
    /// Deliver a downlink NAS message to the UE.
    NasToUe { ue: usize, nas: Bytes },
    /// The RRC connection was torn down; the UE is now radio-idle.
    UeReleased { ue: usize },
    /// Paging matched a tracked TA: the harness should wake the UE with
    /// this (MME code, M-TMSI) identity if it camps on this eNodeB.
    PageUe { mme_code: u8, m_tmsi: u32 },
    /// (target side) Admission succeeded for an incoming handover.
    HandoverAdmitted { enb_ue_id: u32, mme_ue_id: u32 },
    /// (source side) MME ordered the handover to proceed; the harness
    /// moves the UE to the target eNodeB.
    HandoverProceed { ue: usize },
}

/// eNodeB emulator.
pub struct EnodeB {
    pub id: u32,
    pub name: String,
    pub tais: Vec<Tai>,
    pub addr: [u8; 4],
    next_enb_ue_id: u32,
    next_s1u_teid: u32,
    conns: HashMap<u32, Rrc>,
    /// mme_ue_id → enb_ue_id reverse index.
    by_mme_id: HashMap<u32, u32>,
}

impl EnodeB {
    pub fn new(id: u32, name: &str, tais: Vec<Tai>) -> Self {
        EnodeB {
            id,
            name: name.to_string(),
            tais,
            addr: [192, 168, (id >> 8) as u8, id as u8],
            next_enb_ue_id: 1,
            next_s1u_teid: 1,
            conns: HashMap::new(),
            by_mme_id: HashMap::new(),
        }
    }

    /// The S1 Setup Request announcing this eNodeB to an MME.
    pub fn s1_setup_request(&self) -> S1apPdu {
        S1apPdu::S1SetupRequest {
            global_enb_id: self.id,
            enb_name: self.name.clone(),
            supported_tais: self.tais.clone(),
        }
    }

    /// Number of live RRC connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// UE establishes an RRC connection and sends its first NAS message.
    /// Returns the Initial UE Message for the MME.
    pub fn connect(
        &mut self,
        ue: usize,
        nas: Bytes,
        s_tmsi: Option<(u8, u32)>,
        establishment_cause: u8,
    ) -> S1apPdu {
        // A UE holds at most one RRC connection: a new establishment
        // replaces any earlier one it abandoned (re-drive after a
        // procedure failure, cause-#9 re-attach). Without this, a late
        // downlink on the stale connection would still resolve to the
        // UE and corrupt its new procedure; now it draws an Error
        // Indication instead. (Found by the protocol model checker:
        // crash → ProcFailed re-drive races the original procedure's
        // downlink on the surviving replica holder.)
        let stale: Vec<u32> = self
            .conns
            .iter()
            .filter(|(_, rrc)| rrc.ue == ue)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            if let Some(rrc) = self.conns.remove(&id) {
                if let Some(mme_id) = rrc.mme_ue_id {
                    self.by_mme_id.remove(&mme_id);
                }
            }
        }
        let enb_ue_id = self.next_enb_ue_id;
        self.next_enb_ue_id += 1;
        self.conns.insert(enb_ue_id, Rrc { ue, mme_ue_id: None });
        S1apPdu::InitialUeMessage {
            enb_ue_id,
            nas_pdu: nas,
            tai: self.tais[0],
            establishment_cause,
            s_tmsi,
        }
    }

    /// Fold all RRC bookkeeping into `h` for model-checker state dedup.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut conns: Vec<(u32, usize, Option<u32>)> = self
            .conns
            .iter()
            .map(|(&id, rrc)| (id, rrc.ue, rrc.mme_ue_id))
            .collect();
        conns.sort_unstable();
        conns.hash(h);
        let mut by_mme: Vec<(u32, u32)> = self.by_mme_id.iter().map(|(&k, &v)| (k, v)).collect();
        by_mme.sort_unstable();
        by_mme.hash(h);
        (self.next_enb_ue_id, self.next_s1u_teid).hash(h);
    }

    /// Whether `enb_ue_id` names a live connection.
    pub fn holds_connection(&self, enb_ue_id: u32) -> bool {
        self.conns.contains_key(&enb_ue_id)
    }

    /// Find the live connection for a UE handle.
    pub fn enb_ue_id_of(&self, ue: usize) -> Option<u32> {
        self.conns
            .iter()
            .find(|(_, rrc)| rrc.ue == ue)
            .map(|(id, _)| *id)
    }

    /// Uplink NAS on an existing connection.
    pub fn uplink(&mut self, enb_ue_id: u32, nas: Bytes) -> Option<S1apPdu> {
        let rrc = self.conns.get(&enb_ue_id)?;
        let mme_ue_id = rrc.mme_ue_id?;
        Some(S1apPdu::UplinkNasTransport {
            mme_ue_id,
            enb_ue_id,
            nas_pdu: nas,
            tai: self.tais[0],
        })
    }

    /// eNodeB-side inactivity timer fired: ask the MME to release.
    pub fn inactivity_release(&mut self, enb_ue_id: u32) -> Option<S1apPdu> {
        let rrc = self.conns.get(&enb_ue_id)?;
        let mme_ue_id = rrc.mme_ue_id?;
        Some(S1apPdu::UeContextReleaseRequest {
            mme_ue_id,
            enb_ue_id,
            cause: s1_cause::USER_INACTIVITY,
        })
    }

    /// Radio measurement triggered a handover: tell the MME.
    pub fn start_handover(&mut self, enb_ue_id: u32, target_enb: u32) -> Option<S1apPdu> {
        let rrc = self.conns.get(&enb_ue_id)?;
        let mme_ue_id = rrc.mme_ue_id?;
        Some(S1apPdu::HandoverRequired {
            mme_ue_id,
            enb_ue_id,
            target_enb_id: target_enb,
            cause: 1,
        })
    }

    /// (target side) After `HandoverAdmitted`, the harness binds the
    /// arriving UE to the admitted connection and emits Handover Notify.
    pub fn complete_handover(&mut self, enb_ue_id: u32, ue: usize) -> Option<S1apPdu> {
        let rrc = self.conns.get_mut(&enb_ue_id)?;
        rrc.ue = ue;
        let mme_ue_id = rrc.mme_ue_id?;
        Some(S1apPdu::HandoverNotify {
            mme_ue_id,
            enb_ue_id,
            tai: self.tais[0],
        })
    }

    /// Process one PDU from the MME.
    pub fn handle_from_mme(&mut self, pdu: S1apPdu) -> Vec<EnbEvent> {
        match pdu {
            S1apPdu::S1SetupResponse { .. } | S1apPdu::S1SetupFailure { .. } => vec![],
            S1apPdu::DownlinkNasTransport {
                mme_ue_id,
                enb_ue_id,
                nas_pdu,
            } => {
                let Some(rrc) = self.conns.get_mut(&enb_ue_id) else {
                    return vec![EnbEvent::ToMme(S1apPdu::ErrorIndication {
                        mme_ue_id: Some(mme_ue_id),
                        enb_ue_id: Some(enb_ue_id),
                        cause: s1_cause::TRANSPORT_FAILURE,
                    })];
                };
                if mme_ue_id != 0 {
                    rrc.mme_ue_id = Some(mme_ue_id);
                    self.by_mme_id.insert(mme_ue_id, enb_ue_id);
                }
                vec![EnbEvent::NasToUe {
                    ue: rrc.ue,
                    nas: nas_pdu,
                }]
            }
            S1apPdu::InitialContextSetupRequest {
                mme_ue_id,
                enb_ue_id,
                erabs,
                ..
            } => {
                let Some(rrc) = self.conns.get_mut(&enb_ue_id) else {
                    return vec![EnbEvent::ToMme(S1apPdu::ErrorIndication {
                        mme_ue_id: Some(mme_ue_id),
                        enb_ue_id: Some(enb_ue_id),
                        cause: s1_cause::TRANSPORT_FAILURE,
                    })];
                };
                rrc.mme_ue_id = Some(mme_ue_id);
                self.by_mme_id.insert(mme_ue_id, enb_ue_id);
                // Accept every E-RAB, answering with our S1-U endpoints.
                let accepted: Vec<ErabSetup> = erabs
                    .iter()
                    .map(|e| {
                        let teid = self.next_s1u_teid;
                        self.next_s1u_teid += 1;
                        ErabSetup {
                            erab_id: e.erab_id,
                            qci: e.qci,
                            gtp_teid: teid,
                            transport_addr: self.addr,
                        }
                    })
                    .collect();
                vec![EnbEvent::ToMme(S1apPdu::InitialContextSetupResponse {
                    mme_ue_id,
                    enb_ue_id,
                    erabs: accepted,
                })]
            }
            S1apPdu::UeContextReleaseCommand {
                mme_ue_id,
                enb_ue_id,
                ..
            } => {
                let mut events = Vec::new();
                if let Some(rrc) = self.conns.remove(&enb_ue_id) {
                    if let Some(id) = rrc.mme_ue_id {
                        self.by_mme_id.remove(&id);
                    }
                    events.push(EnbEvent::UeReleased { ue: rrc.ue });
                }
                events.push(EnbEvent::ToMme(S1apPdu::UeContextReleaseComplete {
                    mme_ue_id,
                    enb_ue_id,
                }));
                events
            }
            S1apPdu::Paging {
                ue_paging_id,
                tai_list,
            } => {
                if tai_list.iter().any(|t| self.tais.contains(t)) {
                    vec![EnbEvent::PageUe {
                        mme_code: ue_paging_id.0,
                        m_tmsi: ue_paging_id.1,
                    }]
                } else {
                    vec![]
                }
            }
            S1apPdu::HandoverRequest {
                mme_ue_id, erabs, ..
            } => {
                // Admission control: allocate a connection for the
                // incoming UE (bound to a real UE at completion).
                let enb_ue_id = self.next_enb_ue_id;
                self.next_enb_ue_id += 1;
                self.conns.insert(
                    enb_ue_id,
                    Rrc {
                        ue: usize::MAX,
                        mme_ue_id: Some(mme_ue_id),
                    },
                );
                self.by_mme_id.insert(mme_ue_id, enb_ue_id);
                let accepted: Vec<ErabSetup> = erabs
                    .iter()
                    .map(|e| {
                        let teid = self.next_s1u_teid;
                        self.next_s1u_teid += 1;
                        ErabSetup {
                            erab_id: e.erab_id,
                            qci: e.qci,
                            gtp_teid: teid,
                            transport_addr: self.addr,
                        }
                    })
                    .collect();
                vec![
                    EnbEvent::HandoverAdmitted { enb_ue_id, mme_ue_id },
                    EnbEvent::ToMme(S1apPdu::HandoverRequestAck {
                        mme_ue_id,
                        enb_ue_id,
                        erabs: accepted,
                    }),
                ]
            }
            S1apPdu::HandoverCommand { enb_ue_id, .. } => {
                match self.conns.get(&enb_ue_id) {
                    Some(rrc) => vec![EnbEvent::HandoverProceed { ue: rrc.ue }],
                    None => vec![],
                }
            }
            S1apPdu::OverloadStart | S1apPdu::OverloadStop | S1apPdu::ErrorIndication { .. } => {
                vec![]
            }
            other => vec![EnbEvent::ToMme(S1apPdu::ErrorIndication {
                mme_ue_id: other.mme_ue_id(),
                enb_ue_id: None,
                cause: s1_cause::TRANSPORT_FAILURE,
            })],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_nas::Plmn;

    fn enb() -> EnodeB {
        EnodeB::new(1, "enb-1", vec![Tai::new(Plmn::test(), 7)])
    }

    #[test]
    fn connect_allocates_unique_ids() {
        let mut e = enb();
        let p1 = e.connect(0, Bytes::from_static(b"a"), None, 3);
        let p2 = e.connect(1, Bytes::from_static(b"b"), None, 3);
        let id = |p: &S1apPdu| match p {
            S1apPdu::InitialUeMessage { enb_ue_id, .. } => *enb_ue_id,
            _ => panic!(),
        };
        assert_ne!(id(&p1), id(&p2));
        assert_eq!(e.connection_count(), 2);
    }

    #[test]
    fn uplink_requires_learned_mme_id() {
        let mut e = enb();
        e.connect(0, Bytes::from_static(b"a"), None, 3);
        assert!(e.uplink(1, Bytes::from_static(b"x")).is_none());
        // Learn the MME id via a downlink NAS.
        let ev = e.handle_from_mme(S1apPdu::DownlinkNasTransport {
            mme_ue_id: 42,
            enb_ue_id: 1,
            nas_pdu: Bytes::from_static(b"dl"),
        });
        assert!(matches!(&ev[..], [EnbEvent::NasToUe { ue: 0, .. }]));
        let up = e.uplink(1, Bytes::from_static(b"x")).unwrap();
        assert!(matches!(up, S1apPdu::UplinkNasTransport { mme_ue_id: 42, .. }));
    }

    #[test]
    fn ics_accepts_erabs_with_local_endpoints() {
        let mut e = enb();
        e.connect(0, Bytes::from_static(b"a"), None, 3);
        let ev = e.handle_from_mme(S1apPdu::InitialContextSetupRequest {
            mme_ue_id: 9,
            enb_ue_id: 1,
            erabs: vec![ErabSetup {
                erab_id: 5,
                qci: 9,
                gtp_teid: 0,
                transport_addr: [0; 4],
            }],
            ue_ambr_ul_kbps: 1,
            ue_ambr_dl_kbps: 1,
            security_key: [0; 32],
        });
        match &ev[..] {
            [EnbEvent::ToMme(S1apPdu::InitialContextSetupResponse { erabs, .. })] => {
                assert_eq!(erabs.len(), 1);
                assert_eq!(erabs[0].transport_addr, e.addr);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn release_command_frees_connection() {
        let mut e = enb();
        e.connect(7, Bytes::from_static(b"a"), None, 3);
        e.handle_from_mme(S1apPdu::DownlinkNasTransport {
            mme_ue_id: 3,
            enb_ue_id: 1,
            nas_pdu: Bytes::new(),
        });
        let ev = e.handle_from_mme(S1apPdu::UeContextReleaseCommand {
            mme_ue_id: 3,
            enb_ue_id: 1,
            cause: s1_cause::USER_INACTIVITY,
        });
        assert!(matches!(ev[0], EnbEvent::UeReleased { ue: 7 }));
        assert!(matches!(
            ev[1],
            EnbEvent::ToMme(S1apPdu::UeContextReleaseComplete { .. })
        ));
        assert_eq!(e.connection_count(), 0);
    }

    #[test]
    fn paging_filters_by_tai() {
        let mut e = enb();
        let ours = Tai::new(Plmn::test(), 7);
        let other = Tai::new(Plmn::test(), 1000);
        let hit = e.handle_from_mme(S1apPdu::Paging {
            ue_paging_id: (1, 55),
            tai_list: vec![ours],
        });
        assert!(matches!(&hit[..], [EnbEvent::PageUe { mme_code: 1, m_tmsi: 55 }]));
        let miss = e.handle_from_mme(S1apPdu::Paging {
            ue_paging_id: (1, 55),
            tai_list: vec![other],
        });
        assert!(miss.is_empty());
    }

    #[test]
    fn handover_target_admission() {
        let mut e = enb();
        let ev = e.handle_from_mme(S1apPdu::HandoverRequest {
            mme_ue_id: 11,
            erabs: vec![],
            security_key: [0; 32],
        });
        let enb_ue_id = match &ev[..] {
            [EnbEvent::HandoverAdmitted { enb_ue_id, mme_ue_id: 11 }, EnbEvent::ToMme(S1apPdu::HandoverRequestAck { .. })] => {
                *enb_ue_id
            }
            other => panic!("{other:?}"),
        };
        let notify = e.complete_handover(enb_ue_id, 4).unwrap();
        assert!(matches!(notify, S1apPdu::HandoverNotify { mme_ue_id: 11, .. }));
        assert_eq!(e.enb_ue_id_of(4), Some(enb_ue_id));
    }

    #[test]
    fn downlink_to_unknown_connection_raises_error_indication() {
        let mut e = enb();
        let ev = e.handle_from_mme(S1apPdu::DownlinkNasTransport {
            mme_ue_id: 1,
            enb_ue_id: 99,
            nas_pdu: Bytes::new(),
        });
        assert!(matches!(
            &ev[..],
            [EnbEvent::ToMme(S1apPdu::ErrorIndication { .. })]
        ));
    }
}
