//! # scale-mme
//!
//! The MME procedure engine and per-UE state. [`MmeCore`] is a sans-IO
//! state machine covering the procedures of §2 of the paper — attach
//! (with full EPS AKA against the HSS), service request, tracking-area
//! update, paging, S1 handover and detach — over the `scale-s1ap`,
//! `scale-gtpc` and `scale-diameter` codecs.
//!
//! The engine is deployment-agnostic: the legacy-pool baseline, SCALE's
//! MMP VMs, the discrete-event simulator and the tokio prototype all
//! embed the same `MmeCore`. SCALE-specific behaviour enters through
//! `MmeConfig::vm_id` (embedded into every minted MME-UE-S1AP-ID and
//! S11 TEID, the Active-mode routing key of §5) and the
//! `UeIdle`/`UeActive`/`UeAttached` lifecycle events the replication
//! manager listens to.

#![forbid(unsafe_code)]

pub mod context;
pub mod engine;

pub use context::{BearerState, BlobKeys, EcmState, EmmState, Procedure, TaiList, UeContext};
pub use engine::{compose_id, vm_of_id, Incoming, MmeConfig, MmeCore, MmeError, MmeStats, Outgoing};

#[cfg(test)]
mod flow_tests {
    use super::*;
    use scale_crypto::kdf::NasSecurityKeys;
    use scale_diameter::{result_code, EutranVector, S6a};
    use scale_gtpc as gtpc;
    use scale_gtpc::{iface_type, BearerContext, Cause, Fteid};
    use scale_nas::security::{Direction, SecurityHeader};
    use scale_nas::{EmmMessage, MobileId, NasSecurityContext, Plmn, Tai};
    use scale_s1ap::{cause as s1_cause, ErabSetup, S1apPdu};

    pub(crate) const ENB: u32 = 0x0100_0001;

    fn tai() -> Tai {
        Tai::new(Plmn::test(), 0x0007)
    }

    /// Test-side mirror of the UE + HSS: drives a complete attach through
    /// the engine, returning (guti, mme_ue_id, UE-side security context).
    pub(crate) fn run_attach(
        mme: &mut MmeCore,
        imsi: &str,
        enb_ue_id: u32,
    ) -> (scale_nas::Guti, u32, NasSecurityContext) {
        let kasme = [0x5a; 32];
        let xres = [7u8; 8];

        // 1. Initial UE Message (Attach Request with IMSI) → AIR.
        let attach = EmmMessage::AttachRequest {
            attach_type: 1,
            id: MobileId::Imsi(imsi.into()),
            tai: tai(),
        };
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id,
                    nas_pdu: attach.encode(),
                    tai: tai(),
                    establishment_cause: 3,
                    s_tmsi: None,
                },
            })
            .unwrap();
        let air = match &out[..] {
            [Outgoing::S6a(msg)] => msg.clone(),
            other => panic!("expected AIR, got {other:?}"),
        };
        assert!(matches!(
            S6a::from_msg(&air).unwrap(),
            S6a::AuthInfoRequest { .. }
        ));

        // 2. AIA with one vector → Authentication Request downlink.
        let aia = S6a::AuthInfoAnswer {
            result: result_code::SUCCESS,
            vectors: vec![EutranVector {
                rand: [1; 16],
                xres,
                autn: [2; 16],
                kasme,
            }],
        }
        .into_msg(air.hop_by_hop, air.end_to_end);
        let out = mme.handle(Incoming::S6a(aia)).unwrap();
        let (mme_ue_id, auth_req) = match &out[..] {
            [Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport {
                    mme_ue_id, nas_pdu, ..
                },
                ..
            }] => (*mme_ue_id, EmmMessage::decode(nas_pdu.clone()).unwrap()),
            other => panic!("expected auth request, got {other:?}"),
        };
        assert!(matches!(auth_req, EmmMessage::AuthenticationRequest { .. }));

        // 3. Authentication Response (correct RES) → protected SMC.
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: EmmMessage::AuthenticationResponse { res: xres }.encode(),
                    tai: tai(),
                },
            })
            .unwrap();
        let smc_wire = match &out[..] {
            [Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                ..
            }] => nas_pdu.clone(),
            other => panic!("expected SMC, got {other:?}"),
        };
        // UE derives the same keys and verifies the SMC.
        let keys = NasSecurityKeys::from_kasme(kasme);
        let mut ue_sec = NasSecurityContext::new(keys, 1);
        let smc = ue_sec.unprotect(smc_wire, Direction::Downlink).unwrap();
        assert!(matches!(smc, EmmMessage::SecurityModeCommand { eia: 2, .. }));

        // 4. SMC Complete (protected) → ULR.
        let smc_done = ue_sec.protect(
            &EmmMessage::SecurityModeComplete,
            Direction::Uplink,
            SecurityHeader::Integrity,
        );
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: smc_done,
                    tai: tai(),
                },
            })
            .unwrap();
        let ulr = match &out[..] {
            [Outgoing::S6a(msg)] => msg.clone(),
            other => panic!("expected ULR, got {other:?}"),
        };

        // 5. ULA → Create Session Request.
        let ula = S6a::UpdateLocationAnswer {
            result: result_code::SUCCESS,
            ambr_ul_kbps: 50_000,
            ambr_dl_kbps: 150_000,
        }
        .into_msg(ulr.hop_by_hop, ulr.end_to_end);
        let out = mme.handle(Incoming::S6a(ula)).unwrap();
        let cs_req = match &out[..] {
            [Outgoing::S11(msg)] => msg.clone(),
            other => panic!("expected CS request, got {other:?}"),
        };
        let mme_s11_teid = match &cs_req.body {
            gtpc::Body::CreateSessionRequest { sender_fteid, .. } => sender_fteid.teid,
            other => panic!("wrong S11 body {other:?}"),
        };
        assert_eq!(mme_s11_teid, mme_ue_id, "S11 TEID mirrors the S1AP id");

        // 6. CS Response → Attach Accept + Initial Context Setup.
        let cs_resp = gtpc::Message {
            teid: mme_s11_teid,
            sequence: cs_req.sequence,
            body: gtpc::Body::CreateSessionResponse {
                cause: Cause::RequestAccepted,
                sender_fteid: Some(Fteid {
                    iface: iface_type::S11_SGW,
                    teid: 0x5511,
                    ipv4: [10, 0, 0, 2],
                }),
                paa: Some([100, 64, 0, 1]),
                bearer: Some({
                    let mut b = BearerContext::new(5);
                    b.s1u_sgw_fteid = Some(Fteid {
                        iface: iface_type::S1U_SGW,
                        teid: 7777,
                        ipv4: [10, 0, 0, 2],
                    });
                    b
                }),
            },
        };
        let out = mme.handle(Incoming::S11(cs_resp)).unwrap();
        assert_eq!(out.len(), 2, "Attach Accept + ICS Request");
        let accept_wire = match &out[0] {
            Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                ..
            } => nas_pdu.clone(),
            other => panic!("expected accept, got {other:?}"),
        };
        let accept = ue_sec.unprotect(accept_wire, Direction::Downlink).unwrap();
        let guti = match accept {
            EmmMessage::AttachAccept { guti, .. } => guti,
            other => panic!("expected AttachAccept, got {other:?}"),
        };
        assert!(matches!(
            &out[1],
            Outgoing::S1ap {
                pdu: S1apPdu::InitialContextSetupRequest { .. },
                ..
            }
        ));

        // 7. ICS Response → Modify Bearer Request.
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialContextSetupResponse {
                    mme_ue_id,
                    enb_ue_id,
                    erabs: vec![ErabSetup {
                        erab_id: 5,
                        qci: 9,
                        gtp_teid: 0xe0,
                        transport_addr: [192, 168, 0, 1],
                    }],
                },
            })
            .unwrap();
        let mb_req = match &out[..] {
            [Outgoing::S11(msg)] => msg.clone(),
            other => panic!("expected MB request, got {other:?}"),
        };

        // 8. Attach Complete (may arrive before MB Response).
        let complete = ue_sec.protect(
            &EmmMessage::AttachComplete,
            Direction::Uplink,
            SecurityHeader::Integrity,
        );
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: complete,
                    tai: tai(),
                },
            })
            .unwrap();
        assert!(out.is_empty(), "attach still waiting on MB response");

        // 9. MB Response → attach finished.
        let out = mme
            .handle(Incoming::S11(gtpc::Message {
                teid: mme_s11_teid,
                sequence: mb_req.sequence,
                body: gtpc::Body::ModifyBearerResponse {
                    cause: Cause::RequestAccepted,
                    bearer: None,
                },
            }))
            .unwrap();
        assert!(
            matches!(
                &out[..],
                [Outgoing::UeAttached { .. }, Outgoing::UeActive { .. }]
            ),
            "got {out:?}"
        );
        (guti, mme_ue_id, ue_sec)
    }

    /// Drive Active→Idle via the eNodeB inactivity release.
    pub(crate) fn run_idle(mme: &mut MmeCore, mme_ue_id: u32, enb_ue_id: u32) {
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UeContextReleaseRequest {
                    mme_ue_id,
                    enb_ue_id,
                    cause: s1_cause::USER_INACTIVITY,
                },
            })
            .unwrap();
        assert_eq!(out.len(), 2, "RAB release + release command");
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UeContextReleaseComplete { mme_ue_id, enb_ue_id },
            })
            .unwrap();
        assert!(matches!(&out[..], [Outgoing::UeIdle { .. }]));
    }

    #[test]
    fn full_attach_flow() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, _sec) = run_attach(&mut mme, "001010000000001", 11);
        assert_eq!(mme.stats.attaches_completed, 1);
        assert_eq!(mme.context_count(), 1);
        let ctx = mme.context(&guti).unwrap();
        assert_eq!(ctx.emm, EmmState::Registered);
        assert_eq!(ctx.ecm, EcmState::Connected);
        assert_eq!(ctx.mme_ue_id, mme_ue_id);
        assert_eq!(ctx.bearer.s1u_sgw_teid, 7777);
    }

    #[test]
    fn idle_then_service_request() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, ue_sec) = run_attach(&mut mme, "001010000000002", 12);
        run_idle(&mut mme, mme_ue_id, 12);
        assert_eq!(mme.context(&guti).unwrap().ecm, EcmState::Idle);

        // Service request from Idle.
        let sr = EmmMessage::ServiceRequest {
            ksi: 1,
            seq: 3,
            short_mac: ue_sec.service_request_mac(1, 3),
        };
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 44,
                    nas_pdu: sr.encode(),
                    tai: tai(),
                    establishment_cause: 3,
                    s_tmsi: Some((1, guti.m_tmsi)),
                },
            })
            .unwrap();
        let ics = match &out[..] {
            [Outgoing::S1ap { pdu, .. }] => pdu.clone(),
            other => panic!("expected ICS, got {other:?}"),
        };
        // The serving VM re-mints the S1AP id at Idle→Active (§5).
        let mme_ue_id = match &ics {
            S1apPdu::InitialContextSetupRequest { mme_ue_id, .. } => *mme_ue_id,
            other => panic!("expected ICS request, got {other:?}"),
        };

        // ICS Response → MB Request → MB Response → Active.
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialContextSetupResponse {
                    mme_ue_id,
                    enb_ue_id: 44,
                    erabs: vec![ErabSetup {
                        erab_id: 5,
                        qci: 9,
                        gtp_teid: 0xe1,
                        transport_addr: [192, 168, 0, 1],
                    }],
                },
            })
            .unwrap();
        let mb_req = match &out[..] {
            [Outgoing::S11(m)] => m.clone(),
            other => panic!("{other:?}"),
        };
        let out = mme
            .handle(Incoming::S11(gtpc::Message {
                teid: 0,
                sequence: mb_req.sequence,
                body: gtpc::Body::ModifyBearerResponse {
                    cause: Cause::RequestAccepted,
                    bearer: None,
                },
            }))
            .unwrap();
        assert!(matches!(&out[..], [Outgoing::UeActive { .. }]));
        assert_eq!(mme.stats.service_requests, 1);
        assert_eq!(mme.context(&guti).unwrap().ecm, EcmState::Connected);
    }

    #[test]
    fn service_request_with_bad_mac_rejected() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, _sec) = run_attach(&mut mme, "001010000000003", 13);
        run_idle(&mut mme, mme_ue_id, 13);
        let sr = EmmMessage::ServiceRequest {
            ksi: 1,
            seq: 3,
            short_mac: [0, 0],
        };
        let err = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 44,
                    nas_pdu: sr.encode(),
                    tai: tai(),
                    establishment_cause: 3,
                    s_tmsi: Some((1, guti.m_tmsi)),
                },
            })
            .unwrap_err();
        assert!(matches!(err, MmeError::Nas(scale_nas::NasError::BadMac)));
        assert_eq!(mme.stats.auth_failures, 1);
    }

    #[test]
    fn paging_on_downlink_data() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, _sec) = run_attach(&mut mme, "001010000000004", 14);
        run_idle(&mut mme, mme_ue_id, 14);

        let out = mme
            .handle(Incoming::S11(gtpc::Message {
                teid: mme_ue_id, // DDN addresses the MME's S11 TEID
                sequence: 900,
                body: gtpc::Body::DownlinkDataNotification { ebi: 5 },
            }))
            .unwrap();
        assert_eq!(out.len(), 2, "DDN ack + paging");
        assert!(matches!(&out[0], Outgoing::S11(m)
            if matches!(m.body, gtpc::Body::DownlinkDataNotificationAck { .. })));
        match &out[1] {
            Outgoing::S1ap {
                enb_id: 0,
                pdu: S1apPdu::Paging { ue_paging_id, .. },
            } => {
                assert_eq!(ue_paging_id.1, guti.m_tmsi);
            }
            other => panic!("expected paging, got {other:?}"),
        }
        assert_eq!(mme.stats.pagings, 1);
    }

    #[test]
    fn s1_handover_flow() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (_guti, mme_ue_id, _sec) = run_attach(&mut mme, "001010000000005", 15);
        let target_enb = 0x0100_0002;

        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::HandoverRequired {
                    mme_ue_id,
                    enb_ue_id: 15,
                    target_enb_id: target_enb,
                    cause: 1,
                },
            })
            .unwrap();
        assert!(matches!(&out[..],
            [Outgoing::S1ap { enb_id, pdu: S1apPdu::HandoverRequest { .. } }]
            if *enb_id == target_enb));

        let out = mme
            .handle(Incoming::S1ap {
                enb_id: target_enb,
                pdu: S1apPdu::HandoverRequestAck {
                    mme_ue_id,
                    enb_ue_id: 99,
                    erabs: vec![],
                },
            })
            .unwrap();
        assert!(matches!(&out[..],
            [Outgoing::S1ap { enb_id, pdu: S1apPdu::HandoverCommand { .. } }]
            if *enb_id == ENB));

        let out = mme
            .handle(Incoming::S1ap {
                enb_id: target_enb,
                pdu: S1apPdu::HandoverNotify {
                    mme_ue_id,
                    enb_ue_id: 99,
                    tai: Tai::new(Plmn::test(), 0x0008),
                },
            })
            .unwrap();
        // MB request to the S-GW + release of the source side.
        assert_eq!(out.len(), 2);
        let mb_req = match &out[0] {
            Outgoing::S11(m) => m.clone(),
            other => panic!("{other:?}"),
        };
        let out = mme
            .handle(Incoming::S11(gtpc::Message {
                teid: 0,
                sequence: mb_req.sequence,
                body: gtpc::Body::ModifyBearerResponse {
                    cause: Cause::RequestAccepted,
                    bearer: None,
                },
            }))
            .unwrap();
        assert!(matches!(&out[..], [Outgoing::UeActive { .. }]));
        assert_eq!(mme.stats.handovers, 1);
    }

    #[test]
    fn detach_removes_context() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, mut ue_sec) = run_attach(&mut mme, "001010000000006", 16);
        let detach = ue_sec.protect(
            &EmmMessage::DetachRequest {
                switch_off: false,
                id: MobileId::Guti(guti),
            },
            Direction::Uplink,
            SecurityHeader::Integrity,
        );
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id: 16,
                    nas_pdu: detach,
                    tai: tai(),
                },
            })
            .unwrap();
        let ds_req = match &out[..] {
            [Outgoing::S11(m)] => m.clone(),
            other => panic!("{other:?}"),
        };
        let out = mme
            .handle(Incoming::S11(gtpc::Message {
                teid: 0,
                sequence: ds_req.sequence,
                body: gtpc::Body::DeleteSessionResponse {
                    cause: Cause::RequestAccepted,
                },
            }))
            .unwrap();
        // Detach accept + release + lifecycle event.
        assert_eq!(out.len(), 3);
        assert!(matches!(out.last(), Some(Outgoing::UeDetached { .. })));
        assert_eq!(mme.context_count(), 0);
        assert_eq!(mme.stats.detaches, 1);
    }

    #[test]
    fn wrong_res_causes_auth_reject() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let attach = EmmMessage::AttachRequest {
            attach_type: 1,
            id: MobileId::Imsi("001010000000007".into()),
            tai: tai(),
        };
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 17,
                    nas_pdu: attach.encode(),
                    tai: tai(),
                    establishment_cause: 3,
                    s_tmsi: None,
                },
            })
            .unwrap();
        let air = match &out[..] {
            [Outgoing::S6a(m)] => m.clone(),
            other => panic!("{other:?}"),
        };
        let aia = S6a::AuthInfoAnswer {
            result: result_code::SUCCESS,
            vectors: vec![EutranVector {
                rand: [1; 16],
                xres: [7; 8],
                autn: [2; 16],
                kasme: [9; 32],
            }],
        }
        .into_msg(air.hop_by_hop, air.end_to_end);
        let out = mme.handle(Incoming::S6a(aia)).unwrap();
        let mme_ue_id = match &out[..] {
            [Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport { mme_ue_id, .. },
                ..
            }] => *mme_ue_id,
            other => panic!("{other:?}"),
        };
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UplinkNasTransport {
                    mme_ue_id,
                    enb_ue_id: 17,
                    nas_pdu: EmmMessage::AuthenticationResponse { res: [0; 8] }.encode(),
                    tai: tai(),
                },
            })
            .unwrap();
        match &out[..] {
            [Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                ..
            }] => {
                assert!(matches!(
                    EmmMessage::decode(nas_pdu.clone()).unwrap(),
                    EmmMessage::AuthenticationReject
                ));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mme.stats.auth_failures, 1);
    }

    #[test]
    fn unknown_guti_attach_rejected() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let bogus = scale_nas::Guti {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 1,
            m_tmsi: 424242,
        };
        let attach = EmmMessage::AttachRequest {
            attach_type: 1,
            id: MobileId::Guti(bogus),
            tai: tai(),
        };
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 1,
                    nas_pdu: attach.encode(),
                    tai: tai(),
                    establishment_cause: 3,
                    s_tmsi: None,
                },
            })
            .unwrap();
        match &out[..] {
            [Outgoing::S1ap {
                pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                ..
            }] => {
                assert!(matches!(
                    EmmMessage::decode(nas_pdu.clone()).unwrap(),
                    EmmMessage::AttachReject { .. }
                ));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mme.stats.rejects, 1);
    }

    #[test]
    fn state_export_import_between_engines() {
        // The state transfer underlying both SCALE replication and the
        // legacy pool's device reassignment.
        let mut mme1 = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, ue_sec) = run_attach(&mut mme1, "001010000000008", 18);
        run_idle(&mut mme1, mme_ue_id, 18);
        let blob = mme1.export_state(&guti).unwrap();

        let mut mme2 = MmeCore::new(MmeConfig {
            vm_id: 2,
            ..MmeConfig::default()
        });
        let imported = mme2.import_state(blob).unwrap();
        assert_eq!(imported, guti);
        // The importing engine can serve a service request for the device.
        let sr = EmmMessage::ServiceRequest {
            ksi: 1,
            seq: 5,
            short_mac: ue_sec.service_request_mac(1, 5),
        };
        let out = mme2
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 70,
                    nas_pdu: sr.encode(),
                    tai: tai(),
                    establishment_cause: 3,
                    s_tmsi: Some((1, guti.m_tmsi)),
                },
            })
            .unwrap();
        assert!(matches!(
            &out[..],
            [Outgoing::S1ap {
                pdu: S1apPdu::InitialContextSetupRequest { .. },
                ..
            }]
        ));
    }

    #[test]
    fn tau_accept_and_release() {
        let mut mme = MmeCore::new(MmeConfig::default());
        let (guti, mme_ue_id, _sec) = run_attach(&mut mme, "001010000000009", 19);
        run_idle(&mut mme, mme_ue_id, 19);
        let tau = EmmMessage::TauRequest {
            guti,
            tai: Tai::new(Plmn::test(), 0x0042),
        };
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: 80,
                    nas_pdu: tau.encode(),
                    tai: Tai::new(Plmn::test(), 0x0042),
                    establishment_cause: 4,
                    s_tmsi: Some((1, guti.m_tmsi)),
                },
            })
            .unwrap();
        // The TAU opened a connection, and this VM minted its id.
        let tau_id = match &out[..] {
            [Outgoing::S1ap { .. }, Outgoing::S1ap {
                pdu:
                    S1apPdu::UeContextReleaseCommand {
                        mme_ue_id,
                        enb_ue_id: 80,
                        ..
                    },
                ..
            }] => *mme_ue_id,
            other => panic!("expected TAU accept + release command, got {other:?}"),
        };
        assert_ne!(tau_id, mme_ue_id);
        assert_eq!(mme.stats.taus, 1);
        let ctx = mme.context(&guti).unwrap();
        assert_eq!(ctx.tai.tac, 0x0042);
        assert!(ctx.tai_list.iter().any(|t| t.tac == 0x0042));
        let out = mme
            .handle(Incoming::S1ap {
                enb_id: ENB,
                pdu: S1apPdu::UeContextReleaseComplete {
                    mme_ue_id: tau_id,
                    enb_ue_id: 80,
                },
            })
            .unwrap();
        assert!(matches!(&out[..], [Outgoing::UeIdle { .. }]), "{out:?}");
    }

    /// A restarted engine counts its S1AP ids from 1 again, so an
    /// uplink from before the restart can carry the id of a connection
    /// opened since. The (eNB, eNB-UE-S1AP-ID) pair recorded for the id
    /// refuses it — answered with an Error Indication (TS 36.413
    /// §10.6), not an error — and the newer connection's procedure
    /// completes.
    #[test]
    fn a_pre_restart_uplink_is_refused_by_its_id_pair() {
        let config = MmeConfig {
            vm_id: 4,
            ..MmeConfig::default()
        };
        let mut crashed = MmeCore::new(config.clone());
        let (_, old_id, _) = run_attach(&mut crashed, "001010000000011", 21);
        let mut mme = MmeCore::new(config);
        let (guti, mme_ue_id, _) = run_attach(&mut mme, "001010000000012", 22);
        assert_eq!(
            mme_ue_id, old_id,
            "the restarted engine mints the old id again"
        );
        // The old connection's release request, and the id on another
        // eNodeB's connection of the same number.
        for (enb_id, enb_ue_id) in [(ENB, 21), (ENB + 1, 22)] {
            let stale = mme.handle(Incoming::S1ap {
                enb_id,
                pdu: S1apPdu::UeContextReleaseRequest {
                    mme_ue_id: old_id,
                    enb_ue_id,
                    cause: s1_cause::USER_INACTIVITY,
                },
            });
            let out = stale.unwrap();
            let [Outgoing::S1ap { enb_id: to, pdu }] = &out[..] else {
                panic!("{out:?}");
            };
            let indication = S1apPdu::ErrorIndication {
                mme_ue_id: Some(old_id),
                enb_ue_id: Some(enb_ue_id),
                cause: s1_cause::UNKNOWN_PAIR_UE_S1AP_ID,
            };
            assert_eq!((*to, pdu), (enb_id, &indication));
        }
        assert_eq!(mme.stats.error_indications, 2);
        let ctx = mme.context(&guti).unwrap();
        assert_eq!(
            (ctx.ecm, ctx.procedure),
            (EcmState::Connected, Procedure::None)
        );
        run_idle(&mut mme, mme_ue_id, 22);
        assert_eq!(mme.context(&guti).unwrap().ecm, EcmState::Idle);
    }

    #[test]
    fn vm_id_embedding() {
        assert_eq!(compose_id(3, 0x0000_0001), 0x0300_0001);
        assert_eq!(vm_of_id(0x0300_0001), 3);
        assert_eq!(vm_of_id(compose_id(255, 0xffff_ffff)), 255);
        let mut mme = MmeCore::new(MmeConfig {
            vm_id: 9,
            ..MmeConfig::default()
        });
        let (_guti, mme_ue_id, _sec) = run_attach(&mut mme, "001010000000010", 20);
        assert_eq!(vm_of_id(mme_ue_id), 9);
    }
}
