//! The in-process EPC network harness: wires UEs, eNodeBs, an HSS and an
//! S-GW around any control plane (a bare [`MmeCore`], the legacy 3GPP
//! pool, or SCALE's MLB+MMP cluster from `scale-core`) and runs complete
//! call flows to quiescence.
//!
//! Every integration test and in-process experiment drives the same
//! harness, so the baselines and SCALE see byte-identical signaling.

use crate::enodeb::{EnbEvent, EnodeB};
use crate::hss::Hss;
use crate::sgw::Sgw;
use crate::ue::{Ue, UeEvent, UeState};
use bytes::Bytes;
use scale_diameter::DiameterMsg;
use scale_gtpc as gtpc;
use scale_mme::{Incoming, MmeCore, MmeError, Outgoing};
use scale_nas::{Guti, Plmn, Tai};
use scale_s1ap::S1apPdu;
use std::collections::{HashMap, VecDeque};

/// Anything that can play the MME role toward the harness.
pub trait ControlPlane {
    /// Process one inbound event, producing follow-up actions.
    fn handle_event(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError>;

    /// Total control messages processed (for load accounting).
    fn messages_processed(&self) -> u64;
}

impl ControlPlane for MmeCore {
    fn handle_event(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        self.handle(ev)
    }

    fn messages_processed(&self) -> u64 {
        self.stats.messages_processed
    }
}

/// Internal message-in-flight.
#[allow(clippy::enum_variant_names)]
enum Wire {
    ToCp(Incoming),
    ToEnb { enb: usize, pdu: S1apPdu },
    ToUe { ue: usize, nas: Bytes },
    ToSgw(gtpc::Message),
    ToHss(DiameterMsg),
}

/// Lifecycle records collected while running flows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lifecycle {
    Attached { ue: usize },
    Idle { ue: usize },
    Active { ue: usize },
    Detached { ue: usize },
    Rejected { ue: usize, cause: u8 },
}

/// The harness.
pub struct Network<C: ControlPlane> {
    pub cp: C,
    pub hss: Hss,
    pub sgw: Sgw,
    pub enbs: Vec<EnodeB>,
    /// The devices. A UE's GUTI changes through the NAS the network
    /// hands it, or through [`Network::set_guti`]; the GUTI index
    /// follows those two.
    pub ues: Vec<Ue>,
    /// Which eNodeB each UE camps on.
    pub ue_enb: Vec<usize>,
    /// The UE holding each GUTI, keyed by its S-TMSI (MME code and
    /// M-TMSI): paging names a device by that alone, and it is unique
    /// within a pool.
    by_stmsi: HashMap<(u8, u32), usize>,
    /// Lifecycle events observed since the last `take_events`.
    pub events: Vec<Lifecycle>,
    /// Control-plane errors tolerated during lossy runs.
    pub errors: Vec<String>,
    /// Messages exchanged in the last `run` (wire hops, all interfaces).
    pub last_hops: u64,
    /// FIFO of handover admissions awaiting completion.
    pending_ho: VecDeque<(usize, u32)>,
    plmn: Plmn,
}

impl<C: ControlPlane> Network<C> {
    /// Build a network with `n_enbs` eNodeBs, each serving its own TA
    /// (TAC = 1 + index).
    pub fn new(cp: C, n_enbs: usize) -> Self {
        let plmn = Plmn::test();
        let enbs = (0..n_enbs)
            .map(|i| {
                EnodeB::new(
                    0x0100_0000 + i as u32,
                    &format!("enb-{i}"),
                    vec![Tai::new(plmn, 1 + i as u16)],
                )
            })
            .collect();
        Network {
            cp,
            hss: Hss::new(7),
            sgw: Sgw::new([10, 0, 0, 2]),
            enbs,
            ues: Vec::new(),
            ue_enb: Vec::new(),
            by_stmsi: HashMap::new(),
            events: Vec::new(),
            errors: Vec::new(),
            last_hops: 0,
            pending_ho: VecDeque::new(),
            plmn,
        }
    }

    /// Provision a subscriber and create its UE, camping on `enb`.
    /// Panics if `imsi` is not 1–15 digits.
    pub fn add_ue(&mut self, imsi: &str, enb: usize) -> usize {
        assert!(self.hss.provision(imsi), "{imsi:?} is not an IMSI");
        let tai = self.enbs[enb].tais[0];
        self.ues.push(Ue::new(imsi, self.plmn, tai));
        self.ue_enb.push(enb);
        self.ues.len() - 1
    }

    /// Run the S1 Setup handshake for every eNodeB.
    pub fn s1_setup(&mut self) {
        for i in 0..self.enbs.len() {
            let pdu = self.enbs[i].s1_setup_request();
            let enb_id = self.enbs[i].id;
            self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
        }
    }

    fn enb_index_by_id(&self, enb_id: u32) -> Option<usize> {
        self.enbs.iter().position(|e| e.id == enb_id)
    }

    /// Pump one message and everything it triggers until quiescent.
    fn run(&mut self, init: Wire) {
        let mut queue = VecDeque::new();
        queue.push_back(init);
        let mut hops = 0u64;
        while let Some(item) = queue.pop_front() {
            hops += 1;
            if hops > 100_000 {
                self.errors.push("message storm: loop aborted".into());
                break;
            }
            match item {
                Wire::ToCp(ev) => match self.cp.handle_event(ev) {
                    Ok(outs) => {
                        for out in outs {
                            match out {
                                Outgoing::S1ap { enb_id: 0, pdu } => {
                                    // Paging broadcast.
                                    for i in 0..self.enbs.len() {
                                        queue.push_back(Wire::ToEnb {
                                            enb: i,
                                            pdu: pdu.clone(),
                                        });
                                    }
                                }
                                Outgoing::S1ap { enb_id, pdu } => {
                                    match self.enb_index_by_id(enb_id) {
                                        Some(i) => queue.push_back(Wire::ToEnb { enb: i, pdu }),
                                        None => self
                                            .errors
                                            .push(format!("S1AP to unknown eNB {enb_id:#x}")),
                                    }
                                }
                                Outgoing::S11(msg) => queue.push_back(Wire::ToSgw(msg)),
                                Outgoing::S6a(msg) => queue.push_back(Wire::ToHss(msg)),
                                Outgoing::UeAttached { guti } => {
                                    if let Some(ue) = self.ue_by_guti(guti) {
                                        self.events.push(Lifecycle::Attached { ue });
                                    }
                                }
                                Outgoing::UeIdle { guti } => {
                                    if let Some(ue) = self.ue_by_guti(guti) {
                                        self.events.push(Lifecycle::Idle { ue });
                                    }
                                }
                                Outgoing::UeActive { guti } => {
                                    if let Some(ue) = self.ue_by_guti(guti) {
                                        self.events.push(Lifecycle::Active { ue });
                                    }
                                }
                                Outgoing::UeDetached { guti } => {
                                    if let Some(ue) = self.ue_by_guti(guti) {
                                        self.events.push(Lifecycle::Detached { ue });
                                    }
                                }
                            }
                        }
                    }
                    Err(e) => self.errors.push(e.to_string()),
                },
                Wire::ToEnb { enb, pdu } => {
                    let events = self.enbs[enb].handle_from_mme(pdu);
                    let enb_id = self.enbs[enb].id;
                    for ev in events {
                        match ev {
                            EnbEvent::ToMme(pdu) => {
                                queue.push_back(Wire::ToCp(Incoming::S1ap { enb_id, pdu }))
                            }
                            EnbEvent::NasToUe { ue, nas } => {
                                if ue < self.ues.len() {
                                    queue.push_back(Wire::ToUe { ue, nas });
                                }
                            }
                            EnbEvent::UeReleased { ue } => {
                                // A release from an eNodeB the UE no
                                // longer camps on (handover source) must
                                // not idle the device.
                                if ue < self.ues.len() && self.ue_enb[ue] == enb {
                                    self.ues[ue].radio_released();
                                }
                            }
                            EnbEvent::PageUe { mme_code, m_tmsi } => {
                                // Match the *exact* paged identity among
                                // idle devices camping on this eNodeB.
                                let target = self
                                    .by_stmsi
                                    .get(&(mme_code, m_tmsi))
                                    .copied()
                                    .filter(|&ue| self.ues[ue].state == UeState::Idle);
                                if let Some(ue) = target {
                                    if self.ue_enb[ue] == enb {
                                        if let Some((nas, m_tmsi)) =
                                            self.ues[ue].service_request()
                                        {
                                            let code = self.ues[ue]
                                                .guti
                                                .map(|g| g.mme_code)
                                                .unwrap_or(0);
                                            let pdu = self.enbs[enb].connect(
                                                ue,
                                                nas,
                                                Some((code, m_tmsi)),
                                                4, // mt-access
                                            );
                                            queue.push_back(Wire::ToCp(Incoming::S1ap {
                                                enb_id,
                                                pdu,
                                            }));
                                        }
                                    }
                                }
                            }
                            EnbEvent::HandoverAdmitted { enb_ue_id, .. } => {
                                self.pending_ho.push_back((enb, enb_ue_id));
                            }
                            EnbEvent::HandoverProceed { ue } => {
                                if let Some((target, enb_ue_id)) = self.pending_ho.pop_front() {
                                    self.ue_enb[ue] = target;
                                    self.ues[ue].tai = self.enbs[target].tais[0];
                                    if let Some(notify) =
                                        self.enbs[target].complete_handover(enb_ue_id, ue)
                                    {
                                        let tid = self.enbs[target].id;
                                        queue.push_back(Wire::ToCp(Incoming::S1ap {
                                            enb_id: tid,
                                            pdu: notify,
                                        }));
                                    }
                                }
                            }
                        }
                    }
                }
                Wire::ToUe { ue, nas } => match self.handle_nas(ue, nas) {
                    Ok(events) => {
                        for ev in events {
                            match ev {
                                UeEvent::SendNas(nas) => {
                                    let enb = self.ue_enb[ue];
                                    if let Some(enb_ue_id) = self.enbs[enb].enb_ue_id_of(ue) {
                                        if let Some(pdu) = self.enbs[enb].uplink(enb_ue_id, nas) {
                                            let enb_id = self.enbs[enb].id;
                                            queue.push_back(Wire::ToCp(Incoming::S1ap {
                                                enb_id,
                                                pdu,
                                            }));
                                        }
                                    }
                                }
                                UeEvent::Attached { .. } => {}
                                UeEvent::Rejected { cause } => {
                                    self.events.push(Lifecycle::Rejected { ue, cause })
                                }
                                UeEvent::Detached => {}
                                UeEvent::NetworkAuthFailed => self
                                    .errors
                                    .push(format!("ue {ue}: network authentication failed")),
                            }
                        }
                    }
                    Err(e) => self.errors.push(format!("ue {ue}: {e}")),
                },
                Wire::ToSgw(msg) => {
                    if let Some(resp) = self.sgw.handle(msg) {
                        queue.push_back(Wire::ToCp(Incoming::S11(resp)));
                    }
                }
                Wire::ToHss(msg) => {
                    let resp = self.hss.handle(&msg);
                    queue.push_back(Wire::ToCp(Incoming::S6a(resp)));
                }
            }
        }
        self.last_hops = hops;
    }

    /// Match by the full GUTI — required in pool deployments where each
    /// member has its own M-TMSI space.
    fn ue_by_guti(&self, guti: Guti) -> Option<usize> {
        self.by_stmsi
            .get(&(guti.mme_code, guti.m_tmsi))
            .copied()
            .filter(|&ue| self.ues[ue].guti == Some(guti))
    }

    /// Hand UE `ue` a downlink NAS message, keeping the GUTI index in
    /// step with whatever GUTI it holds afterwards.
    fn handle_nas(&mut self, ue: usize, nas: Bytes) -> Result<Vec<UeEvent>, scale_nas::NasError> {
        let before = self.ues[ue].guti;
        let res = self.ues[ue].handle_nas(nas);
        self.reindex(ue, before);
        res
    }

    /// Give UE `ue` a GUTI the network allocated outside a NAS exchange
    /// (a pool moving the device to another member), or take its GUTI
    /// away.
    pub fn set_guti(&mut self, ue: usize, guti: Option<Guti>) {
        let before = self.ues[ue].guti;
        self.ues[ue].guti = guti;
        self.reindex(ue, before);
    }

    fn reindex(&mut self, ue: usize, before: Option<Guti>) {
        let after = self.ues[ue].guti;
        if after == before {
            return;
        }
        if let Some(g) = before {
            let key = (g.mme_code, g.m_tmsi);
            if self.by_stmsi.get(&key) == Some(&ue) {
                self.by_stmsi.remove(&key);
            }
        }
        if let Some(g) = after {
            self.by_stmsi.insert((g.mme_code, g.m_tmsi), ue);
        }
    }

    /// Attach a UE. Falls back to an IMSI attach when a stale-GUTI
    /// attach is rejected (the UE behaviour the engine expects).
    /// Returns true when the device ends Active.
    pub fn attach(&mut self, ue: usize) -> bool {
        for _ in 0..2 {
            let nas = self.ues[ue].attach_request();
            let enb = self.ue_enb[ue];
            let pdu = self.enbs[enb].connect(ue, nas, None, 3);
            let enb_id = self.enbs[enb].id;
            self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
            if self.ues[ue].state == UeState::Active {
                return true;
            }
        }
        false
    }

    /// Drive a UE to Idle via the eNodeB inactivity release.
    pub fn go_idle(&mut self, ue: usize) -> bool {
        let enb = self.ue_enb[ue];
        let Some(enb_ue_id) = self.enbs[enb].enb_ue_id_of(ue) else {
            return false;
        };
        let Some(pdu) = self.enbs[enb].inactivity_release(enb_ue_id) else {
            return false;
        };
        let enb_id = self.enbs[enb].id;
        self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
        self.ues[ue].state == UeState::Idle
    }

    /// Idle→Active via Service Request.
    pub fn service_request(&mut self, ue: usize) -> bool {
        let Some((nas, m_tmsi)) = self.ues[ue].service_request() else {
            return false;
        };
        let code = self.ues[ue].guti.map(|g| g.mme_code).unwrap_or(0);
        let enb = self.ue_enb[ue];
        let pdu = self.enbs[enb].connect(ue, nas, Some((code, m_tmsi)), 3);
        let enb_id = self.enbs[enb].id;
        let mark = self.events.len();
        self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
        let became_active = self.events[mark..]
            .iter()
            .any(|e| matches!(e, Lifecycle::Active { ue: u } if *u == ue));
        if became_active {
            self.ues[ue].radio_active();
        }
        became_active
    }

    /// Downlink data for an Idle UE: DDN → paging → service request.
    pub fn downlink_data(&mut self, ue: usize) -> bool {
        let imsi = self.ues[ue].imsi.clone();
        let Some(ddn) = self.sgw.downlink_data(&imsi) else {
            return false;
        };
        let mark = self.events.len();
        self.run(Wire::ToCp(Incoming::S11(ddn)));
        let became_active = self.events[mark..]
            .iter()
            .any(|e| matches!(e, Lifecycle::Active { ue: u } if *u == ue));
        if became_active {
            self.ues[ue].radio_active();
        }
        became_active
    }

    /// Tracking-area update toward `tac` (moves the UE's camped TA):
    /// whether it reached its Idle edge, the release that ends it.
    pub fn tau(&mut self, ue: usize, tac: u16) -> bool {
        let new_tai = Tai::new(self.plmn, tac);
        let Some((nas, m_tmsi)) = self.ues[ue].tau_request(new_tai) else {
            return false;
        };
        let code = self.ues[ue].guti.map(|g| g.mme_code).unwrap_or(0);
        let enb = self.ue_enb[ue];
        let pdu = self.enbs[enb].connect(ue, nas, Some((code, m_tmsi)), 4);
        let enb_id = self.enbs[enb].id;
        let mark = self.events.len();
        self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
        self.events[mark..]
            .iter()
            .any(|e| matches!(e, Lifecycle::Idle { ue: u } if *u == ue))
    }

    /// S1 handover of an Active UE to another eNodeB.
    pub fn handover(&mut self, ue: usize, target: usize) -> bool {
        let source = self.ue_enb[ue];
        if source == target {
            return false;
        }
        let Some(enb_ue_id) = self.enbs[source].enb_ue_id_of(ue) else {
            return false;
        };
        let target_id = self.enbs[target].id;
        let Some(pdu) = self.enbs[source].start_handover(enb_ue_id, target_id) else {
            return false;
        };
        let enb_id = self.enbs[source].id;
        self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
        self.ue_enb[ue] == target
    }

    /// Detach a UE.
    pub fn detach(&mut self, ue: usize, switch_off: bool) -> bool {
        let Some(nas) = self.ues[ue].detach_request(switch_off) else {
            return false;
        };
        let enb = self.ue_enb[ue];
        let enb_id = self.enbs[enb].id;
        // Detach can start from Idle (new connection) or Active (uplink).
        let pdu = match self.enbs[enb].enb_ue_id_of(ue) {
            Some(enb_ue_id) => match self.enbs[enb].uplink(enb_ue_id, nas.clone()) {
                Some(p) => p,
                None => self.enbs[enb].connect(ue, nas, None, 3),
            },
            None => {
                let stmsi = self.ues[ue].guti.map(|g| (g.mme_code, g.m_tmsi));
                self.enbs[enb].connect(ue, nas, stmsi, 3)
            }
        };
        self.run(Wire::ToCp(Incoming::S1ap { enb_id, pdu }));
        self.ues[ue].state == UeState::Detached
    }

    /// Drain collected lifecycle events.
    pub fn take_events(&mut self) -> Vec<Lifecycle> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_mme::MmeConfig;

    fn network(n_ues: usize) -> Network<MmeCore> {
        let mut net = Network::new(MmeCore::new(MmeConfig::default()), 2);
        net.s1_setup();
        for i in 0..n_ues {
            net.add_ue(&format!("0010100000{i:05}"), 0);
        }
        net
    }

    #[test]
    fn attach_through_real_epc() {
        let mut net = network(1);
        assert!(net.attach(0), "errors: {:?}", net.errors);
        assert!(net.errors.is_empty(), "{:?}", net.errors);
        assert_eq!(net.ues[0].state, UeState::Active);
        assert!(net.ues[0].guti.is_some());
        assert!(net.ues[0].pdn_addr.is_some());
        assert_eq!(net.sgw.session_count(), 1);
        assert!(net
            .take_events()
            .contains(&Lifecycle::Attached { ue: 0 }));
    }

    #[test]
    fn idle_active_cycle() {
        let mut net = network(1);
        assert!(net.attach(0));
        assert!(net.go_idle(0));
        assert!(net.service_request(0), "errors: {:?}", net.errors);
        let events = net.take_events();
        assert!(events.contains(&Lifecycle::Idle { ue: 0 }));
        assert!(events.iter().filter(|e| matches!(e, Lifecycle::Active { ue: 0 })).count() >= 2);
    }

    #[test]
    fn paging_wakes_idle_ue() {
        let mut net = network(1);
        assert!(net.attach(0));
        assert!(net.go_idle(0));
        assert!(net.downlink_data(0), "errors: {:?}", net.errors);
        assert_eq!(net.ues[0].state, UeState::Active);
    }

    #[test]
    fn handover_between_enbs() {
        let mut net = network(1);
        assert!(net.attach(0));
        assert!(net.handover(0, 1), "errors: {:?}", net.errors);
        assert_eq!(net.ue_enb[0], 1);
        assert_eq!(net.ues[0].state, UeState::Active);
    }

    /// The HSS restarts with its SEQ over (a fresh instance at the same
    /// clock): the re-attach's vector repeats one the USIM accepted, the
    /// USIM reports a synch failure, and the MME's resynchronising AIR
    /// gets a vector it accepts — the attach completes.
    #[test]
    fn a_stale_vector_is_resynchronised_and_the_attach_completes() {
        let mut net = network(1);
        assert!(net.attach(0));
        assert!(net.detach(0, false), "errors: {:?}", net.errors);
        net.hss = Hss::new(7);
        net.hss.provision(&net.ues[0].imsi);
        assert!(net.attach(0), "errors: {:?}", net.errors);
        assert!(net.errors.is_empty(), "{:?}", net.errors);
        assert_eq!(net.cp.stats.resyncs, 1);
        assert_eq!(net.cp.stats.auth_failures, 0);
        assert_eq!(net.cp.stats.attaches_completed, 2);
    }

    #[test]
    fn detach_cleans_everything() {
        let mut net = network(1);
        assert!(net.attach(0));
        assert!(net.detach(0, false), "errors: {:?}", net.errors);
        assert_eq!(net.sgw.session_count(), 0);
        assert_eq!(net.cp.context_count(), 0);
    }

    #[test]
    fn many_devices_attach_independently() {
        let mut net = network(20);
        for ue in 0..20 {
            assert!(net.attach(ue), "ue {ue} errors: {:?}", net.errors);
        }
        assert_eq!(net.sgw.session_count(), 20);
        assert_eq!(net.cp.context_count(), 20);
        // All GUTIs distinct.
        let mut gutis: Vec<_> = net.ues.iter().map(|u| u.guti.unwrap()).collect();
        gutis.sort();
        gutis.dedup();
        assert_eq!(gutis.len(), 20);
    }

    #[test]
    fn a_reallocated_guti_resolves_to_its_ue_and_the_old_one_to_nothing() {
        let mut net = network(2);
        assert!(net.attach(0) && net.attach(1));
        let (first, other) = (net.ues[0].guti.unwrap(), net.ues[1].guti.unwrap());
        // Re-attach: the detach drops the security context, so the UE
        // attaches by IMSI and is given a new GUTI.
        assert!(net.detach(0, false));
        assert!(net.attach(0), "errors: {:?}", net.errors);
        let second = net.ues[0].guti.unwrap();
        assert_ne!(second, first);
        assert_eq!(net.ue_by_guti(second), Some(0));
        assert_eq!(net.ue_by_guti(first), None);
        assert_eq!(net.ue_by_guti(other), Some(1));
        // Paging finds it under the new GUTI.
        assert!(net.go_idle(0));
        assert!(net.downlink_data(0), "errors: {:?}", net.errors);
        // Moved outside NAS, as a pool reassignment does.
        let third = Guti {
            m_tmsi: second.m_tmsi + 1000,
            ..second
        };
        net.set_guti(0, Some(third));
        assert_eq!(net.ue_by_guti(third), Some(0));
        assert_eq!(net.ue_by_guti(second), None);
        net.set_guti(0, None);
        assert_eq!(net.ue_by_guti(third), None);
        assert_eq!(net.ue_by_guti(other), Some(1));
    }

    #[test]
    fn tau_from_idle() {
        let mut net = network(1);
        assert!(net.attach(0));
        assert!(net.go_idle(0));
        assert!(net.tau(0, 0x99));
        assert!(net.errors.is_empty(), "{:?}", net.errors);
        // Context is tracked in the new TA.
        let guti = net.ues[0].guti.unwrap();
        let ctx = net.cp.context(&guti).unwrap();
        assert!(ctx.tai_list.iter().any(|t| t.tac == 0x99));
    }
}
