//! A single-thread pump over any `scale_epc::ControlPlane` (the
//! `ScaleDc` reference cluster for `dc_mix`, a bare `MmeCore` for the
//! `mme.engine.*` layer numbers), with `Ue` / `EnodeB` / `Hss` / `Sgw`
//! from `scale_epc` and the same session script as `EnbEmulator`:
//! attach → S1 release → `ops_per_ue` × (SR or TAU → release), closed
//! loop over a fixed window.
//!
//! `dc_mix` runs with `taus = false`: through `ScaleDc`, a TAU served
//! by a replica holder that did not mint the context's MME-UE-S1AP-ID
//! never reaches its Idle edge (the Release Complete routes by the
//! embedded VM id to the minting VM, which drops it as stray), so the
//! session stalls — found by this benchmark's correctness check, see
//! README.md "Known gaps". A bare `MmeCore` has no such routing and
//! runs the full mix.
//!
//! `scale_epc::Network` is not used: its `ue_by_guti` is a linear scan
//! over the population; here lifecycle edges find their UE through a
//! table indexed by M-TMSI.

use crate::engine::{Latencies, Shape, Timed, REPLICATION, RING_TOKENS, TOTAL_VMS};
use crate::host::ProcSample;
use crate::trace::{Layer, Proc, Tag, Tracer};
use scale_core::cluster::{ScaleConfig, ScaleDc};
use scale_core::provision::VmCapacity;
use scale_diameter::DiameterMsg;
use scale_epc::{
    imsi_of, op_is_tau, ControlPlane, EnbEvent, EnodeB, Hss, ProcKind, Sgw, Ue, UeEvent, ENB_BASE,
};
use scale_gtpc as gtpc;
use scale_mme::{Incoming, Outgoing};
use scale_nas::{Guti, Plmn, Tai};
use scale_s1ap::S1apPdu;
use std::collections::VecDeque;
use std::time::Instant;

/// The paper's reference cluster at the common fleet shape, with the
/// Eq-1 capacity raised so the provisioning model holds `n_ues`.
pub fn scale_dc(n_ues: usize) -> ScaleDc {
    ScaleDc::new(ScaleConfig {
        tokens: RING_TOKENS,
        replication: REPLICATION,
        initial_vms: TOTAL_VMS as u32,
        capacity: VmCapacity {
            requests_per_epoch: u64::MAX / 2,
            states: (n_ues as u64).max(25_000),
        },
        ..ScaleConfig::default()
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    Unstarted,
    Attaching,
    Releasing,
    InService,
    InTau,
    Done,
}

struct Slot {
    drive: Drive,
    enb_ue_id: u32,
    ops_done: usize,
    started: Instant,
}

/// A message in flight, named by who handles it next.
enum Item {
    Cp(Incoming),
    Enb(S1apPdu),
    Sgw(gtpc::Message),
    Hss(DiameterMsg),
}

/// Outcome counts of a pump run; all exact for a given shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpCounts {
    pub sessions_done: u64,
    pub attaches: u64,
    pub service_requests: u64,
    pub taus: u64,
    pub s1_releases: u64,
    pub rejects: u64,
    pub errors: u64,
    pub cp_calls: u64,
    pub hss_calls: u64,
    pub sgw_calls: u64,
}

impl CpCounts {
    pub fn add(&mut self, o: &CpCounts) {
        self.sessions_done += o.sessions_done;
        self.attaches += o.attaches;
        self.service_requests += o.service_requests;
        self.taus += o.taus;
        self.s1_releases += o.s1_releases;
        self.rejects += o.rejects;
        self.errors += o.errors;
        self.cp_calls += o.cp_calls;
        self.hss_calls += o.hss_calls;
        self.sgw_calls += o.sgw_calls;
    }
}

pub struct CpRun {
    pub timed: Timed,
    pub counts: CpCounts,
    pub lat: Latencies,
}

pub struct CpPump<C: ControlPlane> {
    pub cp: C,
    hss: Hss,
    sgw: Sgw,
    enb: EnodeB,
    ues: Vec<Ue>,
    slots: Vec<Slot>,
    /// M-TMSI → UE index + 1 (0 = unassigned).
    by_m_tmsi: Vec<u32>,
    plmn: Plmn,
    next_unstarted: usize,
    /// Whether idle-mode ops follow the seeded SR/TAU mix (else every
    /// op is a Service Request).
    taus: bool,
    counts: CpCounts,
    queue: VecDeque<(Item, Tag)>,
    lat: Latencies,
    error_samples: Vec<String>,
}

impl<C: ControlPlane> CpPump<C> {
    /// Set-up: subscriber provisioning, UE population, S1 Setup.
    pub fn build(cp: C, shape: &Shape, taus: bool) -> Self {
        let plmn = Plmn::test();
        let base_tai = Tai::new(plmn, 1);
        let mut hss = Hss::new(shape.seed);
        let now = Instant::now();
        let mut ues = Vec::with_capacity(shape.n_ues);
        let mut slots = Vec::with_capacity(shape.n_ues);
        for u in 0..shape.n_ues {
            let imsi = imsi_of(u);
            hss.provision(&imsi);
            ues.push(Ue::new(&imsi, plmn, base_tai));
            slots.push(Slot {
                drive: Drive::Unstarted,
                enb_ue_id: 0,
                ops_done: 0,
                started: now,
            });
        }
        let mut pump = CpPump {
            cp,
            hss,
            sgw: Sgw::new([10, 0, 0, 2]),
            enb: EnodeB::new(
                ENB_BASE,
                "cell-0",
                vec![base_tai, Tai::new(plmn, 2), Tai::new(plmn, 3)],
            ),
            ues,
            slots,
            by_m_tmsi: vec![0; shape.n_ues + 2],
            plmn,
            next_unstarted: 0,
            taus,
            counts: CpCounts::default(),
            queue: VecDeque::with_capacity(4 * shape.window + 64),
            lat: Latencies::for_shape(shape),
            error_samples: Vec::new(),
        };
        let setup = Incoming::S1ap {
            enb_id: ENB_BASE,
            pdu: pump.enb.s1_setup_request(),
        };
        match pump.cp.handle_event(setup) {
            Ok(outs) => {
                for o in outs {
                    if let Outgoing::S1ap { pdu, .. } = o {
                        pump.enb.handle_from_mme(pdu);
                    }
                }
            }
            Err(e) => pump.fail(format!("S1 setup: {e}")),
        }
        pump
    }

    fn fail(&mut self, what: String) {
        self.counts.errors += 1;
        if self.error_samples.len() < 8 {
            self.error_samples.push(what);
        }
    }

    fn tag(&self, ue: usize, proc: Proc, cause: u32) -> Tag {
        // M-TMSIs are handed out in admission order starting at 1, so
        // UE index + 1 names the session before the GUTI exists.
        Tag {
            session: ue as u32 + 1,
            proc,
            cause,
        }
    }

    fn push_uplink(&mut self, pdu: S1apPdu, tag: Tag) {
        self.queue.push_back((
            Item::Cp(Incoming::S1ap {
                enb_id: ENB_BASE,
                pdu,
            }),
            tag,
        ));
    }

    fn connect(
        &mut self,
        ue: usize,
        nas: bytes::Bytes,
        s_tmsi: Option<(u8, u32)>,
        cause: u8,
        drive: Drive,
        tag: Tag,
    ) {
        let pdu = self.enb.connect(ue, nas, s_tmsi, cause);
        if let S1apPdu::InitialUeMessage { enb_ue_id, .. } = &pdu {
            self.slots[ue].enb_ue_id = *enb_ue_id;
        }
        self.slots[ue].drive = drive;
        self.slots[ue].started = Instant::now();
        self.push_uplink(pdu, tag);
    }

    fn admit_next(&mut self, cause: u32) {
        if self.next_unstarted < self.ues.len() {
            let ue = self.next_unstarted;
            self.next_unstarted += 1;
            let nas = self.ues[ue].attach_request();
            let tag = self.tag(ue, Proc::Attach, cause);
            self.connect(ue, nas, None, 3, Drive::Attaching, tag);
        }
    }

    fn start_release(&mut self, ue: usize, cause: u32) {
        let Some(pdu) = self.enb.inactivity_release(self.slots[ue].enb_ue_id) else {
            self.fail(format!("release without connection (ue {ue})"));
            return;
        };
        self.slots[ue].drive = Drive::Releasing;
        self.slots[ue].started = Instant::now();
        let tag = self.tag(ue, Proc::Release, cause);
        self.push_uplink(pdu, tag);
    }

    fn next_op_or_done(&mut self, ue: usize, shape: &Shape, cause: u32) {
        if self.slots[ue].ops_done >= shape.ops_per_ue {
            self.slots[ue].drive = Drive::Done;
            self.counts.sessions_done += 1;
            self.admit_next(cause);
            return;
        }
        let k = self.slots[ue].ops_done as u64;
        let code = self.ues[ue].guti.map_or(0, |g| g.mme_code);
        if self.taus && op_is_tau(shape.seed, ue as u64, k) {
            let tai = Tai::new(self.plmn, 2 + (k % 2) as u16);
            let Some((nas, m_tmsi)) = self.ues[ue].tau_request(tai) else {
                self.fail(format!("ue {ue} cannot build TAU"));
                return;
            };
            let tag = self.tag(ue, Proc::Tau, cause);
            self.connect(ue, nas, Some((code, m_tmsi)), 4, Drive::InTau, tag);
        } else {
            let Some((nas, m_tmsi)) = self.ues[ue].service_request() else {
                self.fail(format!("ue {ue} cannot build SR"));
                return;
            };
            let tag = self.tag(ue, Proc::Sr, cause);
            self.connect(ue, nas, Some((code, m_tmsi)), 3, Drive::InService, tag);
        }
    }

    fn ue_of(&mut self, guti: Guti) -> Option<usize> {
        match self.by_m_tmsi.get(guti.m_tmsi as usize).copied() {
            Some(n) if n > 0 => Some(n as usize - 1),
            _ => {
                self.fail(format!(
                    "lifecycle edge for unknown m_tmsi {:#x}",
                    guti.m_tmsi
                ));
                None
            }
        }
    }

    /// A lifecycle edge from the control plane (the `Settled` of the
    /// wire deployment).
    fn settled(&mut self, guti: Guti, active: bool, shape: &Shape, cause: u32) {
        let Some(ue) = self.ue_of(guti) else { return };
        let elapsed = self.slots[ue].started.elapsed();
        match (self.slots[ue].drive, active) {
            (Drive::Attaching, true) => {
                self.counts.attaches += 1;
                self.lat.push(ProcKind::Attach, elapsed);
                self.ues[ue].radio_active();
                self.start_release(ue, cause);
            }
            (Drive::InService, true) => {
                self.counts.service_requests += 1;
                self.lat.push(ProcKind::ServiceRequest, elapsed);
                self.ues[ue].radio_active();
                self.slots[ue].ops_done += 1;
                self.start_release(ue, cause);
            }
            (Drive::Releasing, false) => {
                self.counts.s1_releases += 1;
                self.lat.push(ProcKind::S1Release, elapsed);
                self.next_op_or_done(ue, shape, cause);
            }
            (Drive::InTau, false) => {
                self.counts.taus += 1;
                self.lat.push(ProcKind::Tau, elapsed);
                self.slots[ue].ops_done += 1;
                self.next_op_or_done(ue, shape, cause);
            }
            (drive, edge) => self.fail(format!("ue {ue}: unexpected edge {edge} in {drive:?}")),
        }
    }

    /// eNodeB + UE handling of one downlink PDU.
    fn downlink(&mut self, pdu: S1apPdu, tag: Tag) {
        let events = self.enb.handle_from_mme(pdu);
        // Responses to the MME first: a Release Complete must leave
        // before the teardown of the same batch is applied.
        for ev in &events {
            if let EnbEvent::ToMme(p) = ev {
                self.push_uplink(p.clone(), tag);
            }
        }
        for ev in events {
            match ev {
                EnbEvent::ToMme(_) => {}
                EnbEvent::NasToUe { ue, nas } => self.nas_to_ue(ue, nas, tag),
                EnbEvent::UeReleased { ue } => self.ues[ue].radio_released(),
                // Paging and handover are not part of this script.
                EnbEvent::PageUe { .. }
                | EnbEvent::HandoverAdmitted { .. }
                | EnbEvent::HandoverProceed { .. } => {}
            }
        }
    }

    fn nas_to_ue(&mut self, ue: usize, nas: bytes::Bytes, tag: Tag) {
        let events = match self.ues[ue].handle_nas(nas) {
            Ok(evs) => evs,
            Err(e) => {
                self.fail(format!("ue {ue} NAS error: {e}"));
                return;
            }
        };
        for ev in events {
            match ev {
                UeEvent::SendNas(reply) => match self.enb.uplink(self.slots[ue].enb_ue_id, reply) {
                    Some(pdu) => self.push_uplink(pdu, tag),
                    None => self.fail(format!("ue {ue}: uplink without connection")),
                },
                UeEvent::Attached { guti, .. } => {
                    let i = guti.m_tmsi as usize;
                    if i >= self.by_m_tmsi.len() {
                        self.by_m_tmsi.resize(i + 1, 0);
                    }
                    self.by_m_tmsi[i] = ue as u32 + 1;
                }
                UeEvent::Detached => {}
                UeEvent::Rejected { cause } => {
                    self.counts.rejects += 1;
                    self.fail(format!("ue {ue} rejected, cause {cause}"));
                }
                UeEvent::NetworkAuthFailed => self.fail(format!("ue {ue}: network auth failed")),
            }
        }
    }

    /// The timed phase: prime the window, pump to quiescence.
    pub fn run<T: Tracer>(&mut self, shape: &Shape, tr: &mut T) -> CpRun {
        let before = ProcSample::me();
        let t0 = Instant::now();
        let t = tr.now();
        for _ in 0..shape.window.min(self.ues.len()) {
            self.admit_next(0);
        }
        tr.record(Layer::AccessStart, Tag::default(), t);

        while let Some((item, tag)) = self.queue.pop_front() {
            match item {
                Item::Cp(ev) => {
                    let t = tr.now();
                    let result = self.cp.handle_event(ev);
                    let id = tr.record(Layer::CpHandle, tag, t);
                    self.counts.cp_calls += 1;
                    let tag = Tag { cause: id, ..tag };
                    match result {
                        Ok(outs) => {
                            // Lifecycle edges start the UE's next
                            // procedure: access-side work.
                            let t = tr.now();
                            let start_id = tr.peek_id();
                            let mut edges = false;
                            for out in outs {
                                match out {
                                    Outgoing::S1ap { pdu, .. } => {
                                        self.queue.push_back((Item::Enb(pdu), tag))
                                    }
                                    Outgoing::S11(msg) => {
                                        self.queue.push_back((Item::Sgw(msg), tag))
                                    }
                                    Outgoing::S6a(msg) => {
                                        self.queue.push_back((Item::Hss(msg), tag))
                                    }
                                    Outgoing::UeActive { guti } => {
                                        edges = true;
                                        self.settled(guti, true, shape, start_id);
                                    }
                                    Outgoing::UeIdle { guti } => {
                                        edges = true;
                                        self.settled(guti, false, shape, start_id);
                                    }
                                    Outgoing::UeAttached { .. } | Outgoing::UeDetached { .. } => {}
                                }
                            }
                            if edges {
                                tr.record(Layer::AccessStart, tag, t);
                            }
                        }
                        Err(e) => self.fail(format!("control plane: {e}")),
                    }
                }
                Item::Enb(pdu) => {
                    let t = tr.now();
                    let out_tag = Tag {
                        cause: tr.peek_id(),
                        ..tag
                    };
                    self.downlink(pdu, out_tag);
                    tr.record(Layer::AccessDownlink, tag, t);
                }
                Item::Sgw(msg) => {
                    let t = tr.now();
                    let resp = self.sgw.handle(msg);
                    let id = tr.record(Layer::SgwHandle, tag, t);
                    self.counts.sgw_calls += 1;
                    if let Some(resp) = resp {
                        self.queue
                            .push_back((Item::Cp(Incoming::S11(resp)), Tag { cause: id, ..tag }));
                    }
                }
                Item::Hss(msg) => {
                    let t = tr.now();
                    let resp = self.hss.handle(&msg);
                    let id = tr.record(Layer::HssHandle, tag, t);
                    self.counts.hss_calls += 1;
                    self.queue
                        .push_back((Item::Cp(Incoming::S6a(resp)), Tag { cause: id, ..tag }));
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let used = ProcSample::me().since(&before);
        for e in &self.error_samples {
            eprintln!("cp pump: {e}");
        }
        let stuck = self
            .slots
            .iter()
            .filter(|s| !matches!(s.drive, Drive::Done | Drive::Unstarted))
            .count();
        if stuck > 0 {
            eprintln!("cp pump: quiesced with {stuck} sessions stuck mid-procedure");
        }
        CpRun {
            timed: Timed { wall_s, used },
            counts: self.counts,
            lat: std::mem::take(&mut self.lat),
        }
    }
}
