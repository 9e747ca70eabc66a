//! The eNodeB-emulator drive: one cell's eNodeB, its UE population and
//! the per-device procedure script (attach → S1 release → seeded SR/TAU
//! mix), decoupled from any transport. Three drivers run it, each next
//! to the same MLB and MMP machines: the wire deployment's eNodeB
//! process speaking `sctplite` to the MLB, the in-process shuttle
//! (`scale-sim`'s parity oracle), and the threaded scale-out driver,
//! which hosts one cell per worker thread. All of them must make
//! byte-identical decisions, which is why the identity scheme and
//! op-mix PRF live here and are re-exported to every driver.
//!
//! ## Identity scheme
//!
//! UE populations are striped across cells: local slot `l` of cell `c`
//! in an `n`-cell deployment is global device `u = l·n + c`, with IMSI
//! [`imsi_of`]`(u)` and the MLB-assigned M-TMSI [`MTMSI_BASE`]` + u`.
//! The *set* of `(u, op)` pairs — and therefore every per-outcome
//! count — is independent of `n`, which is what makes wire-vs-in-
//! process parity checkable across different cell counts.
//!
//! ## Drive modes
//!
//! *Closed loop* keeps a fixed window of in-flight devices per cell
//! (the `scale_out` shape). *Open loop* admits sessions on external
//! (Poisson-scheduled) arrivals and sheds arrivals beyond a bounded
//! in-flight cap — offered load is controlled by the arrival process,
//! not by completions, so overload is visible as shed + queueing
//! rather than as a silently slower generator.
//!
//! ## Crash recovery
//!
//! [`EnbEmulator::proc_failed`] re-drives the in-flight procedure of a
//! device whose serving MMP died: re-attach (by IMSI, after
//! [`Ue::forget_network`]) when the context was never replicated,
//! otherwise re-issue the SR/TAU against the surviving replica holder
//! — the §4.6 promote-or-reattach split.

use crate::{EnbEvent, EnodeB, Ue, UeEvent};
use scale_nas::{Plmn, Tai};
use scale_s1ap::S1apPdu;
use std::time::{Duration, Instant};

/// First M-TMSI handed out; global UE `u` gets `MTMSI_BASE + u`.
pub const MTMSI_BASE: u32 = 0x0200_0000;
/// eNodeB id of cell `c` is `ENB_BASE + c`.
pub const ENB_BASE: u32 = 0x0100_0000;

/// SplitMix64 — the op-mix PRF: every driver (in-process or wire)
/// derives the same SR/TAU decision from `(seed, u, k)`.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether op `k` of global UE `u` is a TAU (1-in-3; SRs are the
/// common case, TAUs the rarer periodic procedure).
#[must_use]
pub fn op_is_tau(seed: u64, u: u64, k: u64) -> bool {
    mix64(seed ^ mix64(u ^ mix64(k))) % 3 == 2
}

/// IMSI of global UE `u`, matching the HSS's `00101…` provisioning.
#[must_use]
pub fn imsi_of(global_ue: usize) -> String {
    format!("00101{global_ue:010}")
}

/// Cell on which the device `m_tmsi` is homed, or `None` if the id is
/// outside the [`MTMSI_BASE`] population.
#[must_use]
pub fn home_cell(m_tmsi: u32, n_cells: usize) -> Option<usize> {
    m_tmsi
        .checked_sub(MTMSI_BASE)
        .map(|u| u as usize % n_cells.max(1))
}

/// Procedure classes the emulator completes (latency is recorded per
/// class by the embedding runner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcKind {
    /// Initial attach (AKA + SMC + session setup).
    Attach,
    /// Idle→Active Service Request.
    ServiceRequest,
    /// Tracking Area Update.
    Tau,
    /// Active→Idle S1 release.
    S1Release,
}

impl ProcKind {
    /// Stable snake_case name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProcKind::Attach => "attach",
            ProcKind::ServiceRequest => "service_request",
            ProcKind::Tau => "tau",
            ProcKind::S1Release => "s1_release",
        }
    }
}

/// What the emulator asks its embedding runner to do.
#[derive(Debug)]
pub enum EmuEvent {
    /// Send this S1AP PDU toward the MLB/MMP side. `attach_hint`
    /// carries the routing-derived M-TMSI on fresh attaches (the MLB
    /// routes the Initial UE Message of an attach by the identity it
    /// will assign, and hands that identity to the engine as the
    /// `guti_hint` of its `Deliver`).
    Uplink {
        /// MLB-assigned M-TMSI for a fresh attach, `None` otherwise.
        attach_hint: Option<u32>,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// A procedure reached its terminal edge after `elapsed`.
    Completed {
        /// Procedure class.
        kind: ProcKind,
        /// Start-to-edge latency.
        elapsed: Duration,
    },
}

/// How sessions are admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriveMode {
    /// Fixed in-flight window, refilled on completion (`scale_out`).
    Closed {
        /// In-flight devices per cell.
        window: usize,
    },
    /// Sessions start on external arrivals; arrivals beyond the
    /// in-flight cap are shed (counted, never queued).
    Open {
        /// Bounded in-flight backpressure cap.
        max_in_flight: usize,
    },
}

/// Configuration of one emulated cell.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// This cell's index.
    pub cell: usize,
    /// Total cells in the deployment (striping modulus).
    pub n_cells: usize,
    /// Devices homed on this cell.
    pub n_local_ues: usize,
    /// Idle-mode ops (SR/TAU mix) per device after attach.
    pub ops_per_ue: usize,
    /// Op-mix seed (shared with the HSS seed by convention).
    pub seed: u64,
    /// Session admission discipline.
    pub mode: DriveMode,
}

impl EmulatorConfig {
    /// Devices homed on cell `cell` when `n_ues` are striped over
    /// `n_cells` cells.
    #[must_use]
    pub fn local_share(n_ues: usize, n_cells: usize, cell: usize) -> usize {
        n_ues / n_cells + usize::from(cell < n_ues % n_cells)
    }
}

/// Deterministic outcome counters of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmuCounts {
    /// Devices that completed their full script.
    pub sessions_done: u64,
    /// Open-loop arrivals shed at the in-flight cap.
    pub sessions_shed: u64,
    /// Attach procedures completed (≥ population under chaos:
    /// recovery re-attaches complete again).
    pub attaches: u64,
    /// Service Requests completed.
    pub service_requests: u64,
    /// TAUs completed.
    pub taus: u64,
    /// S1 releases completed.
    pub s1_releases: u64,
    /// Procedures re-driven after a serving-MMP failure.
    pub recoveries: u64,
    /// NAS rejects observed (expected 0).
    pub rejects: u64,
    /// Drive/NAS errors (expected 0).
    pub errors: u64,
}

/// Where UE `u`'s procedure currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    Unstarted,
    Attaching,
    Releasing,
    InService,
    InTau,
    Done,
}

struct UeSlot {
    ue: Ue,
    drive: Drive,
    /// Current (or latest) RRC connection id at the cell's eNodeB.
    enb_ue_id: u32,
    ops_done: usize,
    /// Whether this device has completed at least one Idle edge — the
    /// earliest point at which a replica of its context exists
    /// anywhere (replication is Idle-edge-driven, §4.4).
    has_idled: bool,
    started: Instant,
}

/// Externally observable drive state of one device slot, used by the
/// protocol model checker's ghost invariants (session safety and
/// convergence are phrased over these views, not over emulator
/// internals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Drive-phase discriminant: 0 Unstarted, 1 Attaching, 2 Releasing,
    /// 3 InService, 4 InTau, 5 Done.
    pub phase: u8,
    /// Whether the device has completed at least one Idle edge (the
    /// earliest point a replica of its context exists anywhere).
    pub has_idled: bool,
    /// Idle-mode ops completed so far.
    pub ops_done: usize,
    /// Whether the UE currently holds a GUTI.
    pub has_guti: bool,
}

/// One cell's eNodeB, UE population and drive state machine. Feed it
/// downlink PDUs and lifecycle edges; drain [`EmuEvent`]s.
pub struct EnbEmulator {
    cfg: EmulatorConfig,
    plmn: Plmn,
    enb: EnodeB,
    slots: Vec<UeSlot>,
    out: Vec<EmuEvent>,
    next_unstarted: usize,
    in_flight: usize,
    /// Deterministic outcome counters.
    pub counts: EmuCounts,
    error_samples: Vec<String>,
}

impl EnbEmulator {
    /// Build the cell: eNodeB `ENB_BASE + cell` plus its striped UE
    /// population, all Unstarted.
    #[must_use]
    pub fn new(cfg: &EmulatorConfig) -> Self {
        let plmn = Plmn::test();
        let base_tai = Tai::new(plmn, 1);
        let slots = (0..cfg.n_local_ues)
            .map(|local| {
                let u = local * cfg.n_cells + cfg.cell;
                UeSlot {
                    ue: Ue::new(&imsi_of(u), plmn, base_tai),
                    drive: Drive::Unstarted,
                    enb_ue_id: 0,
                    ops_done: 0,
                    has_idled: false,
                    started: Instant::now(),
                }
            })
            .collect();
        EnbEmulator {
            cfg: cfg.clone(),
            plmn,
            enb: EnodeB::new(
                ENB_BASE + cfg.cell as u32,
                &format!("cell-{}", cfg.cell),
                vec![base_tai, Tai::new(plmn, 2), Tai::new(plmn, 3)],
            ),
            slots,
            out: Vec::new(),
            next_unstarted: 0,
            in_flight: 0,
            counts: EmuCounts::default(),
            error_samples: Vec::new(),
        }
    }

    /// This cell's eNodeB id.
    #[must_use]
    pub fn enb_id(&self) -> u32 {
        ENB_BASE + self.cfg.cell as u32
    }

    /// The S1 Setup Request announcing the cell to the MLB.
    #[must_use]
    pub fn s1_setup_request(&self) -> S1apPdu {
        self.enb.s1_setup_request()
    }

    /// Closed loop: prime the window. Open loop: no-op (sessions wait
    /// for [`EnbEmulator::arrival`]).
    pub fn start(&mut self) {
        if let DriveMode::Closed { window } = self.cfg.mode {
            let prime = window.min(self.slots.len());
            for _ in 0..prime {
                self.admit_next();
            }
        }
    }

    /// Open loop: one scheduled session arrival. Admits the next
    /// unstarted device, or sheds the arrival if the in-flight cap is
    /// reached (that device's session never runs — open-loop load is
    /// not deferred).
    pub fn arrival(&mut self) {
        let DriveMode::Open { max_in_flight } = self.cfg.mode else {
            self.fail("arrival() called on a closed-loop cell");
            return;
        };
        if self.next_unstarted >= self.slots.len() {
            self.fail("arrival beyond the configured population");
            return;
        }
        if self.in_flight >= max_in_flight {
            let local = self.next_unstarted;
            self.next_unstarted += 1;
            self.slots[local].drive = Drive::Done;
            self.counts.sessions_shed += 1;
            return;
        }
        self.admit_next();
    }

    /// Sessions not yet admitted (open loop schedules exactly this
    /// many further arrivals).
    #[must_use]
    pub fn unstarted(&self) -> usize {
        self.slots.len() - self.next_unstarted
    }

    /// Whether every session has either completed or been shed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.counts.sessions_done + self.counts.sessions_shed == self.slots.len() as u64
    }

    /// Drain pending uplinks and completion records.
    pub fn drain(&mut self) -> Vec<EmuEvent> {
        std::mem::take(&mut self.out)
    }

    /// First few error descriptions (for reports).
    #[must_use]
    pub fn error_samples(&self) -> &[String] {
        &self.error_samples
    }

    /// Per-slot drive snapshots for external invariant checking.
    #[must_use]
    pub fn slot_views(&self) -> Vec<SlotView> {
        self.slots
            .iter()
            .map(|s| SlotView {
                phase: match s.drive {
                    Drive::Unstarted => 0,
                    Drive::Attaching => 1,
                    Drive::Releasing => 2,
                    Drive::InService => 3,
                    Drive::InTau => 4,
                    Drive::Done => 5,
                },
                has_idled: s.has_idled,
                ops_done: s.ops_done,
                has_guti: s.ue.guti.is_some(),
            })
            .collect()
    }

    /// Fold all behavior-steering cell state into `h` for model-checker
    /// state dedup. The `started: Instant` timestamps and the monotone
    /// `counts` are excluded: wall-clock never steers a decision here,
    /// and folding monotone counters in would defeat the visited-set
    /// dedup (counters are derivable from the slot drive states).
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        for slot in &self.slots {
            slot.ue.fingerprint(h);
            let phase = match slot.drive {
                Drive::Unstarted => 0u8,
                Drive::Attaching => 1,
                Drive::Releasing => 2,
                Drive::InService => 3,
                Drive::InTau => 4,
                Drive::Done => 5,
            };
            (phase, slot.enb_ue_id, slot.ops_done, slot.has_idled).hash(h);
        }
        (self.next_unstarted, self.in_flight, self.out.len()).hash(h);
        self.enb.fingerprint(h);
    }

    fn global_ue(&self, local: usize) -> usize {
        local * self.cfg.n_cells + self.cfg.cell
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.counts.errors += 1;
        if self.error_samples.len() < 8 {
            self.error_samples.push(what.into());
        }
    }

    fn admit_next(&mut self) {
        if self.next_unstarted < self.slots.len() {
            let next = self.next_unstarted;
            self.next_unstarted += 1;
            self.in_flight += 1;
            self.start_attach(next);
        }
    }

    /// Remember the RRC connection `local`'s Initial UE Message opened.
    fn track_conn(&mut self, local: usize, pdu: &S1apPdu) {
        if let S1apPdu::InitialUeMessage { enb_ue_id, .. } = pdu {
            self.slots[local].enb_ue_id = *enb_ue_id;
        }
    }

    fn start_attach(&mut self, local: usize) {
        let m_tmsi = MTMSI_BASE + self.global_ue(local) as u32;
        let nas = self.slots[local].ue.attach_request();
        let pdu = self.enb.connect(local, nas, None, 3);
        self.track_conn(local, &pdu);
        let slot = &mut self.slots[local];
        slot.drive = Drive::Attaching;
        slot.started = Instant::now();
        self.out.push(EmuEvent::Uplink {
            attach_hint: Some(m_tmsi),
            pdu,
        });
    }

    /// eNodeB inactivity timer: ask the network to release.
    fn start_release(&mut self, local: usize) {
        let enb_ue_id = self.slots[local].enb_ue_id;
        let Some(pdu) = self.enb.inactivity_release(enb_ue_id) else {
            self.fail(format!("release without connection (ue {local})"));
            return;
        };
        let slot = &mut self.slots[local];
        slot.drive = Drive::Releasing;
        slot.started = Instant::now();
        self.out.push(EmuEvent::Uplink {
            attach_hint: None,
            pdu,
        });
    }

    /// Next Idle-mode op (SR or TAU per the seeded mix), or Done.
    fn next_op_or_done(&mut self, local: usize) {
        if self.slots[local].ops_done >= self.cfg.ops_per_ue {
            self.slots[local].drive = Drive::Done;
            self.counts.sessions_done += 1;
            self.in_flight -= 1;
            if matches!(self.cfg.mode, DriveMode::Closed { .. }) {
                self.admit_next();
            }
            return;
        }
        let u = self.global_ue(local) as u64;
        let k = self.slots[local].ops_done as u64;
        if op_is_tau(self.cfg.seed, u, k) {
            self.start_tau(local, k);
        } else {
            self.start_service_request(local);
        }
    }

    fn start_service_request(&mut self, local: usize) {
        let Some((nas, m_tmsi)) = self.slots[local].ue.service_request() else {
            self.fail(format!("ue {local} cannot build SR"));
            return;
        };
        let code = self.slots[local].ue.guti.map_or(0, |g| g.mme_code);
        let pdu = self.enb.connect(local, nas, Some((code, m_tmsi)), 3);
        self.track_conn(local, &pdu);
        let slot = &mut self.slots[local];
        slot.drive = Drive::InService;
        slot.started = Instant::now();
        self.out.push(EmuEvent::Uplink {
            attach_hint: None,
            pdu,
        });
    }

    fn start_tau(&mut self, local: usize, k: u64) {
        // Alternate between two tracking areas so the TA list actually
        // changes (bounded, so contexts stay fixed-size).
        let tai = Tai::new(self.plmn, 2 + (k % 2) as u16);
        let Some((nas, m_tmsi)) = self.slots[local].ue.tau_request(tai) else {
            self.fail(format!("ue {local} cannot build TAU"));
            return;
        };
        let code = self.slots[local].ue.guti.map_or(0, |g| g.mme_code);
        let pdu = self.enb.connect(local, nas, Some((code, m_tmsi)), 4);
        self.track_conn(local, &pdu);
        let slot = &mut self.slots[local];
        slot.drive = Drive::InTau;
        slot.started = Instant::now();
        self.out.push(EmuEvent::Uplink {
            attach_hint: None,
            pdu,
        });
    }

    /// A lifecycle edge (`Active`/`Idle`) for a device homed here.
    pub fn settled(&mut self, m_tmsi: u32, active: bool) {
        let Some(u) = m_tmsi.checked_sub(MTMSI_BASE).map(|u| u as usize) else {
            self.fail(format!("settle for out-of-range m_tmsi {m_tmsi:#x}"));
            return;
        };
        let local = u / self.cfg.n_cells;
        if u % self.cfg.n_cells != self.cfg.cell || local >= self.slots.len() {
            self.fail(format!("settle for foreign m_tmsi {m_tmsi:#x}"));
            return;
        }
        let elapsed = self.slots[local].started.elapsed();
        let completed = |kind| EmuEvent::Completed { kind, elapsed };
        match (self.slots[local].drive, active) {
            (Drive::Attaching, true) => {
                self.counts.attaches += 1;
                self.out.push(completed(ProcKind::Attach));
                self.slots[local].ue.radio_active();
                self.start_release(local);
            }
            (Drive::InService, true) => {
                self.counts.service_requests += 1;
                self.out.push(completed(ProcKind::ServiceRequest));
                self.slots[local].ue.radio_active();
                self.slots[local].ops_done += 1;
                self.start_release(local);
            }
            (Drive::Releasing, false) => {
                self.counts.s1_releases += 1;
                self.out.push(completed(ProcKind::S1Release));
                self.slots[local].has_idled = true;
                self.next_op_or_done(local);
            }
            (Drive::InTau, false) => {
                self.counts.taus += 1;
                self.out.push(completed(ProcKind::Tau));
                self.slots[local].ops_done += 1;
                self.slots[local].has_idled = true;
                self.next_op_or_done(local);
            }
            (drive, edge) => {
                self.fail(format!("ue {local}: unexpected edge {edge} in {drive:?}"));
            }
        }
    }

    /// The MLB reports that the MMP serving `m_tmsi`'s in-flight
    /// procedure died. Re-drive it: devices whose context was never
    /// replicated (no Idle edge yet) forget the network and re-attach
    /// by IMSI; everyone else re-issues the interrupted procedure
    /// against the surviving replica holder.
    pub fn proc_failed(&mut self, m_tmsi: u32) {
        let Some(u) = m_tmsi.checked_sub(MTMSI_BASE).map(|u| u as usize) else {
            self.fail(format!("proc_failed for out-of-range {m_tmsi:#x}"));
            return;
        };
        let local = u / self.cfg.n_cells;
        if u % self.cfg.n_cells != self.cfg.cell || local >= self.slots.len() {
            self.fail(format!("proc_failed for foreign {m_tmsi:#x}"));
            return;
        }
        self.counts.recoveries += 1;
        match self.slots[local].drive {
            Drive::Attaching => {
                // Partial attach lived only on the dead engine.
                self.slots[local].ue.forget_network();
                self.start_attach(local);
            }
            Drive::Releasing if !self.slots[local].has_idled => {
                // Attach completed but no Idle edge yet: the Active
                // context was never replicated. Start over.
                self.slots[local].ue.forget_network();
                self.start_attach(local);
            }
            Drive::Releasing => {
                // The serving copy is gone but the Idle-edge replica
                // survives. Drop the radio link locally and move on —
                // the next procedure routes to a surviving holder.
                self.slots[local].ue.radio_released();
                self.next_op_or_done(local);
            }
            Drive::InService => {
                self.slots[local].ue.radio_released();
                self.start_service_request(local);
            }
            Drive::InTau => {
                self.slots[local].ue.radio_released();
                let k = self.slots[local].ops_done as u64;
                self.start_tau(local, k);
            }
            Drive::Unstarted | Drive::Done => {
                self.counts.recoveries -= 1; // nothing in flight
            }
        }
    }

    /// Process one downlink PDU from the MLB.
    pub fn handle_downlink(&mut self, pdu: S1apPdu) {
        let events = self.enb.handle_from_mme(pdu);
        for ev in &events {
            if let EnbEvent::ToMme(p) = ev {
                self.check_uplink_conn(p);
                self.out.push(EmuEvent::Uplink {
                    attach_hint: None,
                    pdu: p.clone(),
                });
            }
        }
        for ev in events {
            match ev {
                EnbEvent::ToMme(_) => {}
                EnbEvent::NasToUe { ue, nas } => self.nas_to_ue(ue, nas),
                EnbEvent::UeReleased { ue } => self.slots[ue].ue.radio_released(),
                // Paging and handover are not part of this drive mix.
                EnbEvent::PageUe { .. }
                | EnbEvent::HandoverAdmitted { .. }
                | EnbEvent::HandoverProceed { .. } => {}
            }
        }
    }

    /// Flag eNodeB-originated uplinks on a connection the eNodeB does
    /// not hold.
    fn check_uplink_conn(&mut self, pdu: &S1apPdu) {
        // Error Indication is exempt: it is exactly the eNodeB's "this
        // connection is unknown" signal, sent in reply to downlinks on
        // a connection the UE has already replaced. So is Release
        // Complete: the eNodeB answers every Release Command with one,
        // after the connection it names is gone.
        let enb_ue_id = match pdu {
            S1apPdu::InitialContextSetupResponse { enb_ue_id, .. }
            | S1apPdu::InitialContextSetupFailure { enb_ue_id, .. }
            | S1apPdu::UplinkNasTransport { enb_ue_id, .. } => Some(*enb_ue_id),
            _ => None,
        };
        if let Some(id) = enb_ue_id {
            if !self.enb.holds_connection(id) {
                self.fail(format!("uplink on untracked connection {id}"));
            }
        }
    }

    fn nas_to_ue(&mut self, local: usize, nas: bytes::Bytes) {
        let events = match self.slots[local].ue.handle_nas(nas) {
            Ok(evs) => evs,
            Err(e) => {
                self.fail(format!("ue {local} NAS error: {e}"));
                return;
            }
        };
        for ev in events {
            match ev {
                UeEvent::SendNas(reply) => {
                    let enb_ue_id = self.slots[local].enb_ue_id;
                    match self.enb.uplink(enb_ue_id, reply) {
                        Some(pdu) => self.out.push(EmuEvent::Uplink {
                            attach_hint: None,
                            pdu,
                        }),
                        None => self.fail(format!("ue {local}: uplink without connection")),
                    }
                }
                UeEvent::Attached { .. } | UeEvent::Detached => {}
                UeEvent::Rejected { cause } => {
                    self.counts.rejects += 1;
                    if cause == scale_nas::emm_cause::UE_IDENTITY_UNKNOWN {
                        // The network lost this device's context (§4.6:
                        // an Active-mode loss that was never replicated,
                        // or every replica holder died). The UE already
                        // dropped its GUTI and keys; start over with a
                        // fresh IMSI attach.
                        self.counts.recoveries += 1;
                        self.slots[local].ue.forget_network();
                        self.start_attach(local);
                    } else {
                        self.fail(format!("ue {local} rejected, cause {cause}"));
                    }
                }
                UeEvent::NetworkAuthFailed => {
                    self.fail(format!("ue {local}: network auth failed"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: DriveMode) -> EmulatorConfig {
        EmulatorConfig {
            cell: 1,
            n_cells: 3,
            n_local_ues: 4,
            ops_per_ue: 2,
            seed: 42,
            mode,
        }
    }

    #[test]
    fn op_mix_is_a_pure_function_with_both_kinds() {
        for u in 0..50 {
            for k in 0..4 {
                assert_eq!(op_is_tau(7, u, k), op_is_tau(7, u, k));
            }
        }
        let taus = (0..300).filter(|&u| op_is_tau(7, u, 0)).count();
        assert!(taus > 50 && taus < 250, "degenerate mix: {taus}/300");
    }

    #[test]
    fn identity_scheme_is_striped() {
        assert_eq!(imsi_of(17), "001010000000017");
        assert_eq!(home_cell(MTMSI_BASE + 7, 3), Some(1)); // 7 % 3 == 1
        assert_eq!(home_cell(MTMSI_BASE - 1, 3), None);
        // Striping round-trips: the emulator's global id lands back on
        // its own cell.
        let emu = EnbEmulator::new(&cfg(DriveMode::Closed { window: 2 }));
        for local in 0..4 {
            let u = emu.global_ue(local);
            assert_eq!(home_cell(MTMSI_BASE + u as u32, 3), Some(1));
        }
    }

    #[test]
    fn closed_loop_primes_exactly_the_window() {
        let mut emu = EnbEmulator::new(&cfg(DriveMode::Closed { window: 2 }));
        emu.start();
        let uplinks: Vec<_> = emu.drain();
        assert_eq!(uplinks.len(), 2);
        for ev in &uplinks {
            match ev {
                EmuEvent::Uplink {
                    attach_hint: Some(hint),
                    pdu: S1apPdu::InitialUeMessage { s_tmsi: None, .. },
                } => {
                    assert_eq!(home_cell(*hint, 3), Some(1));
                }
                other => panic!("expected attach uplink, got {other:?}"),
            }
        }
        assert_eq!(emu.in_flight, 2);
        assert_eq!(emu.unstarted(), 2);
    }

    #[test]
    fn open_loop_sheds_arrivals_beyond_the_cap() {
        let mut emu = EnbEmulator::new(&cfg(DriveMode::Open { max_in_flight: 2 }));
        emu.start(); // no-op in open loop
        assert!(emu.drain().is_empty());
        for _ in 0..4 {
            emu.arrival();
        }
        assert_eq!(emu.counts.sessions_shed, 2);
        assert_eq!(emu.in_flight, 2);
        assert_eq!(emu.drain().len(), 2, "two admitted attaches");
        assert_eq!(emu.counts.errors, 0);
    }

    #[test]
    fn foreign_settle_is_an_error_not_a_panic() {
        let mut emu = EnbEmulator::new(&cfg(DriveMode::Closed { window: 1 }));
        emu.start();
        emu.settled(MTMSI_BASE, true); // global 0 is cell 0's device
        assert_eq!(emu.counts.errors, 1);
    }
}
