//! The in-process SCALE DC: one MLB fronting an elastic MMP cluster —
//! the complete system of Fig 4/Fig 5(a), pluggable into the
//! `scale-epc` harness as a [`ControlPlane`].
//!
//! Responsibilities:
//! * route every S1AP/S11/S6a message to an MMP (MLB logic, §4.6);
//! * replicate device state to its ring holders on each Active→Idle
//!   transition (§4.3.2);
//! * run epochs: access-frequency profiling, access-aware allocation
//!   (§4.5.1), Eq-1 provisioning, elastic scale-out/in with consistent-
//!   hash state transfer (§4.4).

use crate::mlb::{MlbRouter, VmId};
use crate::obs::{DcObserver, ProcClass};
use crate::provision::{provision, AllocationPolicy, LoadEstimator, Provisioning, VmCapacity};
use scale_epc::ControlPlane;
use scale_mme::{Incoming, MmeConfig, MmeCore, MmeError, Outgoing};
use scale_nas::{EmmMessage, Guti, MobileId, Plmn};
use scale_obs::{Registry, Span};
use scale_s1ap::S1apPdu;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Configuration of one SCALE DC.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Serving PLMN stamped into GUTIs.
    pub plmn: Plmn,
    /// MME group id of the virtual MME.
    pub mme_group_id: u16,
    /// The MME code the MLB presents to eNodeBs.
    pub mme_code: u8,
    /// Tokens per MMP VM on the hash ring (1 = the token-less baseline
    /// of Fig 10a).
    pub tokens: u32,
    /// Replication factor R (2 in SCALE).
    pub replication: usize,
    /// Per-VM capacity for provisioning (Eq 1).
    pub capacity: VmCapacity,
    /// EWMA smoothing for the epoch load estimator.
    pub load_alpha: f64,
    /// Access-frequency EWMA per device (§4.5).
    pub access_alpha: f64,
    /// Access-aware replication policy; `None` disables access awareness
    /// (every device gets R copies — the β = 1 baseline).
    pub allocation: Option<AllocationPolicy>,
    /// Initial number of MMP VMs.
    pub initial_vms: u32,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 1,
            tokens: 5,
            replication: 2,
            capacity: VmCapacity {
                requests_per_epoch: 10_000,
                states: 25_000,
            },
            load_alpha: 0.5,
            access_alpha: 0.5,
            allocation: None,
            initial_vms: 2,
        }
    }
}

/// Cluster-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcStats {
    /// Control-plane events processed by the cluster.
    pub messages: u64,
    /// State copies pushed to replicas at Idle transitions.
    pub replications: u64,
    /// Serialized bytes moved by replication, repair and transfers.
    pub replication_bytes: u64,
    /// Requests that reached a VM without the state and were forwarded.
    pub forwards: u64,
    /// States moved during epoch rebalancing.
    pub transfers: u64,
    /// Provisioning epochs run.
    pub epochs: u64,
    /// MMP VMs lost to injected crashes.
    pub crashes: u64,
}

/// Outcome of one ring-repair pass after MMP crashes (§4.6).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairReport {
    /// Crashed VMs taken off the ring by this pass.
    pub vms_repaired: usize,
    /// Devices found under-replicated before re-replication.
    pub under_replicated: usize,
    /// Replica copies pushed to restore the replication degree.
    pub copies_restored: u64,
}

/// Report from one epoch run.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// The Eq-1 decision (V_C, V_S, target V).
    pub provisioning: Provisioning,
    /// Fleet size entering the epoch.
    pub vms_before: usize,
    /// Fleet size after scale-out/in.
    pub vms_after: usize,
    /// Storage-provisioning β in force.
    pub beta: f64,
    /// Registered devices at epoch time.
    pub registered_devices: u64,
    /// Raw load observed over the last window.
    pub observed_load: f64,
    /// States moved while rebalancing.
    pub states_transferred: u64,
    /// Devices demoted to a single copy (access awareness).
    pub single_copy_devices: u64,
}

/// One SCALE data center.
pub struct ScaleDc {
    /// The configuration the DC was built with.
    pub config: ScaleConfig,
    /// The MLB front-end.
    pub mlb: MlbRouter,
    mmps: BTreeMap<VmId, MmeCore>,
    /// Devices restricted to a single (master) copy this epoch.
    single_copy: BTreeSet<u32>,
    /// Crashed VMs still on the ring, awaiting [`Self::repair`].
    crashed: BTreeSet<VmId>,
    load_estimator: LoadEstimator,
    window_messages: u64,
    /// Cluster-level counters.
    pub stats: DcStats,
    /// Metric handles when observability is attached (see
    /// [`Self::attach_observability`]); `None` costs nothing.
    obs: Option<DcObserver>,
}

impl ScaleDc {
    /// DC with `config.initial_vms` MMPs on the ring.
    pub fn new(config: ScaleConfig) -> Self {
        let mut dc = ScaleDc {
            mlb: MlbRouter::new(
                config.tokens,
                config.replication,
                config.plmn,
                config.mme_group_id,
                config.mme_code,
            ),
            mmps: BTreeMap::new(),
            single_copy: BTreeSet::new(),
            crashed: BTreeSet::new(),
            load_estimator: LoadEstimator::new(config.load_alpha, 0.0),
            window_messages: 0,
            stats: DcStats::default(),
            obs: None,
            config,
        };
        for _ in 0..dc.config.initial_vms {
            let _ = dc.add_mmp();
        }
        dc
    }

    /// Current MMP VM count.
    pub fn vm_count(&self) -> usize {
        self.mmps.len()
    }

    /// Ids of the live MMPs.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.mmps.keys().copied().collect()
    }

    /// Total registered devices (each counted once, at its master).
    pub fn device_count(&self) -> usize {
        self.device_weights().len()
    }

    /// Contexts held by one VM (masters + replicas), for load inspection.
    pub fn states_on(&self, vm: VmId) -> usize {
        self.mmps.get(&vm).map(|m| m.context_count()).unwrap_or(0)
    }

    /// Messages processed by one VM since startup.
    pub fn handled_by(&self, vm: VmId) -> u64 {
        self.mmps
            .get(&vm)
            .map(|m| m.stats.messages_processed)
            .unwrap_or(0)
    }

    /// Spawn a new MMP VM, assign it a free 8-bit id and add it to the
    /// ring (its token arcs immediately start owning keys). Returns
    /// `None` when the 8-bit VM id space is exhausted (255 live VMs).
    pub fn add_mmp(&mut self) -> Option<VmId> {
        let vm = (1..=255u32).find(|id| !self.mmps.contains_key(id))?;
        let engine = MmeCore::new(MmeConfig {
            plmn: self.config.plmn,
            mme_group_id: self.config.mme_group_id,
            mme_code: self.config.mme_code,
            mme_name: format!("mmp-{vm}"),
            vm_id: vm as u8,
            ..MmeConfig::default()
        });
        self.mmps.insert(vm, engine);
        self.mlb.add_mmp(vm);
        #[cfg(feature = "verify")]
        self.check_invariants();
        Some(vm)
    }

    /// Decommission an MMP VM, first transferring every state it holds
    /// to the new ring owners.
    pub fn remove_mmp(&mut self, vm: VmId) -> bool {
        if !self.mmps.contains_key(&vm) || self.mmps.len() == 1 {
            return false;
        }
        self.mlb.remove_mmp(vm);
        // With the VM off the ring, re-home everything it held.
        let gutis: Vec<Guti> = self
            .mmps
            .get(&vm)
            .map(|m| m.access_freqs().map(|(m_tmsi, _)| self.mlb.guti(m_tmsi)).collect())
            .unwrap_or_default();
        for guti in gutis {
            self.sync_holders(guti, Some(vm));
        }
        self.mmps.remove(&vm);
        #[cfg(feature = "verify")]
        self.check_invariants();
        true
    }

    /// Crash an MMP VM (fault injection, §4.6): its engine — and every
    /// state copy it held — is gone instantly, with no graceful export.
    /// The VM stays on the ring until detection marks it down and
    /// [`Self::repair`] re-replicates its ranges; until then requests
    /// routed to it fail and feed the MLB's error counters. Refuses to
    /// crash the last VM (the DC would be empty).
    pub fn crash_mmp(&mut self, vm: VmId) -> bool {
        if !self.mmps.contains_key(&vm) || self.mmps.len() == 1 {
            return false;
        }
        self.mmps.remove(&vm);
        self.crashed.insert(vm);
        self.stats.crashes += 1;
        #[cfg(feature = "verify")]
        self.check_invariants();
        true
    }

    /// Ring repair after crashes: take every crashed VM off the ring
    /// (diffing the holder sets via the epoch bump), find devices left
    /// under-replicated, and re-replicate them from surviving copies.
    /// The replication traffic is charged to the serving VMs' load
    /// windows, so recovery competes with foreground capacity exactly
    /// as the paper's signaling-overhead accounting does. Devices whose
    /// every copy died (R too low) are unrecoverable here — they
    /// reappear only when the UE re-attaches.
    pub fn repair(&mut self) -> RepairReport {
        let mut report = RepairReport::default();
        for vm in std::mem::take(&mut self.crashed) {
            self.mlb.mark_down(vm);
            self.mlb.remove_mmp(vm);
            report.vms_repaired += 1;
        }
        let before = self.stats.replications;
        let ids: Vec<u32> = self.device_weights().keys().copied().collect();
        for m_tmsi in ids {
            let guti = self.mlb.guti(m_tmsi);
            let mut desired = self.mlb.holders(m_tmsi);
            if self.single_copy.contains(&m_tmsi) {
                desired.truncate(1);
            }
            // Diff the post-removal ring against reality: only devices
            // whose copy set differs from their desired holder set get
            // re-replication traffic scheduled.
            let missing = desired.iter().any(|v| {
                self.mmps.get(v).is_none_or(|m| !m.holds(&guti))
            });
            let strays = self
                .mmps
                .iter()
                .any(|(v, m)| m.holds(&guti) && !desired.contains(v));
            if missing {
                report.under_replicated += 1;
            }
            if missing || strays {
                self.sync_holders(guti, None);
            }
        }
        report.copies_restored = self.stats.replications - before;
        if let Some(obs) = &self.obs {
            obs.repair_passes.inc();
            obs.repair_vms.add(report.vms_repaired as u64);
            obs.repair_ranges.add(report.under_replicated as u64);
            obs.repair_copies.add(report.copies_restored);
        }
        #[cfg(feature = "verify")]
        {
            self.check_invariants();
            self.check_replica_invariants();
        }
        report
    }

    /// Restart a crashed/removed MMP VM under its old id: it rejoins
    /// the ring via the same deterministic token placement, is warmed
    /// by pulling the replicas its arcs now own, and only then is
    /// marked routable.
    pub fn restart_mmp(&mut self, vm: VmId) -> bool {
        if self.mmps.contains_key(&vm) || vm == 0 || vm > 255 {
            return false;
        }
        // If the crash was never repaired, repair first so the pull
        // below starts from a fully replicated survivor set.
        if self.crashed.contains(&vm) {
            self.repair();
        }
        let engine = MmeCore::new(MmeConfig {
            plmn: self.config.plmn,
            mme_group_id: self.config.mme_group_id,
            mme_code: self.config.mme_code,
            mme_name: format!("mmp-{vm}"),
            vm_id: vm as u8,
            ..MmeConfig::default()
        });
        self.mmps.insert(vm, engine);
        self.mlb.add_mmp(vm);
        // Warming: down (unroutable) while replicas are pulled onto the
        // arcs the rejoined VM now owns.
        self.mlb.health.mark_down(vm);
        let ids: Vec<u32> = self.device_weights().keys().copied().collect();
        for m_tmsi in ids {
            let guti = self.mlb.guti(m_tmsi);
            self.sync_holders(guti, None);
        }
        self.mlb.mark_up(vm);
        #[cfg(feature = "verify")]
        {
            self.check_invariants();
            self.check_replica_invariants();
        }
        true
    }

    /// Audit DC-wide structural coherence, panicking on violation:
    /// the MLB's own invariants, plus ring membership == live engines
    /// ∪ crashed-but-unrepaired VMs (a VM on the ring with no engine
    /// and no pending crash would blackhole every key it owns).
    /// Called after every membership mutation under `verify`.
    // lint: allow(alloc): verify-feature audit, never on the message path
    #[cfg(feature = "verify")]
    pub fn check_invariants(&self) {
        self.mlb.check_invariants();
        let on_ring: BTreeSet<VmId> = self.mlb.mmps().iter().copied().collect();
        let mut expected: BTreeSet<VmId> = self.mmps.keys().copied().collect();
        for vm in &self.crashed {
            assert!(
                !self.mmps.contains_key(vm),
                "VM {vm} is both live and awaiting repair"
            );
            expected.insert(*vm);
        }
        assert_eq!(
            on_ring, expected,
            "ring membership diverged from engines ∪ crashed"
        );
    }

    /// Audit the replication degree of every registered device: after a
    /// full sync pass (repair, restart warm-up, or epoch re-homing) and
    /// with no crash pending, each device must live on exactly its
    /// desired holder set — `min(R, live VMs)` distinct copies, or one
    /// copy for access-aware single-copy devices — with no strays.
    /// A no-op while a crash awaits [`Self::repair`] (the DC is
    /// legitimately degraded then). Called at the end of repair,
    /// restart and epoch runs under `verify`.
    // lint: allow(alloc): verify-feature audit, never on the message path
    #[cfg(feature = "verify")]
    pub fn check_replica_invariants(&self) {
        if !self.crashed.is_empty() {
            return;
        }
        for &m_tmsi in self.device_weights().keys() {
            let guti = self.mlb.guti(m_tmsi);
            let mut desired = self.mlb.holders(m_tmsi);
            if self.single_copy.contains(&m_tmsi) {
                desired.truncate(1);
            }
            let want = if self.single_copy.contains(&m_tmsi) {
                1
            } else {
                self.config.replication.min(self.mmps.len())
            };
            assert_eq!(
                desired.len(),
                want,
                "device {m_tmsi}: ring offers {} holders, want {want}",
                desired.len()
            );
            for vm in &desired {
                assert!(
                    self.mmps
                        .get(vm)
                        .is_some_and(|m| m.holds(&guti)),
                    "device {m_tmsi}: desired holder VM {vm} is missing its copy"
                );
            }
            for (vm, engine) in &self.mmps {
                assert!(
                    desired.contains(vm) || !engine.holds(&guti),
                    "device {m_tmsi}: stray copy on VM {vm} outside holder set {desired:?}"
                );
            }
        }
    }

    /// Ensure `guti`'s state lives on exactly its desired holders.
    /// `source` (if given) is a VM known to hold a fresh copy.
    fn sync_holders(&mut self, guti: Guti, source: Option<VmId>) {
        let m_tmsi = guti.m_tmsi;
        let mut desired = self.mlb.holders(m_tmsi);
        if self.single_copy.contains(&m_tmsi) {
            desired.truncate(1);
        }
        // Find a current holder to export from.
        let from = source
            .filter(|v| self.mmps.get(v).is_some_and(|m| m.holds(&guti)))
            .or_else(|| {
                self.mmps
                    .iter()
                    .find(|(_, m)| m.holds(&guti))
                    .map(|(v, _)| *v)
            });
        let Some(from) = from else { return };
        let Some(blob) = self.mmps.get(&from).and_then(|m| m.export_state(&guti)) else {
            return;
        };
        for vm in self.vm_ids() {
            let wanted = desired.contains(&vm);
            let has = self.mmps.get(&vm).is_some_and(|m| m.holds(&guti));
            if wanted {
                // Refresh (or create) the copy.
                if vm != from || !has {
                    if let Some(engine) = self.mmps.get_mut(&vm) {
                        let _ = engine.import_state(&blob);
                        self.stats.replications += 1;
                        self.stats.replication_bytes += blob.len() as u64;
                        // Replication costs service capacity on both
                        // ends — repair traffic competes with the
                        // foreground load the MLB balances on.
                        self.mlb.record_handled(from);
                        self.mlb.record_handled(vm);
                    }
                } else {
                    // `from` already holds the fresh copy.
                }
            } else if has {
                if let Some(engine) = self.mmps.get_mut(&vm) {
                    engine.remove_context(&guti);
                }
            }
        }
    }

    /// Unique devices and their access frequencies.
    fn device_weights(&self) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for engine in self.mmps.values() {
            for (m_tmsi, access_freq) in engine.access_freqs() {
                out.entry(m_tmsi).or_insert(access_freq);
            }
        }
        out
    }

    /// Pick the VM to process an Idle-mode request for `m_tmsi`: the
    /// least-loaded replica holder that actually has the state, falling
    /// back to the master (counting a forward, §4.6 case 2).
    fn route_with_state(&mut self, m_tmsi: u32) -> Option<VmId> {
        let guti = self.mlb.guti(m_tmsi);
        let has = |dc: &Self, vm: VmId| dc.mmps.get(&vm).is_some_and(|m| m.holds(&guti));
        // `route_idle_transition` already skips holders marked down;
        // `None` means every holder is down, not that the state is gone.
        if let Some(chosen) = self.mlb.route_idle_transition(m_tmsi) {
            if has(self, chosen) {
                return Some(chosen);
            }
            // Forward along the holder list.
            for vm in self.mlb.holders(m_tmsi) {
                if !self.mlb.is_down(vm) && has(self, vm) {
                    self.stats.forwards += 1;
                    return Some(vm);
                }
            }
        }
        self.stats.forwards += 1;
        // Last resort: anywhere a live VM still has the state.
        let mlb = &self.mlb;
        self.mmps
            .iter()
            .find(|(v, m)| !mlb.is_down(**v) && m.holds(&guti))
            .map(|(v, _)| *v)
    }

    /// Route one inbound event to `(vm, guti_hint)`.
    fn route(&mut self, ev: &Incoming) -> Result<(VmId, Option<u32>), MmeError> {
        match ev {
            Incoming::S1ap { pdu, .. } => match pdu {
                S1apPdu::InitialUeMessage {
                    nas_pdu, s_tmsi, ..
                } => {
                    // Protected initial NAS (Idle-mode TAU/Detach):
                    // route by the S-TMSI to a state holder.
                    if scale_nas::is_protected(nas_pdu) {
                        let (_, m_tmsi) =
                            s_tmsi.ok_or(MmeError::UnknownUe("protected NAS without S-TMSI"))?;
                        return Ok((
                            self.route_with_state(m_tmsi)
                                .ok_or(MmeError::UnknownUe("no state holder"))?,
                            None,
                        ));
                    }
                    // Peek the NAS to classify the request.
                    let msg = EmmMessage::decode(nas_pdu.clone())?;
                    match msg {
                        EmmMessage::AttachRequest {
                            id: MobileId::Imsi(_),
                            ..
                        } => {
                            let (m_tmsi, master) = self
                                .mlb
                                .assign_guti()
                                .ok_or(MmeError::BadState("no MMPs".into()))?;
                            Ok((master, Some(m_tmsi)))
                        }
                        EmmMessage::AttachRequest {
                            id: MobileId::Guti(g),
                            ..
                        } => {
                            // Known device: route to a state holder; a
                            // stale GUTI routes to the master, which
                            // rejects it (UE falls back to IMSI attach).
                            Ok((
                                self.route_with_state(g.m_tmsi)
                                    .or_else(|| self.mlb.master(g.m_tmsi))
                                    .ok_or(MmeError::BadState("no MMPs".into()))?,
                                None,
                            ))
                        }
                        EmmMessage::ServiceRequest { .. } => {
                            let (_, m_tmsi) =
                                s_tmsi.ok_or(MmeError::UnknownUe("SR without S-TMSI"))?;
                            Ok((
                                self.route_with_state(m_tmsi)
                                    .ok_or(MmeError::UnknownUe("no state holder"))?,
                                None,
                            ))
                        }
                        EmmMessage::TauRequest { guti, .. } => Ok((
                            self.route_with_state(guti.m_tmsi)
                                .ok_or(MmeError::UnknownUe("no state holder"))?,
                            None,
                        )),
                        EmmMessage::DetachRequest { id, .. } => {
                            let m_tmsi = match id {
                                MobileId::Guti(g) => g.m_tmsi,
                                MobileId::Imsi(_) => {
                                    return Err(MmeError::UnknownUe("detach by IMSI at MLB"))
                                }
                            };
                            Ok((
                                self.route_with_state(m_tmsi)
                                    .ok_or(MmeError::UnknownUe("no state holder"))?,
                                None,
                            ))
                        }
                        // Downlink-only NAS can never legitimately be
                        // an *initial* uplink message; name the
                        // variants so a new message type must be
                        // routed here deliberately.
                        other @ (EmmMessage::AttachAccept { .. }
                        | EmmMessage::AttachComplete
                        | EmmMessage::AttachReject { .. }
                        | EmmMessage::ServiceReject { .. }
                        | EmmMessage::AuthenticationRequest { .. }
                        | EmmMessage::AuthenticationResponse { .. }
                        | EmmMessage::AuthenticationReject
                        | EmmMessage::AuthenticationFailure { .. }
                        | EmmMessage::SecurityModeCommand { .. }
                        | EmmMessage::SecurityModeComplete
                        | EmmMessage::SecurityModeReject { .. }
                        | EmmMessage::TauAccept { .. }
                        | EmmMessage::TauComplete
                        | EmmMessage::TauReject { .. }
                        | EmmMessage::DetachAccept
                        | EmmMessage::EmmStatus { .. }) => Err(MmeError::BadState(
                            format!("unroutable initial NAS {other:?}"),
                        )),
                    }
                }
                // Active-mode PDUs carry the serving MMP in the id.
                other => match other.mme_ue_id() {
                    Some(id) => Ok((self.mlb.route_active(id), None)),
                    None => Err(MmeError::BadState(format!(
                        "S1AP PDU without routing id: {other:?}"
                    ))),
                },
            },
            Incoming::S11(msg) => {
                // Responses route by the sequence's VM byte; requests
                // (DDN) by the TEID's VM byte.
                use scale_gtpc::Body;
                let vm = match msg.body {
                    Body::DownlinkDataNotification { .. } => self.mlb.route_active(msg.teid),
                    _ => ((msg.sequence >> 16) & 0xff) as VmId,
                };
                Ok((vm, None))
            }
            Incoming::S6a(msg) => Ok((((msg.hop_by_hop >> 24) & 0xff) as VmId, None)),
        }
    }

    /// Find a live replica able to serve an Active-mode event whose
    /// embedded VM crashed — the explicit state-promotion of §4.6. The
    /// replica is located through the engines' id indices: the S11
    /// TEID is minted once per session and indexes every copy, so DDN
    /// failover always resolves; an MME-UE-S1AP-ID indexes only a copy
    /// decoded for a connection, so unless another VM serves the device
    /// the request is lost (the UE recovers by re-attaching).
    fn promotion_target(&self, ev: &Incoming) -> Option<VmId> {
        let live = |vm: &VmId| !self.mlb.is_down(*vm);
        match ev {
            Incoming::S1ap { pdu, .. } => {
                let id = pdu.mme_ue_id()?;
                self.mmps
                    .iter()
                    .find(|(v, m)| live(v) && m.m_tmsi_by_mme_ue_id(id).is_some())
                    .map(|(v, _)| *v)
            }
            Incoming::S11(msg) => self
                .mmps
                .iter()
                .find(|(v, m)| live(v) && m.m_tmsi_by_s11_teid(msg.teid).is_some())
                .map(|(v, _)| *v),
            Incoming::S6a(_) => None,
        }
    }

    /// Process one event end-to-end through the cluster.
    ///
    /// With observability attached, the event is classified into the
    /// paper's procedure taxonomy and its end-to-end latency (including
    /// any replica refresh it triggers) is recorded into the matching
    /// `scale_mmp_*_latency_us` histogram. Without it, this compiles to
    /// the bare routing path.
    pub fn handle(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        if self.obs.is_none() {
            return self.handle_inner(ev);
        }
        let class = ProcClass::of(&ev);
        let span = Span::begin();
        let result = self.handle_inner(ev);
        if let Some(obs) = &self.obs {
            span.end(obs.latency_of(class));
        }
        result
    }

    fn handle_inner(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.messages += 1;
        self.window_messages += 1;

        // The MLB itself answers S1 Setup — it *is* the MME to eNodeBs.
        if let Incoming::S1ap { enb_id, pdu } = &ev {
            if matches!(pdu, S1apPdu::S1SetupRequest { .. }) {
                let any_vm = self
                    .mmps
                    .values()
                    .next()
                    .ok_or(MmeError::BadState("no MMPs".into()))?;
                let mut resp = any_vm.s1_setup_response();
                if let S1apPdu::S1SetupResponse { mme_name, .. } = &mut resp {
                    *mme_name = "scale-mlb".into();
                }
                return Ok(vec![Outgoing::S1ap {
                    enb_id: *enb_id,
                    pdu: resp,
                }]);
            }
        }

        let (vm, hint) = self.route(&ev)?;
        // Failure detection + failover: a route can still point at a
        // crashed VM (Active-mode ids embed the serving MMP). Feed the
        // error counters — that is how the MLB *notices* the crash —
        // then promote a surviving replica that indexes the same
        // device, or count the request lost.
        let vm = if self.mmps.contains_key(&vm) && !self.mlb.is_down(vm) {
            vm
        } else {
            self.mlb.record_error(vm);
            match self.promotion_target(&ev) {
                Some(alt) => {
                    self.mlb.failover_stats.failovers += 1;
                    self.mlb.failover_stats.promotions += 1;
                    alt
                }
                None => {
                    self.mlb.failover_stats.lost += 1;
                    return Err(MmeError::UnknownUe("no replica to promote for crashed MMP"));
                }
            }
        };
        let engine = self
            .mmps
            .get_mut(&vm)
            .ok_or(MmeError::BadState(format!("routed to dead MMP {vm}")))?;
        if let Some(m_tmsi) = hint {
            engine.set_guti_hint(m_tmsi);
        }
        let outs = engine.handle(ev)?;
        self.mlb.record_handled(vm);
        self.mlb.record_ok(vm);

        // Post-process lifecycle events for replication bookkeeping.
        let mut result = Vec::with_capacity(outs.len());
        for out in outs {
            match &out {
                Outgoing::UeIdle { guti } => {
                    // §4.6: replicas are refreshed when the device
                    // returns to Idle.
                    self.sync_holders(*guti, Some(vm));
                    result.push(out);
                }
                Outgoing::UeDetached { guti } => {
                    let g = *guti;
                    for v in self.vm_ids() {
                        if v != vm {
                            if let Some(m) = self.mmps.get_mut(&v) {
                                m.remove_context(&g);
                            }
                        }
                    }
                    self.single_copy.remove(&g.m_tmsi);
                    result.push(out);
                }
                _ => result.push(out),
            }
        }
        Ok(result)
    }

    /// Run one epoch (§4.4/§4.5): profile access, allocate replicas,
    /// provision VMs, rebalance state.
    pub fn run_epoch(&mut self) -> EpochReport {
        self.stats.epochs += 1;
        let access_alpha = self.config.access_alpha;
        // 1. Close per-device access windows.
        for engine in self.mmps.values_mut() {
            engine.close_epoch(access_alpha);
        }
        // 2. Devices + weights.
        let weights_map = self.device_weights();
        let k = weights_map.len() as u64;
        let ids: Vec<u32> = weights_map.keys().copied().collect();
        let weights: Vec<f64> = weights_map.values().copied().collect();

        // 3. Access-aware allocation.
        let (beta, single): (f64, BTreeSet<u32>) = match &self.config.allocation {
            Some(policy) => {
                let alloc = policy.allocate(&weights, None);
                let single: BTreeSet<u32> =
                    alloc.single_copy.iter().map(|&i| ids[i]).collect();
                (alloc.beta, single)
            }
            None => (1.0, BTreeSet::new()),
        };
        self.single_copy = single;

        // 4. Provision (Eq 1).
        let observed = self.window_messages as f64;
        self.window_messages = 0;
        let expected = self.load_estimator.observe(observed);
        let prov = provision(
            expected,
            k,
            self.config.replication as u32,
            beta,
            self.config.capacity,
        );
        let vms_before = self.mmps.len();
        let target = prov.vms() as usize;

        // 5–6. Elastic scaling with state transfer and re-homing.
        let transferred = self.apply_provisioning(target);

        EpochReport {
            provisioning: prov,
            vms_before,
            vms_after: self.mmps.len(),
            beta,
            registered_devices: k,
            observed_load: observed,
            states_transferred: transferred,
            single_copy_devices: self.single_copy.len() as u64,
        }
    }

    /// Scale the MMP fleet to `target` VMs and re-home every device to
    /// its (possibly new) ring holders — steps 5–6 of [`Self::run_epoch`],
    /// exposed so an external controller (the closed-loop autoscaler)
    /// can drive provisioning from its own target instead of Eq 1's.
    ///
    /// The fleet never shrinks below one VM, and growth stops early if
    /// the VM id space is exhausted. Transferred states are counted
    /// into `stats.transfers`; the MLB load window is closed and
    /// metrics are published, exactly as at an epoch boundary. Returns
    /// the number of states transferred during rebalancing.
    pub fn apply_provisioning(&mut self, target: usize) -> u64 {
        let target = target.max(1);
        let transfers_before = self.stats.replications;
        while self.mmps.len() < target {
            if self.add_mmp().is_none() {
                break;
            }
        }
        while self.mmps.len() > target && self.mmps.len() > 1 {
            let Some(&victim) = self.mmps.keys().next_back() else {
                break;
            };
            self.remove_mmp(victim);
        }
        // Re-home every device to its (possibly new) holders.
        let ids: Vec<u32> = self.device_weights().keys().copied().collect();
        for m_tmsi in ids {
            let guti = self.mlb.guti(m_tmsi);
            self.sync_holders(guti, None);
        }
        let transferred = self.stats.replications - transfers_before;
        self.stats.transfers += transferred;
        self.mlb.close_load_window();
        self.publish_metrics();
        #[cfg(feature = "verify")]
        {
            self.check_invariants();
            self.check_replica_invariants();
        }
        transferred
    }

    /// Attach this DC to a shared metrics registry: registers every
    /// cluster metric (see DESIGN.md §8) and starts recording per-
    /// procedure latency on [`Self::handle`]. Counters are published
    /// off-path — at epoch ends, repair passes, and explicit
    /// [`Self::publish_metrics`] calls — so the routing hot path keeps
    /// its plain-`u64` counters.
    ///
    /// ```
    /// use scale_core::{ScaleConfig, ScaleDc};
    /// use scale_obs::{prometheus_text, Registry};
    /// use std::sync::Arc;
    ///
    /// let registry = Arc::new(Registry::new());
    /// let mut dc = ScaleDc::new(ScaleConfig::default());
    /// dc.attach_observability(registry.clone());
    /// // ... drive traffic, then scrape:
    /// dc.publish_metrics();
    /// let text = prometheus_text(&registry);
    /// assert!(text.contains("scale_dc_messages_total"));
    /// assert!(text.contains("scale_mlb_idle_routes_total"));
    /// ```
    pub fn attach_observability(&mut self, registry: Arc<Registry>) {
        self.obs = Some(DcObserver::new(registry));
        self.publish_metrics();
    }

    /// The observer attached by [`Self::attach_observability`], if any.
    pub fn observer(&self) -> Option<&DcObserver> {
        self.obs.as_ref()
    }

    /// Copy the cluster's internal counters (`DcStats`, `MlbStats`,
    /// `FailoverStats`, summed MMP engine stats, per-VM load gauges)
    /// into the attached registry. No-op without observability.
    pub fn publish_metrics(&self) {
        let Some(obs) = &self.obs else { return };
        obs.messages.set(self.stats.messages);
        obs.replications.set(self.stats.replications);
        obs.replication_bytes.set(self.stats.replication_bytes);
        obs.forwards.set(self.stats.forwards);
        obs.transfers.set(self.stats.transfers);
        obs.epochs.set(self.stats.epochs);
        obs.crashes.set(self.stats.crashes);

        let mlb = &self.mlb.stats;
        obs.new_attaches.set(mlb.new_attaches);
        obs.idle_routes.set(mlb.idle_routes);
        obs.active_routes.set(mlb.active_routes);
        obs.lookups.set(mlb.lookups);
        obs.route_cache_hits.set(mlb.route_cache_hits);
        obs.route_cache_misses.set(mlb.route_cache_misses);
        let (pos_hits, pos_misses) = self.mlb.position_cache_stats();
        obs.position_hits.set(pos_hits);
        obs.position_misses.set(pos_misses);
        obs.epoch_bumps.set(self.mlb.epoch() - 1);

        let fo = &self.mlb.failover_stats;
        obs.failovers.set(fo.failovers);
        obs.promotions.set(fo.promotions);
        obs.retries.set(fo.retries);
        obs.lost.set(fo.lost);
        obs.shed.set(fo.shed);
        obs.vms_marked_down.set(fo.vms_marked_down);

        let mut attaches = 0u64;
        let mut srs = 0u64;
        let mut taus = 0u64;
        let mut pagings = 0u64;
        let mut detaches = 0u64;
        let mut rejects = 0u64;
        for engine in self.mmps.values() {
            attaches += engine.stats.attaches_completed;
            srs += engine.stats.service_requests;
            taus += engine.stats.taus;
            pagings += engine.stats.pagings;
            detaches += engine.stats.detaches;
            rejects += engine.stats.rejects;
        }
        obs.attaches_completed.set(attaches);
        obs.service_requests.set(srs);
        obs.taus.set(taus);
        obs.pagings.set(pagings);
        obs.detaches.set(detaches);
        obs.rejects.set(rejects);

        for &vm in self.mlb.mmps() {
            obs.vm_load_gauge(vm).set(self.mlb.load_of(vm));
        }
    }
}

impl ControlPlane for ScaleDc {
    fn handle_event(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        self.handle(ev)
    }

    fn messages_processed(&self) -> u64 {
        self.stats.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_epc::{Network, UeState};

    fn scale_net(vms: u32, n_ues: usize) -> Network<ScaleDc> {
        let dc = ScaleDc::new(ScaleConfig {
            initial_vms: vms,
            ..Default::default()
        });
        let mut net = Network::new(dc, 2);
        net.s1_setup();
        for i in 0..n_ues {
            net.add_ue(&format!("0010100001{i:05}"), i % 2);
        }
        net
    }

    #[test]
    fn attach_through_scale_cluster() {
        let mut net = scale_net(3, 10);
        for ue in 0..10 {
            assert!(net.attach(ue), "ue {ue}: {:?}", net.errors);
        }
        assert!(net.errors.is_empty(), "{:?}", net.errors);
        assert_eq!(net.cp.device_count(), 10);
        // Devices are spread across VMs by the ring.
        let held: Vec<usize> = net.cp.vm_ids().iter().map(|&v| net.cp.states_on(v)).collect();
        assert_eq!(held.iter().sum::<usize>(), 10, "one copy each while Active");
    }

    #[test]
    fn idle_transition_replicates_state() {
        let mut net = scale_net(3, 6);
        for ue in 0..6 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue), "{:?}", net.errors);
        }
        // Each idle device now has R = 2 copies.
        let total: usize = net.cp.vm_ids().iter().map(|&v| net.cp.states_on(v)).sum();
        assert_eq!(total, 12, "6 devices × R=2 copies");
        assert!(net.cp.stats.replications >= 6);
    }

    #[test]
    fn service_request_after_idle_works_from_replica() {
        let mut net = scale_net(4, 8);
        for ue in 0..8 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        for ue in 0..8 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
            assert_eq!(net.ues[ue].state, UeState::Active);
        }
        assert!(net.errors.is_empty(), "{:?}", net.errors);
    }

    /// `Network::tau` reports whether a TAU reached its Idle edge, the
    /// release that ends it. Run one at a time, on 1 to 16 VMs, every
    /// TAU from Idle reaches it, whichever holder serves it: the TAU
    /// opens a connection, the serving VM mints the connection's S1AP
    /// id, and `ScaleDc` routes the Release Complete by the VM in it.
    /// Before TAUs minted a fresh id (ROADMAP defect 1(b)) a TAU kept
    /// the device's id, and on more than one VM all 900 missed.
    #[test]
    fn every_tau_reaches_its_idle_edge() {
        for vms in [1, 2, 3, 5, 8, 16] {
            let mut net = scale_net(vms, 300);
            for ue in 0..300 {
                assert!(net.attach(ue) && net.go_idle(ue), "{vms} VMs, ue {ue}: {:?}", net.errors);
            }
            let taus = |dc: &ScaleDc| -> Vec<u64> { dc.mmps.values().map(|m| m.stats.taus).collect() };
            let (mut reached, mut missed) = (0, 0);
            for round in 0..3u16 {
                for ue in 0..300 {
                    let before = taus(&net.cp);
                    let went_idle = net.tau(ue, 0x100 + round);
                    let after = taus(&net.cp);
                    let served: Vec<VmId> = net
                        .cp
                        .mmps
                        .keys()
                        .zip(before.iter().zip(&after))
                        .filter(|(_, (b, a))| a > b)
                        .map(|(&vm, _)| vm)
                        .collect();
                    assert_eq!(served.len(), 1, "{vms} VMs, ue {ue}: served by {served:?}");
                    if went_idle {
                        reached += 1;
                    } else {
                        missed += 1;
                    }
                }
            }
            println!("{vms} VMs: {reached} TAUs reached their Idle edge, {missed} did not");
            assert_eq!((reached, missed), (900, 0), "{vms} VMs");
            assert!(net.errors.is_empty(), "{vms} VMs: {:?}", net.errors);
        }
    }

    #[test]
    fn paging_through_mlb() {
        let mut net = scale_net(3, 3);
        for ue in 0..3 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        for ue in 0..3 {
            assert!(net.downlink_data(ue), "ue {ue}: {:?}", net.errors);
        }
    }

    #[test]
    fn detach_removes_all_copies() {
        let mut net = scale_net(3, 4);
        for ue in 0..4 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        for ue in 0..4 {
            assert!(net.service_request(ue));
            assert!(net.detach(ue, false), "{:?}", net.errors);
        }
        let total: usize = net.cp.vm_ids().iter().map(|&v| net.cp.states_on(v)).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn scale_out_rebalances_devices() {
        let mut net = scale_net(2, 12);
        for ue in 0..12 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let before = net.cp.vm_count();
        let new_vm = net.cp.add_mmp().expect("id space not exhausted");
        // Re-home after the manual addition.
        let ids: Vec<u32> = net.cp.device_weights().keys().copied().collect();
        for m in ids {
            let guti = net.cp.mlb.guti(m);
            net.cp.sync_holders(guti, None);
        }
        assert_eq!(net.cp.vm_count(), before + 1);
        // The new VM owns some arcs, hence some states.
        assert!(net.cp.states_on(new_vm) > 0, "new VM received no state");
        // Devices still reachable.
        for ue in 0..12 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
            assert!(net.go_idle(ue));
        }
    }

    #[test]
    fn scale_in_preserves_devices() {
        let mut net = scale_net(4, 10);
        for ue in 0..10 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let victim = *net.cp.vm_ids().last().unwrap();
        assert!(net.cp.remove_mmp(victim));
        for ue in 0..10 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
        }
    }

    #[test]
    fn epoch_provisions_to_load() {
        let mut net = scale_net(2, 20);
        for ue in 0..20 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let report = net.cp.run_epoch();
        assert_eq!(report.registered_devices, 20);
        assert!(report.observed_load > 0.0);
        assert!(report.vms_after >= 1);
        // Light load, few devices → provisioning shrinks to 1 VM.
        assert_eq!(report.provisioning.vms(), 1);
        // Devices survive the rebalance.
        for ue in 0..20 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
        }
    }

    #[test]
    fn access_aware_epoch_thins_replicas() {
        let dc = ScaleDc::new(ScaleConfig {
            initial_vms: 3,
            allocation: Some(AllocationPolicy {
                x: 0.9, // everything is "low activity" in one epoch
                ..Default::default()
            }),
            ..Default::default()
        });
        let mut net = Network::new(dc, 1);
        net.s1_setup();
        for i in 0..10 {
            net.add_ue(&format!("0010100002{i:05}"), 0);
            assert!(net.attach(i));
            assert!(net.go_idle(i));
        }
        let report = net.cp.run_epoch();
        assert!(report.beta < 1.0);
        assert_eq!(report.single_copy_devices, 10);
        // After the epoch every device holds exactly one copy.
        let total: usize = net.cp.vm_ids().iter().map(|&v| net.cp.states_on(v)).sum();
        assert_eq!(total, 10);
        // And they are still serviceable (master handles them).
        for ue in 0..10 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
        }
    }

    /// Copies of each attached device's state across live VMs.
    fn copies_of(net: &Network<ScaleDc>, m_tmsi: u32) -> usize {
        let guti = net.cp.mlb.guti(m_tmsi);
        net.cp
            .vm_ids()
            .iter()
            .filter(|v| {
                net.cp.mmps.get(v).is_some_and(|m| m.holds(&guti))
            })
            .count()
    }

    #[test]
    fn crash_survives_via_surviving_replica() {
        // R=2: kill one VM without any graceful export; every idle
        // device must still be serviceable from its surviving copy.
        let mut net = scale_net(4, 10);
        for ue in 0..10 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let victim = *net.cp.vm_ids().first().unwrap();
        assert!(net.cp.crash_mmp(victim));
        for ue in 0..10 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
            assert!(net.go_idle(ue));
        }
        assert_eq!(net.cp.stats.crashes, 1);
    }

    #[test]
    fn repair_restores_replication_degree() {
        let mut net = scale_net(4, 12);
        for ue in 0..12 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let victim = *net.cp.vm_ids().first().unwrap();
        assert!(net.cp.crash_mmp(victim));
        let report = net.cp.repair();
        assert_eq!(report.vms_repaired, 1);
        assert!(report.copies_restored > 0, "repair must re-replicate");
        // Replication degree is back to R for every surviving device,
        // and no copy lives on the crashed VM.
        for ue in 0..12 {
            let m_tmsi = net.ues[ue].guti.expect("registered").m_tmsi;
            assert_eq!(copies_of(&net, m_tmsi), 2, "ue {ue} under-replicated");
        }
        assert!(!net.cp.vm_ids().contains(&victim));
        // A second pass finds nothing left to fix.
        let again = net.cp.repair();
        assert_eq!(again.under_replicated, 0);
        assert_eq!(again.copies_restored, 0);
    }

    #[test]
    fn ddn_fails_over_with_state_promotion() {
        // The S11 TEID embeds the VM that minted it at attach. Crash
        // that VM: the DDN must be promoted to a surviving replica,
        // which pages the device and serves the whole wake-up.
        let mut net = scale_net(4, 8);
        for ue in 0..8 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        // Find a UE whose attach master still exists and has a peer
        // holding the replica, then crash the master.
        let m_tmsi = net.ues[0].guti.unwrap().m_tmsi;
        let master = net.cp.mlb.master(m_tmsi).unwrap();
        assert!(net.cp.crash_mmp(master));
        let promoted_before = net.cp.mlb.failover_stats.promotions;
        assert!(net.downlink_data(0), "{:?}", net.errors);
        assert!(
            net.cp.mlb.failover_stats.promotions > promoted_before
                || net.cp.mlb.master(m_tmsi) != Some(master),
            "DDN to the crashed master must promote a replica"
        );
    }

    #[test]
    fn restart_rejoins_warm_before_routable() {
        let mut net = scale_net(4, 12);
        for ue in 0..12 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let victim = *net.cp.vm_ids().first().unwrap();
        assert!(net.cp.crash_mmp(victim));
        net.cp.repair();
        // Restart under the old id: deterministic token placement puts
        // it back on its old arcs; the warm-up pull must hand it the
        // replicas those arcs own before it serves traffic.
        assert!(net.cp.restart_mmp(victim));
        assert!(!net.cp.mlb.is_down(victim), "marked routable after warm-up");
        assert!(
            net.cp.states_on(victim) > 0,
            "rejoined VM warmed by replica pull"
        );
        for ue in 0..12 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
        }
    }

    #[test]
    fn crash_refuses_last_vm() {
        let mut dc = ScaleDc::new(ScaleConfig {
            initial_vms: 1,
            ..Default::default()
        });
        let vm = dc.vm_ids()[0];
        assert!(!dc.crash_mmp(vm));
        assert_eq!(dc.vm_count(), 1);
    }

    #[test]
    fn observability_records_procedures_and_publishes_counters() {
        use scale_obs::Snapshot;
        let mut net = scale_net(3, 6);
        let registry = std::sync::Arc::new(scale_obs::Registry::new());
        net.cp.attach_observability(registry.clone());
        for ue in 0..6 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        for ue in 0..6 {
            assert!(net.service_request(ue));
        }
        net.cp.publish_metrics();

        let obs = net.cp.observer().unwrap();
        // Procedure latency histograms saw the right procedures.
        assert!(obs.latency_of(ProcClass::Attach).count() >= 6);
        assert!(obs.latency_of(ProcClass::ServiceRequest).count() >= 6);
        assert!(obs.latency_of(ProcClass::S1Release).count() >= 6);
        // Published counters mirror the internal stats.
        let reg = registry;
        assert_eq!(
            reg.counter("scale_dc_messages_total", "").get(),
            net.cp.stats.messages
        );
        assert_eq!(
            reg.counter("scale_mlb_new_attaches_total", "").get(),
            net.cp.mlb.stats.new_attaches
        );
        assert_eq!(
            reg.counter("scale_dc_replications_total", "").get(),
            net.cp.stats.replications
        );
        assert!(reg.counter("scale_dc_replication_bytes_total", "").get() > 0);
        assert!(
            reg.counter("scale_mlb_route_cache_hits_total", "").get() > 0,
            "warm service requests must hit the route cache"
        );
        // The snapshot export sees every published metric.
        let snap = Snapshot::of(&reg);
        assert!(snap.counters.iter().any(|c| c.name == "scale_mmp_attaches_completed_total"
            && c.value >= 6));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "scale_mmp_attach_latency_us" && h.count >= 6));
        // Per-VM load gauges exist for every live VM.
        for vm in net.cp.vm_ids() {
            assert!(snap
                .gauges
                .iter()
                .any(|g| g.name == format!("scale_mlb_vm{vm}_load")));
        }
    }

    #[test]
    fn repair_publishes_range_and_copy_counters() {
        let mut net = scale_net(4, 10);
        let registry = std::sync::Arc::new(scale_obs::Registry::new());
        net.cp.attach_observability(registry.clone());
        for ue in 0..10 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let victim = *net.cp.vm_ids().first().unwrap();
        assert!(net.cp.crash_mmp(victim));
        let report = net.cp.repair();
        assert_eq!(registry.counter("scale_dc_repair_passes_total", "").get(), 1);
        assert_eq!(
            registry.counter("scale_dc_repair_ranges_total", "").get(),
            report.under_replicated as u64
        );
        assert_eq!(
            registry.counter("scale_dc_repair_copies_total", "").get(),
            report.copies_restored
        );
    }

    #[test]
    fn mlb_spreads_masters() {
        let mut net = scale_net(4, 40);
        for ue in 0..40 {
            assert!(net.attach(ue));
        }
        let counts: Vec<usize> = net.cp.vm_ids().iter().map(|&v| net.cp.states_on(v)).collect();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(nonzero >= 3, "masters should spread: {counts:?}");
    }
}
