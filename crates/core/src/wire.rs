//! The wire-level process roles (DESIGN.md §14): the message protocol,
//! MLB routing state and MMP node logic shared by the multi-process
//! deployment's three process kinds —
//!
//! ```text
//!   eNB process ──sctplite──▶ MLB front process ──sctplite──▶ MMP worker
//!   (EnbEmulator)             (MlbState, this module)         (MmpNode → Shard)
//! ```
//!
//! Everything here is sans-IO: [`MlbState`] and [`MmpNode`] consume
//! decoded [`WireMsg`] values and emit outputs into caller-provided
//! vectors, so the same logic is driven by real sockets in the
//! deployment binaries and by an in-process shuttle in tests. The
//! transport carries each encoded message as one `sctplite` DATA chunk
//! (ppid [`scale_sctplite::ppid::SCALE_STATE`] for control,
//! `S1AP` for PDU-bearing messages); ordering guarantees are exactly
//! the per-association FIFO the in-process mailboxes provide, which is
//! why the happens-before argument of `scale-sim`'s shard driver
//! (Replicate-before-next-procedure) carries over unchanged.
//!
//! ## Codec
//!
//! [`WireMsg`] uses a hand-rolled tag+fields codec over the `scale-nas`
//! `View`/`Writer` (the vendored serde has no `Deserialize`). A message
//! is an *envelope* — the tag and a few integers — and, for the
//! PDU-bearing variants and `Replicate`, a length-prefixed *body* that
//! runs to the end of the message: an S1AP PDU or a context blob, as
//! its own encoding. [`WireView`] is the envelope parsed where the
//! message lies, the body a slice of it; [`WireMsg::decode`] is that
//! plus a decode of the body, and [`WireMsg::encode_into`] writes both
//! straight into the buffer the message leaves in. Decoding is strict:
//! unknown tags, a body length that disagrees with the message's, and
//! trailing bytes are errors.
//!
//! ## Relay
//!
//! The MLB consumes none of what it forwards, so it does not build it:
//! [`MlbState::relay`] parses the envelope of a received message,
//! reads the routing key of an uplink PDU out of its bytes
//! (`S1apPdu::peek`), asks the same routing decisions
//! [`MlbState::on_enb`] and [`MlbState::on_mmp`] ask, and answers with
//! a new envelope and the place in the received bytes where the body
//! to put behind it begins.

use crate::mlb::VmId;
use crate::routeplane::{RoutePlane, RouteReader, RouteSnapshot};
use crate::shard::{shard_of, Shard, ShardConfig, ShardEvent, ShardMsg, ShardStatsSnapshot};
use scale_epc::{home_cell, ENB_BASE};
use scale_mme::Incoming;
use scale_nas::Plmn;
use scale_s1ap::{Gummei, RouteKey, S1apPdu};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

mod codec;
mod relay;

pub use codec::{WireMsg, WireRole, WireView};
pub use relay::{Dest, Forward, Relay};

/// Static shape of the wire deployment, known identically to every
/// process (ring construction is deterministic, so each process builds
/// the same [`RouteSnapshot`] locally instead of receiving it).
#[derive(Debug, Clone)]
pub struct WireTopo {
    /// eNodeB-emulator processes (= cells).
    pub n_enbs: usize,
    /// MMP worker processes; VM `v` lives on process
    /// [`shard_of`]`(v, n_mmps)`.
    pub n_mmps: usize,
    /// Total MMP VM fleet striped over the workers.
    pub total_vms: usize,
    /// Replication degree R.
    pub replication: usize,
    /// Virtual tokens per ring node.
    pub ring_tokens: u32,
    /// HSS seed (shared by every MMP's shard).
    pub seed: u64,
}

impl WireTopo {
    /// Build the deployment-wide routing plane: every process derives
    /// the identical ring from the topology parameters.
    #[must_use]
    pub fn route_plane(&self) -> Arc<RoutePlane> {
        let mut snap = RouteSnapshot::new(self.ring_tokens, self.replication, Plmn::test(), 0x8001, 1);
        for vm in 1..=self.total_vms as VmId {
            snap.ring.add_node(vm);
        }
        Arc::new(RoutePlane::new(snap))
    }

    /// VMs homed on MMP process `mmp`.
    #[must_use]
    pub fn vms_of(&self, mmp: usize) -> Vec<VmId> {
        (1..=self.total_vms as VmId)
            .filter(|&vm| shard_of(vm, self.n_mmps) == mmp)
            .collect()
    }
}

/// Counters the MLB router reports at end-of-run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MlbWireStats {
    /// Fresh attaches routed by hint.
    pub routed_attaches: u64,
    /// Idle-mode procedures routed by S-TMSI.
    pub routed_idle: u64,
    /// Uplinks forwarded along a pinned connection.
    pub forwarded_uplinks: u64,
    /// Lifecycle edges relayed to home cells.
    pub settled_relayed: u64,
    /// In-flight procedures failed over after an MMP death.
    pub proc_failures: u64,
    /// Messages dropped because their target link was dead or their
    /// connection pin was gone (stale post-crash traffic).
    pub dropped: u64,
    /// Routing errors (no live holder, unroutable PDU).
    pub errors: u64,
}

/// Where an [`MlbState`] output is headed.
#[derive(Debug, Clone, PartialEq)]
pub enum MlbOut {
    /// Send to MMP process `mmp`.
    Mmp {
        /// Worker index.
        mmp: usize,
        /// The message.
        msg: WireMsg,
    },
    /// Send to eNB process `enb`.
    Enb {
        /// Cell index.
        enb: usize,
        /// The message.
        msg: WireMsg,
    },
}

/// What an uplink's [`RouteKey`] resolves to.
enum UplinkRoute {
    /// S1 Setup: the MLB answers.
    Setup,
    /// To engine `vm`; `opens` names the device when this is the
    /// Initial UE Message of its procedure.
    Deliver {
        vm: VmId,
        guti_hint: Option<u32>,
        opens: Option<u32>,
    },
    /// No live holder: hand the device back to its cell.
    Failed { m_tmsi: u32 },
    /// Unroutable or stale: counted, gone.
    Dropped,
}

/// What the MLB routes a worker's message by.
#[derive(Clone, Copy)]
enum WorkerKey {
    ToEnb { enb_id: u32 },
    Settled { m_tmsi: u32, active: bool },
    ToVm { vm: VmId },
    /// Not something an MMP link carries toward the MLB.
    Unexpected,
}

fn enb_index(enb_id: u32) -> usize {
    enb_id.wrapping_sub(ENB_BASE) as usize
}

/// The MLB front process's routing brain: consistent-hash routing over
/// the shared plane, per-connection serving-VM pins (real S1AP returns
/// responses on the association that carried the request), and the
/// in-flight table that turns an MMP death into targeted `ProcFailed`
/// notifications instead of lost devices.
pub struct MlbState {
    topo: WireTopo,
    plane: Arc<RoutePlane>,
    reader: RouteReader,
    /// (enb_id, enb_ue_id) → serving VM: every uplink of a signalling
    /// connection goes where its Initial UE Message was routed.
    conns: HashMap<(u32, u32), VmId>,
    /// m_tmsi → serving VM for the device's current signalling
    /// connection; entries live from Initial UE Message to the Idle
    /// edge, so they cover the release window `conns` cannot (the
    /// connection pin is already gone when Release Complete has been
    /// forwarded but the Idle edge is still in flight).
    inflight: HashMap<u32, VmId>,
    /// Deterministic counters.
    pub stats: MlbWireStats,
}

impl MlbState {
    /// Build the router over a freshly derived plane.
    #[must_use]
    pub fn new(topo: &WireTopo) -> Self {
        let plane = topo.route_plane();
        let reader = plane.reader();
        MlbState {
            topo: topo.clone(),
            plane,
            reader,
            conns: HashMap::new(),
            inflight: HashMap::new(),
            stats: MlbWireStats::default(),
        }
    }

    /// The MMP process hosting engine `vm`.
    #[must_use]
    pub fn mmp_of(&self, vm: VmId) -> usize {
        shard_of(vm, self.topo.n_mmps)
    }

    /// In-flight procedures currently pinned (diagnostics).
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// An eNB link delivered `Uplink { enb_id, attach_hint, pdu }`.
    pub fn on_enb(
        &mut self,
        enb_id: u32,
        attach_hint: Option<u32>,
        pdu: S1apPdu,
        out: &mut Vec<MlbOut>,
    ) {
        let enb = enb_index(enb_id);
        match self.route_uplink(enb_id, attach_hint, pdu.route_key()) {
            UplinkRoute::Setup => out.push(self.s1_setup_response(enb_id)),
            UplinkRoute::Deliver { vm, guti_hint, .. } => out.push(MlbOut::Mmp {
                mmp: self.mmp_of(vm),
                msg: WireMsg::Deliver {
                    vm,
                    guti_hint,
                    enb_id,
                    pdu,
                },
            }),
            UplinkRoute::Failed { m_tmsi } => out.push(MlbOut::Enb {
                enb,
                msg: WireMsg::ProcFailed { m_tmsi },
            }),
            UplinkRoute::Dropped => {}
        }
    }

    /// An MMP link delivered `msg`.
    pub fn on_mmp(&mut self, msg: WireMsg, out: &mut Vec<MlbOut>) {
        let key = match &msg {
            WireMsg::ToEnb { enb_id, .. } => WorkerKey::ToEnb { enb_id: *enb_id },
            WireMsg::Settled { m_tmsi, active } => WorkerKey::Settled {
                m_tmsi: *m_tmsi,
                active: *active,
            },
            WireMsg::Replicate { vm, .. } | WireMsg::DropCtx { vm, .. } => {
                WorkerKey::ToVm { vm: *vm }
            }
            // Each is named so a new `WireMsg` variant fails to compile
            // here instead of being silently counted away.
            WireMsg::Hello { .. }
            | WireMsg::Uplink { .. }
            | WireMsg::Deliver { .. }
            | WireMsg::ProcFailed { .. }
            | WireMsg::VmDown { .. }
            | WireMsg::VmUp { .. } => WorkerKey::Unexpected,
        };
        match self.route_from_worker(key) {
            Some(Dest::Enb(enb)) => out.push(MlbOut::Enb { enb, msg }),
            Some(Dest::Mmp(mmp)) => out.push(MlbOut::Mmp { mmp, msg }),
            None => {}
        }
    }

    /// The MLB terminates S1 setup itself (§4.2): eNodeBs see one MME
    /// whose GUMMEI covers the whole DC.
    fn s1_setup_response(&mut self, enb_id: u32) -> MlbOut {
        let snap = self.reader.snapshot();
        let g = snap.guti(0);
        MlbOut::Enb {
            enb: enb_index(enb_id),
            msg: WireMsg::ToEnb {
                enb_id,
                pdu: S1apPdu::S1SetupResponse {
                    mme_name: "scale-mlb".to_string(),
                    served_gummeis: vec![Gummei {
                        plmn: g.plmn,
                        mme_group_id: g.mme_group_id,
                        mme_code: g.mme_code,
                    }],
                    relative_mme_capacity: 255,
                },
            },
        }
    }

    /// The one place an uplink is routed, typed or as bytes.
    fn route_uplink(
        &mut self,
        enb_id: u32,
        attach_hint: Option<u32>,
        key: RouteKey,
    ) -> UplinkRoute {
        match key {
            RouteKey::S1Setup => UplinkRoute::Setup,
            RouteKey::Initial { enb_ue_id, s_tmsi } => {
                let (m_tmsi, vm) = if let Some(h) = attach_hint {
                    self.stats.routed_attaches += 1;
                    (h, self.reader.route_new_attach(h))
                } else if let Some((_, m)) = s_tmsi {
                    self.stats.routed_idle += 1;
                    (m, self.reader.route_idle(m))
                } else {
                    self.stats.errors += 1;
                    return UplinkRoute::Dropped;
                };
                let Some(vm) = vm else {
                    // No live holder: hand the device back to its cell
                    // rather than silently losing it.
                    self.stats.errors += 1;
                    return UplinkRoute::Failed { m_tmsi };
                };
                self.reader.charge(vm);
                self.conns.insert((enb_id, enb_ue_id), vm);
                self.inflight.insert(m_tmsi, vm);
                UplinkRoute::Deliver {
                    vm,
                    guti_hint: attach_hint,
                    opens: Some(m_tmsi),
                }
            }
            RouteKey::Connected { enb_ue_id, last } => {
                let conn = (enb_id, enb_ue_id);
                let Some(vm) = self.conns.get(&conn).copied() else {
                    // Stale uplink on a connection retired by a crash.
                    self.stats.dropped += 1;
                    return UplinkRoute::Dropped;
                };
                self.stats.forwarded_uplinks += 1;
                if last {
                    self.conns.remove(&conn);
                }
                UplinkRoute::Deliver {
                    vm,
                    guti_hint: None,
                    opens: None,
                }
            }
            RouteKey::Other => {
                self.stats.dropped += 1;
                UplinkRoute::Dropped
            }
        }
    }

    /// The one place a worker's message is routed, typed or as bytes.
    fn route_from_worker(&mut self, key: WorkerKey) -> Option<Dest> {
        match key {
            WorkerKey::ToEnb { enb_id } => {
                let enb = enb_index(enb_id);
                if enb >= self.topo.n_enbs {
                    self.stats.errors += 1;
                    return None;
                }
                Some(Dest::Enb(enb))
            }
            WorkerKey::Settled { m_tmsi, active } => {
                if !active {
                    if let Some(vm) = self.inflight.remove(&m_tmsi) {
                        self.reader.discharge(vm);
                    }
                }
                let Some(enb) = home_cell(m_tmsi, self.topo.n_enbs) else {
                    self.stats.errors += 1;
                    return None;
                };
                self.stats.settled_relayed += 1;
                Some(Dest::Enb(enb))
            }
            WorkerKey::ToVm { vm } => Some(Dest::Mmp(self.mmp_of(vm))),
            WorkerKey::Unexpected => {
                self.stats.errors += 1;
                None
            }
        }
    }

    /// MMP process `mmp` died (link error or heartbeat loss): mark its
    /// VMs down for routing, fail over every pinned in-flight
    /// procedure to its home cell, and tell the surviving MMPs to
    /// exclude the dead VMs from replica placement.
    pub fn on_mmp_down(&mut self, mmp: usize, out: &mut Vec<MlbOut>) {
        let dead: Vec<VmId> = self.topo.vms_of(mmp);
        for &vm in &dead {
            self.plane.mark_down(vm);
        }
        self.conns
            .retain(|_, vm| shard_of(*vm, self.topo.n_mmps) != mmp);
        let mut failed: Vec<u32> = self
            .inflight
            .iter()
            .filter(|(_, vm)| shard_of(**vm, self.topo.n_mmps) == mmp)
            .map(|(m, _)| *m)
            .collect();
        // Sorted so the fail-over notification order is a function of
        // the state, not of HashMap iteration order — run-to-run
        // determinism is what lets the model checker assert identical
        // state counts across runs.
        failed.sort_unstable();
        for m_tmsi in failed {
            self.inflight.remove(&m_tmsi);
            self.stats.proc_failures += 1;
            if let Some(enb) = home_cell(m_tmsi, self.topo.n_enbs) {
                out.push(MlbOut::Enb {
                    enb,
                    msg: WireMsg::ProcFailed { m_tmsi },
                });
            }
        }
        for other in 0..self.topo.n_mmps {
            if other == mmp {
                continue;
            }
            for &vm in &dead {
                out.push(MlbOut::Mmp {
                    mmp: other,
                    msg: WireMsg::VmDown { vm },
                });
            }
        }
    }

    /// A restarted MMP process reconnected: mark its VMs routable again
    /// — here and at the surviving workers.
    ///
    /// The revived engines are *empty*. A fresh attach works anyway
    /// (full IMSI + AKA needs no prior state), and an idle-mode
    /// procedure routed there is answered with an identity-unknown NAS
    /// reject that the access side converts into a re-attach — the
    /// paper's §4.6 fallback for state that could not be promoted.
    /// Keeping the VMs down instead would deadlock devices whose entire
    /// holder set lived on the dead process (R replicas are *not*
    /// process-disjoint): every route would return "no live holder"
    /// forever. Re-replication then restores the degree passively on
    /// each Idle edge; the in-process cluster's proactive `RepairScan`
    /// has no wire twin yet (DESIGN.md §14 records the divergence).
    pub fn on_mmp_reconnected(&mut self, mmp: usize, out: &mut Vec<MlbOut>) {
        for vm in self.topo.vms_of(mmp) {
            self.plane.mark_up(vm);
            for other in 0..self.topo.n_mmps {
                if other != mmp {
                    out.push(MlbOut::Mmp {
                        mmp: other,
                        msg: WireMsg::VmUp { vm },
                    });
                }
            }
        }
    }

    /// The MLB's shared routing plane (model-checker / diagnostics
    /// access).
    #[must_use]
    pub fn plane(&self) -> &Arc<RoutePlane> {
        &self.plane
    }

    /// The serving VM pinned for device `m_tmsi`'s in-flight
    /// procedure, if one is pinned.
    #[must_use]
    pub fn inflight_vm(&self, m_tmsi: u32) -> Option<VmId> {
        self.inflight.get(&m_tmsi).copied()
    }

    /// Hash the behavior-relevant routing state — connection pins, the
    /// in-flight table, snapshot membership/liveness and per-VM loads —
    /// into `h`. Monotone report counters and the (equally monotone)
    /// snapshot epoch are excluded: two states differing only in those
    /// have identical future behavior, and folding them in would defeat
    /// the model checker's visited-set dedup.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut conns: Vec<(u32, u32, VmId)> =
            self.conns.iter().map(|(&(e, u), &vm)| (e, u, vm)).collect();
        conns.sort_unstable();
        conns.hash(h);
        let mut inflight: Vec<(u32, VmId)> =
            self.inflight.iter().map(|(&m, &vm)| (m, vm)).collect();
        inflight.sort_unstable();
        inflight.hash(h);
        let snap = self.plane.snapshot();
        snap.ring.nodes().hash(h);
        for &vm in snap.ring.nodes() {
            (snap.is_down(vm), self.plane.loads.load(vm)).hash(h);
        }
    }
}

/// One MMP worker process's logic: a [`Shard`] of real MME engines
/// behind a local routing-plane replica, translating between
/// [`WireMsg`]s and shard messages. Local cross-engine follow-ups
/// (both engines on this process) short-circuit without touching the
/// wire, exactly like same-shard messages in the in-process driver.
pub struct MmpNode {
    index: usize,
    topo: WireTopo,
    plane: Arc<RoutePlane>,
    shard: Shard,
    worklist: VecDeque<ShardMsg>,
    outbox: Vec<(usize, ShardMsg)>,
    events: Vec<ShardEvent>,
    /// Wire-level errors (unexpected cross-shard targets, engine
    /// errors surfaced by the shard).
    pub errors: u64,
    error_samples: Vec<String>,
}

impl MmpNode {
    /// Build worker `index` of the topology.
    #[must_use]
    pub fn new(topo: &WireTopo, index: usize) -> Self {
        let plane = topo.route_plane();
        let shard = Shard::new(
            &ShardConfig {
                id: index,
                n_shards: topo.n_mmps,
                vms: topo.vms_of(index),
                hss_seed: topo.seed,
            },
            &plane,
        );
        MmpNode {
            index,
            topo: topo.clone(),
            plane,
            shard,
            worklist: VecDeque::new(),
            outbox: Vec::new(),
            events: Vec::new(),
            errors: 0,
            error_samples: Vec::new(),
        }
    }

    /// Merged engine counters.
    #[must_use]
    pub fn stats(&self) -> ShardStatsSnapshot {
        self.shard.stats.snapshot()
    }

    /// Contexts resident across this worker's engines.
    #[must_use]
    pub fn contexts_held(&self) -> usize {
        self.shard.contexts_held()
    }

    /// First few error descriptions (for reports).
    #[must_use]
    pub fn error_samples(&self) -> &[String] {
        &self.error_samples
    }

    /// This worker's routing-plane replica (model-checker /
    /// diagnostics access).
    #[must_use]
    pub fn plane(&self) -> &Arc<RoutePlane> {
        &self.plane
    }

    /// The shard of real MME engines behind this worker (read-only
    /// model-checker access to contexts and holder sets).
    #[must_use]
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// VMs on this worker currently holding a context for `m_tmsi`.
    #[must_use]
    pub fn holding_vms(&self, m_tmsi: u32) -> Vec<VmId> {
        let guti = self.plane.snapshot().guti(m_tmsi);
        self.shard.holding_vms(&guti)
    }

    /// Hash the worker's behavior-relevant state — engine contexts and
    /// the local liveness view — into `h`. Error counters and the
    /// monotone snapshot epoch are excluded (see
    /// [`MlbState::fingerprint`]).
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.index.hash(h);
        self.shard.fingerprint(h);
        let snap = self.plane.snapshot();
        for vm in 1..=self.topo.total_vms as VmId {
            snap.is_down(vm).hash(h);
        }
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.errors += 1;
        if self.error_samples.len() < 8 {
            self.error_samples.push(what.into());
        }
    }

    /// Process one wire message; messages for the MLB go to `out` in
    /// an order that preserves the replicate-before-notify
    /// happens-before edge (outbox-derived messages are emitted before
    /// the lifecycle events of the same engine step).
    pub fn handle(&mut self, msg: WireMsg, out: &mut Vec<WireMsg>) {
        let first = match msg {
            WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            } => ShardMsg::ToVm {
                vm,
                guti_hint,
                ev: Incoming::S1ap { enb_id, pdu },
            },
            WireMsg::Replicate { vm, blob } => ShardMsg::Replicate { vm, blob },
            WireMsg::DropCtx { vm, m_tmsi } => {
                let guti = self.plane.snapshot().guti(m_tmsi);
                ShardMsg::Drop { vm, guti }
            }
            WireMsg::VmDown { vm } => {
                self.plane.mark_down(vm);
                return;
            }
            WireMsg::VmUp { vm } => {
                self.plane.mark_up(vm);
                return;
            }
            other @ (WireMsg::Hello { .. }
            | WireMsg::Uplink { .. }
            | WireMsg::ToEnb { .. }
            | WireMsg::Settled { .. }
            | WireMsg::ProcFailed { .. }) => {
                self.fail(format!("unexpected wire message at MMP: {other:?}"));
                return;
            }
        };
        self.worklist.push_back(first);
        while let Some(m) = self.worklist.pop_front() {
            self.shard.process(m, &mut self.outbox, &mut self.events);
            // Outbox first (Replicate/Drop), then notifications: FIFO
            // links turn this into the same happens-before edge the
            // in-process mailboxes provide.
            for (target, m) in self.outbox.drain(..) {
                if target == self.index {
                    self.worklist.push_back(m);
                    continue;
                }
                match m {
                    ShardMsg::Replicate { vm, blob } => out.push(WireMsg::Replicate { vm, blob }),
                    ShardMsg::Drop { vm, guti } => out.push(WireMsg::DropCtx {
                        vm,
                        m_tmsi: guti.m_tmsi,
                    }),
                    other @ (ShardMsg::ToVm { .. } | ShardMsg::RepairScan) => {
                        self.errors += 1;
                        if self.error_samples.len() < 8 {
                            self.error_samples
                                .push(format!("unexpected cross-shard msg: {other:?}"));
                        }
                    }
                }
            }
            for ev in self.events.drain(..) {
                match ev {
                    ShardEvent::S1ap { enb_id, pdu } => out.push(WireMsg::ToEnb { enb_id, pdu }),
                    ShardEvent::Active { guti, .. } => out.push(WireMsg::Settled {
                        m_tmsi: guti.m_tmsi,
                        active: true,
                    }),
                    ShardEvent::Idle { guti, .. } => {
                        // The worker is where the idle-edge tally
                        // lives, in every driver of this node.
                        self.shard
                            .stats
                            .idles
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        out.push(WireMsg::Settled {
                            m_tmsi: guti.m_tmsi,
                            active: false,
                        });
                    }
                    ShardEvent::Attached { .. } | ShardEvent::Detached { .. } => {}
                    ShardEvent::Error { vm, error } => {
                        self.errors += 1;
                        if self.error_samples.len() < 8 {
                            self.error_samples.push(format!("engine vm {vm}: {error}"));
                        }
                    }
                }
            }
        }
        let _ = &self.topo; // topology kept for diagnostics/symmetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scale_epc::MTMSI_BASE;
    use scale_nas::Tai;

    fn topo() -> WireTopo {
        WireTopo {
            n_enbs: 2,
            n_mmps: 2,
            total_vms: 4,
            replication: 2,
            ring_tokens: 64,
            seed: 42,
        }
    }

    fn sample_msgs() -> Vec<WireMsg> {
        let pdu = S1apPdu::InitialUeMessage {
            enb_ue_id: 7,
            nas_pdu: Bytes::from_static(b"nas"),
            tai: Tai::new(Plmn::test(), 1),
            establishment_cause: 3,
            s_tmsi: Some((1, 0x0200_0005)),
        };
        vec![
            WireMsg::Hello {
                role: WireRole::Enb,
                id: 3,
            },
            WireMsg::Hello {
                role: WireRole::Mmp,
                id: 0,
            },
            WireMsg::Uplink {
                enb_id: ENB_BASE,
                attach_hint: Some(0x0200_0001),
                pdu: pdu.clone(),
            },
            WireMsg::Uplink {
                enb_id: ENB_BASE + 1,
                attach_hint: None,
                pdu: pdu.clone(),
            },
            WireMsg::Deliver {
                vm: 2,
                guti_hint: None,
                enb_id: ENB_BASE,
                pdu: pdu.clone(),
            },
            WireMsg::ToEnb {
                enb_id: ENB_BASE,
                pdu,
            },
            WireMsg::Settled {
                m_tmsi: 0x0200_0001,
                active: true,
            },
            WireMsg::Settled {
                m_tmsi: 0x0200_0001,
                active: false,
            },
            WireMsg::Replicate {
                vm: 3,
                blob: Bytes::from_static(&[0xAB; 300]),
            },
            WireMsg::DropCtx { vm: 1, m_tmsi: 9 },
            WireMsg::ProcFailed { m_tmsi: 0x0200_0002 },
            WireMsg::VmDown { vm: 4 },
            WireMsg::VmUp { vm: 4 },
        ]
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        for msg in sample_msgs() {
            let bytes = msg.encode();
            let back = WireMsg::decode(bytes.clone()).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.encode(), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn codec_rejects_trailing_and_unknown() {
        let mut v = WireMsg::VmDown { vm: 1 }.encode().to_vec();
        v.push(0);
        assert!(WireMsg::decode(Bytes::from(v)).is_err(), "trailing byte");
        assert!(WireMsg::decode(Bytes::from_static(&[0xFF, 0, 0])).is_err(), "unknown tag");
        assert!(WireMsg::decode(Bytes::new()).is_err(), "empty buffer");
    }

    #[test]
    fn mlb_answers_s1_setup_itself() {
        let mut mlb = MlbState::new(&topo());
        let mut out = Vec::new();
        mlb.on_enb(
            ENB_BASE + 1,
            None,
            S1apPdu::S1SetupRequest {
                global_enb_id: ENB_BASE + 1,
                enb_name: "cell-1".into(),
                supported_tais: vec![Tai::new(Plmn::test(), 1)],
            },
            &mut out,
        );
        match &out[..] {
            [MlbOut::Enb {
                enb: 1,
                msg: WireMsg::ToEnb {
                    pdu: S1apPdu::S1SetupResponse { served_gummeis, .. },
                    ..
                },
            }] => assert_eq!(served_gummeis.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attach_pins_connection_and_uplinks_follow_it() {
        let mut mlb = MlbState::new(&topo());
        let mut out = Vec::new();
        let m_tmsi = MTMSI_BASE + 4;
        let initial = S1apPdu::InitialUeMessage {
            enb_ue_id: 1,
            nas_pdu: Bytes::from_static(b"attach"),
            tai: Tai::new(Plmn::test(), 1),
            establishment_cause: 3,
            s_tmsi: None,
        };
        mlb.on_enb(ENB_BASE, Some(m_tmsi), initial, &mut out);
        let (mmp0, vm0) = match &out[..] {
            [MlbOut::Mmp {
                mmp,
                msg: WireMsg::Deliver { vm, guti_hint, .. },
            }] => {
                assert_eq!(*guti_hint, Some(m_tmsi));
                (*mmp, *vm)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(mlb.inflight_len(), 1);
        out.clear();
        // A later uplink on the same connection lands on the same VM.
        mlb.on_enb(
            ENB_BASE,
            None,
            S1apPdu::UplinkNasTransport {
                mme_ue_id: 9,
                enb_ue_id: 1,
                nas_pdu: Bytes::from_static(b"smc ok"),
                tai: Tai::new(Plmn::test(), 1),
            },
            &mut out,
        );
        match &out[..] {
            [MlbOut::Mmp {
                mmp,
                msg: WireMsg::Deliver { vm, .. },
            }] => {
                assert_eq!((*mmp, *vm), (mmp0, vm0));
            }
            other => panic!("{other:?}"),
        }
        // The Idle edge clears the in-flight pin.
        out.clear();
        mlb.on_mmp(
            WireMsg::Settled {
                m_tmsi,
                active: false,
            },
            &mut out,
        );
        assert_eq!(mlb.inflight_len(), 0);
        assert!(matches!(
            &out[..],
            [MlbOut::Enb {
                msg: WireMsg::Settled { .. },
                ..
            }]
        ));
    }

    #[test]
    fn mmp_death_fails_over_inflight_and_broadcasts_down() {
        let t = topo();
        let mut mlb = MlbState::new(&t);
        let mut out = Vec::new();
        // Pin one in-flight attach per MMP.
        let mut pinned = Vec::new();
        for u in 0..8u32 {
            let m_tmsi = MTMSI_BASE + u;
            out.clear();
            mlb.on_enb(
                ENB_BASE + u % 2,
                Some(m_tmsi),
                S1apPdu::InitialUeMessage {
                    enb_ue_id: u,
                    nas_pdu: Bytes::from_static(b"a"),
                    tai: Tai::new(Plmn::test(), 1),
                    establishment_cause: 3,
                    s_tmsi: None,
                },
                &mut out,
            );
            if let [MlbOut::Mmp { mmp, .. }] = &out[..] {
                pinned.push((m_tmsi, *mmp));
            }
        }
        let on_dead: Vec<u32> = pinned
            .iter()
            .filter(|(_, mmp)| *mmp == 1)
            .map(|(m, _)| *m)
            .collect();
        assert!(!on_dead.is_empty(), "some attach routed to MMP 1");
        out.clear();
        mlb.on_mmp_down(1, &mut out);
        let failed: Vec<u32> = out
            .iter()
            .filter_map(|o| match o {
                MlbOut::Enb {
                    enb,
                    msg: WireMsg::ProcFailed { m_tmsi },
                } => {
                    // Failure lands on the device's home cell.
                    assert_eq!(home_cell(*m_tmsi, t.n_enbs), Some(*enb));
                    Some(*m_tmsi)
                }
                _ => None,
            })
            .collect();
        let mut a = failed.clone();
        let mut b = on_dead.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every dead-MMP in-flight device fails over");
        // Surviving MMP 0 hears VmDown for each of MMP 1's VMs.
        let downs = out
            .iter()
            .filter(|o| matches!(o, MlbOut::Mmp { mmp: 0, msg: WireMsg::VmDown { .. } }))
            .count();
        assert_eq!(downs, t.vms_of(1).len());
        // Routing now avoids the dead VMs entirely.
        out.clear();
        mlb.on_enb(
            ENB_BASE,
            Some(MTMSI_BASE + 100),
            S1apPdu::InitialUeMessage {
                enb_ue_id: 100,
                nas_pdu: Bytes::from_static(b"a"),
                tai: Tai::new(Plmn::test(), 1),
                establishment_cause: 3,
                s_tmsi: None,
            },
            &mut out,
        );
        assert!(matches!(&out[..], [MlbOut::Mmp { mmp: 0, .. }]));
    }

    #[test]
    fn mmp_node_marks_plane_on_vm_down_up() {
        let t = topo();
        let mut node = MmpNode::new(&t, 0);
        let mut out = Vec::new();
        node.handle(WireMsg::VmDown { vm: 2 }, &mut out);
        assert!(node.plane.snapshot().is_down(2));
        node.handle(WireMsg::VmUp { vm: 2 }, &mut out);
        assert!(!node.plane.snapshot().is_down(2));
        assert!(out.is_empty());
        assert_eq!(node.errors, 0);
        // An unexpected message is an error, not a panic.
        node.handle(WireMsg::ProcFailed { m_tmsi: 1 }, &mut out);
        assert_eq!(node.errors, 1);
        assert_eq!(node.stats().messages, 0);
    }
}
