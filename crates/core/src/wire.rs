//! The wire-level process roles (DESIGN.md §14): the message protocol,
//! MLB routing state and MMP node logic shared by the multi-process
//! deployment's three process kinds —
//!
//! ```text
//!   eNB process ──sctplite──▶ MLB front process ──sctplite──▶ MMP worker
//!   (EnbEmulator)             (MlbState, this module)         (MmpNode, this module)
//! ```
//!
//! Everything here is sans-IO: [`MlbState`] and [`MmpNode`] consume
//! decoded [`WireMsg`] values (the MLB also their bytes,
//! [`MlbState::relay`]) and emit outputs into caller-provided vectors,
//! so the same logic is driven by real sockets in the deployment
//! binaries, by worker threads in `scale-sim`'s scale-out driver, and
//! by the single-threaded [`Pump`] that `scale-sim`'s shuttle and the
//! protocol model checker schedule. The transport carries
//! each encoded message as one `sctplite` DATA chunk (ppid
//! [`scale_sctplite::ppid::SCALE_STATE`] for control, `S1AP` for
//! PDU-bearing messages); ordering guarantees are exactly the
//! per-association FIFO the in-process mailboxes provide, so an Idle
//! edge's `Replicate`, which [`MmpNode::handle`] emits ahead of the
//! edge's `Settled`, reaches its holder before the device's next
//! procedure can.
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
use scale_epc::{home_cell, imsi_of, Hss, SeqClock, ENB_BASE};
use scale_gtpc::{self as gtpc, iface_type, BearerContext, Cause, Fteid};
use scale_mme::{Incoming, MmeConfig, MmeCore, Outgoing, UeContext};
use scale_nas::{Guti, Plmn};
use scale_s1ap::{Gummei, RouteKey, S1apPdu};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

mod codec;
mod pump;
mod relay;

pub use codec::{WireMsg, WireRole, WireView};
pub use pump::{to_cell, Link, Pump, Tamper, WorkerStatus};
pub use relay::{Dest, Forward, Relay};

/// Which of `n_shards` workers hosts MMP `vm`. VM ids start at 1, so
/// the partition is `(vm - 1) mod n`.
pub fn shard_of(vm: VmId, n_shards: usize) -> usize {
    (vm as usize).saturating_sub(1) % n_shards.max(1)
}

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
    /// Seed of every MMP worker's HSS, which mixes in its index and
    /// incarnation for its RAND stream.
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
    /// Connected-mode uplinks forwarded to the VM their MME-UE-S1AP-ID
    /// names.
    pub forwarded_uplinks: u64,
    /// Lifecycle edges relayed to home cells.
    pub settled_relayed: u64,
    /// In-flight procedures failed over after an MMP death.
    pub proc_failures: u64,
    /// Messages dropped because their target link was dead, or because
    /// the VM their MME-UE-S1AP-ID names is down or no ring member
    /// (stale post-crash traffic), or because nothing routes them.
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

/// The MLB front process's routing brain (§4.3): an Initial UE Message
/// goes by consistent hashing over the shared plane, and every later
/// uplink of its connection by the MME-UE-S1AP-ID the serving VM
/// minted, which carries that VM. The one per-device table is the
/// in-flight one, which turns an MMP death into targeted `ProcFailed`
/// notifications instead of lost devices.
pub struct MlbState {
    topo: WireTopo,
    plane: Arc<RoutePlane>,
    reader: RouteReader,
    /// m_tmsi → serving VM, from a procedure's Initial UE Message to
    /// its Idle edge: one entry per procedure in flight.
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
            inflight: HashMap::new(),
            stats: MlbWireStats::default(),
        }
    }

    /// The MMP process hosting engine `vm`.
    #[must_use]
    pub fn mmp_of(&self, vm: VmId) -> usize {
        shard_of(vm, self.topo.n_mmps)
    }

    /// Procedures in flight: the MLB's only per-device state, empty
    /// whenever every procedure has settled (diagnostics).
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
        match self.route_uplink(attach_hint, pdu.route_key()) {
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
    fn route_uplink(&mut self, attach_hint: Option<u32>, key: RouteKey) -> UplinkRoute {
        match key {
            RouteKey::S1Setup => UplinkRoute::Setup,
            RouteKey::Initial { s_tmsi } => {
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
                self.inflight.insert(m_tmsi, vm);
                UplinkRoute::Deliver {
                    vm,
                    guti_hint: attach_hint,
                    opens: Some(m_tmsi),
                }
            }
            RouteKey::Connected { mme_ue_id } => {
                let Some(vm) = self.reader.route_active(mme_ue_id) else {
                    // Stale uplink for a VM that is down or gone.
                    self.stats.dropped += 1;
                    return UplinkRoute::Dropped;
                };
                self.stats.forwarded_uplinks += 1;
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
                    self.release_inflight(m_tmsi);
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
    /// VMs down for routing, fail over every in-flight procedure to its
    /// home cell, and tell the surviving MMPs to exclude the dead VMs
    /// from replica placement.
    pub fn on_mmp_down(&mut self, mmp: usize, out: &mut Vec<MlbOut>) {
        let dead: Vec<VmId> = self.topo.vms_of(mmp);
        for &vm in &dead {
            self.plane.mark_down(vm);
        }
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
    /// each Idle edge; `ScaleDc::repair`'s proactive ring repair has no
    /// wire twin yet (DESIGN.md §14.3 records the divergence).
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

    /// The serving VM of device `m_tmsi`'s in-flight procedure, if it
    /// has one in flight.
    #[must_use]
    pub fn inflight_vm(&self, m_tmsi: u32) -> Option<VmId> {
        self.inflight.get(&m_tmsi).copied()
    }

    /// Device `m_tmsi`'s in-flight procedure is over: drop its entry and
    /// give back the load charge routing made. The Idle edge ends a
    /// procedure this way, and so does the shedding of the `Deliver`
    /// that opened it.
    pub fn release_inflight(&mut self, m_tmsi: u32) {
        if let Some(vm) = self.inflight.remove(&m_tmsi) {
            self.reader.discharge(vm);
        }
    }

    /// Hash the behavior-relevant routing state — the in-flight table, snapshot membership/liveness and per-VM loads —
    /// into `h`. Monotone report counters and the (equally monotone)
    /// snapshot epoch are excluded: two states differing only in those
    /// have identical future behavior, and folding them in would defeat
    /// the model checker's visited-set dedup.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
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

/// A worker's counters, and the sum of several workers' (`merge`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Engine events processed.
    pub messages: u64,
    /// Attach procedures completed.
    pub attaches: u64,
    /// Service Requests served.
    pub service_requests: u64,
    /// Tracking Area Updates served.
    pub taus: u64,
    /// Detaches completed.
    pub detaches: u64,
    /// Idle transitions completed.
    pub idles: u64,
    /// Engine-level rejects.
    pub rejects: u64,
    /// Replica blobs imported.
    pub replicas_imported: u64,
    /// Replica blobs shipped to another worker.
    pub replicas_sent: u64,
    /// Stray copies dropped.
    pub strays_dropped: u64,
    /// Errors (engine failures + misrouted messages).
    pub errors: u64,
}

impl ShardStatsSnapshot {
    /// Field-wise sum (fleet-wide totals).
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        self.messages += other.messages;
        self.attaches += other.attaches;
        self.service_requests += other.service_requests;
        self.taus += other.taus;
        self.detaches += other.detaches;
        self.idles += other.idles;
        self.rejects += other.rejects;
        self.replicas_imported += other.replicas_imported;
        self.replicas_sent += other.replicas_sent;
        self.strays_dropped += other.strays_dropped;
        self.errors += other.errors;
    }
}

/// The address the S-GW stub puts in its F-TEIDs.
const SGW_ADDR: [u8; 4] = [10, 0, 0, 2];

/// One MMP worker process's logic (§4.3–4.4): the real MME engines of
/// the VMs homed on this worker, the HSS front end and S-GW stub their
/// S6a and S11 requests loop through, and a replica of the routing
/// plane that names a device's holders. Every VM's contexts live on
/// exactly one worker, so no context is shared between threads or
/// processes; what crosses to another worker is a [`WireMsg`].
///
/// S6a and S11 stay worker-local: vector generation is a pure function
/// of the IMSI, so every worker's HSS computes the same keys, and that
/// holds for the SQN too — SEQ ‖ IND comes from the worker's own clock
/// and index, never from a subscriber's history, so the HSS keeps
/// nothing per device (`scale_epc::hss`). The S-GW stub keeps no
/// session state either. Only S1AP, replication blobs and drops ever
/// leave the worker.
pub struct MmpNode {
    index: usize,
    topo: WireTopo,
    plane: Arc<RoutePlane>,
    reader: RouteReader,
    engines: BTreeMap<VmId, MmeCore>,
    hss: Hss,
    /// The counters this node keeps itself; the engine counters
    /// (`messages` … `rejects`) stay zero here, and [`Self::stats`]
    /// adds the engines' own.
    stats: ShardStatsSnapshot,
    /// Wire-level errors: unexpected messages, and every engine error
    /// (which also counts in `stats().errors`).
    pub errors: u64,
    error_samples: Vec<String>,
    /// Events delivered since the engines' last index audit.
    #[cfg(feature = "verify")]
    unaudited: usize,
}

/// What one [`MmpNode::handle`] call writes: what goes to other
/// workers (`Replicate`, `DropCtx`) ahead of what goes to cells
/// (`ToEnb`, `Settled`), each in the order generated. FIFO links turn
/// that into the replicate-before-next-procedure edge.
struct Emit<'a> {
    out: &'a mut Vec<WireMsg>,
    /// Where the next worker-bound message goes.
    split: usize,
}

impl Emit<'_> {
    fn for_worker(&mut self, msg: WireMsg) {
        self.out.insert(self.split, msg);
        self.split += 1;
    }

    fn for_cell(&mut self, msg: WireMsg) {
        self.out.push(msg);
    }
}

/// Every IMSI the emulators' devices can have (`imsi_of`): what each
/// worker's HSS has provisioned.
const EMULATED_IMSIS: u64 = 10_000_000_000;

impl MmpNode {
    /// Build worker `index` of the topology, first incarnation.
    #[must_use]
    pub fn new(topo: &WireTopo, index: usize) -> Self {
        MmpNode::with_clock(topo, index, SeqClock::Restarts(0))
    }

    /// Build worker `index` of the topology whose HSS reads `clock`: a
    /// restart count in process, wall time in a deployment process.
    #[must_use]
    pub fn with_clock(topo: &WireTopo, index: usize, clock: SeqClock) -> Self {
        let plane = topo.route_plane();
        let guti = plane.snapshot().guti(0);
        let engines = topo
            .vms_of(index)
            .into_iter()
            .map(|vm| {
                let engine = MmeCore::new(MmeConfig {
                    plmn: guti.plmn,
                    mme_group_id: guti.mme_group_id,
                    mme_code: guti.mme_code,
                    mme_name: format!("mmp-{vm}"),
                    vm_id: vm as u8,
                    ..MmeConfig::default()
                });
                (vm, engine)
            })
            .collect();
        let mut hss = Hss::instance(topo.seed, index, clock);
        hss.provision_span(&imsi_of(0), EMULATED_IMSIS);
        MmpNode {
            index,
            topo: topo.clone(),
            reader: plane.reader(),
            plane,
            engines,
            hss,
            stats: ShardStatsSnapshot::default(),
            errors: 0,
            error_samples: Vec::new(),
            #[cfg(feature = "verify")]
            unaudited: 0,
        }
    }

    /// This worker's counters, its engines' summed in.
    #[must_use]
    pub fn stats(&self) -> ShardStatsSnapshot {
        let mut total = self.stats;
        for e in self.engines.values() {
            total.messages += e.stats.messages_processed;
            total.attaches += e.stats.attaches_completed;
            total.service_requests += e.stats.service_requests;
            total.taus += e.stats.taus;
            total.detaches += e.stats.detaches;
            total.rejects += e.stats.rejects;
        }
        total
    }

    /// Contexts resident across this worker's engines.
    #[must_use]
    pub fn contexts_held(&self) -> usize {
        self.engines.values().map(MmeCore::context_count).sum()
    }

    /// S11 and S6a transactions open across this worker's engines. The
    /// HSS front end and S-GW stub answer inline, so after every
    /// [`Self::handle`] this is zero: anything else is a transaction
    /// its response failed to retire.
    #[must_use]
    pub fn open_transactions(&self) -> usize {
        self.engines.values().map(MmeCore::open_transactions).sum()
    }

    /// Every engine context paired with its VM, in VM order — the
    /// read-only view the protocol model checker's invariants audit.
    pub fn contexts(&self) -> impl Iterator<Item = (VmId, &UeContext)> + '_ {
        self.engines
            .iter()
            .flat_map(|(&vm, e)| e.contexts().map(move |c| (vm, c)))
    }

    /// USIM synch failures this worker's engines resynchronised
    /// (`MmeStats::resyncs`): a vector its HSS issued was stale.
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.engines.values().map(|e| e.stats.resyncs).sum()
    }

    /// Error Indications this worker's engines answered stale uplinks
    /// with (`MmeStats::error_indications`).
    #[must_use]
    pub fn error_indications(&self) -> u64 {
        self.engines
            .values()
            .map(|e| e.stats.error_indications)
            .sum()
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

    /// VMs on this worker currently holding a context for `m_tmsi`.
    #[must_use]
    pub fn holding_vms(&self, m_tmsi: u32) -> Vec<VmId> {
        let guti = self.plane.snapshot().guti(m_tmsi);
        self.engines
            .iter()
            .filter(|(_, e)| e.holds(&guti))
            .map(|(&vm, _)| vm)
            .collect()
    }

    /// Hash the worker's behavior-relevant state — every engine's
    /// contexts and allocator positions, the HSS's SEQ, and the local
    /// liveness view — into `h`. Counters and the monotone snapshot
    /// epoch are excluded (see [`MlbState::fingerprint`]).
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.index.hash(h);
        self.hss.fingerprint(h);
        for (&vm, engine) in &self.engines {
            vm.hash(h);
            engine.fingerprint(h);
        }
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

    /// An error at engine `vm`: counted in `stats().errors` and in
    /// `errors`.
    fn engine_error(&mut self, vm: VmId, error: impl std::fmt::Display) {
        self.stats.errors += 1;
        self.fail(format!("engine vm {vm}: {error}"));
    }

    fn misroute(&mut self, vm: VmId, what: &str) {
        let index = self.index;
        self.engine_error(
            vm,
            format_args!("{what} for vm {vm} not owned by worker {index}"),
        );
    }

    /// Process one wire message. What it produces goes to `out`: every
    /// `Replicate`/`DropCtx` first, then every `ToEnb`/`Settled`, each
    /// in the order generated — so an Idle edge's replicas leave ahead
    /// of the `Settled` that lets the device start its next procedure.
    pub fn handle(&mut self, msg: WireMsg, out: &mut Vec<WireMsg>) {
        let mut emit = Emit {
            split: out.len(),
            out,
        };
        match msg {
            WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            } => self.deliver(vm, guti_hint, Incoming::S1ap { enb_id, pdu }, &mut emit),
            WireMsg::Replicate { vm, blob } => match self.engines.get_mut(&vm) {
                Some(engine) => match engine.import_state(blob) {
                    Ok(_) => self.stats.replicas_imported += 1,
                    Err(e) => self.engine_error(vm, format_args!("replica import: {e}")),
                },
                None => self.misroute(vm, "replicate"),
            },
            WireMsg::DropCtx { vm, m_tmsi } => {
                let guti = self.reader.snapshot().guti(m_tmsi);
                match self.engines.get_mut(&vm) {
                    Some(engine) => {
                        if engine.remove_context(&guti) {
                            self.stats.strays_dropped += 1;
                        }
                    }
                    None => self.misroute(vm, "drop"),
                }
            }
            WireMsg::VmDown { vm } => self.plane.mark_down(vm),
            WireMsg::VmUp { vm } => self.plane.mark_up(vm),
            other @ (WireMsg::Hello { .. }
            | WireMsg::Uplink { .. }
            | WireMsg::ToEnb { .. }
            | WireMsg::Settled { .. }
            | WireMsg::ProcFailed { .. }) => {
                self.fail(format!("unexpected wire message at MMP: {other:?}"));
            }
        }
    }

    /// Run one inbound event through engine `vm`, looping its S6a and
    /// S11 requests through the local HSS and S-GW stub until only S1AP
    /// and replication remain.
    fn deliver(&mut self, vm: VmId, guti_hint: Option<u32>, ev: Incoming, emit: &mut Emit<'_>) {
        let Some(engine) = self.engines.get_mut(&vm) else {
            self.misroute(vm, "event");
            return;
        };
        if let Some(m_tmsi) = guti_hint {
            engine.set_guti_hint(m_tmsi);
        }
        let mut queue = VecDeque::new();
        queue.push_back(ev);
        while let Some(ev) = queue.pop_front() {
            let engine = self.engines.get_mut(&vm).expect("checked above"); // lint: allow(unwrap): vm membership verified on entry
            let outs = match engine.handle(ev) {
                Ok(outs) => outs,
                Err(e) => {
                    self.engine_error(vm, e);
                    continue;
                }
            };
            for out in outs {
                match out {
                    Outgoing::S1ap { enb_id, pdu } => emit.for_cell(WireMsg::ToEnb { enb_id, pdu }),
                    Outgoing::S11(msg) => {
                        if let Some(resp) = sgw_respond(SGW_ADDR, msg) {
                            queue.push_back(Incoming::S11(resp));
                        }
                    }
                    Outgoing::S6a(msg) => queue.push_back(Incoming::S6a(self.hss.handle(&msg))),
                    Outgoing::UeAttached { .. } => {}
                    Outgoing::UeActive { guti } => emit.for_cell(WireMsg::Settled {
                        m_tmsi: guti.m_tmsi,
                        active: true,
                    }),
                    Outgoing::UeIdle { guti } => {
                        self.sync_holders(vm, guti, emit);
                        self.stats.idles += 1;
                        emit.for_cell(WireMsg::Settled {
                            m_tmsi: guti.m_tmsi,
                            active: false,
                        });
                    }
                    // A detach, or the release that ends a failed or a
                    // refused attach: the device is not registered
                    // anywhere, and its procedure is over. A refused
                    // attach leaves the copy it named, another device's,
                    // on its engine, and on every other holder.
                    Outgoing::UeDetached { guti } => {
                        if !self.engines.get(&vm).is_some_and(|e| e.holds(&guti)) {
                            self.drop_other_holders(vm, guti, emit);
                        }
                        emit.for_cell(WireMsg::Settled {
                            m_tmsi: guti.m_tmsi,
                            active: false,
                        });
                    }
                }
            }
        }
        #[cfg(feature = "verify")]
        self.audit();
    }

    /// Audit every engine's id indices ([`MmeCore::check_invariants`])
    /// once as many events have been delivered as this node holds
    /// copies: after every event while the node is small, as in the
    /// model checker, and in time linear in the events on a large one.
    /// (After every event on a large node, a debug build's worker slowed
    /// until a socket deployment missed its deadline.)
    #[cfg(feature = "verify")]
    fn audit(&mut self) {
        self.unaudited += 1;
        if self.unaudited < self.contexts_held() {
            return;
        }
        self.unaudited = 0;
        for engine in self.engines.values() {
            engine.check_invariants();
        }
    }

    /// Idle edge (§4.4): export the fresh state from the serving VM and
    /// give a copy to every ring-designated holder — imported in place
    /// when the holder is on this worker, as a `Replicate` otherwise.
    fn sync_holders(&mut self, serving: VmId, guti: Guti, emit: &mut Emit<'_>) {
        let Some(blob) = self
            .engines
            .get(&serving)
            .and_then(|e| e.export_state(&guti))
        else {
            self.stats.errors += 1;
            return;
        };
        let (holders, n) = self.reader.holders(guti.m_tmsi);
        let mut keep = false;
        for &h in &holders[..n] {
            if h == serving {
                keep = true;
                continue;
            }
            match self.engines.get_mut(&h) {
                Some(local) => {
                    if local.import_state(&blob).is_ok() {
                        self.stats.replicas_imported += 1;
                    }
                }
                None => {
                    emit.for_worker(WireMsg::Replicate {
                        vm: h,
                        blob: blob.clone(),
                    });
                    self.stats.replicas_sent += 1;
                }
            }
        }
        if !keep {
            // Post-churn: the serving VM is no longer a designated
            // holder; its copy would go stale.
            if let Some(engine) = self.engines.get_mut(&serving) {
                engine.remove_context(&guti);
                self.stats.strays_dropped += 1;
            }
        }
    }

    /// Detach edge, or a failed attach's release: the serving engine
    /// already purged its copy; evict
    /// every other holder's — in place here, by `DropCtx` elsewhere.
    fn drop_other_holders(&mut self, serving: VmId, guti: Guti, emit: &mut Emit<'_>) {
        let (holders, n) = self.reader.holders(guti.m_tmsi);
        for &h in &holders[..n] {
            if h == serving {
                continue;
            }
            match self.engines.get_mut(&h) {
                Some(local) => {
                    if local.remove_context(&guti) {
                        self.stats.strays_dropped += 1;
                    }
                }
                None => emit.for_worker(WireMsg::DropCtx {
                    vm: h,
                    m_tmsi: guti.m_tmsi,
                }),
            }
        }
    }
}

/// Stateless S-GW responder: accepts every request, minting
/// deterministic TEIDs by *mirroring* the MME's S11 TEID (so the
/// mapping is invertible without session state). Idle/active bearer
/// state lives in the MME contexts; nothing here needs to survive a
/// device moving to another worker, which is what lets S11 stay
/// worker-local.
fn sgw_respond(addr: [u8; 4], msg: gtpc::Message) -> Option<gtpc::Message> {
    match msg.body {
        gtpc::Body::EchoRequest { recovery } => Some(gtpc::Message {
            teid: 0,
            sequence: msg.sequence,
            body: gtpc::Body::EchoResponse { recovery },
        }),
        gtpc::Body::CreateSessionRequest {
            sender_fteid,
            bearer,
            ..
        } => {
            let mme_teid = sender_fteid.teid;
            let mut bearer_out = BearerContext::new(bearer.ebi);
            bearer_out.s1u_sgw_fteid = Some(Fteid {
                iface: iface_type::S1U_SGW,
                teid: mme_teid,
                ipv4: addr,
            });
            bearer_out.cause = Some(Cause::RequestAccepted);
            Some(gtpc::Message {
                teid: mme_teid,
                sequence: msg.sequence,
                body: gtpc::Body::CreateSessionResponse {
                    cause: Cause::RequestAccepted,
                    sender_fteid: Some(Fteid {
                        iface: iface_type::S11_SGW,
                        teid: mme_teid,
                        ipv4: addr,
                    }),
                    paa: Some([100, 64, (mme_teid >> 8) as u8, mme_teid as u8]),
                    bearer: Some(bearer_out),
                },
            })
        }
        gtpc::Body::ModifyBearerRequest { .. } => Some(gtpc::Message {
            teid: msg.teid,
            sequence: msg.sequence,
            body: gtpc::Body::ModifyBearerResponse {
                cause: Cause::RequestAccepted,
                bearer: None,
            },
        }),
        gtpc::Body::ReleaseAccessBearersRequest => Some(gtpc::Message {
            teid: msg.teid,
            sequence: msg.sequence,
            body: gtpc::Body::ReleaseAccessBearersResponse {
                cause: Cause::RequestAccepted,
            },
        }),
        gtpc::Body::DeleteSessionRequest { .. } => Some(gtpc::Message {
            teid: 0,
            sequence: msg.sequence,
            body: gtpc::Body::DeleteSessionResponse {
                cause: Cause::RequestAccepted,
            },
        }),
        gtpc::Body::DownlinkDataNotificationAck { .. } => None,
        _ => None,
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
    fn uplinks_follow_their_id() {
        let t = topo();
        let mut mlb = MlbState::new(&t);
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
        match &out[..] {
            [MlbOut::Mmp {
                msg: WireMsg::Deliver { guti_hint, .. },
                ..
            }] => assert_eq!(*guti_hint, Some(m_tmsi)),
            other => panic!("{other:?}"),
        }
        assert_eq!(mlb.inflight_len(), 1);
        // A later uplink goes to the VM its MME-UE-S1AP-ID names,
        // whichever connection it rides on.
        let uplink = |mme_ue_id| S1apPdu::UplinkNasTransport {
            mme_ue_id,
            enb_ue_id: 1,
            nas_pdu: Bytes::from_static(b"smc ok"),
            tai: Tai::new(Plmn::test(), 1),
        };
        for vm in 1..=t.total_vms as VmId {
            out.clear();
            let id = scale_mme::compose_id(vm as u8, 9);
            mlb.on_enb(ENB_BASE, None, uplink(id), &mut out);
            match &out[..] {
                [MlbOut::Mmp {
                    mmp,
                    msg: WireMsg::Deliver { vm: to, .. },
                }] => assert_eq!((*mmp, *to), (shard_of(vm, t.n_mmps), vm)),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(mlb.stats.forwarded_uplinks, t.total_vms as u64);
        // An id naming no ring member, or a VM that is down, is dropped.
        out.clear();
        mlb.plane().mark_down(2);
        for vm in [9, 2] {
            let id = scale_mme::compose_id(vm, 9);
            mlb.on_enb(ENB_BASE, None, uplink(id), &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(mlb.stats.dropped, 2);
        // The Idle edge ends the procedure: nothing per device is left.
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
        // Put in flight one attach per MMP.
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
        let mut a = failed;
        let mut b = on_dead;
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

    #[test]
    fn shard_partition_is_disjoint_and_total() {
        for n in 1..=8 {
            let mut seen = vec![0usize; n];
            for vm in 1..=16u32 {
                seen[shard_of(vm, n)] += 1;
            }
            assert_eq!(seen.iter().sum::<usize>(), 16);
            let (lo, hi) = (16 / n, 16usize.div_ceil(n));
            assert!(seen.iter().all(|&c| c == lo || c == hi));
        }
    }

    #[test]
    fn misrouted_messages_count_errors_not_panics() {
        // Worker 0 of `topo()` hosts VMs 1 and 3; VM 2 lives on worker 1.
        let mut node = MmpNode::new(&topo(), 0);
        let mut out = Vec::new();
        let misrouted = [
            WireMsg::DropCtx { vm: 2, m_tmsi: 9 },
            WireMsg::Replicate {
                vm: 2,
                blob: Bytes::from_static(b"blob"),
            },
            WireMsg::Deliver {
                vm: 2,
                guti_hint: None,
                enb_id: ENB_BASE,
                pdu: S1apPdu::UeContextReleaseComplete {
                    mme_ue_id: 1,
                    enb_ue_id: 1,
                },
            },
        ];
        for (n, msg) in (1..).zip(misrouted) {
            node.handle(msg, &mut out);
            // An engine-side error counts in both tallies.
            assert_eq!((node.stats().errors, node.errors), (n, n));
        }
        assert!(out.is_empty());
        let samples = node.error_samples();
        assert!(
            samples.iter().all(|s| s.starts_with("engine vm 2: ")),
            "{samples:?}"
        );
        assert_eq!(node.stats().messages, 0);
    }

    /// The Authentication Request worker `node` answers an IMSI attach
    /// of `imsi` on VM `vm`, on connection `enb_ue_id` and hinted
    /// `m_tmsi`, with: its RAND, and its SQN as (SEQ, IND).
    fn challenge(
        node: &mut MmpNode,
        vm: VmId,
        imsi: &str,
        enb_ue_id: u32,
        m_tmsi: u32,
    ) -> ([u8; 16], (u64, usize)) {
        use scale_crypto::milenage::Milenage;
        use scale_nas::EmmMessage;

        let (out, _) = attach_by_imsi(node, vm, imsi, enb_ue_id, m_tmsi);
        let nas_pdu = match &out[..] {
            [WireMsg::ToEnb {
                pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
                ..
            }] => nas_pdu.clone(),
            other => panic!("expected the authentication request, got {other:?}"),
        };
        match EmmMessage::decode(nas_pdu).unwrap() {
            EmmMessage::AuthenticationRequest { rand, autn, .. } => {
                let usim = Milenage::from_op(&scale_epc::provision_k(imsi), &scale_epc::OP);
                let ak = usim.f2345(&rand).ak;
                let sqn: [u8; 6] = std::array::from_fn(|i| autn[i] ^ ak[i]);
                (rand, scale_epc::split_sqn(&sqn))
            }
            other => panic!("expected the authentication request, got {other:?}"),
        }
    }

    /// An IMSI attach of `imsi`, hinted `m_tmsi`, delivered to VM `vm`
    /// on connection `enb_ue_id`: what `node` answers, and the
    /// MME-UE-S1AP-ID of the first downlink.
    fn attach_by_imsi(
        node: &mut MmpNode,
        vm: VmId,
        imsi: &str,
        enb_ue_id: u32,
        m_tmsi: u32,
    ) -> (Vec<WireMsg>, u32) {
        use scale_nas::{EmmMessage, MobileId};

        let tai = Tai::new(Plmn::test(), 7);
        let mut out = Vec::new();
        node.handle(
            WireMsg::Deliver {
                vm,
                guti_hint: Some(m_tmsi),
                enb_id: ENB_BASE,
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id,
                    nas_pdu: EmmMessage::AttachRequest {
                        attach_type: 1,
                        id: MobileId::Imsi(imsi.into()),
                        tai,
                    }
                    .encode(),
                    tai,
                    establishment_cause: 3,
                    s_tmsi: None,
                },
            },
            &mut out,
        );
        let mme_ue_id = match out.first() {
            Some(WireMsg::ToEnb {
                pdu: S1apPdu::DownlinkNasTransport { mme_ue_id, .. },
                ..
            }) => *mme_ue_id,
            _ => 0,
        };
        (out, mme_ue_id)
    }

    /// A second authentication of the same IMSI at one worker sees the
    /// next SEQ; IND is the worker's index. The cell re-drives the
    /// attach under the M-TMSI it hinted the first time.
    #[test]
    fn reattach_advances_the_hss_sqn() {
        let imsi = "001010000000042";
        let m_tmsi = MTMSI_BASE + 42;
        let sqn =
            |node: &mut MmpNode, vm, enb_ue_id| challenge(node, vm, imsi, enb_ue_id, m_tmsi).1;
        let mut node = MmpNode::new(&topo(), 0);
        assert_eq!(sqn(&mut node, 1, 1), (1, 0), "(SEQ, IND)");
        assert_eq!(sqn(&mut node, 1, 2), (2, 0), "(SEQ, IND)");
        assert_eq!(node.contexts_held(), 1, "one record for both attaches");
        let mut other = MmpNode::new(&topo(), 1);
        assert_eq!(sqn(&mut other, 2, 1), (1, 1), "(SEQ, IND)");
    }

    /// A registered device, held at rest on each of its ring holders,
    /// attaches again and fails authentication. The Release Complete
    /// that ends the attach removes the serving copy, drops every other
    /// holder's, and still settles the device at its cell.
    #[test]
    fn a_rejected_device_is_dropped_from_every_holder() {
        use scale_nas::{EmmMessage, Imsi};

        let imsi = "001010000000017";
        let m_tmsi = MTMSI_BASE + 17;
        let mut nodes = [MmpNode::new(&topo(), 0), MmpNode::new(&topo(), 1)];
        let guti = nodes[0].reader.snapshot().guti(m_tmsi);
        let mut registered = UeContext::new(
            Imsi::from_ascii(imsi.as_bytes()).unwrap(),
            guti,
            Tai::new(Plmn::test(), 7),
        );
        registered.emm = scale_mme::EmmState::Registered;
        let blob = registered.to_bytes();
        let (holders, n) = nodes[0].reader.holders(m_tmsi);
        let mut out = Vec::new();
        for &vm in &holders[..n] {
            let blob = blob.clone();
            nodes[shard_of(vm, 2)].handle(WireMsg::Replicate { vm, blob }, &mut out);
        }
        assert!(out.is_empty());
        let held = |nodes: &[MmpNode; 2]| {
            nodes
                .iter()
                .flat_map(|node| node.engines.values())
                .filter(|engine| engine.holds(&guti))
                .count()
        };
        assert_eq!(held(&nodes), n);

        let serving = holders[0];
        let node = &mut nodes[shard_of(serving, 2)];
        let (_, mme_ue_id) = attach_by_imsi(node, serving, imsi, 3, m_tmsi);
        let deliver = |node: &mut MmpNode, pdu: S1apPdu| {
            let mut out = Vec::new();
            node.handle(
                WireMsg::Deliver {
                    vm: serving,
                    guti_hint: None,
                    enb_id: ENB_BASE,
                    pdu,
                },
                &mut out,
            );
            out
        };
        let wrong = EmmMessage::AuthenticationResponse { res: [0; 8] };
        let out = deliver(
            node,
            S1apPdu::UplinkNasTransport {
                mme_ue_id,
                enb_ue_id: 3,
                nas_pdu: wrong.encode(),
                tai: Tai::new(Plmn::test(), 7),
            },
        );
        let released = matches!(
            out.last(),
            Some(WireMsg::ToEnb {
                pdu: S1apPdu::UeContextReleaseCommand { .. },
                ..
            })
        );
        assert!(out.len() == 2 && released, "{out:?}");
        let out = deliver(
            node,
            S1apPdu::UeContextReleaseComplete {
                mme_ue_id,
                enb_ue_id: 3,
            },
        );
        let Some((last, drops)) = out.split_last() else {
            panic!("the release answered nothing");
        };
        let settled = WireMsg::Settled {
            m_tmsi,
            active: false,
        };
        assert_eq!(*last, settled, "the cell's Settled last: {out:?}");
        for drop in drops {
            let WireMsg::DropCtx { vm, .. } = drop else {
                panic!("expected only DropCtx ahead of Settled, got {out:?}");
            };
            let vm = *vm;
            nodes[shard_of(vm, 2)].handle(drop.clone(), &mut Vec::new());
        }
        assert_eq!(held(&nodes), 0, "a copy of the rejected device is kept");
    }

    /// The MLB hands a new device an M-TMSI under which its holders keep
    /// another device's copy. The serving engine refuses the attach and
    /// leaves that copy, and every holder's, as it was; the refusal's
    /// Release Complete still settles the procedure at the cell, and the
    /// MLB's in-flight entry for it is gone.
    #[test]
    fn a_refused_attach_settles_and_leaves_the_other_devices_copies() {
        use scale_nas::{EmmMessage, Imsi, MobileId};

        let m_tmsi = MTMSI_BASE + 23;
        let mut mlb = MlbState::new(&topo());
        let mut nodes = [MmpNode::new(&topo(), 0), MmpNode::new(&topo(), 1)];
        let guti = nodes[0].reader.snapshot().guti(m_tmsi);
        let mut registered = UeContext::new(
            Imsi::from_ascii(b"001010000000099").unwrap(),
            guti,
            Tai::new(Plmn::test(), 7),
        );
        registered.emm = scale_mme::EmmState::Registered;
        let blob = registered.to_bytes();
        let (holders, n) = nodes[0].reader.holders(m_tmsi);
        for &vm in &holders[..n] {
            let blob = blob.clone();
            nodes[shard_of(vm, 2)].handle(WireMsg::Replicate { vm, blob }, &mut Vec::new());
        }
        let copies = |nodes: &[MmpNode; 2]| -> Vec<Bytes> {
            nodes
                .iter()
                .flat_map(|node| node.engines.values())
                .filter_map(|engine| engine.export_state(&guti))
                .collect()
        };
        assert_eq!(copies(&nodes), vec![blob.clone(); n]);

        // Each uplink through the MLB to its worker, and each of the
        // worker's messages back through the MLB: what reaches the cell.
        let mut round_trip = |nodes: &mut [MmpNode; 2], hint, pdu| {
            let mut routed = Vec::new();
            mlb.on_enb(ENB_BASE, hint, pdu, &mut routed);
            let [MlbOut::Mmp { mmp, msg }] = &routed[..] else {
                panic!("expected one Deliver, got {routed:?}");
            };
            let mut answered = Vec::new();
            nodes[*mmp].handle(msg.clone(), &mut answered);
            let mut to_cell = Vec::new();
            for msg in answered {
                let mut back = Vec::new();
                mlb.on_mmp(msg, &mut back);
                for out in back {
                    let MlbOut::Enb { msg, .. } = out else {
                        panic!("expected only messages for the cell, got {out:?}");
                    };
                    to_cell.push(msg);
                }
            }
            (to_cell, mlb.inflight_len())
        };
        let tai = Tai::new(Plmn::test(), 7);
        let attach = S1apPdu::InitialUeMessage {
            enb_ue_id: 5,
            nas_pdu: EmmMessage::AttachRequest {
                attach_type: 1,
                id: MobileId::Imsi("001010000000023".into()),
                tai,
            }
            .encode(),
            tai,
            establishment_cause: 3,
            s_tmsi: None,
        };
        let (to_cell, inflight) = round_trip(&mut nodes, Some(m_tmsi), attach);
        assert_eq!(inflight, 1);
        let [WireMsg::ToEnb {
            pdu: S1apPdu::DownlinkNasTransport { nas_pdu, .. },
            ..
        }, WireMsg::ToEnb {
            pdu: S1apPdu::UeContextReleaseCommand { mme_ue_id, .. },
            ..
        }] = &to_cell[..]
        else {
            panic!("expected Attach Reject + UE Context Release Command, got {to_cell:?}");
        };
        assert!(matches!(
            EmmMessage::decode(nas_pdu.clone()).unwrap(),
            EmmMessage::AttachReject { .. }
        ));
        let complete = S1apPdu::UeContextReleaseComplete {
            mme_ue_id: *mme_ue_id,
            enb_ue_id: 5,
        };
        let (to_cell, inflight) = round_trip(&mut nodes, None, complete);
        let settled = WireMsg::Settled {
            m_tmsi,
            active: false,
        };
        assert_eq!(to_cell, [settled]);
        assert_eq!(inflight, 0, "the MLB still holds the refused procedure");
        assert_eq!(copies(&nodes), vec![blob; n], "the other device's copies moved");
    }

    /// Every worker, and every incarnation of one, draws its own RAND
    /// stream: two workers' first vectors for one IMSI differ, and so do
    /// a restarted worker's and its predecessor's — whose SEQ it starts
    /// above.
    #[test]
    fn workers_and_incarnations_draw_their_own_rand() {
        let imsi = "001010000000042";
        let m_tmsi = MTMSI_BASE + 42;
        let (rand0, _) = challenge(&mut MmpNode::new(&topo(), 0), 1, imsi, 1, m_tmsi);
        let (rand1, _) = challenge(&mut MmpNode::new(&topo(), 1), 2, imsi, 1, m_tmsi);
        assert_ne!(rand0, rand1, "two workers");
        let mut restarted = MmpNode::with_clock(&topo(), 0, SeqClock::Restarts(1));
        let (again, (seq, _)) = challenge(&mut restarted, 1, imsi, 1, m_tmsi);
        assert_ne!(rand0, again, "a restarted worker and its predecessor");
        assert_eq!(seq, 1 << 32);
    }

    #[test]
    fn sgw_stub_mirrors_mme_teid() {
        let resp = sgw_respond(
            SGW_ADDR,
            gtpc::Message {
                teid: 0,
                sequence: 5,
                body: gtpc::Body::CreateSessionRequest {
                    imsi: "001".into(),
                    apn: "internet".into(),
                    sender_fteid: Fteid {
                        iface: iface_type::S11_MME,
                        teid: 0x0200_0001,
                        ipv4: [10, 0, 0, 1],
                    },
                    ambr: gtpc::Ambr {
                        uplink_kbps: 1,
                        downlink_kbps: 1,
                    },
                    bearer: BearerContext::new(5),
                },
            },
        )
        .unwrap();
        assert_eq!(resp.sequence, 5);
        match resp.body {
            gtpc::Body::CreateSessionResponse {
                cause,
                sender_fteid,
                bearer,
                ..
            } => {
                assert!(cause.is_accepted());
                assert_eq!(sender_fteid.unwrap().teid, 0x0200_0001);
                assert_eq!(bearer.unwrap().s1u_sgw_fteid.unwrap().teid, 0x0200_0001);
            }
            other => panic!("{other:?}"),
        }
        // Modify / release / delete always accept.
        let mb = sgw_respond(
            SGW_ADDR,
            gtpc::Message {
                teid: 77,
                sequence: 6,
                body: gtpc::Body::ModifyBearerRequest {
                    bearer: BearerContext::new(5),
                },
            },
        )
        .unwrap();
        assert!(
            matches!(mb.body, gtpc::Body::ModifyBearerResponse { cause, .. } if cause.is_accepted())
        );
    }

    #[test]
    fn stats_snapshot_merge_sums_fieldwise() {
        let a = ShardStatsSnapshot {
            messages: 3,
            attaches: 1,
            ..Default::default()
        };
        let mut b = ShardStatsSnapshot {
            messages: 4,
            service_requests: 2,
            ..Default::default()
        };
        b.merge(&a);
        assert_eq!(b.messages, 7);
        assert_eq!(b.attaches, 1);
        assert_eq!(b.service_requests, 2);
    }
}
