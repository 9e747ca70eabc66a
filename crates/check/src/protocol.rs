//! Exhaustive protocol model checker over the sans-IO wire / failover /
//! worker state machines (DESIGN.md §15).
//!
//! The multi-process deployment is three process kinds exchanging
//! [`WireMsg`]s over per-link FIFO channels:
//!
//! ```text
//!   EnbEmulator ──e2m──▶ MlbState ──m2w──▶ MmpNode (owns its MmeCores)
//!        ▲                  │  ▲              │
//!        └───────m2e────────┘  └─────w2m──────┘
//! ```
//!
//! `scale-sim`'s shuttle drives exactly one interleaving of those
//! channels; the socket deployment drives whichever interleaving the
//! scheduler happens to produce. This module instead drives the *real*
//! state machines — [`MlbState`], [`MmpNode`], [`EnbEmulator`], the
//! [`HealthTracker`] failure-detection chain — through **every**
//! reachable interleaving of a small-scope deployment: all message
//! delivery orders across the four link families, plus bounded crash /
//! detect / restart fault schedules and (separately) bounded message
//! duplication and loss.
//!
//! ## Exploration strategy
//!
//! The component states are deliberately not `Clone` (they hold real
//! engines, HSS state and route planes), so the explorer is
//! *replay-based*: a depth-first search over [`Choice`] sequences that
//! rebuilds the world from the root and re-executes the choice prefix
//! for every explored edge. Duplicate states are pruned through a
//! visited set of 64-bit fingerprints composed from the components'
//! own `fingerprint` hooks (which deliberately exclude monotone report
//! counters, snapshot epochs and wall-clock state — see each hook's
//! doc comment). `DefaultHasher` is zero-keyed SipHash, so fingerprints
//! — and therefore the distinct-state count — are identical run to
//! run, which is what lets CI assert the smoke run twice and compare.
//!
//! ## Invariants
//!
//! Checked at every distinct state:
//!
//! * **I1 identity consistency** — every resident `UeContext` maps its
//!   GUTI's M-TMSI to the IMSI the identity scheme assigns it
//!   (M-TMSI ↔ IMSI is a bijection by construction, so agreement with
//!   the formula is uniqueness).
//! * **I2 epoch monotonicity** — no plane reader ever observes the
//!   routing epoch move backwards along an execution path.
//! * **I3 session safety** — a device whose attach was acknowledged
//!   and that has completed an Idle edge never loses its GUTI unless a
//!   crash occurred (the only sanctioned loss is the §4.6 cause-#9
//!   re-attach after its context died with a process).
//! * **I6 no transaction outlives its message** — a worker answers S6a
//!   and S11 inline, so between any two messages it handles no engine
//!   holds an open S11 or S6a transaction; a response that does not
//!   retire its request's entry leaks one per procedure. Checked in
//!   the adversarial-transport scenario too: a duplicated message must
//!   not open a transaction it never sends.
//! * **zero unexplained errors** — outside the adversarial-transport
//!   scenario, no emulator, worker or router error counter ever moves.
//!
//! Checked at every *quiescent* state (all queues empty, every crash
//! detected):
//!
//! * **convergence** — every session completed: no stuck devices, on
//!   any fault schedule.
//! * **I4 replica contract** — every Idle-edged device's context is
//!   held by exactly R live engines in fault-free runs, and by at
//!   least one as long as fewer than R crash episodes have occurred.
//!   The wire deployment has no background re-replication (ring repair
//!   lives in the analytical model only, `scale-sim`'s `fault`
//!   module), so R sequential crashes may legitimately exhaust every
//!   holder — the checker itself surfaced this contract boundary, and
//!   the `double_crash` scenario pins it: after R crashes the device
//!   must still *converge* (via the §4.6 cause-#9 re-attach), but its
//!   context may be lost.
//! * **I5 liveness-map coherence** — a VM is marked down in a routing
//!   plane iff its hosting worker is currently crashed; a restarted
//!   worker is marked up everywhere (catches a missed reconnect).
//! * **I7 no per-device state at the MLB** — the MLB routes a
//!   connection's uplinks by the MME-UE-S1AP-ID in them, so once every
//!   procedure has settled its in-flight table is empty: an entry left
//!   over is state a procedure leaked.
//!
//! ## Mutation testing
//!
//! A green checker is only as good as the bugs it would catch, so
//! [`Mutation`] seeds seven real protocol bugs at the checker's
//! transport layer (production code is untouched) and
//! [`mutation_catches`] asserts each one trips an invariant. The
//! matrix lands in `results/CHECK_protocol.json`.

use scale_core::failover::{HealthConfig, HealthTracker};
use scale_core::wire::{shard_of, MlbOut, MlbState, MmpNode, WireMsg, WireTopo};
use scale_core::VmId;
use scale_epc::{
    imsi_of, DriveMode, EmuEvent, EmulatorConfig, EnbEmulator, SlotView, ENB_BASE, MTMSI_BASE,
};
use scale_nas::{emm_cause, EmmMessage, Imsi};
use scale_s1ap::S1apPdu;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// One scheduling decision of the explorer: deliver the head of a
/// specific FIFO link, or inject a budgeted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the head of cell `cell`'s eNB→MLB link.
    EnbToMlb {
        /// Cell index.
        cell: usize,
    },
    /// Deliver the head of the MLB→worker link.
    MlbToWorker {
        /// Worker index.
        worker: usize,
    },
    /// Deliver the head of the worker→MLB link.
    WorkerToMlb {
        /// Worker index.
        worker: usize,
    },
    /// Deliver the head of the MLB→cell link.
    MlbToEnb {
        /// Cell index.
        cell: usize,
    },
    /// Crash worker `worker`: its process state vanishes and both its
    /// links are flushed (in-flight messages are lost). The MLB does
    /// not know yet.
    Crash {
        /// Worker index.
        worker: usize,
    },
    /// The MLB's failure detector fires for a crashed worker: the
    /// heartbeat miss crosses the [`HealthTracker`] threshold, the
    /// worker's VMs are marked down (epoch bump), in-flight procedures
    /// fail over and `VmDown` is broadcast.
    Detect {
        /// Worker index.
        worker: usize,
    },
    /// A crashed-and-detected worker restarts empty and reconnects;
    /// the MLB marks its VMs up and broadcasts `VmUp`.
    Restart {
        /// Worker index.
        worker: usize,
    },
    /// Adversarial transport: duplicate the head of the MLB→worker
    /// link (delivered twice).
    DupHead {
        /// Worker index.
        worker: usize,
    },
    /// Adversarial transport: silently drop the head of the
    /// MLB→worker link.
    DropHead {
        /// Worker index.
        worker: usize,
    },
}

/// A protocol bug seeded at the checker's transport layer for mutation
/// testing. Production code paths are untouched; each variant models a
/// bug class an implementor could realistically introduce, and each
/// must be caught by a named invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: the real protocol.
    None,
    /// The MLB discards `Replicate` forwards — Idle-edge replicas
    /// never reach their holder. Caught by **I3** (the first idle-mode
    /// access that routes to the missing replica bounces the device
    /// with a cause-#9 reject though nothing crashed) or by **I4**
    /// (replica contract) at quiescence.
    DropReplicate,
    /// The worker acknowledges the Idle edge without emitting the
    /// replica copy (ack-before-replicate reordering). Caught by
    /// **I3** / **I4** like [`Mutation::DropReplicate`].
    AckBeforeReplicate,
    /// The MLB routes an idle-mode Initial UE Message using a stale
    /// liveness view: the `Deliver` lands on a crashed worker even
    /// though detection already ran. Caught by **convergence** (the
    /// device's procedure is stuck forever).
    StaleEpochRoute,
    /// A restarted worker reconnects but the MLB never marks its VMs
    /// up (missed `on_mmp_reconnected`). Caught by **I5**
    /// (liveness-map coherence).
    MissedReconnectMarkUp,
    /// The eNodeB's dispatch swallows `Settled { active: false }` —
    /// the wildcard-arm bug the `exhaustive-protocol-match` lint
    /// exists to prevent. Caught by **convergence**.
    WildcardSwallow,
    /// The worker rewrites the §4.6 cause-#9 identity-unknown reject
    /// into a generic cause before it leaves the process: the UE no
    /// longer knows to discard its GUTI and re-attach. Caught by the
    /// **zero-error** invariant (the device surfaces a fatal reject).
    RejectWithoutCause,
    /// A TAU from Idle keeps the device's previous MME-UE-S1AP-ID
    /// instead of the one the serving VM minted for its connection
    /// (ROADMAP defect 1(b)): the worker's downlinks on the TAU's
    /// connection are rewritten to carry the old id, so the Release
    /// Complete is routed to whichever VM minted that id, which does
    /// not know it. Caught by **convergence** (the TAU never reaches
    /// its Idle edge).
    TauKeepsS1apId,
}

impl Mutation {
    /// Stable snake_case name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::DropReplicate => "drop_replicate",
            Mutation::AckBeforeReplicate => "ack_before_replicate",
            Mutation::StaleEpochRoute => "stale_epoch_route",
            Mutation::MissedReconnectMarkUp => "missed_reconnect_mark_up",
            Mutation::WildcardSwallow => "wildcard_swallow",
            Mutation::RejectWithoutCause => "reject_without_cause",
            Mutation::TauKeepsS1apId => "tau_keeps_s1ap_id",
        }
    }

    /// Every seeded bug, in report order.
    #[must_use]
    pub fn all() -> [Mutation; 7] {
        [
            Mutation::DropReplicate,
            Mutation::AckBeforeReplicate,
            Mutation::StaleEpochRoute,
            Mutation::MissedReconnectMarkUp,
            Mutation::WildcardSwallow,
            Mutation::RejectWithoutCause,
            Mutation::TauKeepsS1apId,
        ]
    }
}

/// One bounded exploration: a small-scope topology, a session script,
/// a fault budget and exploration bounds.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable, used in reports).
    pub name: &'static str,
    /// Deployment shape. Fault scenarios must keep one VM per worker
    /// so replica sets stay process-disjoint (the paper's deployment
    /// assumption; DESIGN.md §15 discusses the non-disjoint case).
    pub topo: WireTopo,
    /// Devices striped over the cells.
    pub n_ues: usize,
    /// Idle-mode ops per device after attach.
    pub ops_per_ue: usize,
    /// Crash/restart episodes allowed (at most one worker down at a
    /// time; each episode is crash → detect → optional restart).
    pub max_crashes: u32,
    /// Whether crashed workers may restart.
    pub allow_restart: bool,
    /// Adversarial transport: duplications + drops allowed on MLB→worker
    /// links. When nonzero the scenario asserts only robustness
    /// invariants (I1/I2/I6 and no panics) — lost messages legitimately
    /// strand sessions.
    pub dup_drop_budget: u32,
    /// Stop exploring after this many distinct states (the run is
    /// reported as truncated, never as a failure).
    pub max_states: u64,
    /// Bound on the choice-sequence depth.
    pub max_depth: usize,
    /// Seeded bug, [`Mutation::None`] for the real protocol.
    pub mutation: Mutation,
}

impl Scenario {
    /// A small-scope base scenario: 2 cells × 2 workers, one VM per
    /// worker, R = 2 (process-disjoint replicas).
    #[must_use]
    pub fn base(name: &'static str, n_ues: usize, ops_per_ue: usize) -> Scenario {
        Scenario {
            name,
            topo: WireTopo {
                n_enbs: 2,
                n_mmps: 2,
                total_vms: 2,
                replication: 2,
                ring_tokens: 4,
                seed: 42,
            },
            n_ues,
            ops_per_ue,
            max_crashes: 0,
            allow_restart: true,
            dup_drop_budget: 0,
            max_states: 200_000,
            max_depth: 400,
            mutation: Mutation::None,
        }
    }
}

/// Why an exploration stopped at a state.
#[derive(Debug, Clone)]
pub struct CheckViolation {
    /// Which invariant tripped (`I1`…`I7`, `convergence`, `errors`).
    pub invariant: &'static str,
    /// Human-readable description of the violating state.
    pub detail: String,
    /// The choice sequence reproducing the state from the root.
    pub trace: Vec<Choice>,
}

/// Outcome of one bounded exploration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: &'static str,
    /// Distinct states visited (fingerprint-deduplicated).
    pub states: u64,
    /// Deepest choice sequence reached.
    pub max_depth_reached: usize,
    /// Quiescent states on which terminal invariants were checked.
    pub quiescent_states: u64,
    /// Whether the state budget truncated the search.
    pub truncated: bool,
    /// First invariant violation, if any.
    pub violation: Option<CheckViolation>,
}

/// Per-worker process status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerStatus {
    Up,
    CrashedUndetected,
    CrashedDetected,
}

/// The composed deployment under exploration: real routing, worker and
/// access-side state machines joined by explicit FIFO links.
struct World<'s> {
    sc: &'s Scenario,
    mlb: MlbState,
    health: HealthTracker,
    workers: Vec<Option<MmpNode>>,
    status: Vec<WorkerStatus>,
    emus: Vec<EnbEmulator>,
    e2m: Vec<VecDeque<WireMsg>>,
    m2w: Vec<VecDeque<WireMsg>>,
    w2m: Vec<VecDeque<WireMsg>>,
    m2e: Vec<VecDeque<WireMsg>>,
    crashes_done: u32,
    dupdrops_done: u32,
    /// I2 ghost: last epoch observed per plane (index 0 = MLB, then
    /// one per worker). Reset on restart (a fresh plane restarts its
    /// epoch sequence).
    last_epoch: Vec<u64>,
    /// I3 ghost: slots observed to have completed an Idle edge.
    idled_ghost: Vec<Vec<bool>>,
}

impl<'s> World<'s> {
    fn new(sc: &'s Scenario) -> World<'s> {
        let topo = &sc.topo;
        let mlb = MlbState::new(topo);
        let workers: Vec<Option<MmpNode>> = (0..topo.n_mmps)
            .map(|i| Some(MmpNode::new(topo, i)))
            .collect();
        let mut emus: Vec<EnbEmulator> = (0..topo.n_enbs)
            .map(|cell| {
                EnbEmulator::new(&EmulatorConfig {
                    cell,
                    n_cells: topo.n_enbs,
                    n_local_ues: EmulatorConfig::local_share(sc.n_ues, topo.n_enbs, cell),
                    ops_per_ue: sc.ops_per_ue,
                    seed: topo.seed,
                    mode: DriveMode::Closed { window: sc.n_ues },
                })
            })
            .collect();
        let mut world = World {
            sc,
            mlb,
            health: HealthTracker::new(HealthConfig {
                miss_threshold: 1,
                error_threshold: u32::MAX,
            }),
            workers,
            status: vec![WorkerStatus::Up; topo.n_mmps],
            emus: Vec::new(),
            e2m: vec![VecDeque::new(); topo.n_enbs],
            m2w: vec![VecDeque::new(); topo.n_mmps],
            w2m: vec![VecDeque::new(); topo.n_mmps],
            m2e: vec![VecDeque::new(); topo.n_enbs],
            crashes_done: 0,
            dupdrops_done: 0,
            last_epoch: vec![0; 1 + topo.n_mmps],
            idled_ghost: Vec::new(),
        };
        for (cell, emu) in emus.iter_mut().enumerate() {
            world.e2m[cell].push_back(WireMsg::Uplink {
                enb_id: ENB_BASE + cell as u32,
                attach_hint: None,
                pdu: emu.s1_setup_request(),
            });
            emu.start();
        }
        world.idled_ghost = emus.iter().map(|e| vec![false; e.slot_views().len()]).collect();
        world.emus = emus;
        for cell in 0..world.emus.len() {
            world.drain_emu(cell);
        }
        world
    }

    /// Move an emulator's pending uplinks onto its e2m link.
    fn drain_emu(&mut self, cell: usize) {
        let enb_id = ENB_BASE + cell as u32;
        for ev in self.emus[cell].drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => {
                    self.e2m[cell].push_back(WireMsg::Uplink {
                        enb_id,
                        attach_hint,
                        pdu,
                    });
                }
                EmuEvent::Completed { .. } => {}
            }
        }
    }

    /// Route a batch of MLB outputs onto the m2w / m2e links, applying
    /// transport-layer mutations. Messages to a crashed worker are
    /// discarded (the send fails; in-flight loss is modeled at crash
    /// time by flushing the links).
    fn route_mlb_out(&mut self, out: Vec<MlbOut>) {
        for o in out {
            match o {
                MlbOut::Mmp { mut mmp, msg } => {
                    if self.sc.mutation == Mutation::DropReplicate
                        && matches!(msg, WireMsg::Replicate { .. })
                    {
                        continue;
                    }
                    if self.sc.mutation == Mutation::StaleEpochRoute {
                        if let WireMsg::Deliver {
                            guti_hint: None,
                            pdu: S1apPdu::InitialUeMessage { .. },
                            ..
                        } = &msg
                        {
                            // Route with a stale liveness view: land on
                            // a crashed worker detection already ruled
                            // out.
                            if let Some(dead) = self
                                .status
                                .iter()
                                .position(|&s| s == WorkerStatus::CrashedDetected)
                            {
                                mmp = dead;
                            }
                        }
                    }
                    if self.status[mmp] == WorkerStatus::Up {
                        self.m2w[mmp].push_back(msg);
                    }
                }
                MlbOut::Enb { enb, msg } => self.m2e[enb].push_back(msg),
            }
        }
    }

    /// Route a worker's outputs onto its w2m link, applying the
    /// worker-side mutations.
    fn route_worker_out(&mut self, worker: usize, out: Vec<WireMsg>) {
        for mut msg in out {
            if self.sc.mutation == Mutation::AckBeforeReplicate
                && matches!(msg, WireMsg::Replicate { .. })
            {
                continue;
            }
            if self.sc.mutation == Mutation::RejectWithoutCause {
                if let WireMsg::ToEnb { enb_id, pdu } = &msg {
                    if let Some(rewritten) = rewrite_cause9(pdu) {
                        msg = WireMsg::ToEnb {
                            enb_id: *enb_id,
                            pdu: rewritten,
                        };
                    }
                }
            }
            self.w2m[worker].push_back(msg);
        }
    }

    /// Under [`Mutation::TauKeepsS1apId`], for the `Deliver` of a TAU
    /// from Idle: the connection it opens and the MME-UE-S1AP-ID the
    /// device's copy on the serving VM carries before the TAU.
    fn id_a_tau_keeps(&self, worker: usize, msg: &WireMsg) -> Option<(u32, u32)> {
        if self.sc.mutation != Mutation::TauKeepsS1apId {
            return None;
        }
        let WireMsg::Deliver {
            vm,
            pdu:
                S1apPdu::InitialUeMessage {
                    enb_ue_id,
                    nas_pdu,
                    s_tmsi: Some((_, m_tmsi)),
                    ..
                },
            ..
        } = msg
        else {
            return None;
        };
        if !matches!(
            EmmMessage::decode(nas_pdu.clone()),
            Ok(EmmMessage::TauRequest { .. })
        ) {
            return None;
        }
        let node = self.workers[worker].as_ref()?;
        let (_, ctx) = node
            .contexts()
            .find(|(at, ctx)| at == vm && ctx.guti.m_tmsi == *m_tmsi)?;
        Some((*enb_ue_id, ctx.mme_ue_id))
    }

    /// Execute one choice. Choices are only ever applied when enabled
    /// (the explorer enumerates them via [`World::choices`]).
    fn step(&mut self, c: Choice) {
        let mut out = Vec::new();
        match c {
            Choice::EnbToMlb { cell } => {
                if let Some(WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                }) = self.e2m[cell].pop_front()
                {
                    self.mlb.on_enb(enb_id, attach_hint, pdu, &mut out);
                    self.route_mlb_out(out);
                }
            }
            Choice::WorkerToMlb { worker } => {
                if let Some(msg) = self.w2m[worker].pop_front() {
                    self.mlb.on_mmp(msg, &mut out);
                    self.route_mlb_out(out);
                }
            }
            Choice::MlbToWorker { worker } => {
                if let Some(msg) = self.m2w[worker].pop_front() {
                    let kept = self.id_a_tau_keeps(worker, &msg);
                    let mut wout = Vec::new();
                    if let Some(node) = self.workers[worker].as_mut() {
                        node.handle(msg, &mut wout);
                    }
                    if let Some((enb_ue_id, old)) = kept {
                        keep_s1ap_id(&mut wout, enb_ue_id, old);
                    }
                    self.route_worker_out(worker, wout);
                }
            }
            Choice::MlbToEnb { cell } => {
                if let Some(msg) = self.m2e[cell].pop_front() {
                    match msg {
                        WireMsg::ToEnb { pdu, .. } => self.emus[cell].handle_downlink(pdu),
                        WireMsg::Settled { m_tmsi, active } => {
                            if self.sc.mutation == Mutation::WildcardSwallow && !active {
                                // The seeded wildcard-arm bug: the Idle
                                // edge falls through a `_` arm.
                            } else {
                                self.emus[cell].settled(m_tmsi, active);
                            }
                        }
                        WireMsg::ProcFailed { m_tmsi } => self.emus[cell].proc_failed(m_tmsi),
                        WireMsg::Hello { .. }
                        | WireMsg::Uplink { .. }
                        | WireMsg::Deliver { .. }
                        | WireMsg::Replicate { .. }
                        | WireMsg::DropCtx { .. }
                        | WireMsg::VmDown { .. }
                        | WireMsg::VmUp { .. } => {}
                    }
                    self.drain_emu(cell);
                }
            }
            Choice::Crash { worker } => {
                self.workers[worker] = None;
                self.status[worker] = WorkerStatus::CrashedUndetected;
                self.m2w[worker].clear();
                self.w2m[worker].clear();
                self.crashes_done += 1;
            }
            Choice::Detect { worker } => {
                // The real detection chain: a missed heartbeat crosses
                // the tracker threshold, and only a *newly* down
                // verdict triggers fail-over (re-detection must not
                // re-fire).
                if self.health.miss_heartbeat(worker as u32) {
                    self.mlb.on_mmp_down(worker, &mut out);
                    self.route_mlb_out(out);
                }
                self.status[worker] = WorkerStatus::CrashedDetected;
            }
            Choice::Restart { worker } => {
                self.workers[worker] = Some(MmpNode::new(&self.sc.topo, worker));
                self.health.mark_up(worker as u32);
                self.status[worker] = WorkerStatus::Up;
                // A fresh plane restarts its epoch sequence; reset the
                // monotonicity ghost for this reader.
                self.last_epoch[1 + worker] = 0;
                if self.sc.mutation != Mutation::MissedReconnectMarkUp {
                    self.mlb.on_mmp_reconnected(worker, &mut out);
                    self.route_mlb_out(out);
                }
            }
            Choice::DupHead { worker } => {
                if let Some(head) = self.m2w[worker].front().cloned() {
                    self.m2w[worker].push_front(head);
                    self.dupdrops_done += 1;
                }
            }
            Choice::DropHead { worker } => {
                self.m2w[worker].pop_front();
                self.dupdrops_done += 1;
            }
        }
    }

    /// Enabled choices, in a deterministic order.
    fn choices(&self) -> Vec<Choice> {
        let mut cs = Vec::new();
        for cell in 0..self.e2m.len() {
            if !self.e2m[cell].is_empty() {
                cs.push(Choice::EnbToMlb { cell });
            }
        }
        for worker in 0..self.m2w.len() {
            if !self.m2w[worker].is_empty() && self.status[worker] == WorkerStatus::Up {
                cs.push(Choice::MlbToWorker { worker });
            }
            if !self.w2m[worker].is_empty() {
                cs.push(Choice::WorkerToMlb { worker });
            }
        }
        for cell in 0..self.m2e.len() {
            if !self.m2e[cell].is_empty() {
                cs.push(Choice::MlbToEnb { cell });
            }
        }
        let any_crashed = self.status.iter().any(|&s| s != WorkerStatus::Up);
        for worker in 0..self.status.len() {
            match self.status[worker] {
                WorkerStatus::Up => {
                    if self.crashes_done < self.sc.max_crashes && !any_crashed {
                        cs.push(Choice::Crash { worker });
                    }
                }
                WorkerStatus::CrashedUndetected => cs.push(Choice::Detect { worker }),
                WorkerStatus::CrashedDetected => {
                    if self.sc.allow_restart {
                        cs.push(Choice::Restart { worker });
                    }
                }
            }
        }
        if self.dupdrops_done < self.sc.dup_drop_budget {
            for worker in 0..self.m2w.len() {
                if !self.m2w[worker].is_empty() && self.status[worker] == WorkerStatus::Up {
                    cs.push(Choice::DupHead { worker });
                    cs.push(Choice::DropHead { worker });
                }
            }
        }
        cs
    }

    /// All message queues drained and every crash detected: the state
    /// is quiescent and the terminal invariants must hold.
    fn quiescent(&self) -> bool {
        self.e2m.iter().all(VecDeque::is_empty)
            && self.m2w.iter().all(VecDeque::is_empty)
            && self.w2m.iter().all(VecDeque::is_empty)
            && self.m2e.iter().all(VecDeque::is_empty)
            && self
                .status
                .iter()
                .all(|&s| s != WorkerStatus::CrashedUndetected)
    }

    /// Deterministic state fingerprint. Queue *contents* are hashed via
    /// the canonical wire encoding; fault budgets are included because
    /// they gate which choices remain.
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.mlb.fingerprint(&mut h);
        for (worker, node) in self.workers.iter().enumerate() {
            worker.hash(&mut h);
            match self.status[worker] {
                WorkerStatus::Up => 0u8,
                WorkerStatus::CrashedUndetected => 1,
                WorkerStatus::CrashedDetected => 2,
            }
            .hash(&mut h);
            if let Some(n) = node {
                n.fingerprint(&mut h);
            }
        }
        for emu in &self.emus {
            emu.fingerprint(&mut h);
        }
        for family in [&self.e2m, &self.m2w, &self.w2m, &self.m2e] {
            for q in family.iter() {
                q.len().hash(&mut h);
                for msg in q {
                    msg.encode().as_ref().hash(&mut h);
                }
            }
        }
        (self.crashes_done, self.dupdrops_done).hash(&mut h);
        h.finish()
    }

    /// Invariants checked at every distinct state. Returns the first
    /// violation found.
    fn check_state(&mut self) -> Option<(&'static str, String)> {
        let adversarial = self.sc.dup_drop_budget > 0;
        // I1: identity consistency of every resident context.
        for (worker, node) in self.workers.iter().enumerate() {
            let Some(node) = node else { continue };
            for (vm, ctx) in node.contexts() {
                let m = ctx.guti.m_tmsi;
                let Some(u) = m.checked_sub(MTMSI_BASE) else {
                    return Some((
                        "I1",
                        format!("worker {worker} vm {vm}: context with out-of-population M-TMSI {m:#x}"),
                    ));
                };
                let expect = imsi_of(u as usize);
                if Imsi::from_ascii(expect.as_bytes()) != Some(ctx.imsi) {
                    return Some((
                        "I1",
                        format!(
                            "worker {worker} vm {vm}: M-TMSI {m:#x} holds IMSI {} (expected {expect})",
                            ctx.imsi
                        ),
                    ));
                }
            }
        }
        // I2: epoch monotonicity per plane reader.
        let mlb_epoch = self.mlb.plane().snapshot().epoch;
        if mlb_epoch < self.last_epoch[0] {
            return Some((
                "I2",
                format!("MLB plane epoch moved backwards: {} → {mlb_epoch}", self.last_epoch[0]),
            ));
        }
        self.last_epoch[0] = mlb_epoch;
        for (worker, node) in self.workers.iter().enumerate() {
            let Some(node) = node else { continue };
            let e = node.plane().snapshot().epoch;
            if e < self.last_epoch[1 + worker] {
                return Some((
                    "I2",
                    format!(
                        "worker {worker} plane epoch moved backwards: {} → {e}",
                        self.last_epoch[1 + worker]
                    ),
                ));
            }
            self.last_epoch[1 + worker] = e;
        }
        // I6: every S11/S6a transaction a worker opened while handling
        // a message was retired before that `handle` returned.
        for (worker, node) in self.workers.iter().enumerate() {
            let Some(node) = node else { continue };
            let open = node.open_transactions();
            if open > 0 {
                return Some((
                    "I6",
                    format!("worker {worker}: {open} S11/S6a transaction(s) open between messages"),
                ));
            }
        }
        if adversarial {
            return None;
        }
        // I3: session-safety ghost — an acknowledged, Idle-edged device
        // only loses its GUTI through the cause-#9 path, which requires
        // a crash.
        for (cell, emu) in self.emus.iter().enumerate() {
            for (slot, view) in emu.slot_views().into_iter().enumerate() {
                if view.has_idled {
                    self.idled_ghost[cell][slot] = true;
                }
                if self.idled_ghost[cell][slot] && !view.has_guti && self.crashes_done == 0 {
                    return Some((
                        "I3",
                        format!("cell {cell} slot {slot}: attach-acked device lost its GUTI with no crash"),
                    ));
                }
            }
        }
        // Zero unexplained errors anywhere.
        for (cell, emu) in self.emus.iter().enumerate() {
            if emu.counts.errors > 0 {
                return Some((
                    "errors",
                    format!(
                        "cell {cell}: {} emulator error(s): {:?}",
                        emu.counts.errors,
                        emu.error_samples()
                    ),
                ));
            }
            if emu.counts.rejects > 0 && self.crashes_done == 0 {
                return Some((
                    "errors",
                    format!("cell {cell}: NAS reject with no crash in the schedule"),
                ));
            }
        }
        for (worker, node) in self.workers.iter().enumerate() {
            let Some(node) = node else { continue };
            if node.errors > 0 {
                return Some((
                    "errors",
                    format!(
                        "worker {worker}: {} error(s): {:?}",
                        node.errors,
                        node.error_samples()
                    ),
                ));
            }
        }
        if self.mlb.stats.errors > 0 {
            return Some(("errors", format!("MLB routing errors: {}", self.mlb.stats.errors)));
        }
        None
    }

    /// Invariants checked at quiescent states only.
    fn check_quiescent(&self) -> Option<(&'static str, String)> {
        if self.sc.dup_drop_budget > 0 {
            // Adversarial transport loses messages by design; sessions
            // may legitimately strand. Only robustness invariants
            // (checked per-state) apply.
            return None;
        }
        // Convergence: every fault schedule quiesces with zero stuck
        // devices.
        for (cell, emu) in self.emus.iter().enumerate() {
            if !emu.done() {
                let stuck: Vec<(usize, SlotView)> = emu
                    .slot_views()
                    .into_iter()
                    .enumerate()
                    .filter(|(_, v)| v.phase != 5)
                    .collect();
                return Some((
                    "convergence",
                    format!("cell {cell} quiesced with stuck sessions: {stuck:?}"),
                ));
            }
        }
        // I7: the MLB keeps nothing per device once every procedure has
        // settled.
        let inflight = self.mlb.inflight_len();
        if inflight > 0 {
            return Some((
                "I7",
                format!("MLB holds {inflight} in-flight entr(ies) with every procedure settled"),
            ));
        }
        // I4: replica contract for every Idle-edged device.
        let r = self.sc.topo.replication;
        for (cell, emu) in self.emus.iter().enumerate() {
            for (slot, view) in emu.slot_views().into_iter().enumerate() {
                if !view.has_idled {
                    continue;
                }
                let global = slot * self.sc.topo.n_enbs + cell;
                let m_tmsi = MTMSI_BASE + global as u32;
                let holders: usize = self
                    .workers
                    .iter()
                    .flatten()
                    .map(|node| node.holding_vms(m_tmsi).len())
                    .sum();
                if self.crashes_done == 0 && holders != r {
                    return Some((
                        "I4",
                        format!(
                            "cell {cell} slot {slot} (M-TMSI {m_tmsi:#x}): {holders} holder(s) at quiescence, expected R = {r}"
                        ),
                    ));
                }
                // No background re-replication in the wire deployment:
                // the durability contract is "survives fewer than R
                // process failures". At crashes_done >= R both holders
                // may legitimately be gone (the device converges via
                // the cause-#9 re-attach instead).
                if holders == 0 && self.crashes_done < r as u32 {
                    return Some((
                        "I4",
                        format!(
                            "cell {cell} slot {slot} (M-TMSI {m_tmsi:#x}): context lost — zero holders at quiescence after {} crash(es), R = {r}",
                            self.crashes_done
                        ),
                    ));
                }
            }
        }
        // I5: liveness-map coherence — every plane's down-bit agrees
        // with the actual process status.
        let mlb_snap = self.mlb.plane().snapshot();
        for vm in 1..=self.sc.topo.total_vms as VmId {
            let host = shard_of(vm, self.sc.topo.n_mmps);
            let host_down = self.status[host] != WorkerStatus::Up;
            if mlb_snap.is_down(vm) != host_down {
                return Some((
                    "I5",
                    format!(
                        "MLB plane marks vm {vm} down={} but its worker {host} is down={host_down}",
                        mlb_snap.is_down(vm)
                    ),
                ));
            }
            for (worker, node) in self.workers.iter().enumerate() {
                let Some(node) = node else { continue };
                if node.plane().snapshot().is_down(vm) != host_down {
                    return Some((
                        "I5",
                        format!(
                            "worker {worker} plane marks vm {vm} down={} but its worker {host} is down={host_down}",
                            node.plane().snapshot().is_down(vm)
                        ),
                    ));
                }
            }
        }
        None
    }
}

/// Rewrite a plain cause-#9 Service/TAU reject inside a downlink NAS
/// transport into a generic network-failure cause (the seeded
/// [`Mutation::RejectWithoutCause`] bug). Returns `None` when the PDU
/// is not such a reject.
fn rewrite_cause9(pdu: &S1apPdu) -> Option<S1apPdu> {
    let S1apPdu::DownlinkNasTransport {
        mme_ue_id,
        enb_ue_id,
        nas_pdu,
    } = pdu
    else {
        return None;
    };
    let rewritten = match EmmMessage::decode(nas_pdu.clone()) {
        Ok(EmmMessage::ServiceReject { cause }) if cause == emm_cause::UE_IDENTITY_UNKNOWN => {
            EmmMessage::ServiceReject {
                cause: emm_cause::NETWORK_FAILURE,
            }
        }
        Ok(EmmMessage::TauReject { cause }) if cause == emm_cause::UE_IDENTITY_UNKNOWN => {
            EmmMessage::TauReject {
                cause: emm_cause::NETWORK_FAILURE,
            }
        }
        Ok(_) | Err(_) => return None,
    };
    Some(S1apPdu::DownlinkNasTransport {
        mme_ue_id: *mme_ue_id,
        enb_ue_id: *enb_ue_id,
        nas_pdu: rewritten.encode(),
    })
}

/// Rewrite the MME-UE-S1AP-ID of every downlink on connection
/// `enb_ue_id` in `out` to `old` (the seeded
/// [`Mutation::TauKeepsS1apId`] bug).
fn keep_s1ap_id(out: &mut [WireMsg], enb_ue_id: u32, old: u32) {
    for msg in out {
        if let WireMsg::ToEnb {
            pdu:
                S1apPdu::DownlinkNasTransport {
                    mme_ue_id,
                    enb_ue_id: conn,
                    ..
                }
                | S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id: conn,
                    ..
                },
            ..
        } = msg
        {
            if *conn == enb_ue_id {
                *mme_ue_id = old;
            }
        }
    }
}

/// Explore every reachable interleaving of `sc` within its bounds.
#[must_use]
pub fn explore_protocol(sc: &Scenario) -> RunReport {
    let mut report = RunReport {
        name: sc.name,
        states: 0,
        max_depth_reached: 0,
        quiescent_states: 0,
        truncated: false,
        violation: None,
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut path: Vec<Choice> = Vec::new();
    dfs(sc, &mut path, &mut visited, &mut report);
    report
}

/// Replay `path` from a fresh root and recurse over the enabled
/// choices. Prefix states were validated when first visited, so
/// invariants are only checked on the new frontier state.
fn dfs(
    sc: &Scenario,
    path: &mut Vec<Choice>,
    visited: &mut HashSet<u64>,
    report: &mut RunReport,
) {
    if report.violation.is_some() || report.truncated {
        return;
    }
    let mut world = World::new(sc);
    for &c in path.iter() {
        world.step(c);
    }
    let fp = world.fingerprint();
    if !visited.insert(fp) {
        return;
    }
    report.states += 1;
    report.max_depth_reached = report.max_depth_reached.max(path.len());
    if let Some((invariant, detail)) = world.check_state() {
        report.violation = Some(CheckViolation {
            invariant,
            detail,
            trace: path.clone(),
        });
        return;
    }
    if world.quiescent() {
        report.quiescent_states += 1;
        if let Some((invariant, detail)) = world.check_quiescent() {
            report.violation = Some(CheckViolation {
                invariant,
                detail,
                trace: path.clone(),
            });
            return;
        }
    }
    if visited.len() as u64 >= sc.max_states {
        report.truncated = true;
        return;
    }
    if path.len() >= sc.max_depth {
        return;
    }
    for c in world.choices() {
        path.push(c);
        dfs(sc, path, visited, report);
        path.pop();
        if report.violation.is_some() || report.truncated {
            return;
        }
    }
}

/// Replay a recorded choice trace from the root, checking invariants
/// after every step, and return the first violation. This is how a
/// violation trace from a [`RunReport`] is reproduced for debugging —
/// and how the tests pin that reported traces actually replay.
#[must_use]
pub fn replay_trace(sc: &Scenario, trace: &[Choice]) -> Option<(&'static str, String)> {
    let mut world = World::new(sc);
    for &c in trace {
        world.step(c);
        if let Some(v) = world.check_state() {
            return Some(v);
        }
    }
    if world.quiescent() {
        if let Some(v) = world.check_quiescent() {
            return Some(v);
        }
    }
    None
}

/// The clean-protocol scenario suite. `budget` caps the distinct-state
/// count per scenario: the full run uses a budget large enough to
/// clear 10⁵ summed states; tests and the CI smoke run use smaller
/// ones (every budget yields the same prefix of the same search, so
/// state counts stay deterministic).
#[must_use]
pub fn suite(budget: u64) -> Vec<Scenario> {
    let mut scenarios = Vec::new();

    let mut s = Scenario::base("fault_free_2ue", 2, 1);
    s.max_states = budget;
    scenarios.push(s);

    let mut s = Scenario::base("fault_free_3ue", 3, 1);
    s.max_states = budget;
    scenarios.push(s);

    let mut s = Scenario::base("crash_restart_1ue", 1, 2);
    s.max_crashes = 1;
    s.max_states = budget;
    scenarios.push(s);

    let mut s = Scenario::base("crash_restart_2ue", 2, 1);
    s.max_crashes = 1;
    s.max_states = budget;
    scenarios.push(s);

    let mut s = Scenario::base("double_crash_1ue", 1, 2);
    s.max_crashes = 2;
    s.max_states = budget;
    scenarios.push(s);

    let mut s = Scenario::base("adversarial_transport", 1, 1);
    s.dup_drop_budget = 2;
    s.max_states = budget;
    scenarios.push(s);

    scenarios
}

/// The scenario used to demonstrate that a given seeded bug is caught.
/// Replica-path bugs use a fault-free run (the contract is exact
/// there); routing/liveness bugs need a crash episode to arm them.
#[must_use]
pub fn mutation_scenario(m: Mutation, budget: u64) -> Scenario {
    let mut s = match m {
        Mutation::None | Mutation::DropReplicate | Mutation::AckBeforeReplicate
        | Mutation::WildcardSwallow => Scenario::base("mutation_fault_free", 1, 1),
        Mutation::StaleEpochRoute
        | Mutation::MissedReconnectMarkUp
        | Mutation::RejectWithoutCause
        | Mutation::TauKeepsS1apId => {
            let mut s = Scenario::base("mutation_crash_restart", 1, 2);
            s.max_crashes = 1;
            s
        }
    };
    s.mutation = m;
    s.max_states = budget;
    s
}

/// Run the mutation matrix: each seeded bug must produce a violation
/// within `budget` states. Returns `(mutation, caught-by)` pairs,
/// where `caught-by` is `None` if the bug escaped (a checker failure).
#[must_use]
pub fn mutation_catches(budget: u64) -> Vec<(Mutation, Option<&'static str>)> {
    Mutation::all()
        .into_iter()
        .map(|m| {
            let report = explore_protocol(&mutation_scenario(m, budget));
            (m, report.violation.map(|v| v.invariant))
        })
        .collect()
}
