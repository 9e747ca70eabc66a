//! Exhaustive protocol model checker over the sans-IO wire / failover /
//! worker state machines (DESIGN.md §15).
//!
//! The multi-process deployment is three process kinds exchanging
//! encoded [`WireMsg`]s over per-link FIFO channels. The checker runs
//! them on `scale-core`'s [`Pump`], the in-process shuttle's pump too:
//!
//! ```text
//!   EnbEmulator ──EnbToMlb──▶ MlbState::relay ──MlbToMmp──▶ MmpNode
//!        ▲                       │   ▲                       │
//!        └───────MlbToEnb────────┘   └────────MmpToMlb───────┘
//! ```
//!
//! Every message into the MLB goes through `MlbState::relay` on its
//! bytes and leaves through `Forward::write`, as on the socket MLB;
//! workers and cells decode what they receive. The shuttle delivers
//! one interleaving of those links (FIFO); the socket deployment
//! drives whichever interleaving the scheduler happens to produce. This
//! module instead drives the *real* state machines —
//! [`MlbState`](scale_core::wire::MlbState), [`MmpNode`],
//! [`EnbEmulator`], the `HealthTracker` failure-detection chain —
//! through **every** reachable interleaving of a small-scope
//! deployment: all message delivery orders across the four link
//! families, plus bounded crash / detect / restart fault schedules and
//! (separately) bounded message duplication and loss. What the checker
//! keeps itself is the enumeration of choices, the budgets, the ghost
//! state, the invariants and the seeded bugs, which tamper with
//! messages at the pump's transport hooks ([`Tamper`]).
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
//! doc comment) and the bytes queued on every link. `DefaultHasher` is
//! zero-keyed SipHash, so fingerprints — and therefore the
//! distinct-state count — are identical run to run, which is what lets
//! CI assert the smoke run twice and compare.
//!
//! ## Invariants
//!
//! DESIGN.md §15.2 gives the reasoning behind each. Checked at every
//! distinct state:
//!
//! * **I1 identity consistency** — every resident `UeContext` holds the
//!   IMSI the identity scheme assigns its GUTI's M-TMSI.
//! * **I2 epoch monotonicity** — no plane reader observes the routing
//!   epoch move backwards along an execution path.
//! * **I3 session safety** — an attach-acknowledged device that has
//!   completed an Idle edge loses its GUTI only after a crash (the §4.6
//!   cause-#9 re-attach).
//! * **I6 no transaction outlives its message** — between any two
//!   messages no engine holds an open S11 or S6a transaction (checked
//!   in the adversarial-transport scenario too).
//! * **zero unexplained errors** — outside the adversarial-transport
//!   scenario, no emulator, worker or router error counter moves, no
//!   message is refused on the wire, and without a crash no worker
//!   answers an uplink with an Error Indication. Whether an error was
//!   counted is part of the fingerprint, so a path that counts one is
//!   never merged into one that does not.
//!
//! Checked at every *quiescent* state (all queues empty, every crash
//! detected):
//!
//! * **convergence** — every session completed, on any fault schedule.
//! * **I4 replica contract** — every Idle-edged device's context is
//!   held by exactly R live engines in fault-free runs, and by at least
//!   one while fewer than R crashes have occurred (the wire deployment
//!   has no background re-replication, so R crashes may exhaust every
//!   holder; the device must still converge by re-attaching).
//! * **I5 liveness-map coherence** — a VM is marked down in a routing
//!   plane iff its hosting worker is crashed.
//! * **I7 no per-device state at the MLB** — its in-flight table is
//!   empty once every procedure has settled.
//!
//! ## Mutation testing
//!
//! A green checker is only as good as the bugs it would catch, so
//! [`Mutation`] seeds eight real protocol bugs at the checker's
//! transport layer (production code is untouched) and
//! [`mutation_catches`] asserts each one trips an invariant. The
//! matrix lands in `results/CHECK_protocol.json`.

use bytes::Bytes;
use scale_core::wire::{
    shard_of, to_cell, Link, MmpNode, Pump, Tamper, WireMsg, WireTopo, WireView, WorkerStatus,
};
use scale_core::{RoutePlane, VmId};
use scale_epc::{imsi_of, DriveMode, EmulatorConfig, EnbEmulator, SlotView, MTMSI_BASE};
use scale_nas::{emm_cause, EmmMessage, Imsi};
use scale_s1ap::S1apPdu;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One scheduling decision of the explorer: deliver the head of a
/// link, or inject a budgeted fault into a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Deliver the head of this link ([`Pump::deliver`]).
    Deliver(Link),
    /// The worker crashes ([`Pump::crash`]).
    Crash(usize),
    /// The MLB's failure detector fires for it ([`Pump::detect`]).
    Detect(usize),
    /// It restarts empty and reconnects ([`Pump::restart`]).
    Restart(usize),
    /// Adversarial transport: the head of the MLB→worker link is
    /// delivered twice.
    DupHead(usize),
    /// Adversarial transport: the head of the MLB→worker link is lost.
    DropHead(usize),
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
    /// The transport cuts the last byte off the first uplink a cell
    /// sends. The MLB's relay refuses the message, as the socket MLB
    /// refuses a peer's broken one. Caught by the **zero-error**
    /// invariant through the byte path (`Pump::wire_errors`).
    TruncatedUplink,
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
            Mutation::TruncatedUplink => "truncated_uplink",
        }
    }

    /// Every seeded bug, in report order.
    #[must_use]
    pub fn all() -> [Mutation; 8] {
        [
            Mutation::DropReplicate,
            Mutation::AckBeforeReplicate,
            Mutation::StaleEpochRoute,
            Mutation::MissedReconnectMarkUp,
            Mutation::WildcardSwallow,
            Mutation::RejectWithoutCause,
            Mutation::TauKeepsS1apId,
            Mutation::TruncatedUplink,
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
#[derive(Debug, Clone, Default)]
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

/// The checker's transport: faithful, except where the scenario's
/// seeded bug tampers with a message on its way.
struct Mutator {
    mutation: Mutation,
    /// [`Mutation::TruncatedUplink`] has cut its uplink.
    cut: bool,
}

impl Tamper for Mutator {
    fn at_mlb(&mut self, link: &mut Link, msg: &mut Bytes, workers: &[WorkerStatus]) -> bool {
        match (self.mutation, *link) {
            (Mutation::TruncatedUplink, Link::EnbToMlb(_)) if !self.cut => {
                *msg = msg.slice(..msg.len() - 1);
                self.cut = true;
            }
            (Mutation::DropReplicate, Link::MlbToMmp(_)) => {
                return !matches!(WireView::parse(msg), Ok(WireView::Replicate { .. }));
            }
            // Route with a stale liveness view: an idle-mode Initial UE
            // Message lands on a crashed worker detection already ruled
            // out.
            (Mutation::StaleEpochRoute, Link::MlbToMmp(_)) => {
                let idle_initial = matches!(
                    WireMsg::decode(msg.clone()),
                    Ok(WireMsg::Deliver {
                        guti_hint: None,
                        pdu: S1apPdu::InitialUeMessage { .. },
                        ..
                    })
                );
                let dead = workers
                    .iter()
                    .position(|&s| s == WorkerStatus::CrashedDetected);
                if let (true, Some(dead)) = (idle_initial, dead) {
                    *link = Link::MlbToMmp(dead);
                }
            }
            _ => {}
        }
        true
    }

    fn at_worker(&mut self, node: &mut MmpNode, msg: WireMsg, out: &mut Vec<WireMsg>) {
        let kept = id_a_tau_keeps(self.mutation, node, &msg);
        node.handle(msg, out);
        if let Some((enb_ue_id, old)) = kept {
            keep_s1ap_id(out, enb_ue_id, old);
        }
        match self.mutation {
            Mutation::AckBeforeReplicate => {
                out.retain(|msg| !matches!(msg, WireMsg::Replicate { .. }));
            }
            Mutation::RejectWithoutCause => {
                for msg in out.iter_mut() {
                    if let WireMsg::ToEnb { pdu, .. } = msg {
                        rewrite_cause9(pdu);
                    }
                }
            }
            _ => {}
        }
    }

    fn at_cell(&mut self, emu: &mut EnbEmulator, msg: WireMsg) {
        // The seeded wildcard-arm bug: the Idle edge falls through a
        // `_` arm.
        let swallowed = self.mutation == Mutation::WildcardSwallow
            && matches!(msg, WireMsg::Settled { active: false, .. });
        if !swallowed {
            to_cell(emu, msg);
        }
    }

    fn reconnects(&mut self) -> bool {
        self.mutation != Mutation::MissedReconnectMarkUp
    }
}

/// The composed deployment under exploration: the [`Pump`] over the
/// real machines, the checker's transport, the fault budgets spent so
/// far and the ghost state the invariants keep.
struct World<'s> {
    sc: &'s Scenario,
    pump: Pump,
    transport: Mutator,
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
        let cells = (0..topo.n_enbs)
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
        let pump = Pump::new(topo, cells);
        World {
            sc,
            idled_ghost: pump
                .cells
                .iter()
                .map(|e| vec![false; e.slot_views().len()])
                .collect(),
            pump,
            transport: Mutator {
                mutation: sc.mutation,
                cut: false,
            },
            crashes_done: 0,
            dupdrops_done: 0,
            last_epoch: vec![0; 1 + topo.n_mmps],
        }
    }

    /// Execute one choice. Choices are only ever applied when enabled
    /// (the explorer enumerates them via [`World::choices`]).
    fn step(&mut self, c: Choice) {
        match c {
            Choice::Deliver(link) => self.pump.deliver(link, &mut self.transport),
            Choice::Crash(worker) => {
                self.pump.crash(worker);
                self.crashes_done += 1;
            }
            Choice::Detect(worker) => self.pump.detect(worker, &mut self.transport),
            Choice::Restart(worker) => {
                self.pump.restart(worker, &mut self.transport);
                // A fresh plane restarts its epoch sequence; reset the
                // monotonicity ghost for this reader.
                self.last_epoch[1 + worker] = 0;
            }
            Choice::DupHead(worker) => {
                self.pump.duplicate_head(Link::MlbToMmp(worker));
                self.dupdrops_done += 1;
            }
            Choice::DropHead(worker) => {
                self.pump.drop_head(Link::MlbToMmp(worker));
                self.dupdrops_done += 1;
            }
        }
    }

    /// Enabled choices, in a deterministic order: every ready link,
    /// then the faults the budgets still allow.
    fn choices(&self) -> Vec<Choice> {
        let mut cs: Vec<Choice> = self.pump.ready().map(Choice::Deliver).collect();
        let status = self.pump.status();
        let any_crashed = status.iter().any(|&s| s != WorkerStatus::Up);
        for (worker, &s) in status.iter().enumerate() {
            match s {
                WorkerStatus::Up => {
                    if self.crashes_done < self.sc.max_crashes && !any_crashed {
                        cs.push(Choice::Crash(worker));
                    }
                }
                WorkerStatus::CrashedUndetected => cs.push(Choice::Detect(worker)),
                WorkerStatus::CrashedDetected => cs.push(Choice::Restart(worker)),
            }
        }
        if self.dupdrops_done < self.sc.dup_drop_budget {
            for link in self.pump.ready() {
                if let Link::MlbToMmp(worker) = link {
                    cs.push(Choice::DupHead(worker));
                    cs.push(Choice::DropHead(worker));
                }
            }
        }
        cs
    }

    /// Deterministic state fingerprint: the pump's, the fault budgets
    /// spent, which gate which choices remain, and whether an error was
    /// counted — so that a state with one is never merged into one
    /// without and left unchecked.
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.pump.fingerprint(&mut h);
        (self.crashes_done, self.dupdrops_done).hash(&mut h);
        if self.first_error().is_some() {
            true.hash(&mut h);
        }
        h.finish()
    }

    /// Invariants checked at every distinct state. Returns the first
    /// violation found.
    fn check_state(&mut self) -> Option<(&'static str, String)> {
        let adversarial = self.sc.dup_drop_budget > 0;
        // I1: identity consistency of every resident context.
        for (worker, node) in self.pump.live_workers() {
            for (vm, ctx) in node.contexts() {
                let m = ctx.guti.m_tmsi;
                let Some(u) = m.checked_sub(MTMSI_BASE) else {
                    return Some((
                        "I1",
                        format!(
                            "worker {worker} vm {vm}: context with out-of-population M-TMSI {m:#x}"
                        ),
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
        for (at, name, plane) in self.planes() {
            let e = plane.snapshot().epoch;
            if e < self.last_epoch[at] {
                let last = self.last_epoch[at];
                return Some((
                    "I2",
                    format!("{name} plane epoch moved backwards: {last} → {e}"),
                ));
            }
            self.last_epoch[at] = e;
        }
        // I6: every S11/S6a transaction a worker opened while handling
        // a message was retired before that `handle` returned.
        for (worker, node) in self.pump.live_workers() {
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
        for (cell, emu) in self.pump.cells.iter().enumerate() {
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
        if let Some(error) = self.first_error() {
            return Some(("errors", error));
        }
        for (cell, emu) in self.pump.cells.iter().enumerate() {
            if emu.counts.rejects > 0 && self.crashes_done == 0 {
                return Some((
                    "errors",
                    format!("cell {cell}: NAS reject with no crash in the schedule"),
                ));
            }
        }
        // Only an uplink a crash left behind names a connection no
        // engine knows.
        let workers = self.pump.live_workers();
        let indications: u64 = workers.map(|(_, node)| node.error_indications()).sum();
        if indications > 0 && self.crashes_done == 0 {
            let what = "Error Indication(s) for an unknown S1AP id pair with no crash";
            return Some(("errors", format!("{indications} {what} in the schedule")));
        }
        None
    }

    /// The first error counter that moved, described: a cell's, a
    /// running worker's, the MLB's, or a message refused on the wire.
    fn first_error(&self) -> Option<String> {
        let cells = self.pump.cells.iter().enumerate();
        let cells = cells.filter(|(_, emu)| emu.counts.errors > 0);
        let cells = cells.map(|(cell, emu)| {
            let (n, samples) = (emu.counts.errors, emu.error_samples());
            format!("cell {cell}: {n} emulator error(s): {samples:?}")
        });
        let workers = self.pump.live_workers().filter(|(_, node)| node.errors > 0);
        let workers = workers.map(|(worker, node)| {
            let (n, samples) = (node.errors, node.error_samples());
            format!("worker {worker}: {n} error(s): {samples:?}")
        });
        let mlb = self.pump.mlb.stats.errors;
        let mlb = (mlb > 0).then(|| format!("MLB routing errors: {mlb}"));
        let wire = &self.pump.wire_errors;
        let wire = (!wire.is_empty()).then(|| format!("refused on the wire: {wire:?}"));
        cells.chain(workers).chain(mlb).chain(wire).next()
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
        for (cell, emu) in self.pump.cells.iter().enumerate() {
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
        let inflight = self.pump.mlb.inflight_len();
        if inflight > 0 {
            return Some((
                "I7",
                format!("MLB holds {inflight} in-flight entr(ies) with every procedure settled"),
            ));
        }
        // I4: replica contract for every Idle-edged device.
        let r = self.sc.topo.replication;
        for (cell, emu) in self.pump.cells.iter().enumerate() {
            for (slot, view) in emu.slot_views().into_iter().enumerate() {
                if !view.has_idled {
                    continue;
                }
                let global = slot * self.sc.topo.n_enbs + cell;
                let m_tmsi = MTMSI_BASE + global as u32;
                let workers = self.pump.live_workers();
                let holders: usize = workers.map(|(_, n)| n.holding_vms(m_tmsi).len()).sum();
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
        for vm in 1..=self.sc.topo.total_vms as VmId {
            let host = shard_of(vm, self.sc.topo.n_mmps);
            let host_down = self.pump.status()[host] != WorkerStatus::Up;
            for (_, name, plane) in self.planes() {
                let down = plane.snapshot().is_down(vm);
                if down != host_down {
                    return Some((
                        "I5",
                        format!(
                            "{name} plane marks vm {vm} down={down} but its worker {host} is down={host_down}"
                        ),
                    ));
                }
            }
        }
        None
    }

    /// Every live routing plane, with its index in `last_epoch` and its
    /// reader's name: the MLB's (0), then each running worker's (1 +
    /// worker).
    fn planes(&self) -> Vec<(usize, String, Arc<RoutePlane>)> {
        let workers = self.pump.live_workers();
        let workers = workers.map(|(w, n)| (1 + w, format!("worker {w}"), Arc::clone(n.plane())));
        std::iter::once((0, "MLB".to_string(), Arc::clone(self.pump.mlb.plane())))
            .chain(workers)
            .collect()
    }
}

/// Rewrite a plain cause-#9 Service/TAU reject inside a downlink NAS
/// transport into a generic network-failure cause (the seeded
/// [`Mutation::RejectWithoutCause`] bug); any other PDU is left as is.
fn rewrite_cause9(pdu: &mut S1apPdu) {
    let S1apPdu::DownlinkNasTransport { nas_pdu, .. } = pdu else {
        return;
    };
    let cause = emm_cause::NETWORK_FAILURE;
    let rewritten = match EmmMessage::decode(nas_pdu.clone()) {
        Ok(EmmMessage::ServiceReject {
            cause: emm_cause::UE_IDENTITY_UNKNOWN,
        }) => EmmMessage::ServiceReject { cause },
        Ok(EmmMessage::TauReject {
            cause: emm_cause::UE_IDENTITY_UNKNOWN,
        }) => EmmMessage::TauReject { cause },
        Ok(_) | Err(_) => return,
    };
    *nas_pdu = rewritten.encode();
}

/// Under [`Mutation::TauKeepsS1apId`], for the `Deliver` of a TAU from
/// Idle: the connection it opens and the MME-UE-S1AP-ID the device's
/// copy on the serving VM carries before the TAU.
fn id_a_tau_keeps(m: Mutation, node: &MmpNode, msg: &WireMsg) -> Option<(u32, u32)> {
    if m != Mutation::TauKeepsS1apId {
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
    let (_, ctx) = node
        .contexts()
        .find(|(at, ctx)| at == vm && ctx.guti.m_tmsi == *m_tmsi)?;
    Some((*enb_ue_id, ctx.mme_ue_id))
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
        ..RunReport::default()
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut path: Vec<Choice> = Vec::new();
    dfs(sc, &mut path, &mut visited, &mut report);
    report
}

/// Replay `path` from a fresh root and recurse over the enabled
/// choices. Prefix states were validated when first visited, so
/// invariants are only checked on the new frontier state.
fn dfs(sc: &Scenario, path: &mut Vec<Choice>, visited: &mut HashSet<u64>, report: &mut RunReport) {
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
    let mut found = world.check_state();
    if found.is_none() && world.pump.quiescent() {
        report.quiescent_states += 1;
        found = world.check_quiescent();
    }
    if let Some((invariant, detail)) = found {
        report.violation = Some(CheckViolation {
            invariant,
            detail,
            trace: path.clone(),
        });
        return;
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
    if world.pump.quiescent() {
        return world.check_quiescent();
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
    let scenario = |name, n_ues, ops_per_ue, max_crashes, dup_drop_budget| Scenario {
        max_crashes,
        dup_drop_budget,
        max_states: budget,
        ..Scenario::base(name, n_ues, ops_per_ue)
    };
    vec![
        scenario("fault_free_2ue", 2, 1, 0, 0),
        scenario("fault_free_3ue", 3, 1, 0, 0),
        scenario("crash_restart_1ue", 1, 2, 1, 0),
        scenario("crash_restart_2ue", 2, 1, 1, 0),
        scenario("double_crash_1ue", 1, 2, 2, 0),
        scenario("adversarial_transport", 1, 1, 0, 2),
    ]
}

/// The scenario used to demonstrate that a given seeded bug is caught.
/// Replica-path bugs use a fault-free run (the contract is exact
/// there); routing/liveness bugs need a crash episode to arm them.
#[must_use]
pub fn mutation_scenario(m: Mutation, budget: u64) -> Scenario {
    let (name, ops_per_ue, max_crashes) = match m {
        Mutation::None
        | Mutation::DropReplicate
        | Mutation::AckBeforeReplicate
        | Mutation::WildcardSwallow
        | Mutation::TruncatedUplink => ("mutation_fault_free", 1, 0),
        Mutation::StaleEpochRoute
        | Mutation::MissedReconnectMarkUp
        | Mutation::RejectWithoutCause
        | Mutation::TauKeepsS1apId => ("mutation_crash_restart", 2, 1),
    };
    Scenario {
        max_crashes,
        max_states: budget,
        mutation: m,
        ..Scenario::base(name, 1, ops_per_ue)
    }
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
