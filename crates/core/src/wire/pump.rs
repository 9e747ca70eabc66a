//! One single-threaded pump over the deployment's sans-IO machines — the
//! cells ([`EnbEmulator`]), one [`MlbState`], the workers ([`MmpNode`])
//! — joined by the MLB's four FIFO link families, which carry encoded
//! bytes. A message into the MLB goes through [`MlbState::relay`] and
//! [`Forward::write`](super::Forward::write), the calls the socket MLB
//! makes; a worker or a cell decodes what it receives. The pump's only
//! choices are a scheduler's: which link delivers next
//! ([`Pump::deliver`]) and the fault steps (crash, detect, restart).
//! The in-process shuttle delivers in send order ([`Pump::next_fifo`]);
//! the protocol model checker tries every ready link ([`Pump::ready`])
//! and tampers with messages on their way ([`Tamper`]).

use super::{Dest, MlbOut, MlbState, MmpNode, Relay, WireMsg, WireRole, WireTopo};
use crate::failover::{HealthConfig, HealthTracker};
use bytes::Bytes;
use scale_epc::{EmuEvent, EnbEmulator, ENB_BASE};
use scale_nas::{NasError, Writer};
use scale_s1ap::S1apPdu;
use std::collections::VecDeque;
use std::hash::Hash;

/// One FIFO link of the MLB's star, and the cell or worker at its far
/// end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// A cell's uplinks into the MLB.
    EnbToMlb(usize),
    /// The MLB's link to a worker.
    MlbToMmp(usize),
    /// A worker's link into the MLB.
    MmpToMlb(usize),
    /// The MLB's link to a cell.
    MlbToEnb(usize),
}

/// A worker process's status, as the fault steps leave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Running and linked.
    Up,
    /// Crashed; the MLB has not noticed.
    CrashedUndetected,
    /// Crashed, and the MLB's failure detector has fired.
    CrashedDetected,
}

/// What a scheduler's transport does to a message on its way. Each
/// default is the faithful transport.
pub trait Tamper {
    /// `msg` crosses the MLB on `link`: arriving (`EnbToMlb`,
    /// `MmpToMlb`) or leaving (`MlbToMmp`, `MlbToEnb`). It may be
    /// changed, a leaving one sent on another link; `false` loses it.
    /// `workers` is every worker's status.
    fn at_mlb(&mut self, _link: &mut Link, _msg: &mut Bytes, _workers: &[WorkerStatus]) -> bool {
        true
    }

    /// Worker `node` handles `msg`, writing what it produces to `out`.
    fn at_worker(&mut self, node: &mut MmpNode, msg: WireMsg, out: &mut Vec<WireMsg>) {
        node.handle(msg, out);
    }

    /// Cell `emu` receives `msg`.
    fn at_cell(&mut self, emu: &mut EnbEmulator, msg: WireMsg) {
        to_cell(emu, msg);
    }

    /// Whether the MLB learns that a restarted worker reconnected.
    fn reconnects(&mut self) -> bool {
        true
    }
}

/// Hand a message the MLB routed to a cell to that cell's emulator.
pub fn to_cell(emu: &mut EnbEmulator, msg: WireMsg) {
    match msg {
        WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
        WireMsg::Settled { m_tmsi, active } => emu.settled(m_tmsi, active),
        WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
        // MLB/fabric-internal traffic never reaches an eNodeB; named
        // exhaustively so a new wire message fails to compile here
        // instead of being silently dropped.
        WireMsg::Hello { .. }
        | WireMsg::Uplink { .. }
        | WireMsg::Deliver { .. }
        | WireMsg::Replicate { .. }
        | WireMsg::DropCtx { .. }
        | WireMsg::VmDown { .. }
        | WireMsg::VmUp { .. } => {}
    }
}

/// A link's messages, each stamped with the pump-wide order it was sent
/// in.
type Queue = VecDeque<(u64, Bytes)>;

/// The deployment's machines and the links between them (module docs).
pub struct Pump {
    topo: WireTopo,
    /// The cells, by index.
    pub cells: Vec<EnbEmulator>,
    /// The MLB.
    pub mlb: MlbState,
    /// The workers, by index; `None` while crashed.
    pub workers: Vec<Option<MmpNode>>,
    status: Vec<WorkerStatus>,
    /// The MLB's failure detector: one missed heartbeat is a death.
    health: HealthTracker,
    /// Every cell's uplink, every worker's inbound link, every worker's
    /// outbound link, every cell's downlink ([`Pump::slot`]).
    queues: Vec<Queue>,
    sent: u64,
    /// Every message its receiver could not take — the MLB's `relay`
    /// refused it, or a worker or cell could not decode it — described.
    pub wire_errors: Vec<String>,
}

impl Pump {
    /// The deployment of `topo` with `cells` (one per eNB, in index
    /// order): every worker up, and each cell in turn set up, started
    /// and drained onto its uplink.
    #[must_use]
    pub fn new(topo: &WireTopo, cells: Vec<EnbEmulator>) -> Pump {
        assert_eq!(cells.len(), topo.n_enbs, "one cell per eNB of the topology");
        let mut pump = Pump {
            topo: topo.clone(),
            mlb: MlbState::new(topo),
            workers: (0..topo.n_mmps)
                .map(|i| Some(MmpNode::new(topo, i)))
                .collect(),
            status: vec![WorkerStatus::Up; topo.n_mmps],
            health: HealthTracker::new(HealthConfig {
                miss_threshold: 1,
                error_threshold: u32::MAX,
            }),
            queues: vec![Queue::new(); 2 * (cells.len() + topo.n_mmps)],
            cells,
            sent: 0,
            wire_errors: Vec::new(),
        };
        for cell in 0..pump.cells.len() {
            let setup = pump.cells[cell].s1_setup_request();
            pump.uplink(cell, None, setup);
            pump.cells[cell].start();
            pump.drain_cell(cell);
        }
        pump
    }

    /// Every worker's status, by index.
    #[must_use]
    pub fn status(&self) -> &[WorkerStatus] {
        &self.status
    }

    /// The running workers, with their indices.
    pub fn live_workers(&self) -> impl Iterator<Item = (usize, &MmpNode)> + '_ {
        let workers = self.workers.iter().enumerate();
        workers.filter_map(|(w, node)| Some((w, node.as_ref()?)))
    }

    /// Where `link`'s queue is in `queues`.
    fn slot(&self, link: Link) -> usize {
        let (cells, workers) = (self.cells.len(), self.workers.len());
        match link {
            Link::EnbToMlb(c) => c,
            Link::MlbToMmp(w) => cells + w,
            Link::MmpToMlb(w) => cells + workers + w,
            Link::MlbToEnb(c) => cells + 2 * workers + c,
        }
    }

    /// Links with a message to deliver: every cell's uplink, then per
    /// worker its inbound link (while it is up) and its outbound one,
    /// then every cell's downlink.
    pub fn ready(&self) -> impl Iterator<Item = Link> + '_ {
        let (cells, workers) = (self.cells.len(), self.workers.len());
        (0..cells)
            .map(Link::EnbToMlb)
            .chain((0..workers).flat_map(|w| [Link::MlbToMmp(w), Link::MmpToMlb(w)]))
            .chain((0..cells).map(Link::MlbToEnb))
            .filter(move |&link| {
                !self.queues[self.slot(link)].is_empty()
                    && !matches!(link, Link::MlbToMmp(w) if self.status[w] != WorkerStatus::Up)
            })
    }

    /// The ready link whose head was sent first: one queue for the
    /// whole deployment.
    #[must_use]
    pub fn next_fifo(&self) -> Option<Link> {
        self.ready().min_by_key(|&link| {
            self.queues[self.slot(link)]
                .front()
                .map(|(stamp, _)| *stamp)
        })
    }

    /// Every queue empty and every crash detected.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.queues.iter().all(Queue::is_empty)
            && !self.status.contains(&WorkerStatus::CrashedUndetected)
    }

    /// Hash the behaviour-relevant state into `h`: each machine's own
    /// fingerprint, every worker's status and every queued message's
    /// bytes. Counters and send stamps are left out.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        self.mlb.fingerprint(h);
        for (worker, node) in self.workers.iter().enumerate() {
            (worker, self.status[worker] as u8).hash(h);
            if let Some(n) = node {
                n.fingerprint(h);
            }
        }
        for emu in &self.cells {
            emu.fingerprint(h);
        }
        for q in &self.queues {
            q.len().hash(h);
            for (_, msg) in q {
                msg.as_ref().hash(h);
            }
        }
    }

    /// Deliver the head of `link` to its receiver, and queue what that
    /// produces.
    pub fn deliver(&mut self, link: Link, tamper: &mut impl Tamper) {
        let at = self.slot(link);
        let Some((_, mut msg)) = self.queues[at].pop_front() else {
            return;
        };
        match link {
            Link::EnbToMlb(id) | Link::MmpToMlb(id) => {
                if !tamper.at_mlb(&mut { link }, &mut msg, &self.status) {
                    return;
                }
                let role = match link {
                    Link::EnbToMlb(_) => WireRole::Enb,
                    _ => WireRole::Mmp,
                };
                match self.mlb.relay(role, id, &msg) {
                    Ok(Relay::Forward(fwd)) => {
                        let mut w = Writer::new();
                        fwd.write(&msg, &mut w);
                        let to = match fwd.dest {
                            Dest::Enb(c) => Link::MlbToEnb(c),
                            Dest::Mmp(w) => Link::MlbToMmp(w),
                        };
                        self.mlb_send(to, w.finish(), tamper);
                    }
                    Ok(Relay::Reply(out)) => self.mlb_send_all(vec![out], tamper),
                    Ok(Relay::Nothing) => {}
                    Err(e) => self.refuse(link, &e),
                }
            }
            Link::MlbToMmp(worker) => {
                let Some(node) = self.workers[worker].as_mut() else {
                    return;
                };
                let mut out = Vec::new();
                match WireMsg::decode(msg) {
                    Ok(msg) => tamper.at_worker(node, msg, &mut out),
                    Err(e) => self.refuse(link, &e),
                }
                for m in out {
                    self.send(Link::MmpToMlb(worker), m.encode());
                }
            }
            Link::MlbToEnb(cell) => {
                match WireMsg::decode(msg) {
                    Ok(msg) => tamper.at_cell(&mut self.cells[cell], msg),
                    Err(e) => self.refuse(link, &e),
                }
                self.drain_cell(cell);
            }
        }
    }

    /// Worker `worker` crashes: its state vanishes, and what was on its
    /// links with it. The MLB does not know yet.
    pub fn crash(&mut self, worker: usize) {
        self.workers[worker] = None;
        self.status[worker] = WorkerStatus::CrashedUndetected;
        for link in [Link::MlbToMmp(worker), Link::MmpToMlb(worker)] {
            let at = self.slot(link);
            self.queues[at].clear();
        }
    }

    /// The MLB's failure detector fires for crashed worker `worker`. A
    /// *newly* down verdict — re-detection must not re-fire — marks its
    /// VMs down, fails its in-flight procedures over and tells the
    /// other workers.
    pub fn detect(&mut self, worker: usize, tamper: &mut impl Tamper) {
        if self.health.miss_heartbeat(worker as u32) {
            let mut out = Vec::new();
            self.mlb.on_mmp_down(worker, &mut out);
            self.mlb_send_all(out, tamper);
        }
        self.status[worker] = WorkerStatus::CrashedDetected;
    }

    /// Crashed worker `worker` restarts empty and reconnects; the MLB
    /// marks its VMs up and tells the other workers.
    pub fn restart(&mut self, worker: usize, tamper: &mut impl Tamper) {
        self.workers[worker] = Some(MmpNode::new(&self.topo, worker));
        self.health.mark_up(worker as u32);
        self.status[worker] = WorkerStatus::Up;
        if tamper.reconnects() {
            let mut out = Vec::new();
            self.mlb.on_mmp_reconnected(worker, &mut out);
            self.mlb_send_all(out, tamper);
        }
    }

    /// Adversarial transport: the head of `link` is delivered twice.
    pub fn duplicate_head(&mut self, link: Link) {
        let at = self.slot(link);
        if let Some(head) = self.queues[at].front().cloned() {
            self.queues[at].push_front(head);
        }
    }

    /// Adversarial transport: the head of `link` is lost.
    pub fn drop_head(&mut self, link: Link) {
        let at = self.slot(link);
        self.queues[at].pop_front();
    }

    /// The receiver at the end of `link` could not take a message.
    fn refuse(&mut self, link: Link, e: &NasError) {
        self.wire_errors.push(format!("{link:?} refused: {e}"));
    }

    fn send(&mut self, link: Link, msg: Bytes) {
        self.sent += 1;
        let at = self.slot(link);
        self.queues[at].push_back((self.sent, msg));
    }

    /// The MLB sends `msg` on `link`. A message for a worker that is
    /// not up is lost: the send fails.
    fn mlb_send(&mut self, mut link: Link, mut msg: Bytes, tamper: &mut impl Tamper) {
        if tamper.at_mlb(&mut link, &mut msg, &self.status)
            && !matches!(link, Link::MlbToMmp(w) if self.status[w] != WorkerStatus::Up)
        {
            self.send(link, msg);
        }
    }

    fn mlb_send_all(&mut self, out: Vec<MlbOut>, tamper: &mut impl Tamper) {
        for o in out {
            let (link, msg) = match o {
                MlbOut::Enb { enb, msg } => (Link::MlbToEnb(enb), msg),
                MlbOut::Mmp { mmp, msg } => (Link::MlbToMmp(mmp), msg),
            };
            self.mlb_send(link, msg.encode(), tamper);
        }
    }

    fn uplink(&mut self, cell: usize, attach_hint: Option<u32>, pdu: S1apPdu) {
        let msg = WireMsg::Uplink {
            enb_id: ENB_BASE + cell as u32,
            attach_hint,
            pdu,
        };
        self.send(Link::EnbToMlb(cell), msg.encode());
    }

    /// Move cell `cell`'s pending uplinks onto its link.
    fn drain_cell(&mut self, cell: usize) {
        for ev in self.cells[cell].drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => self.uplink(cell, attach_hint, pdu),
                EmuEvent::Completed { .. } => {}
            }
        }
    }
}
