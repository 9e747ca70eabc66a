//! Replay of recorded wire traffic through one process's receive →
//! handle → send path, sans-IO: the bytes a link's reads would deliver
//! go in, the bytes the process would write come out, and no socket,
//! thread or clock is involved — so a replay repeats exactly, and its
//! cost in time or allocations is the path's own.
//!
//! What is replayed is the deployment's own code. The role loops in
//! [`crate::wire_run`] send through a link they know only as a
//! `WireLink`; there it is the send half of a split association, here
//! it is an association and the buffer it frames into. So
//! [`MlbReplay::read`] is the MLB's `Router` — `route`, the per-link
//! runs, `flush`, one egress unit per link — and [`MmpReplay::read`]
//! is a worker's `MmpLoop`, each fed from an [`Ingress`] as a receive
//! half feeds it.
//!
//! A [`Recording`] is what one shuttle run put on the MLB's links.
//! [`MlbReplay::typed_read`] is the reference the relay is held to: the
//! same reads through typed values (owned frames, `WireMsg::decode`,
//! `on_enb`/`on_mmp`, `WireMsg::encode`, queued sends). The relay
//! suites (`crates/sim/tests`) and `bench_summary`'s relay section are
//! built on these.
//!
//! A replay is handed what a run recorded. Anything else — a frame that
//! does not parse, a message that does not route — is the caller's bug,
//! and every function here panics on it.

use crate::wire_run::{run_shuttle_tapped, MmpLoop, Router, WireLink, WireRunConfig, WIRE_STREAM};
use bytes::Bytes;
use scale_core::wire::{Link, MlbOut, MlbState, MmpNode, WireMsg, WireRole};
use scale_sctplite::{
    frame_into, ppid, Association, BatchItem, Deframer, EgressUnit, Event, Ingress,
    TransportError,
};
use std::cell::{Ref, RefCell};
use std::rc::Rc;

/// What one run of the shuttle put on the MLB's links, as the bytes it
/// put there: whoever reads a message decodes it.
pub struct Recording {
    /// Messages into the MLB, in order, each with the link it arrived
    /// on ([`Recording::link`]).
    pub inbound: Vec<(usize, Bytes)>,
    /// Messages the MLB sent to each worker, in order.
    pub to_mmp: Vec<Vec<Bytes>>,
}

// lint: allow(unwrap)
impl Recording {
    /// Run the shuttle over `cfg` and keep what crossed its MLB.
    pub fn of(cfg: &WireRunConfig) -> Recording {
        let mut rec = Recording {
            inbound: Vec::new(),
            to_mmp: vec![Vec::new(); cfg.n_mmps],
        };
        let counts = run_shuttle_tapped(cfg, &mut |tap| {
            let bytes = Bytes::copy_from_slice(tap.bytes);
            let into_mlb = |role, id| (Recording::link(cfg, role, id), bytes.clone());
            match tap.link {
                Link::EnbToMlb(id) => rec.inbound.push(into_mlb(WireRole::Enb, id)),
                Link::MmpToMlb(id) => rec.inbound.push(into_mlb(WireRole::Mmp, id)),
                Link::MlbToMmp(mmp) => rec.to_mmp[mmp].push(bytes),
                Link::MlbToEnb(_) => {}
            }
        });
        assert_eq!(
            counts.enb.sessions_done, cfg.n_ues as u64,
            "the recorded run failed"
        );
        rec
    }

    /// The index of the MLB's link to `(role, id)`: cells first.
    pub fn link(cfg: &WireRunConfig, role: WireRole, id: usize) -> usize {
        match role {
            WireRole::Enb => id,
            WireRole::Mmp => cfg.n_enbs + id,
        }
    }
}

/// A replayed process's side of a link: the association that numbers
/// and frames, and what it has been given to send since that was last
/// cleared. Shared between the loop that sends on it and the replay
/// that feeds the same association what the link receives.
struct ReplayLink {
    assoc: RefCell<Association>,
    sent: RefCell<Vec<u8>>,
}

impl ReplayLink {
    /// The association's next event (the borrow ends with the call).
    fn next_event(&self) -> Option<Event> {
        self.assoc.borrow_mut().poll_event()
    }

    fn unit(&self, fill: impl FnOnce(&mut EgressUnit<'_>)) -> Result<(), TransportError> {
        let (mut assoc, mut sent) = (self.assoc.borrow_mut(), self.sent.borrow_mut());
        let mut unit = EgressUnit::over(&mut assoc, &mut sent);
        fill(&mut unit);
        unit.close().1.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// A buffer takes whatever it is given, so nothing ever waits and the
/// two sends are one.
impl WireLink for Rc<ReplayLink> {
    fn send_unit(
        &self,
        _messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        self.unit(fill)
    }

    fn try_send_unit(
        &self,
        _messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        self.unit(fill)
    }

    fn try_ping(&self, nonce: u64) -> Result<(), TransportError> {
        let mut assoc = self.assoc.borrow_mut();
        assoc.heartbeat(nonce)?;
        while let Some(frame) = assoc.poll_egress() {
            frame_into(&frame, &mut self.sent.borrow_mut());
        }
        Ok(())
    }
}

// lint: allow(unwrap)
/// Both ends of one established association: the near end (the process
/// replayed) and its peer.
fn link(tag: u32) -> (Rc<ReplayLink>, Association) {
    let mut near = Association::listen(tag, 8);
    let mut peer = Association::connect(!tag, 8);
    loop {
        let mut moved = false;
        while let Some(f) = peer.poll_egress() {
            near.handle_frame(f).expect("handshake");
            moved = true;
        }
        while let Some(f) = near.poll_egress() {
            peer.handle_frame(f).expect("handshake");
            moved = true;
        }
        if !moved {
            break;
        }
    }
    while near.poll_event().is_some() {}
    while peer.poll_event().is_some() {}
    assert!(near.is_established() && peer.is_established());
    let near = ReplayLink {
        assoc: RefCell::new(near),
        sent: RefCell::new(Vec::new()),
    };
    (Rc::new(near), peer)
}

/// The far ends of a replayed process's links: they number and frame
/// what the peers send.
pub struct Peers(Vec<Association>);

// lint: allow(unwrap)
impl Peers {
    /// The bytes the peers put on the wire for `msgs` (link, encoded
    /// message), as the reads that deliver them: consecutive messages of
    /// one link share a read, up to `per_read` of them. Called again,
    /// the peers carry on numbering where they stopped.
    pub fn reads_of<'a>(
        &mut self,
        msgs: impl IntoIterator<Item = (usize, &'a Bytes)>,
        per_read: usize,
    ) -> Vec<(usize, Vec<u8>)> {
        let mut reads: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut in_last = 0;
        for (link, msg) in msgs {
            self.0[link]
                .send(WIRE_STREAM, ppid::SCALE_STATE, msg.clone())
                .expect("peer sends");
            let frame = self.0[link].poll_egress().expect("one frame a send");
            match reads.last_mut() {
                Some((l, wire)) if *l == link && in_last < per_read => {
                    frame_into(&frame, wire);
                    in_last += 1;
                }
                _ => {
                    let mut wire = Vec::new();
                    frame_into(&frame, &mut wire);
                    reads.push((link, wire));
                    in_last = 1;
                }
            }
        }
        reads
    }
}

/// `read` with every two neighbouring frames in each other's place:
/// the same messages as a transport that reorders would deliver them.
/// Each odd one then arrives ahead of its turn, waits in the reorder
/// buffer, and is delivered behind the one that was due.
pub fn swap_neighbours(read: &[u8]) -> Vec<u8> {
    let mut frames = Vec::new();
    let mut rest = read;
    while let Some((len, _)) = rest.split_first_chunk::<4>() {
        let (frame, tail) = rest.split_at(4 + u32::from_be_bytes(*len) as usize);
        frames.push(frame);
        rest = tail;
    }
    frames.chunks_mut(2).for_each(|pair| pair.reverse());
    frames.concat()
}

fn feed(space: &mut [u8], read: &[u8]) -> usize {
    space[..read.len()].copy_from_slice(read);
    read.len()
}

/// An MLB with its links, replaying reads (see the module docs).
pub struct MlbReplay {
    cfg: WireRunConfig,
    /// The deployment's router, over links that end in buffers.
    router: Router<Rc<ReplayLink>>,
    links: Vec<Rc<ReplayLink>>,
    ingresses: Vec<Ingress>,
    /// The typed reference's receive side and scratch.
    deframers: Vec<Deframer>,
    out: Vec<MlbOut>,
}

// lint: allow(unwrap)
impl MlbReplay {
    /// The MLB of `cfg`, every link up, and the links' far ends.
    pub fn new(cfg: &WireRunConfig) -> (MlbReplay, Peers) {
        let n = cfg.n_enbs + cfg.n_mmps;
        let (links, peers): (Vec<_>, Vec<_>) = (0..n).map(|i| link(0x100 + i as u32)).unzip();
        let mut mlb = MlbReplay {
            cfg: cfg.clone(),
            router: Router::new(cfg),
            links,
            ingresses: (0..n).map(|_| Ingress::new()).collect(),
            deframers: (0..n).map(|_| Deframer::new()).collect(),
            out: Vec::new(),
        };
        for at in 0..n {
            let (role, id) = mlb.peer_of(at);
            mlb.router.linked(role, id, Rc::clone(&mlb.links[at]));
        }
        (mlb, Peers(peers))
    }

    /// Who is at the far end of link `at`.
    fn peer_of(&self, at: usize) -> (WireRole, usize) {
        if at < self.cfg.n_enbs {
            (WireRole::Enb, at)
        } else {
            (WireRole::Mmp, at - self.cfg.n_enbs)
        }
    }

    /// The routing state.
    pub fn state(&self) -> &MlbState {
        &self.router.mlb
    }

    /// What link `at` has been given to send since it was last cleared.
    pub fn sent(&self, at: usize) -> Ref<'_, [u8]> {
        Ref::map(self.links[at].sent.borrow(), Vec::as_slice)
    }

    /// Forget what the links were given to send, as a write does.
    pub fn clear_sent(&mut self) {
        self.links.iter().for_each(|l| l.sent.borrow_mut().clear());
    }

    /// One read on link `from`, handled as the deployment handles it:
    /// `mlb_link_loop`'s receive, then `Router::route` on what it
    /// delivered. Returns the messages delivered.
    ///
    /// # Panics
    /// On anything a recording cannot contain: a broken frame, a
    /// message that is not one of ours.
    pub fn read(&mut self, from: usize, read: &[u8]) -> usize {
        let (role, id) = self.peer_of(from);
        let ingress = &mut self.ingresses[from];
        let n = feed(ingress.space(), read);
        ingress.filled(n);
        ingress.ingest(&mut self.links[from].assoc.borrow_mut());
        let batch = ingress.batch().expect("a recorded read parses");
        let bytes = batch.bytes();
        let mut delivered = 0;
        let messages = batch.inspect(|item| {
            delivered += usize::from(!matches!(item, BatchItem::HeartbeatAck { .. }));
        });
        self.router
            .route(role, id, bytes, messages)
            .expect("a recorded message routes");
        delivered
    }

    /// One read on link `from`, handled through typed values: the
    /// reference [`MlbReplay::read`] is held to. Panics alike, and on
    /// an arrival out of order.
    pub fn typed_read(&mut self, from: usize, read: &[u8]) -> usize {
        let (role, _) = self.peer_of(from);
        let n = feed(self.deframers[from].space(), read);
        self.deframers[from].filled(n);
        let mut delivered = 0;
        while let Some(frame) = self.deframers[from]
            .next_frame()
            .expect("a recorded read parses")
        {
            self.links[from]
                .assoc
                .borrow_mut()
                .handle_frame(frame)
                .expect("a recorded frame is in order");
            while let Some(ev) = self.links[from].next_event() {
                let Event::Data { payload, .. } = ev else {
                    continue;
                };
                delivered += 1;
                let msg = WireMsg::decode(payload).expect("a recorded message decodes");
                let state = &mut self.router.mlb;
                match (role, msg) {
                    (
                        WireRole::Enb,
                        WireMsg::Uplink {
                            enb_id,
                            attach_hint,
                            pdu,
                        },
                    ) => state.on_enb(enb_id, attach_hint, pdu, &mut self.out),
                    (WireRole::Enb, _) => {}
                    (WireRole::Mmp, msg) => state.on_mmp(msg, &mut self.out),
                }
                for out in self.out.drain(..) {
                    let (to, msg) = match out {
                        MlbOut::Enb { enb, msg } => (Recording::link(&self.cfg, WireRole::Enb, enb), msg),
                        MlbOut::Mmp { mmp, msg } => (Recording::link(&self.cfg, WireRole::Mmp, mmp), msg),
                    };
                    let mut assoc = self.links[to].assoc.borrow_mut();
                    assoc
                        .send(WIRE_STREAM, ppid::SCALE_STATE, msg.encode())
                        .expect("link is up");
                    let frame = assoc.poll_egress().expect("one frame a send");
                    frame_into(&frame, &mut self.links[to].sent.borrow_mut());
                }
            }
        }
        delivered
    }
}

/// One worker's loop — receive, decode, `MmpNode::handle`, encode, send
/// — over its link to the MLB.
pub struct MmpReplay {
    /// The deployment's loop.
    worker: MmpLoop,
    link: Rc<ReplayLink>,
    ingress: Ingress,
}

// lint: allow(unwrap)
impl MmpReplay {
    /// Worker `index` of `cfg`, its link up, and the link's far end
    /// (link 0 of the [`Peers`]).
    pub fn new(cfg: &WireRunConfig, index: usize) -> (MmpReplay, Peers) {
        let (link, peer) = link(0x200 + index as u32);
        let mmp = MmpReplay {
            worker: MmpLoop::new(index, MmpNode::new(&cfg.topo(), index)),
            link,
            ingress: Ingress::new(),
        };
        (mmp, Peers(vec![peer]))
    }

    /// The engines.
    pub fn node(&self) -> &MmpNode {
        &self.worker.node
    }

    /// Forget what the worker was given to send, as a write does.
    pub fn clear_sent(&mut self) {
        self.link.sent.borrow_mut().clear();
    }

    /// One read, handled as `run_mmp` handles it: a receive, then
    /// `MmpLoop::serve`. Returns the messages delivered. Panics on what
    /// a recording cannot contain.
    pub fn read(&mut self, read: &[u8]) -> usize {
        let n = feed(self.ingress.space(), read);
        self.ingress.filled(n);
        self.ingress.ingest(&mut self.link.assoc.borrow_mut());
        self.ingress
            .events(&mut self.worker.events)
            .expect("a recorded read parses");
        let delivered = self.worker.events.len();
        self.worker.serve(&self.link).expect("link is up");
        delivered
    }
}
