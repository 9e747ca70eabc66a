//! The in-process engine pump: `scale_sim::wire_run::run_shuttle`'s
//! loop over the real `MlbState` / `MmpNode` / `EnbEmulator`, copied
//! here so that set-up and the timed phase can be told apart, every
//! call across a layer boundary can carry a span, and per-procedure
//! latencies can be kept. One cell, one thread, no transport.

use crate::host::ProcSample;
use crate::trace::{Layer, Proc, Tag, Tracer};
use scale_core::wire::{MlbOut, MlbState, MmpNode, WireMsg, WireTopo};
use scale_epc::{DriveMode, EmuEvent, EmulatorConfig, EnbEmulator, ProcKind, ENB_BASE};
use scale_s1ap::S1apPdu;
use scale_sim::wire_run::WireCounts;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Fleet shape shared by every workload (ISSUE "Common shape").
pub const TOTAL_VMS: usize = 16;
pub const REPLICATION: usize = 2;
pub const RING_TOKENS: u32 = 64;
/// MMP worker processes (wire) / nodes (engine pump).
pub const N_MMPS: usize = 2;

/// Population and session script of one run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n_ues: usize,
    pub ops_per_ue: usize,
    pub window: usize,
    pub seed: u64,
}

impl Shape {
    pub fn topo(&self) -> WireTopo {
        WireTopo {
            n_enbs: 1,
            n_mmps: N_MMPS,
            total_vms: TOTAL_VMS,
            replication: REPLICATION,
            ring_tokens: RING_TOKENS,
            seed: self.seed,
        }
    }

    pub fn emulator(&self, mode: DriveMode) -> EnbEmulator {
        EnbEmulator::new(&EmulatorConfig {
            cell: 0,
            n_cells: 1,
            n_local_ues: self.n_ues,
            ops_per_ue: self.ops_per_ue,
            seed: self.seed,
            mode,
        })
    }

    /// SR + TAU procedures the population will run.
    pub fn idle_ops(&self) -> u64 {
        (self.n_ues * self.ops_per_ue) as u64
    }
}

/// Generator-side procedure latencies (first uplink → terminal edge,
/// `EmuEvent::Completed`), in nanoseconds.
#[derive(Default)]
pub struct Latencies {
    pub attach: Vec<u64>,
    pub sr: Vec<u64>,
    pub tau: Vec<u64>,
    pub release: Vec<u64>,
}

impl Latencies {
    /// Sized up front so recording never reallocates in the timed phase.
    pub fn for_shape(shape: &Shape) -> Latencies {
        let ops = shape.n_ues * shape.ops_per_ue;
        Latencies {
            attach: Vec::with_capacity(shape.n_ues),
            sr: Vec::with_capacity(ops),
            tau: Vec::with_capacity(ops / 2),
            release: Vec::with_capacity(shape.n_ues + ops),
        }
    }

    pub fn push(&mut self, kind: ProcKind, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        match kind {
            ProcKind::Attach => self.attach.push(ns),
            ProcKind::ServiceRequest => self.sr.push(ns),
            ProcKind::Tau => self.tau.push(ns),
            ProcKind::S1Release => self.release.push(ns),
        }
    }

    pub fn append(&mut self, mut other: Latencies) {
        self.attach.append(&mut other.attach);
        self.sr.append(&mut other.sr);
        self.tau.append(&mut other.tau);
        self.release.append(&mut other.release);
    }

    /// Sum over every UE-visible procedure, seconds.
    pub fn total_s(&self) -> f64 {
        let ns: u64 = [&self.attach, &self.sr, &self.tau, &self.release]
            .iter()
            .map(|v| v.iter().sum::<u64>())
            .sum();
        ns as f64 / 1e9
    }

    pub fn procedures(&self) -> usize {
        self.attach.len() + self.sr.len() + self.tau.len() + self.release.len()
    }
}

/// Wall time of one in-process timed phase and what this process
/// used over it (first timed uplink → last terminal edge).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub used: ProcSample,
}

pub struct EngineRun {
    pub timed: Timed,
    pub counts: WireCounts,
    pub lat: Latencies,
}

enum Hop {
    FromEnb(WireMsg),
    FromMmp(WireMsg),
    ToEnb(WireMsg),
    ToMmp(usize, WireMsg),
}

/// The deployment's three sans-IO machines, built and S1-set-up.
pub struct Engine {
    mlb: MlbState,
    mmps: Vec<MmpNode>,
    emu: EnbEmulator,
}

impl Engine {
    /// Set-up: ring build, worker engines, emulator population, and
    /// the S1 Setup exchange the MLB terminates itself.
    pub fn build(shape: &Shape) -> Engine {
        let topo = shape.topo();
        let mut mlb = MlbState::new(&topo);
        let mmps = (0..N_MMPS).map(|i| MmpNode::new(&topo, i)).collect();
        let mut emu = shape.emulator(DriveMode::Closed {
            window: shape.window,
        });
        let mut out = Vec::new();
        mlb.on_enb(ENB_BASE, None, emu.s1_setup_request(), &mut out);
        for o in out {
            if let MlbOut::Enb {
                msg: WireMsg::ToEnb { pdu, .. },
                ..
            } = o
            {
                emu.handle_downlink(pdu);
            }
        }
        Engine { mlb, mmps, emu }
    }

    /// The timed phase: prime the window, pump to quiescence.
    pub fn run<T: Tracer>(mut self, shape: &Shape, tr: &mut T) -> EngineRun {
        let mut lat = Latencies::for_shape(shape);
        let mut queue: VecDeque<(Hop, Tag)> = VecDeque::with_capacity(4 * shape.window + 64);
        // enb_ue_id → (M-TMSI, procedure) of the connection; traced
        // passes only.
        let mut conns: HashMap<u32, (u32, Proc)> = HashMap::new();
        let mut out: Vec<MlbOut> = Vec::new();
        let mut wout: Vec<WireMsg> = Vec::new();

        let before = ProcSample::me();
        let t0 = Instant::now();
        let t = tr.now();
        self.emu.start();
        drain_emu(&mut self.emu, &mut queue, &mut lat, &mut conns, tr);
        tr.record(Layer::EmuStart, Tag::default(), t);

        while let Some((hop, tag)) = queue.pop_front() {
            let id = match hop {
                Hop::FromEnb(WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                }) => {
                    let t = tr.now();
                    self.mlb.on_enb(enb_id, attach_hint, pdu, &mut out);
                    tr.record(Layer::MlbOnEnb, tag, t)
                }
                Hop::FromEnb(_) => 0,
                Hop::FromMmp(msg) => {
                    let t = tr.now();
                    self.mlb.on_mmp(msg, &mut out);
                    tr.record(Layer::MlbOnMmp, tag, t)
                }
                Hop::ToMmp(mmp, msg) => {
                    let t = tr.now();
                    self.mmps[mmp].handle(msg, &mut wout);
                    let id = tr.record(Layer::MmpHandle, tag, t);
                    for m in wout.drain(..) {
                        tr.wire(&m);
                        queue.push_back((Hop::FromMmp(m), Tag { cause: id, ..tag }));
                    }
                    id
                }
                Hop::ToEnb(msg) => {
                    let t = tr.now();
                    let layer = match msg {
                        WireMsg::ToEnb { pdu, .. } => {
                            self.emu.handle_downlink(pdu);
                            Layer::EmuDownlink
                        }
                        WireMsg::Settled { m_tmsi, active } => {
                            self.emu.settled(m_tmsi, active);
                            Layer::EmuSettled
                        }
                        WireMsg::ProcFailed { m_tmsi } => {
                            self.emu.proc_failed(m_tmsi);
                            Layer::EmuSettled
                        }
                        // Never addressed to an eNodeB (see run_shuttle).
                        WireMsg::Hello { .. }
                        | WireMsg::Uplink { .. }
                        | WireMsg::Deliver { .. }
                        | WireMsg::Replicate { .. }
                        | WireMsg::DropCtx { .. }
                        | WireMsg::VmDown { .. }
                        | WireMsg::VmUp { .. } => Layer::EmuSettled,
                    };
                    drain_emu(&mut self.emu, &mut queue, &mut lat, &mut conns, tr);
                    tr.record(layer, tag, t)
                }
            };
            for o in out.drain(..) {
                let (hop, msg_tag) = match o {
                    MlbOut::Enb { msg, .. } => {
                        tr.wire(&msg);
                        (Hop::ToEnb(msg), Tag { cause: id, ..tag })
                    }
                    MlbOut::Mmp { mmp, msg } => {
                        tr.wire(&msg);
                        (Hop::ToMmp(mmp, msg), Tag { cause: id, ..tag })
                    }
                };
                queue.push_back((hop, msg_tag));
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let used = ProcSample::me().since(&before);

        let mut counts = WireCounts {
            enb: self.emu.counts,
            mlb: self.mlb.stats,
            ..WireCounts::default()
        };
        for e in self.emu.error_samples() {
            eprintln!("engine emulator: {e}");
        }
        for (i, node) in self.mmps.iter().enumerate() {
            for e in node.error_samples() {
                eprintln!("engine mmp {i}: {e}");
            }
            counts.mmp.stats.merge(&node.stats());
            counts.mmp.contexts_held += node.contexts_held() as u64;
            counts.mmp.wire_errors += node.errors;
        }
        EngineRun {
            timed: Timed { wall_s, used },
            counts,
            lat,
        }
    }
}

/// Session and procedure of an uplink, learnt from the PDU the way the
/// MLB learns its route (traced passes only).
pub fn uplink_tag(
    conns: &mut HashMap<u32, (u32, Proc)>,
    attach_hint: Option<u32>,
    pdu: &S1apPdu,
    cause: u32,
) -> Tag {
    let (session, proc) = match pdu {
        S1apPdu::InitialUeMessage {
            enb_ue_id,
            s_tmsi,
            establishment_cause,
            ..
        } => {
            let entry = match (attach_hint, s_tmsi) {
                (Some(h), _) => (h, Proc::Attach),
                // The emulator opens TAU connections with cause 4 and
                // Service Requests with cause 3.
                (None, Some((_, m))) if *establishment_cause == 4 => (*m, Proc::Tau),
                (None, Some((_, m))) => (*m, Proc::Sr),
                (None, None) => (0, Proc::None),
            };
            conns.insert(*enb_ue_id, entry);
            entry
        }
        S1apPdu::UeContextReleaseRequest { enb_ue_id, .. } => {
            let e = conns.entry(*enb_ue_id).or_insert((0, Proc::Release));
            e.1 = Proc::Release;
            *e
        }
        S1apPdu::UeContextReleaseComplete { enb_ue_id, .. } => {
            conns.remove(enb_ue_id).unwrap_or((0, Proc::Release))
        }
        S1apPdu::UplinkNasTransport { enb_ue_id, .. }
        | S1apPdu::InitialContextSetupResponse { enb_ue_id, .. }
        | S1apPdu::InitialContextSetupFailure { enb_ue_id, .. } => {
            conns.get(enb_ue_id).copied().unwrap_or((0, Proc::None))
        }
        _ => (0, Proc::None),
    };
    Tag {
        session,
        proc,
        cause,
    }
}

/// Turn what the emulator produced into queued uplinks and latency
/// samples. Runs inside the span of the emulator call that produced it
/// (`drain()` itself is a `mem::take`), whose id is the uplinks' cause.
fn drain_emu<T: Tracer>(
    emu: &mut EnbEmulator,
    queue: &mut VecDeque<(Hop, Tag)>,
    lat: &mut Latencies,
    conns: &mut HashMap<u32, (u32, Proc)>,
    tr: &mut T,
) {
    let cause = tr.peek_id();
    for ev in emu.drain() {
        match ev {
            EmuEvent::Uplink { attach_hint, pdu } => {
                let tag = if T::ON {
                    uplink_tag(conns, attach_hint, &pdu, cause)
                } else {
                    Tag::default()
                };
                let msg = WireMsg::Uplink {
                    enb_id: ENB_BASE,
                    attach_hint,
                    pdu,
                };
                tr.wire(&msg);
                queue.push_back((Hop::FromEnb(msg), tag));
            }
            EmuEvent::Completed { kind, elapsed } => lat.push(kind, elapsed),
        }
    }
}
