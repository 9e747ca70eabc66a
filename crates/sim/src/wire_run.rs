//! The wire-level deployment runtime (DESIGN.md §14): real OS
//! processes for each role — eNodeB emulators, the MLB front, MMP
//! workers — joined by `sctplite` associations over localhost TCP.
//!
//! This module contains the three role main-loops (driven by the
//! `scale_wired` binary), the parent-side orchestration that spawns the
//! topology as child processes and harvests their `REPORT` lines, and
//! an in-process *shuttle* that runs the identical sans-IO logic
//! ([`MlbState`], [`MmpNode`], [`EnbEmulator`]) on `scale-core`'s
//! [`Pump`] instead of sockets: the same encoded bytes on the same four
//! link families, the MLB relaying them as the socket MLB does, each
//! message delivered in the order it was sent. The protocol model
//! checker runs the same pump through every other order. The shuttle
//! is the parity oracle: the socket deployment, the shuttle and the
//! in-process `scale_out` driver must all produce identical
//! per-outcome counts for the same seeded workload — the wall-clock gap
//! between them *is* the result the `wire_load` bench measures.
//!
//! Child processes report through stdout (the vendored serde has no
//! `Deserialize`): the MLB prints `PORT <n>` once its listener is
//! bound and `READY` once every worker has linked, and every role
//! prints one `REPORT k=v ...` line at exit.
//!
//! Every role loop batches by what is already there (DESIGN.md §14.2):
//! one receive takes all the messages its read delivered, all of them
//! are handled, and what they produced leaves as one egress unit per
//! link. Nothing waits for a batch to fill. At the MLB the handling
//! happens on the thread that did the receive, under the one lock that
//! guards the routing state (`Router`); no thread is woken to route.
//!
//! A message crosses the MLB as the bytes it arrived as: the link
//! thread routes each one where the read left it
//! (`MlbState::relay`) and what it resolves to is written — new
//! envelope, the received PDU or blob behind it — straight into the
//! destination link's egress unit. The workers and the cells, which
//! consume what they receive, decode it in full and encode what they
//! send in place in their own egress unit.

use crate::openloop::poisson_schedule;
use crate::shard_driver::ScaleOutConfig;
use bytes::Bytes;
use scale_core::wire::{
    self, to_cell, Dest, Forward, MlbOut, MlbState, MlbWireStats, MmpNode, Pump, Relay, Tamper,
    WireMsg, WireRole, WireTopo, WireView, WorkerStatus,
};
use scale_core::{BackoffPolicy, HealthTracker, ShardStatsSnapshot};
use scale_epc::{
    home_cell, DriveMode, EmuCounts, EmuEvent, EmulatorConfig, EnbEmulator, ProcKind, SeqClock,
};
use scale_nas::{NasError, Writer};
use scale_sctplite::{
    ppid, BatchItem, EgressUnit, SctpListener, SctpRecvHalf, SctpSendHalf, SctpStream,
    StreamEvent, TransportError,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Bounded egress depth per link (frames not yet on the wire before
/// senders block, or — at the MLB, which never blocks — shed).
const EGRESS_CAP: usize = 4096;
/// Heartbeat tick of the MLB toward its MMP links.
const HB_TICK: Duration = Duration::from_millis(100);
/// What a link gets to come up: a dialler's retries, and at the MLB a
/// connected peer's handshake.
const LINK_BUDGET: Duration = Duration::from_secs(10);
/// Idle poll granularity of the eNB drive loop.
const POLL: Duration = Duration::from_millis(200);
/// Hard per-process run deadline (CI hang guard).
const RUN_DEADLINE: Duration = Duration::from_secs(180);

/// Session admission discipline of a wire run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMode {
    /// Self-clocked: fixed in-flight window per cell, refilled on
    /// completion (comparable to `scale_out`).
    Closed {
        /// In-flight devices per cell.
        window: usize,
    },
    /// Offered load: seeded Poisson arrivals at `rate_hz` total across
    /// the deployment; arrivals beyond the per-cell in-flight cap are
    /// shed and counted.
    Open {
        /// Aggregate session arrival rate (1/s) across all cells.
        rate_hz: f64,
        /// Bounded in-flight backpressure cap per cell.
        max_in_flight: usize,
    },
}

/// Full configuration of one wire deployment run, shared verbatim by
/// every process via argv (`to_args`/`from_args`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRunConfig {
    /// eNodeB-emulator processes (= cells).
    pub n_enbs: usize,
    /// MMP worker processes.
    pub n_mmps: usize,
    /// Total MMP VM fleet striped over the workers.
    pub total_vms: usize,
    /// Replication degree R.
    pub replication: usize,
    /// Virtual tokens per ring node.
    pub ring_tokens: u32,
    /// Workload + HSS seed.
    pub seed: u64,
    /// Devices across the whole deployment.
    pub n_ues: usize,
    /// Idle-mode ops (SR/TAU mix) per device after attach.
    pub ops_per_ue: usize,
    /// Admission discipline.
    pub mode: WireMode,
}

impl WireRunConfig {
    /// The CI smoke shape: small population, everything exercised.
    pub fn smoke() -> Self {
        WireRunConfig {
            n_enbs: 2,
            n_mmps: 2,
            total_vms: 8,
            replication: 2,
            ring_tokens: 64,
            seed: 42,
            n_ues: 400,
            ops_per_ue: 2,
            mode: WireMode::Closed { window: 32 },
        }
    }

    /// The static topology view shared with `scale-core`.
    pub fn topo(&self) -> WireTopo {
        WireTopo {
            n_enbs: self.n_enbs,
            n_mmps: self.n_mmps,
            total_vms: self.total_vms,
            replication: self.replication,
            ring_tokens: self.ring_tokens,
            seed: self.seed,
        }
    }

    /// Cell `cell`'s emulator: its striped share of the population,
    /// admitted in this run's mode.
    pub(crate) fn emulator(&self, cell: usize) -> EnbEmulator {
        EnbEmulator::new(&EmulatorConfig {
            cell,
            n_cells: self.n_enbs,
            n_local_ues: EmulatorConfig::local_share(self.n_ues, self.n_enbs, cell),
            ops_per_ue: self.ops_per_ue,
            seed: self.seed,
            mode: match self.mode {
                WireMode::Closed { window } => DriveMode::Closed { window },
                WireMode::Open { max_in_flight, .. } => DriveMode::Open { max_in_flight },
            },
        })
    }

    /// The `scale_out` configuration this run is compared against:
    /// identical fleet, ring, population and op mix. (`n_shards` is a
    /// thread count there; outcome counts are invariant to it.)
    pub fn scale_out_twin(&self) -> ScaleOutConfig {
        ScaleOutConfig {
            n_shards: self.n_mmps,
            total_vms: self.total_vms,
            replication: self.replication,
            n_ues: self.n_ues,
            ops_per_ue: self.ops_per_ue,
            seed: self.seed,
            window: match self.mode {
                WireMode::Closed { window } => window,
                WireMode::Open { max_in_flight, .. } => max_in_flight,
            },
            ring_tokens: self.ring_tokens,
        }
    }

    /// Serialize as `key=value` argv tokens.
    pub fn to_args(&self) -> Vec<String> {
        let mode = match self.mode {
            WireMode::Closed { window } => format!("mode=closed:{window}"),
            WireMode::Open {
                rate_hz,
                max_in_flight,
            } => format!("mode=open:{rate_hz}:{max_in_flight}"),
        };
        vec![
            format!("n_enbs={}", self.n_enbs),
            format!("n_mmps={}", self.n_mmps),
            format!("total_vms={}", self.total_vms),
            format!("replication={}", self.replication),
            format!("ring_tokens={}", self.ring_tokens),
            format!("seed={}", self.seed),
            format!("n_ues={}", self.n_ues),
            format!("ops_per_ue={}", self.ops_per_ue),
            mode,
        ]
    }

    /// Parse the tokens emitted by [`WireRunConfig::to_args`]. Panics
    /// on malformed input — argv is produced by this module, so a
    /// parse failure is a bug, not an operational condition.
    // lint: allow(unwrap)
    pub fn from_args(args: &[String]) -> WireRunConfig {
        let mut cfg = WireRunConfig::smoke();
        for tok in args {
            let (k, v) = tok
                .split_once('=')
                .unwrap_or_else(|| panic!("bad config token {tok:?}"));
            match k {
                "n_enbs" => cfg.n_enbs = v.parse().unwrap(),
                "n_mmps" => cfg.n_mmps = v.parse().unwrap(),
                "total_vms" => cfg.total_vms = v.parse().unwrap(),
                "replication" => cfg.replication = v.parse().unwrap(),
                "ring_tokens" => cfg.ring_tokens = v.parse().unwrap(),
                "seed" => cfg.seed = v.parse().unwrap(),
                "n_ues" => cfg.n_ues = v.parse().unwrap(),
                "ops_per_ue" => cfg.ops_per_ue = v.parse().unwrap(),
                "mode" => {
                    let parts: Vec<&str> = v.split(':').collect();
                    cfg.mode = match parts[0] {
                        "closed" => WireMode::Closed {
                            window: parts[1].parse().unwrap(),
                        },
                        "open" => WireMode::Open {
                            rate_hz: parts[1].parse().unwrap(),
                            max_in_flight: parts[2].parse().unwrap(),
                        },
                        other => panic!("bad mode {other:?}"),
                    };
                }
                other => panic!("unknown config key {other:?}"),
            }
        }
        cfg
    }
}

/// MMP-side totals of a run (engine counters + residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMmpTotals {
    /// Merged engine counters across workers.
    pub stats: ShardStatsSnapshot,
    /// Contexts resident at quiesce.
    pub contexts_held: u64,
    /// Wire-protocol errors at the workers.
    pub wire_errors: u64,
}

/// Deterministic per-outcome counts of one wire run: identical between
/// the socket deployment, the in-process shuttle, and (summed over its
/// threads, all but the local/remote replica split) the `scale_out`
/// driver with as many cells and workers on the same seeded workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Access-side counts summed over cells.
    pub enb: EmuCounts,
    /// Engine-side totals summed over workers.
    pub mmp: WireMmpTotals,
    /// MLB router counters.
    pub mlb: MlbWireStats,
    /// MMP links re-established after a death.
    pub reconnects: u64,
}

/// Latency summary of one procedure class at one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLatency {
    /// Cell index.
    pub cell: usize,
    /// Procedure name (`attach`, `service_request`, `tau`, `s1_release`).
    pub proc: String,
    /// Completions observed.
    pub count: u64,
    /// Median wire-level latency (µs).
    pub p50_us: u64,
    /// Tail wire-level latency (µs).
    pub p99_us: u64,
}

/// Everything the parent learns from a finished deployment.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// Deterministic counts (the parity/determinism surface).
    pub counts: WireCounts,
    /// Per-cell, per-procedure wire latencies.
    pub latency: Vec<WireLatency>,
    /// Longest cell drive wall time (ms) — offered work / this is the
    /// deployment's throughput denominator.
    pub wall_ms: u64,
    /// Whether every process exited cleanly within the deadline.
    pub clean_exit: bool,
}

/// Every procedure class, in declaration order.
pub(crate) const PROC_KINDS: [ProcKind; 4] = [
    ProcKind::Attach,
    ProcKind::ServiceRequest,
    ProcKind::Tau,
    ProcKind::S1Release,
];

fn add_emu(a: &mut EmuCounts, b: &EmuCounts) {
    a.sessions_done += b.sessions_done;
    a.sessions_shed += b.sessions_shed;
    a.attaches += b.attaches;
    a.service_requests += b.service_requests;
    a.taus += b.taus;
    a.s1_releases += b.s1_releases;
    a.recoveries += b.recoveries;
    a.rejects += b.rejects;
    a.errors += b.errors;
}

impl WireCounts {
    /// Add the counts of more machines (the in-process driver sums one
    /// cell, MLB and worker per thread).
    pub(crate) fn add(&mut self, other: &WireCounts) {
        add_emu(&mut self.enb, &other.enb);
        self.mmp.stats.merge(&other.mmp.stats);
        self.mmp.contexts_held += other.mmp.contexts_held;
        self.mmp.wire_errors += other.mmp.wire_errors;
        let (a, b) = (&mut self.mlb, &other.mlb);
        a.routed_attaches += b.routed_attaches;
        a.routed_idle += b.routed_idle;
        a.forwarded_uplinks += b.forwarded_uplinks;
        a.settled_relayed += b.settled_relayed;
        a.proc_failures += b.proc_failures;
        a.dropped += b.dropped;
        a.errors += b.errors;
        self.reconnects += other.reconnects;
    }
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------------
// Role main-loops (called by the `scale_wired` binary)
// ---------------------------------------------------------------------------

/// The stream every wire message travels on.
pub(crate) const WIRE_STREAM: u16 = 1;

/// Add one wire message to `unit`: `write` encodes it where it leaves
/// from.
fn put_wire(unit: &mut EgressUnit<'_>, write: impl FnOnce(&mut Writer)) {
    unit.message(WIRE_STREAM, ppid::SCALE_STATE, |wire| Writer::extend(wire, write));
}

/// The sending side of a link as the role loops use it: the send half
/// of a split association in a deployment, an association and a buffer
/// in a replay ([`crate::replay`]) — so that what a replay measures and
/// checks is the loop the deployment runs, not a copy of it.
pub(crate) trait WireLink {
    /// [`SctpSendHalf::send_unit`].
    fn send_unit(
        &self,
        messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError>;

    /// [`SctpSendHalf::try_send_unit`].
    fn try_send_unit(
        &self,
        messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError>;

    /// [`SctpSendHalf::try_ping`].
    fn try_ping(&self, nonce: u64) -> Result<(), TransportError>;
}

impl WireLink for SctpSendHalf {
    fn send_unit(
        &self,
        messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        SctpSendHalf::send_unit(self, messages, fill)
    }

    fn try_send_unit(
        &self,
        messages: usize,
        fill: impl FnOnce(&mut EgressUnit<'_>),
    ) -> Result<(), TransportError> {
        SctpSendHalf::try_send_unit(self, messages, fill)
    }

    fn try_ping(&self, nonce: u64) -> Result<(), TransportError> {
        SctpSendHalf::try_ping(self, nonce)
    }
}

fn send_wire(link: &impl WireLink, msg: &WireMsg) -> Result<(), TransportError> {
    link.send_unit(1, |unit| put_wire(unit, |w| msg.encode_into(w)))
}

/// Send `msgs` in order as one egress unit, each encoded straight into
/// it, and leave the vector empty.
fn send_wire_batch(link: &impl WireLink, msgs: &mut Vec<WireMsg>) -> Result<(), TransportError> {
    let res = link.send_unit(msgs.len(), |unit| {
        for msg in msgs.iter() {
            put_wire(unit, |w| msg.encode_into(w));
        }
    });
    msgs.clear();
    res
}

/// Dial `addr` with bounded retry (a respawned worker races the
/// listener; a fresh topology races process startup).
fn connect_retry(addr: &str, tag: u32) -> Result<SctpStream, TransportError> {
    let policy = BackoffPolicy::default();
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        match tokio::runtime::block_on(SctpStream::connect(addr, tag)) {
            Ok(s) => return Ok(s),
            Err(e) => {
                attempt += 1;
                if start.elapsed() > LINK_BUDGET
                    || !policy.may_retry(attempt, start.elapsed().as_secs_f64())
                {
                    return Err(e);
                }
                thread::sleep(Duration::from_secs_f64(
                    policy.delay(attempt, u64::from(tag)).min(0.25),
                ));
            }
        }
    }
}

/// Block for the link's next event, then take every message the same
/// read delivered, decoded, into `msgs`: under load the backlog is the
/// batch, on a quiet link the batch is one message. Returns how many
/// payloads were not a `WireMsg`; `Err` once the link is down and
/// everything before that has been handed over.
fn recv_batch(
    who: &str,
    rh: &mut SctpRecvHalf,
    events: &mut Vec<StreamEvent>,
    msgs: &mut Vec<WireMsg>,
) -> Result<u64, TransportError> {
    tokio::runtime::block_on(rh.next_events(events))?;
    Ok(decode_batch(who, events, msgs))
}

/// Decode the messages of `events` into `msgs`, leaving `events` empty.
/// Returns how many payloads were not a `WireMsg`.
fn decode_batch(who: &str, events: &mut Vec<StreamEvent>, msgs: &mut Vec<WireMsg>) -> u64 {
    let mut undecodable = 0;
    for ev in events.drain(..) {
        if let StreamEvent::Data { payload, .. } = ev {
            match WireMsg::decode(payload) {
                Ok(m) => msgs.push(m),
                Err(e) => {
                    undecodable += 1;
                    eprintln!("{who}: undecodable wire message: {e}");
                }
            }
        }
    }
    undecodable
}

enum LinkIn {
    Msgs(Vec<WireMsg>),
    Down,
}

/// Pump one recv half into a channel as batches of decoded wire
/// messages. Thread entry: owns its Sender clone so the channel lives
/// exactly as long as the pump.
#[allow(clippy::needless_pass_by_value)]
fn pump_link(who: String, mut rh: SctpRecvHalf, tx: Sender<LinkIn>) {
    let mut events = Vec::new();
    let mut msgs = Vec::new();
    loop {
        match recv_batch(&who, &mut rh, &mut events, &mut msgs) {
            Ok(_) => {
                if !msgs.is_empty() && tx.send(LinkIn::Msgs(std::mem::take(&mut msgs))).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(LinkIn::Down);
                return;
            }
        }
    }
}

struct LatStore {
    samples: [Vec<u64>; 4],
}

impl LatStore {
    fn new() -> Self {
        LatStore {
            samples: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
        }
    }

    fn push(&mut self, kind: ProcKind, elapsed: Duration) {
        // PROC_KINDS is ProcKind in declaration order.
        self.samples[kind as usize].push(elapsed.as_micros() as u64);
    }

    fn report_fields(&mut self) -> String {
        let mut s = String::new();
        for (i, kind) in PROC_KINDS.iter().enumerate() {
            self.samples[i].sort_unstable();
            let v = &self.samples[i];
            let name = kind.name();
            s.push_str(&format!(
                " {name}_n={} {name}_p50_us={} {name}_p99_us={}",
                v.len(),
                pct(v, 0.50),
                pct(v, 0.99),
            ));
        }
        s
    }
}

/// eNodeB-emulator process main: drive the cell's population through
/// the MLB link, measure wire-level per-procedure latency, print one
/// `REPORT` line, exit 0 on success.
pub fn run_enb(cfg: &WireRunConfig, cell: usize, addr: &str) -> i32 {
    let n_local = EmulatorConfig::local_share(cfg.n_ues, cfg.n_enbs, cell);
    let mut emu = cfg.emulator(cell);
    let enb_id = emu.enb_id();

    let stream = match connect_retry(addr, enb_id) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("enb {cell}: cannot reach MLB at {addr}: {e}");
            return 2;
        }
    };
    let (link, rh) = stream.into_split(EGRESS_CAP);
    let (tx, rx) = channel();
    thread::spawn(move || pump_link(format!("enb {cell}"), rh, tx));

    let mut lat = LatStore::new();
    let hello = WireMsg::Hello {
        role: WireRole::Enb,
        id: cell as u32,
    };
    let setup = WireMsg::Uplink {
        enb_id,
        attach_hint: None,
        pdu: emu.s1_setup_request(),
    };
    if send_wire(&link, &hello).is_err() || send_wire(&link, &setup).is_err() {
        eprintln!("enb {cell}: link lost during setup");
        return 2;
    }

    let schedule = match cfg.mode {
        WireMode::Open { rate_hz, .. } => poisson_schedule(
            cfg.seed ^ (0x0E9B_0000 + cell as u64),
            rate_hz / cfg.n_enbs as f64,
            n_local,
        ),
        WireMode::Closed { .. } => Vec::new(),
    };

    emu.start();
    let t0 = Instant::now();
    let mut next_arrival = 0usize;
    let mut link_down = false;
    let mut uplinks = Vec::new();
    'drive: while !emu.done() {
        if t0.elapsed() > RUN_DEADLINE {
            eprintln!(
                "enb {cell}: deadline exceeded ({} of {} sessions done)",
                emu.counts.sessions_done + emu.counts.sessions_shed,
                n_local
            );
            return 3;
        }
        while next_arrival < schedule.len() && t0.elapsed() >= schedule[next_arrival] {
            emu.arrival();
            next_arrival += 1;
        }
        // Flush drive output before blocking: admissions/arrivals
        // above and the downlinks handled below may have produced
        // uplinks; all of them leave as one egress unit.
        for ev in emu.drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => uplinks.push(WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                }),
                EmuEvent::Completed { kind, elapsed } => lat.push(kind, elapsed),
            }
        }
        if send_wire_batch(&link, &mut uplinks).is_err() {
            link_down = true;
            break 'drive;
        }
        let wait = if next_arrival < schedule.len() {
            schedule[next_arrival].saturating_sub(t0.elapsed()).min(POLL)
        } else {
            POLL
        };
        match rx.recv_timeout(wait) {
            Ok(LinkIn::Msgs(msgs)) => {
                for msg in msgs {
                    to_cell(&mut emu, msg);
                }
            }
            Ok(LinkIn::Down) | Err(RecvTimeoutError::Disconnected) => {
                link_down = true;
                break 'drive;
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    let wall_ms = t0.elapsed().as_millis() as u64;
    if link_down && !emu.done() {
        eprintln!("enb {cell}: MLB link lost mid-drive");
        return 2;
    }

    let c = emu.counts;
    println!(
        "REPORT role=enb cell={cell} sessions_done={} sessions_shed={} attaches={} \
         service_requests={} taus={} s1_releases={} recoveries={} rejects={} errors={} \
         wall_ms={wall_ms}{}",
        c.sessions_done,
        c.sessions_shed,
        c.attaches,
        c.service_requests,
        c.taus,
        c.s1_releases,
        c.recoveries,
        c.rejects,
        c.errors,
        lat.report_fields(),
    );
    for e in emu.error_samples() {
        eprintln!("enb {cell}: {e}");
    }
    // Drain the egress queue before exiting so the final uplinks (and
    // the shutdown) actually reach the wire.
    let flush_deadline = Instant::now() + Duration::from_secs(2);
    let _ = link.shutdown_send();
    while link.pending() > 0 && Instant::now() < flush_deadline {
        thread::sleep(Duration::from_millis(5));
    }
    0
}

/// A worker's engines and the buffers its loop reuses from one read to
/// the next.
pub(crate) struct MmpLoop {
    who: String,
    pub(crate) node: MmpNode,
    /// What the last receive delivered; [`MmpLoop::serve`] empties it.
    pub(crate) events: Vec<StreamEvent>,
    msgs: Vec<WireMsg>,
    out: Vec<WireMsg>,
}

impl MmpLoop {
    pub(crate) fn new(index: usize, node: MmpNode) -> MmpLoop {
        MmpLoop {
            who: format!("mmp {index}"),
            node,
            events: Vec::new(),
            msgs: Vec::new(),
            out: Vec::new(),
        }
    }

    /// One turn of the worker's loop: decode everything the receive
    /// delivered, handle all of it, then send what that produced as one
    /// egress unit on `link`.
    pub(crate) fn serve(&mut self, link: &impl WireLink) -> Result<(), TransportError> {
        self.node.errors += decode_batch(&self.who, &mut self.events, &mut self.msgs);
        for msg in self.msgs.drain(..) {
            self.node.handle(msg, &mut self.out);
        }
        send_wire_batch(link, &mut self.out)
    }
}

/// MMP worker process main: engines behind the MLB link. Runs until
/// the MLB closes the association, then prints one `REPORT` line.
pub fn run_mmp(cfg: &WireRunConfig, index: usize, addr: &str) -> i32 {
    let topo = cfg.topo();
    let node = MmpNode::with_clock(&topo, index, SeqClock::Wall);
    let stream = match connect_retry(addr, 0x4D4D_0000 + index as u32) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mmp {index}: cannot reach MLB at {addr}: {e}");
            return 2;
        }
    };
    let (link, mut rh) = stream.into_split(EGRESS_CAP);
    if send_wire(
        &link,
        &WireMsg::Hello {
            role: WireRole::Mmp,
            id: index as u32,
        },
    )
    .is_err()
    {
        eprintln!("mmp {index}: link lost during hello");
        return 2;
    }

    // Handle every buffered input, then send what they produced as one
    // egress unit.
    let mut worker = MmpLoop::new(index, node);
    while tokio::runtime::block_on(rh.next_events(&mut worker.events)).is_ok() {
        if worker.serve(&link).is_err() {
            break;
        }
    }
    let node = worker.node;

    let s = node.stats();
    println!(
        "REPORT role=mmp index={index} messages={} attaches={} service_requests={} taus={} \
         detaches={} idles={} rejects={} replicas_imported={} replicas_sent={} \
         strays_dropped={} errors={} wire_errors={} contexts_held={}",
        s.messages,
        s.attaches,
        s.service_requests,
        s.taus,
        s.detaches,
        s.idles,
        s.rejects,
        s.replicas_imported,
        s.replicas_sent,
        s.strays_dropped,
        s.errors,
        node.errors,
        node.contexts_held(),
    );
    for e in node.error_samples() {
        eprintln!("mmp {index}: {e}");
    }
    0
}

/// One live link in the MLB's table.
struct Link<L> {
    link: L,
    /// Which registration of this `(role, id)` slot the link is: a
    /// reader that reports its link down names the generation it was
    /// given, so it cannot take down a successor.
    gen: u64,
    /// Nonce of an unanswered heartbeat, if one is outstanding (worker
    /// links only).
    outstanding: Option<u64>,
}

/// One message on its way out of the MLB, waiting in its link's run for
/// the flush that ends the event.
enum Piece {
    /// A received message going on as the bytes it is: `at` is where it
    /// lies in the read buffer of the link being served.
    Relayed { fwd: Forward, at: Range<usize> },
    /// The same for a message that came out of the reorder buffer and
    /// so is not in the read buffer: the piece keeps it.
    Held { fwd: Forward, payload: Bytes },
    /// A message the MLB made itself.
    Typed(WireMsg),
}

impl Piece {
    /// The device whose procedure this opens at a worker, if any.
    fn opens_procedure_of(&self) -> Option<u32> {
        match self {
            Piece::Relayed { fwd, .. } | Piece::Held { fwd, .. } => fwd.opens_procedure_of(),
            Piece::Typed(msg) => msg.opens_procedure_of(),
        }
    }
}

/// Hand `run` to `link` as one egress unit, each piece written straight
/// into it — a relayed one as its new envelope and the received bytes
/// behind it — without ever waiting for the peer. On `Err` nothing was
/// sent.
fn try_send_run(link: &impl WireLink, run: &[Piece], read: &[u8]) -> Result<(), TransportError> {
    link.try_send_unit(run.len(), |unit| {
        for piece in run {
            put_wire(unit, |w| match piece {
                Piece::Relayed { fwd, at } => fwd.write(&read[at.start..at.end], w),
                Piece::Held { fwd, payload } => fwd.write(payload, w),
                Piece::Typed(msg) => msg.encode_into(w),
            });
        }
    })
}

/// Everything the MLB routes with: the sans-IO [`MlbState`], the link
/// table, worker health, and the per-link output runs. One mutex
/// guards all of it. A link's own thread takes it for each event of
/// its link — the link coming up, a read's worth of messages, the link
/// going down — and flushes what the event produced before letting go,
/// so every step is as atomic, and output per link as ordered, as when
/// one thread owned this state behind a channel.
///
/// Nothing done under the lock waits for a peer: sends are
/// `try_send_unit` and `try_ping`, and what cannot go out is
/// shed ([`Router::shed`]). A send that could block here would turn one
/// stalled worker into a stalled — with that worker's own reader
/// waiting for the lock, deadlocked — fleet.
pub(crate) struct Router<L> {
    pub(crate) mlb: MlbState,
    enb_links: Vec<Option<Link<L>>>,
    mmp_links: Vec<Option<Link<L>>>,
    mmp_ever_down: Vec<bool>,
    health: HealthTracker,
    reconnects: u64,
    enbs_closed: usize,
    next_nonce: u64,
    next_gen: u64,
    announced_ready: bool,
    /// Reused across events; empty whenever the lock is free.
    out: Vec<MlbOut>,
    enb_runs: Vec<Vec<Piece>>,
    mmp_runs: Vec<Vec<Piece>>,
}

impl<L: WireLink> Router<L> {
    pub(crate) fn new(cfg: &WireRunConfig) -> Router<L> {
        Router {
            mlb: MlbState::new(&cfg.topo()),
            enb_links: (0..cfg.n_enbs).map(|_| None).collect(),
            mmp_links: (0..cfg.n_mmps).map(|_| None).collect(),
            mmp_ever_down: vec![false; cfg.n_mmps],
            health: HealthTracker::new(scale_core::HealthConfig::default()),
            reconnects: 0,
            enbs_closed: 0,
            next_nonce: 1,
            next_gen: 0,
            announced_ready: false,
            out: Vec::new(),
            enb_runs: (0..cfg.n_enbs).map(|_| Vec::new()).collect(),
            mmp_runs: (0..cfg.n_mmps).map(|_| Vec::new()).collect(),
        }
    }

    /// A link said `Hello`. Returns the generation to name when it
    /// goes down. An id outside the topology gets no slot: nothing is
    /// ever routed to it.
    pub(crate) fn linked(&mut self, role: WireRole, id: usize, link: L) -> u64 {
        self.next_gen += 1;
        let entry = Link {
            link,
            gen: self.next_gen,
            outstanding: None,
        };
        match role {
            WireRole::Enb => {
                if let Some(slot) = self.enb_links.get_mut(id) {
                    *slot = Some(entry);
                }
            }
            WireRole::Mmp if id < self.mmp_links.len() => {
                if self.mmp_links[id].is_some() {
                    // Replaced without an observed death: fail the old
                    // link first, over the links as they were.
                    self.take_down(WireRole::Mmp, id);
                    self.flush(&[]);
                }
                self.mmp_links[id] = Some(entry);
                self.health.mark_up(id as u32);
                if self.mmp_ever_down[id] {
                    self.reconnects += 1;
                    self.mlb.on_mmp_reconnected(id, &mut self.out);
                }
            }
            WireRole::Mmp => {}
        }
        self.flush(&[]);
        self.next_gen
    }

    /// True once: when every worker has linked for the first time.
    fn fleet_ready(&mut self) -> bool {
        let ready = !self.announced_ready && self.mmp_links.iter().all(Option::is_some);
        self.announced_ready |= ready;
        ready
    }

    /// Everything one receive on the link of `(role, id)` delivered, in
    /// order; `read` is that link's read buffer, where the messages
    /// lie (one that waited in the reorder buffer brings the copy that
    /// was made of it). `Err` at the first message that is not one of ours — what
    /// came before it has been routed, what comes after is not looked
    /// at, and the caller drops the link.
    pub(crate) fn route(
        &mut self,
        role: WireRole,
        id: usize,
        read: &[u8],
        items: impl Iterator<Item = BatchItem>,
    ) -> Result<(), NasError> {
        let mut res = Ok(());
        for item in items {
            let step = match item {
                BatchItem::Data { at, .. } => self
                    .mlb
                    .relay(role, id, &read[at.start..at.end])
                    .map(|relay| self.place(relay, |fwd| Piece::Relayed { fwd, at })),
                BatchItem::Held { payload, .. } => self
                    .mlb
                    .relay(role, id, &payload)
                    .map(|relay| self.place(relay, |fwd| Piece::Held { fwd, payload })),
                BatchItem::HeartbeatAck { .. } => {
                    if role == WireRole::Mmp {
                        self.pong(id);
                    }
                    Ok(())
                }
            };
            if let Err(e) = step {
                res = Err(e);
                break;
            }
        }
        self.flush(read);
        res
    }

    /// Queue what a received message resolved to; `piece` makes the
    /// piece of one that goes on.
    fn place(&mut self, relay: Relay, piece: impl FnOnce(Forward) -> Piece) {
        match relay {
            Relay::Forward(fwd) => self.enqueue(fwd.dest, piece(fwd)),
            Relay::Reply(out) => self.enqueue_out(out),
            Relay::Nothing => {}
        }
    }

    /// Worker `id` answered a heartbeat.
    fn pong(&mut self, id: usize) {
        if let Some(Some(l)) = self.mmp_links.get_mut(id) {
            l.outstanding = None;
            self.health.heartbeat_ok(id as u32);
        }
    }

    /// The reader of registration `gen` of `(role, id)` lost its link.
    fn down(&mut self, role: WireRole, id: usize, gen: u64) {
        if matches!(self.side(role).1.get(id), Some(Some(l)) if l.gen == gen) {
            self.take_down(role, id);
            self.flush(&[]);
        }
    }

    /// Heartbeat tick: ping every live worker link; a ping still
    /// unanswered from the previous tick is a miss, and enough misses
    /// take the link down even without a TCP-level error. A ping that
    /// does not fit behind a full egress counts as sent — a worker that
    /// far behind is not answering either.
    fn tick(&mut self) {
        for id in 0..self.mmp_links.len() {
            let Some(l) = self.mmp_links[id].as_mut() else {
                continue;
            };
            if l.outstanding.is_some() && self.health.miss_heartbeat(id as u32) {
                self.take_down(WireRole::Mmp, id);
                continue;
            }
            self.next_nonce += 1;
            if matches!(
                l.link.try_ping(self.next_nonce),
                Ok(()) | Err(TransportError::Full)
            ) {
                l.outstanding = Some(self.next_nonce);
            }
        }
        self.flush(&[]);
    }

    /// Remove a live link from the table and let the routing state
    /// react; what that produces waits in `out` for the next flush.
    fn take_down(&mut self, role: WireRole, id: usize) {
        match role {
            WireRole::Enb => {
                if self.enb_links[id].take().is_some() {
                    self.enbs_closed += 1;
                }
            }
            WireRole::Mmp => {
                if self.mmp_links[id].take().is_some() {
                    self.mmp_ever_down[id] = true;
                    self.health.mark_down(id as u32);
                    self.mlb.on_mmp_down(id, &mut self.out);
                }
            }
        }
    }

    /// The output runs and the links of one side of the star.
    fn side(&mut self, role: WireRole) -> (&mut [Vec<Piece>], &[Option<Link<L>>]) {
        match role {
            WireRole::Enb => (&mut self.enb_runs, &self.enb_links),
            WireRole::Mmp => (&mut self.mmp_runs, &self.mmp_links),
        }
    }

    /// Put `piece` in the run of the link it leaves on, behind what is
    /// already there; a link that is not up sheds it.
    fn enqueue(&mut self, dest: Dest, piece: Piece) {
        let (role, id) = match dest {
            Dest::Enb(enb) => (WireRole::Enb, enb),
            Dest::Mmp(mmp) => (WireRole::Mmp, mmp),
        };
        let (runs, links) = self.side(role);
        match (runs.get_mut(id), links.get(id)) {
            (Some(run), Some(Some(_))) => run.push(piece),
            _ => self.shed(&piece),
        }
    }

    fn enqueue_out(&mut self, out: MlbOut) {
        match out {
            MlbOut::Enb { enb, msg } => self.enqueue(Dest::Enb(enb), Piece::Typed(msg)),
            MlbOut::Mmp { mmp, msg } => self.enqueue(Dest::Mmp(mmp), Piece::Typed(msg)),
        }
    }

    /// Move `out` into the per-link runs, order within a link kept.
    fn sort_out(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        for o in out.drain(..) {
            self.enqueue_out(o);
        }
        // Shedding may have produced more; keep it, and the capacity.
        out.append(&mut self.out);
        self.out = out;
    }

    /// The one way a message the MLB cannot hand on — its link is not
    /// up, or the link's egress is full — leaves: counted in `dropped`,
    /// and if it opened a procedure at a worker, that procedure's pin
    /// and load charge are released and it is failed back to the
    /// device's home cell as `ProcFailed`, so the access side re-drives
    /// it. Anything else is gone (a worker that far behind misses its
    /// heartbeats, and going down fails whatever it had in flight).
    fn shed(&mut self, piece: &Piece) {
        self.mlb.stats.dropped += 1;
        if let Some(m_tmsi) = piece.opens_procedure_of() {
            self.mlb.release_inflight(m_tmsi);
            if let Some(enb) = home_cell(m_tmsi, self.enb_links.len()) {
                self.out.push(MlbOut::Enb {
                    enb,
                    msg: WireMsg::ProcFailed { m_tmsi },
                });
            }
        }
    }

    /// Send everything in `out` and in the runs, one egress unit per
    /// link, worker-bound links before eNB-bound ones: a `Replicate` is
    /// queued toward its holder before the `Settled` that lets the
    /// device move on is queued toward its cell. `read` is what the
    /// relayed pieces index (empty when the event received nothing).
    ///
    /// A link whose egress is full sheds its run. A link that turns out
    /// broken goes down here and now, its run counted as dropped, and
    /// what that produces is flushed in turn.
    fn flush(&mut self, read: &[u8]) {
        loop {
            let mut lost = Vec::new();
            for role in [WireRole::Mmp, WireRole::Enb] {
                self.sort_out();
                for id in 0..self.side(role).0.len() {
                    let (runs, links) = self.side(role);
                    if runs[id].is_empty() {
                        continue;
                    }
                    let mut run = std::mem::take(&mut runs[id]);
                    match links[id].as_ref().map(|l| try_send_run(&l.link, &run, read)) {
                        Some(Ok(())) => {}
                        Some(Err(TransportError::Full)) | None => {
                            run.iter().for_each(|piece| self.shed(piece));
                        }
                        Some(Err(_)) => {
                            self.mlb.stats.dropped += run.len() as u64;
                            lost.push((role, id));
                        }
                    }
                    run.clear();
                    self.side(role).0[id] = run;
                }
            }
            for (role, id) in lost {
                self.take_down(role, id);
            }
            if self.out.is_empty() {
                return;
            }
        }
    }
}

/// The MLB's routing state as its threads share it.
struct MlbShared {
    router: Mutex<Router<SctpSendHalf>>,
    /// Signalled when a link has gone down: the main thread re-checks
    /// its exit condition.
    link_down: Condvar,
}

impl MlbShared {
    /// A link thread that panicked mid-event has lost its own link's
    /// output at worst; the rest of the fleet carries on.
    fn lock(&self) -> MutexGuard<'_, Router<SctpSendHalf>> {
        self.router.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-accepted-connection thread on the MLB: sctplite handshake under
/// the link budget, then the first message must be a `Hello`, then
/// every read's worth of messages is routed right here, under the
/// router lock. A peer that stalls or babbles at any stage costs this
/// thread and nothing else; one that sends anything undecodable is not
/// one of ours and its link is dropped.
#[allow(clippy::needless_pass_by_value)]
fn mlb_link_loop(tcp: tokio::net::TcpStream, tag: u32, shared: Arc<MlbShared>) {
    let handshake = tokio::time::timeout(LINK_BUDGET, SctpStream::accept(tcp, tag));
    let stream = match tokio::runtime::block_on(handshake) {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => {
            eprintln!("mlb: handshake failed: {e}; dropping");
            return;
        }
        Err(_) => {
            eprintln!("mlb: no handshake within {LINK_BUDGET:?}; dropping");
            return;
        }
    };
    let (sh, mut rh) = stream.into_split(EGRESS_CAP);
    // The Hello may arrive with the peer's first messages behind it.
    let Ok(mut batch) = tokio::runtime::block_on(rh.next_batch()) else {
        return;
    };
    let read = batch.bytes();
    let hello = match batch.next() {
        Some(BatchItem::Data { at, .. }) => WireView::parse(&read[at]).ok(),
        _ => None,
    };
    let Some(WireView::Hello { role, id }) = hello else {
        eprintln!("mlb: link did not start with Hello; dropping");
        return;
    };
    let id = id as usize;
    let (gen, mut routed) = {
        let mut router = shared.lock();
        let gen = router.linked(role, id, sh);
        // Fleet-ready barrier: the orchestrator starts cells only after
        // this line, so no uplink can be routed to a worker whose Hello
        // is still in flight.
        if router.fleet_ready() {
            println!("READY");
            let _ = std::io::stdout().flush();
        }
        (gen, router.route(role, id, read, batch))
    };
    loop {
        if let Err(e) = routed {
            eprintln!("mlb: dropping {role:?} {id} after a message that is not ours: {e}");
            break;
        }
        match tokio::runtime::block_on(rh.next_batch()) {
            Ok(batch) => routed = shared.lock().route(role, id, batch.bytes(), batch),
            Err(_) => break,
        }
    }
    shared.lock().down(role, id, gen);
    shared.link_down.notify_one();
}

/// MLB front process main: bind, announce `PORT`, let the link threads
/// route between eNB and MMP links until every eNB link has closed,
/// then print one `REPORT` line. The main thread itself keeps the run
/// deadline, the exit condition and the heartbeat tick.
pub fn run_mlb(cfg: &WireRunConfig) -> i32 {
    let mut listener = match tokio::runtime::block_on(SctpListener::bind("127.0.0.1:0")) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mlb: bind failed: {e}");
            return 2;
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(0);
    println!("PORT {port}");
    let _ = std::io::stdout().flush();

    let shared = Arc::new(MlbShared {
        router: Mutex::new(Router::new(cfg)),
        link_down: Condvar::new(),
    });
    // The accept thread takes TCP connections and nothing more; each
    // link's handshake runs on the link's own thread.
    let accept_shared = Arc::clone(&shared);
    thread::spawn(move || loop {
        match tokio::runtime::block_on(listener.accept_tcp()) {
            Ok((tcp, tag)) => {
                let shared = Arc::clone(&accept_shared);
                thread::spawn(move || mlb_link_loop(tcp, tag, shared));
            }
            Err(e) => {
                // One connection's failure (reset before accept, out
                // of descriptors for a moment) is not the listener's.
                eprintln!("mlb: accept failed: {e}");
                thread::sleep(Duration::from_millis(10));
            }
        }
    });

    let start = Instant::now();
    let mut router = shared.lock();
    while router.enbs_closed < cfg.n_enbs {
        if start.elapsed() > RUN_DEADLINE {
            eprintln!(
                "mlb: deadline exceeded with {}/{} eNBs closed",
                router.enbs_closed, cfg.n_enbs
            );
            return 3;
        }
        let (guard, wait) = shared
            .link_down
            .wait_timeout(router, HB_TICK)
            .unwrap_or_else(PoisonError::into_inner);
        router = guard;
        if wait.timed_out() {
            router.tick();
        }
    }

    let s = router.mlb.stats;
    let reconnects = router.reconnects;
    println!(
        "REPORT role=mlb routed_attaches={} routed_idle={} forwarded_uplinks={} \
         settled_relayed={} proc_failures={} dropped={} errors={} reconnects={reconnects}",
        s.routed_attaches,
        s.routed_idle,
        s.forwarded_uplinks,
        s.settled_relayed,
        s.proc_failures,
        s.dropped,
        s.errors,
    );
    // Link-metrics export (DESIGN.md §14): publish the router counters
    // through the shared observability registry and emit them as one
    // `METRICS k=v ...` line — ignored by the parent's REPORT parser,
    // scrape-ready for anything tailing the MLB's stdout.
    let links_live =
        router.enb_links.iter().flatten().count() + router.mmp_links.iter().flatten().count();
    let observer = scale_core::WireLinkObserver::new(Arc::new(scale_obs::Registry::new()));
    observer.publish(&s, reconnects, links_live as u64);
    println!("METRICS {}", scale_obs::report_kv(observer.registry()));
    // Let per-link egress queues drain before the process exit tears
    // the TCP streams down (enqueued != delivered).
    let workers: Vec<SctpSendHalf> = router
        .mmp_links
        .iter()
        .flatten()
        .map(|l| l.link.clone())
        .collect();
    drop(router);
    let flush_deadline = Instant::now() + Duration::from_secs(2);
    while workers.iter().any(|l| l.pending() > 0) && Instant::now() < flush_deadline {
        thread::sleep(Duration::from_millis(5));
    }
    0
}

// ---------------------------------------------------------------------------
// Parent-side orchestration
// ---------------------------------------------------------------------------

struct ChildProc {
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl ChildProc {
    // Harness plumbing: a poisoned line-buffer mutex or unpiped stdout
    // is a bug in this module, and the parent is a test/bench driver —
    // panicking is the designed failure mode.
    // lint: allow(unwrap)
    fn spawn(bin: &str, args: &[String]) -> std::io::Result<ChildProc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let drain = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Ok(ChildProc {
            child,
            lines,
            drain: Some(drain),
        })
    }

    /// Poll the child's stdout for a line `pick` accepts, for at most
    /// 20 s; on timeout the child is killed and `what` is the error.
    // lint: allow(unwrap)
    fn await_line<T>(
        &mut self,
        what: &str,
        pick: impl Fn(&str) -> Option<T>,
    ) -> std::io::Result<T> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(v) = self.lines.lock().unwrap().iter().find_map(|l| pick(l)) {
                return Ok(v);
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, what));
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Wait for exit within `deadline`; kill on timeout. Returns
    /// whether the child exited on its own with status 0.
    fn finish(&mut self, deadline: Instant) -> bool {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(d) = self.drain.take() {
                        let _ = d.join();
                    }
                    return status.success();
                }
                Ok(None) => {
                    if Instant::now() > deadline {
                        let _ = self.child.kill();
                        let _ = self.child.wait();
                        if let Some(d) = self.drain.take() {
                            let _ = d.join();
                        }
                        return false;
                    }
                    thread::sleep(Duration::from_millis(20));
                }
                Err(_) => return false,
            }
        }
    }

    // lint: allow(unwrap)
    fn report(&self) -> HashMap<String, u64> {
        let lines = self.lines.lock().unwrap();
        let mut map = HashMap::new();
        for line in lines.iter() {
            let Some(rest) = line.strip_prefix("REPORT ") else {
                continue;
            };
            for tok in rest.split_whitespace() {
                if let Some((k, v)) = tok.split_once('=') {
                    if let Ok(n) = v.parse::<u64>() {
                        map.insert(k.to_string(), n);
                    }
                }
            }
        }
        map
    }
}

/// A running wire deployment: the MLB, its workers and its cells as
/// real child processes.
pub struct WireDeployment {
    bin: String,
    cfg: WireRunConfig,
    addr: String,
    mlb: ChildProc,
    /// By worker index; `None` where the caller stands in for the
    /// worker ([`spawn_topology_with`]).
    mmps: Vec<Option<ChildProc>>,
    enbs: Vec<ChildProc>,
}

/// Spawn the full topology from the `scale_wired` binary at `bin`:
/// one MLB (which picks its port), `n_mmps` workers, `n_enbs` cells.
/// Returns once every process is launched; the run proceeds in the
/// background until [`WireDeployment::finish`].
pub fn spawn_topology(bin: &str, cfg: &WireRunConfig) -> std::io::Result<WireDeployment> {
    spawn_topology_with(bin, cfg, |_, _| false)
}

/// [`spawn_topology`] with the caller in the room while the fleet links
/// up. Before each worker is spawned, `stand_in(index, mlb_addr)` is
/// asked whether the caller plays that worker itself — a test's
/// stalled, slow or hostile peer, dialled from the test process. The
/// cells start, as always, once the MLB has heard a `Hello` from every
/// worker, real or played.
// lint: allow(unwrap)
pub fn spawn_topology_with(
    bin: &str,
    cfg: &WireRunConfig,
    mut stand_in: impl FnMut(usize, &str) -> bool,
) -> std::io::Result<WireDeployment> {
    let cfg_args = cfg.to_args();
    let mut mlb_args = vec!["--role".to_string(), "mlb".to_string()];
    mlb_args.extend(cfg_args.iter().cloned());
    let mut mlb = ChildProc::spawn(bin, &mlb_args)?;

    // The MLB prints `PORT <n>` once its listener is bound.
    let port = mlb.await_line("MLB did not announce its port", |l| {
        l.strip_prefix("PORT ").and_then(|p| p.parse::<u16>().ok())
    })?;
    let addr = format!("127.0.0.1:{port}");

    let child_args = |role: &str, key: &str, idx: usize| {
        let mut a = vec![
            "--role".to_string(),
            role.to_string(),
            key.to_string(),
            idx.to_string(),
            "--addr".to_string(),
            addr.clone(),
        ];
        a.extend(cfg_args.iter().cloned());
        a
    };
    let mut mmps = Vec::with_capacity(cfg.n_mmps);
    for i in 0..cfg.n_mmps {
        mmps.push(if stand_in(i, &addr) {
            None
        } else {
            Some(ChildProc::spawn(bin, &child_args("mmp", "--index", i))?)
        });
    }
    // Fleet-ready barrier: the MLB prints `READY` once it has processed
    // every worker's `Hello`. Cells start only then — an uplink routed
    // to a worker the MLB does not know yet would be dropped.
    if let Err(e) = mlb.await_line("MMP workers did not link to the MLB", |l| {
        (l == "READY").then_some(())
    }) {
        for w in mmps.iter_mut().flatten() {
            let _ = w.child.kill();
        }
        return Err(e);
    }
    let mut enbs = Vec::with_capacity(cfg.n_enbs);
    for c in 0..cfg.n_enbs {
        enbs.push(ChildProc::spawn(bin, &child_args("enb", "--cell", c))?);
    }
    Ok(WireDeployment {
        bin: bin.to_string(),
        cfg: cfg.clone(),
        addr,
        mlb,
        mmps,
        enbs,
    })
}

impl WireDeployment {
    /// The MLB's listening address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Process id of the MLB, for reading its `/proc` entries.
    pub fn mlb_pid(&self) -> u32 {
        self.mlb.child.id()
    }

    /// Cells whose process has already exited. A chaos test checks this
    /// is 0 when it injects its fault: a run that is already over
    /// exercises nothing.
    pub fn cells_exited(&mut self) -> usize {
        let mut exited = 0;
        for e in &mut self.enbs {
            if !matches!(e.child.try_wait(), Ok(None)) {
                exited += 1;
            }
        }
        exited
    }

    /// SIGKILL worker `index` mid-run (chaos injection). The report of
    /// the killed process is lost by construction.
    pub fn kill_mmp(&mut self, index: usize) -> std::io::Result<()> {
        let Some(w) = self.mmps[index].as_mut() else {
            return Err(std::io::Error::other("worker is played by the caller"));
        };
        w.child.kill()?;
        w.child.wait()?;
        Ok(())
    }

    /// Respawn worker `index` after [`WireDeployment::kill_mmp`]; the
    /// fresh process re-dials the MLB and re-announces itself.
    pub fn respawn_mmp(&mut self, index: usize) -> std::io::Result<()> {
        let mut args = vec![
            "--role".to_string(),
            "mmp".to_string(),
            "--index".to_string(),
            index.to_string(),
            "--addr".to_string(),
            self.addr.clone(),
        ];
        args.extend(self.cfg.to_args());
        self.mmps[index] = Some(ChildProc::spawn(&self.bin, &args)?);
        Ok(())
    }

    /// Wait for the run to complete and aggregate every report.
    pub fn finish(mut self) -> WireOutcome {
        let deadline = Instant::now() + RUN_DEADLINE + Duration::from_secs(20);
        let mut clean = true;
        // eNBs finish first (their drive completing is what ends the
        // run), then the MLB, then the workers observe EOF.
        for e in &mut self.enbs {
            clean &= e.finish(deadline);
        }
        clean &= self.mlb.finish(deadline);
        for m in self.mmps.iter_mut().flatten() {
            clean &= m.finish(deadline);
        }

        let mut counts = WireCounts::default();
        let mut latency = Vec::new();
        let mut wall_ms = 0u64;
        let g = |m: &HashMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
        for (cell, e) in self.enbs.iter().enumerate() {
            let m = e.report();
            if m.is_empty() {
                clean = false;
                continue;
            }
            add_emu(
                &mut counts.enb,
                &EmuCounts {
                    sessions_done: g(&m, "sessions_done"),
                    sessions_shed: g(&m, "sessions_shed"),
                    attaches: g(&m, "attaches"),
                    service_requests: g(&m, "service_requests"),
                    taus: g(&m, "taus"),
                    s1_releases: g(&m, "s1_releases"),
                    recoveries: g(&m, "recoveries"),
                    rejects: g(&m, "rejects"),
                    errors: g(&m, "errors"),
                },
            );
            wall_ms = wall_ms.max(g(&m, "wall_ms"));
            for kind in PROC_KINDS {
                let name = kind.name();
                latency.push(WireLatency {
                    cell,
                    proc: name.to_string(),
                    count: g(&m, &format!("{name}_n")),
                    p50_us: g(&m, &format!("{name}_p50_us")),
                    p99_us: g(&m, &format!("{name}_p99_us")),
                });
            }
        }
        for w in self.mmps.iter().flatten() {
            let m = w.report();
            if m.is_empty() {
                clean = false;
                continue;
            }
            counts.mmp.stats.merge(&ShardStatsSnapshot {
                messages: g(&m, "messages"),
                attaches: g(&m, "attaches"),
                service_requests: g(&m, "service_requests"),
                taus: g(&m, "taus"),
                detaches: g(&m, "detaches"),
                idles: g(&m, "idles"),
                rejects: g(&m, "rejects"),
                replicas_imported: g(&m, "replicas_imported"),
                replicas_sent: g(&m, "replicas_sent"),
                strays_dropped: g(&m, "strays_dropped"),
                errors: g(&m, "errors"),
            });
            counts.mmp.contexts_held += g(&m, "contexts_held");
            counts.mmp.wire_errors += g(&m, "wire_errors");
        }
        let m = self.mlb.report();
        if m.is_empty() {
            clean = false;
        }
        counts.mlb = MlbWireStats {
            routed_attaches: g(&m, "routed_attaches"),
            routed_idle: g(&m, "routed_idle"),
            forwarded_uplinks: g(&m, "forwarded_uplinks"),
            settled_relayed: g(&m, "settled_relayed"),
            proc_failures: g(&m, "proc_failures"),
            dropped: g(&m, "dropped"),
            errors: g(&m, "errors"),
        };
        counts.reconnects = g(&m, "reconnects");
        WireOutcome {
            counts,
            latency,
            wall_ms,
            clean_exit: clean,
        }
    }
}

// ---------------------------------------------------------------------------
// In-process shuttle (the parity oracle)
// ---------------------------------------------------------------------------

/// One message on a link of the shuttle's MLB, as [`run_shuttle_tapped`]
/// shows it: the traffic a socket deployment's MLB links would carry,
/// as the bytes they would carry, in a deterministic order.
#[derive(Debug, Clone, Copy)]
pub struct ShuttleTap<'a> {
    /// The link: into the MLB (`EnbToMlb`, `MmpToMlb`) or out of it
    /// (`MlbToMmp`, `MlbToEnb`).
    pub link: wire::Link,
    /// The encoded message.
    pub bytes: &'a [u8],
}

/// The shuttle's transport: faithful, and it shows every message into
/// and out of the MLB to a tap.
struct Tapped<'t>(&'t mut dyn FnMut(ShuttleTap<'_>));

impl Tamper for Tapped<'_> {
    fn at_mlb(&mut self, link: &mut wire::Link, msg: &mut Bytes, _: &[WorkerStatus]) -> bool {
        (self.0)(ShuttleTap {
            link: *link,
            bytes: msg,
        });
        true
    }
}

/// Run the identical sans-IO deployment logic through the in-process
/// [`Pump`] instead of sockets: same emulators, same MLB relay, same
/// worker nodes, every message encoded onto its link and delivered in
/// the order it was sent (one FIFO queue for the whole deployment).
/// Closed-loop only (the shuttle has no clock). This is both the parity
/// oracle for the socket deployment and the fastest way to debug the
/// protocol.
pub fn run_shuttle(cfg: &WireRunConfig) -> WireCounts {
    run_shuttle_tapped(cfg, &mut |_| {})
}

/// [`run_shuttle`] with every message into and out of the MLB shown to
/// `tap` first: a recording of it is the input of the codec suites and
/// of the relay differential (`crates/sim/tests`).
pub fn run_shuttle_tapped(
    cfg: &WireRunConfig,
    tap: &mut dyn FnMut(ShuttleTap<'_>),
) -> WireCounts {
    assert!(
        matches!(cfg.mode, WireMode::Closed { .. }),
        "the shuttle is closed-loop only"
    );
    let cells = (0..cfg.n_enbs).map(|cell| cfg.emulator(cell)).collect();
    let mut pump = Pump::new(&cfg.topo(), cells);
    let mut tapped = Tapped(tap);
    while let Some(link) = pump.next_fifo() {
        pump.deliver(link, &mut tapped);
    }
    assert!(
        pump.wire_errors.is_empty(),
        "shuttle wire errors: {:?}",
        pump.wire_errors
    );

    let mut counts = WireCounts {
        mlb: pump.mlb.stats,
        ..WireCounts::default()
    };
    for emu in &pump.cells {
        assert!(emu.done(), "shuttle quiesced with sessions outstanding");
        add_emu(&mut counts.enb, &emu.counts);
    }
    for (i, node) in pump.live_workers() {
        for e in node.error_samples() {
            eprintln!("shuttle mmp {i}: {e}");
        }
        counts.mmp.stats.merge(&node.stats());
        counts.mmp.contexts_held += node.contexts_held() as u64;
        counts.mmp.wire_errors += node.errors;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_driver::{run_threads, ScaleOutCounts};
    use scale_epc::ENB_BASE;

    fn tiny() -> WireRunConfig {
        WireRunConfig {
            n_enbs: 2,
            n_mmps: 2,
            total_vms: 6,
            replication: 2,
            ring_tokens: 32,
            seed: 42,
            n_ues: 120,
            ops_per_ue: 2,
            mode: WireMode::Closed { window: 16 },
        }
    }

    #[test]
    fn config_args_roundtrip() {
        let cfg = tiny();
        assert_eq!(WireRunConfig::from_args(&cfg.to_args()), cfg);
        let open = WireRunConfig {
            mode: WireMode::Open {
                rate_hz: 312.5,
                max_in_flight: 48,
            },
            ..cfg
        };
        assert_eq!(WireRunConfig::from_args(&open.to_args()), open);
    }

    /// Route `msgs` as one read on the link of `(role, id)` would have
    /// delivered them: encoded back to back in a read buffer.
    fn route_as_read(
        router: &mut Router<SctpSendHalf>,
        role: WireRole,
        id: usize,
        msgs: &[WireMsg],
    ) -> Result<(), NasError> {
        let mut read = Vec::new();
        let items: Vec<BatchItem> = msgs
            .iter()
            .map(|m| {
                let start = read.len();
                read.extend_from_slice(&m.encode());
                BatchItem::Data {
                    stream_id: WIRE_STREAM,
                    ppid: ppid::SCALE_STATE,
                    at: start..read.len(),
                }
            })
            .collect();
        router.route(role, id, &read, items.into_iter())
    }

    /// A loopback link: the MLB-side halves, and the far end unsplit.
    fn loopback(listener: &mut SctpListener, tag: u32) -> ((SctpSendHalf, SctpRecvHalf), SctpStream) {
        let addr = listener.local_addr().unwrap().to_string();
        let dial = thread::spawn(move || tokio::runtime::block_on(SctpStream::connect(&addr, tag)));
        let near = tokio::runtime::block_on(listener.accept()).unwrap();
        (near.into_split(EGRESS_CAP), dial.join().unwrap().unwrap())
    }

    /// The next message the far end of a link receives. A test waits
    /// at most ten seconds for it, so a routing change that sends
    /// nothing fails the test instead of stalling the suite.
    fn recv_within(link: &mut SctpStream) -> WireMsg {
        let read = tokio::time::timeout(Duration::from_secs(10), link.recv());
        let (_, _, payload) = tokio::runtime::block_on(read)
            .expect("nothing arrived within ten seconds")
            .unwrap();
        WireMsg::decode(payload).unwrap()
    }

    fn attach_uplink(u: u32) -> WireMsg {
        WireMsg::Uplink {
            enb_id: ENB_BASE,
            attach_hint: Some(scale_epc::MTMSI_BASE + u),
            pdu: scale_s1ap::S1apPdu::InitialUeMessage {
                enb_ue_id: u,
                nas_pdu: bytes::Bytes::from_static(b"attach"),
                tai: scale_nas::Tai::new(scale_nas::Plmn::test(), 7),
                establishment_cause: 3,
                s_tmsi: None,
            },
        }
    }

    #[test]
    fn an_uplink_for_a_worker_that_is_not_linked_is_failed_back_to_its_cell() {
        use scale_epc::MTMSI_BASE;
        // The cell and worker 0 are up; worker 1 has not said `Hello`
        // (or has gone). An attach routed to it cannot be delivered: it
        // is shed exactly as at a full egress — counted, and the device
        // handed back to its cell — not silently dropped.
        let cfg = WireRunConfig {
            n_enbs: 1,
            total_vms: 4,
            ..tiny()
        };
        let mut listener = tokio::runtime::block_on(SctpListener::bind("127.0.0.1:0")).unwrap();
        let ((cell_tx, _cell_rx), mut cell) = loopback(&mut listener, 1);
        let ((w0_tx, _w0_rx), mut w0) = loopback(&mut listener, 2);
        let mut router = Router::new(&cfg);
        router.linked(WireRole::Enb, 0, cell_tx);
        router.linked(WireRole::Mmp, 0, w0_tx);

        let attaches: Vec<WireMsg> = (0..16).map(attach_uplink).collect();
        route_as_read(&mut router, WireRole::Enb, 0, &attaches).unwrap();
        let shed = router.mlb.stats.dropped;
        assert!(shed > 0 && shed < 16, "16 hints must spread over both workers ({shed} shed)");
        assert_eq!(router.mlb.stats.routed_attaches, 16);
        assert!(router.out.is_empty() && router.mmp_runs.iter().all(Vec::is_empty));
        let mut failed = Vec::new();
        for _ in 0..shed {
            match recv_within(&mut cell) {
                WireMsg::ProcFailed { m_tmsi } => failed.push(m_tmsi),
                other => panic!("expected ProcFailed, got {other:?}"),
            }
        }
        failed.sort_unstable();
        failed.dedup();
        assert_eq!(failed.len() as u64, shed, "one ProcFailed per shed attach");
        // The rest reached worker 0, each as the Deliver the typed path
        // would have sent, PDU byte for byte.
        for _ in 0..16 - shed {
            match recv_within(&mut w0) {
                WireMsg::Deliver {
                    guti_hint: Some(m_tmsi),
                    enb_id: ENB_BASE,
                    pdu,
                    ..
                } => {
                    assert!(!failed.contains(&m_tmsi));
                    let WireMsg::Uplink { pdu: sent, .. } = attach_uplink(m_tmsi - MTMSI_BASE) else {
                        unreachable!()
                    };
                    assert_eq!(pdu, sent);
                }
                other => panic!("expected Deliver, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_uplink_naming_another_cells_id_ends_its_link_and_is_not_routed() {
        use scale_epc::MTMSI_BASE;
        // Cell 0 opens an attach on its connection 0. Then the link of
        // cell 1 sends an attach that names cell 0's eNB id and the same
        // connection id, for a device none of whose holders is cell 0's
        // engine: routed, a worker would answer it at cell 0 and take
        // cell 0's connection for that device's.
        let cfg = WireRunConfig {
            n_mmps: 1,
            total_vms: 4,
            ..tiny()
        };
        let mut listener = tokio::runtime::block_on(SctpListener::bind("127.0.0.1:0")).unwrap();
        let ((c0_tx, _c0_rx), _c0) = loopback(&mut listener, 1);
        let ((c1_tx, _c1_rx), _c1) = loopback(&mut listener, 2);
        let ((w0_tx, _w0_rx), mut w0) = loopback(&mut listener, 3);
        let mut router = Router::new(&cfg);
        router.linked(WireRole::Enb, 0, c0_tx);
        router.linked(WireRole::Enb, 1, c1_tx);
        router.linked(WireRole::Mmp, 0, w0_tx);

        route_as_read(&mut router, WireRole::Enb, 0, &[attach_uplink(0)]).unwrap();
        let serving = router.mlb.inflight_vm(MTMSI_BASE).expect("cell 0's attach is in flight");
        let snap = router.mlb.plane().snapshot();
        let other = (MTMSI_BASE + 1..)
            .find(|&m| {
                let (holders, n) = snap.holders_of(m);
                !holders[..n].contains(&serving)
            })
            .unwrap();
        let mut stranger = attach_uplink(0);
        if let WireMsg::Uplink { attach_hint, .. } = &mut stranger {
            *attach_hint = Some(other);
        }
        assert!(
            route_as_read(&mut router, WireRole::Enb, 1, &[stranger]).is_err(),
            "an uplink naming another cell ends the link"
        );
        assert_eq!(router.mlb.stats.errors, 1);
        assert_eq!(router.mlb.stats.routed_attaches, 1);
        assert_eq!(router.mlb.inflight_vm(other), None);

        // Cell 0's next uplink carries the id the serving VM minted.
        let next = WireMsg::Uplink {
            enb_id: ENB_BASE,
            attach_hint: None,
            pdu: scale_s1ap::S1apPdu::UplinkNasTransport {
                mme_ue_id: scale_mme::compose_id(serving as u8, 1),
                enb_ue_id: 0,
                nas_pdu: bytes::Bytes::from_static(b"auth response"),
                tai: scale_nas::Tai::new(scale_nas::Plmn::test(), 7),
            },
        };
        route_as_read(&mut router, WireRole::Enb, 0, &[next]).unwrap();
        // The worker sees cell 0's attach, then its next uplink on the
        // engine that serves it — and nothing of the stranger's.
        for hint in [Some(MTMSI_BASE), None] {
            match recv_within(&mut w0) {
                WireMsg::Deliver { vm, guti_hint, .. } => assert_eq!((vm, guti_hint), (serving, hint)),
                other => panic!("expected Deliver, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_message_out_of_the_reorder_buffer_is_relayed_like_one_in_the_read() {
        use scale_epc::MTMSI_BASE;
        let cfg = WireRunConfig {
            n_enbs: 1,
            n_mmps: 1,
            total_vms: 4,
            ..tiny()
        };
        let mut listener = tokio::runtime::block_on(SctpListener::bind("127.0.0.1:0")).unwrap();
        let ((cell_tx, _cell_rx), _cell) = loopback(&mut listener, 1);
        let ((w0_tx, _w0_rx), mut w0) = loopback(&mut listener, 2);
        let mut router = Router::new(&cfg);
        router.linked(WireRole::Enb, 0, cell_tx);
        router.linked(WireRole::Mmp, 0, w0_tx);

        // Two attaches in one receive: the first where the read left
        // it, the second as the reorder buffer hands it over.
        let read = attach_uplink(0).encode();
        let items = [
            BatchItem::Data {
                stream_id: WIRE_STREAM,
                ppid: ppid::SCALE_STATE,
                at: 0..read.len(),
            },
            BatchItem::Held {
                stream_id: WIRE_STREAM,
                ppid: ppid::SCALE_STATE,
                payload: attach_uplink(1).encode(),
            },
        ];
        router.route(WireRole::Enb, 0, &read, items.into_iter()).unwrap();
        assert_eq!(router.mlb.stats.routed_attaches, 2);
        assert_eq!(router.mlb.stats.dropped, 0);
        for u in 0..2 {
            let WireMsg::Uplink { pdu: sent, .. } = attach_uplink(u) else {
                unreachable!()
            };
            match recv_within(&mut w0) {
                WireMsg::Deliver {
                    guti_hint, enb_id, pdu, ..
                } => assert_eq!((guti_hint, enb_id, pdu), (Some(MTMSI_BASE + u), ENB_BASE, sent)),
                other => panic!("expected Deliver, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_full_worker_egress_is_shed_under_the_router_lock_not_waited_for() {
        use scale_epc::MTMSI_BASE;
        // Real loopback links, their far ends held here. Nobody reads
        // the workers'; the cell's is read at the end. Everything runs
        // on this one thread, so a send that waited for a peer would
        // hang the test.
        let cfg = WireRunConfig {
            n_enbs: 1,
            total_vms: 4,
            ..tiny()
        };
        let mut listener = tokio::runtime::block_on(SctpListener::bind("127.0.0.1:0")).unwrap();
        let ((cell_tx, _cell_rx), mut cell) = loopback(&mut listener, 1);
        let ((w0_tx, _w0_rx), _w0) = loopback(&mut listener, 2);
        let ((w1_tx, _w1_rx), _w1) = loopback(&mut listener, 3);
        let mut router = Router::new(&cfg);
        router.linked(WireRole::Enb, 0, cell_tx);
        router.linked(WireRole::Mmp, 0, w0_tx);
        router.linked(WireRole::Mmp, 1, w1_tx.clone());

        // Replica blobs toward worker 1 until its socket and then its
        // egress buffer are full and the first one is shed.
        let replica = WireMsg::Replicate {
            vm: cfg.topo().vms_of(1)[0],
            blob: bytes::Bytes::from(vec![0x5A; 2048]),
        };
        let mut rounds = 0;
        while router.mlb.stats.dropped == 0 {
            route_as_read(&mut router, WireRole::Mmp, 0, &vec![replica.clone(); 64]).unwrap();
            rounds += 1;
            assert!(rounds < 10_000, "worker 1's egress never filled");
        }
        assert!(w1_tx.pending() <= EGRESS_CAP);
        assert!(w1_tx.pending() + 64 > EGRESS_CAP, "shed below the bound");
        assert!(router.out.is_empty() && router.mmp_runs.iter().all(Vec::is_empty));

        // Fresh attaches for 32 devices. Those routed to worker 0 are
        // delivered; those routed to worker 1 are shed, counted, and
        // failed back to the cell, one `ProcFailed` each.
        let before = router.mlb.stats;
        let worker1_vms = cfg.topo().vms_of(1);
        let load = |router: &Router<SctpSendHalf>| -> Vec<u64> {
            let plane = router.mlb.plane();
            worker1_vms.iter().map(|&vm| plane.loads.load(vm)).collect()
        };
        let load_before = load(&router);
        let attaches: Vec<WireMsg> = (0..32).map(attach_uplink).collect();
        route_as_read(&mut router, WireRole::Enb, 0, &attaches).unwrap();
        let shed = (router.mlb.stats.dropped - before.dropped) as usize;
        assert!(shed > 0 && shed < 32, "32 hints must spread over both workers ({shed} shed)");
        assert_eq!(router.mlb.stats.routed_attaches - before.routed_attaches, 32);
        assert!(router.mmp_links[1].is_some(), "a full link is not a dead link");
        let mut failed = Vec::new();
        for _ in 0..shed {
            match recv_within(&mut cell) {
                WireMsg::ProcFailed { m_tmsi } => failed.push(m_tmsi),
                other => panic!("expected ProcFailed, got {other:?}"),
            }
        }
        failed.dedup();
        assert_eq!(failed.len(), shed, "one ProcFailed per shed attach");
        assert!(failed.iter().all(|m| (MTMSI_BASE..MTMSI_BASE + 32).contains(m)));
        // A shed attach leaves nothing behind at the MLB: no in-flight
        // pin, and worker 1's engines carry the load they had before.
        for &m in &failed {
            assert_eq!(
                router.mlb.inflight_vm(m),
                None,
                "shed attach {m:#x} still pinned"
            );
        }
        assert_eq!(
            load(&router),
            load_before,
            "shed attaches keep their load charge"
        );

        // The heartbeat tick does not wait either, and a worker that
        // far behind is on its way out: a few ticks take it down, while
        // worker 0 (whose reader would have reported the acks) stays.
        for _ in 0..4 {
            router.tick();
            router.pong(0);
        }
        assert!(router.mmp_links[1].is_none() && router.mmp_links[0].is_some());
    }

    #[test]
    fn shuttle_runs_clean_and_deterministic() {
        let cfg = tiny();
        let a = run_shuttle(&cfg);
        let b = run_shuttle(&cfg);
        assert_eq!(a, b, "same seed, same counts");
        assert_eq!(a.enb.sessions_done, cfg.n_ues as u64);
        assert_eq!(a.enb.attaches, cfg.n_ues as u64);
        assert_eq!(a.enb.rejects, 0);
        assert_eq!(a.enb.errors, 0);
        assert_eq!(a.mmp.stats.errors, 0);
        assert_eq!(a.mmp.wire_errors, 0);
        assert_eq!(a.mlb.errors, 0);
        assert_eq!(a.mlb.dropped, 0);
        // Access side and engine side agree procedure for procedure.
        assert_eq!(a.enb.attaches, a.mmp.stats.attaches);
        assert_eq!(a.enb.service_requests, a.mmp.stats.service_requests);
        assert_eq!(a.enb.taus, a.mmp.stats.taus);
        assert_eq!(
            a.enb.service_requests + a.enb.taus,
            (cfg.n_ues * cfg.ops_per_ue) as u64
        );
        // Replication invariants carry over from the in-process driver.
        assert_eq!(
            a.mmp.contexts_held,
            (cfg.replication * cfg.n_ues) as u64
        );
        assert_eq!(
            a.mmp.stats.replicas_imported,
            (cfg.replication as u64 - 1) * a.mmp.stats.idles
        );
    }

    #[test]
    fn shuttle_matches_the_in_process_driver() {
        // The same machines, one cell, MLB and worker per thread there:
        // the same counts, down to what the MLBs and the cells counted.
        for n in 1..=4 {
            let cfg = WireRunConfig {
                n_enbs: n,
                n_mmps: n,
                ..tiny()
            };
            let wire = run_shuttle(&cfg);
            let (twin, threads) = run_threads(&cfg.scale_out_twin());
            assert_eq!(twin.counts, ScaleOutCounts::of(&wire), "n = {n}");
            assert_eq!(threads.mlb, wire.mlb, "n = {n}");
            assert_eq!(threads.enb, wire.enb, "n = {n}");
        }
    }

    #[test]
    fn shuttle_counts_are_invariant_to_process_striping() {
        let cfg = tiny();
        let base = run_shuttle(&cfg);
        for (n_enbs, n_mmps) in [(1, 1), (3, 2), (2, 3)] {
            let alt = run_shuttle(&WireRunConfig {
                n_enbs,
                n_mmps,
                ..cfg.clone()
            });
            // Identity striping and VM placement move *where* work
            // runs, never *how much*.
            assert_eq!(alt.enb, base.enb, "({n_enbs},{n_mmps}) enb counts");
            assert_eq!(
                alt.mmp.stats.attaches, base.mmp.stats.attaches,
                "({n_enbs},{n_mmps}) attaches"
            );
            assert_eq!(alt.mmp.stats.idles, base.mmp.stats.idles);
            assert_eq!(alt.mmp.contexts_held, base.mmp.contexts_held);
        }
    }
}
