//! The wire-level deployment runtime (DESIGN.md §14): real OS
//! processes for each role — eNodeB emulators, the MLB front, MMP
//! workers — joined by `sctplite` associations over localhost TCP.
//!
//! This module contains the three role main-loops (driven by the
//! `scale_wired` binary), the parent-side orchestration that spawns the
//! topology as child processes and harvests their `REPORT` lines, and
//! an in-process *shuttle* that runs the identical sans-IO logic
//! ([`MlbState`], [`MmpNode`], [`EnbEmulator`]) through a message
//! queue instead of sockets. The shuttle is the parity oracle: the
//! socket deployment, the shuttle and the in-process `scale_out`
//! driver must all produce identical per-outcome counts for the same
//! seeded workload — the wall-clock gap between them *is* the result
//! the `wire_load` bench measures.
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

use crate::openloop::poisson_schedule;
use crate::shard_driver::ScaleOutConfig;
use scale_core::wire::{MlbOut, MlbState, MlbWireStats, MmpNode, WireMsg, WireRole, WireTopo};
use scale_core::{BackoffPolicy, HealthTracker, ShardStatsSnapshot};
use scale_epc::{
    home_cell, DriveMode, EmuCounts, EmuEvent, EmulatorConfig, EnbEmulator, ProcKind, ENB_BASE,
};
use scale_s1ap::S1apPdu;
use scale_sctplite::{
    ppid, SctpListener, SctpRecvHalf, SctpSendHalf, SctpStream, StreamEvent, TransportError,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
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
/// the socket deployment, the in-process shuttle, and (for the engine-
/// side fields) the `scale_out` driver on the same seeded workload.
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

const PROC_KINDS: [ProcKind; 4] = [
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

fn send_wire(link: &SctpSendHalf, msg: &WireMsg) -> Result<(), TransportError> {
    link.send(1, ppid::SCALE_STATE, msg.encode())
}

/// Send `msgs` in order as one egress unit and leave the vector empty.
fn send_wire_batch(link: &SctpSendHalf, msgs: &mut Vec<WireMsg>) -> Result<(), TransportError> {
    if msgs.is_empty() {
        return Ok(());
    }
    link.send_batch(1, ppid::SCALE_STATE, msgs.drain(..).map(|m| m.encode()))
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

/// What one blocking receive on a link produced.
struct LinkBatch {
    /// Decoded messages, in arrival order.
    msgs: Vec<WireMsg>,
    /// Heartbeat acks seen among them.
    pongs: usize,
    /// Payloads that were not a `WireMsg`.
    undecodable: usize,
}

/// Block for the link's next event, then take every event the same
/// read delivered: under load the backlog is the batch, on a quiet link
/// the batch is one message. `Err` once the link is down and everything
/// before that has been handed over.
fn recv_batch(
    who: &str,
    rh: &mut SctpRecvHalf,
    events: &mut Vec<StreamEvent>,
) -> Result<LinkBatch, TransportError> {
    tokio::runtime::block_on(rh.next_events(events))?;
    let mut batch = LinkBatch {
        msgs: Vec::with_capacity(events.len()),
        pongs: 0,
        undecodable: 0,
    };
    for ev in events.drain(..) {
        match ev {
            StreamEvent::Data { payload, .. } => match WireMsg::decode(payload) {
                Ok(m) => batch.msgs.push(m),
                Err(e) => {
                    batch.undecodable += 1;
                    eprintln!("{who}: undecodable wire message: {e}");
                }
            },
            StreamEvent::HeartbeatAck { .. } => batch.pongs += 1,
        }
    }
    Ok(batch)
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
    loop {
        match recv_batch(&who, &mut rh, &mut events) {
            Ok(batch) => {
                if !batch.msgs.is_empty() && tx.send(LinkIn::Msgs(batch.msgs)).is_err() {
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

    // PROC_KINDS is exhaustive over ProcKind by construction.
    // lint: allow(unwrap)
    fn slot(kind: ProcKind) -> usize {
        PROC_KINDS.iter().position(|k| *k == kind).unwrap()
    }

    fn push(&mut self, kind: ProcKind, elapsed: Duration) {
        self.samples[Self::slot(kind)].push(elapsed.as_micros() as u64);
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
    let mode = match cfg.mode {
        WireMode::Closed { window } => DriveMode::Closed { window },
        WireMode::Open { max_in_flight, .. } => DriveMode::Open { max_in_flight },
    };
    let mut emu = EnbEmulator::new(&EmulatorConfig {
        cell,
        n_cells: cfg.n_enbs,
        n_local_ues: n_local,
        ops_per_ue: cfg.ops_per_ue,
        seed: cfg.seed,
        mode,
    });
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
                    match msg {
                        WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
                        WireMsg::Settled { m_tmsi, active } => emu.settled(m_tmsi, active),
                        WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
                        // MLB/fabric-internal traffic never reaches an
                        // eNodeB; named exhaustively so a new wire
                        // message fails to compile here instead of
                        // being silently dropped.
                        WireMsg::Hello { .. }
                        | WireMsg::Uplink { .. }
                        | WireMsg::Deliver { .. }
                        | WireMsg::Replicate { .. }
                        | WireMsg::DropCtx { .. }
                        | WireMsg::VmDown { .. }
                        | WireMsg::VmUp { .. } => {}
                    }
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

/// MMP worker process main: engines behind the MLB link. Runs until
/// the MLB closes the association, then prints one `REPORT` line.
pub fn run_mmp(cfg: &WireRunConfig, index: usize, addr: &str) -> i32 {
    let topo = cfg.topo();
    let mut node = MmpNode::new(&topo, index);
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
    let who = format!("mmp {index}");
    let mut events = Vec::new();
    let mut out = Vec::new();
    while let Ok(batch) = recv_batch(&who, &mut rh, &mut events) {
        node.errors += batch.undecodable as u64;
        for msg in batch.msgs {
            node.handle(msg, &mut out);
        }
        if send_wire_batch(&link, &mut out).is_err() {
            break;
        }
    }

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
struct Link {
    link: SctpSendHalf,
    /// Which registration of this `(role, id)` slot the link is: a
    /// reader that reports its link down names the generation it was
    /// given, so it cannot take down a successor.
    gen: u64,
    /// Nonce of an unanswered heartbeat, if one is outstanding (worker
    /// links only).
    outstanding: Option<u64>,
}

/// Hand `msgs` to `link` as one egress unit without ever waiting for
/// the peer. On `Err` nothing was sent and `msgs` is untouched.
fn try_send_wire_batch(link: &SctpSendHalf, msgs: &[WireMsg]) -> Result<(), TransportError> {
    link.try_send_batch(1, ppid::SCALE_STATE, msgs.iter().map(WireMsg::encode))
}

/// Everything the MLB routes with: the sans-IO [`MlbState`], the link
/// table, worker health, and the per-link output runs. One mutex
/// guards all of it. A link's own thread takes it for each event of
/// its link — the link coming up, a read's worth of messages, a
/// heartbeat ack, the link going down — and flushes what the event
/// produced before letting go, so every step is as atomic, and output
/// per link as ordered, as when one thread owned this state behind a
/// channel.
///
/// Nothing done under the lock waits for a peer: sends are
/// `try_send_batch`/`try_ping`, and what does not fit behind a full
/// egress is shed ([`Router::flush`]). A send that could block here
/// would turn one stalled worker into a stalled — with that worker's
/// own reader waiting for the lock, deadlocked — fleet.
struct Router {
    mlb: MlbState,
    enb_links: Vec<Option<Link>>,
    mmp_links: Vec<Option<Link>>,
    mmp_ever_down: Vec<bool>,
    health: HealthTracker,
    reconnects: u64,
    enbs_closed: usize,
    next_nonce: u64,
    next_gen: u64,
    announced_ready: bool,
    /// Reused across events; empty whenever the lock is free.
    out: Vec<MlbOut>,
    enb_runs: Vec<Vec<WireMsg>>,
    mmp_runs: Vec<Vec<WireMsg>>,
}

impl Router {
    fn new(cfg: &WireRunConfig) -> Router {
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
    fn linked(&mut self, role: WireRole, id: usize, link: SctpSendHalf) -> u64 {
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
                    self.flush();
                }
                self.mmp_links[id] = Some(entry);
                self.health.mark_up(id as u32);
                if self.mmp_ever_down[id] {
                    self.reconnects += 1;
                    self.mlb.on_mmp_reconnected(id, &mut self.out);
                }
                // Fleet-ready barrier: the orchestrator starts cells
                // only after this line, so no uplink can be routed to
                // a worker whose Hello is still in flight.
                if !self.announced_ready && self.mmp_links.iter().all(Option::is_some) {
                    self.announced_ready = true;
                    println!("READY");
                    let _ = std::io::stdout().flush();
                }
            }
            WireRole::Mmp => {}
        }
        self.flush();
        self.next_gen
    }

    /// Everything one receive on a `role` link delivered, in order.
    fn route(&mut self, role: WireRole, msgs: Vec<WireMsg>) {
        for msg in msgs {
            match role {
                WireRole::Enb => {
                    if let WireMsg::Uplink {
                        enb_id,
                        attach_hint,
                        pdu,
                    } = msg
                    {
                        self.mlb.on_enb(enb_id, attach_hint, pdu, &mut self.out);
                    }
                }
                WireRole::Mmp => self.mlb.on_mmp(msg, &mut self.out),
            }
        }
        self.flush();
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
        let links = match role {
            WireRole::Enb => &self.enb_links,
            WireRole::Mmp => &self.mmp_links,
        };
        if matches!(links.get(id), Some(Some(l)) if l.gen == gen) {
            self.take_down(role, id);
            self.flush();
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
        self.flush();
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

    /// Move `out` into the per-link runs, order within a link kept.
    /// Output for a link that is not up is dropped and counted, message
    /// by message.
    fn sort_out(&mut self) {
        for o in self.out.drain(..) {
            let (runs, links, id, msg) = match o {
                MlbOut::Enb { enb, msg } => (&mut self.enb_runs, &self.enb_links, enb, msg),
                MlbOut::Mmp { mmp, msg } => (&mut self.mmp_runs, &self.mmp_links, mmp, msg),
            };
            match (runs.get_mut(id), links.get(id)) {
                (Some(run), Some(Some(_))) => run.push(msg),
                _ => self.mlb.stats.dropped += 1,
            }
        }
    }

    /// Send everything in `out`, one egress unit per link, worker-bound
    /// links before eNB-bound ones: a `Replicate` is queued toward its
    /// holder before the `Settled` that lets the device move on is
    /// queued toward its cell.
    ///
    /// A link whose egress is full sheds its run, every message counted
    /// in `dropped`: a `Deliver` that opens a procedure is failed back
    /// to the device's home cell as `ProcFailed`, so the access side
    /// re-drives it; anything else is gone (a worker that stays that
    /// far behind misses its heartbeats, and going down fails whatever
    /// it had in flight). A link that turns out broken goes down here
    /// and now, and what that produces is flushed in turn.
    fn flush(&mut self) {
        loop {
            let mut lost = Vec::new();
            self.sort_out();
            for id in 0..self.mmp_runs.len() {
                let (run, Some(l)) = (&mut self.mmp_runs[id], &self.mmp_links[id]) else {
                    continue;
                };
                match try_send_wire_batch(&l.link, run) {
                    Ok(()) => run.clear(),
                    Err(TransportError::Full) => {
                        let n_enbs = self.enb_links.len();
                        for msg in run.drain(..) {
                            self.mlb.stats.dropped += 1;
                            let WireMsg::Deliver {
                                guti_hint,
                                pdu: S1apPdu::InitialUeMessage { s_tmsi, .. },
                                ..
                            } = msg
                            else {
                                continue;
                            };
                            let Some(m_tmsi) = guti_hint.or(s_tmsi.map(|(_, m)| m)) else {
                                continue;
                            };
                            if let Some(enb) = home_cell(m_tmsi, n_enbs) {
                                self.out.push(MlbOut::Enb {
                                    enb,
                                    msg: WireMsg::ProcFailed { m_tmsi },
                                });
                            }
                        }
                    }
                    Err(_) => {
                        self.mlb.stats.dropped += run.drain(..).count() as u64;
                        lost.push((WireRole::Mmp, id));
                    }
                }
            }
            self.sort_out();
            for id in 0..self.enb_runs.len() {
                let (run, Some(l)) = (&mut self.enb_runs[id], &self.enb_links[id]) else {
                    continue;
                };
                match try_send_wire_batch(&l.link, run) {
                    Ok(()) => run.clear(),
                    Err(e) => {
                        self.mlb.stats.dropped += run.drain(..).count() as u64;
                        if !matches!(e, TransportError::Full) {
                            lost.push((WireRole::Enb, id));
                        }
                    }
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
    router: Mutex<Router>,
    /// Signalled when a link has gone down: the main thread re-checks
    /// its exit condition.
    link_down: Condvar,
}

impl MlbShared {
    /// A link thread that panicked mid-event has lost its own link's
    /// output at worst; the rest of the fleet carries on.
    fn lock(&self) -> MutexGuard<'_, Router> {
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
    let mut events = Vec::new();
    let Ok(mut batch) = recv_batch("mlb", &mut rh, &mut events) else {
        return;
    };
    // The Hello may arrive with the peer's first messages behind it.
    let (role, id) = if let (Some(&WireMsg::Hello { role, id }), 0) =
        (batch.msgs.first(), batch.undecodable)
    {
        (role, id as usize)
    } else {
        eprintln!("mlb: link did not start with Hello; dropping");
        return;
    };
    batch.msgs.remove(0);
    let gen = shared.lock().linked(role, id, sh);
    loop {
        if batch.undecodable > 0 {
            eprintln!("mlb: dropping {role:?} {id} after an undecodable message");
            break;
        }
        let pong = role == WireRole::Mmp && batch.pongs > 0;
        if pong || !batch.msgs.is_empty() {
            let mut router = shared.lock();
            if pong {
                router.pong(id);
            }
            if !batch.msgs.is_empty() {
                router.route(role, batch.msgs);
            }
        }
        match recv_batch("mlb", &mut rh, &mut events) {
            Ok(b) => batch = b,
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

enum Hop {
    FromEnb(usize, WireMsg),
    FromMmp(usize, WireMsg),
    ToEnb(usize, WireMsg),
    ToMmp(usize, WireMsg),
}

/// What crosses the shuttle's MLB, as [`run_shuttle_tapped`] shows it:
/// the traffic a socket deployment's MLB links would carry, in a
/// deterministic order.
#[derive(Debug, Clone, Copy)]
pub enum ShuttleTap<'a> {
    /// `msg` arrives at the MLB on the link of `(role, id)`.
    In {
        /// Which side sent it.
        role: WireRole,
        /// Cell or worker index.
        id: usize,
        /// The message.
        msg: &'a WireMsg,
    },
    /// The MLB sends this in response.
    Out(&'a MlbOut),
}

/// Run the identical sans-IO deployment logic through an in-process
/// message queue instead of sockets: same emulators, same MLB routing
/// state, same worker nodes, zero transport. Closed-loop only (the
/// shuttle has no clock). This is both the parity oracle for the
/// socket deployment and the fastest way to debug the protocol.
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
    let topo = cfg.topo();
    let mut mlb = MlbState::new(&topo);
    let mut mmps: Vec<MmpNode> = (0..cfg.n_mmps).map(|i| MmpNode::new(&topo, i)).collect();
    let mut emus: Vec<EnbEmulator> = (0..cfg.n_enbs)
        .map(|cell| {
            EnbEmulator::new(&EmulatorConfig {
                cell,
                n_cells: cfg.n_enbs,
                n_local_ues: EmulatorConfig::local_share(cfg.n_ues, cfg.n_enbs, cell),
                ops_per_ue: cfg.ops_per_ue,
                seed: cfg.seed,
                mode: match cfg.mode {
                    WireMode::Closed { window } => DriveMode::Closed { window },
                    WireMode::Open { max_in_flight, .. } => DriveMode::Open { max_in_flight },
                },
            })
        })
        .collect();

    let mut queue: VecDeque<Hop> = VecDeque::new();
    let drain_emu = |emu: &mut EnbEmulator, cell: usize, queue: &mut VecDeque<Hop>| {
        for ev in emu.drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => {
                    queue.push_back(Hop::FromEnb(
                        cell,
                        WireMsg::Uplink {
                            enb_id: ENB_BASE + cell as u32,
                            attach_hint,
                            pdu,
                        },
                    ));
                }
                EmuEvent::Completed { .. } => {}
            }
        }
    };
    for (cell, emu) in emus.iter_mut().enumerate() {
        queue.push_back(Hop::FromEnb(
            cell,
            WireMsg::Uplink {
                enb_id: ENB_BASE + cell as u32,
                attach_hint: None,
                pdu: emu.s1_setup_request(),
            },
        ));
        emu.start();
        drain_emu(emu, cell, &mut queue);
    }

    let mut out = Vec::new();
    let mut wout = Vec::new();
    while let Some(hop) = queue.pop_front() {
        match hop {
            Hop::FromEnb(cell, msg) => {
                tap(ShuttleTap::In {
                    role: WireRole::Enb,
                    id: cell,
                    msg: &msg,
                });
                if let WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                } = msg
                {
                    mlb.on_enb(enb_id, attach_hint, pdu, &mut out);
                }
            }
            Hop::FromMmp(mmp, msg) => {
                tap(ShuttleTap::In {
                    role: WireRole::Mmp,
                    id: mmp,
                    msg: &msg,
                });
                mlb.on_mmp(msg, &mut out);
            }
            Hop::ToMmp(mmp, msg) => {
                mmps[mmp].handle(msg, &mut wout);
                for m in wout.drain(..) {
                    queue.push_back(Hop::FromMmp(mmp, m));
                }
            }
            Hop::ToEnb(enb, msg) => {
                let emu = &mut emus[enb];
                match msg {
                    WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
                    WireMsg::Settled { m_tmsi, active } => emu.settled(m_tmsi, active),
                    WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
                    // MLB/fabric-internal traffic never reaches an
                    // eNodeB; named exhaustively so a new wire message
                    // fails to compile here instead of being dropped.
                    WireMsg::Hello { .. }
                    | WireMsg::Uplink { .. }
                    | WireMsg::Deliver { .. }
                    | WireMsg::Replicate { .. }
                    | WireMsg::DropCtx { .. }
                    | WireMsg::VmDown { .. }
                    | WireMsg::VmUp { .. } => {}
                }
                drain_emu(emu, enb, &mut queue);
            }
        }
        for o in out.drain(..) {
            tap(ShuttleTap::Out(&o));
            match o {
                MlbOut::Enb { enb, msg } => queue.push_back(Hop::ToEnb(enb, msg)),
                MlbOut::Mmp { mmp, msg } => queue.push_back(Hop::ToMmp(mmp, msg)),
            }
        }
    }

    let mut counts = WireCounts {
        mlb: mlb.stats,
        ..WireCounts::default()
    };
    for emu in &emus {
        assert!(emu.done(), "shuttle quiesced with sessions outstanding");
        add_emu(&mut counts.enb, &emu.counts);
    }
    for (i, node) in mmps.iter().enumerate() {
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
    use crate::shard_driver::run_scale_out;

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

    #[test]
    fn a_full_worker_egress_is_shed_under_the_router_lock_not_waited_for() {
        use scale_epc::MTMSI_BASE;
        use scale_nas::{Plmn, Tai};
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
        let addr = listener.local_addr().unwrap().to_string();
        let mut link = |tag: u32| {
            let addr = addr.clone();
            let dial =
                thread::spawn(move || tokio::runtime::block_on(SctpStream::connect(&addr, tag)));
            let near = tokio::runtime::block_on(listener.accept()).unwrap();
            (near.into_split(EGRESS_CAP), dial.join().unwrap().unwrap())
        };
        let ((cell_tx, _cell_rx), mut cell) = link(1);
        let ((w0_tx, _w0_rx), _w0) = link(2);
        let ((w1_tx, _w1_rx), _w1) = link(3);
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
            router.route(WireRole::Mmp, vec![replica.clone(); 64]);
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
        let attaches: Vec<WireMsg> = (0..32)
            .map(|u| WireMsg::Uplink {
                enb_id: ENB_BASE,
                attach_hint: Some(MTMSI_BASE + u),
                pdu: S1apPdu::InitialUeMessage {
                    enb_ue_id: u,
                    nas_pdu: bytes::Bytes::from_static(b"attach"),
                    tai: Tai::new(Plmn::test(), 7),
                    establishment_cause: 3,
                    s_tmsi: None,
                },
            })
            .collect();
        router.route(WireRole::Enb, attaches);
        let shed = (router.mlb.stats.dropped - before.dropped) as usize;
        assert!(shed > 0 && shed < 32, "32 hints must spread over both workers ({shed} shed)");
        assert_eq!(router.mlb.stats.routed_attaches - before.routed_attaches, 32);
        assert!(router.mmp_links[1].is_some(), "a full link is not a dead link");
        let mut failed = Vec::new();
        for _ in 0..shed {
            let (_, _, payload) = tokio::runtime::block_on(cell.recv()).unwrap();
            match WireMsg::decode(payload).unwrap() {
                WireMsg::ProcFailed { m_tmsi } => failed.push(m_tmsi),
                other => panic!("expected ProcFailed, got {other:?}"),
            }
        }
        failed.dedup();
        assert_eq!(failed.len(), shed, "one ProcFailed per shed attach");
        assert!(failed.iter().all(|m| (MTMSI_BASE..MTMSI_BASE + 32).contains(m)));

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
        let cfg = tiny();
        let wire = run_shuttle(&cfg);
        let twin = run_scale_out(&cfg.scale_out_twin());
        assert_eq!(wire.mmp.stats.attaches, twin.counts.attaches);
        assert_eq!(wire.mmp.stats.service_requests, twin.counts.service_requests);
        assert_eq!(wire.mmp.stats.taus, twin.counts.taus);
        assert_eq!(wire.mmp.stats.idles, twin.counts.idles);
        assert_eq!(wire.mmp.stats.messages, twin.counts.messages);
        assert_eq!(wire.mmp.stats.replicas_imported, twin.counts.replicas_imported);
        assert_eq!(wire.mmp.contexts_held, twin.counts.contexts_held);
        assert_eq!(wire.mmp.stats.rejects, twin.counts.rejects);
        assert_eq!(wire.mmp.stats.errors, twin.counts.errors);
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
