//! The multi-core scale-out driver: the deployment's own sans-IO
//! machines on worker threads, joined by bounded mailboxes.
//!
//! Worker thread *s* hosts three machines of a deployment with
//! `n_enbs = n_mmps = n_shards`: cell *s* ([`EnbEmulator`]), one MLB
//! ([`MlbState`]) and MMP worker *s* ([`MmpNode`]) — the machines the
//! wire deployment runs as processes and the shuttle runs off one queue.
//! What one machine emits for another crosses as a typed [`WireMsg`]:
//! through a thread-local queue when both are on the same thread,
//! through the other thread's mailbox when not. Three rules route it:
//!
//! * A cell's uplinks go to the MLB on its own thread, which routes
//!   them and charges the load of the procedures they open. Each MLB
//!   balances on its own load view, like a deployment with one MLB per
//!   cell group.
//! * A worker's `Settled` goes to the MLB on the thread of the device's
//!   [`home_cell`]: that MLB routed the procedure, and holds the
//!   in-flight entry and the load charge the Idle edge releases.
//! * Everything else a worker emits (`ToEnb`, `Replicate`, `DropCtx`) is
//!   routed by the MLB on the worker's own thread.
//!
//! ## Happens-before for cross-shard replication
//!
//! A worker emits an Idle edge's `Replicate`s before its `Settled`, and
//! its thread sends each message on as it is routed, so the
//! `Replicate`s are in their holders' mailboxes before the `Settled` is
//! in the home thread's. The home cell starts the device's next
//! procedure only after the `Settled`, so a `Deliver` to a holder is
//! queued behind the `Replicate` — the holder has imported the state
//! before the Service Request arrives. (A replica for an engine on the
//! worker's own thread never leaves [`MmpNode::handle`].) The same
//! argument makes the `Stop` broadcast safe: it is enqueued after every
//! other message of the run.

use crate::wire_run::{WireCounts, WireMmpTotals, WireMode, WireRunConfig, PROC_KINDS};
use scale_core::wire::{to_cell, MlbOut, MlbState, MmpNode, WireMsg};
use scale_epc::{home_cell, EmuEvent, EnbEmulator, MTMSI_BASE};
use scale_obs::Histogram;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

/// Mailbox capacity. In-flight work is bounded by `window` UEs per
/// cell, each contributing a handful of queued messages, so queues
/// stay far from full — which is what keeps blocking sends between
/// mutually-sending workers deadlock-free.
const MAILBOX: usize = 1 << 15;

/// Configuration for one scale-out run.
#[derive(Debug, Clone)]
pub struct ScaleOutConfig {
    /// Worker threads (= shards = access cells).
    pub n_shards: usize,
    /// Total MMP VM fleet, striped over shards by
    /// [`shard_of`](scale_core::wire::shard_of). Keep this constant
    /// while varying `n_shards` so every configuration routes over the
    /// identical ring.
    pub total_vms: usize,
    /// Replication degree R.
    pub replication: usize,
    /// Devices to drive through attach + op mix.
    pub n_ues: usize,
    /// Idle-mode procedures (SR/TAU mix) per device after attach.
    pub ops_per_ue: usize,
    /// Seed for the SR/TAU op mix (and the HSS).
    pub seed: u64,
    /// In-flight devices per cell.
    pub window: usize,
    /// Virtual tokens per ring node.
    pub ring_tokens: u32,
}

impl ScaleOutConfig {
    /// The CI smoke shape: small population, two ops each.
    pub fn smoke(n_shards: usize) -> Self {
        ScaleOutConfig {
            n_shards,
            total_vms: 8,
            replication: 2,
            n_ues: 2000,
            ops_per_ue: 2,
            seed: 42,
            window: 64,
            ring_tokens: 64,
        }
    }

    /// The deployment the threads host: one cell, one MLB and one MMP
    /// worker per thread.
    fn deployment(&self) -> WireRunConfig {
        WireRunConfig {
            n_enbs: self.n_shards,
            n_mmps: self.n_shards,
            total_vms: self.total_vms,
            replication: self.replication,
            ring_tokens: self.ring_tokens,
            seed: self.seed,
            n_ues: self.n_ues,
            ops_per_ue: self.ops_per_ue,
            mode: WireMode::Closed {
                window: self.window,
            },
        }
    }
}

/// Deterministic outcome counts of a run: identical for identical
/// `(seed, config)` regardless of thread scheduling, and — except for
/// timing — independent of `n_shards` for a fixed VM fleet. The racy
/// least-loaded holder choice moves *where* work runs, never *how
/// much* of it there is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScaleOutCounts {
    /// Attach procedures completed.
    pub attaches: u64,
    /// Service Requests served.
    pub service_requests: u64,
    /// TAUs served.
    pub taus: u64,
    /// Idle edges (S1 releases + TAU teardowns) completed.
    pub idles: u64,
    /// Engine events processed (fleet-wide).
    pub messages: u64,
    /// Replica blobs imported ( = (R-1) × idle edges, local + remote).
    pub replicas_imported: u64,
    /// Device contexts resident at quiesce ( = R × population).
    pub contexts_held: u64,
    /// NAS rejects (expected 0).
    pub rejects: u64,
    /// Engine, worker, cell and MLB errors (expected 0).
    pub errors: u64,
}

impl ScaleOutCounts {
    /// The counts of a run whose machines, summed, counted `c` — the
    /// same reduction for this driver and for the shuttle.
    pub(crate) fn of(c: &WireCounts) -> Self {
        let s = &c.mmp.stats;
        ScaleOutCounts {
            attaches: s.attaches,
            service_requests: s.service_requests,
            taus: s.taus,
            idles: s.idles,
            messages: s.messages,
            replicas_imported: s.replicas_imported,
            contexts_held: c.mmp.contexts_held,
            rejects: s.rejects,
            errors: s.errors + c.mmp.wire_errors + c.enb.errors + c.mlb.errors,
        }
    }
}

/// Latency summary of one procedure class.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySummary {
    /// Completions observed.
    pub count: u64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
}

/// Everything a run reports: the deterministic counts plus wall-clock
/// and per-thread CPU measurements.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleOutReport {
    /// Worker threads used.
    pub n_shards: usize,
    /// Devices driven.
    pub n_ues: usize,
    /// Idle-mode ops per device.
    pub ops_per_ue: usize,
    /// Deterministic outcome counts.
    pub counts: ScaleOutCounts,
    /// Replica blobs that crossed a shard boundary (topology-dependent,
    /// *not* deterministic — the local/remote split follows the racy
    /// serving-holder choice).
    pub replicas_sent: u64,
    /// Wall-clock run time.
    pub elapsed_ms: u64,
    /// Engine messages per wall-clock second (bounded by physical
    /// cores actually available).
    pub wall_messages_per_s: f64,
    /// Attaches per wall-clock second.
    pub wall_attaches_per_s: f64,
    /// CPU milliseconds consumed by each worker thread.
    pub cpu_ms_per_shard: Vec<u64>,
    /// Engine messages divided by the *bottleneck worker's* CPU time:
    /// the throughput this shard count sustains when each worker has a
    /// core of its own. On a host with fewer physical cores than
    /// shards this is the honest scaling metric; wall-clock is not.
    pub projected_messages_per_s: f64,
    /// Same projection for attaches.
    pub projected_attaches_per_s: f64,
    /// Per-procedure latency (attach / service_request / tau /
    /// s1_release), microseconds.
    pub latency: Vec<(String, LatencySummary)>,
}

/// One message between machines, named by the machine it is for.
enum Hop {
    /// For the thread's MMP worker: `Deliver`, `Replicate`, `DropCtx`.
    Mmp(WireMsg),
    /// A worker's `Settled`, for the MLB on the thread of the device's
    /// home cell, which holds its in-flight entry and load charge.
    Mlb(WireMsg),
    /// For the thread's cell: `ToEnb`, `Settled`, `ProcFailed`.
    Enb(WireMsg),
    /// Run over (mailboxes only).
    Stop,
}

/// One worker thread: its three machines and how it reaches the others.
struct Worker<'a> {
    index: usize,
    cell: EnbEmulator,
    mlb: MlbState,
    node: MmpNode,
    mailboxes: Vec<SyncSender<Hop>>,
    /// Hops for this thread's own machines.
    local: VecDeque<Hop>,
    mlb_out: Vec<MlbOut>,
    node_out: Vec<WireMsg>,
    /// The cell's `sessions_done` already taken off `remaining`.
    sessions_done: u64,
    remaining: &'a AtomicUsize,
    /// Latency per [`ProcKind`](scale_epc::ProcKind), indexed by its
    /// discriminant (`PROC_KINDS` order), shared by all threads.
    hists: &'a [Histogram; 4],
}

/// What one worker hands back at join time.
struct WorkerOut {
    counts: WireCounts,
    cpu_ms: u64,
    error_samples: Vec<String>,
}

/// CPU time this thread has consumed, from the scheduler's own
/// nanosecond ledger (`/proc/thread-self/schedstat`, field 1). Falls
/// back to 0 where procfs is absent — the report marks projections
/// meaningless there anyway.
fn thread_cpu_ms() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|ns| ns.parse::<u64>().ok())
        })
        .map_or(0, |ns| ns / 1_000_000)
}

impl Worker<'_> {
    /// Set the cell up and prime its window, then serve the local queue
    /// and the mailbox until `Stop`. A cell with no UE at all
    /// (population smaller than the fleet) still serves its worker.
    fn run(mut self, rx: &Receiver<Hop>) -> WorkerOut {
        let setup = self.cell.s1_setup_request();
        self.mlb
            .on_enb(self.cell.enb_id(), None, setup, &mut self.mlb_out);
        self.dispatch();
        self.cell.start();
        self.drain_cell();
        loop {
            while let Some(hop) = self.local.pop_front() {
                self.handle(hop);
            }
            match rx.recv() {
                Ok(Hop::Stop) | Err(_) => break,
                Ok(hop) => self.handle(hop),
            }
        }
        let mut error_samples = self.cell.error_samples().to_vec();
        error_samples.extend_from_slice(self.node.error_samples());
        WorkerOut {
            counts: WireCounts {
                enb: self.cell.counts,
                mmp: WireMmpTotals {
                    stats: self.node.stats(),
                    contexts_held: self.node.contexts_held() as u64,
                    wire_errors: self.node.errors,
                },
                mlb: self.mlb.stats,
                reconnects: 0,
            },
            cpu_ms: thread_cpu_ms(),
            error_samples,
        }
    }

    fn send(&mut self, thread: usize, hop: Hop) {
        if thread == self.index {
            self.local.push_back(hop);
        } else if self.mailboxes[thread].send(hop).is_err() {
            panic!("thread {thread}'s mailbox closed mid-run");
        }
    }

    fn handle(&mut self, hop: Hop) {
        match hop {
            Hop::Mmp(msg) => {
                self.node.handle(msg, &mut self.node_out);
                // In the order the worker emitted them: a `Replicate`
                // leaves before the `Settled` behind it (module docs).
                let mut out = std::mem::take(&mut self.node_out);
                for msg in out.drain(..) {
                    if let WireMsg::Settled { m_tmsi, .. } = msg {
                        let home = home_cell(m_tmsi, self.mailboxes.len()).unwrap_or(self.index);
                        self.send(home, Hop::Mlb(msg));
                    } else {
                        self.mlb.on_mmp(msg, &mut self.mlb_out);
                        self.dispatch();
                    }
                }
                self.node_out = out;
            }
            Hop::Mlb(msg) => {
                self.mlb.on_mmp(msg, &mut self.mlb_out);
                self.dispatch();
            }
            Hop::Enb(msg) => {
                to_cell(&mut self.cell, msg);
                self.drain_cell();
            }
            Hop::Stop => {}
        }
    }

    /// Send what the MLB routed where it goes.
    fn dispatch(&mut self) {
        let mut out = std::mem::take(&mut self.mlb_out);
        for o in out.drain(..) {
            match o {
                MlbOut::Mmp { mmp, msg } => self.send(mmp, Hop::Mmp(msg)),
                MlbOut::Enb { enb, msg } => self.send(enb, Hop::Enb(msg)),
            }
        }
        self.mlb_out = out;
    }

    /// Route the cell's uplinks, record its completions, and broadcast
    /// `Stop` once the *global* population is done.
    fn drain_cell(&mut self) {
        for ev in self.cell.drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => {
                    self.mlb
                        .on_enb(self.cell.enb_id(), attach_hint, pdu, &mut self.mlb_out);
                    self.dispatch();
                }
                EmuEvent::Completed { kind, elapsed } => {
                    self.hists[kind as usize].record_duration(elapsed);
                }
            }
        }
        let finished = (self.cell.counts.sessions_done - self.sessions_done) as usize;
        self.sessions_done = self.cell.counts.sessions_done;
        if finished > 0 && self.remaining.fetch_sub(finished, Ordering::AcqRel) == finished {
            for mailbox in &self.mailboxes {
                if mailbox.send(Hop::Stop).is_err() {
                    panic!("a mailbox closed before Stop");
                }
            }
        }
    }
}

/// Run one sharded scale-out configuration to completion and report.
///
/// Returns the merged deterministic counts plus wall/CPU measurements.
pub fn run_scale_out(cfg: &ScaleOutConfig) -> ScaleOutReport {
    run_threads(cfg).0
}

/// [`run_scale_out`], also returning what the machines of every thread
/// counted, summed as the shuttle sums them.
pub fn run_threads(cfg: &ScaleOutConfig) -> (ScaleOutReport, WireCounts) {
    assert!(cfg.n_shards >= 1, "need at least one shard");
    assert!(
        cfg.total_vms >= cfg.replication && cfg.total_vms >= cfg.n_shards,
        "fleet too small for replication degree / shard count"
    );
    assert!(
        cfg.n_ues < (u32::MAX - MTMSI_BASE) as usize,
        "population exceeds M-TMSI space"
    );
    let deployment = cfg.deployment();
    let topo = deployment.topo();
    let hists: [Histogram; 4] = Default::default();
    let remaining = AtomicUsize::new(cfg.n_ues);

    let (mailboxes, receivers): (Vec<SyncSender<Hop>>, Vec<Receiver<Hop>>) =
        (0..cfg.n_shards).map(|_| sync_channel(MAILBOX)).unzip();
    let workers: Vec<Worker<'_>> = (0..cfg.n_shards)
        .map(|s| Worker {
            index: s,
            cell: deployment.emulator(s),
            mlb: MlbState::new(&topo),
            node: MmpNode::new(&topo, s),
            mailboxes: mailboxes.clone(),
            local: VecDeque::new(),
            mlb_out: Vec::new(),
            node_out: Vec::new(),
            sessions_done: 0,
            remaining: &remaining,
            hists: &hists,
        })
        .collect();
    drop(mailboxes);

    let started = Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .zip(receivers)
            .map(|(worker, rx)| scope.spawn(move || worker.run(&rx)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(_) => panic!("shard worker panicked"),
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut total = WireCounts::default();
    let mut cpu_ms_per_shard = Vec::with_capacity(outs.len());
    let mut samples = Vec::new();
    for out in &outs {
        total.add(&out.counts);
        cpu_ms_per_shard.push(out.cpu_ms);
        samples.extend(out.error_samples.iter().cloned());
    }
    let counts = ScaleOutCounts::of(&total);
    if !samples.is_empty() {
        eprintln!(
            "scale_out: {} error(s); first: {}",
            counts.errors, samples[0]
        );
    }

    let wall_s = elapsed.as_secs_f64().max(1e-9);
    let bottleneck_s = cpu_ms_per_shard.iter().copied().max().unwrap_or(0).max(1) as f64 / 1e3;
    let report = ScaleOutReport {
        n_shards: cfg.n_shards,
        n_ues: cfg.n_ues,
        ops_per_ue: cfg.ops_per_ue,
        counts,
        replicas_sent: total.mmp.stats.replicas_sent,
        elapsed_ms: elapsed.as_millis() as u64,
        wall_messages_per_s: counts.messages as f64 / wall_s,
        wall_attaches_per_s: counts.attaches as f64 / wall_s,
        cpu_ms_per_shard,
        projected_messages_per_s: counts.messages as f64 / bottleneck_s,
        projected_attaches_per_s: counts.attaches as f64 / bottleneck_s,
        latency: PROC_KINDS
            .iter()
            .zip(&hists)
            .map(|(kind, h)| {
                let summary = LatencySummary {
                    count: h.count(),
                    p50_us: h.p50(),
                    p99_us: h.p99(),
                };
                (kind.name().to_string(), summary)
            })
            .collect(),
    };
    (report, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_smoke_completes_cleanly() {
        let mut cfg = ScaleOutConfig::smoke(1);
        cfg.n_ues = 64;
        cfg.window = 16;
        let report = run_scale_out(&cfg);
        assert_eq!(report.counts.errors, 0);
        assert_eq!(report.counts.attaches, 64);
        assert_eq!(
            report.counts.service_requests + report.counts.taus,
            64 * cfg.ops_per_ue as u64
        );
        // Quiesced population: R copies per device.
        assert_eq!(report.counts.contexts_held, 64 * cfg.replication as u64);
        // Every idle edge re-synced R-1 replicas.
        assert_eq!(
            report.counts.replicas_imported,
            (cfg.replication as u64 - 1) * report.counts.idles
        );
    }
}
