//! The multi-core scale-out driver: a deployment's own sans-IO
//! machines on worker threads, one part of it on each thread's [`Pump`],
//! joined by bounded mailboxes.
//!
//! Worker thread *s* runs part *s* of a deployment with
//! `n_enbs = n_mmps = n_shards` ([`Pump::part`]): cell *s*
//! ([`EnbEmulator`](scale_epc::EnbEmulator)), an MLB of its own and MMP
//! worker *s* — the machines the wire deployment runs as processes and
//! the shuttle runs on one pump. Every hop crosses as bytes, as on the shuttle: into an
//! MLB through its relay, into a cell or a worker through a decode. A
//! message for a machine on another thread leaves through the pump's
//! outbox and arrives through that thread's mailbox. The pump's one
//! rule picks the MLB: a cell's uplinks go to its own thread's, and a
//! worker answers the MLB that delivered the message it is handling.
//! Each MLB balances on its own load view, like a deployment with one
//! MLB per cell group.
//!
//! ## Happens-before across threads
//!
//! A thread moves its outbox into the mailboxes in send order, and each
//! mailbox is one FIFO, so every hop between two threads keeps its order
//! and DESIGN.md §12.2's one-FIFO argument holds (§12.3). So is `Stop`
//! safe: a thread moves its outbox before it counts its cell's finished
//! sessions, so what the last session waited on is queued ahead of it.

use crate::wire_run::{assert_settled, WireCounts, WireMode, WireRunConfig, PROC_KINDS};
use bytes::Bytes;
use scale_core::wire::{Link, Pump, Tamper};
use scale_epc::{ProcKind, MTMSI_BASE};
use scale_obs::Histogram;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

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

/// What one thread's mailbox carries: bytes that part `.0` sent on link
/// `.1`, or `None`, the run is over.
type Mail = Option<(usize, Link, Bytes)>;

/// The scale-out driver's transport: faithful, and it records every
/// completion's latency per [`ProcKind`], indexed by its discriminant
/// (`PROC_KINDS` order), for all threads.
struct Clocked<'a>(&'a [Histogram; 4]);

impl Tamper for Clocked<'_> {
    fn completed(&mut self, kind: ProcKind, elapsed: Duration) {
        self.0[kind as usize].record_duration(elapsed);
    }
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

fn post(mailbox: &SyncSender<Mail>, mail: Mail) {
    if mailbox.send(mail).is_err() {
        panic!("a mailbox closed mid-run");
    }
}

/// Run `pump`, part `part`, until the run is over: deliver its ready
/// messages in the order they were queued, move its outbox into the
/// other threads' mailboxes, broadcast the end once the *global*
/// population is done, and wait for mail. Hands back the pump and the
/// thread's CPU time.
fn run_part(
    mut pump: Pump,
    part: usize,
    rx: &Receiver<Mail>,
    mailboxes: &[SyncSender<Mail>],
    remaining: &AtomicUsize,
    hists: &[Histogram; 4],
) -> (Pump, u64) {
    let mut clocked = Clocked(hists);
    let mut sessions_done = 0;
    loop {
        while let Some(link) = pump.next_fifo() {
            pump.deliver(link, &mut clocked);
        }
        for (to, link, msg) in pump.outbox.drain(..) {
            post(&mailboxes[to], Some((part, link, msg)));
        }
        let done: u64 = pump.cells.iter().map(|c| c.counts.sessions_done).sum();
        let finished = (done - sessions_done) as usize;
        sessions_done = done;
        if finished > 0 && remaining.fetch_sub(finished, Ordering::AcqRel) == finished {
            for mailbox in mailboxes {
                post(mailbox, None);
            }
        }
        match rx.recv() {
            Ok(Some((from, link, msg))) => pump.accept(from, link, msg),
            Ok(None) | Err(_) => break,
        }
    }
    (pump, thread_cpu_ms())
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

    let (mailboxes, receivers): (Vec<SyncSender<Mail>>, Vec<Receiver<Mail>>) =
        (0..cfg.n_shards).map(|_| sync_channel(MAILBOX)).unzip();

    let started = Instant::now();
    let outs: Vec<(Pump, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let (deployment, topo, mailboxes) = (&deployment, &topo, &mailboxes);
                let (remaining, hists) = (&remaining, &hists);
                scope.spawn(move || {
                    let cells = vec![deployment.emulator(s)];
                    let pump = Pump::part(topo, s, cfg.n_shards, cells);
                    run_part(pump, s, &rx, mailboxes, remaining, hists)
                })
            })
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
    let (mut samples, mut wire_errors) = (Vec::new(), 0);
    for (pump, cpu_ms) in &outs {
        assert_settled(&pump.mlb);
        total.add(&WireCounts::of_pump(pump));
        cpu_ms_per_shard.push(*cpu_ms);
        wire_errors += pump.wire_errors.len() as u64;
        samples.extend(pump.wire_errors.iter().cloned());
        for emu in &pump.cells {
            samples.extend(emu.error_samples().iter().cloned());
        }
        for (_, node) in pump.live_workers() {
            samples.extend(node.error_samples().iter().cloned());
        }
    }
    let mut counts = ScaleOutCounts::of(&total);
    counts.errors += wire_errors;
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

    #[test]
    fn every_mlb_settles_what_it_routed() {
        // `run_threads` asserts that each thread's MLB ends with nothing
        // in flight and no VM charged: a `Settled` that reaches another
        // MLB than the one that routed its procedure leaves both.
        for n in 1..=4 {
            let mut cfg = ScaleOutConfig::smoke(n);
            cfg.n_ues = 256;
            cfg.window = 16;
            let report = run_scale_out(&cfg);
            assert_eq!(report.counts.errors, 0, "n = {n}");
            assert_eq!(report.counts.attaches, 256, "n = {n}");
        }
    }
}
