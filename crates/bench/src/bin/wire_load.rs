//! The wire-level mega-bench: spawns the multi-process deployment
//! (`scale_wired` — eNB emulators, MLB front, MMP workers over
//! `sctplite`/TCP) as real child processes, drives the seeded workload
//! through real sockets, and compares against the in-process
//! `scale_out` cluster on the *same* workload. The wall-clock gap
//! between the two *is* the result — everything the wire adds (framing,
//! kernel crossings, the single-threaded MLB router, egress queues) on
//! top of the identical protocol logic.
//!
//! Modes:
//!
//! * `--smoke` — CI gate. Runs the smoke topology over real sockets
//!   **twice** and requires bit-identical deterministic counts, then
//!   requires those counts to equal the in-process shuttle *and* the
//!   `scale_out` twin per-outcome counts. Writes no files; exits
//!   non-zero on any mismatch, error or unclean exit.
//! * default — the full sweep: for worker counts {2, 4}, a closed-loop
//!   capacity run (wire vs in-process gap) followed by an open-loop
//!   offered-load sweep (seeded Poisson arrivals at fractions of the
//!   measured capacity, bounded in-flight backpressure). Writes
//!   `results/BENCH_wire.json`. With `--before <file>` the
//!   `closed_loop` rows of an earlier output (the parent commit's build
//!   run on the same host) are carried along as `closed_loop_before`,
//!   so a transport change lands with its before/after rows in one
//!   file.
//!
//! The bench locates the `scale_wired` binary next to its own
//! executable, so run it via cargo (both binaries land in the same
//! `target/<profile>/` directory): `cargo run --release -p scale-bench
//! --bin wire_load`.

use scale_sim::{
    run_scale_out, run_shuttle, spawn_topology, WireCounts, WireLatency, WireMode, WireOutcome,
    WireRunConfig,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// Worker (MMP process) counts the full sweep covers.
const WORKER_COUNTS: [usize; 2] = [2, 4];
/// Offered load as fractions of the measured closed-loop capacity.
const LOAD_FRACTIONS: [f64; 4] = [0.3, 0.6, 0.9, 1.2];

/// Per-procedure latency over all cells: total completions, worst-cell
/// median and worst-cell tail (percentiles are per-cell; taking the
/// max is the honest cross-cell aggregate).
#[derive(Debug, Clone, Serialize)]
struct ProcLatency {
    proc: String,
    count: u64,
    p50_us_worst_cell: u64,
    p99_us_worst_cell: u64,
}

/// One closed-loop capacity run: the wire deployment and its
/// in-process twin on the identical seeded workload.
#[derive(Serialize)]
struct ClosedRun {
    n_mmps: usize,
    n_enbs: usize,
    total_vms: usize,
    replication: usize,
    n_ues: usize,
    ops_per_ue: usize,
    window: usize,
    /// Wire deployment wall time (longest cell drive).
    wire_wall_ms: u64,
    wire_attaches_per_s: f64,
    /// In-process `scale_out` twin wall time.
    inproc_wall_ms: u64,
    inproc_attaches_per_s: f64,
    /// The headline number: wire wall / in-process wall on the same
    /// workload. Everything real sockets cost.
    wire_over_inproc_wall: f64,
    /// True iff the wire per-outcome counts equal the twin's.
    parity_ok: bool,
    latency: Vec<ProcLatency>,
}

/// One open-loop offered-load point.
#[derive(Serialize)]
struct OpenRun {
    n_mmps: usize,
    /// Aggregate Poisson session-arrival rate (1/s) across cells.
    offered_rate_hz: f64,
    /// Offered load as a fraction of the measured closed-loop capacity.
    load_fraction: f64,
    max_in_flight: usize,
    wall_ms: u64,
    sessions_done: u64,
    /// Arrivals shed at the bounded in-flight cap (backpressure).
    sessions_shed: u64,
    achieved_attaches_per_s: f64,
    reconnects: u64,
    latency: Vec<ProcLatency>,
}

/// Everything `results/BENCH_wire.json` holds.
#[derive(Serialize)]
struct BenchOutput {
    experiment: &'static str,
    host_cores: usize,
    seed: u64,
    /// `closed_loop` of the `--before` file, verbatim.
    closed_loop_before: Option<Verbatim>,
    closed_loop: Vec<ClosedRun>,
    open_loop: Vec<OpenRun>,
}

/// Parsed JSON re-emitted as it was read.
struct Verbatim(serde::Value);

impl Serialize for Verbatim {
    fn to_value(&self) -> serde::Value {
        self.0.clone()
    }
}

/// The `closed_loop` array of an earlier `BENCH_wire.json`.
fn closed_loop_of(path: &str) -> Verbatim {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let serde::Value::Object(fields) =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
    else {
        panic!("{path} is not a JSON object");
    };
    let rows = fields.into_iter().find(|(k, _)| k == "closed_loop");
    Verbatim(rows.unwrap_or_else(|| panic!("{path} has no closed_loop")).1)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Locate the `scale_wired` binary: it lands in the same
/// `target/<profile>/` directory as this bench binary.
fn wired_bin() -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("bench binary has a parent dir");
    let mut candidates = vec![dir.join("scale_wired")];
    if let Some(up) = dir.parent() {
        candidates.push(up.join("scale_wired"));
    }
    for cand in &candidates {
        if cand.is_file() {
            return cand.to_string_lossy().into_owned();
        }
    }
    panic!(
        "scale_wired not found near {} — build it first (`cargo build --release --bin scale_wired`)",
        exe.display()
    );
}

fn aggregate_latency(lat: &[WireLatency]) -> Vec<ProcLatency> {
    let mut by_proc: BTreeMap<&str, ProcLatency> = BTreeMap::new();
    for l in lat {
        let e = by_proc.entry(l.proc.as_str()).or_insert_with(|| ProcLatency {
            proc: l.proc.clone(),
            count: 0,
            p50_us_worst_cell: 0,
            p99_us_worst_cell: 0,
        });
        e.count += l.count;
        e.p50_us_worst_cell = e.p50_us_worst_cell.max(l.p50_us);
        e.p99_us_worst_cell = e.p99_us_worst_cell.max(l.p99_us);
    }
    by_proc.into_values().filter(|p| p.count > 0).collect()
}

/// The nine per-outcome counts the wire deployment, the shuttle and the
/// in-process driver must agree on for the same seeded workload.
fn parity_against_twin(wire: &WireCounts, cfg: &WireRunConfig) -> bool {
    let twin = run_scale_out(&cfg.scale_out_twin());
    let pairs = [
        ("attaches", wire.mmp.stats.attaches, twin.counts.attaches),
        (
            "service_requests",
            wire.mmp.stats.service_requests,
            twin.counts.service_requests,
        ),
        ("taus", wire.mmp.stats.taus, twin.counts.taus),
        ("idles", wire.mmp.stats.idles, twin.counts.idles),
        ("messages", wire.mmp.stats.messages, twin.counts.messages),
        (
            "replicas_imported",
            wire.mmp.stats.replicas_imported,
            twin.counts.replicas_imported,
        ),
        (
            "contexts_held",
            wire.mmp.contexts_held,
            twin.counts.contexts_held,
        ),
        ("rejects", wire.mmp.stats.rejects, twin.counts.rejects),
        ("errors", wire.mmp.stats.errors, twin.counts.errors),
    ];
    let mut ok = true;
    for (name, w, t) in pairs {
        if w != t {
            eprintln!("PARITY MISMATCH {name}: wire={w} in-process={t}");
            ok = false;
        }
    }
    ok
}

fn run_wire(cfg: &WireRunConfig) -> WireOutcome {
    let bin = wired_bin();
    let dep = spawn_topology(&bin, cfg).expect("spawn wire topology");
    let outcome = dep.finish();
    assert!(
        outcome.clean_exit,
        "wire deployment did not exit cleanly: {:?}",
        outcome.counts
    );
    outcome
}

/// The CI smoke: socket-run determinism (run twice, identical counts)
/// plus three-way parity (sockets == shuttle == `scale_out` twin).
fn smoke() {
    let cfg = WireRunConfig::smoke();
    let mut failures = 0u32;

    let first = run_wire(&cfg);
    let second = run_wire(&cfg);
    println!("smoke wire counts: {:?}", first.counts);
    if first.counts != second.counts {
        eprintln!(
            "FAIL: socket run-to-run counts differ:\n  {:?}\n  {:?}",
            first.counts, second.counts
        );
        failures += 1;
    }
    let c = &first.counts;
    if c.enb.errors != 0 || c.enb.rejects != 0 || c.mmp.stats.errors != 0 || c.mmp.wire_errors != 0
    {
        eprintln!("FAIL: smoke run saw errors/rejects: {c:?}");
        failures += 1;
    }
    if c.enb.sessions_done != cfg.n_ues as u64 {
        eprintln!(
            "FAIL: {} of {} sessions completed",
            c.enb.sessions_done, cfg.n_ues
        );
        failures += 1;
    }

    let shuttle = run_shuttle(&cfg);
    if first.counts != shuttle {
        eprintln!(
            "FAIL: socket counts diverge from the in-process shuttle:\n  {:?}\n  {:?}",
            first.counts, shuttle
        );
        failures += 1;
    }
    if !parity_against_twin(&first.counts, &cfg) {
        eprintln!("FAIL: socket counts diverge from the scale_out twin");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("wire_load --smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("wire_load --smoke: deterministic over real sockets, parity with in-process cluster");
}

fn closed_cfg(n_mmps: usize) -> WireRunConfig {
    WireRunConfig {
        n_enbs: 4,
        n_mmps,
        total_vms: 16,
        replication: 2,
        ring_tokens: 64,
        seed: 2015,
        n_ues: 6000,
        ops_per_ue: 3,
        mode: WireMode::Closed { window: 64 },
    }
}

fn full(before: Option<&str>) {
    let closed_loop_before = before.map(closed_loop_of);
    println!(
        "# wire_load: multi-process deployment over sctplite/TCP, host cores={}",
        host_cores()
    );
    let mut closed_loop = Vec::new();
    let mut open_loop = Vec::new();
    let mut parity_failed = false;

    println!(
        "\n{:>6} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "mmps", "wire_ms", "inproc_ms", "wire/inproc", "wire_att/s", "parity"
    );
    for &n_mmps in &WORKER_COUNTS {
        let cfg = closed_cfg(n_mmps);
        let outcome = run_wire(&cfg);
        let wire_s = (outcome.wall_ms as f64 / 1000.0).max(1e-9);
        let wire_attach_rate = outcome.counts.enb.attaches as f64 / wire_s;
        let twin = run_scale_out(&cfg.scale_out_twin());
        let parity = parity_against_twin(&outcome.counts, &cfg);
        parity_failed |= !parity;
        let inproc_s = (twin.elapsed_ms as f64 / 1000.0).max(1e-9);
        println!(
            "{:>6} {:>12} {:>12} {:>12.2} {:>14.0} {:>8}",
            n_mmps,
            outcome.wall_ms,
            twin.elapsed_ms,
            outcome.wall_ms as f64 / twin.elapsed_ms.max(1) as f64,
            wire_attach_rate,
            parity
        );
        closed_loop.push(ClosedRun {
            n_mmps,
            n_enbs: cfg.n_enbs,
            total_vms: cfg.total_vms,
            replication: cfg.replication,
            n_ues: cfg.n_ues,
            ops_per_ue: cfg.ops_per_ue,
            window: match cfg.mode {
                WireMode::Closed { window } => window,
                WireMode::Open { max_in_flight, .. } => max_in_flight,
            },
            wire_wall_ms: outcome.wall_ms,
            wire_attaches_per_s: wire_attach_rate,
            inproc_wall_ms: twin.elapsed_ms,
            inproc_attaches_per_s: twin.counts.attaches as f64 / inproc_s,
            wire_over_inproc_wall: outcome.wall_ms as f64 / twin.elapsed_ms.max(1) as f64,
            parity_ok: parity,
            latency: aggregate_latency(&outcome.latency),
        });
    }

    println!(
        "\n{:>6} {:>10} {:>12} {:>10} {:>8} {:>12} {:>12}",
        "mmps", "frac", "offered/s", "done", "shed", "achieved/s", "att_p99_ms"
    );
    for closed in &closed_loop {
        // Offer fractions of the *measured* closed-loop session
        // capacity, incl. one point past saturation to show shedding.
        let capacity = closed.wire_attaches_per_s;
        for &frac in &LOAD_FRACTIONS {
            let rate_hz = capacity * frac;
            let cfg = WireRunConfig {
                n_ues: 3000,
                ops_per_ue: 2,
                mode: WireMode::Open {
                    rate_hz,
                    max_in_flight: 64,
                },
                ..closed_cfg(closed.n_mmps)
            };
            let outcome = run_wire(&cfg);
            let wall_s = (outcome.wall_ms as f64 / 1000.0).max(1e-9);
            let achieved = outcome.counts.enb.attaches as f64 / wall_s;
            let latency = aggregate_latency(&outcome.latency);
            let att_p99_ms = latency
                .iter()
                .find(|l| l.proc == "attach")
                .map_or(0.0, |l| l.p99_us_worst_cell as f64 / 1000.0);
            println!(
                "{:>6} {:>10.2} {:>12.0} {:>10} {:>8} {:>12.0} {:>12.2}",
                closed.n_mmps,
                frac,
                rate_hz,
                outcome.counts.enb.sessions_done,
                outcome.counts.enb.sessions_shed,
                achieved,
                att_p99_ms
            );
            open_loop.push(OpenRun {
                n_mmps: closed.n_mmps,
                offered_rate_hz: rate_hz,
                load_fraction: frac,
                max_in_flight: 64,
                wall_ms: outcome.wall_ms,
                sessions_done: outcome.counts.enb.sessions_done,
                sessions_shed: outcome.counts.enb.sessions_shed,
                achieved_attaches_per_s: achieved,
                reconnects: outcome.counts.reconnects,
                latency,
            });
        }
    }

    let out = BenchOutput {
        experiment: "wire_load",
        host_cores: host_cores(),
        seed: 2015,
        closed_loop_before,
        closed_loop,
        open_loop,
    };
    let dir = if Path::new("results").exists() { "results" } else { "." };
    let path = format!("{dir}/BENCH_wire.json");
    let json = serde_json::to_string_pretty(&out).expect("report serialize");
    std::fs::write(&path, json).expect("write results JSON");
    println!("\n# wrote {path}");
    if parity_failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    } else {
        let before = args.iter().position(|a| a == "--before");
        full(before.map(|i| args.get(i + 1).expect("--before <file>").as_str()));
    }
}
