//! The scale-out mega-bench: real MMP engines sharded over worker
//! threads, routing through the epoch-published
//! [`RoutePlane`](scale_core::RoutePlane), driving a large UE
//! population through attach / Service-Request / TAU mixes.
//!
//! Modes:
//!
//! * `--smoke` — CI gate. Small population, shard counts {1, 2}; every
//!   configuration runs **twice** and the serialized deterministic
//!   counts must match run-to-run *and* across shard counts (the fleet
//!   is fixed, so the ring — and therefore every outcome count — must
//!   not depend on how the fleet is striped over threads). Writes no
//!   files; exits non-zero on any mismatch or error.
//! * default — the full sweep: shard counts {1, 2, 4, 8} over a fixed
//!   16-VM fleet at R = 2, 2^20 UEs × 3 idle-mode ops each. Writes
//!   `results/BENCH_scale_out.json`.
//!
//! Throughput metric: on hosts with fewer physical cores than shards,
//! wall-clock cannot show scaling (the workers time-slice one core), so
//! the report also divides engine messages by the *bottleneck worker's
//! CPU seconds* — the rate the configuration sustains when each worker
//! owns a core. The JSON carries both, plus the speedup ratio of the
//! projected rate versus the single-shard run.

use scale_core::DcObserver;
use scale_obs::Registry;
use scale_sim::{run_threads, ScaleOutConfig, ScaleOutCounts, ScaleOutReport};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;

/// Everything `results/BENCH_scale_out.json` holds.
#[derive(Serialize)]
struct BenchOutput {
    experiment: &'static str,
    /// Physical cores the host exposed to this process; when below the
    /// largest shard count, wall-clock columns understate scaling and
    /// the projected columns are the honest ones.
    host_cores: usize,
    total_vms: usize,
    replication: usize,
    n_ues: usize,
    ops_per_ue: usize,
    seed: u64,
    /// True iff every shard count produced identical deterministic
    /// counts (fixed fleet ⇒ identical ring ⇒ identical outcomes).
    counts_invariant_across_shards: bool,
    runs: Vec<ScaleOutReport>,
    /// `projected_messages_per_s[n] / projected_messages_per_s[1]`,
    /// keyed by shard count.
    projected_speedup_vs_1: Vec<(usize, f64)>,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run one configuration, publish its workers' summed counters through
/// the observability registry, and sanity-check the published aggregate
/// against the report (exercises `DcObserver::publish_shards` on the
/// real sharded runtime, not just the unit-test harness).
fn run_and_publish(cfg: &ScaleOutConfig) -> ScaleOutReport {
    let registry = Arc::new(Registry::new());
    let observer = DcObserver::new(Arc::clone(&registry));
    let (report, totals) = run_threads(cfg);
    observer.publish_shards(&totals.mmp.stats);
    let published = registry.counter("scale_dc_messages_total", "").get();
    assert_eq!(
        published, report.counts.messages,
        "published metric diverges from the merged report"
    );
    report
}

fn print_row(r: &ScaleOutReport) {
    println!(
        "{:>7} {:>10} {:>10} {:>12.0} {:>14.0} {:>10} {:>9.1} {:>9.1}",
        r.n_shards,
        r.counts.messages,
        r.elapsed_ms,
        r.wall_messages_per_s,
        r.projected_messages_per_s,
        r.cpu_ms_per_shard.iter().max().copied().unwrap_or(0),
        latency_p99(r, "attach") / 1000.0,
        latency_p99(r, "service_request") / 1000.0,
    );
}

fn latency_p99(r: &ScaleOutReport, class: &str) -> f64 {
    r.latency
        .iter()
        .find(|(name, _)| name == class)
        .map_or(0.0, |(_, s)| s.p99_us)
}

fn counts_json(c: &ScaleOutCounts) -> String {
    serde_json::to_string(c).expect("counts serialize")
}

/// The CI smoke: determinism (same seed + cores ⇒ identical counts)
/// and shard-invariance (1 shard vs 2 shards ⇒ identical counts).
fn smoke() {
    let mut failures = 0u32;
    let mut baseline: Option<String> = None;
    for n_shards in [1usize, 2] {
        let cfg = ScaleOutConfig::smoke(n_shards);
        let first = run_and_publish(&cfg);
        let second = run_and_publish(&cfg);
        let a = counts_json(&first.counts);
        let b = counts_json(&second.counts);
        println!("smoke n_shards={n_shards}: {a}");
        if a != b {
            eprintln!("FAIL: n_shards={n_shards} run-to-run counts differ:\n  {a}\n  {b}");
            failures += 1;
        }
        if first.counts.errors != 0 || first.counts.rejects != 0 {
            eprintln!("FAIL: n_shards={n_shards} saw errors/rejects: {a}");
            failures += 1;
        }
        match &baseline {
            None => baseline = Some(a),
            Some(base) if *base != a => {
                eprintln!("FAIL: counts depend on shard count:\n  {base}\n  {a}");
                failures += 1;
            }
            Some(_) => {}
        }
    }
    if failures > 0 {
        eprintln!("scale_out --smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("scale_out --smoke: deterministic and shard-invariant");
}

fn full() {
    let shard_counts = [1usize, 2, 4, 8];
    let base = ScaleOutConfig {
        n_shards: 1,
        total_vms: 16,
        replication: 2,
        n_ues: 1 << 20,
        ops_per_ue: 3,
        seed: 2015,
        window: 256,
        ring_tokens: 64,
    };
    println!(
        "# scale_out: {} UEs x {} ops, {} VMs, R={}, host cores={}",
        base.n_ues,
        base.ops_per_ue,
        base.total_vms,
        base.replication,
        host_cores()
    );
    println!(
        "{:>7} {:>10} {:>10} {:>12} {:>14} {:>10} {:>9} {:>9}",
        "shards", "messages", "wall_ms", "wall_msg/s", "proj_msg/s", "max_cpu_ms", "att_p99ms", "sr_p99ms"
    );

    let mut runs = Vec::new();
    let mut invariant = true;
    for &n_shards in &shard_counts {
        let cfg = ScaleOutConfig { n_shards, ..base.clone() };
        let report = run_and_publish(&cfg);
        print_row(&report);
        if let Some(first) = runs.first() {
            let first: &ScaleOutReport = first;
            if first.counts != report.counts {
                invariant = false;
                eprintln!(
                    "WARN: counts diverged at n_shards={n_shards}:\n  {}\n  {}",
                    counts_json(&first.counts),
                    counts_json(&report.counts)
                );
            }
        }
        runs.push(report);
    }

    let base_rate = runs[0].projected_messages_per_s.max(1.0);
    let speedups: Vec<(usize, f64)> = runs
        .iter()
        .map(|r| (r.n_shards, r.projected_messages_per_s / base_rate))
        .collect();
    println!("\n# projected speedup vs 1 shard (bottleneck-worker CPU basis):");
    for (n, s) in &speedups {
        println!("  {n} shards: {s:.2}x");
    }

    let out = BenchOutput {
        experiment: "scale_out",
        host_cores: host_cores(),
        total_vms: base.total_vms,
        replication: base.replication,
        n_ues: base.n_ues,
        ops_per_ue: base.ops_per_ue,
        seed: base.seed,
        counts_invariant_across_shards: invariant,
        runs,
        projected_speedup_vs_1: speedups,
    };
    let dir = if Path::new("results").exists() { "results" } else { "." };
    let path = format!("{dir}/BENCH_scale_out.json");
    let json = serde_json::to_string_pretty(&out).expect("report serialize");
    std::fs::write(&path, json).expect("write results JSON");
    println!("# wrote {path}");
    if !invariant {
        std::process::exit(1);
    }
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    if smoke_mode {
        smoke();
    } else {
        full();
    }
}
