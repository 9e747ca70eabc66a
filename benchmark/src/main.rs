//! The repo benchmark (see README.md): one workload per invocation,
//! closed loop, fixed work sized from `--seconds`.
//!
//! `--trace 0` measures the end-to-end metrics with no tracing code in
//! the path; `--trace 1` reruns the workload with spans around every
//! call into a layer and reports the per-layer metrics. Every run
//! checks its outputs before printing a number, and the last line of
//! stdout is the result as one JSON object.

mod aa;
mod catalogue;
mod dc;
mod engine;
mod host;
mod micro;
mod stats;
mod trace;
mod wire;

use catalogue::{Driver, Workload};
use dc::{scale_dc, CpCounts, CpPump};
use engine::{Engine, Latencies, Shape, Timed, REPLICATION};
use host::Watchdog;
use scale_mme::{MmeConfig, MmeCore};
use scale_sim::wire_run::WireCounts;
use stats::{block_percentile_us, median, percentile_us};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Layer, NoTrace, Proc, SpanTrace};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u64 = 12;
/// Set-ups timed per run; `setup_s` is their median. Cheap set-ups
/// (the wire deployment's tens of milliseconds) are the noisy ones and
/// get more samples, up to a second's worth.
const SETUP_SAMPLES_MIN: usize = 5;
const SETUP_SAMPLES_MAX: usize = 15;

fn more_setups_wanted(setups: &[f64]) -> bool {
    setups.len() < SETUP_SAMPLES_MIN
        || (setups.len() < SETUP_SAMPLES_MAX && setups.iter().sum::<f64>() < 1.0)
}
/// Population of the wire-vs-in-process parity check.
const PARITY_UES: usize = 2_000;
/// Per-workload deadline, well under `wire_run`'s 180 s `RUN_DEADLINE`
/// and the driver's own cap.
const DEADLINE: Duration = Duration::from_secs(150);
/// Open-loop probe: offered rate and duration.
const OPEN_RATE_HZ: f64 = 1_000.0;
const OPEN_SECONDS: f64 = 5.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale_wired: String,
    manifest: PathBuf,
    out_dir: PathBuf,
}

/// What one invocation reports.
#[derive(Default)]
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
         benchmark/run.sh --aa [--seconds S] [--runs N]\n       \
         benchmark/run.sh --print-manifest\nworkloads: {}",
        catalogue::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = Args {
        workload: String::new(),
        seed: 2015,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale_wired: String::new(),
        manifest: PathBuf::from("BENCHMARK.json"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut aa_mode = false;
    let mut aa_runs = 5usize;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = val() == "1",
            "--scale-wired" => args.scale_wired = val(),
            "--manifest" => args.manifest = PathBuf::from(val()),
            "--out-dir" => args.out_dir = PathBuf::from(val()),
            "--aa" => aa_mode = true,
            "--runs" => aa_runs = val().parse().unwrap_or_else(|_| usage()),
            "--print-manifest" => {
                println!(
                    "{}",
                    catalogue::render(&catalogue::manifest(RUN_SECONDS), 0)
                );
                return;
            }
            _ => usage(),
        }
    }
    match std::fs::read_to_string(&args.manifest) {
        Ok(text) => {
            if let Err(e) = catalogue::check_manifest(&text) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.manifest.display());
            std::process::exit(2);
        }
    }
    if aa_mode {
        std::process::exit(aa::run(
            args.seconds,
            aa_runs,
            &args.scale_wired,
            &args.manifest,
            &args.out_dir,
        ));
    }
    let Some(w) = catalogue::workload(&args.workload) else {
        usage()
    };
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        usage();
    }
    if w.driver == Driver::Wire && args.scale_wired.is_empty() {
        eprintln!("error: wire workloads need --scale-wired <path to the scale_wired binary> (run.sh passes it)");
        std::process::exit(2);
    }

    host::print_host();
    let wd = Watchdog::start(DEADLINE);
    let result = run_workload(w, &args, &wd);
    wd.stop();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print_report(w, &args, &report);
}

fn print_report(w: &Workload, args: &Args, r: &Report) {
    // The catalogue decides which metrics a run owes.
    let expected: Vec<&str> = if args.trace {
        catalogue::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        catalogue::END_TO_END.iter().map(|m| m.name).collect()
    };
    let got: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    let mut problems = r.problems.clone();
    for name in &expected {
        let times = got.iter().filter(|g| g == &name).count();
        if times != 1 {
            problems.push(format!("metric {name} reported {times} times"));
        }
    }
    for name in &got {
        if !expected.contains(name) {
            problems.push(format!(
                "metric {name} is not in the catalogue for this pass"
            ));
        }
    }
    for (name, value) in &r.metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not a finite number"));
        }
        println!("{name} = {value} {}", catalogue::unit_of(name));
    }
    println!(
        "workload={} seed={} seconds={} trace={} attempted={} failed={}",
        w.name, args.seed, args.seconds, args.trace as u8, r.attempted, r.failed
    );
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty() && r.failed == 0;
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if value.is_finite() { *value } else { 0.0 },
                catalogue::unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run_workload(w: &Workload, args: &Args, wd: &Watchdog) -> Result<Report, String> {
    // A traced invocation runs the workload twice (untraced and
    // traced, to price the tracing), each at half the population.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let shape = Shape {
        n_ues: w.population(seconds),
        ops_per_ue: w.ops_per_ue,
        window: w.window,
        seed: args.seed,
    };
    println!(
        "workload {}: {} UEs, {} ops/UE, window {}, closed loop, 1 cell, fleet 16 VMs R=2 64 tokens",
        w.name, shape.n_ues, shape.ops_per_ue, shape.window
    );
    let mut r = Report {
        attempted: (shape.n_ues * (1 + shape.ops_per_ue)) as u64,
        ..Report::default()
    };
    match (w.driver, args.trace) {
        (Driver::Engine, false) => engine_untraced(&shape, &mut r),
        (Driver::Dc, false) => dc_untraced(&shape, &mut r),
        (Driver::Wire, false) => wire_untraced(&shape, &args.scale_wired, wd, &mut r)?,
        (driver, true) => {
            let mut layer = LayerMetrics::default();
            let trace_file = args.out_dir.join(format!("trace_{}.json", w.name));
            match driver {
                Driver::Engine => {
                    let plain = untraced_reference(w, &shape, args)?;
                    engine_traced(w, &shape, &plain, &trace_file, &mut r, &mut layer)?;
                }
                Driver::Dc => {
                    let plain = untraced_reference(w, &shape, args)?;
                    dc_traced(w, &shape, &plain, &trace_file, &mut r, &mut layer)?;
                }
                Driver::Wire => wire_traced(
                    w,
                    &shape,
                    &args.scale_wired,
                    wd,
                    &trace_file,
                    &mut r,
                    &mut layer,
                )?,
            }
            mme_engine_slice(&shape, &mut r, &mut layer);
            for (name, value) in micro::run_all(&shape)? {
                layer.set(name, value);
            }
            for (name, _, _) in catalogue::PER_LAYER {
                r.put(name, layer.get(name));
            }
        }
    }
    Ok(r)
}

/// Per-layer values by name; a layer the workload never enters reads 0
/// (its busy time and counts on this workload *are* zero).
#[derive(Default)]
struct LayerMetrics(std::collections::HashMap<&'static str, f64>);

impl LayerMetrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue::PER_LAYER.iter().any(|m| m.0 == name),
            "per-layer metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------
// Checks shared by every driver
// ---------------------------------------------------------------------

/// Operations that did not succeed: rejects, errors, MLB drops, shed
/// sessions, procedures failed over.
fn failed_ops(c: &WireCounts) -> u64 {
    c.enb.rejects
        + c.enb.errors
        + c.enb.sessions_shed
        + c.enb.recoveries
        + c.mlb.dropped
        + c.mlb.errors
        + c.mlb.proc_failures
        + c.mmp.stats.rejects
        + c.mmp.stats.errors
        + c.mmp.wire_errors
}

fn check_counts(what: &str, shape: &Shape, c: &WireCounts, r: &mut Report) {
    let n = shape.n_ues as u64;
    r.check(c.enb.sessions_done == n, || {
        format!(
            "{what}: sessions_done {} != population {n}",
            c.enb.sessions_done
        )
    });
    r.check(c.enb.attaches == n, || {
        format!("{what}: attaches {} != population {n}", c.enb.attaches)
    });
    r.check(
        c.enb.service_requests + c.enb.taus == shape.idle_ops(),
        || {
            format!(
                "{what}: SR+TAU {} != {}",
                c.enb.service_requests + c.enb.taus,
                shape.idle_ops()
            )
        },
    );
    r.check(c.enb.attaches == c.mmp.stats.attaches, || {
        format!("{what}: engine attaches differ from access side")
    });
    r.check(
        c.enb.service_requests == c.mmp.stats.service_requests && c.enb.taus == c.mmp.stats.taus,
        || format!("{what}: engine SR/TAU counts differ from access side"),
    );
    r.check(c.mmp.contexts_held == REPLICATION as u64 * n, || {
        format!(
            "{what}: contexts_held {} != R x population {}",
            c.mmp.contexts_held,
            REPLICATION as u64 * n
        )
    });
    r.check(
        c.mmp.stats.replicas_imported == (REPLICATION as u64 - 1) * c.mmp.stats.idles,
        || {
            format!(
                "{what}: replicas_imported {} != (R-1) x idles {}",
                c.mmp.stats.replicas_imported, c.mmp.stats.idles
            )
        },
    );
    r.check(failed_ops(c) == 0, || {
        format!("{what}: {} operations failed: {c:?}", failed_ops(c))
    });
}

/// The four metrics every workload shares, plus attach percentiles.
fn put_end_to_end(
    r: &mut Report,
    setups: Vec<f64>,
    sessions: usize,
    wall_s: f64,
    cpu_ns: u64,
    mem_kb_per_ue: f64,
    lat: &mut Latencies,
) {
    let n = sessions as f64;
    r.put("setup_s", median(setups));
    r.put("sessions_per_s", n / wall_s);
    r.put("cpu_ms_per_session", cpu_ns as f64 / 1e6 / n);
    r.put("mem_kb_per_ue", mem_kb_per_ue);
    r.put("attach_p50_us", block_percentile_us(&mut lat.attach, 0.50));
    println!(
        "timed phase {wall_s:.3} s; samples: attach {} sr {} tau {} release {}",
        lat.attach.len(),
        lat.sr.len(),
        lat.tau.len(),
        lat.release.len()
    );
}

// ---------------------------------------------------------------------
// engine_* workloads
// ---------------------------------------------------------------------

fn engine_untraced(shape: &Shape, r: &mut Report) {
    let t = Instant::now();
    let engine = Engine::build(shape);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut run = engine.run(shape, &mut NoTrace);
    check_counts("engine pump", shape, &run.counts, r);
    r.failed = failed_ops(&run.counts);
    // Further set-ups come after the measured run, so that memory
    // freed by an earlier population cannot hide this one's growth.
    while more_setups_wanted(&setups) {
        let t = Instant::now();
        drop(std::hint::black_box(Engine::build(shape)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Timed { wall_s, used } = run.timed;
    let mem = used.rss_kb as f64 / shape.n_ues as f64;
    put_end_to_end(
        r,
        setups,
        shape.n_ues,
        wall_s,
        used.cpu_ns,
        mem,
        &mut run.lat,
    );
}

/// `core.wire.*`, `core.shard.*` and emulator numbers from a traced
/// engine pump.
fn engine_layer_metrics(
    shape: &Shape,
    tr: &SpanTrace,
    counts: &WireCounts,
    layer: &mut LayerMetrics,
) {
    let n = shape.n_ues as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let mlb_ns = tr.busy_ns(Layer::MlbOnEnb) + tr.busy_ns(Layer::MlbOnMmp);
    let mlb_calls = tr.calls(Layer::MlbOnEnb) + tr.calls(Layer::MlbOnMmp);
    layer.set("core.wire.mlb.busy_us_per_session", us(mlb_ns) / n);
    layer.set("core.wire.mlb.calls_per_session", mlb_calls as f64 / n);
    layer.set(
        "core.wire.mmp.busy_us_per_session",
        us(tr.busy_ns(Layer::MmpHandle)) / n,
    );
    layer.set(
        "core.wire.mmp.calls_per_session",
        tr.calls(Layer::MmpHandle) as f64 / n,
    );
    let per = |proc: Proc, count: u64| {
        if count == 0 {
            0.0
        } else {
            us(tr.busy_ns_proc(Layer::MmpHandle, proc)) / count as f64
        }
    };
    layer.set(
        "core.wire.mmp.attach_busy_us",
        per(Proc::Attach, counts.enb.attaches),
    );
    layer.set(
        "core.wire.mmp.sr_busy_us",
        per(Proc::Sr, counts.enb.service_requests),
    );
    layer.set("core.wire.mmp.tau_busy_us", per(Proc::Tau, counts.enb.taus));
    layer.set(
        "core.wire.mmp.release_busy_us",
        per(Proc::Release, counts.enb.s1_releases),
    );
    layer.set(
        "core.shard.msgs_per_session",
        counts.mmp.stats.messages as f64 / n,
    );
    let idles = counts.mmp.stats.idles.max(1) as f64;
    layer.set(
        "core.shard.replicas_per_idle",
        counts.mmp.stats.replicas_imported as f64 / idles,
    );
    layer.set(
        "core.shard.replicate_bytes_per_idle",
        tr.replicate_bytes as f64 / idles,
    );
}

fn emulator_busy_ns(tr: &SpanTrace) -> u64 {
    [Layer::EmuStart, Layer::EmuDownlink, Layer::EmuSettled]
        .iter()
        .map(|&l| tr.busy_ns(l))
        .sum()
}

/// Reconcile a traced in-process pass with its untraced twin.
fn put_trace_shares(
    what: &str,
    tr: &SpanTrace,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    r: &mut Report,
    layer: &mut LayerMetrics,
) {
    let unexplained = 1.0 - tr.total_busy_ns() as f64 / 1e9 / traced_wall_s;
    layer.set("trace.unexplained_share", unexplained);
    layer.set(
        "trace.overhead_share",
        (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    );
    r.check(unexplained <= 0.10, || {
        format!("{what}: trace.unexplained_share {unexplained:.3} > 0.10 (layer spans do not account for the timed wall)")
    });
}

fn put_tail_percentiles(lat: &mut Latencies, layer: &mut LayerMetrics) {
    layer.set(
        "epc.emulator.attach_p99_us",
        block_percentile_us(&mut lat.attach, 0.99),
    );
    layer.set(
        "epc.emulator.sr_p50_us",
        block_percentile_us(&mut lat.sr, 0.50),
    );
    layer.set(
        "epc.emulator.sr_p99_us",
        block_percentile_us(&mut lat.sr, 0.99),
    );
}

fn write_trace(
    tr: &SpanTrace,
    file: &std::path::Path,
    w: &Workload,
    wall_s: f64,
) -> Result<(), String> {
    tr.write_json(file, w.name, (wall_s * 1e9) as u64)
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("trace written to {}", file.display());
    Ok(())
}

/// The untraced twin of an in-process traced pass, run as a child
/// process: a pump run later in one process is slower than the first
/// (measured +9 % on `engine_attach_storm`, the heap the first run
/// left behind), which would be booked as tracing overhead.
struct Reference {
    wall_s: f64,
    cpu_us_per_session: f64,
}

fn untraced_reference(w: &Workload, shape: &Shape, args: &Args) -> Result<Reference, String> {
    let values = aa::one_run(
        w.name,
        args.seed,
        args.seconds / 2.0,
        &args.scale_wired,
        &args.manifest,
        &args.out_dir,
    )?;
    let value = |name: &str| {
        catalogue::END_TO_END
            .iter()
            .position(|m| m.name == name)
            .map(|i| values[i])
            .ok_or_else(|| format!("no end-to-end metric {name}"))
    };
    Ok(Reference {
        wall_s: shape.n_ues as f64 / value("sessions_per_s")?,
        cpu_us_per_session: value("cpu_ms_per_session")? * 1e3,
    })
}

fn engine_traced(
    w: &Workload,
    shape: &Shape,
    plain: &Reference,
    file: &std::path::Path,
    r: &mut Report,
    layer: &mut LayerMetrics,
) -> Result<(), String> {
    let mut tr = SpanTrace::new();
    let mut traced = Engine::build(shape).run(shape, &mut tr);
    check_counts("traced engine pump", shape, &traced.counts, r);
    r.failed = failed_ops(&traced.counts);

    engine_layer_metrics(shape, &tr, &traced.counts, layer);
    layer.set("core.wire.mlb.dropped", traced.counts.mlb.dropped as f64);
    layer.set(
        "core.wire.mlb.proc_failures",
        traced.counts.mlb.proc_failures as f64,
    );
    layer.set(
        "epc.emulator.busy_us_per_session",
        emulator_busy_ns(&tr) as f64 / 1e3 / shape.n_ues as f64,
    );
    layer.set("proc.gen.cpu_us_per_session", plain.cpu_us_per_session);
    put_tail_percentiles(&mut traced.lat, layer);
    put_trace_shares(
        "engine pump",
        &tr,
        traced.timed.wall_s,
        plain.wall_s,
        r,
        layer,
    );
    write_trace(&tr, file, w, traced.timed.wall_s)
}

// ---------------------------------------------------------------------
// dc_mix
// ---------------------------------------------------------------------

fn check_cp_counts(what: &str, shape: &Shape, c: &CpCounts, r: &mut Report) {
    let n = shape.n_ues as u64;
    r.check(c.sessions_done == n, || {
        format!(
            "{what}: sessions_done {} != population {n}",
            c.sessions_done
        )
    });
    r.check(c.attaches == n, || {
        format!("{what}: attaches {} != population {n}", c.attaches)
    });
    r.check(c.service_requests + c.taus == shape.idle_ops(), || {
        format!(
            "{what}: SR+TAU {} != {}",
            c.service_requests + c.taus,
            shape.idle_ops()
        )
    });
    r.check(c.rejects + c.errors == 0, || {
        format!("{what}: {} rejects, {} errors", c.rejects, c.errors)
    });
}

fn check_dc(shape: &Shape, pump: &CpPump<scale_core::ScaleDc>, c: &CpCounts, r: &mut Report) {
    check_cp_counts("ScaleDc pump", shape, c, r);
    let dc = &pump.cp;
    let held: usize = dc.vm_ids().iter().map(|&vm| dc.states_on(vm)).sum();
    r.check(held == REPLICATION * shape.n_ues, || {
        format!(
            "ScaleDc: contexts held {held} != R x population {}",
            REPLICATION * shape.n_ues
        )
    });
    let idles = c.s1_releases + c.taus;
    r.check(
        dc.stats.replications == (REPLICATION as u64 - 1) * idles,
        || {
            format!(
                "ScaleDc: replications {} != (R-1) x idles {idles}",
                dc.stats.replications
            )
        },
    );
    r.check(
        dc.stats.forwards == 0 && dc.mlb.failover_stats.lost == 0,
        || {
            format!(
                "ScaleDc: {} forwards, {} lost",
                dc.stats.forwards, dc.mlb.failover_stats.lost
            )
        },
    );
}

/// `ScaleDc` routes an S11 response by a VM byte that sits right above
/// a 16-bit per-VM sequence number, so a VM that opens more than
/// 65,535 S11 transactions in its lifetime carries into that byte and
/// its responses go astray. A session of this mix opens 9, spread
/// over the 16 VMs within +21 %: 68,000 sessions keep the busiest VM
/// under 47,000. A longer `dc_mix` is therefore several clusters one
/// after the other, each set up (untimed) and pumped (timed) in turn.
const DC_ROUND_UES: usize = 68_000;

struct DcTotals {
    /// Set-up time of each round.
    setups: Vec<f64>,
    wall_s: f64,
    cpu_ns: u64,
    /// Memory growth of the first round, which starts on a fresh heap.
    first_rss_kb: u64,
    first_ues: usize,
    counts: CpCounts,
    replications: u64,
    lat: Latencies,
}

fn dc_rounds<T: trace::Tracer>(shape: &Shape, tr: &mut T, r: &mut Report) -> DcTotals {
    let rounds = shape.n_ues.div_ceil(DC_ROUND_UES);
    let mut t = DcTotals {
        setups: Vec::new(),
        wall_s: 0.0,
        cpu_ns: 0,
        first_rss_kb: 0,
        first_ues: 0,
        counts: CpCounts::default(),
        replications: 0,
        lat: Latencies::for_shape(shape),
    };
    for i in 0..rounds {
        let round = Shape {
            n_ues: shape.n_ues / rounds + usize::from(i < shape.n_ues % rounds),
            ..*shape
        };
        let built = Instant::now();
        let mut pump = CpPump::build(scale_dc(round.n_ues), &round, false);
        t.setups.push(built.elapsed().as_secs_f64());
        let run = pump.run(&round, tr);
        check_dc(&round, &pump, &run.counts, r);
        if i == 0 {
            (t.first_rss_kb, t.first_ues) = (run.timed.used.rss_kb, round.n_ues);
        }
        t.wall_s += run.timed.wall_s;
        t.cpu_ns += run.timed.used.cpu_ns;
        t.counts.add(&run.counts);
        t.replications += pump.cp.stats.replications;
        t.lat.append(run.lat);
    }
    r.failed = t.counts.rejects + t.counts.errors;
    t
}

fn dc_untraced(shape: &Shape, r: &mut Report) {
    let mut t = dc_rounds(shape, &mut NoTrace, r);
    let round = Shape {
        n_ues: t.first_ues,
        ..*shape
    };
    while more_setups_wanted(&t.setups) {
        let built = Instant::now();
        drop(std::hint::black_box(CpPump::build(
            scale_dc(round.n_ues),
            &round,
            false,
        )));
        t.setups.push(built.elapsed().as_secs_f64());
    }
    let mem = t.first_rss_kb as f64 / t.first_ues as f64;
    put_end_to_end(
        r,
        t.setups,
        shape.n_ues,
        t.wall_s,
        t.cpu_ns,
        mem,
        &mut t.lat,
    );
}

fn dc_traced(
    w: &Workload,
    shape: &Shape,
    plain: &Reference,
    file: &std::path::Path,
    r: &mut Report,
    layer: &mut LayerMetrics,
) -> Result<(), String> {
    let mut tr = SpanTrace::new();
    let mut t = dc_rounds(shape, &mut tr, r);

    let n = shape.n_ues as f64;
    let us = |l: Layer| tr.busy_ns(l) as f64 / 1e3;
    layer.set(
        "core.cluster.handle_us_per_session",
        us(Layer::CpHandle) / n,
    );
    layer.set(
        "core.cluster.calls_per_session",
        tr.calls(Layer::CpHandle) as f64 / n,
    );
    let idles = (t.counts.s1_releases + t.counts.taus).max(1) as f64;
    layer.set(
        "core.cluster.replications_per_idle",
        t.replications as f64 / idles,
    );
    layer.set(
        "epc.emulator.busy_us_per_session",
        (us(Layer::AccessStart) + us(Layer::AccessDownlink)) / n,
    );
    layer.set("epc.hss.busy_us_per_session", us(Layer::HssHandle) / n);
    layer.set("epc.sgw.busy_us_per_session", us(Layer::SgwHandle) / n);
    layer.set("proc.gen.cpu_us_per_session", plain.cpu_us_per_session);
    put_tail_percentiles(&mut t.lat, layer);
    put_trace_shares("ScaleDc pump", &tr, t.wall_s, plain.wall_s, r, layer);
    write_trace(&tr, file, w, t.wall_s)
}

/// `mme.engine.*`: a bare `MmeCore` behind the same pump and script,
/// handler time per completed procedure of each kind.
fn mme_engine_slice(shape: &Shape, r: &mut Report, layer: &mut LayerMetrics) {
    let slice = Shape {
        n_ues: PARITY_UES,
        ops_per_ue: 3,
        window: 64,
        seed: shape.seed,
    };
    let mut tr = SpanTrace::new();
    let mut pump = CpPump::build(MmeCore::new(MmeConfig::default()), &slice, true);
    let run = pump.run(&slice, &mut tr);
    check_cp_counts("bare MmeCore pump", &slice, &run.counts, r);
    let per = |proc: Proc, count: u64| {
        tr.busy_ns_proc(Layer::CpHandle, proc) as f64 / 1e3 / count.max(1) as f64
    };
    layer.set(
        "mme.engine.attach_us",
        per(Proc::Attach, run.counts.attaches),
    );
    layer.set(
        "mme.engine.sr_us",
        per(Proc::Sr, run.counts.service_requests),
    );
    layer.set("mme.engine.tau_us", per(Proc::Tau, run.counts.taus));
}

// ---------------------------------------------------------------------
// wire_* workloads
// ---------------------------------------------------------------------

/// Wire counts must equal the in-process pump's on the same seed and
/// population. `replicas_sent` is left out: which holder serves an
/// idle-mode procedure follows the MLB's in-flight load table, so the
/// local/remote split of replica copies depends on timing.
fn check_parity(shape: &Shape, bin: &str, wd: &Watchdog, r: &mut Report) -> Result<(), String> {
    let parity = Shape {
        n_ues: PARITY_UES,
        ..*shape
    };
    let over_wire = wire::run_closed(bin, &parity, wd, &mut NoTrace)?;
    check_counts("parity wire run", &parity, &over_wire.counts, r);
    r.check(over_wire.clean_exit, || {
        "parity wire run: a child did not exit cleanly".to_string()
    });
    let mut a = over_wire.counts;
    let mut b = Engine::build(&parity).run(&parity, &mut NoTrace).counts;
    a.mmp.stats.replicas_sent = 0;
    b.mmp.stats.replicas_sent = 0;
    r.check(a == b, || {
        format!("wire counts differ from the in-process pump's:\n wire   {a:?}\n inproc {b:?}")
    });
    Ok(())
}

fn wire_untraced(shape: &Shape, bin: &str, wd: &Watchdog, r: &mut Report) -> Result<(), String> {
    let mut run = wire::run_closed(bin, shape, wd, &mut NoTrace)?;
    check_counts("wire deployment", shape, &run.counts, r);
    r.check(run.clean_exit, || {
        "wire deployment: a child did not exit cleanly".to_string()
    });
    r.failed = failed_ops(&run.counts);
    let mut setups = vec![run.setup_s];
    while more_setups_wanted(&setups) {
        setups.push(wire::setup_only(bin, shape, wd)?);
    }
    check_parity(shape, bin, wd, r)?;
    let children = run.after.since(&run.before);
    let mem = children.rss_kb() as f64 / shape.n_ues as f64;
    put_end_to_end(
        r,
        setups,
        shape.n_ues,
        run.wall_s,
        children.cpu_ns(),
        mem,
        &mut run.lat,
    );
    Ok(())
}

fn wire_traced(
    w: &Workload,
    shape: &Shape,
    bin: &str,
    wd: &Watchdog,
    file: &std::path::Path,
    r: &mut Report,
    layer: &mut LayerMetrics,
) -> Result<(), String> {
    let mut plain = wire::run_closed(bin, shape, wd, &mut NoTrace)?;
    check_counts("wire deployment", shape, &plain.counts, r);
    r.check(plain.clean_exit, || {
        "wire deployment: a child did not exit cleanly".to_string()
    });
    let mut tr = SpanTrace::new();
    let traced = wire::run_closed(bin, shape, wd, &mut tr)?;
    check_counts("traced wire deployment", shape, &traced.counts, r);
    r.check(traced.clean_exit, || {
        "traced wire deployment: a child did not exit cleanly".to_string()
    });
    // Both passes ran here, so both count.
    r.attempted *= 2;
    r.failed = failed_ops(&plain.counts) + failed_ops(&traced.counts);

    // Children, from /proc at the start and end of the untraced timed
    // phase.
    let n = shape.n_ues as f64;
    let c = plain.after.since(&plain.before);
    // Messages at the generator: every uplink it sent and every
    // downlink it got crosses the MLB once and an MMP at most once.
    let msgs = (tr.calls(Layer::LinkSend) + tr.calls(Layer::WireDecode)).max(1) as f64;
    layer.set("proc.mlb.cpu_us_per_session", c.mlb.cpu_ns as f64 / 1e3 / n);
    layer.set("proc.mmp.cpu_us_per_session", c.mmp.cpu_ns as f64 / 1e3 / n);
    layer.set(
        "proc.gen.cpu_us_per_session",
        plain.gen.cpu_ns as f64 / 1e3 / n,
    );
    layer.set("proc.mlb.sys_share", c.mlb.sys_share());
    layer.set("proc.mmp.sys_share", c.mmp.sys_share());
    layer.set("proc.mlb.ctxsw_per_msg", c.mlb.ctxsw as f64 / msgs);
    layer.set("proc.mmp.ctxsw_per_msg", c.mmp.ctxsw as f64 / msgs);
    layer.set(
        "proc.mmp.rss_kb_per_ctx",
        c.mmp.rss_kb as f64 / plain.counts.mmp.contexts_held.max(1) as f64,
    );
    layer.set("proc.mlb.rss_kb", plain.after.mlb.rss_kb as f64);
    layer.set("core.wire.mlb.dropped", plain.counts.mlb.dropped as f64);
    layer.set(
        "core.wire.mlb.proc_failures",
        plain.counts.mlb.proc_failures as f64,
    );
    put_tail_percentiles(&mut plain.lat, layer);

    // Generator-side spans. Time blocked in the socket read is
    // waiting, not work.
    layer.set(
        "epc.emulator.busy_us_per_session",
        emulator_busy_ns(&tr) as f64 / 1e3 / n,
    );
    layer.set(
        "trace.unexplained_share",
        1.0 - tr.total_busy_ns() as f64 / 1e9 / traced.wall_s,
    );
    layer.set(
        "trace.overhead_share",
        (traced.wall_s - plain.wall_s) / plain.wall_s,
    );
    let gen_busy_s = (tr.total_busy_ns() - tr.busy_ns(Layer::LinkRecv)) as f64 / 1e9;
    let children_busy_s = traced.after.since(&traced.before).cpu_ns() as f64 / 1e9;
    let procs = traced.lat.procedures().max(1) as f64;
    let wait_us = (traced.lat.total_s() - gen_busy_s - children_busy_s) / procs * 1e6;
    layer.set("trace.wire_wait_us_per_proc", wait_us);
    println!(
        "per procedure on the wire: latency {:.1} us = busy {:.1} us (generator {:.1}, MLB+MMP CPU {:.1}) + wait {:.1} us",
        traced.lat.total_s() / procs * 1e6,
        (gen_busy_s + children_busy_s) / procs * 1e6,
        gen_busy_s / procs * 1e6,
        children_busy_s / procs * 1e6,
        wait_us
    );
    write_trace(&tr, file, w, traced.wall_s)?;

    // The MLB and MMP machines run in other processes, out of reach of
    // spans recorded here; their layer numbers come from the traced
    // in-process twin of the parity check.
    let parity = Shape {
        n_ues: PARITY_UES,
        ..*shape
    };
    let mut twin_tr = SpanTrace::new();
    let twin = Engine::build(&parity).run(&parity, &mut twin_tr);
    check_counts("in-process twin", &parity, &twin.counts, r);
    engine_layer_metrics(&parity, &twin_tr, &twin.counts, layer);

    if w.open_loop_probe {
        open_loop_probe(shape, bin, wd, r, layer)?;
    }
    Ok(())
}

/// Seeded Poisson arrivals at half capacity on the saturation
/// deployment. Reported, never gated: identical runs of this probe do
/// not repeat within any useful bound on a 2-core host (README).
fn open_loop_probe(
    shape: &Shape,
    bin: &str,
    wd: &Watchdog,
    r: &mut Report,
    layer: &mut LayerMetrics,
) -> Result<(), String> {
    let probe = Shape {
        n_ues: (OPEN_RATE_HZ * OPEN_SECONDS) as usize,
        ..*shape
    };
    let mut o = wire::run_open(bin, &probe, OPEN_RATE_HZ, wd)?;
    r.check(o.clean_exit, || {
        "open-loop probe: a child did not exit cleanly".to_string()
    });
    r.check(o.failed == 0, || {
        format!("open-loop probe: {} operations failed", o.failed)
    });
    layer.set(
        "epc.emulator.openloop_attach_p50_us",
        percentile_us(&mut o.attach_from_due, 0.50),
    );
    layer.set(
        "epc.emulator.openloop_attach_p99_us",
        percentile_us(&mut o.attach_from_due, 0.99),
    );
    layer.set(
        "epc.emulator.openloop_lateness_p99_us",
        percentile_us(&mut o.lateness, 0.99),
    );
    layer.set(
        "epc.emulator.openloop_shed_share",
        o.shed as f64 / o.offered as f64,
    );
    Ok(())
}
