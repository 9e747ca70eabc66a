//! Closed-loop autoscaling vs static peak provisioning under seeded
//! diurnal arrival traces (ISSUE 8; DESIGN.md §13).
//!
//! For each trace shape (commute double-hump, stadium flash-crowd,
//! overnight IoT wave) the experiment runs a virtual day twice:
//!
//! * **closed** — the `scale-core` [`Autoscaler`] in its full metrics
//!   loop: every epoch's arrivals are counted into a live registry,
//!   the epoch's delays land in a per-epoch series, the controller
//!   reads a [`Snapshot`] delta, runs the Jackson model, and sets the
//!   next epoch's fleet.
//! * **static** — the classic alternative: a fixed fleet sized (by the
//!   same model, for fairness) to the day's peak rate.
//!
//! Scoreboard: SLA-violating epochs (measured worst-procedure p99
//! above the target) against VM-hours. The autoscaler must meet the
//! static fleet's SLA with strictly fewer VM-hours on at least two of
//! the three shapes — the stadium flash crowd is allowed one reactive
//! breach while the fleet catches up; that cost is reported, not
//! hidden.
//!
//! A final section drives a *real* [`ScaleDc`] (full NAS/S1AP stack)
//! through a scaled-down commute day via [`Autoscaler::step_cluster`],
//! showing the same controller moving an actual cluster.
//!
//! Deterministic end to end: the whole experiment runs twice and the
//! two row sets must serialize identically before anything is
//! written. `--smoke` runs a shortened day and writes no files (the
//! CI determinism gate).

use scale_analysis::FleetModel;
use scale_bench::{calibrate_sim_demands, class_of, emit, ms, Row};
use scale_core::{
    AutoscaleConfig, Autoscaler, EpochObservation, ScaleConfig, ScaleDc, VmCapacity,
};
use scale_epc::Network;
use scale_obs::{Registry, Snapshot};
use scale_sim::{placement, Assignment, DcSim, DiurnalTrace, ProcedureMix, Samples, TraceShape};
use std::sync::Arc;

/// SLA: worst-procedure p99 sojourn per epoch (seconds).
const SLA_P99_S: f64 = 0.015;

/// Arrival-counter names for the simulator loop, in the calibration
/// class vocabulary.
const SIM_CLASS_COUNTERS: &[(&str, &str)] = &[
    ("attach", "scale_sim_attach_arrivals_total"),
    ("service_request", "scale_sim_service_request_arrivals_total"),
    ("handover", "scale_sim_handover_arrivals_total"),
    ("tau", "scale_sim_tau_arrivals_total"),
    ("paging", "scale_sim_paging_arrivals_total"),
];

fn controller_config() -> AutoscaleConfig {
    AutoscaleConfig {
        sla_p99_s: SLA_P99_S,
        max_vms: 32,
        capacity: VmCapacity {
            requests_per_epoch: 1_000_000,
            states: 25_000,
        },
        ..Default::default()
    }
}

struct DayResult {
    violations: u32,
    vm_hours: f64,
}

/// Simulate one epoch of `trace` on a `vms`-VM SCALE fleet
/// (least-loaded over R = 2 ring holders); per-request delays go to
/// `sink`, per-class arrival counts are returned.
fn run_epoch_sim(
    trace: &DiurnalTrace,
    epoch: u32,
    n_devices: usize,
    vms: usize,
    sink: Option<Arc<scale_obs::Series>>,
) -> (Vec<(&'static str, u64)>, Samples) {
    let mut dc = DcSim::new(vms, Assignment::LeastLoaded, trace.epoch_s)
        .with_holders(placement::ring(n_devices, vms, 5, 2));
    if let Some(s) = sink {
        dc = dc.with_delay_series(s);
    }
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    let mut delays = Samples::new();
    for r in trace.requests(epoch, n_devices, ProcedureMix::typical()) {
        let d = dc.submit(r);
        if dc.delay_sink.is_none() {
            delays.push(d);
        }
        let class = class_of(r.procedure);
        match counts.iter_mut().find(|(c, _)| *c == class) {
            Some((_, n)) => *n += 1,
            None => counts.push((class, 1)),
        }
    }
    (counts, delays)
}

/// Unscored warm-up epochs before the measured day. The envelope is
/// circular (midnight wraps), so replaying the day's *last* epochs
/// first hands the controller the fleet a continuously-running
/// deployment would hold at midnight — without it, a shape that peaks
/// across midnight (night-IoT) charges the closed loop for an
/// artificial cold start no real deployment experiences.
const WARMUP_EPOCHS: u32 = 4;

/// The closed loop's observation side: the registry the simulation
/// publishes into, the controller reading it, and the last snapshot.
struct Observer {
    reg: Registry,
    ctl: Autoscaler,
    prev: Option<Snapshot>,
}

/// The closed loop's per-epoch pipeline: simulate the epoch on the
/// current fleet, publish arrivals/delays into the registry, read the
/// [`Snapshot`] delta back as an [`EpochObservation`], and let the
/// controller pick the next epoch's fleet. Returns the epoch's
/// measured worst-case p99 and the new fleet size.
fn observe_epoch(
    trace: &DiurnalTrace,
    epoch: u32,
    series_name: &str,
    n_devices: usize,
    vms: u32,
    Observer { reg, ctl, prev }: &mut Observer,
) -> (f64, u32) {
    let sink = reg.series(series_name, "per-epoch request sojourn");
    let (counts, _) = run_epoch_sim(trace, epoch, n_devices, vms as usize, Some(sink));
    for &(class, n) in &counts {
        let counter = SIM_CLASS_COUNTERS
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, m)| *m)
            .expect("class has a counter");
        reg.counter(counter, "per-class arrivals").add(n);
    }
    let snap = Snapshot::of(reg);
    let mut obs = EpochObservation::from_snapshot_delta(
        prev.as_ref(),
        &snap,
        trace.epoch_s,
        n_devices as u64,
        SIM_CLASS_COUNTERS,
    );
    let p99 = snap.series(series_name).map_or(0.0, |s| s.p99);
    obs.measured_p99_s = (p99 > 0.0).then_some(p99);
    *prev = Some(snap);
    (p99, ctl.decide(vms, &obs).target_vms)
}

/// The closed loop: registry-mediated observations driving the
/// controller, one decision per epoch.
fn closed_loop(
    trace: &DiurnalTrace,
    n_devices: usize,
    rows: &mut Vec<Row>,
) -> DayResult {
    let shape = trace.shape.name();
    let reg = Registry::new();
    let mut ctl = Autoscaler::new(controller_config(), calibrate_sim_demands());
    ctl.attach_observability(&reg);
    let mut vms = ctl.config().min_vms;
    let mut observer = Observer { reg, ctl, prev: None };
    let mut violations = 0;
    let mut vm_hours = 0.0;
    for k in 0..WARMUP_EPOCHS {
        let e = trace.epochs - WARMUP_EPOCHS + k;
        let name = format!("scale_sim_autoscale_warmup{k}_delay_seconds");
        (_, vms) = observe_epoch(trace, e, &name, n_devices, vms, &mut observer);
    }
    for e in 0..trace.epochs {
        let name = format!("scale_sim_autoscale_epoch{e}_delay_seconds");
        let serving = vms;
        let (p99, next) = observe_epoch(trace, e, &name, n_devices, serving, &mut observer);
        vm_hours += f64::from(serving) * trace.epoch_s / 3600.0;
        if p99 > SLA_P99_S {
            violations += 1;
        }
        rows.push(Row::new(format!("{shape}/closed/vms"), f64::from(e), f64::from(serving)));
        rows.push(Row::new(format!("{shape}/closed/p99_ms"), f64::from(e), ms(p99)));
        rows.push(Row::new(
            format!("{shape}/offered_rps"),
            f64::from(e),
            trace.rate_at(e),
        ));
        vms = next;
    }
    DayResult {
        violations,
        vm_hours,
    }
}

/// The baseline: a fixed fleet sized by the same model for the day's
/// peak rate.
fn static_fleet_size(trace: &DiurnalTrace) -> u32 {
    let demands = calibrate_sim_demands();
    let cfg = controller_config();
    let peak = trace.peak_rate();
    let mix = ProcedureMix::typical();
    let classes = demands.with_rates(&[
        ("attach", mix.attach * peak),
        ("service_request", mix.service_request * peak),
        ("handover", mix.handover * peak),
        ("tau", mix.tau * peak),
        ("paging", mix.paging * peak),
    ]);
    FleetModel::min_vms(&classes, cfg.sla_p99_s, cfg.rho_cap, cfg.min_vms, cfg.max_vms)
}

fn static_loop(
    trace: &DiurnalTrace,
    n_devices: usize,
    vms: u32,
    rows: &mut Vec<Row>,
) -> DayResult {
    let shape = trace.shape.name();
    let mut violations = 0;
    let mut vm_hours = 0.0;
    for e in 0..trace.epochs {
        let (_, mut delays) = run_epoch_sim(trace, e, n_devices, vms as usize, None);
        let p99 = delays.p99();
        if p99 > SLA_P99_S {
            violations += 1;
        }
        vm_hours += f64::from(vms) * trace.epoch_s / 3600.0;
        rows.push(Row::new(format!("{shape}/static/p99_ms"), f64::from(e), ms(p99)));
    }
    DayResult {
        violations,
        vm_hours,
    }
}

/// The real-cluster section: a scaled-down commute day driven through
/// a full [`ScaleDc`] (NAS/S1AP stack) with
/// [`Autoscaler::step_cluster`] moving the actual fleet.
fn scaledc_trajectory(epochs: u32, rows: &mut Vec<Row>) {
    const N_UES: usize = 60;
    let mut dc = ScaleDc::new(ScaleConfig {
        initial_vms: 1,
        ..Default::default()
    });
    let registry = Arc::new(Registry::new());
    dc.attach_observability(registry.clone());
    let mut net = Network::new(dc, 2);
    net.s1_setup();
    for i in 0..N_UES {
        net.add_ue(&format!("0010100001{i:05}"), i % 2);
    }
    for ue in 0..N_UES {
        assert!(net.attach(ue), "{:?}", net.errors);
        assert!(net.go_idle(ue), "{:?}", net.errors);
    }
    let mut ctl = Autoscaler::new(controller_config(), calibrate_sim_demands());
    ctl.attach_observability(&registry);

    let trace = DiurnalTrace::new(TraceShape::Commute, 100.0, 2000.0, 0xDC);
    let peak = trace.peak_rate();
    for e in 0..epochs {
        // Map the day onto the UE population: the commute envelope
        // decides how many UEs run a service-request cycle this epoch.
        let day_epoch = e * (trace.epochs / epochs.max(1));
        let rate = trace.rate_at(day_epoch);
        let active = ((rate / peak) * N_UES as f64).ceil() as usize;
        for ue in 0..active.clamp(1, N_UES) {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
            assert!(net.go_idle(ue), "ue {ue}: {:?}", net.errors);
        }
        let d = ctl.step_cluster(&mut net.cp, 0.2);
        rows.push(Row::new(
            "scaledc_commute/vms",
            f64::from(e),
            f64::from(d.target_vms),
        ));
        rows.push(Row::new(
            "scaledc_commute/observed_rps",
            f64::from(e),
            d.observed_rps,
        ));
    }
    // Every device survived a day of elastic scaling.
    for ue in 0..N_UES {
        assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
    }
}

/// Per trace shape: the closed loop's day, the static fleet's day, and
/// the static fleet's size.
type Outcome = (TraceShape, DayResult, DayResult, u32);

/// One full experiment pass; pure function of its arguments.
fn experiment(epochs: u32, n_devices: usize) -> (Vec<Row>, Vec<Outcome>) {
    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for shape in TraceShape::all() {
        let mut trace = DiurnalTrace::new(shape, 100.0, 2000.0, 0xD1A1);
        trace.epochs = epochs;
        let closed = closed_loop(&trace, n_devices, &mut rows);
        let static_vms = static_fleet_size(&trace);
        let stat = static_loop(&trace, n_devices, static_vms, &mut rows);
        let name = shape.name();
        rows.push(Row::new(format!("{name}/closed/violations"), 0.0, f64::from(closed.violations)));
        rows.push(Row::new(format!("{name}/closed/vm_hours"), 0.0, closed.vm_hours));
        rows.push(Row::new(format!("{name}/static/violations"), 0.0, f64::from(stat.violations)));
        rows.push(Row::new(format!("{name}/static/vm_hours"), 0.0, stat.vm_hours));
        rows.push(Row::new(format!("{name}/static/vms"), 0.0, f64::from(static_vms)));
        outcomes.push((shape, closed, stat, static_vms));
    }
    scaledc_trajectory(epochs.min(24), &mut rows);
    (rows, outcomes)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (epochs, n_devices) = if smoke { (24, 500) } else { (96, 2000) };

    // Determinism gate: the entire experiment, run twice, must produce
    // byte-identical rows (and therefore a byte-identical results
    // file).
    let (rows, outcomes) = experiment(epochs, n_devices);
    let (rows2, _) = experiment(epochs, n_devices);
    let a = serde_json::to_string(&rows).expect("serialize");
    let b = serde_json::to_string(&rows2).expect("serialize");
    assert_eq!(a, b, "autoscale experiment must be bit-deterministic");
    println!("# determinism: two full runs serialized identically ({} rows)", rows.len());

    println!("# SLA: worst-procedure p99 <= {} ms per epoch", ms(SLA_P99_S));
    println!(
        "# {:<10} {:>6} {:>12} {:>10} | {:>12} {:>10} {:>10}",
        "trace", "epochs", "closed_viol", "closed_vmh", "static_viol", "static_vmh", "static_vms"
    );
    let mut wins = 0;
    for (shape, closed, stat, static_vms) in &outcomes {
        println!(
            "# {:<10} {:>6} {:>12} {:>10.2} | {:>12} {:>10.2} {:>10}",
            shape.name(),
            epochs,
            closed.violations,
            closed.vm_hours,
            stat.violations,
            stat.vm_hours,
            static_vms
        );
        if closed.violations <= stat.violations && closed.vm_hours < stat.vm_hours {
            wins += 1;
        }
    }
    if !smoke {
        assert!(
            wins >= 2,
            "closed loop must meet the static SLA with fewer VM-hours on >= 2 of 3 traces \
             (got {wins})"
        );
        emit(
            "BENCH_autoscale",
            "closed-loop autoscaling vs static peak provisioning (diurnal traces)",
            "epoch (summary rows: 0)",
            "VMs / p99 ms / violations / VM-hours",
            &rows,
        );
    } else {
        println!("# smoke mode: skipping result files ({wins}/3 traces favour the closed loop)");
    }
}
