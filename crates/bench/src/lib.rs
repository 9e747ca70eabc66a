//! # scale-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md §5 for the index), the mega-benches and the
//! before/after summaries ([`timing`]). Each binary prints the series it
//! reports and writes `results/<experiment>.json`.

#![forbid(unsafe_code)]

pub mod timing;

use serde::Serialize;
use std::fs;
use std::path::Path;

/// One output row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    pub series: String,
    pub x: f64,
    pub y: f64,
}

impl Row {
    pub fn new(series: impl Into<String>, x: f64, y: f64) -> Self {
        Row { series: series.into(), x, y }
    }
}

/// Write rows to `results/<name>.json` (repo-root relative; falls back
/// to CWD) and echo a plot-ready table to stdout.
pub fn emit(name: &str, title: &str, xlabel: &str, ylabel: &str, rows: &[Row]) {
    println!("# {name}: {title}");
    println!("# x = {xlabel}, y = {ylabel}");
    // Group rows by series (stable: x order within a series preserved).
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_by(|a, b| a.series.cmp(&b.series));
    let mut last = "";
    for row in sorted {
        if row.series != last {
            println!("\n## series: {}", row.series);
            last = &row.series;
        }
        println!("{:>12.4} {:>14.6}", row.x, row.y);
    }
    println!();
    let dir = if Path::new("results").exists() { "results" } else { "." };
    let path = format!("{dir}/{name}.json");
    match serde_json::to_string_pretty(rows) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warn: could not write {path}: {e}");
            } else {
                println!("# wrote {path}");
            }
        }
        Err(e) => eprintln!("warn: serialize failed: {e}"),
    }
}

/// Milliseconds from seconds, for printed tables.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1000.0
}

/// Procedure classes the analytical model tracks, with their simulator
/// [`Procedure`](scale_sim::Procedure) and calibration-series names.
pub const SIM_MODEL_CLASSES: &[(scale_sim::Procedure, &str, &str)] = &[
    (
        scale_sim::Procedure::Attach,
        "attach",
        "scale_sim_attach_calib_seconds",
    ),
    (
        scale_sim::Procedure::ServiceRequest,
        "service_request",
        "scale_sim_service_request_calib_seconds",
    ),
    (
        scale_sim::Procedure::Handover,
        "handover",
        "scale_sim_handover_calib_seconds",
    ),
    (
        scale_sim::Procedure::Tau,
        "tau",
        "scale_sim_tau_calib_seconds",
    ),
    (
        scale_sim::Procedure::Paging,
        "paging",
        "scale_sim_paging_calib_seconds",
    ),
];

/// Class label of a simulator procedure in the model's vocabulary.
pub fn class_of(p: scale_sim::Procedure) -> &'static str {
    SIM_MODEL_CLASSES
        .iter()
        .find(|(proc_, _, _)| *proc_ == p)
        .map_or("other", |(_, name, _)| name)
}

/// The low-load calibration phase of the model experiments (ISSUE 8,
/// DESIGN.md §13): replay each procedure through an *idle* single-VM
/// [`DcSim`](scale_sim::DcSim) — requests a full second apart, so
/// sojourn time collapses to pure service time — record the delays in
/// registry series, and extract [`ServiceDemands`](scale_analysis::ServiceDemands)
/// from the snapshot.
/// Deliberately snapshot-driven end to end: the demands travel the
/// same metrics path a production calibration would.
pub fn calibrate_sim_demands() -> scale_analysis::ServiceDemands {
    use scale_sim::{placement, Assignment, DcSim, Request};
    let reg = scale_obs::Registry::new();
    for &(procedure, _, series_name) in SIM_MODEL_CLASSES {
        let series = reg.series(series_name, "low-load calibration delays");
        let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1))
            .with_delay_series(series);
        for k in 0..64 {
            dc.submit(Request {
                time: f64::from(k),
                device: 0,
                procedure,
            });
        }
    }
    let snap = scale_obs::Snapshot::of(&reg);
    let mapping: Vec<(&str, &str)> = SIM_MODEL_CLASSES
        .iter()
        .map(|&(_, class, series_name)| (class, series_name))
        .collect();
    scale_analysis::ServiceDemands::from_series(&snap, &mapping)
}

/// Run `n` independent sweep points in parallel and return their
/// results in point order.
///
/// Every sweep binary that seeds a fresh RNG *per point* can use this:
/// each point computes on its own scoped thread, and because results
/// are collected by index the emitted rows — and therefore the
/// `results/*.json` files — are byte-identical to a sequential sweep.
/// Experiments that thread one RNG through the whole sweep (fig 2d's
/// scaling-out timeline) must stay sequential.
pub fn run_points<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let f = &f;
    // A panicking sweep point should propagate its original payload, not
    // be re-wrapped in a second panic message.
    crossbeam::scope(|s| {
        let handles: Vec<_> = (0..n).map(|i| s.spawn(move |_| f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_recovers_proc_costs() {
        let d = calibrate_sim_demands();
        let costs = scale_sim::ProcCosts::default();
        assert_eq!(d.len(), 5);
        for &(p, class, _) in SIM_MODEL_CLASSES {
            let got = d.get(class).expect(class);
            assert!(
                (got - costs.of(p)).abs() < 1e-12,
                "{class}: calibrated {got} vs true {}",
                costs.of(p)
            );
        }
        assert_eq!(class_of(scale_sim::Procedure::Detach), "other");
    }

    #[test]
    fn run_points_preserves_order() {
        let out = run_points(16, |i| i * i);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_points_matches_sequential_rng_per_point() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let point = |i: usize| -> f64 {
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            (0..1000).map(|_| rng.gen_range(0.0..1.0)).sum()
        };
        let seq: Vec<f64> = (0..8).map(point).collect();
        let par = run_points(8, point);
        assert_eq!(seq, par, "per-point seeding must make order irrelevant");
    }
}
