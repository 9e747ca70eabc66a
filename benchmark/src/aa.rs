//! The A/A noise gate: two alternating sets of untraced runs of one
//! build, every run a fresh process with its own seed. A metric whose
//! two medians differ by more than half its bound, or whose
//! run-to-run spread exceeds a third of it, cannot carry that bound:
//! lengthen the workload's run or demote the metric (README.md).

use crate::catalogue::{field as get, END_TO_END, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::Command;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// One untraced run in a child process; its end-to-end values in
/// catalogue order.
pub fn one_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale_wired: &str,
    manifest: &Path,
    out_dir: &Path,
) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", "0", "--scale-wired", scale_wired])
        .arg("--manifest")
        .arg(manifest)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let v = serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: bad result line: {e}"))?;
    if get(&v, "correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: run reported incorrect outputs"
        ));
    }
    let metrics = get(&v, "metrics").ok_or("result line has no metrics")?;
    END_TO_END
        .iter()
        .map(|m| {
            get(metrics, m.name)
                .and_then(|e| get(e, "value"))
                .and_then(number)
                .ok_or_else(|| format!("{workload} seed {seed}: no value for {}", m.name))
        })
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's definition of spread).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / crate::stats::median(v.to_vec())
}

/// Run the gate and print its table as markdown. Exit code 0 when
/// every pair of medians agrees within half its bound.
pub fn run(seconds: f64, runs: usize, scale_wired: &str, manifest: &Path, out_dir: &Path) -> i32 {
    if runs < 5 {
        eprintln!("error: --aa needs at least 5 runs per set");
        return 2;
    }
    crate::host::print_host();
    println!();
    println!("| workload | metric | median A | median B | B vs A | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    for w in &WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            // Alternate, so drift in the host lands on both sets alike.
            for (set, base) in [(0, 1_000u64), (1, 2_000)] {
                match one_run(
                    w.name,
                    base + i as u64,
                    seconds,
                    scale_wired,
                    manifest,
                    out_dir,
                ) {
                    Ok(values) => sets[set].push(values),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[k]).collect::<Vec<f64>>();
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (
                crate::stats::median(a.clone()),
                crate::stats::median(b.clone()),
            );
            let diff = (mb - ma) / ma;
            let (sa, sb) = (spread(&a), spread(&b));
            let pair_ok = diff.abs() <= m.bound / 2.0;
            // Set-up time is held to its bound between medians only.
            let spread_ok = m.name == "setup_s" || sa.max(sb) <= m.bound / 3.0;
            let verdict = match (pair_ok, spread_ok) {
                (true, true) => "ok",
                (true, false) => "ok (spread above a third of the bound)",
                (false, _) => {
                    failures += 1;
                    "FAIL"
                }
            };
            println!(
                "| {} | {} | {:.4} | {:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                w.name,
                m.name,
                ma,
                mb,
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
    }
    println!();
    println!(
        "{runs} runs per set and workload, {seconds} s each, seeds 1000.. (A) and 2000.. (B); \
         spread = (Q3 - Q1) / median; {failures} pair(s) beyond half the bound."
    );
    i32::from(failures > 0)
}
