//! `scale-check` CLI — run the protocol model checker from the shell
//! and from CI.
//!
//! ```text
//! scale-check protocol                 # full run, prints a summary
//! scale-check protocol --out FILE      # full run + JSON report
//! scale-check protocol --smoke        # bounded CI run, executed twice,
//!                                     # asserts identical state counts
//! ```
//!
//! The full run explores the clean suite at the release budget
//! (≥ 10⁵ distinct states summed) and then the ten-bug mutation
//! matrix; it exits nonzero if any clean scenario violates an
//! invariant or any seeded bug escapes. The smoke run uses a small
//! state budget and additionally re-runs the whole suite a second
//! time, failing if any distinct-state count differs — the checker's
//! determinism is itself an invariant CI relies on.

use scale_check::protocol::{
    explore_protocol, mutation_catches, suite, Mutation, RunReport,
};
use std::io::Write as _;
use std::process::ExitCode;

/// Per-scenario budget for the full run: sized so the summed clean
/// suite clears 10⁵ distinct states.
const FULL_BUDGET: u64 = 60_000;
/// Per-scenario budget for `--smoke` and the mutation matrix in smoke
/// mode: small enough for debug-build CI, large enough that every
/// seeded bug is still caught.
const SMOKE_BUDGET: u64 = 4_000;
/// Budget for the mutation matrix in the full run.
const MUTATION_BUDGET: u64 = 30_000;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("protocol") => {
            let mut smoke = false;
            let mut out: Option<String> = None;
            loop {
                match it.next() {
                    Some("--smoke") => smoke = true,
                    Some("--out") => match it.next() {
                        Some(p) => out = Some(p.to_string()),
                        None => return usage("--out requires a path"),
                    },
                    Some(other) => return usage(&format!("unknown flag {other}")),
                    None => break,
                }
            }
            if smoke {
                run_smoke()
            } else {
                run_full(out.as_deref())
            }
        }
        Some(other) => usage(&format!("unknown subcommand {other}")),
        None => usage("missing subcommand"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("scale-check: {err}");
    eprintln!("usage: scale-check protocol [--smoke] [--out FILE]");
    ExitCode::from(2)
}

/// Run the clean suite once at `budget`; print one line per scenario.
fn run_suite(budget: u64) -> (Vec<RunReport>, bool) {
    let mut reports = Vec::new();
    let mut ok = true;
    for sc in suite(budget) {
        let r = explore_protocol(&sc);
        println!(
            "  {:<24} states={:<8} depth={:<4} quiescent={:<6} truncated={} {}",
            r.name,
            r.states,
            r.max_depth_reached,
            r.quiescent_states,
            r.truncated,
            match &r.violation {
                Some(v) => format!("VIOLATION {}: {}", v.invariant, v.detail),
                None => "ok".to_string(),
            }
        );
        if let Some(v) = &r.violation {
            eprintln!("    trace ({} choices): {:?}", v.trace.len(), v.trace);
            ok = false;
        }
        reports.push(r);
    }
    (reports, ok)
}

fn run_smoke() -> ExitCode {
    println!("scale-check protocol --smoke: clean suite, pass 1");
    let (first, ok1) = run_suite(SMOKE_BUDGET);
    println!("scale-check protocol --smoke: clean suite, pass 2 (determinism check)");
    let (second, ok2) = run_suite(SMOKE_BUDGET);
    let mut ok = ok1 && ok2;
    for (a, b) in first.iter().zip(&second) {
        if a.states != b.states || a.quiescent_states != b.quiescent_states {
            eprintln!(
                "NONDETERMINISM: {} explored {} states (pass 1) vs {} (pass 2)",
                a.name, a.states, b.states
            );
            ok = false;
        }
    }
    println!("scale-check protocol --smoke: mutation matrix");
    ok &= print_matrix(&mutation_catches(SMOKE_BUDGET));
    let total: u64 = first.iter().map(|r| r.states).sum();
    println!("scale-check protocol --smoke: {total} distinct states, {}", if ok { "PASS" } else { "FAIL" });
    exit(ok)
}

/// Print one line per seeded bug; false if any escaped.
fn print_matrix(matrix: &[(Mutation, Option<&'static str>)]) -> bool {
    let mut ok = true;
    for (m, caught) in matrix {
        match caught {
            Some(inv) => println!("  {:<26} caught by {inv}", m.name()),
            None => {
                eprintln!("  {:<26} ESCAPED", m.name());
                ok = false;
            }
        }
    }
    ok
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_full(out: Option<&str>) -> ExitCode {
    println!("scale-check protocol: clean suite (budget {FULL_BUDGET} states/scenario)");
    let (reports, mut ok) = run_suite(FULL_BUDGET);
    let total: u64 = reports.iter().map(|r| r.states).sum();
    println!("scale-check protocol: {total} distinct states explored across {} scenarios", reports.len());
    println!("scale-check protocol: mutation matrix (budget {MUTATION_BUDGET} states/mutation)");
    let matrix = mutation_catches(MUTATION_BUDGET);
    ok &= print_matrix(&matrix);
    if let Some(path) = out {
        match write_report(path, &reports, &matrix, total) {
            Ok(()) => println!("scale-check protocol: wrote {path}"),
            Err(e) => {
                eprintln!("scale-check protocol: cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    println!("scale-check protocol: {}", if ok { "PASS" } else { "FAIL" });
    exit(ok)
}

/// Hand-formatted JSON (the repo's results files avoid a serde
/// dependency in binaries that don't otherwise need one).
fn write_report(
    path: &str,
    reports: &[RunReport],
    matrix: &[(Mutation, Option<&'static str>)],
    total: u64,
) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"check\": \"protocol\",\n");
    s.push_str("  \"explorer\": \"replay-based DFS, fingerprint-deduplicated, deterministic\",\n");
    s.push_str(&format!("  \"total_distinct_states\": {total},\n"));
    s.push_str("  \"invariants\": [\"I1 identity consistency\", \"I2 epoch monotonicity\", \"I3 session safety\", \"I4 replica contract\", \"I5 liveness-map coherence\", \"I6 no transaction outlives its message\", \"I7 no per-device state at the MLB\", \"I8 fresh vectors\", \"convergence\", \"zero unexplained errors\"],\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"distinct_states\": {}, \"max_depth\": {}, \"quiescent_states\": {}, \"truncated\": {}, \"violations\": {}}}{}\n",
            r.name,
            r.states,
            r.max_depth_reached,
            r.quiescent_states,
            r.truncated,
            u32::from(r.violation.is_some()),
            if i + 1 == reports.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"mutation_matrix\": [\n");
    for (i, (m, caught)) in matrix.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mutation\": \"{}\", \"caught\": {}, \"caught_by\": \"{}\"}}{}\n",
            m.name(),
            caught.is_some(),
            caught.unwrap_or("ESCAPED"),
            if i + 1 == matrix.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(s.as_bytes())
}
