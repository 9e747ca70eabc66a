//! CLI for the in-repo analyzer.
//!
//! * `scale-lint --workspace` — lint every workspace `.rs` file; exit
//!   non-zero on any violation (this is the CI entry point).
//! * `scale-lint --self-test` — run the analyzer over the seeded
//!   violation fixtures under `crates/lint/fixtures/` and verify that
//!   every rule demonstrably fires; exit non-zero if any rule has gone
//!   blind. CI runs this too, so a scanner regression cannot silently
//!   disable a lint.

#![forbid(unsafe_code)]

use scale_lint::{find_workspace_root, lint_workspace, report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn manifest_dir() -> PathBuf {
    // Compiled-in manifest dir works under `cargo run`; fall back to
    // cwd for a copied binary.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_workspace() -> ExitCode {
    let Some(root) = find_workspace_root(&manifest_dir())
        .or_else(|| std::env::current_dir().ok().and_then(|d| find_workspace_root(&d)))
    else {
        eprintln!("scale-lint: no workspace root found");
        return ExitCode::FAILURE;
    };
    let violations = lint_workspace(&root);
    if violations.is_empty() {
        println!("scale-lint: workspace clean");
        ExitCode::SUCCESS
    } else {
        print!("{}", report(&violations));
        eprintln!("scale-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Each fixture file is named for the single rule it must trip. The
/// middle column is the synthesized workspace-relative path the fixture
/// is linted *as* — path-scoped rules (sctplite/wire scoping, `src/`
/// classification) key off it, so each fixture pins the exact scope it
/// exercises.
const FIXTURES: &[(&str, &str, &str)] = &[
    ("hot_path_alloc.rs", "crates/sctplite_fixture/src/hot_path_alloc.rs", "alloc"),
    ("hot_path_lock.rs", "crates/sctplite_fixture/src/hot_path_lock.rs", "hot-path-lock"),
    ("unwrap_in_lib.rs", "crates/sctplite_fixture/src/unwrap_in_lib.rs", "unwrap"),
    ("nondet.rs", "crates/sctplite_fixture/src/nondet.rs", "nondet"),
    ("sctplite_guard.rs", "crates/sctplite_fixture/src/sctplite_guard.rs", "await-guard"),
    ("wire_guard.rs", "crates/core_fixture/src/wire_guard.rs", "await-guard"),
    ("wire_send_guard.rs", "crates/sim_fixture/src/wire_send_guard.rs", "await-guard"),
    ("metric_names.rs", "crates/sctplite_fixture/src/metric_names.rs", "metric-name"),
    ("protocol_match.rs", "crates/core_fixture/src/protocol_match.rs", "exhaustive-protocol-match"),
    ("route_key_match.rs", "crates/core_fixture/src/route_key_match.rs", "exhaustive-protocol-match"),
];

fn run_self_test() -> ExitCode {
    let dir = manifest_dir().join("fixtures");
    let mut failed = false;
    for &(file, rel, rule) in FIXTURES {
        let path = dir.join(file);
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("self-test: cannot read {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        let violations = scale_lint::rules::check_file(rel, &src);
        let fired = violations.iter().any(|v| v.rule == rule);
        let stray: Vec<_> = violations.iter().filter(|v| v.rule != rule).collect();
        if fired && stray.is_empty() {
            println!("self-test: {file} -> [{rule}] fires ({} hit(s))", violations.len());
        } else if !fired {
            eprintln!("self-test: FAILED — {file} did not trip [{rule}]");
            failed = true;
        } else {
            eprintln!("self-test: FAILED — {file} tripped unexpected rules: {stray:?}");
            failed = true;
        }
    }
    // vendor-drift is a workspace-level rule: exercise the comparison
    // logic against a fixture manifest that records one drifted hash,
    // one missing shim, and omits one present shim — all three failure
    // modes must fire.
    let drift_manifest = dir.join("vendor_drift_manifest.txt");
    match std::fs::read_to_string(&drift_manifest) {
        Ok(manifest) => {
            let actual = vec![
                ("goodshim".to_string(), "00000000deadbeef".to_string()),
                ("driftedshim".to_string(), "00000000cafef00d".to_string()),
                ("unlistedshim".to_string(), "0000000012345678".to_string()),
            ];
            let violations = scale_lint::compare_vendor_manifest(&manifest, &actual);
            let drifted = violations.iter().any(|v| v.message.contains("driftedshim"));
            let missing = violations.iter().any(|v| v.message.contains("ghostshim"));
            let unlisted = violations.iter().any(|v| v.message.contains("unlistedshim"));
            let clean_hit = violations.iter().any(|v| v.message.contains("goodshim"));
            if drifted && missing && unlisted && !clean_hit {
                println!(
                    "self-test: vendor_drift_manifest.txt -> [vendor-drift] fires ({} hit(s))",
                    violations.len()
                );
            } else {
                eprintln!(
                    "self-test: FAILED — vendor-drift fixture: drifted={drifted} missing={missing} unlisted={unlisted} clean_hit={clean_hit}: {violations:?}"
                );
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("self-test: cannot read {}: {e}", drift_manifest.display());
            failed = true;
        }
    }
    // A clean file must produce zero violations.
    let clean = dir.join("clean.rs");
    match std::fs::read_to_string(&clean) {
        Ok(src) => {
            let violations = scale_lint::rules::check_file("crates/fixture/src/clean.rs", &src);
            if violations.is_empty() {
                println!("self-test: clean.rs -> no violations");
            } else {
                eprintln!("self-test: FAILED — clean.rs tripped: {violations:?}");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("self-test: cannot read {}: {e}", clean.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("self-test: all rules demonstrably fire");
        ExitCode::SUCCESS
    }
}

fn lint_paths(paths: &[String]) -> ExitCode {
    let mut violations = Vec::new();
    for p in paths {
        match std::fs::read_to_string(Path::new(p)) {
            Ok(src) => violations.extend(scale_lint::rules::check_file(p, &src)),
            Err(e) => {
                eprintln!("scale-lint: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        print!("{}", report(&violations));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--workspace") => run_workspace(),
        Some("--self-test") => run_self_test(),
        Some("--vendor-manifest") => {
            let Some(root) = find_workspace_root(&manifest_dir())
                .or_else(|| std::env::current_dir().ok().and_then(|d| find_workspace_root(&d)))
            else {
                eprintln!("scale-lint: no workspace root found");
                return ExitCode::FAILURE;
            };
            print!(
                "{}",
                scale_lint::render_vendor_manifest(&scale_lint::vendor_shim_hashes(&root))
            );
            ExitCode::SUCCESS
        }
        Some(_) => lint_paths(&args),
        None => {
            eprintln!(
                "usage: scale-lint --workspace | --self-test | --vendor-manifest | <file.rs>..."
            );
            ExitCode::FAILURE
        }
    }
}
