//! Observability baseline: proves the metrics layer stays inside its
//! hot-path budget and records what an instrumented cluster exports.
//!
//! Two parts, both written to `results/OBS_baseline.json`:
//!
//! * `hot_path` — `ring_primary` and `mlb_route_idle` measured bare vs
//!   observed (local `u64` counting on the path, periodic off-path
//!   `Counter::set` publication into a shared registry — exactly how
//!   `ScaleDc::publish_metrics` works). DESIGN.md §8 budgets ≤ 5 %
//!   regression for this; the measured percentage is recorded here.
//! * `snapshot` — the full [`scale_obs::Snapshot`] of a real
//!   instrumented cluster run (attach → idle → service-request cycles
//!   through the in-process SCALE DC), after verifying that the
//!   Prometheus text export renders and that the JSON snapshot
//!   round-trips through `Snapshot::from_json`.

use scale_bench::timing::Stopwatch;
use scale_core::mlb::MlbRouter;
use scale_core::{ScaleConfig, ScaleDc};
use scale_epc::Network;
use scale_hashring::{position_of, HashRing, PositionCache};
use scale_nas::Plmn;
use scale_obs::{prometheus_text, Registry, Snapshot};
use serde::Serialize;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

const N_VMS: u32 = 30;
const TOKENS: u32 = 5;
const REPLICATION: usize = 2;
const N_DEVICES: u32 = 10_000;
const HOT_DEVICES: u32 = 1024;
/// DESIGN.md §8 overhead budget for instrumented hot paths.
const BUDGET_PCT: f64 = 5.0;

/// Off-path publication, kept out of the inlined fast path: copies the
/// loop's plain-`u64` counters into the shared registry's atomics —
/// the benched stand-in for the cluster's per-epoch `publish_metrics`.
#[cold]
#[inline(never)]
fn publish_pair(a: &scale_obs::Counter, av: u64, b: &scale_obs::Counter, bv: u64) {
    a.set(av);
    b.set(bv);
}

fn optimized_ring() -> HashRing<u32> {
    let mut ring = HashRing::new(TOKENS);
    for vm in 0..N_VMS {
        ring.add_node(vm);
    }
    ring
}

fn optimized_mlb() -> MlbRouter {
    let mut mlb = MlbRouter::new(TOKENS, REPLICATION, Plmn::new("001", "01"), 1, 1);
    for vm in 0..N_VMS {
        mlb.add_mmp(vm);
        mlb.set_load(vm, (vm % 7) as f64);
    }
    mlb
}

#[derive(Debug, Serialize)]
struct HotPathEntry {
    bench: String,
    bare_ns: f64,
    observed_ns: f64,
    regression_pct: f64,
    budget_pct: f64,
}

#[derive(Serialize)]
struct ObsBaseline {
    hot_path: Vec<HotPathEntry>,
    snapshot: Snapshot,
}

fn main() {
    let mut c = Stopwatch::new(30, Duration::from_millis(100), Duration::from_millis(400));

    let registry = Registry::new();

    // A ±5 % comparison needs per-side noise well under the budget, and
    // this box drifts by more than that between seconds. So each side
    // is measured REPS times, bare and observed interleaved: each pair
    // runs back-to-back, so slow drift hits both sides alike, and the
    // regression is the MEDIAN of the per-pair ratios — robust as long
    // as half the pairs land in quiet periods. The reported ns values
    // are per-side minimums (noise only ever adds time).
    const REPS: usize = 11;

    // The ring path carries no extra instrumentation at all: the
    // position memo already counts its own hits/misses (plain `u64`,
    // present in the bare variant too), so "observed" only adds the
    // periodic off-path publication — here once per key-space wrap,
    // standing in for the cluster's per-epoch `publish_metrics`.
    let ring = optimized_ring();
    let pos_hits = registry.counter(
        "scale_mlb_position_cache_hits_total",
        "Position-memo hits of the benched ring",
    );
    let pos_misses = registry.counter(
        "scale_mlb_position_cache_misses_total",
        "Position-memo misses of the benched ring",
    );
    let mut memo_bare = PositionCache::new(2 * N_DEVICES as usize);
    let mut memo_obs = PositionCache::new(2 * N_DEVICES as usize);
    for rep in 0..REPS {
        let mut key: u64 = 0;
        c.time(&format!("ring_primary/bare/{rep}"), || {
            key = (key + 1) % N_DEVICES as u64;
            let k = black_box(key);
            let pos = memo_bare.position_with(k, || position_of(&k));
            ring.node_at(pos).copied()
        });
        let mut key: u64 = 0;
        c.time(&format!("ring_primary/observed/{rep}"), || {
            key = (key + 1) % N_DEVICES as u64;
            let k = black_box(key);
            let pos = memo_obs.position_with(k, || position_of(&k));
            if k == 0 {
                publish_pair(&pos_hits, memo_obs.hits, &pos_misses, memo_obs.misses);
            }
            ring.node_at(pos).copied()
        });
    }

    // The MLB route path counts into plain-`u64` `MlbStats` fields (as
    // shipped — present in both variants); "observed" adds the periodic
    // `Counter::set` publication into the shared registry.
    let idle_routes = registry.counter(
        "scale_mlb_idle_routes_total",
        "Idle-to-Active transitions routed by the benched MLB",
    );
    let cache_hits = registry.counter(
        "scale_mlb_route_cache_hits_total",
        "Route-cache hits of the benched MLB",
    );
    let cache_misses = registry.counter(
        "scale_mlb_route_cache_misses_total",
        "Route-cache misses of the benched MLB",
    );
    let mut mlb_bare = optimized_mlb();
    let mut mlb_obs = optimized_mlb();
    for rep in 0..REPS {
        let mut m_tmsi: u32 = 0;
        c.time(&format!("mlb_route_idle/bare/{rep}"), || {
            m_tmsi = (m_tmsi + 1) % HOT_DEVICES;
            mlb_bare.route_idle_transition(black_box(m_tmsi))
        });
        let mut m_tmsi: u32 = 0;
        c.time(&format!("mlb_route_idle/observed/{rep}"), || {
            m_tmsi = (m_tmsi + 1) % HOT_DEVICES;
            let out = mlb_obs.route_idle_transition(black_box(m_tmsi));
            // Publish once per hot-set wrap (every 1024 routes).
            if m_tmsi == 0 {
                idle_routes.set(mlb_obs.stats.idle_routes);
                publish_pair(
                    &cache_hits,
                    mlb_obs.stats.route_cache_hits,
                    &cache_misses,
                    mlb_obs.stats.route_cache_misses,
                );
            }
            out
        });
    }

    let ns = &c.ns;
    let min_of = |prefix: &str| -> f64 {
        (0..REPS)
            .map(|rep| ns[&format!("{prefix}/{rep}")])
            .fold(f64::INFINITY, f64::min)
    };
    let median_regression = |bench: &str| -> f64 {
        let mut ratios: Vec<f64> = (0..REPS)
            .map(|rep| {
                let bare = ns[&format!("{bench}/bare/{rep}")];
                let obs = ns[&format!("{bench}/observed/{rep}")];
                100.0 * (obs - bare) / bare
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[REPS / 2]
    };
    let mut hot_path = Vec::new();
    println!("# observability hot-path overhead (ns per op = min, pct = median of {REPS} interleaved pairs)");
    for bench in ["ring_primary", "mlb_route_idle"] {
        let bare_ns = min_of(&format!("{bench}/bare"));
        let observed_ns = min_of(&format!("{bench}/observed"));
        let regression_pct = median_regression(bench);
        println!(
            "{bench:>16}: {bare_ns:>8.2} -> {observed_ns:>8.2}  ({regression_pct:+.1}%, budget ±{BUDGET_PCT:.0}%)"
        );
        if regression_pct > BUDGET_PCT {
            eprintln!(
                "warn: {bench} regression {regression_pct:.1}% exceeds the {BUDGET_PCT:.0}% budget"
            );
        }
        hot_path.push(HotPathEntry {
            bench: bench.to_string(),
            bare_ns,
            observed_ns,
            regression_pct,
            budget_pct: BUDGET_PCT,
        });
    }

    // --- Instrumented cluster snapshot ---------------------------------------
    let dc = ScaleDc::new(ScaleConfig {
        initial_vms: 4,
        ..Default::default()
    });
    let cluster_registry = std::sync::Arc::new(Registry::new());
    let mut net = Network::new(dc, 2);
    net.cp.attach_observability(cluster_registry.clone());
    net.s1_setup();
    let n_ues = 100;
    for i in 0..n_ues {
        net.add_ue(&format!("0010155{i:08}"), i % 2);
    }
    for ue in 0..n_ues {
        assert!(net.attach(ue), "{:?}", net.errors);
        assert!(net.go_idle(ue));
        assert!(net.service_request(ue));
        assert!(net.go_idle(ue));
    }
    net.cp.publish_metrics();

    // Exporters must agree before the snapshot is worth recording: the
    // Prometheus text renders every entry and the JSON round-trips.
    let text = prometheus_text(&cluster_registry);
    assert!(text.contains("scale_mmp_attach_latency_us"));
    assert!(text.contains("scale_dc_messages_total"));
    let snapshot = Snapshot::of(&cluster_registry);
    let round = Snapshot::from_json(&snapshot.to_json()).expect("snapshot JSON must parse back");
    assert_eq!(round, snapshot, "snapshot must round-trip through JSON");
    println!(
        "# cluster snapshot: {} counters, {} gauges, {} histograms ({} UEs x attach/idle/SR)",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        n_ues
    );

    let baseline = ObsBaseline { hot_path, snapshot };
    let dir = if Path::new("results").exists() { "results" } else { "." };
    let path = format!("{dir}/OBS_baseline.json");
    match serde_json::to_string_pretty(&baseline) {
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
