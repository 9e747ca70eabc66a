//! S2 / Fig 10(b): geo-replication strategy matters. 4 DCs, DCs 1&3
//! overloaded, DCs 2&4 light. Compared:
//!  * IND  — never offload: the overloaded DCs melt;
//!  * RDM1 — random geo-replication ignoring load: dumps extra work on
//!    the already-busier DC2;
//!  * RDM2 — random geo-replication ignoring distance: pays long
//!    propagation for little gain;
//!  * SCALE — budget (load) + inverse-delay choice: every DC improves.

use scale_bench::{emit, ms, run_points, Row};
use scale_core::geo::DelayMatrix;
use scale_sim::{
    Assignment, DcSim, GeoDevice, GeoPlacement, GeoSim, Procedure, ProcedureMix, Samples,
};

const DEV_PER_DC: usize = 200;
const DURATION: f64 = 6.0;

fn delay_matrix() -> DelayMatrix {
    let mut d = DelayMatrix::new(4);
    // DC2 is far from DCs 1/3; DC4 is near both (the RDM2 trap).
    d.set(0, 1, 40.0);
    d.set(2, 1, 40.0);
    d.set(0, 3, 8.0);
    d.set(2, 3, 8.0);
    d.set(0, 2, 15.0);
    d.set(1, 3, 25.0);
    d
}

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Ind,
    Rdm1, // load-unaware: overload spills to the busier light DC (DC2)
    Rdm2, // delay-unaware: spills to the *far* DC
    Scale,
}

fn run(strategy: Strategy, seed: u64) -> Vec<f64> {
    let dc = || {
        DcSim::new(2, Assignment::LeastLoaded, 1.0)
            .with_holders((0..4 * DEV_PER_DC).map(|d| vec![d % 2, (d + 1) % 2]).collect())
    };
    let mut sim = GeoSim::new(vec![dc(), dc(), dc(), dc()], delay_matrix());
    sim.offload_threshold_s = 0.05;
    // DC2 runs warmer than DC4 among the light DCs.
    let home_rates = [1800.0, 700.0, 1800.0, 400.0];

    sim.devices = (0..4 * DEV_PER_DC)
        .map(|d| {
            let home = d / DEV_PER_DC;
            let placement = match (strategy, home) {
                (Strategy::Ind, _) => GeoPlacement::LocalOnly,
                // Only the overloaded DCs hold external replicas.
                (_, 1) | (_, 3) => GeoPlacement::LocalOnly,
                // RDM1 ignores load: replicas split 50/50 over the light
                // DCs, tipping the already-warmer DC2 over its headroom.
                (Strategy::Rdm1, _) => GeoPlacement::Replicated {
                    remote: if d % 2 == 0 { 1 } else { 3 },
                },
                // RDM2 ignores distance: everything goes to the far DC2,
                // which both overloads it and pays 40 ms propagation.
                (Strategy::Rdm2, _) => GeoPlacement::Replicated { remote: 1 },
                // SCALE splits by advertised budget (DC4 headroom 800,
                // DC2 headroom 500) weighted by inverse delay: 3/5 of
                // replicas to the near, light DC4, 2/5 to DC2.
                (Strategy::Scale, _) => GeoPlacement::Replicated {
                    remote: if d % 5 < 3 { 3 } else { 1 },
                },
            };
            GeoDevice { home, placement }
        })
        .collect();

    // Merge the four homes' streams into one time-ordered sequence so
    // backlog-based offload decisions see the true global state.
    let mut merged: Vec<(usize, scale_sim::Request)> = Vec::new();
    for (home, &rate) in home_rates.iter().enumerate() {
        let rates = scale_sim::uniform_rates(DEV_PER_DC, rate);
        let stream = scale_sim::device_stream(
            seed + home as u64,
            &rates,
            ProcedureMix::only(Procedure::ServiceRequest),
            DURATION,
        );
        merged.extend(stream.into_iter().map(|r| (home, r)));
    }
    merged.sort_by(|a, b| a.1.time.partial_cmp(&b.1.time).unwrap());

    let mut per_dc: Vec<Samples> = (0..4).map(|_| Samples::new()).collect();
    for (home, r) in merged {
        let device = home * DEV_PER_DC + r.device;
        // DcSim device ids are shared across DCs (same holder map).
        let d = sim.submit(device, r);
        per_dc[home].push(d);
    }
    per_dc.iter_mut().map(|s| ms(s.p99())).collect()
}

fn main() {
    let strategies = [
        ("IND", Strategy::Ind),
        ("RDM1", Strategy::Rdm1),
        ("RDM2", Strategy::Rdm2),
        ("SCALE", Strategy::Scale),
    ];
    // Each strategy replays the same seeded workload on its own sim —
    // four independent runs, four threads.
    let results = run_points(strategies.len(), |i| run(strategies[i].1, 31));
    let mut rows = Vec::new();
    for ((name, _), p99s) in strategies.iter().zip(&results) {
        println!(
            "# {name:6} p99 per DC = [{:.0}, {:.0}, {:.0}, {:.0}] ms",
            p99s[0], p99s[1], p99s[2], p99s[3]
        );
        for (dc, p) in p99s.iter().enumerate() {
            rows.push(Row::new(*name, (dc + 1) as f64, *p));
        }
    }
    println!("# paper shape: IND melts DC1/DC3; RDM1 overloads DC2; RDM2 pays distance; SCALE lowers all");
    emit(
        "s2_geo_multiplexing",
        "Per-DC 99th %tile delay under geo strategies (DC1,DC3 overloaded)",
        "data center",
        "99th percentile delay (ms)",
        &rows,
    );
}
