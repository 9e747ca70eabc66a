//! E4-ii / Fig 8(d): persistent DC overload. Three DCs (DC2/DC3 light,
//! DC1's load swept LOW/HIGH/EXTREME), comparing:
//!  * Local DC — never offload (fine at LOW, melts at EXTREME);
//!  * Current systems — some devices statically pooled at remote DCs
//!    (pays propagation even at LOW);
//!  * SCALE — geo-replicated high-activity devices, offloaded only under
//!    local overload, remote DC chosen by budget + delay.
//!
//! Reports mean ± std of the 99th percentile over seeds.

use scale_bench::{emit, ms, Row};
use scale_core::geo::DelayMatrix;
use scale_sim::{
    Assignment, DcSim, GeoDevice, GeoPlacement, GeoSim, Procedure, ProcedureMix,
    Samples,
};

const N_DEV: usize = 300;
const DURATION: f64 = 8.0;

#[derive(Clone, Copy)]
enum Strategy {
    Local,
    CurrSys,
    Scale,
}

fn delays_matrix() -> DelayMatrix {
    let mut d = DelayMatrix::new(3);
    d.set(0, 1, 10.0);
    d.set(0, 2, 20.0);
    d.set(1, 2, 12.0);
    d
}

fn run(strategy: Strategy, dc1_rate: f64, seed: u64) -> f64 {
    let dc = || DcSim::new(2, Assignment::LeastLoaded, 1.0)
        .with_holders((0..N_DEV).map(|d| vec![d % 2, (d + 1) % 2]).collect());
    let mut sim = GeoSim::new(vec![dc(), dc(), dc()], delays_matrix());
    sim.offload_threshold_s = 0.05;
    sim.devices = (0..N_DEV)
        .map(|d| GeoDevice {
            home: 0,
            placement: match strategy {
                Strategy::Local => GeoPlacement::LocalOnly,
                // Current systems: a third of the devices were assigned
                // to pool members in remote DCs.
                Strategy::CurrSys => {
                    if d % 3 == 1 {
                        GeoPlacement::Static { dc: 1 }
                    } else if d % 3 == 2 {
                        GeoPlacement::Static { dc: 2 }
                    } else {
                        GeoPlacement::LocalOnly
                    }
                }
                // SCALE: high-activity devices hold an external replica
                // at the delay/budget-preferred remote DC (DC1, 10 ms).
                Strategy::Scale => {
                    if d % 2 == 0 {
                        GeoPlacement::Replicated { remote: 1 }
                    } else {
                        GeoPlacement::Replicated { remote: 2 }
                    }
                }
            },
        })
        .collect();
    let rates = scale_sim::uniform_rates(N_DEV, dc1_rate);
    let stream = scale_sim::device_stream(
        seed,
        &rates,
        ProcedureMix::only(Procedure::ServiceRequest),
        DURATION,
    );
    let mut delays = Samples::new();
    for r in &stream {
        delays.push(sim.submit(r.device, *r));
    }
    delays.p99()
}

fn main() {
    // Two VMs per DC → capacity ≈ 1200 service requests/s.
    let loads = [("LOW", 500.0), ("HIGH", 1400.0), ("EXTREME", 2200.0)];
    let mut rows = Vec::new();
    for (label, rate) in loads {
        for (name, strategy) in [
            ("local-dc", Strategy::Local),
            ("current-systems", Strategy::CurrSys),
            ("scale", Strategy::Scale),
        ] {
            let samples: Vec<f64> = (0..5).map(|s| run(strategy, rate, s)).collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                / samples.len() as f64;
            let x = match label {
                "LOW" => 0.0,
                "HIGH" => 1.0,
                _ => 2.0,
            };
            println!(
                "# DC1={label:8} {name:16} p99 = {:7.1} ± {:5.1} ms",
                ms(mean),
                ms(var.sqrt())
            );
            rows.push(Row::new(format!("{name}-mean"), x, ms(mean)));
            rows.push(Row::new(format!("{name}-std"), x, ms(var.sqrt())));
        }
    }
    println!("# paper shape: SCALE ≤ local at LOW (no propagation) and beats both at HIGH/EXTREME");
    emit(
        "e4_geo_multiplexing",
        "Geo-multiplexing under persistent DC1 overload (0=LOW,1=HIGH,2=EXTREME)",
        "DC1 load level",
        "99th percentile delay (ms)",
        &rows,
    );
}
