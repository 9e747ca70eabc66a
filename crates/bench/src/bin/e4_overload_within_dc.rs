//! E4-i / Fig 8(a–c): VM overload inside one DC. The legacy system
//! reacts by reassigning devices (extra signaling on both MMPs, 99th
//! above 1 s); SCALE's proactive replication lets the MLB spill each
//! Idle→Active request to the lighter replica holder (99th ≈ 250 ms).

use scale_bench::{emit, ms, Row};
use scale_sim::{
    placement, Assignment, DcSim, ProcCosts, Procedure, ProcedureMix, ReassignPolicy, Samples,
};

const DURATION: f64 = 12.0;

fn workload() -> Vec<scale_sim::Request> {
    let n_devices = 400;
    // ≈1.5× one VM's service-request capacity, all on MMP1 initially.
    let rates = scale_sim::uniform_rates(n_devices, 900.0);
    scale_sim::device_stream(9, &rates, ProcedureMix::only(Procedure::ServiceRequest), DURATION)
}

fn run_legacy() -> (Samples, Vec<Vec<(f64, f64)>>) {
    let n_devices = 400;
    let mut dc = DcSim::new(2, Assignment::Pinned, 1.0)
        .with_holders(placement::pinned_by(&vec![0; n_devices]));
    dc.reassign = Some(ReassignPolicy {
        threshold_s: 0.5,
        signaling_s: ProcCosts::default().service_request * 2.0,
    });
    for r in &workload() {
        dc.submit(*r);
    }
    let traces = dc.vms.iter().map(|vm| vm.busy.series()).collect();
    (dc.delays, traces)
}

fn run_scale() -> (Samples, Vec<Vec<(f64, f64)>>) {
    let n_devices = 400;
    // Proactive replication: every device has both VMs as holders.
    let mut dc = DcSim::new(2, Assignment::LeastLoaded, 1.0)
        .with_holders((0..n_devices).map(|_| vec![0, 1]).collect());
    for r in &workload() {
        dc.submit(*r);
    }
    let traces = dc.vms.iter().map(|vm| vm.busy.series()).collect();
    (dc.delays, traces)
}

fn main() {
    let (mut legacy, legacy_tr) = run_legacy();
    let (mut scale, scale_tr) = run_scale();
    println!(
        "# p99: legacy = {:.0} ms, SCALE = {:.0} ms (paper: >1000 ms vs ~250 ms)",
        ms(legacy.p99()),
        ms(scale.p99())
    );

    let mut rows = Vec::new();
    for (v, p) in legacy.cdf(100) {
        rows.push(Row::new("cdf-legacy", ms(v), p));
    }
    for (v, p) in scale.cdf(100) {
        rows.push(Row::new("cdf-scale", ms(v), p));
    }
    for (vm, trace) in legacy_tr.iter().enumerate() {
        for (t, u) in trace {
            rows.push(Row::new(format!("cpu-legacy-mmp{}", vm + 1), *t, u.min(1.0) * 100.0));
        }
    }
    for (vm, trace) in scale_tr.iter().enumerate() {
        for (t, u) in trace {
            rows.push(Row::new(format!("cpu-scale-mmp{}", vm + 1), *t, u.min(1.0) * 100.0));
        }
    }
    emit(
        "e4_overload_within_dc",
        "Overload within a DC: reactive reassignment vs proactive replication",
        "delay (ms) for cdf-* series; time (s) for cpu-* series",
        "CDF / CPU %",
        &rows,
    );
}
