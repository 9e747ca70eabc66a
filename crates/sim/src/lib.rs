//! # scale-sim
//!
//! The deterministic discrete-event simulator behind the paper's
//! large-scale results (the role the authors' custom Python simulator
//! played, §5.1-2):
//!
//! * [`queueing`] — VMs as FIFO servers on a virtual timeline, with the
//!   assignment policies of every compared system (static 3GPP pool +
//!   reactive reassignment, SIMPLE pairwise replication, SCALE
//!   consistent-hash least-loaded);
//! * [`geo`] — multi-DC simulation with propagation-delay matrices and
//!   the IND / static-remote / replicated offloading strategies;
//! * [`fault`] — fault injection ([`FaultPlan`], seeded [`ChaosRng`])
//!   and the chaos-failover simulator: crash detection, replica
//!   failover with bounded retry, ring-repair traffic and overload
//!   shedding (§4.6);
//! * [`workload`] — Poisson device streams, skewed populations, IoT
//!   access-frequency cohorts and synchronous mass access;
//! * [`diurnal`] — seeded day-long arrival traces (commute double-hump,
//!   stadium flash-crowd, overnight IoT wave) for the closed-loop
//!   autoscaler experiments;
//! * [`metrics`] — percentiles, CDFs and CPU-trace time series;
//! * [`openloop`] — seeded Poisson arrival schedules for offered-load
//!   (open-loop) drives;
//! * [`wire_run`] — the *multi-process* deployment runtime: role
//!   main-loops for the eNB/MLB/MMP processes over `sctplite` sockets,
//!   parent-side topology orchestration, and the in-process shuttle
//!   parity oracle (the `wire_load` mega-bench);
//! * [`shard_driver`] — the *multi-core* scale-out driver: the same
//!   eNodeB, MLB and MMP machines, one of each per worker thread,
//!   passing `WireMsg`s through bounded mailboxes (the `scale_out`
//!   mega-bench);
//! * [`replay`] — recorded MLB traffic replayed through the
//!   deployment's own receive → route → send loops, sans-IO (the relay
//!   suites and `bench_summary`'s relay section);
//! * [`testbed`] — one MME endpoint and one eNodeB over real sockets,
//!   the shape of the paper's OpenEPC prototype.

#![forbid(unsafe_code)]

pub mod diurnal;
pub mod fault;
pub mod geo;
pub mod metrics;
pub mod openloop;
pub mod queueing;
pub mod replay;
pub mod shard_driver;
pub mod testbed;
pub mod wire_run;
pub mod workload;

pub use diurnal::{DiurnalTrace, TraceShape};
pub use fault::{ChaosConfig, ChaosReport, ChaosRng, ChaosSim, FaultEvent, FaultKind, FaultPlan};
pub use geo::{GeoDevice, GeoPlacement, GeoSim};
pub use metrics::{Samples, TimeSeries};
pub use openloop::poisson_schedule;
pub use testbed::{run_testbed, TestbedReport};
pub use shard_driver::{
    run_scale_out, run_threads, LatencySummary, ScaleOutConfig, ScaleOutCounts, ScaleOutReport,
};
pub use wire_run::{
    run_enb, run_mlb, run_mmp, run_shuttle, run_shuttle_tapped, spawn_topology,
    spawn_topology_with, ShuttleTap, WireCounts, WireDeployment, WireLatency, WireMmpTotals, WireMode, WireOutcome, WireRunConfig,
};
pub use queueing::{
    placement, Assignment, DcSim, ProcCosts, Procedure, ReassignPolicy, Request, VmServer,
};
pub use workload::{
    bimodal_weights, device_stream, mass_access, poisson_arrivals, poisson_arrivals_into,
    skewed_rates, uniform_rates, ProcedureMix,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Delay is never below the service time and grows monotonically
        /// with backlog on a single pinned VM.
        #[test]
        fn delay_lower_bound(n in 1usize..200) {
            let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
                .with_holders(placement::pinned(1, 1));
            let s = ProcCosts::default().service_request;
            let mut last = 0.0;
            for _ in 0..n {
                let d = dc.submit(Request { time: 0.0, device: 0, procedure: Procedure::ServiceRequest });
                prop_assert!(d >= s - 1e-12);
                prop_assert!(d >= last);
                last = d;
            }
        }

        /// Least-loaded over R holders never does worse than pinned on
        /// identical workloads.
        #[test]
        fn least_loaded_dominates_pinned(seed in any::<u64>(), n_dev in 2usize..30) {
            let holders = placement::ring(n_dev, 4, 5, 2);
            let rates = uniform_rates(n_dev, 800.0);
            let stream = device_stream(seed, &rates, ProcedureMix::typical(), 2.0);
            let mut scale = DcSim::new(4, Assignment::LeastLoaded, 1.0).with_holders(holders.clone());
            let mut pinned = DcSim::new(4, Assignment::Pinned, 1.0).with_holders(holders);
            for r in &stream {
                scale.submit(*r);
                pinned.submit(*r);
            }
            if !stream.is_empty() {
                prop_assert!(scale.delays.p99() <= pinned.delays.p99() + 1e-9);
            }
        }

        /// Utilization never exceeds 1 in any bucket.
        #[test]
        fn utilization_bounded(seed in any::<u64>()) {
            let holders = placement::pinned(5, 2);
            let rates = uniform_rates(5, 2000.0);
            let stream = device_stream(seed, &rates, ProcedureMix::typical(), 1.0);
            let mut dc = DcSim::new(2, Assignment::Pinned, 0.5).with_holders(holders);
            for r in &stream {
                dc.submit(*r);
            }
            for vm in &dc.vms {
                for i in 0..vm.busy.buckets.len() {
                    prop_assert!(vm.utilization(i) <= 1.0 + 1e-9);
                }
            }
        }
    }
}
