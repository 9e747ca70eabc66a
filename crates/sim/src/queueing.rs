//! The queueing-level cluster simulator: MMP/MME VMs as FIFO servers on
//! a virtual timeline, with the assignment policies of every system the
//! paper compares (static 3GPP pool, SIMPLE pairwise replication, SCALE
//! consistent hashing with least-loaded replica choice).
//!
//! This plays the role of the paper's "custom event-driven simulator in
//! Python" (§5.1-2): requests arrive in time order, each is served by a
//! VM chosen per policy, and the per-request delay is queueing + service
//! (+ propagation, added by the geo layer).

use crate::metrics::{Samples, TimeSeries};
use scale_hashring::HashRing;
use scale_obs::Series;
use std::sync::Arc;

/// Control-plane procedures and their service demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Procedure {
    Attach,
    ServiceRequest,
    Handover,
    Tau,
    Paging,
    Detach,
}

/// Per-procedure service times (seconds of VM work at speed 1.0).
///
/// Calibrated so a speed-1 VM saturates at ≈350 attaches/s or ≈600
/// service requests/s — the knee region of Fig 2(a).
#[derive(Debug, Clone, Copy)]
pub struct ProcCosts {
    pub attach: f64,
    pub service_request: f64,
    pub handover: f64,
    pub tau: f64,
    pub paging: f64,
    pub detach: f64,
}

impl Default for ProcCosts {
    fn default() -> Self {
        ProcCosts {
            attach: 1.0 / 350.0,
            service_request: 1.0 / 600.0,
            handover: 1.0 / 500.0,
            tau: 1.0 / 700.0,
            paging: 1.0 / 800.0,
            detach: 1.0 / 650.0,
        }
    }
}

impl ProcCosts {
    pub fn of(&self, p: Procedure) -> f64 {
        match p {
            Procedure::Attach => self.attach,
            Procedure::ServiceRequest => self.service_request,
            Procedure::Handover => self.handover,
            Procedure::Tau => self.tau,
            Procedure::Paging => self.paging,
            Procedure::Detach => self.detach,
        }
    }
}

impl Procedure {
    /// eNodeB↔MME message round trips of the procedure — multiplies the
    /// propagation delay when the serving MME is remote (Fig 3a).
    pub fn round_trips(self) -> f64 {
        match self {
            Procedure::Attach => 5.0,
            Procedure::ServiceRequest => 2.0,
            Procedure::Handover => 3.0,
            Procedure::Tau => 1.5,
            Procedure::Paging => 2.0,
            Procedure::Detach => 2.0,
        }
    }
}

/// One FIFO server (an MMP/MME VM).
#[derive(Debug, Clone)]
pub struct VmServer {
    /// Completion time of the last queued request.
    pub free_at: f64,
    /// Capacity multiplier (1.0 = reference VM).
    pub speed: f64,
    /// Busy-time accounting for CPU-trace figures.
    pub busy: TimeSeries,
    pub served: u64,
}

impl VmServer {
    pub fn new(speed: f64, bucket_width: f64) -> Self {
        VmServer {
            free_at: 0.0,
            speed,
            busy: TimeSeries::new(bucket_width),
            served: 0,
        }
    }

    /// Outstanding work (seconds) at `now` — the queue-length proxy the
    /// MLB's least-loaded choice uses.
    pub fn backlog(&self, now: f64) -> f64 {
        (self.free_at - now).max(0.0)
    }

    /// Enqueue `service` seconds of work arriving at `now`; returns the
    /// completion time.
    pub fn serve(&mut self, now: f64, service: f64) -> f64 {
        let start = now.max(self.free_at);
        let finish = start + service / self.speed;
        self.busy.add_interval(start, finish, 1.0);
        self.free_at = finish;
        self.served += 1;
        finish
    }

    /// Utilization fraction in bucket `i`.
    pub fn utilization(&self, i: usize) -> f64 {
        self.busy.rate(i).min(1.0)
    }
}

/// One control-plane request on the timeline.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub time: f64,
    pub device: usize,
    pub procedure: Procedure,
}

/// How a DC picks the serving VM for a device's request.
#[derive(Debug, Clone, Copy)]
pub enum Assignment {
    /// Device pinned to its first holder (the legacy pool's static
    /// assignment, §3.1).
    Pinned,
    /// Pinned, but spill to the single fixed replica when the primary's
    /// backlog exceeds the threshold — the SIMPLE system of E3.
    PairSpill { threshold_s: f64 },
    /// Least-backlog VM among all R holders — SCALE (§4.6).
    LeastLoaded,
}

/// The legacy pool's reactive overload protection (Fig 2b/2c): when the
/// pinned VM's backlog exceeds `threshold_s`, the device is reassigned
/// to the least-loaded VM, charging `signaling_s` of extra work to both
/// VMs (the reconnect + state transfer messages).
#[derive(Debug, Clone, Copy)]
pub struct ReassignPolicy {
    pub threshold_s: f64,
    pub signaling_s: f64,
}

/// A simulated DC: VMs + device→holder placement + assignment policy.
pub struct DcSim {
    pub vms: Vec<VmServer>,
    /// Per-device ordered holder lists (first = master/pinned VM).
    pub holders: Vec<Vec<usize>>,
    pub assignment: Assignment,
    pub reassign: Option<ReassignPolicy>,
    pub costs: ProcCosts,
    /// Per-request latencies (used when no [`delay_sink`](Self::delay_sink)
    /// is attached).
    pub delays: Samples,
    /// When set, per-request delays are recorded here — a shared,
    /// typically registry-registered [`Series`] — instead of the
    /// private `delays` vector. `scale_obs::Series` computes the same
    /// nearest-rank quantiles as [`Samples`], so sweeps reading stats
    /// through the registry report identical numbers.
    pub delay_sink: Option<Arc<Series>>,
    pub reassignments: u64,
}

impl DcSim {
    pub fn new(n_vms: usize, assignment: Assignment, bucket_width: f64) -> Self {
        DcSim {
            vms: (0..n_vms).map(|_| VmServer::new(1.0, bucket_width)).collect(),
            holders: Vec::new(),
            assignment,
            reassign: None,
            costs: ProcCosts::default(),
            delays: Samples::new(),
            delay_sink: None,
            reassignments: 0,
        }
    }

    /// Register `n` devices with pre-computed holder lists.
    pub fn with_holders(mut self, holders: Vec<Vec<usize>>) -> Self {
        self.holders = holders;
        self
    }

    /// Record delays into `series` (see [`delay_sink`](Self::delay_sink)).
    pub fn with_delay_series(mut self, series: Arc<Series>) -> Self {
        self.delay_sink = Some(series);
        self
    }

    /// Register one new device (used mid-run for Fig 2d's unregistered
    /// arrivals); returns its device id.
    pub fn register_device(&mut self, holders: Vec<usize>) -> usize {
        self.holders.push(holders);
        self.holders.len() - 1
    }

    fn pick_vm(&mut self, device: usize, now: f64) -> usize {
        let holders = &self.holders[device];
        match self.assignment {
            Assignment::Pinned => holders[0],
            Assignment::PairSpill { threshold_s } => {
                let primary = holders[0];
                if self.vms[primary].backlog(now) > threshold_s && holders.len() > 1 {
                    holders[1]
                } else {
                    primary
                }
            }
            Assignment::LeastLoaded => holders
                .iter()
                .copied()
                .min_by(|a, b| {
                    self.vms[*a]
                        .backlog(now)
                        .partial_cmp(&self.vms[*b].backlog(now))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(holders[0]),
        }
    }

    /// Process one request; returns its total delay, recording it.
    pub fn submit(&mut self, req: Request) -> f64 {
        self.submit_with_extra_latency(req, 0.0)
    }

    /// As [`Self::submit`], adding fixed extra latency (propagation) to
    /// the recorded delay.
    pub fn submit_with_extra_latency(&mut self, req: Request, extra: f64) -> f64 {
        let mut vm = self.pick_vm(req.device, req.time);

        // Legacy reactive reassignment (with hysteresis: only move when
        // the target is meaningfully lighter, as real MMEs do, else the
        // pool thrashes devices back and forth).
        if let (Assignment::Pinned, Some(policy)) = (self.assignment, self.reassign) {
            if self.vms[vm].backlog(req.time) > policy.threshold_s && self.vms.len() > 1 {
                let target = (0..self.vms.len())
                    .filter(|v| *v != vm)
                    .min_by(|a, b| {
                        self.vms[*a]
                            .backlog(req.time)
                            .total_cmp(&self.vms[*b].backlog(req.time))
                    });
                if let Some(target) =
                    target.filter(|t| self.vms[*t].backlog(req.time) < policy.threshold_s / 2.0)
                {
                    // Charge the reconnect + state-transfer signaling to
                    // both sides (Fig 2c's overhead).
                    self.vms[vm].serve(req.time, policy.signaling_s);
                    self.vms[target].serve(req.time, policy.signaling_s);
                    self.holders[req.device][0] = target;
                    self.reassignments += 1;
                    vm = target;
                }
            }
        }

        let service = self.costs.of(req.procedure);
        let finish = self.vms[vm].serve(req.time, service);
        let delay = finish - req.time + extra;
        match &self.delay_sink {
            Some(sink) => sink.push(delay),
            None => self.delays.push(delay),
        }
        delay
    }

    /// Mean utilization of a VM over [0, horizon).
    pub fn mean_utilization(&self, vm: usize, horizon: f64) -> f64 {
        let buckets = (horizon / self.vms[vm].busy.bucket_width).ceil() as usize;
        if buckets == 0 {
            return 0.0;
        }
        (0..buckets).map(|i| self.vms[vm].utilization(i)).sum::<f64>() / buckets as f64
    }
}

/// Holder-list builders for the systems under comparison.
pub mod placement {
    use super::*;

    /// Static single-VM assignment, round-robin (legacy pool with equal
    /// weights).
    pub fn pinned(n_devices: usize, n_vms: usize) -> Vec<Vec<usize>> {
        (0..n_devices).map(|d| vec![d % n_vms]).collect()
    }

    /// Pinned by an explicit map.
    pub fn pinned_by(map: &[usize]) -> Vec<Vec<usize>> {
        map.iter().map(|&vm| vec![vm]).collect()
    }

    /// SIMPLE: device pinned round-robin, replica on the next VM.
    pub fn simple_pairs(n_devices: usize, n_vms: usize) -> Vec<Vec<usize>> {
        (0..n_devices)
            .map(|d| {
                let vm = d % n_vms;
                vec![vm, (vm + 1) % n_vms]
            })
            .collect()
    }

    /// SCALE: consistent hashing with `tokens` per VM and `r` holders
    /// per device (tokens = 1 reproduces the token-less baseline of
    /// Fig 10a).
    pub fn ring(n_devices: usize, n_vms: usize, tokens: u32, r: usize) -> Vec<Vec<usize>> {
        let mut ring: HashRing<u32> = HashRing::new(tokens);
        for vm in 0..n_vms {
            ring.add_node(vm as u32);
        }
        (0..n_devices)
            .map(|d| {
                // Stream the walk straight into the holder list — one
                // allocation per device (the list itself), none for the
                // intermediate replica vector or the hashed key.
                let mut holders = Vec::with_capacity(r.min(n_vms));
                ring.replicas_each(scale_hashring::position_of(&(d as u64)), r, |vm| {
                    holders.push(*vm as usize)
                });
                holders
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, d: usize) -> Request {
        Request {
            time: t,
            device: d,
            procedure: Procedure::ServiceRequest,
        }
    }

    #[test]
    fn lightly_loaded_vm_has_service_time_delay() {
        let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1));
        let d = dc.submit(req(0.0, 0));
        assert!((d - ProcCosts::default().service_request).abs() < 1e-9);
    }

    #[test]
    fn queueing_builds_under_burst() {
        let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1));
        // 100 simultaneous requests: the k-th waits for k-1 services.
        let mut last = 0.0;
        for _ in 0..100 {
            last = dc.submit(req(0.0, 0));
        }
        let s = ProcCosts::default().service_request;
        assert!((last - 100.0 * s).abs() < 1e-6);
        assert!(dc.delays.p99() > 90.0 * s);
    }

    #[test]
    fn least_loaded_spreads_a_burst() {
        let holders = vec![vec![0, 1]; 1];
        let mut scale = DcSim::new(2, Assignment::LeastLoaded, 1.0).with_holders(holders.clone());
        let mut pinned = DcSim::new(2, Assignment::Pinned, 1.0).with_holders(holders);
        for _ in 0..100 {
            scale.submit(req(0.0, 0));
            pinned.submit(req(0.0, 0));
        }
        assert!(
            scale.delays.p99() < pinned.delays.p99() * 0.6,
            "two holders should roughly halve the tail: {} vs {}",
            scale.delays.p99(),
            pinned.delays.p99()
        );
    }

    #[test]
    fn pair_spill_moves_overflow_to_fixed_partner() {
        let holders = placement::simple_pairs(2, 3); // dev0 → (0,1)
        let mut dc = DcSim::new(3, Assignment::PairSpill { threshold_s: 0.01 }, 1.0)
            .with_holders(holders);
        for _ in 0..200 {
            dc.submit(req(0.0, 0));
        }
        assert!(dc.vms[0].served > 0);
        assert!(dc.vms[1].served > 0, "spill must engage the partner");
        assert_eq!(dc.vms[2].served, 0, "SIMPLE never uses a third VM");
    }

    #[test]
    fn reactive_reassignment_charges_both_vms() {
        let mut dc = DcSim::new(2, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned_by(&[0]));
        dc.reassign = Some(ReassignPolicy {
            threshold_s: 0.005,
            signaling_s: 0.004,
        });
        for _ in 0..50 {
            dc.submit(req(0.0, 0));
        }
        assert!(dc.reassignments >= 1);
        // Both VMs did signaling work.
        assert!(dc.vms[0].served > 0 && dc.vms[1].served > 0);
    }

    #[test]
    fn utilization_accounting() {
        let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1));
        // Saturate for ~2 seconds of work.
        let n = (2.0 / ProcCosts::default().service_request) as usize;
        for _ in 0..n {
            dc.submit(req(0.0, 0));
        }
        assert!(dc.mean_utilization(0, 2.0) > 0.95);
        let mut idle = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1));
        idle.submit(req(0.0, 0));
        assert!(idle.mean_utilization(0, 2.0) < 0.01);
    }

    #[test]
    fn ring_placement_properties() {
        let holders = placement::ring(1000, 10, 5, 2);
        for h in &holders {
            assert_eq!(h.len(), 2);
            assert_ne!(h[0], h[1]);
            assert!(h.iter().all(|vm| *vm < 10));
        }
        // Tokens spread the replica partners of VM 0's devices.
        let partners: std::collections::BTreeSet<usize> = holders
            .iter()
            .filter(|h| h[0] == 0)
            .map(|h| h[1])
            .collect();
        assert!(partners.len() >= 3, "partners: {partners:?}");
        // Token-less: a single partner per primary.
        let tokenless = placement::ring(1000, 10, 1, 2);
        let partners: std::collections::BTreeSet<usize> = tokenless
            .iter()
            .filter(|h| h[0] == 0)
            .map(|h| h[1])
            .collect();
        assert_eq!(partners.len(), 1);
    }

    #[test]
    fn delay_sink_diverts_and_matches_private_samples() {
        let series = Arc::new(Series::new());
        let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1))
            .with_delay_series(series.clone());
        let mut plain =
            DcSim::new(1, Assignment::Pinned, 1.0).with_holders(placement::pinned(1, 1));
        for _ in 0..100 {
            dc.submit(req(0.0, 0));
            plain.submit(req(0.0, 0));
        }
        assert_eq!(dc.delays.len(), 0, "sink diverts the private vector");
        assert_eq!(series.len(), 100);
        // Registry-resident stats are bit-identical to the private ones.
        assert_eq!(series.p99(), plain.delays.p99());
        assert_eq!(series.p50(), plain.delays.p50());
        assert_eq!(series.cdf(20), plain.delays.cdf(20));
    }

    #[test]
    fn register_device_mid_run() {
        let mut dc = DcSim::new(2, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 2));
        let d = dc.register_device(vec![1]);
        assert_eq!(d, 1);
        dc.submit(req(0.0, d));
        assert_eq!(dc.vms[1].served, 1);
    }

    #[test]
    fn speed_scales_service_time() {
        let mut dc = DcSim::new(1, Assignment::Pinned, 1.0)
            .with_holders(placement::pinned(1, 1));
        dc.vms[0].speed = 2.0;
        let d = dc.submit(req(0.0, 0));
        assert!((d - ProcCosts::default().service_request / 2.0).abs() < 1e-9);
    }
}
