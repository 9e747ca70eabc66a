//! Multi-DC simulation: per-DC clusters joined by a propagation-delay
//! matrix, with the geo strategies of Fig 8(d) and Fig 10(b) —
//! local-only (IND), static remote pooling (Current Systems), random
//! geo-replication variants (RDM1/RDM2) and SCALE's budget- and
//! delay-aware offloading.

use crate::queueing::{DcSim, Request};
use scale_core::geo::DelayMatrix;

/// Where a device's requests may be processed.
#[derive(Debug, Clone, Copy)]
pub enum GeoPlacement {
    /// Only at the home DC (IND / Local DC).
    LocalOnly,
    /// Statically pinned to `dc` — possibly remote — for every request
    /// (Current Systems: eNodeBs forward to the assigned pool member's
    /// DC regardless of local load, §3.1-4).
    Static { dc: usize },
    /// Home DC, with an external replica at `remote` usable under local
    /// overload (SCALE / RDM variants, §4.5.2).
    Replicated { remote: usize },
}

/// One device's geo routing state.
#[derive(Debug, Clone, Copy)]
pub struct GeoDevice {
    pub home: usize,
    pub placement: GeoPlacement,
}

/// Multi-DC simulator.
pub struct GeoSim {
    pub dcs: Vec<DcSim>,
    pub delays_ms: DelayMatrix,
    pub devices: Vec<GeoDevice>,
    /// Backlog (seconds) above which a DC offloads to remote replicas.
    pub offload_threshold_s: f64,
    /// Requests served away from the home DC.
    pub offloaded: u64,
}

impl GeoSim {
    pub fn new(dcs: Vec<DcSim>, delays_ms: DelayMatrix) -> Self {
        GeoSim {
            dcs,
            delays_ms,
            devices: Vec::new(),
            offload_threshold_s: 0.05,
            offloaded: 0,
        }
    }

    /// Minimum backlog across a DC's VMs at `now` (the DC-level load
    /// signal Ŝ_m tracks).
    fn dc_backlog(&self, dc: usize, now: f64) -> f64 {
        self.dcs[dc]
            .vms
            .iter()
            .map(|vm| vm.backlog(now))
            .fold(f64::INFINITY, f64::min)
    }

    /// One-way propagation in seconds between two DCs.
    fn prop_s(&self, a: usize, b: usize) -> f64 {
        self.delays_ms.get(a as u16, b as u16) / 1000.0
    }

    /// Process one request for `device` (indices are global; the
    /// device's id inside each DcSim must match — callers register each
    /// device in every DC that may serve it).
    pub fn submit(&mut self, device: usize, req: Request) -> f64 {
        let geo = self.devices[device];
        let serving = match geo.placement {
            GeoPlacement::LocalOnly => geo.home,
            GeoPlacement::Static { dc } => dc,
            GeoPlacement::Replicated { remote } => {
                // Offload only while the local DC is backed up AND the
                // remote still advertises headroom — the Ŝ_m budget of
                // §4.5.2 reaches zero exactly when the remote itself is
                // loaded, at which point it asks owners to back off.
                if self.dc_backlog(geo.home, req.time) > self.offload_threshold_s
                    && self.dc_backlog(remote, req.time) < self.offload_threshold_s
                {
                    remote
                } else {
                    geo.home
                }
            }
        };
        if serving != geo.home {
            self.offloaded += 1;
        }
        // Propagation: each eNodeB↔MME round trip crosses the inter-DC
        // link when served remotely.
        let extra = req.procedure.round_trips() * 2.0 * self.prop_s(geo.home, serving);
        self.dcs[serving].submit_with_extra_latency(req, extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queueing::{placement, Assignment, Procedure};

    fn two_dc_sim(policy: GeoPlacement) -> GeoSim {
        let dc = || {
            DcSim::new(1, Assignment::Pinned, 1.0).with_holders(placement::pinned(4, 1))
        };
        let mut delays = DelayMatrix::new(2);
        delays.set(0, 1, 25.0);
        let mut sim = GeoSim::new(vec![dc(), dc()], delays);
        sim.devices = (0..4)
            .map(|_| GeoDevice {
                home: 0,
                placement: policy,
            })
            .collect();
        sim
    }

    fn req(t: f64, d: usize) -> Request {
        Request {
            time: t,
            device: d,
            procedure: Procedure::ServiceRequest,
        }
    }

    #[test]
    fn local_only_never_pays_propagation() {
        let mut sim = two_dc_sim(GeoPlacement::LocalOnly);
        let d = sim.submit(0, req(0.0, 0));
        assert!(d < 0.01, "no propagation: {d}");
        assert_eq!(sim.offloaded, 0);
    }

    #[test]
    fn static_remote_always_pays_propagation() {
        let mut sim = two_dc_sim(GeoPlacement::Static { dc: 1 });
        let d = sim.submit(0, req(0.0, 0));
        // 2 round trips × 2 × 25 ms = 100 ms of propagation.
        assert!(d > 0.1, "remote penalty missing: {d}");
        assert_eq!(sim.offloaded, 1);
    }

    #[test]
    fn scale_offloads_only_under_local_overload() {
        let mut sim = two_dc_sim(GeoPlacement::Replicated { remote: 1 });
        sim.offload_threshold_s = 0.05;
        // Light load: served locally.
        sim.submit(0, req(0.0, 0));
        assert_eq!(sim.offloaded, 0);
        // Saturate DC0.
        for _ in 0..100 {
            sim.submit(0, req(0.0, 0));
        }
        assert!(sim.offloaded > 0, "overload must trigger offloading");
    }

    #[test]
    fn offload_prefers_less_loaded_remote() {
        let mut sim = two_dc_sim(GeoPlacement::Replicated { remote: 1 });
        // Saturate both DCs equally: no benefit, stay local.
        for vm in sim.dcs.iter_mut() {
            vm.vms[0].free_at = 10.0;
        }
        sim.offloaded = 0;
        sim.submit(0, req(0.0, 0));
        assert_eq!(sim.offloaded, 0, "equal backlog: no offload");
    }
}
