//! Closed-loop, metrics-driven VM autoscaling.
//!
//! Eq 1 sizes the fleet from *observed message counts* — a throughput
//! view. The autoscaler here closes the loop through the analytical
//! model instead: each epoch it reads an [`EpochObservation`] (per-
//! procedure arrival counts extracted from a live [`Snapshot`] delta),
//! forecasts the next epoch's offered load with the same EWMA
//! estimator Eq 1 uses, asks the Jackson-network model
//! ([`FleetModel::min_vms`]) for the smallest fleet whose predicted
//! worst-class p99 meets the SLA, takes the max with Eq 1's memory
//! term (state storage does not care about latency), and drives
//! [`ScaleDc::apply_provisioning`] toward that target.
//!
//! Stability guards (DESIGN.md §13):
//!
//! * **Hysteresis** — scale-*up* decisions apply immediately (SLA
//!   damage is worse than VM cost); scale-*down* waits until the model
//!   has asked for a smaller fleet for [`AutoscaleConfig::down_hold_epochs`]
//!   consecutive epochs, then drains at most
//!   [`AutoscaleConfig::max_step_down`] VMs per epoch.
//! * **Step limits** — one epoch adds at most
//!   [`AutoscaleConfig::max_step_up`] VMs; a forecast glitch cannot
//!   triple the fleet.
//! * **Fleet bounds** — the target is always clamped to
//!   `[min_vms, max_vms]`.
//! * **Breach override** — if the *measured* p99 already violates the
//!   SLA, the fleet grows by at least one VM regardless of what the
//!   model predicts (the model can be wrong; the measurement is not).
//!
//! Everything is deterministic: the decision is a pure function of the
//! observation sequence and the configuration, which is what the
//! `autoscale` bench's run-twice bit-equality gate rests on.

use crate::cluster::ScaleDc;
use crate::provision::{provision, LoadEstimator, VmCapacity};
use scale_analysis::{ClassLoad, FleetModel, FleetPrediction, ModelMetrics, ServiceDemands};
use scale_obs::{Counter, Gauge, Registry, Snapshot};
use std::sync::Arc;

/// Per-procedure arrival-counter names for a [`ScaleDc`] cluster, in
/// the class vocabulary of
/// [`MMP_PROC_HISTOGRAMS`](scale_analysis::MMP_PROC_HISTOGRAMS).
/// Pagings and detaches both land in the `other` class — they share
/// its latency histogram.
pub const CLUSTER_CLASS_COUNTERS: &[(&str, &str)] = &[
    ("attach", "scale_mmp_attaches_completed_total"),
    ("service_request", "scale_mmp_service_requests_total"),
    ("tau", "scale_mmp_taus_total"),
    ("other", "scale_mmp_pagings_total"),
    ("other", "scale_mmp_detaches_total"),
];

/// Configuration of the closed-loop controller.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// SLA bound on the worst-class p99 sojourn time (seconds).
    pub sla_p99_s: f64,
    /// Per-worker utilisation cap fed to the dimensioning rule
    /// (dimensionless, in (0, 1]).
    pub rho_cap: f64,
    /// Smallest fleet the controller will ever target (VMs).
    pub min_vms: u32,
    /// Largest fleet the controller will ever target (VMs).
    pub max_vms: u32,
    /// Multiplicative safety margin on the planned arrival rate
    /// (dimensionless, ≥ 1).
    pub headroom: f64,
    /// EWMA smoothing factor α of the load forecast (dimensionless,
    /// in [0, 1]; higher = more reactive).
    pub forecast_alpha: f64,
    /// Consecutive epochs the model must ask for a smaller fleet
    /// before any VM is removed (epochs).
    pub down_hold_epochs: u32,
    /// Most VMs added in a single epoch (VMs).
    pub max_step_up: u32,
    /// Most VMs removed in a single epoch (VMs).
    pub max_step_down: u32,
    /// Per-VM capacities for Eq 1's memory term.
    pub capacity: VmCapacity,
    /// Replication factor R for the memory term (replicas per state).
    pub replication: u32,
    /// Access-aware thinning factor β for the memory term
    /// (dimensionless, in (0, 1]).
    pub beta: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            sla_p99_s: 0.015,
            rho_cap: 0.85,
            min_vms: 1,
            max_vms: 64,
            headroom: 1.25,
            forecast_alpha: 0.5,
            down_hold_epochs: 3,
            max_step_up: 8,
            max_step_down: 1,
            capacity: VmCapacity {
                requests_per_epoch: 10_000,
                states: 25_000,
            },
            replication: 2,
            beta: 1.0,
        }
    }
}

impl AutoscaleConfig {
    /// Assert the configuration is coherent, naming the bad field.
    /// Miscontrolled autoscaling should fail loudly, not silently thrash
    /// a fleet — in release builds too, where the `autoscale` bin runs
    /// ([`Autoscaler::new`] calls this).
    pub fn validate(&self) {
        assert!(
            self.sla_p99_s.is_finite() && self.sla_p99_s > 0.0,
            "sla_p99_s must be a positive latency bound in seconds (got {})",
            self.sla_p99_s
        );
        assert!(
            self.rho_cap > 0.0 && self.rho_cap <= 1.0,
            "rho_cap must lie in (0, 1] (got {})",
            self.rho_cap
        );
        assert!(
            self.min_vms >= 1 && self.max_vms >= self.min_vms,
            "fleet bounds must satisfy 1 <= min_vms <= max_vms (got {}..={})",
            self.min_vms,
            self.max_vms
        );
        assert!(
            self.headroom.is_finite() && self.headroom >= 1.0,
            "headroom must be a finite factor >= 1 (got {})",
            self.headroom
        );
        assert!(
            (0.0..=1.0).contains(&self.forecast_alpha),
            "forecast_alpha must lie in [0, 1] (got {})",
            self.forecast_alpha
        );
        assert!(
            self.max_step_up >= 1 && self.max_step_down >= 1,
            "step limits must allow at least one VM per epoch"
        );
        assert!(
            self.replication >= 1,
            "replication must be at least 1 (got {})",
            self.replication
        );
        assert!(
            self.beta > 0.0 && self.beta <= 1.0,
            "beta must lie in (0, 1] (got {})",
            self.beta
        );
    }
}

/// What the controller saw during one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochObservation {
    /// Epoch length (seconds of the workload's clock — virtual in the
    /// simulator, wall in a deployment).
    pub epoch_s: f64,
    /// Per-procedure-class arrival counts during the epoch
    /// (requests). Class names follow the calibration vocabulary
    /// (`attach`, `service_request`, ...).
    pub class_arrivals: Vec<(String, u64)>,
    /// Registered devices at epoch end (for Eq 1's memory term).
    pub registered_devices: u64,
    /// Measured worst-case p99 sojourn during the epoch (seconds), if
    /// the deployment exports one on the same clock as the SLA.
    pub measured_p99_s: Option<f64>,
}

impl EpochObservation {
    /// Total arrivals across all classes (requests).
    pub fn total_arrivals(&self) -> u64 {
        self.class_arrivals.iter().map(|(_, n)| n).sum()
    }

    /// Aggregate offered rate over the epoch (requests/second).
    pub fn offered_rps(&self) -> f64 {
        if self.epoch_s > 0.0 {
            self.total_arrivals() as f64 / self.epoch_s
        } else {
            0.0
        }
    }

    /// Build an observation from the delta between two registry
    /// snapshots: for each `(class, counter_name)` pair in
    /// `class_counters`, the increase of that counter over the epoch
    /// is credited to the class (pairs naming the same class
    /// accumulate; see [`CLUSTER_CLASS_COUNTERS`]). A counter absent
    /// from either snapshot contributes zero; `prev = None` means
    /// "since boot".
    pub fn from_snapshot_delta(
        prev: Option<&Snapshot>,
        cur: &Snapshot,
        epoch_s: f64,
        registered_devices: u64,
        class_counters: &[(&str, &str)],
    ) -> EpochObservation {
        let mut class_arrivals: Vec<(String, u64)> = Vec::new();
        for &(class, counter) in class_counters {
            let now = cur.counter(counter).unwrap_or(0);
            let before = prev.and_then(|p| p.counter(counter)).unwrap_or(0);
            let delta = now.saturating_sub(before);
            match class_arrivals.iter_mut().find(|(c, _)| c == class) {
                Some((_, n)) => *n += delta,
                None => class_arrivals.push((class.to_string(), delta)),
            }
        }
        EpochObservation {
            epoch_s,
            class_arrivals,
            registered_devices,
            measured_p99_s: None,
        }
    }
}

/// The direction of one epoch's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Keep the current fleet.
    Hold,
    /// Grow the fleet.
    Up,
    /// Shrink the fleet.
    Down,
}

/// One epoch's control decision, with the full reasoning trail so
/// results files can explain *why* the fleet moved.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Controller epoch index (1-based).
    pub epoch: u64,
    /// Fleet size the decision started from (VMs).
    pub vms_before: u32,
    /// Fleet size the controller wants (VMs).
    pub target_vms: u32,
    /// Direction of the move.
    pub action: ScaleAction,
    /// Offered rate observed last epoch (requests/second).
    pub observed_rps: f64,
    /// EWMA forecast of the next epoch's rate (requests/second).
    pub forecast_rps: f64,
    /// Planned rate after headroom (requests/second).
    pub plan_rps: f64,
    /// Fleet the latency model asked for (VMs).
    pub model_vms: u32,
    /// Fleet Eq 1's memory term asked for (VMs).
    pub storage_vms: u32,
    /// Model-predicted per-worker utilisation at `target_vms`.
    pub predicted_rho: f64,
    /// Model-predicted worst-class p99 at `target_vms` (seconds).
    pub predicted_p99_s: f64,
    /// True when the measured p99 violated the SLA and forced growth.
    pub breach: bool,
}

/// `scale_autoscale_*` registry metrics (opt-in, like the cluster's).
#[derive(Debug, Clone)]
struct AutoscaleMetrics {
    decisions: Arc<Counter>,
    scale_ups: Arc<Counter>,
    scale_downs: Arc<Counter>,
    breaches: Arc<Counter>,
    target_vms: Arc<Gauge>,
    forecast_rps: Arc<Gauge>,
    plan_rps: Arc<Gauge>,
}

impl AutoscaleMetrics {
    fn new(reg: &Registry) -> AutoscaleMetrics {
        AutoscaleMetrics {
            decisions: reg.counter(
                "scale_autoscale_decisions_total",
                "control decisions taken",
            ),
            scale_ups: reg.counter(
                "scale_autoscale_scale_ups_total",
                "decisions that grew the fleet",
            ),
            scale_downs: reg.counter(
                "scale_autoscale_scale_downs_total",
                "decisions that shrank the fleet",
            ),
            breaches: reg.counter(
                "scale_autoscale_breaches_total",
                "epochs whose measured p99 violated the SLA",
            ),
            target_vms: reg.gauge(
                "scale_autoscale_target_vms",
                "fleet size the latest decision targets",
            ),
            forecast_rps: reg.gauge(
                "scale_autoscale_forecast_rps",
                "EWMA forecast of the offered rate (requests/second)",
            ),
            plan_rps: reg.gauge(
                "scale_autoscale_plan_rps",
                "headroom-adjusted rate the fleet is sized for (requests/second)",
            ),
        }
    }
}

/// The closed-loop controller. Feed it one [`EpochObservation`] per
/// epoch (or let [`Autoscaler::step_cluster`] extract one from a live
/// cluster) and apply the returned [`Decision`].
#[derive(Debug)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    demands: ServiceDemands,
    forecast: Option<LoadEstimator>,
    /// Latest per-class share of total arrivals, carried across
    /// silent epochs so an idle lull does not erase the mix.
    shares: Vec<(String, f64)>,
    down_streak: u32,
    epoch: u64,
    metrics: Option<AutoscaleMetrics>,
    model_metrics: Option<ModelMetrics>,
    prev_snap: Option<Snapshot>,
}

impl Autoscaler {
    /// A controller with calibrated per-class service `demands`
    /// (seconds per request; see
    /// [`ServiceDemands::from_histograms`]).
    pub fn new(config: AutoscaleConfig, demands: ServiceDemands) -> Autoscaler {
        config.validate();
        Autoscaler {
            config,
            demands,
            forecast: None,
            shares: Vec::new(),
            down_streak: 0,
            epoch: 0,
            metrics: None,
            model_metrics: None,
            prev_snap: None,
        }
    }

    /// The configuration the controller runs with.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Export `scale_autoscale_*` decision metrics and the model's
    /// `scale_analysis_*` prediction metrics into `reg`.
    pub fn attach_observability(&mut self, reg: &Registry) {
        self.metrics = Some(AutoscaleMetrics::new(reg));
        self.model_metrics = Some(ModelMetrics::new(reg));
    }

    /// Take one control decision from `obs`, given the fleet currently
    /// holds `current_vms` VMs. Pure in (observation sequence, config):
    /// the same inputs always produce the same decision — the
    /// determinism the autoscale bench asserts.
    pub fn decide(&mut self, current_vms: u32, obs: &EpochObservation) -> Decision {
        let cfg = self.config;
        self.epoch += 1;
        let observed_rps = obs.offered_rps();
        let forecast_rps = match &mut self.forecast {
            Some(est) => est.observe(observed_rps),
            None => {
                // Seed the EWMA with the first real observation so the
                // controller does not spend the first epochs chasing a
                // zero initial estimate.
                self.forecast = Some(LoadEstimator::new(cfg.forecast_alpha, observed_rps));
                observed_rps
            }
        };
        let plan_rps = observed_rps.max(forecast_rps) * cfg.headroom;

        let total = obs.total_arrivals();
        if total > 0 {
            self.shares = obs
                .class_arrivals
                .iter()
                .map(|(name, n)| (name.clone(), *n as f64 / total as f64))
                .collect();
        }
        let rates: Vec<(&str, f64)> = self
            .shares
            .iter()
            .map(|(name, share)| (name.as_str(), share * plan_rps))
            .collect();
        let classes = ClassLoad::join(&self.demands, &rates);

        let model_vms = if classes.is_empty() {
            cfg.min_vms
        } else {
            FleetModel::min_vms(
                &classes,
                cfg.sla_p99_s,
                cfg.rho_cap,
                cfg.min_vms,
                cfg.max_vms,
            )
        };
        // Eq 1's memory term: state storage is latency-blind, so it
        // enters as a floor, not through the model.
        let storage_vms = provision(
            0.0,
            obs.registered_devices,
            cfg.replication,
            cfg.beta,
            cfg.capacity,
        )
        .storage_vms
        .min(u64::from(u32::MAX)) as u32;

        let mut raw = model_vms.max(storage_vms).clamp(cfg.min_vms, cfg.max_vms);
        let breach = obs.measured_p99_s.is_some_and(|p| p > cfg.sla_p99_s);
        if breach {
            // The measurement outranks the model: grow by at least one.
            raw = raw.max((current_vms + 1).min(cfg.max_vms));
        }

        let (action, target_vms) = if raw > current_vms {
            self.down_streak = 0;
            (ScaleAction::Up, raw.min(current_vms + cfg.max_step_up))
        } else if raw < current_vms {
            self.down_streak = self.down_streak.saturating_add(1);
            if self.down_streak >= cfg.down_hold_epochs {
                // Held long enough: drain, but gently. The streak is
                // kept so a sustained surplus keeps draining one step
                // per epoch instead of re-arming the hold timer.
                let floor = current_vms.saturating_sub(cfg.max_step_down).max(1);
                (ScaleAction::Down, raw.max(floor))
            } else {
                (ScaleAction::Hold, current_vms)
            }
        } else {
            self.down_streak = 0;
            (ScaleAction::Hold, current_vms)
        };

        let prediction = if classes.is_empty() {
            None
        } else {
            Some(FleetModel::new(target_vms.max(1), classes).predict())
        };
        let (predicted_rho, predicted_p99_s) = match &prediction {
            Some(p) => (p.rho, p.worst_p99_s()),
            None => (0.0, 0.0),
        };

        let decision = Decision {
            epoch: self.epoch,
            vms_before: current_vms,
            target_vms,
            action,
            observed_rps,
            forecast_rps,
            plan_rps,
            model_vms,
            storage_vms,
            predicted_rho,
            predicted_p99_s,
            breach,
        };
        self.publish(&decision, prediction.as_ref());
        decision
    }

    fn publish(&self, d: &Decision, prediction: Option<&FleetPrediction>) {
        if let Some(m) = &self.metrics {
            m.decisions.inc();
            match d.action {
                ScaleAction::Up => m.scale_ups.inc(),
                ScaleAction::Down => m.scale_downs.inc(),
                ScaleAction::Hold => {}
            }
            if d.breach {
                m.breaches.inc();
            }
            m.target_vms.set(f64::from(d.target_vms));
            m.forecast_rps.set(d.forecast_rps);
            m.plan_rps.set(d.plan_rps);
        }
        if let (Some(mm), Some(pred)) = (&self.model_metrics, prediction) {
            mm.publish(pred);
        }
    }

    /// One closed-loop step against a live cluster: publish the DC's
    /// counters, snapshot its registry, diff against the previous
    /// step's snapshot to build the [`EpochObservation`]
    /// (per-procedure arrivals via [`CLUSTER_CLASS_COUNTERS`]), decide,
    /// and drive [`ScaleDc::apply_provisioning`] to the target.
    ///
    /// `epoch_s` is the epoch length on the workload's clock.
    ///
    /// # Panics
    ///
    /// The cluster must have observability attached
    /// ([`ScaleDc::attach_observability`]) — the whole point of the
    /// closed loop is that decisions come from exported metrics, not
    /// from private cluster state.
    pub fn step_cluster(&mut self, dc: &mut ScaleDc, epoch_s: f64) -> Decision {
        dc.publish_metrics();
        let registry = dc
            .observer()
            .expect("step_cluster needs ScaleDc::attach_observability") // lint: allow(unwrap)
            .registry()
            .clone();
        let snap = Snapshot::of(&registry);
        let obs = EpochObservation::from_snapshot_delta(
            self.prev_snap.as_ref(),
            &snap,
            epoch_s,
            dc.device_count() as u64,
            CLUSTER_CLASS_COUNTERS,
        );
        self.prev_snap = Some(snap);
        let decision = self.decide(dc.vm_count() as u32, &obs);
        dc.apply_provisioning(decision.target_vms as usize);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibrated demands for a synthetic two-class workload.
    fn demands() -> ServiceDemands {
        ServiceDemands::from_classes(&[
            ("attach", 2.8e-3),
            ("service_request", 1.6e-3),
        ])
    }

    fn obs(rps: f64, epoch_s: f64) -> EpochObservation {
        let total = (rps * epoch_s).round() as u64;
        EpochObservation {
            epoch_s,
            class_arrivals: vec![
                ("attach".to_string(), total / 10),
                ("service_request".to_string(), total - total / 10),
            ],
            registered_devices: 10_000,
            measured_p99_s: None,
        }
    }

    fn controller() -> Autoscaler {
        Autoscaler::new(AutoscaleConfig::default(), demands())
    }

    /// A controller over `config`, which [`Autoscaler::new`] checks.
    fn controller_with(config: AutoscaleConfig) -> Autoscaler {
        Autoscaler::new(config, demands())
    }

    // The checks hold in release builds, where the `autoscale` bin
    // runs: CI runs these with debug assertions off.

    #[test]
    #[should_panic(expected = "sla_p99_s")]
    fn a_nan_sla_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            sla_p99_s: f64::NAN,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "rho_cap")]
    fn a_zero_rho_cap_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            rho_cap: 0.0,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "fleet bounds")]
    fn an_inverted_fleet_bound_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            min_vms: 8,
            max_vms: 4,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn headroom_below_one_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            headroom: 0.5,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "forecast_alpha")]
    fn a_forecast_alpha_above_one_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            forecast_alpha: 2.0,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "step limits")]
    fn a_zero_step_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            max_step_up: 0,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn zero_replication_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            replication: 0,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn a_zero_beta_fails_loudly() {
        let _ = controller_with(AutoscaleConfig {
            beta: 0.0,
            ..AutoscaleConfig::default()
        });
    }

    #[test]
    fn decisions_are_deterministic() {
        let trace: Vec<f64> = (0..40)
            .map(|e| 100.0 + 900.0 * f64::from(e % 20) / 20.0)
            .collect();
        let run = || {
            let mut ctl = controller();
            let mut vms = 1u32;
            let mut out = Vec::new();
            for &rps in &trace {
                let d = ctl.decide(vms, &obs(rps, 60.0));
                vms = d.target_vms;
                out.push(d);
            }
            out
        };
        assert_eq!(run(), run(), "same trace, same config, same decisions");
    }

    #[test]
    fn scale_up_is_immediate_and_step_limited() {
        let mut ctl = controller();
        let d = ctl.decide(1, &obs(20_000.0, 60.0));
        assert_eq!(d.action, ScaleAction::Up);
        assert!(d.target_vms > 1);
        assert!(
            d.target_vms <= 1 + ctl.config().max_step_up,
            "one epoch must not add more than max_step_up VMs ({d:?})"
        );
    }

    #[test]
    fn scale_down_waits_out_the_hold_then_drains_gently() {
        let mut ctl = controller();
        // Spike to grow the fleet...
        let mut vms = 1;
        for _ in 0..4 {
            vms = ctl.decide(vms, &obs(20_000.0, 60.0)).target_vms;
        }
        assert!(vms > 3, "spike should have grown the fleet (got {vms})");
        // ...then a sustained lull: no shrink for down_hold_epochs - 1
        // epochs, then at most max_step_down per epoch.
        let hold = ctl.config().down_hold_epochs;
        for i in 1..hold {
            let d = ctl.decide(vms, &obs(50.0, 60.0));
            assert_eq!(d.action, ScaleAction::Hold, "epoch {i} of the hold");
            assert_eq!(d.target_vms, vms);
        }
        let step = ctl.config().max_step_down;
        let mut last = vms;
        for _ in 0..3 {
            let d = ctl.decide(last, &obs(50.0, 60.0));
            assert_eq!(d.action, ScaleAction::Down);
            assert!(last - d.target_vms <= step, "drains gently ({d:?})");
            assert!(d.target_vms < last, "keeps draining without re-arming");
            last = d.target_vms;
        }
    }

    #[test]
    fn fleet_bounds_are_respected() {
        let cfg = AutoscaleConfig {
            min_vms: 2,
            max_vms: 6,
            max_step_up: 100,
            ..Default::default()
        };
        let mut ctl = Autoscaler::new(cfg, demands());
        let hi = ctl.decide(4, &obs(1e6, 60.0));
        assert!(hi.target_vms <= 6, "{hi:?}");
        let mut ctl = Autoscaler::new(cfg, demands());
        let mut vms = 4;
        for _ in 0..20 {
            vms = ctl.decide(vms, &obs(1.0, 60.0)).target_vms;
        }
        assert!(vms >= 2, "never below min_vms (got {vms})");
    }

    #[test]
    fn measured_breach_forces_growth() {
        let mut ctl = controller();
        let mut o = obs(50.0, 60.0); // trivial load: model wants 1 VM
        o.measured_p99_s = Some(ctl.config().sla_p99_s * 3.0);
        let d = ctl.decide(2, &o);
        assert!(d.breach);
        assert_eq!(d.action, ScaleAction::Up);
        assert!(d.target_vms >= 3, "{d:?}");
    }

    #[test]
    fn storage_term_floors_the_fleet() {
        // 1M registered devices, R=2, 25k states/VM → 80 VMs of memory
        // need, under negligible signaling load.
        let cfg = AutoscaleConfig {
            max_vms: 128,
            max_step_up: 128,
            ..Default::default()
        };
        let mut ctl = Autoscaler::new(cfg, demands());
        let mut o = obs(10.0, 60.0);
        o.registered_devices = 1_000_000;
        let d = ctl.decide(1, &o);
        assert_eq!(d.storage_vms, 80);
        assert_eq!(d.target_vms, 80, "memory floor drives the fleet");
        assert!(d.target_vms > d.model_vms);
    }

    #[test]
    fn snapshot_delta_accumulates_shared_classes() {
        let reg = Registry::new();
        let pagings = reg.counter("scale_mmp_pagings_total", "t");
        let detaches = reg.counter("scale_mmp_detaches_total", "t");
        let attaches = reg.counter("scale_mmp_attaches_completed_total", "t");
        attaches.add(5);
        pagings.add(3);
        let before = Snapshot::of(&reg);
        attaches.add(7);
        pagings.add(2);
        detaches.add(4);
        let after = Snapshot::of(&reg);
        let o = EpochObservation::from_snapshot_delta(
            Some(&before),
            &after,
            60.0,
            0,
            CLUSTER_CLASS_COUNTERS,
        );
        let get = |name: &str| {
            o.class_arrivals
                .iter()
                .find(|(c, _)| c == name)
                .map(|(_, n)| *n)
        };
        assert_eq!(get("attach"), Some(7));
        assert_eq!(get("other"), Some(6), "pagings + detaches accumulate");
        assert_eq!(get("service_request"), Some(0));
        assert_eq!(o.total_arrivals(), 13);
    }

    #[test]
    fn metrics_export_decisions() {
        let reg = Registry::new();
        let mut ctl = controller();
        ctl.attach_observability(&reg);
        let d = ctl.decide(1, &obs(20_000.0, 60.0));
        assert_eq!(d.action, ScaleAction::Up);
        let snap = Snapshot::of(&reg);
        assert_eq!(snap.counter("scale_autoscale_decisions_total"), Some(1));
        assert_eq!(snap.counter("scale_autoscale_scale_ups_total"), Some(1));
        assert_eq!(
            snap.gauge("scale_autoscale_target_vms"),
            Some(f64::from(d.target_vms))
        );
        assert_eq!(snap.counter("scale_analysis_predictions_total"), Some(1));
    }
}
