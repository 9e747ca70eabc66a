//! Open Jackson-network model of the sharded MMP fleet.
//!
//! Following the vMME queueing papers (Prados-Garzón et al.), the data
//! centre is modelled as an open network of parallel single-server
//! queues: control procedures arrive to the MLB as a Poisson stream,
//! are routed probabilistically to one of `V` MMP workers, and each
//! worker serves its share in FIFO order. Under probabilistic (Bernoulli)
//! routing the per-worker arrival process is again Poisson (Jackson's
//! decomposition), so each worker can be analysed in isolation as an
//! **M/G/1** queue whose service distribution is the discrete mixture of
//! per-procedure service demands — the simulator's `ProcCosts` are
//! deterministic per class, so the mixture has one atom per procedure
//! class.
//!
//! Per-class sojourn time then decomposes as `T_c = W + s_c`: by PASTA
//! every arriving request — whatever its class — samples the same
//! stationary waiting time `W`, and then occupies the server for its
//! own (deterministic) demand `s_c`. Consequently every quantile of
//! `T_c` is the corresponding quantile of `W` shifted by `s_c`.
//!
//! The waiting-time distribution is computed numerically from the
//! Takács/Beneš Volterra integral equation
//!
//! ```text
//! W(t) = (1 − ρ) + λ ∫₀ᵗ W(t − x) · (1 − B(x)) dx
//! ```
//!
//! solved on a uniform grid (see [`WaitingCdf`]); the mean comes from
//! the exact Pollaczek–Khinchine formula. Where the model is *expected*
//! to diverge from the simulator — least-loaded routing over the R
//! replica holders instead of Bernoulli splitting — the model is a
//! conservative upper bound; that gap is quantified by the
//! `model_validation` experiment and discussed in DESIGN.md §13.

use crate::calibrate::ServiceDemands;

/// Offered load and calibrated service demand for one procedure class.
///
/// The unit-suffixed fields are the model's contract: rates in
/// requests/second fleet-wide, demands in seconds of worker time per
/// request.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLoad {
    /// Procedure-class label (e.g. `"attach"`), carried through to the
    /// prediction for joining against measurements.
    pub name: String,
    /// Fleet-wide arrival rate of this class — unit: **requests per
    /// second** (finite, ≥ 0).
    pub arrival_rps: f64,
    /// Per-request service demand on the serving worker — unit:
    /// **seconds** (finite, > 0).
    pub service_s: f64,
}

impl ClassLoad {
    /// Build a class load, asserting the unit invariants (non-negative
    /// finite rate, positive finite demand) in release builds too.
    pub fn new(name: &str, arrival_rps: f64, service_s: f64) -> ClassLoad {
        assert!(
            arrival_rps.is_finite() && arrival_rps >= 0.0,
            "{name}: arrival_rps must be a finite non-negative rate (got {arrival_rps})"
        );
        assert!(
            service_s.is_finite() && service_s > 0.0,
            "{name}: service_s must be a finite positive demand in seconds (got {service_s})"
        );
        ClassLoad {
            name: name.to_string(),
            arrival_rps,
            service_s,
        }
    }

    /// Join calibrated demands with per-class arrival rates into the
    /// model's input vector. Classes without a calibrated demand are
    /// skipped (they contribute no load the model can price).
    pub fn join(demands: &ServiceDemands, rates: &[(&str, f64)]) -> Vec<ClassLoad> {
        rates
            .iter()
            .filter_map(|&(name, rps)| {
                demands.get(name).map(|s| ClassLoad::new(name, rps, s))
            })
            .collect()
    }
}

/// Predicted sojourn-time statistics for one procedure class — all in
/// **seconds**. `saturated` predictions report `f64::INFINITY` for the
/// latency fields rather than panicking or returning NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPrediction {
    /// Procedure-class label, copied from the input [`ClassLoad`].
    pub name: String,
    /// Fleet-wide arrival rate used for the prediction (requests/second).
    pub arrival_rps: f64,
    /// Calibrated service demand (seconds).
    pub service_s: f64,
    /// Predicted mean sojourn time E\[T_c\] = E\[W\] + s_c (seconds).
    pub mean_s: f64,
    /// Predicted median sojourn time (seconds).
    pub p50_s: f64,
    /// Predicted 99th-percentile sojourn time (seconds).
    pub p99_s: f64,
}

/// Fleet-level prediction: per-worker utilisation, the shared waiting
/// time, and the per-class sojourn breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPrediction {
    /// Number of workers the prediction was computed for.
    pub vms: u32,
    /// Per-worker utilisation ρ = (Λ/V)·E\[S\] (dimensionless; ≥ 1 means
    /// the fleet is saturated).
    pub rho: f64,
    /// Mean queueing delay E\[W\] before service starts, from the exact
    /// Pollaczek–Khinchine formula (seconds; infinite when saturated).
    pub wait_mean_s: f64,
    /// Per-class sojourn predictions, in input order.
    pub classes: Vec<ClassPrediction>,
    /// True when ρ ≥ 1 (or numerically indistinguishable from 1): the
    /// queue has no stationary distribution and the latency fields are
    /// `f64::INFINITY`.
    pub saturated: bool,
}

impl FleetPrediction {
    /// Look up the prediction for a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassPrediction> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// The largest predicted p99 across classes (seconds); 0 for an
    /// empty model. This is the value the autoscaler compares against
    /// the SLA.
    pub fn worst_p99_s(&self) -> f64 {
        self.classes.iter().map(|c| c.p99_s).fold(0.0, f64::max)
    }
}

/// ρ beyond which the numerical CDF is not attempted and predictions
/// report saturation. The stationary wait exists for any ρ < 1, but the
/// grid (and the real system's epoch) would be astronomically long;
/// treating ρ ≥ 0.999 as saturated keeps predictions finite-time and
/// monotone.
pub const RHO_SATURATION: f64 = 0.999;

/// The open-network model of a `V`-worker MMP fleet under a per-class
/// offered load.
///
/// ```
/// use scale_analysis::{ClassLoad, FleetModel};
///
/// // Offered load: 40 attaches/s and 400 service requests/s across
/// // two workers, with demands calibrated at 1/350 s and 1/600 s.
/// let model = FleetModel::new(2, vec![
///     ClassLoad::new("attach", 40.0, 1.0 / 350.0),
///     ClassLoad::new("service_request", 400.0, 1.0 / 600.0),
/// ]);
/// let pred = model.predict();
///
/// assert!(!pred.saturated && pred.rho < 0.5);
/// let attach = pred.class("attach").unwrap();
/// let sr = pred.class("service_request").unwrap();
/// // Attach demands more worker time, so its sojourn dominates at
/// // every quantile (the waiting-time component is shared).
/// assert!(attach.p50_s > sr.p50_s);
/// assert!(attach.p99_s >= attach.p50_s);
/// // And the fleet meets a 15 ms p99 SLA with exactly these 2 workers.
/// assert_eq!(FleetModel::min_vms(&model.classes(), 0.015, 0.95, 1, 16), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FleetModel {
    vms: u32,
    classes: Vec<ClassLoad>,
}

impl FleetModel {
    /// Build a model of `vms` workers under the given per-class load.
    ///
    /// `vms` must be ≥ 1 (asserted); class invariants are checked
    /// by [`ClassLoad::new`].
    pub fn new(vms: u32, classes: Vec<ClassLoad>) -> FleetModel {
        assert!(vms >= 1, "a fleet has at least one worker");
        FleetModel { vms, classes }
    }

    /// The per-class load vector the model was built with.
    pub fn classes(&self) -> Vec<ClassLoad> {
        self.classes.clone()
    }

    /// Total fleet-wide arrival rate Λ (requests/second).
    pub fn total_rps(&self) -> f64 {
        self.classes.iter().map(|c| c.arrival_rps).sum()
    }

    /// Per-worker utilisation ρ = (Λ/V) · E\[S\], where E\[S\] is the
    /// mixture-mean service demand.
    pub fn rho(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.arrival_rps * c.service_s)
            .sum::<f64>()
            / self.vms as f64
    }

    /// Run the model: solve the shared waiting-time distribution and
    /// shift it by each class's service demand.
    pub fn predict(&self) -> FleetPrediction {
        let rho = self.rho();
        let total = self.total_rps();
        if total <= 0.0 {
            // Idle fleet: no waiting, sojourn = service demand.
            let classes = self
                .classes
                .iter()
                .map(|c| ClassPrediction {
                    name: c.name.clone(),
                    arrival_rps: c.arrival_rps,
                    service_s: c.service_s,
                    mean_s: c.service_s,
                    p50_s: c.service_s,
                    p99_s: c.service_s,
                })
                .collect();
            return FleetPrediction {
                vms: self.vms,
                rho: 0.0,
                wait_mean_s: 0.0,
                classes,
                saturated: false,
            };
        }
        if rho >= RHO_SATURATION {
            let classes = self
                .classes
                .iter()
                .map(|c| ClassPrediction {
                    name: c.name.clone(),
                    arrival_rps: c.arrival_rps,
                    service_s: c.service_s,
                    mean_s: f64::INFINITY,
                    p50_s: f64::INFINITY,
                    p99_s: f64::INFINITY,
                })
                .collect();
            return FleetPrediction {
                vms: self.vms,
                rho,
                wait_mean_s: f64::INFINITY,
                classes,
                saturated: true,
            };
        }
        let lambda_vm = total / self.vms as f64;
        let atoms: Vec<(f64, f64)> = self
            .classes
            .iter()
            .filter(|c| c.arrival_rps > 0.0)
            .map(|c| (c.arrival_rps / total, c.service_s))
            .collect();
        let wait = WaitingCdf::solve(lambda_vm, &atoms);
        let w_p50 = wait.quantile(0.50);
        let w_p99 = wait.quantile(0.99);
        let classes = self
            .classes
            .iter()
            .map(|c| ClassPrediction {
                name: c.name.clone(),
                arrival_rps: c.arrival_rps,
                service_s: c.service_s,
                mean_s: wait.mean_s() + c.service_s,
                p50_s: w_p50 + c.service_s,
                p99_s: w_p99 + c.service_s,
            })
            .collect();
        FleetPrediction {
            vms: self.vms,
            rho,
            wait_mean_s: wait.mean_s(),
            classes,
            saturated: false,
        }
    }

    /// Dimensioning rule: the smallest fleet size in `[min_vms,
    /// max_vms]` whose predicted worst-class p99 meets `sla_p99_s` with
    /// per-worker utilisation at most `rho_cap`. Returns `max_vms` when
    /// even the largest fleet misses the target (the caller's clamp —
    /// there is nothing better to do than everything we have).
    pub fn min_vms(
        classes: &[ClassLoad],
        sla_p99_s: f64,
        rho_cap: f64,
        min_vms: u32,
        max_vms: u32,
    ) -> u32 {
        assert!(
            sla_p99_s.is_finite() && sla_p99_s > 0.0,
            "sla_p99_s must be a positive latency bound in seconds (got {sla_p99_s})"
        );
        assert!(
            (0.0..1.0).contains(&rho_cap) || rho_cap == 1.0,
            "rho_cap must lie in (0, 1] (got {rho_cap})"
        );
        let min_vms = min_vms.max(1);
        let max_vms = max_vms.max(min_vms);
        let work: f64 = classes.iter().map(|c| c.arrival_rps * c.service_s).sum();
        // Utilisation floor: v must keep rho ≤ rho_cap before latency
        // even enters the picture.
        let rho_floor = (work / rho_cap.min(RHO_SATURATION)).ceil() as u32;
        let mut v = rho_floor.clamp(min_vms, max_vms);
        loop {
            let model = FleetModel::new(v, classes.to_vec());
            let pred = model.predict();
            if !pred.saturated && pred.rho <= rho_cap && pred.worst_p99_s() <= sla_p99_s {
                return v;
            }
            if v >= max_vms {
                return max_vms;
            }
            v += 1;
        }
    }
}

/// Numerical stationary waiting-time distribution of an M/G/1 queue
/// with a discrete (atomic) service distribution, from the
/// Takács/Beneš Volterra equation solved by trapezoidal quadrature on
/// a uniform grid.
///
/// `W(t) = P(wait ≤ t)` is nondecreasing with an atom `W(0) = 1 − ρ`
/// (PASTA: an arrival finds the server idle with probability 1 − ρ).
/// The kernel `1 − B(x)` vanishes beyond the largest service atom, so
/// each grid step costs only O(s_max / h) work.
#[derive(Debug, Clone)]
pub struct WaitingCdf {
    /// Grid step (seconds).
    step_s: f64,
    /// `values[i]` = W(i · step_s); nondecreasing, in [0, 1].
    values: Vec<f64>,
    /// Per-worker utilisation the distribution was solved for.
    rho: f64,
    /// Exact Pollaczek–Khinchine mean wait (seconds).
    mean_s: f64,
}

/// Hard cap on grid points: beyond this the tail is extrapolated
/// exponentially instead of extending the grid (deep-saturation loads).
const MAX_GRID: usize = 4_000_000;

impl WaitingCdf {
    /// Solve for the waiting CDF of a single worker receiving Poisson
    /// arrivals at `lambda_rps` with service drawn from `atoms` =
    /// `[(probability, service_s), ...]`.
    ///
    /// Panics (via `assert!`) when the implied utilisation is ≥
    /// [`RHO_SATURATION`] — callers are expected to gate on ρ first, as
    /// [`FleetModel::predict`] does.
    pub fn solve(lambda_rps: f64, atoms: &[(f64, f64)]) -> WaitingCdf {
        assert!(
            lambda_rps.is_finite() && lambda_rps > 0.0,
            "lambda_rps must be a finite positive rate (got {lambda_rps})"
        );
        assert!(
            atoms.iter().all(|&(p, s)| p >= 0.0 && s > 0.0),
            "service atoms must have non-negative probability and positive demand"
        );
        let mean_service: f64 = atoms.iter().map(|&(p, s)| p * s).sum();
        let second_moment: f64 = atoms.iter().map(|&(p, s)| p * s * s).sum();
        let rho = lambda_rps * mean_service;
        assert!(
            rho < RHO_SATURATION,
            "WaitingCdf::solve called at rho = {rho} >= {RHO_SATURATION}; gate on rho first"
        );
        // Pollaczek–Khinchine: E\[W\] = λ E[S²] / (2 (1 − ρ)).
        let mean_s = lambda_rps * second_moment / (2.0 * (1.0 - rho));

        let s_min = atoms
            .iter()
            .filter(|&&(p, _)| p > 0.0)
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        let s_max = atoms
            .iter()
            .filter(|&&(p, _)| p > 0.0)
            .map(|&(_, s)| s)
            .fold(0.0, f64::max);
        let step = s_min / 32.0;
        // The kernel 1 − B(x) = Σ p_c · [x < s_c] is a step function,
        // so integrate it *exactly* per grid cell: κ_j is the kernel's
        // average over [jh, (j+1)h]. This keeps Σ κ_j·h = E\[S\] exactly,
        // which pins the discrete fixed point of the recurrence at 1 —
        // evaluating the discontinuous kernel at the nodes instead
        // loses O(h) mass and the computed CDF saturates below 1.
        let n_cells = (s_max / step).ceil() as usize;
        let kappa: Vec<f64> = (0..n_cells)
            .map(|j| {
                let lo = j as f64 * step;
                atoms
                    .iter()
                    .map(|&(p, s)| p * ((s - lo) / step).clamp(0.0, 1.0))
                    .sum()
            })
            .collect();

        let head = 1.0 - rho;
        let lh = lambda_rps * step;
        // In cell 0 the unknown W(t_i) itself appears with trapezoid
        // weight κ_0/2: move it to the left-hand side.
        let denom = 1.0 - lh * kappa[0] * 0.5;
        let mut values = vec![head];
        let mut latest = head;
        // Extend until the CDF covers the p99 comfortably or the cap is
        // reached (then the exponential tail takes over).
        while latest < 0.9995 && values.len() < MAX_GRID {
            let i = values.len();
            // ∫₀^{t_i} W(t_i−x)(1−B(x))dx ≈ Σ_j κ_j·h·(W at the cell's
            // two edges)/2; cells past min(t_i, s_max) contribute 0.
            let mut acc = kappa[0] * values[i - 1] * 0.5;
            for (j, &k) in kappa.iter().enumerate().take(i).skip(1) {
                acc += k * (values[i - j] + values[i - j - 1]) * 0.5;
            }
            let w = (head + lh * acc) / denom;
            // Clamp: quadrature error must not break monotonicity or
            // overshoot 1 (both would corrupt quantile lookups).
            let w = w.clamp(values[i - 1], 1.0);
            values.push(w);
            latest = w;
        }
        WaitingCdf {
            step_s: step,
            values,
            rho,
            mean_s,
        }
    }

    /// Utilisation ρ the CDF was solved for.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Exact Pollaczek–Khinchine mean wait (seconds).
    pub fn mean_s(&self) -> f64 {
        self.mean_s
    }

    /// W(t) = P(wait ≤ t), linearly interpolated on the grid; beyond
    /// the grid the exponential tail extrapolation is used.
    pub fn cdf(&self, t_s: f64) -> f64 {
        if t_s < 0.0 {
            return 0.0;
        }
        let pos = t_s / self.step_s;
        let i = pos.floor() as usize;
        if i + 1 < self.values.len() {
            let frac = pos - i as f64;
            return self.values[i] + (self.values[i + 1] - self.values[i]) * frac;
        }
        let (t_end, w_end, theta) = self.tail();
        if theta <= 0.0 {
            return w_end;
        }
        1.0 - (1.0 - w_end) * (-(t_s - t_end) * theta).exp().min(1.0)
    }

    /// Smallest t with W(t) ≥ q (seconds). `q` must lie in [0, 1);
    /// values below the idle probability 1 − ρ return 0 (the atom at
    /// zero wait).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile q must be in [0,1)");
        if q <= self.values[0] {
            return 0.0;
        }
        // `values` is never empty (solve() seeds it with the head atom).
        let last = self.values[self.values.len() - 1];
        if q > last {
            // Exponential tail beyond the grid.
            let (t_end, w_end, theta) = self.tail();
            if theta <= 0.0 {
                return t_end;
            }
            return t_end + ((1.0 - w_end) / (1.0 - q)).ln() / theta;
        }
        // Binary search for the first grid value ≥ q.
        let mut lo = 0usize;
        let mut hi = self.values.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.values[mid] >= q {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo == 0 {
            return 0.0;
        }
        let (w0, w1) = (self.values[lo - 1], self.values[lo]);
        let frac = if w1 > w0 { (q - w0) / (w1 - w0) } else { 1.0 };
        ((lo - 1) as f64 + frac) * self.step_s
    }

    /// Fit the asymptotic exponential tail 1 − W(t) ≈ A·e^(−θt) from
    /// the last stretch of the grid; returns (t_end, W(t_end), θ).
    fn tail(&self) -> (f64, f64, f64) {
        let n = self.values.len();
        let t_end = (n - 1) as f64 * self.step_s;
        let w_end = self.values[n - 1];
        // Fit over the trailing 20% of the grid (at least 2 points).
        let k = (n / 5).max(2).min(n - 1);
        let w_ref = self.values[n - 1 - k];
        let tail_ref = 1.0 - w_ref;
        let tail_end = 1.0 - w_end;
        if tail_end <= 0.0 || tail_ref <= tail_end {
            return (t_end, w_end, 0.0);
        }
        let theta = (tail_ref / tail_end).ln() / (k as f64 * self.step_s);
        (t_end, w_end, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The model's parameter checks hold in release builds, where the
    // `autoscale` and `model_validation` bins run: CI runs these with
    // debug assertions off.

    #[test]
    #[should_panic(expected = "arrival_rps")]
    fn a_negative_arrival_rate_fails_loudly() {
        let _ = ClassLoad::new("attach", -1.0, 1e-3);
    }

    #[test]
    #[should_panic(expected = "service_s")]
    fn a_nan_service_demand_fails_loudly() {
        let _ = ClassLoad::new("attach", 100.0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn an_empty_fleet_fails_loudly() {
        let _ = FleetModel::new(0, vec![ClassLoad::new("attach", 100.0, 1e-3)]);
    }

    #[test]
    #[should_panic(expected = "sla_p99_s")]
    fn a_zero_sla_fails_loudly() {
        let _ = FleetModel::min_vms(&[ClassLoad::new("attach", 100.0, 1e-3)], 0.0, 0.8, 1, 8);
    }

    #[test]
    #[should_panic(expected = "rho_cap")]
    fn a_rho_cap_above_one_fails_loudly() {
        let _ = FleetModel::min_vms(&[ClassLoad::new("attach", 100.0, 1e-3)], 0.1, 1.5, 1, 8);
    }

    #[test]
    #[should_panic(expected = "lambda_rps")]
    fn solving_with_no_arrivals_fails_loudly() {
        let _ = WaitingCdf::solve(0.0, &typical_atoms());
    }

    #[test]
    #[should_panic(expected = "service atoms")]
    fn a_zero_service_atom_fails_loudly() {
        let _ = WaitingCdf::solve(10.0, &[(1.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "quantile q")]
    fn the_quantile_at_one_fails_loudly() {
        let atoms = typical_atoms();
        let cdf = WaitingCdf::solve(rate_for_rho(0.5, &atoms), &atoms);
        let _ = cdf.quantile(1.0);
    }

    fn typical_atoms() -> Vec<(f64, f64)> {
        vec![
            (0.05, 1.0 / 350.0),
            (0.55, 1.0 / 600.0),
            (0.10, 1.0 / 500.0),
            (0.20, 1.0 / 700.0),
            (0.10, 1.0 / 800.0),
        ]
    }

    fn rate_for_rho(rho: f64, atoms: &[(f64, f64)]) -> f64 {
        let mean: f64 = atoms.iter().map(|&(p, s)| p * s).sum();
        rho / mean
    }

    /// Crommelin's exact M/D/1 waiting CDF:
    /// P(W ≤ t) = (1 − ρ) Σ_{k=0}^{⌊t/D⌋} e^{−λ(kD−t)} (λ(kD−t))^k / k!.
    fn md1_cdf(t: f64, lambda: f64, d: f64) -> f64 {
        let rho = lambda * d;
        let kmax = (t / d).floor() as u32;
        let mut sum = 0.0;
        for k in 0..=kmax {
            let x = lambda * (k as f64 * d - t); // ≤ 0
            let mut term = (-x).exp();
            for j in 1..=k {
                term *= x / j as f64;
            }
            sum += term;
        }
        (1.0 - rho) * sum
    }

    #[test]
    fn md1_cdf_matches_crommelin() {
        let d = 1.0 / 600.0;
        for rho in [0.3, 0.6, 0.9] {
            let lambda = rho / d;
            let cdf = WaitingCdf::solve(lambda, &[(1.0, d)]);
            for mult in [0.5, 1.0, 2.0, 4.0, 8.0] {
                let t = mult * d;
                let exact = md1_cdf(t, lambda, d);
                let got = cdf.cdf(t);
                assert!(
                    (got - exact).abs() < 5e-3,
                    "rho={rho} t={t}: solver {got} vs Crommelin {exact}"
                );
            }
        }
    }

    #[test]
    fn idle_probability_is_one_minus_rho() {
        let atoms = typical_atoms();
        for rho in [0.2, 0.5, 0.8] {
            let cdf = WaitingCdf::solve(rate_for_rho(rho, &atoms), &atoms);
            assert!((cdf.cdf(0.0) - (1.0 - rho)).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_mean_matches_pollaczek_khinchine() {
        // Independent check of the Volterra solver: integrate 1 − W(t)
        // over the grid and compare with the closed-form mean.
        let atoms = typical_atoms();
        for rho in [0.3, 0.6, 0.85] {
            let cdf = WaitingCdf::solve(rate_for_rho(rho, &atoms), &atoms);
            let mut grid_mean = 0.0;
            for i in 0..cdf.values.len() - 1 {
                let tail = 1.0 - (cdf.values[i] + cdf.values[i + 1]) / 2.0;
                grid_mean += tail * cdf.step_s;
            }
            // Add the extrapolated tail mass beyond the grid.
            let (_, w_end, theta) = cdf.tail();
            if theta > 0.0 {
                grid_mean += (1.0 - w_end) / theta;
            }
            let rel = (grid_mean - cdf.mean_s()) / cdf.mean_s();
            assert!(
                rel.abs() < 0.02,
                "rho={rho}: grid mean {grid_mean} vs P-K {}",
                cdf.mean_s()
            );
        }
    }

    #[test]
    fn lindley_monte_carlo_cross_check() {
        // Simulate the same M/G/1 queue by the Lindley recursion
        // W_{n+1} = max(0, W_n + S_n − A_n) and compare empirical
        // quantiles with the numerical CDF.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let atoms = typical_atoms();
        let rho = 0.65;
        let lambda = rate_for_rho(rho, &atoms);
        let cdf = WaitingCdf::solve(lambda, &atoms);

        let mut rng = StdRng::seed_from_u64(7);
        let mut wait = 0.0f64;
        let mut samples = Vec::with_capacity(400_000);
        for _ in 0..400_000 {
            samples.push(wait);
            let u: f64 = rng.gen();
            let mut s = atoms[atoms.len() - 1].1;
            let mut acc = 0.0;
            for &(p, sv) in &atoms {
                acc += p;
                if u < acc {
                    s = sv;
                    break;
                }
            }
            let gap = -rng.gen::<f64>().max(1e-12).ln() / lambda;
            wait = (wait + s - gap).max(0.0);
        }
        samples.sort_by(f64::total_cmp);
        let emp = |q: f64| samples[((samples.len() as f64 * q) as usize).min(samples.len() - 1)];
        for q in [0.5, 0.9, 0.99] {
            let got = cdf.quantile(q);
            let want = emp(q);
            // The p50 at rho=0.65 is near the zero atom; compare with an
            // absolute floor of a tenth of the mean service time.
            let tol = (want * 0.05).max(2e-4);
            assert!(
                (got - want).abs() < tol,
                "q={q}: solver {got} vs Lindley {want}"
            );
        }
    }

    #[test]
    fn predictions_shift_by_service_demand() {
        let classes = vec![
            ClassLoad::new("attach", 30.0, 1.0 / 350.0),
            ClassLoad::new("service_request", 300.0, 1.0 / 600.0),
        ];
        let pred = FleetModel::new(2, classes).predict();
        let a = pred.class("attach").unwrap();
        let s = pred.class("service_request").unwrap();
        let shift = a.service_s - s.service_s;
        assert!((a.p50_s - s.p50_s - shift).abs() < 1e-12);
        assert!((a.p99_s - s.p99_s - shift).abs() < 1e-12);
        assert!((a.mean_s - s.mean_s - shift).abs() < 1e-12);
    }

    #[test]
    fn saturated_fleet_reports_infinity_not_nan() {
        let classes = vec![ClassLoad::new("service_request", 1300.0, 1.0 / 600.0)];
        let pred = FleetModel::new(2, classes).predict();
        assert!(pred.saturated);
        assert!(pred.rho > 1.0);
        let c = pred.class("service_request").unwrap();
        assert!(c.p99_s.is_infinite() && !c.p99_s.is_nan());
        assert!(pred.worst_p99_s().is_infinite());
    }

    #[test]
    fn idle_fleet_sojourn_is_service_demand() {
        let classes = vec![ClassLoad::new("attach", 0.0, 1.0 / 350.0)];
        let pred = FleetModel::new(3, classes).predict();
        assert_eq!(pred.rho, 0.0);
        let a = pred.class("attach").unwrap();
        assert_eq!(a.p99_s, a.service_s);
    }

    #[test]
    fn min_vms_meets_sla_and_is_minimal() {
        let classes = vec![
            ClassLoad::new("attach", 60.0, 1.0 / 350.0),
            ClassLoad::new("service_request", 700.0, 1.0 / 600.0),
        ];
        let v = FleetModel::min_vms(&classes, 0.012, 0.9, 1, 32);
        let at_v = FleetModel::new(v, classes.clone()).predict();
        assert!(at_v.worst_p99_s() <= 0.012 && at_v.rho <= 0.9);
        if v > 1 {
            let below = FleetModel::new(v - 1, classes).predict();
            assert!(
                below.saturated || below.rho > 0.9 || below.worst_p99_s() > 0.012,
                "v−1 = {} would already meet the SLA",
                v - 1
            );
        }
    }

    #[test]
    fn min_vms_clamps_to_bounds() {
        let classes = vec![ClassLoad::new("service_request", 50_000.0, 1.0 / 600.0)];
        // Even 8 workers are saturated → return the cap.
        assert_eq!(FleetModel::min_vms(&classes, 0.01, 0.9, 1, 8), 8);
        // Floor applies even when idle.
        assert_eq!(FleetModel::min_vms(&[], 0.01, 0.9, 3, 8), 3);
    }
}
