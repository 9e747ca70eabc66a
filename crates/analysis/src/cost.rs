//! The stochastic cost model from the SCALE paper's appendix: the
//! expected cost (delay) of a device's control request as a function of
//! the replication factor R (A1, Equations 4–10) and of access-aware
//! replica allocation under memory pressure (A2, Equations 11–13).
//!
//! Model recap: devices arrive at a VM as a Poisson process with rate
//! λ; each device's state is replicated on R VMs and an arriving device
//! is served by one of them uniformly at random (Poisson splitting /
//! combining keeps every VM's aggregate arrival rate λ). A device costs
//! C when it cannot be served — i.e. when the VM it lands on has already
//! seen its capacity N within the epoch of length T. The closed form is
//!
//! ```text
//! C̄_i = (C/λ) · w_i^R · Σ_{k≥N} (1 − w_i/(λT))^{kR} · Γ(kR+1) / (Γ(k+1)^R · R^(kR+1))
//! ```
//!
//! with the Γ-ratio computed through the stable product form of Eq 9.
//! Fig 6(a)/6(b) and the F6a/F6b experiment binaries evaluate exactly
//! these functions.
//!
//! All inputs are validated with `assert!` so a miscalibrated caller
//! fails loudly, in release builds as in debug ones, instead of
//! silently producing NaN costs.

/// Parameters of the appendix model (A1/A2).
///
/// Units are part of the contract: see each field. Construction is
/// cheap and `Copy`; [`validate`](ModelParams::validate) is invoked by
/// by every model entry point.
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Per-VM serving capacity N — unit: **requests per epoch**
    /// (dimensionless count, must be ≥ 1).
    pub capacity_n: u64,
    /// Epoch length T — unit: **seconds** (must be finite and > 0).
    pub epoch_t: f64,
    /// Cost charged when a request cannot be served — unit: **cost
    /// units per blocked request** (1.0 normalises; must be finite and
    /// ≥ 0).
    pub cost_c: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            capacity_n: 8,
            epoch_t: 40.0,
            cost_c: 1.0,
        }
    }
}

impl ModelParams {
    /// Assert the parameter invariants: `capacity_n ≥ 1`,
    /// `epoch_t` finite and positive, `cost_c` finite and non-negative.
    ///
    /// A violation indicates miscalibration at the call site (e.g. an
    /// epoch length of 0 would divide by zero inside Eq 8); failing
    /// here names the bad field instead of surfacing as a NaN cost
    /// three calls later. The checks hold in release builds too: they
    /// guard what the caller passes in.
    pub fn validate(&self) {
        assert!(self.capacity_n >= 1, "capacity_n must be >= 1 request/epoch");
        assert!(
            self.epoch_t.is_finite() && self.epoch_t > 0.0,
            "epoch_t must be a positive number of seconds (got {})",
            self.epoch_t
        );
        assert!(
            self.cost_c.is_finite() && self.cost_c >= 0.0,
            "cost_c must be a finite non-negative cost (got {})",
            self.cost_c
        );
    }
}

/// ln of the Eq-9 factor f(k) = Γ(kR+1) / (Γ(k+1)^R · R^(kR+1)),
/// computed by the recurrence
/// f(0) = 1/R,  f(k+1)/f(k) = Π_{j=1..R} (kR+j) / ((k+1)R)^R.
fn ln_factor_series(r: u32, upto: usize) -> Vec<f64> {
    let r_f = r as f64;
    let mut out = Vec::with_capacity(upto + 1);
    let mut ln_f = -(r_f).ln(); // f(0) = 1/R
    out.push(ln_f);
    for k in 0..upto {
        let k_f = k as f64;
        let mut ln_ratio = 0.0;
        for j in 1..=r {
            ln_ratio += (k_f * r_f + j as f64).ln();
        }
        ln_ratio -= r_f * ((k_f + 1.0) * r_f).ln();
        ln_f += ln_ratio;
        out.push(ln_f);
    }
    out
}

/// Eq 8: expected cost C̄_i for a device with access probability `w_i`
/// when its state has `r` replicas, under per-VM arrival rate `lambda`
/// (requests/second).
///
/// Returns 0 when the request can always be served (e.g. w_i = 0).
///
/// ```
/// use scale_analysis::{expected_cost, ModelParams};
///
/// let params = ModelParams::default();
/// // A second replica strictly lowers the expected blocking cost ...
/// let r1 = expected_cost(0.8, 1.0, 1, params);
/// let r2 = expected_cost(0.8, 1.0, 2, params);
/// assert!(r2 < r1);
/// // ... and a device that never accesses the system costs nothing.
/// assert_eq!(expected_cost(0.8, 0.0, 2, params), 0.0);
/// ```
pub fn expected_cost(lambda: f64, w_i: f64, r: u32, params: ModelParams) -> f64 {
    assert!(r >= 1, "replication factor must be >= 1");
    params.validate();
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be a finite non-negative rate in requests/second (got {lambda})"
    );
    assert!(
        w_i.is_finite() && (0.0..=1.0).contains(&w_i),
        "w_i is an access probability and must lie in [0, 1] (got {w_i})"
    );
    if lambda <= 0.0 || w_i <= 0.0 {
        return 0.0;
    }
    let base = 1.0 - w_i / (lambda * params.epoch_t);
    if base <= 0.0 {
        // The device dominates the epoch's arrivals: the blocking terms
        // vanish.
        return 0.0;
    }
    let ln_base = base.ln();
    let r_f = r as f64;
    let n = params.capacity_n as usize;

    // Adaptive tail: iterate until terms are negligible.
    const MAX_TERMS: usize = 4000;
    let ln_factors = ln_factor_series(r, n + MAX_TERMS);
    let mut sum = 0.0;
    for (iter, k) in (n..n + MAX_TERMS).enumerate() {
        let ln_term = (k as f64) * r_f * ln_base + ln_factors[k];
        let term = ln_term.exp();
        sum += term;
        if iter > 8 && term < sum * 1e-12 {
            break;
        }
    }
    (params.cost_c / lambda) * w_i.powi(r as i32) * sum
}

/// Eq 10: population-average cost, weighting each device's C̄_i by its
/// access probability.
pub fn average_cost(lambda: f64, weights: &[f64], r: u32, params: ModelParams) -> f64 {
    let sum_w: f64 = weights.iter().sum();
    if sum_w <= 0.0 {
        return 0.0;
    }
    let total: f64 = weights
        .iter()
        .map(|&w| w * expected_cost(lambda, w, r, params))
        .sum();
    total / sum_w
}

/// Replica-selection strategy under memory pressure (A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStrategy {
    /// Eq 11: every device has the same probability of getting the
    /// extra replica.
    AccessUnaware,
    /// Eq 12: probability proportional to the device's access
    /// probability (SCALE).
    AccessAware,
}

/// Memory configuration for the A2 model.
///
/// Units are part of the contract: see each field.
/// [`validate`](MemoryParams::validate) runs in every method.
#[derive(Debug, Clone, Copy)]
pub struct MemoryParams {
    /// Number of VMs, V — unit: **VMs** (dimensionless count ≥ 1).
    pub vms: u64,
    /// Usable state slots per VM after reserves, S' — unit: **device
    /// states per VM** (must be finite and ≥ 0).
    pub slots_per_vm: f64,
    /// Desired replication factor R — unit: **replicas per device
    /// state** (must be ≥ 1).
    pub desired_r: u32,
}

impl MemoryParams {
    /// Assert the parameter invariants: `vms ≥ 1`, `slots_per_vm`
    /// finite and non-negative, `desired_r ≥ 1`. Same rationale as
    /// [`ModelParams::validate`]: fail at the miscalibrated field, not
    /// at a NaN cost downstream.
    pub fn validate(&self) {
        assert!(self.vms >= 1, "vms must be >= 1");
        assert!(
            self.slots_per_vm.is_finite() && self.slots_per_vm >= 0.0,
            "slots_per_vm must be a finite non-negative state count (got {})",
            self.slots_per_vm
        );
        assert!(self.desired_r >= 1, "desired_r must be >= 1 replica");
    }

    /// R' = ⌊V·S'/K⌋: replicas affordable for everyone.
    pub fn base_replication(&self, devices: u64) -> u32 {
        self.validate();
        if devices == 0 {
            return self.desired_r;
        }
        let r = (self.vms as f64 * self.slots_per_vm / devices as f64).floor() as u32;
        r.clamp(1, self.desired_r)
    }

    /// Leftover capacity (states) after R' copies of everyone.
    pub fn spare_slots(&self, devices: u64) -> f64 {
        self.validate();
        let total = self.vms as f64 * self.slots_per_vm;
        let rp = self.base_replication(devices) as f64;
        (total - rp * devices as f64).max(0.0)
    }
}

/// Eq 13: average cost when only some devices can afford the extra
/// replica, under the given selection strategy.
pub fn memory_constrained_cost(
    lambda: f64,
    weights: &[f64],
    mem: MemoryParams,
    strategy: ReplicaStrategy,
    params: ModelParams,
) -> f64 {
    mem.validate();
    let k = weights.len() as u64;
    if k == 0 {
        return 0.0;
    }
    let r_base = mem.base_replication(k);
    let spare = mem.spare_slots(k);
    let sum_w: f64 = weights.iter().sum();
    if sum_w <= 0.0 {
        return 0.0;
    }
    // Probability of receiving the (R'+1)-th copy.
    let p_of = |w: f64| -> f64 {
        match strategy {
            ReplicaStrategy::AccessUnaware => (spare / k as f64).clamp(0.0, 1.0),
            ReplicaStrategy::AccessAware => ((w / sum_w) * spare).clamp(0.0, 1.0),
        }
    };
    let total: f64 = weights
        .iter()
        .map(|&w| {
            let p = p_of(w);
            let low = expected_cost(lambda, w, r_base, params);
            let high = if r_base < mem.desired_r {
                expected_cost(lambda, w, r_base + 1, params)
            } else {
                low
            };
            w * ((1.0 - p) * low + p * high)
        })
        .sum();
    total / sum_w
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ModelParams = ModelParams {
        capacity_n: 8,
        epoch_t: 40.0,
        cost_c: 1.0,
    };

    /// Direct evaluation of the Eq-9 product for cross-checking the
    /// log-recurrence.
    fn ln_factor_direct(k: usize, r: u32) -> f64 {
        let r_f = r as f64;
        let mut ln = -(r_f).ln();
        for p in 0..k {
            for q in 0..r {
                ln += (1.0 - q as f64 / ((k - p) as f64 * r_f)).ln();
            }
        }
        ln
    }

    #[test]
    fn factor_recurrence_matches_direct_product() {
        for r in 1..=4u32 {
            let series = ln_factor_series(r, 12);
            for (k, &ln_f) in series.iter().enumerate() {
                let direct = ln_factor_direct(k, r);
                assert!(
                    (ln_f - direct).abs() < 1e-9,
                    "k={k} r={r}: {ln_f} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn factor_r1_is_trivial() {
        // R=1: f(k) = Γ(k+1)/(Γ(k+1)·1^(k+1)) = 1.
        let series = ln_factor_series(1, 20);
        for ln_f in series {
            assert!(ln_f.abs() < 1e-12);
        }
    }

    #[test]
    fn cost_increases_with_arrival_rate() {
        let mut last = 0.0;
        for i in 1..=10 {
            let lambda = i as f64 * 0.1;
            let c = expected_cost(lambda, 1.0, 1, P);
            assert!(c >= last - 1e-12, "λ={lambda}: {c} < {last}");
            last = c;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn cost_decreases_with_replication() {
        for lambda in [0.3, 0.6, 0.9] {
            let c1 = expected_cost(lambda, 1.0, 1, P);
            let c2 = expected_cost(lambda, 1.0, 2, P);
            let c3 = expected_cost(lambda, 1.0, 3, P);
            assert!(c2 < c1, "λ={lambda}");
            assert!(c3 <= c2, "λ={lambda}");
        }
    }

    #[test]
    fn r2_captures_most_of_the_benefit() {
        // The headline finding of Fig 6(a): going 1→2 replicas wins far
        // more than 2→3.
        let lambda = 0.8;
        let c1 = expected_cost(lambda, 1.0, 1, P);
        let c2 = expected_cost(lambda, 1.0, 2, P);
        let c3 = expected_cost(lambda, 1.0, 3, P);
        let gain_12 = c1 - c2;
        let gain_23 = c2 - c3;
        assert!(
            gain_12 > 4.0 * gain_23,
            "1→2 gain {gain_12} vs 2→3 gain {gain_23}"
        );
    }

    #[test]
    fn degenerate_inputs_cost_nothing() {
        assert_eq!(expected_cost(0.0, 1.0, 2, P), 0.0);
        assert_eq!(expected_cost(0.5, 0.0, 2, P), 0.0);
        // w_i/(λT) >= 1.
        let p = ModelParams { epoch_t: 0.5, ..P };
        assert_eq!(expected_cost(1.0, 1.0, 2, p), 0.0);
    }

    #[test]
    #[should_panic(expected = "epoch_t")]
    fn zero_epoch_fails_loudly() {
        // The satellite fix: a zero epoch used to reach the w_i/(λT)
        // division and come back as a silent 0/NaN; now it trips the
        // assertion naming the field.
        let p = ModelParams { epoch_t: 0.0, ..P };
        let _ = expected_cost(1.0, 1.0, 2, p);
    }

    #[test]
    #[should_panic(expected = "w_i")]
    fn out_of_range_weight_fails_loudly() {
        let _ = expected_cost(1.0, 1.5, 2, P);
    }

    #[test]
    #[should_panic(expected = "slots_per_vm")]
    fn nan_slots_fail_loudly() {
        let mem = MemoryParams {
            vms: 10,
            slots_per_vm: f64::NAN,
            desired_r: 2,
        };
        let _ = mem.base_replication(100);
    }

    #[test]
    fn average_cost_weights_by_access() {
        let uniform = average_cost(0.8, &[1.0, 1.0], 2, P);
        let single = expected_cost(0.8, 1.0, 2, P);
        assert!((uniform - single).abs() < 1e-12);
        assert_eq!(average_cost(0.8, &[], 2, P), 0.0);
    }

    #[test]
    fn base_replication_floor() {
        let mem = MemoryParams {
            vms: 10,
            slots_per_vm: 100.0,
            desired_r: 2,
        };
        // 1000 slots / 600 devices = 1.67 → R' = 1.
        assert_eq!(mem.base_replication(600), 1);
        // 1000 / 400 = 2.5 → capped at desired R = 2.
        assert_eq!(mem.base_replication(400), 2);
        // Spare after single copies: 1000 − 600 = 400.
        assert_eq!(mem.spare_slots(600), 400.0);
    }

    #[test]
    fn access_aware_beats_unaware_under_pressure() {
        // Fig 6(b): heterogeneous weights + not enough memory for R=2
        // everywhere → selecting replicas ∝ w_i lowers the average cost.
        let mut weights = vec![0.05; 800];
        weights.extend(vec![0.95; 200]);
        let mem = MemoryParams {
            vms: 10,
            slots_per_vm: 120.0, // 1200 slots for 1000 devices → R'=1
            desired_r: 2,
        };
        for lambda in [0.7, 0.8, 0.9, 1.0] {
            let aware =
                memory_constrained_cost(lambda, &weights, mem, ReplicaStrategy::AccessAware, P);
            let unaware = memory_constrained_cost(
                lambda,
                &weights,
                mem,
                ReplicaStrategy::AccessUnaware,
                P,
            );
            assert!(
                aware < unaware,
                "λ={lambda}: aware {aware} !< unaware {unaware}"
            );
        }
    }

    #[test]
    fn ample_memory_makes_strategies_equal() {
        let weights = vec![0.5; 100];
        let mem = MemoryParams {
            vms: 10,
            slots_per_vm: 1000.0,
            desired_r: 2,
        };
        let aware = memory_constrained_cost(0.8, &weights, mem, ReplicaStrategy::AccessAware, P);
        let unaware =
            memory_constrained_cost(0.8, &weights, mem, ReplicaStrategy::AccessUnaware, P);
        // Everyone gets R=2 either way (probabilities clamp to 1).
        assert!((aware - unaware).abs() < 1e-12);
        assert!((aware - average_cost(0.8, &weights, 2, P)).abs() < 1e-12);
    }
}
