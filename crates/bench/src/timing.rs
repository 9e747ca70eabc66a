//! Calibrated wall-clock timing for the binaries that record ns per
//! operation (`bench_summary`, `metrics_snapshot`). A warm-up doubles a
//! batch of calls until it takes `min(warm_up, 50 ms)`, which sizes the
//! samples; the samples then share the window, and the median sample's
//! ns per call is the measurement.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times routines one after another and keeps what each measured.
pub struct Stopwatch {
    samples: usize,
    warm_up: Duration,
    window: Duration,
    /// Median ns per call, by routine id.
    pub ns: HashMap<String, f64>,
}

impl Stopwatch {
    /// `samples` samples over `window` per routine, after a warm-up.
    pub fn new(samples: usize, warm_up: Duration, window: Duration) -> Self {
        assert!(samples > 0, "need at least one sample");
        Stopwatch {
            samples,
            warm_up,
            window,
            ns: HashMap::new(),
        }
    }

    /// Time `routine`, print its ns per call and keep that as `id`.
    pub fn time<O>(&mut self, id: &str, mut routine: impl FnMut() -> O) {
        let mut batch: u64 = 1;
        let per_call = loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= self.warm_up.min(Duration::from_millis(50)) {
                break dt.as_secs_f64() / batch as f64;
            }
            batch = batch.saturating_mul(2);
        };
        let target = self.window.as_secs_f64() / self.samples as f64;
        let calls = ((target / per_call) as u64).max(1);
        let mut samples: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..calls {
                    black_box(routine());
                }
                t0.elapsed().as_secs_f64() / calls as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let ns = samples[samples.len() / 2] * 1e9;
        eprintln!("{id:<50} {ns:>14.1} ns/iter");
        self.ns.insert(id.to_string(), ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_something_sane() {
        let mut c = Stopwatch::new(5, Duration::from_millis(5), Duration::from_millis(20));
        let mut x = 0u64;
        c.time("add", || {
            x = x.wrapping_add(1);
            x
        });
        assert!(c.ns["add"] > 0.0 && c.ns["add"] < 1e6);
    }
}
