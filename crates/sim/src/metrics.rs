//! Latency metrics: percentile summaries, CDFs and time-bucketed series
//! — the quantities every figure of the paper reports.

use serde::Serialize;

/// A collection of latency samples (seconds).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    /// Pre-size for `n` expected samples so the event loop never
    /// reallocates while recording.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: false,
        }
    }

    /// Grow the backing store to hold `n` more samples up front.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// The q-quantile (q in `[0, 1]`) by nearest-rank. 0 samples → NaN.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let rank = ((q * self.values.len() as f64).ceil() as usize)
            .clamp(1, self.values.len());
        self.values[rank - 1]
    }

    /// 99th-percentile (the paper's headline metric).
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.values.last().unwrap_or(&f64::NAN)
    }

    /// Empirical CDF with `points` evenly spaced probability levels:
    /// `(value, P[X <= value])` pairs suitable for plotting.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        (1..=points)
            .map(|i| {
                let p = i as f64 / points as f64;
                let rank = ((p * self.values.len() as f64).ceil() as usize)
                    .clamp(1, self.values.len());
                (self.values[rank - 1], p)
            })
            .collect()
    }
}

/// A time-bucketed series (e.g. per-VM CPU utilization over time, the
/// traces of Fig 7/8/9).
#[derive(Debug, Clone, Serialize)]
pub struct TimeSeries {
    pub bucket_width: f64,
    pub buckets: Vec<f64>,
}

impl TimeSeries {
    pub fn new(bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0);
        TimeSeries {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// A series whose buckets already cover `[0, horizon)`, so interval
    /// accounting inside the horizon never resizes.
    pub fn with_horizon(bucket_width: f64, horizon: f64) -> Self {
        let mut ts = TimeSeries::new(bucket_width);
        let n = (horizon.max(0.0) / bucket_width).ceil() as usize;
        ts.buckets = vec![0.0; n];
        ts
    }

    /// Add `amount` spread over the interval [start, end).
    pub fn add_interval(&mut self, start: f64, end: f64, amount_per_second: f64) {
        if end <= start {
            return;
        }
        let first = (start / self.bucket_width).floor() as usize;
        let last = (end / self.bucket_width).ceil() as usize;
        if self.buckets.len() < last {
            self.buckets.resize(last, 0.0);
        }
        for b in first..last {
            let b_start = b as f64 * self.bucket_width;
            let b_end = b_start + self.bucket_width;
            let overlap = (end.min(b_end) - start.max(b_start)).max(0.0);
            self.buckets[b] += overlap * amount_per_second;
        }
    }

    /// Value of bucket `i` normalised by bucket width (e.g. utilization
    /// fraction when the series accumulates busy seconds).
    pub fn rate(&self, i: usize) -> f64 {
        self.buckets.get(i).copied().unwrap_or(0.0) / self.bucket_width
    }

    /// `(bucket_start_time, rate)` pairs for plotting.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, _)| (i as f64 * self.bucket_width, self.rate(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_data() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.01), 1.0);
        assert_eq!(s.mean(), 50.5);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn empty_samples_are_nan() {
        let mut s = Samples::new();
        assert!(s.p99().is_nan());
        assert!(s.mean().is_nan());
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn cdf_is_monotone() {
        let mut s = Samples::new();
        for i in 0..1000 {
            s.push(((i * 7919) % 1000) as f64);
        }
        let cdf = s.cdf(50);
        assert_eq!(cdf.len(), 50);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0, "values monotone");
            assert!(w[1].1 > w[0].1, "probabilities monotone");
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeseries_spreads_intervals() {
        let mut ts = TimeSeries::new(1.0);
        // 100% busy from 0.5 to 2.5.
        ts.add_interval(0.5, 2.5, 1.0);
        assert!((ts.rate(0) - 0.5).abs() < 1e-12);
        assert!((ts.rate(1) - 1.0).abs() < 1e-12);
        assert!((ts.rate(2) - 0.5).abs() < 1e-12);
        assert_eq!(ts.rate(3), 0.0);
    }

    #[test]
    fn timeseries_ignores_empty_interval() {
        let mut ts = TimeSeries::new(1.0);
        ts.add_interval(2.0, 2.0, 5.0);
        ts.add_interval(3.0, 2.0, 5.0);
        assert!(ts.buckets.iter().all(|b| *b == 0.0));
    }

    #[test]
    fn merge_samples() {
        let mut a = Samples::new();
        a.push(1.0);
        let mut b = Samples::new();
        b.push(3.0);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.quantile(1.0), 3.0);
    }
}
