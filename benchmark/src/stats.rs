//! Order statistics over small sample vectors.

/// Median (mean of the two middle values for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
/// Sorts in place; 0 when there are no samples.
pub fn percentile_us(ns: &mut [u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let idx = ((ns.len() as f64 - 1.0) * p).round() as usize;
    ns[idx.min(ns.len() - 1)] as f64 / 1e3
}

/// Blocks a latency series is cut into for [`block_percentile_us`].
pub const BLOCKS: usize = 10;

/// The `p`-th percentile of each of [`BLOCKS`] equal blocks of the
/// samples, taken in completion order, then the median over blocks.
/// On a shared host a neighbour's burst lands in one or two blocks
/// and moves their tails a lot; it does not move the median block.
pub fn block_percentile_us(ns: &mut [u64], p: f64) -> f64 {
    if ns.len() < BLOCKS {
        return percentile_us(ns, p);
    }
    let per_block = ns.len() / BLOCKS;
    median(
        ns.chunks_exact_mut(per_block)
            .map(|b| percentile_us(b, p))
            .collect(),
    )
}
