//! Order statistics for the reports: nearest-rank quantiles, medians,
//! and the tail-percentile rule (a tail is only reported where at
//! least [`MIN_BEYOND`] samples lie beyond it).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a report may name, in per-mille, highest first.
const LADDER_PER_MILLE: [usize; 7] = [999, 990, 980, 950, 900, 750, 500];

/// Nearest-rank quantile (`q` in [0, 1]) of `values`: the smallest
/// sample with at least `q·n` samples at or below it. `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The median (lower middle for even counts, as nearest rank gives).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples:
/// `n − ⌈n·p⌉`, computed in integers so 99 % of 1000 leaves exactly 10.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    n - (n * per_mille).div_ceil(1000)
}

/// The highest ladder percentile (in per-mille) that keeps at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median does not.
pub fn tail_per_mille(n: usize) -> Option<usize> {
    LADDER_PER_MILLE
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(tail_per_mille(1000), Some(990));
        // One short of that and p99 no longer qualifies.
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_per_mille(999), Some(980));
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(200), Some(950));
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(19), None);
        // Every answer really does leave MIN_BEYOND samples beyond it.
        for n in 0..5000 {
            if let Some(p) = tail_per_mille(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }
}
