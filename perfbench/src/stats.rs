//! Order statistics for the benchmark's samples.
//!
//! A percentile is only reported when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie beyond it. With fewer, a single
//! outlier decides the value, which is how a p99 taken from 800 samples
//! (8 beyond) spread ≈23 % between runs of identical code.
//!
//! A percentile is the mean of the samples ranked within half a
//! percentage point of it (a local-average quantile estimate). On this
//! benchmark's latencies the tail is sparse — a few requests slowed by
//! the host — and the single nearest-rank sample at p99 jumps between
//! them: resampling one run's latencies gave the nearest-rank p99 an
//! interquartile spread of ≈19 % of its median, the local average ≈8 %.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count that supports percentile `pct` (of 100).
pub fn min_samples(pct: usize) -> usize {
    assert!((1..100).contains(&pct), "percentile must be in 1..100");
    // n − ceil(pct·n/100) ≥ MIN_BEYOND  ⟺  floor((100 − pct)·n/100) ≥ MIN_BEYOND.
    (MIN_BEYOND * 100).div_ceil(100 - pct)
}

/// Percentile `pct` (of 100) of `values`: the mean of the samples ranked
/// in `[pct − ½, pct + ½]` %. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond the nearest-rank percentile.
pub fn percentile(values: &[f64], pct: usize) -> Option<f64> {
    let n = values.len();
    if n < min_samples(pct) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let lo = (2 * pct - 1) * n / 200;
    let hi = ((2 * pct + 1) * n).div_ceil(200).min(n);
    let band = &sorted[lo..hi.max(lo + 1)];
    Some(band.iter().sum::<f64>() / band.len() as f64)
}

/// Median of a handful of repetitions (set-up, builds, restarts): the
/// middle value, or the mean of the two middle values. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(min_samples(90), 100);
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.5));
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(99), 90), None);
    }

    #[test]
    fn supported_percentiles_leave_ten_beyond() {
        for n in [20, 37, 100, 999, 1000, 1001, 2500] {
            for pct in [50, 90, 99] {
                let values = ramp(n);
                if let Some(p) = percentile(&values, pct) {
                    let beyond = values.iter().filter(|&&v| v > p).count();
                    assert!(beyond >= MIN_BEYOND, "p{pct} of {n}: {beyond} beyond");
                }
            }
        }
    }

    #[test]
    fn percentile_averages_the_band_around_its_rank() {
        // Ranks 986..=995 of 1..=1000.
        assert_eq!(percentile(&ramp(1000), 99), Some(990.5));
        // Ranks 1971..=1990 of 1..=2000.
        assert_eq!(percentile(&ramp(2000), 99), Some(1980.5));
        // Ranks 991..=1010 of 1..=2000: symmetric around the median.
        assert_eq!(percentile(&ramp(2000), 50), Some(1000.5));
        // One outlier inside the band moves the p99 by its share only.
        let mut values = ramp(2000);
        values[0] = 1e6;
        assert!(percentile(&values, 99).expect("supported") < 2000.0);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
