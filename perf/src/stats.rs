//! Order statistics, the ten-samples-beyond percentile rule, and deltas of
//! the process-cumulative obs registry.

use opmr_obs::{HistogramSample, MetricsSnapshot};

/// Median of `values` (mean of the two middle values when even); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the rule the acceptance driver applies
/// to ten runs, extrapolation on tiny samples included. Needs at least two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        // Position q*(n+1)/4 on a 1-based scale, the interval clamped
        // into the data.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound. 0 for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / m.abs()
            }
        }
        None => 0.0,
    }
}

/// Nearest-rank percentile of an ascending slice; NaN when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Samples strictly beyond the `p`-th percentile position.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = ((p / 100.0) * (n - 1) as f64).round() as usize;
    n - 1 - idx.min(n - 1)
}

/// `p`-th percentile of pooled samples, quoted only when at least ten
/// samples lie beyond it (choosing-metrics §1); `None` otherwise.
pub fn supported_percentile(sorted: &[u64], p: f64) -> Option<f64> {
    (beyond(sorted.len(), p) >= 10).then(|| percentile_sorted(sorted, p))
}

/// The highest of the usual tail percentiles the sample supports, with its
/// value: `(p, value)`.
pub fn highest_supported_percentile(sorted: &[u64]) -> Option<(f64, f64)> {
    [99.99, 99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find_map(|p| supported_percentile(sorted, p).map(|v| (p, v)))
}

/// Movement of the obs registry between two snapshots. The registry is
/// process-cumulative, so every session-level count is a delta.
pub struct ObsDelta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl ObsDelta<'_> {
    /// Movement of one counter by full name (0 if it never registered).
    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counter(name).unwrap_or(0);
        a.saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    /// The observations a histogram gained, as a sample of their own (so
    /// its `quantile`/`mean` describe just this interval).
    pub fn histogram(&self, name: &str) -> Option<HistogramSample> {
        let a = self.after.histogram(name)?;
        let mut d = a.clone();
        if let Some(b) = self.before.histogram(name) {
            for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
                *x = x.saturating_sub(*y);
            }
            d.count = d.count.saturating_sub(b.count);
            d.sum = d.sum.saturating_sub(b.sum);
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let small: Vec<u64> = (0..500).collect();
        assert!(supported_percentile(&small, 99.0).is_none());
        assert_eq!(supported_percentile(&small, 95.0), Some(474.0));
        assert_eq!(highest_supported_percentile(&small), Some((95.0, 474.0)));

        let big: Vec<u64> = (0..2000).collect();
        assert_eq!(supported_percentile(&big, 99.0), Some(1979.0));
        assert!(supported_percentile(&big, 99.9).is_none());
        assert!(highest_supported_percentile(&[1, 2, 3]).is_none());
    }

    #[test]
    fn obs_delta_subtracts_counters_and_histograms() {
        let r = opmr_obs::Registry::new();
        let c = r.counter("blocks_total");
        let h = r.histogram("backlog");
        c.add(5);
        h.record(1);
        let before = r.snapshot();
        c.add(7);
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let after = r.snapshot();
        let d = ObsDelta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.counter("blocks_total"), 7);
        assert_eq!(d.counter("never_registered"), 0);
        let hd = d.histogram("backlog").unwrap();
        assert_eq!(hd.count, 100);
        assert_eq!(hd.sum, 99 * 100 + 1_000_000);
        // The pre-existing observation of 1 is gone from the delta.
        assert!(hd.quantile(0.5) >= 100);
    }
}
