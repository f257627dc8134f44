//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, because that is how run-to-run
//! spread is judged against each metric's bound.

/// A sorted copy of `values`; NaN never occurs in measured data.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `statistics.quantiles(values, n=n)` with the exclusive method: the
/// `n - 1` cut points. A single sample is every cut point.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(!values.is_empty() && n >= 1, "quantiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return vec![v[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect()
}

/// The `p`-th percentile (0 < p < 100) by the same exclusive rule as
/// [`quantiles`]: position `p/100 · (len + 1)`, clamped to the sample range.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let h = (p / 100.0 * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
    let lo = h.floor() as usize;
    if lo >= v.len() {
        return v[v.len() - 1];
    }
    v[lo - 1] + (h - lo as f64) * (v[lo] - v[lo - 1])
}

/// The highest percentile of `n` samples that still has ten samples
/// beyond it (by [`percentile`]'s rule), so a tail is never read off fewer;
/// at least the median, at most 99.
pub fn tail_percent(n: usize) -> f64 {
    (100.0 * (n as f64 - 10.0) / (n as f64 + 1.0)).clamp(50.0, 99.0)
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    q[2] - q[0]
}

/// A timing as the benchmark reports it: median, IQR and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Interquartile range of the samples.
    pub iqr: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            iqr: iqr(values),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantiles(&[3.0, 1.0, 2.0], 4), vec![1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past the samples.
        assert_eq!(quantiles(&[20.0, 10.0], 4), vec![7.5, 15.0, 22.5]);
        assert_eq!(iqr(&v), 5.5);
        assert_eq!(iqr(&[5.0]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert!((percentile(&v, 99.0) - 99.0).abs() < 1e-9);
        // 1000 samples: p99 sits at position 990.99, between the 990th and
        // 991st values, so ten samples lie beyond it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((percentile(&w, 99.0) - 990.99).abs() < 1e-9);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 1.0), 1.0);
    }

    #[test]
    fn tail_percent_leaves_ten_samples_beyond() {
        for n in [100usize, 500, 620, 1000, 2000] {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let cut = percentile(&v, tail_percent(n));
            let beyond = v.iter().filter(|&&x| x > cut).count();
            if n <= 1000 {
                assert_eq!(beyond, 10, "n = {n}");
            } else {
                assert!(beyond > 10, "capped at p99, n = {n}");
            }
        }
        assert_eq!(tail_percent(2000), 99.0);
        assert_eq!(tail_percent(12), 50.0);
    }

    #[test]
    fn summary_reports_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.n, 4);
        assert_eq!(s.iqr, 2.5);
    }
}
