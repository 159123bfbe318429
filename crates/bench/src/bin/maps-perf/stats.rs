//! Sample statistics for timings: medians, quartiles, the spread rule, and
//! the tail percentile reported beside every median.

/// Median of `samples` (mean of the middle pair for even counts); `NaN`
/// for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads printed here
/// match ones computed from the same values by hand.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let ld = s.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// quartiles coincide, even at a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    if q3 == q1 {
        return 0.0;
    }
    (q3 - q1) / median(samples).abs()
}

/// The highest whole percentile that still has at least ten samples
/// beyond it (nearest-rank), with its value. `None` when there are too
/// few samples for any percentile above the median; callers then report
/// min and max instead.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(samples);
    let n = s.len();
    (51..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A median with its noise: quartile spread, tail, and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Quartile distance over the median.
    pub spread: f64,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(u32, f64)>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample set.
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            median: median(&s),
            spread: spread(&s),
            tail: tail_percentile(&s),
            min: s.first().copied().unwrap_or(f64::NAN),
            max: s.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// `median=… spread=…% p90=… n=…`, or with too few samples for a
    /// tail, `min=… max=…` in place of `p90=…`.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => format!("min={:.6} max={:.6}", self.min, self.max),
        };
        format!(
            "median={:.6} spread={:.2}% {tail} n={}",
            self.median,
            self.spread * 100.0,
            self.n
        )
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Twenty samples leave no percentile above the median with ten
        // samples beyond it: the summary falls back to min/max.
        assert_eq!(tail_percentile(&ramp(20)), None);
        assert_eq!(tail_percentile(&ramp(5)), None);
        assert_eq!(tail_percentile(&[]), None);
        // p52 of 21 is rank 11, leaving exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(21)), Some((52, 11.0)));
        assert_eq!(tail_percentile(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail_percentile(&ramp(1000)), Some((99, 990.0)));
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled), Some((90, 90.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_and_summary_fall_back_to_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[2.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        assert!(s.describe().contains("min=1.000000 max=3.000000 n=3"));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
