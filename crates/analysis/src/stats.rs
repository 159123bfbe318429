//! Small statistical helpers used across figure harnesses.

/// Arithmetic mean; 0 for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(maps_analysis::mean(&[1.0, 3.0]), 2.0);
/// ```
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean; 0 for an empty slice.
///
/// The paper reports geometric averages across benchmarks (Section III).
/// Non-positive samples are clamped to a tiny epsilon so that a single
/// zero measurement (e.g. an MPKI of exactly zero) does not collapse the
/// whole mean to zero.
///
/// # Examples
///
/// ```
/// let g = maps_analysis::geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    const EPS: f64 = 1e-9;
    let log_sum: f64 = values.iter().map(|&v| v.max(EPS).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geomean_handles_zero_without_collapse() {
        let g = geometric_mean(&[0.0, 100.0]);
        assert!(g > 0.0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        let g = geometric_mean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-9);
    }
}
