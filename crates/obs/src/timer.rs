//! Wall-clock time accumulated per named phase.
//!
//! [`Phases`] sums measured durations under a phase name (`"profile"`,
//! `"sweep"`, …). Adding to a name again accumulates, so per-iteration
//! timings inside a loop sum naturally.

use std::time::Duration;

/// Accumulated wall-clock time per phase path.
#[derive(Debug, Default)]
pub struct Phases {
    /// (path, accumulated, entry count), ordered by first entry.
    acc: Vec<(String, Duration, u64)>,
}

impl Phases {
    /// Creates an empty phase table.
    pub fn new() -> Self {
        Phases::default()
    }

    /// Adds a measured duration to a phase path (one entry).
    pub fn add(&mut self, path: &str, elapsed: Duration) {
        match self.acc.iter_mut().find(|(p, _, _)| p == path) {
            Some((_, total, n)) => {
                *total += elapsed;
                *n += 1;
            }
            None => self.acc.push((path.to_string(), elapsed, 1)),
        }
    }

    /// Accumulated time for a phase path, if it was ever entered.
    pub fn elapsed(&self, path: &str) -> Option<Duration> {
        self.acc
            .iter()
            .find(|(p, _, _)| p == path)
            .map(|(_, d, _)| *d)
    }

    /// All recorded phases as `(path, total, entries)`, in first-entry order.
    pub fn snapshot(&self) -> impl Iterator<Item = (&str, Duration, u64)> {
        self.acc.iter().map(|(p, d, n)| (p.as_str(), *d, *n))
    }

    /// Whether any phase has been recorded.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_records_per_path() {
        let mut p = Phases::new();
        p.add("build", Duration::from_millis(1));
        assert_eq!(p.elapsed("build"), Some(Duration::from_millis(1)));
        assert_eq!(p.elapsed("missing"), None);
    }

    #[test]
    fn reentry_accumulates() {
        let mut p = Phases::new();
        for _ in 0..3 {
            p.add("iter", Duration::from_millis(2));
        }
        let snapshot: Vec<_> = p.snapshot().collect();
        assert_eq!(snapshot, vec![("iter", Duration::from_millis(6), 3)]);
    }
}
