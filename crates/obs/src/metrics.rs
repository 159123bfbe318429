//! The metrics registry: named counters, gauges, and log₂ histograms.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// Number of histogram buckets: one per possible `u64` bit length
/// (0 through 64), so bucketing never saturates or loses the tail.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram over `u64` samples.
///
/// Bucket `i` holds samples whose bit length is `i`: bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds 4–7, and
/// so on. The bucket layout is fixed, so histograms from different runs
/// merge bucket-by-bucket without rebinning.
///
/// # Examples
///
/// ```
/// use maps_obs::Histogram;
/// let mut h = Histogram::new();
/// for v in [0, 1, 2, 3, 4, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.bucket(2), 2); // 2 and 3
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Whether `sum` ever overflowed `u64` and clamped. Week-long farm
    /// campaigns merge many per-run histograms; a clamped sum silently
    /// under-reports unless flagged.
    saturated: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            saturated: false,
        }
    }

    /// Bucket index of a sample: its bit length.
    pub const fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i` (0 for the zero bucket).
    pub const fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = match self.sum.checked_add(value) {
            Some(s) => s,
            None => {
                self.saturated = true;
                u64::MAX
            }
        };
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples; check [`Histogram::saturated`] before
    /// trusting it in long aggregations.
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether the sum ever overflowed and clamped to `u64::MAX`. Sticky:
    /// merging a saturated histogram marks the destination saturated.
    pub const fn saturated(&self) -> bool {
        self.saturated
    }

    /// Smallest sample (0 when empty).
    pub const fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Non-empty `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Adds another histogram bucket-by-bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = match self.sum.checked_add(other.sum) {
            Some(s) => s,
            None => {
                self.saturated = true;
                u64::MAX
            }
        };
        self.saturated |= other.saturated;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// JSON form: count/sum/min/max/mean plus the non-empty buckets keyed
    /// by their inclusive lower bound.
    pub fn to_json(&self) -> Json {
        let mut buckets = Vec::new();
        for (i, c) in self.nonzero_buckets() {
            buckets.push((Self::bucket_lo(i).to_string(), Json::UInt(c)));
        }
        Json::Obj(vec![
            ("count".into(), Json::UInt(self.count)),
            ("sum".into(), Json::UInt(self.sum)),
            ("saturated".into(), Json::Bool(self.saturated)),
            ("min".into(), Json::UInt(self.min())),
            ("max".into(), Json::UInt(self.max)),
            ("mean".into(), Json::Float(self.mean())),
            ("buckets".into(), Json::Obj(buckets)),
        ])
    }
}

/// The metrics registry.
///
/// Counters accumulate (`merge` adds), gauges hold a point value (`merge`
/// keeps the maximum — the only aggregation that makes sense without a
/// time base), histograms merge bucket-wise. Iteration and JSON output are
/// sorted by name, so snapshots are deterministic.
///
/// # Examples
///
/// ```
/// use maps_obs::Metrics;
/// let mut m = Metrics::new();
/// m.counter_add("mdc.counter.hits", 3);
/// m.gauge_set("rowbuffer.hit_ratio", 0.75);
/// m.hist_record("engine.walk_depth", 2);
/// assert_eq!(m.counter_value("mdc.counter.hits"), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, value: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += value;
        } else {
            self.counters.insert(name.to_string(), value);
        }
    }

    /// Current counter value (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current gauge value.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into a histogram, creating it when absent.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Merges a whole histogram into the named slot (bucket-wise, exact).
    pub fn hist_merge(&mut self, name: &str, other: &Histogram) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.merge(other);
        } else {
            self.histograms.insert(name.to_string(), other.clone());
        }
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter `(name, value)` pairs, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Gauge `(name, value)` pairs, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another registry: counters add, gauges keep the max,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, &v) in &other.counters {
            self.counter_add(k, v);
        }
        for (k, &v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *e = e.max(v);
        }
        for (k, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(k) {
                mine.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
    }

    /// The snapshot as JSON: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}`, every map sorted by name.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::UInt(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Float(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
        ])
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k} = {{count {}, mean {:.2}, max {}}}",
                h.count(),
                h.mean(),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_and_stats() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 8, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(4), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 9);
        assert_eq!(h.sum(), 24);
        assert!((h.mean() - 24.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(6);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(3), 2); // 5 and 6
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn saturated_sums_are_flagged_and_sticky() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert!(!h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        h.record(1);
        assert!(h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(
            h.to_json().get("saturated").map(|j| j == &Json::Bool(true)),
            Some(true)
        );
        // A clean histogram stays unflagged and reports saturated: false.
        let clean = Histogram::new();
        assert!(!clean.saturated());
        assert_eq!(
            clean
                .to_json()
                .get("saturated")
                .map(|j| j == &Json::Bool(false)),
            Some(true)
        );
    }

    #[test]
    fn hist_merge_propagates_saturation() {
        // Merging two near-full sums overflows: the merged sum clamps and
        // the flag is set even though neither input was saturated.
        let mut m = Metrics::new();
        let mut a = Histogram::new();
        a.record(u64::MAX - 1);
        let mut b = Histogram::new();
        b.record(u64::MAX - 1);
        m.hist_merge("wide", &a);
        assert!(!m.histogram("wide").unwrap().saturated());
        m.hist_merge("wide", &b);
        let merged = m.histogram("wide").unwrap();
        assert!(merged.saturated());
        assert_eq!(merged.sum(), u64::MAX);
        assert_eq!(merged.count(), 2);
        // Sticky through further merges of clean histograms.
        let mut c = Histogram::new();
        c.record(7);
        m.hist_merge("wide", &c);
        assert!(m.histogram("wide").unwrap().saturated());
        // And an already-saturated input marks a clean destination.
        let mut d = Histogram::new();
        d.record(u64::MAX);
        d.record(u64::MAX);
        assert!(d.saturated());
        m.hist_merge("fresh", &c);
        m.hist_merge("fresh", &d);
        assert!(m.histogram("fresh").unwrap().saturated());
    }

    #[test]
    fn metrics_hist_merge_is_exact() {
        let mut src = Histogram::new();
        src.record(5);
        src.record(1000);
        let mut m = Metrics::new();
        m.hist_merge("h", &src);
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1005);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.counter_add("x", 2);
        b.counter_add("x", 3);
        b.counter_add("y", 1);
        a.merge(&b);
        assert_eq!(a.counter_value("x"), 5);
        assert_eq!(a.counter_value("y"), 1);
        assert_eq!(a.counter_value("absent"), 0);
    }

    #[test]
    fn gauges_merge_by_max() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.gauge_set("g", 1.5);
        b.gauge_set("g", 0.5);
        a.merge(&b);
        assert_eq!(a.gauge_value("g"), Some(1.5));
        b.gauge_set("g", 9.0);
        a.merge(&b);
        assert_eq!(a.gauge_value("g"), Some(9.0));
    }

    #[test]
    fn json_snapshot_is_sorted_and_typed() {
        let mut m = Metrics::new();
        m.counter_add("b", 1);
        m.counter_add("a", 2);
        m.hist_record("h", 3);
        let j = m.to_json();
        let counters = j.get("counters").unwrap();
        let keys: Vec<&str> = match counters {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("counters must be an object"),
        };
        assert_eq!(keys, ["a", "b"]);
        let h = j.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
    }
}
