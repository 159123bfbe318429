//! Per-kind cache statistics.

use std::fmt;

use maps_trace::BlockKind;

/// Hit/miss/eviction counters for one block classification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines of this kind evicted.
    pub evictions: u64,
    /// Dirty lines of this kind evicted (writebacks).
    pub writebacks: u64,
}

impl KindStats {
    /// Miss ratio (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Statistics for a whole cache, bucketed into data / counter / hash / tree.
///
/// # Examples
///
/// ```
/// use maps_cache::CacheStats;
/// use maps_trace::BlockKind;
/// let mut s = CacheStats::default();
/// s.record_access(BlockKind::Counter, true);
/// s.record_access(BlockKind::Counter, false);
/// assert_eq!(s.kind(BlockKind::Counter).hits, 1);
/// assert_eq!(s.total().misses, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    buckets: [KindStats; 4],
}

impl CacheStats {
    fn bucket_index(kind: BlockKind) -> usize {
        match kind {
            BlockKind::Data => 0,
            BlockKind::Counter => 1,
            BlockKind::Hash => 2,
            BlockKind::Tree(_) => 3,
        }
    }

    /// Records an access outcome for a kind.
    pub fn record_access(&mut self, kind: BlockKind, hit: bool) {
        let b = &mut self.buckets[Self::bucket_index(kind)];
        b.accesses += 1;
        if hit {
            b.hits += 1;
        } else {
            b.misses += 1;
        }
    }

    /// Records an eviction of a line of `kind`; `dirty` counts a writeback.
    pub fn record_eviction(&mut self, kind: BlockKind, dirty: bool) {
        let b = &mut self.buckets[Self::bucket_index(kind)];
        b.evictions += 1;
        if dirty {
            b.writebacks += 1;
        }
    }

    /// Counters for one kind (tree levels merged).
    pub fn kind(&self, kind: BlockKind) -> KindStats {
        self.buckets[Self::bucket_index(kind)]
    }

    /// Sum over all kinds.
    pub fn total(&self) -> KindStats {
        let mut t = KindStats::default();
        for b in &self.buckets {
            t.accesses += b.accesses;
            t.hits += b.hits;
            t.misses += b.misses;
            t.evictions += b.evictions;
            t.writebacks += b.writebacks;
        }
        t
    }

    /// Sum over the three metadata kinds (excludes data).
    pub fn metadata_total(&self) -> KindStats {
        let mut t = KindStats::default();
        for b in &self.buckets[1..] {
            t.accesses += b.accesses;
            t.hits += b.hits;
            t.misses += b.misses;
            t.evictions += b.evictions;
            t.writebacks += b.writebacks;
        }
        t
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The raw buckets in `data, counter, hash, tree` order. Exists for
    /// serialization (the sweep checkpoint codec); normal consumers go
    /// through [`CacheStats::kind`] and the totals.
    pub fn buckets(&self) -> &[KindStats; 4] {
        &self.buckets
    }

    /// Rebuilds stats from raw buckets in `data, counter, hash, tree`
    /// order — the inverse of [`CacheStats::buckets`].
    pub fn from_buckets(buckets: [KindStats; 4]) -> Self {
        CacheStats { buckets }
    }

    /// Element-wise accumulation of `other` into `self`.
    pub fn accumulate(&mut self, other: &CacheStats) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            b.accesses += o.accesses;
            b.hits += o.hits;
            b.misses += o.misses;
            b.evictions += o.evictions;
            b.writebacks += o.writebacks;
        }
    }

    /// Exports every bucket into `sink` under
    /// `{prefix}.{data|counter|hash|tree}.{accesses,hits,misses,evictions,
    /// writebacks}`. Pull-based: called once at snapshot time, so the
    /// per-access hot path carries no metrics cost.
    pub fn export<S: maps_obs::MetricSink>(&self, prefix: &str, sink: &mut S) {
        const KIND_NAMES: [&str; 4] = ["data", "counter", "hash", "tree"];
        for (name, b) in KIND_NAMES.iter().zip(&self.buckets) {
            for (field, value) in [
                ("accesses", b.accesses),
                ("hits", b.hits),
                ("misses", b.misses),
                ("evictions", b.evictions),
                ("writebacks", b.writebacks),
            ] {
                if value != 0 {
                    sink.counter_add(&format!("{prefix}.{name}.{field}"), value);
                }
            }
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        write!(
            f,
            "accesses={} hits={} misses={} (miss ratio {:.3})",
            t.accesses,
            t.hits,
            t.misses,
            t.miss_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_independent() {
        let mut s = CacheStats::default();
        s.record_access(BlockKind::Data, true);
        s.record_access(BlockKind::Tree(0), false);
        s.record_access(BlockKind::Tree(3), false);
        assert_eq!(s.kind(BlockKind::Data).hits, 1);
        assert_eq!(s.kind(BlockKind::Tree(1)).misses, 2);
        assert_eq!(s.metadata_total().misses, 2);
        assert_eq!(s.total().accesses, 3);
    }

    #[test]
    fn eviction_counts() {
        let mut s = CacheStats::default();
        s.record_eviction(BlockKind::Hash, true);
        s.record_eviction(BlockKind::Hash, false);
        let h = s.kind(BlockKind::Hash);
        assert_eq!(h.evictions, 2);
        assert_eq!(h.writebacks, 1);
    }

    #[test]
    fn miss_ratio_empty_is_zero() {
        assert_eq!(KindStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = CacheStats::default();
        s.record_access(BlockKind::Data, false);
        s.reset();
        assert_eq!(s.total().accesses, 0);
    }

    #[test]
    fn export_emits_nonzero_buckets_only() {
        let mut s = CacheStats::default();
        s.record_access(BlockKind::Counter, true);
        s.record_access(BlockKind::Counter, false);
        s.record_eviction(BlockKind::Tree(2), true);
        let mut m = maps_obs::Metrics::new();
        s.export("mdc", &mut m);
        assert_eq!(m.counter_value("mdc.counter.accesses"), 2);
        assert_eq!(m.counter_value("mdc.counter.hits"), 1);
        assert_eq!(m.counter_value("mdc.tree.writebacks"), 1);
        // Untouched kinds produce no keys at all.
        assert!(m.counters().all(|(k, _)| !k.starts_with("mdc.hash")));
    }
}
