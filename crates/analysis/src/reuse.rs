//! LRU stack-distance (reuse-distance) profiling.
//!
//! The reuse distance of an access is the number of *distinct* blocks
//! referenced since the previous access to the same block. It equals the
//! minimum (fully-associative LRU) cache size, in blocks, for which the
//! access would hit — which is why the paper reasons about metadata cache
//! sizing directly in terms of reuse-distance CDFs (Section IV-C).

use std::collections::HashMap;

use maps_trace::{AccessKind, MetaAccess, MetaGroup};

use crate::{Cdf, ClassCounts, Fenwick, Transition};

/// Streaming reuse-distance profiler over `u64` block keys.
///
/// Internally keeps a Fenwick tree with one slot per access time; a block's
/// most recent access time holds a 1, so the count of ones after a block's
/// previous access time is exactly the number of distinct blocks seen since.
///
/// # Examples
///
/// ```
/// use maps_analysis::ReuseProfiler;
/// let mut p = ReuseProfiler::new();
/// for key in [1u64, 2, 3, 2, 1] {
///     p.observe(key);
/// }
/// // Distances: 1 -> cold, 2 -> cold, 3 -> cold, 2 -> 1 (just 3), 1 -> 2 (3, 2).
/// assert_eq!(p.distances(), &[1, 2]);
/// assert_eq!(p.cold_misses(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseProfiler {
    presence: Fenwick,
    last_access: HashMap<u64, usize>,
    time: usize,
    distances: Vec<u64>,
    cold: u64,
}

impl ReuseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one access to `key`, returning its reuse distance in
    /// distinct blocks, or `None` for a cold (first) access.
    pub fn observe(&mut self, key: u64) -> Option<u64> {
        let t = self.time;
        self.time += 1;
        let dist = match self.last_access.insert(key, t) {
            Some(prev) => {
                let d = self.presence.range_sum(prev + 1, t.max(1) - 1).max(0) as u64;
                self.presence.add(prev, -1);
                self.distances.push(d);
                Some(d)
            }
            None => {
                self.cold += 1;
                None
            }
        };
        self.presence.add(t, 1);
        dist
    }

    /// All recorded (warm) reuse distances, in observation order.
    pub fn distances(&self) -> &[u64] {
        &self.distances
    }

    /// Number of cold (first-touch) accesses.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.time as u64
    }

    /// Builds the CDF of recorded reuse distances (in blocks).
    pub fn cdf(&self) -> Cdf {
        Cdf::from_values(self.distances.iter().copied())
    }

    /// Classifies recorded distances into the paper's four bimodal classes,
    /// counting cold misses separately.
    pub fn class_counts(&self) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for &d in &self.distances {
            counts.add_distance(d);
        }
        counts.add_cold(self.cold);
        counts
    }
}

/// Reuse profiling of a metadata access stream, split the ways the paper's
/// figures need: by metadata group (Figure 3/4) and by request-type
/// transition within each group (Figure 5).
#[derive(Debug, Clone, Default)]
pub struct GroupedReuseProfiler {
    by_group: [ReuseProfiler; 3],
    by_transition: HashMap<(MetaGroup, Transition), Vec<u64>>,
    last_kind: HashMap<u64, AccessKind>,
    combined: ReuseProfiler,
}

impl GroupedReuseProfiler {
    /// Creates an empty grouped profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one metadata access.
    pub fn observe(&mut self, access: &MetaAccess) {
        let Some(group) = access.kind.group() else {
            return;
        };
        let key = access.block.index();
        let dist = self.by_group[group.index()].observe(key);
        self.combined.observe(key);
        if let (Some(d), Some(prev_kind)) = (dist, self.last_kind.get(&key).copied()) {
            let transition = Transition::new(prev_kind, access.access);
            self.by_transition
                .entry((group, transition))
                .or_default()
                .push(d);
        }
        self.last_kind.insert(key, access.access);
    }

    /// Per-group profiler (Counter/Hash/Tree).
    pub fn group(&self, group: MetaGroup) -> &ReuseProfiler {
        &self.by_group[group.index()]
    }

    /// Profiler over the merged metadata stream (all groups interleaved).
    pub fn combined(&self) -> &ReuseProfiler {
        &self.combined
    }

    /// CDF of reuse distances for one group.
    pub fn cdf(&self, group: MetaGroup) -> Cdf {
        self.by_group[group.index()].cdf()
    }

    /// CDF of reuse distances for one (group, transition) pair; empty CDF if
    /// the pair never occurred.
    pub fn transition_cdf(&self, group: MetaGroup, transition: Transition) -> Cdf {
        match self.by_transition.get(&(group, transition)) {
            Some(v) => Cdf::from_values(v.iter().copied()),
            None => Cdf::from_values(std::iter::empty()),
        }
    }

    /// Number of warm samples for one (group, transition) pair.
    pub fn transition_samples(&self, group: MetaGroup, transition: Transition) -> usize {
        self.by_transition
            .get(&(group, transition))
            .map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_trace::{BlockAddr, BlockKind};

    /// Naive O(n^2) reference implementation of reuse distance.
    fn naive_distances(keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let prev = keys[..i].iter().rposition(|&p| p == k);
            out.push(prev.map(|p| {
                let mut distinct = std::collections::HashSet::new();
                for &mid in &keys[p + 1..i] {
                    distinct.insert(mid);
                }
                distinct.len() as u64
            }));
        }
        out
    }

    #[test]
    fn matches_naive_on_small_stream() {
        let keys = [5u64, 1, 2, 5, 1, 1, 3, 2, 5, 4, 4, 1];
        let mut p = ReuseProfiler::new();
        let got: Vec<_> = keys.iter().map(|&k| p.observe(k)).collect();
        assert_eq!(got, naive_distances(&keys));
    }

    #[test]
    fn immediate_rereference_has_zero_distance() {
        let mut p = ReuseProfiler::new();
        p.observe(9);
        assert_eq!(p.observe(9), Some(0));
        assert_eq!(p.observe(9), Some(0));
    }

    #[test]
    fn streaming_pattern_distances() {
        // Stream through N blocks twice: second pass distances are N-1.
        let n = 100u64;
        let mut p = ReuseProfiler::new();
        for _ in 0..2 {
            for k in 0..n {
                p.observe(k);
            }
        }
        assert_eq!(p.cold_misses(), n);
        assert!(p.distances().iter().all(|&d| d == n - 1));
    }

    #[test]
    fn grouped_profiler_splits_by_group() {
        let mut g = GroupedReuseProfiler::new();
        // Counter block 1 twice, hash block 2 once between them.
        g.observe(&MetaAccess::new(
            BlockAddr::new(1),
            BlockKind::Counter,
            AccessKind::Read,
        ));
        g.observe(&MetaAccess::new(
            BlockAddr::new(2),
            BlockKind::Hash,
            AccessKind::Read,
        ));
        g.observe(&MetaAccess::new(
            BlockAddr::new(1),
            BlockKind::Counter,
            AccessKind::Read,
        ));
        // Per-group streams are independent: counter distance counts only
        // counter blocks in between (none).
        assert_eq!(g.group(MetaGroup::Counter).distances(), &[0]);
        // Combined stream sees the hash in between.
        assert_eq!(g.combined().distances(), &[1]);
        assert_eq!(g.group(MetaGroup::Hash).cold_misses(), 1);
    }

    #[test]
    fn grouped_profiler_tracks_transitions() {
        let mut g = GroupedReuseProfiler::new();
        let blk = BlockAddr::new(10);
        g.observe(&MetaAccess::new(blk, BlockKind::Hash, AccessKind::Write));
        g.observe(&MetaAccess::new(blk, BlockKind::Hash, AccessKind::Write));
        g.observe(&MetaAccess::new(blk, BlockKind::Hash, AccessKind::Read));
        assert_eq!(
            g.transition_samples(MetaGroup::Hash, Transition::WRITE_AFTER_WRITE),
            1
        );
        assert_eq!(
            g.transition_samples(MetaGroup::Hash, Transition::READ_AFTER_WRITE),
            1
        );
        assert_eq!(
            g.transition_samples(MetaGroup::Hash, Transition::READ_AFTER_READ),
            0
        );
    }

    #[test]
    fn data_blocks_are_ignored() {
        let mut g = GroupedReuseProfiler::new();
        g.observe(&MetaAccess::new(
            BlockAddr::new(1),
            BlockKind::Data,
            AccessKind::Read,
        ));
        assert_eq!(g.combined().accesses(), 0);
    }
}
