//! EVA (economic value added) replacement, with one age histogram or one
//! per block kind.

use maps_trace::BlockKind;

use super::Policy;
use crate::line::SetView;
use crate::Line;

/// EVA replacement (Beckmann & Sanchez, HPCA 2017), as described in
/// Section V-A of the MAPS paper:
///
/// ```text
/// EVA(age) = P(age) - C * L(age)
/// ```
///
/// where `P(age)` is the probability that a line of the given age
/// eventually hits, `C` is the cache's average hit rate per unit of line
/// lifetime (the opportunity cost of occupying a frame), and `L(age)` is
/// the expected remaining lifetime. The policy evicts the candidate with
/// the smallest EVA.
///
/// Following EVA's lifetime model, a hit *ends* one lifetime and starts a
/// new one: per-frame ages reset on both fill and hit. Ages are measured
/// in cache accesses, coarsened into buckets; hit/eviction age histograms
/// are accumulated online and the EVA table is recomputed periodically
/// with exponential decay of old history. [`Eva::new`] keeps a single
/// histogram: exactly the design whose weakness on bimodal metadata reuse
/// the paper demonstrates (Figure 6).
///
/// [`Eva::per_type`] tests the paper's diagnosis of that weakness ("EVA
/// uses one histogram … The bimodal characteristic of metadata reuse
/// distances makes the one histogram approach ineffective"). It keeps one
/// histogram and rank table per block kind (data, counter, hash, tree),
/// coupled through a **shared** opportunity cost `C`, because all kinds
/// compete for the same frames. (Giving each kind its own opportunity
/// cost over-protects low-hit-rate kinds; see `ablation_eva_types`.)
#[derive(Debug, Clone)]
pub struct Eva {
    /// Age coarsening: ages are divided by this before bucketing.
    granularity: u64,
    /// Recompute the EVA tables every this many policy events.
    update_period: u64,
    ways: usize,
    /// Per-frame start of the current lifetime (access-counter value).
    birth: Vec<u64>,
    /// Per-class hit and eviction age histograms: one class, or one per
    /// block kind.
    hits: Vec<[f64; BUCKETS]>,
    evictions: Vec<[f64; BUCKETS]>,
    /// Per-class EVA rank tables.
    rank: Vec<[f64; BUCKETS]>,
    events: u64,
}

/// Number of age buckets in the histograms.
const BUCKETS: usize = 256;
/// History decay factor applied at each table rebuild.
const DECAY: f64 = 0.5;

/// Classes under [`Eva::per_type`]: data, counter, hash, tree.
const KIND_CLASSES: usize = 4;

/// The class of a block kind under [`Eva::per_type`].
fn kind_class(kind: BlockKind) -> usize {
    match kind {
        BlockKind::Data => 0,
        BlockKind::Counter => 1,
        BlockKind::Hash => 2,
        BlockKind::Tree(_) => 3,
    }
}

/// One step of a class's suffix sums over age buckets `a..`.
struct Above {
    bucket: usize,
    /// Lifetimes that reached age `a`: `S(a)`.
    reaching: f64,
    /// Hits at age `a` or older: `H(a)`.
    hits: f64,
    /// Age steps lived at `a` or older: `sum (x-a+1)(h+e)(x)`.
    lifetime: f64,
}

/// A class's suffix sums, from the oldest bucket down to bucket 0.
fn suffix_sums<'a>(
    hits: &'a [f64; BUCKETS],
    evictions: &'a [f64; BUCKETS],
) -> impl Iterator<Item = Above> + 'a {
    let (mut reaching, mut hits_above, mut lifetime) = (0.0, 0.0, 0.0);
    (0..BUCKETS).rev().map(move |a| {
        reaching += hits[a] + evictions[a];
        hits_above += hits[a];
        // Every event at age >= a contributes one more age step when the
        // horizon moves down one bucket.
        lifetime += reaching;
        Above {
            bucket: a,
            reaching,
            hits: hits_above,
            lifetime,
        }
    })
}

impl Eva {
    /// Creates the policy with defaults suited to the 64 KB metadata cache
    /// evaluated in Figure 6 (granularity 16 accesses, update every 4096
    /// events).
    pub fn new() -> Self {
        Self::with_params(16, 4096)
    }

    /// Creates the policy with explicit age granularity and update period.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn with_params(granularity: u64, update_period: u64) -> Self {
        Self::with_classes(granularity, update_period, 1)
    }

    /// Classified EVA with [`Eva::new`]'s parameters: one histogram and
    /// rank table per block kind, sharing one opportunity cost.
    pub fn per_type() -> Self {
        Self::with_classes(16, 4096, KIND_CLASSES)
    }

    fn with_classes(granularity: u64, update_period: u64, classes: usize) -> Self {
        assert!(granularity > 0, "granularity must be positive");
        assert!(update_period > 0, "update period must be positive");
        Self {
            granularity,
            update_period,
            ways: 0,
            birth: Vec::new(),
            hits: vec![[0.0; BUCKETS]; classes],
            evictions: vec![[0.0; BUCKETS]; classes],
            // Fresh caches have no history: rank older lines lower so the
            // policy degenerates to LRU-like behaviour until data arrives.
            rank: vec![std::array::from_fn(|b| -(b as f64)); classes],
            events: 0,
        }
    }

    fn bucket(&self, age: u64) -> usize {
        ((age / self.granularity) as usize).min(BUCKETS - 1)
    }

    /// The class whose histogram and rank table a line of `kind` uses.
    fn class(&self, kind: BlockKind) -> usize {
        if self.rank.len() == 1 {
            0
        } else {
            kind_class(kind)
        }
    }

    fn tick(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(self.update_period) {
            self.rebuild();
        }
    }

    /// Recomputes every class's EVA table from its histograms, with the
    /// opportunity cost shared across classes. Runs on the hot path (every
    /// `update_period` events), so the suffix sums are running scalars
    /// rather than scratch tables.
    fn rebuild(&mut self) {
        let (mut total_hits, mut total_lifetime) = (0.0, 0.0);
        for (hits, evictions) in self.hits.iter().zip(&self.evictions) {
            if let Some(all) = suffix_sums(hits, evictions).last() {
                total_hits += all.hits;
                total_lifetime += all.lifetime;
            }
        }
        if total_lifetime <= 0.0 {
            return; // no history yet
        }
        // C: hits per unit of occupied lifetime.
        let c = total_hits / total_lifetime;
        let classes = self.hits.iter().zip(&self.evictions).zip(&mut self.rank);
        for ((hits, evictions), rank) in classes {
            for above in suffix_sums(hits, evictions) {
                rank[above.bucket] = if above.reaching > 0.0 {
                    let p = above.hits / above.reaching;
                    let l = above.lifetime / above.reaching;
                    p - c * l
                } else {
                    // No line has ever survived to this age: treat as worthless.
                    f64::NEG_INFINITY
                };
            }
        }
        for v in self.hits.iter_mut().chain(&mut self.evictions).flatten() {
            *v *= DECAY;
        }
    }

    /// Current EVA rank of a line of `kind` at (uncoarsened) `age`;
    /// exposed for tests.
    pub fn rank_of(&self, kind: BlockKind, age: u64) -> f64 {
        self.rank[self.class(kind)][self.bucket(age)]
    }

    fn lifetime_age(&self, set: usize, way: usize, now: u64) -> u64 {
        now.saturating_sub(self.birth[set * self.ways + way])
    }
}

impl Default for Eva {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Eva {
    fn name(&self) -> &'static str {
        if self.rank.len() == 1 {
            "eva"
        } else {
            "eva-per-type"
        }
    }

    fn init(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.birth = vec![0; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize, now: u64, kind: BlockKind) {
        // A hit ends one lifetime at the frame's current age and starts a
        // new one; `now` is the access counter of this hit.
        let age = self.lifetime_age(set, way, now);
        let (class, b) = (self.class(kind), self.bucket(age));
        self.hits[class][b] += 1.0;
        self.birth[set * self.ways + way] = now;
        self.tick();
    }

    fn on_fill(&mut self, set: usize, way: usize, line: &Line) {
        self.birth[set * self.ways + way] = line.insert_at;
    }

    fn on_evict(&mut self, set: usize, way: usize, line: &Line, now: u64) {
        let age = self.lifetime_age(set, way, now);
        let (class, b) = (self.class(line.kind), self.bucket(age));
        self.evictions[class][b] += 1.0;
        self.tick();
    }

    fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[usize],
        lines: &SetView<'_>,
        now: u64,
    ) -> usize {
        let Some(&first) = candidates.first() else {
            debug_assert!(false, "candidate list must not be empty");
            return 0;
        };
        let mut best = first;
        let mut best_eva = f64::INFINITY;
        for &w in candidates {
            // A single class needs no line kind, so it skips materializing
            // the line from the column store.
            let class = if self.rank.len() == 1 {
                0
            } else {
                kind_class(lines.line(w).kind)
            };
            let rank = self.rank[class][self.bucket(self.lifetime_age(set, w, now))];
            if rank < best_eva {
                best_eva = rank;
                best = w;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, SetAssocCache};
    use maps_trace::BlockKind;

    #[test]
    fn cold_table_prefers_older_lines() {
        for eva in [Eva::new(), Eva::per_type()] {
            assert!(eva.rank_of(BlockKind::Hash, 1000) < eva.rank_of(BlockKind::Hash, 0));
        }
    }

    #[test]
    fn learns_to_protect_short_reuse() {
        // Working set of 4 hot blocks in an 8-way set plus a cold scan.
        // After training, hot blocks (short lifetime ages) should rank above
        // scan lines that have aged past every observed hit.
        let mut c = SetAssocCache::new(CacheConfig::from_bytes(512, 8), Eva::with_params(4, 256));
        let mut hits_late = 0u32;
        let mut late_total = 0u32;
        for round in 0..4000u64 {
            for hot in 0..4u64 {
                let r = c.access(hot, BlockKind::Data, false);
                if round > 3000 {
                    late_total += 1;
                    hits_late += u32::from(r.hit);
                }
            }
            let cold = 100 + round;
            c.access(cold, BlockKind::Data, false);
        }
        assert!(
            f64::from(hits_late) > 0.85 * f64::from(late_total),
            "EVA failed to protect hot set: {hits_late}/{late_total}"
        );
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_panics() {
        Eva::with_params(0, 10);
    }

    #[test]
    fn rebuild_with_history_produces_finite_ranks_for_seen_ages() {
        let mut eva = Eva::with_params(1, 1_000_000);
        for _ in 0..100 {
            eva.hits[0][1] += 1.0;
            eva.evictions[0][20] += 1.0;
        }
        eva.rebuild();
        let rank = |age| eva.rank_of(BlockKind::Data, age);
        assert!(rank(1).is_finite());
        assert!(rank(1) > rank(20));
    }

    #[test]
    fn per_type_separates_types_with_different_reuse() {
        // Counters rereferenced every 4 accesses; hashes stream cold.
        let mut c = SetAssocCache::new(
            CacheConfig::from_bytes(512, 8),
            Eva::with_classes(4, 256, KIND_CLASSES),
        );
        let mut ctr_hits = 0u64;
        let mut ctr_total = 0u64;
        for round in 0..4000u64 {
            for hot in 0..3u64 {
                let r = c.access(hot, BlockKind::Counter, false);
                if round > 3000 {
                    ctr_total += 1;
                    ctr_hits += u64::from(r.hit);
                }
            }
            c.access(1000 + round, BlockKind::Hash, false);
        }
        assert!(
            ctr_hits as f64 > 0.85 * ctr_total as f64,
            "counters not protected: {ctr_hits}/{ctr_total}"
        );
    }

    #[test]
    fn per_type_behaves_like_eva_for_a_single_type() {
        let keys: Vec<u64> = (0..2000).map(|i| (i * 7) % 64).collect();
        let mut per_type = SetAssocCache::new(
            CacheConfig::from_bytes(1024, 8),
            Eva::with_classes(8, 512, KIND_CLASSES),
        );
        let mut vanilla =
            SetAssocCache::new(CacheConfig::from_bytes(1024, 8), Eva::with_params(8, 512));
        let (mut a, mut b) = (0u64, 0u64);
        for &k in &keys {
            a += u64::from(per_type.access(k, BlockKind::Hash, false).hit);
            b += u64::from(vanilla.access(k, BlockKind::Hash, false).hit);
        }
        let diff = (a as f64 - b as f64).abs() / keys.len() as f64;
        assert!(diff < 0.05, "single-type behaviour diverged: {a} vs {b}");
    }

    #[test]
    fn per_type_stats_stay_consistent() {
        let mut c = SetAssocCache::new(CacheConfig::from_bytes(2048, 8), Eva::per_type());
        for i in 0..3000u64 {
            let kind = match i % 3 {
                0 => BlockKind::Counter,
                1 => BlockKind::Hash,
                _ => BlockKind::Tree(0),
            };
            c.access(i % 300, kind, i % 5 == 0);
        }
        let t = c.stats().total();
        assert_eq!(t.accesses, 3000);
        assert_eq!(t.accesses, t.hits + t.misses);
    }

    #[test]
    fn per_type_trained_ranks_differ_across_types() {
        let mut c = SetAssocCache::new(
            CacheConfig::from_bytes(512, 8),
            Eva::with_classes(4, 128, KIND_CLASSES),
        );
        for round in 0..2000u64 {
            c.access(round % 4, BlockKind::Counter, false);
            c.access(1000 + round, BlockKind::Hash, false);
        }
        // Counters hit at short ages; streaming hashes never hit. The
        // trained tables must reflect that at the counters' typical age.
        let p = c.policy();
        assert!(p.rank_of(BlockKind::Counter, 8) > p.rank_of(BlockKind::Hash, 8));
    }
}
