//! EVA (economic value added) replacement.

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
/// with exponential decay of old history. This single-histogram design is
/// exactly the one whose weakness on bimodal metadata reuse the paper
/// demonstrates (Figure 6).
#[derive(Debug, Clone)]
pub struct Eva {
    /// Age coarsening: ages are divided by this before bucketing.
    granularity: u64,
    /// Recompute the EVA table every this many policy events.
    update_period: u64,
    ways: usize,
    /// Per-frame start of the current lifetime (access-counter value).
    birth: Vec<u64>,
    hits: Vec<f64>,
    evictions: Vec<f64>,
    eva: Vec<f64>,
    events: u64,
}

/// Number of age buckets in the histograms.
const BUCKETS: usize = 256;
/// History decay factor applied at each table rebuild.
const DECAY: f64 = 0.5;

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
        assert!(granularity > 0, "granularity must be positive");
        assert!(update_period > 0, "update period must be positive");
        Self {
            granularity,
            update_period,
            ways: 0,
            birth: Vec::new(),
            hits: vec![0.0; BUCKETS],
            evictions: vec![0.0; BUCKETS],
            // Fresh caches have no history: rank older lines lower so the
            // policy degenerates to LRU-like behaviour until data arrives.
            eva: (0..BUCKETS).map(|b| -(b as f64)).collect(),
            events: 0,
        }
    }

    fn bucket(&self, age: u64) -> usize {
        ((age / self.granularity) as usize).min(BUCKETS - 1)
    }

    fn tick(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(self.update_period) {
            self.rebuild();
        }
    }

    /// Recomputes the EVA table from the histograms. Runs on the hot path
    /// (every `update_period` events), so the scratch tables live on the
    /// stack — `BUCKETS + 1` doubles is ~2 KB per table.
    fn rebuild(&mut self) {
        let mut lines_reaching = [0.0f64; BUCKETS + 1]; // S(a)
        let mut hits_above = [0.0f64; BUCKETS + 1]; // H(a)
        let mut lifetime_above = [0.0f64; BUCKETS + 1]; // sum (x-a+1)(h+e)(x)
        for a in (0..BUCKETS).rev() {
            let ev = self.hits[a] + self.evictions[a];
            lines_reaching[a] = lines_reaching[a + 1] + ev;
            hits_above[a] = hits_above[a + 1] + self.hits[a];
            // Every event at age >= a contributes one more age step when the
            // horizon moves down one bucket.
            lifetime_above[a] = lifetime_above[a + 1] + lines_reaching[a];
        }
        let [total_lines, ..] = lines_reaching;
        let [total_hits, ..] = hits_above;
        let [total_lifetime, ..] = lifetime_above;
        if total_lines < 1.0 || total_lifetime <= 0.0 {
            return; // not enough history yet
        }
        // C: hits per unit of occupied lifetime.
        let c = total_hits / total_lifetime;
        for a in 0..BUCKETS {
            if lines_reaching[a] > 0.0 {
                let p = hits_above[a] / lines_reaching[a];
                let l = lifetime_above[a] / lines_reaching[a];
                self.eva[a] = p - c * l;
            } else {
                // No line has ever survived to this age: treat as worthless.
                self.eva[a] = f64::NEG_INFINITY;
            }
        }
        for v in &mut self.hits {
            *v *= DECAY;
        }
        for v in &mut self.evictions {
            *v *= DECAY;
        }
    }

    /// Current EVA rank for a given (uncoarsened) age; exposed for tests.
    pub fn rank_of_age(&self, age: u64) -> f64 {
        self.eva[self.bucket(age)]
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
        "eva"
    }

    fn init(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.birth = vec![0; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize, now: u64, _kind: BlockKind) {
        // A hit ends one lifetime at the frame's current age and starts a
        // new one; `now` is the access counter of this hit.
        let age = self.lifetime_age(set, way, now);
        let b = self.bucket(age);
        self.hits[b] += 1.0;
        self.birth[set * self.ways + way] = now;
        self.tick();
    }

    fn on_fill(&mut self, set: usize, way: usize, line: &Line) {
        self.birth[set * self.ways + way] = line.insert_at;
    }

    fn on_evict(&mut self, set: usize, way: usize, _line: &Line, now: u64) {
        let age = self.lifetime_age(set, way, now);
        let b = self.bucket(age);
        self.evictions[b] += 1.0;
        self.tick();
    }

    fn choose_victim(
        &mut self,
        set: usize,
        candidates: &[usize],
        _lines: &SetView<'_>,
        now: u64,
    ) -> usize {
        let Some(&first) = candidates.first() else {
            debug_assert!(false, "candidate list must not be empty");
            return 0;
        };
        let mut best = first;
        let mut best_eva = f64::INFINITY;
        for &w in candidates {
            let rank = self.rank_of_age(self.lifetime_age(set, w, now));
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
        let eva = Eva::new();
        assert!(eva.rank_of_age(1000) < eva.rank_of_age(0));
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
            eva.hits[1] += 1.0;
            eva.evictions[20] += 1.0;
        }
        eva.rebuild();
        assert!(eva.rank_of_age(1).is_finite());
        assert!(eva.rank_of_age(1) > eva.rank_of_age(20));
    }
}
