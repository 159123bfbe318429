//! Cross-crate property-based tests (proptest) on the core invariants.

use maps::analysis::ReuseProfiler;
use maps::cache::policy::{MinOracle, TrueLru};
use maps::cache::{belady_misses, csopt_min_cost, CacheConfig, CostedAccess, SetAssocCache};
use maps::secure::{Layout, SecureConfig};
use maps::trace::{BlockAddr, BlockKind};
use proptest::prelude::*;

/// Naive O(n^2) reuse-distance reference.
fn naive_distances(keys: &[u64]) -> Vec<Option<u64>> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            keys[..i].iter().rposition(|&p| p == k).map(|p| {
                let mut set = std::collections::HashSet::<u64>::new();
                set.extend(&keys[p + 1..i]);
                set.len() as u64
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reuse_profiler_matches_naive(keys in prop::collection::vec(0u64..32, 1..300)) {
        let mut p = ReuseProfiler::new();
        let got: Vec<_> = keys.iter().map(|&k| p.observe(k)).collect();
        prop_assert_eq!(got, naive_distances(&keys));
    }

    #[test]
    fn reuse_distance_bounds(keys in prop::collection::vec(0u64..64, 1..400)) {
        let mut p = ReuseProfiler::new();
        let distinct = keys.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        for &k in &keys {
            if let Some(d) = p.observe(k) {
                // A reuse distance can never reach the distinct-key count.
                prop_assert!(d < distinct);
            }
        }
        prop_assert_eq!(p.cold_misses(), distinct);
    }

    #[test]
    fn csopt_equals_belady_under_uniform_costs(
        keys in prop::collection::vec(0u64..8, 1..24),
        capacity in 1usize..4,
    ) {
        let costed: Vec<_> = keys.iter().map(|&k| CostedAccess::unit(k)).collect();
        let out = csopt_min_cost(&costed, capacity, None);
        prop_assert_eq!(out.min_cost, belady_misses(&keys, capacity));
    }

    #[test]
    fn csopt_cost_monotone_in_capacity(
        keys in prop::collection::vec(0u64..8, 1..20),
    ) {
        let costed: Vec<_> =
            keys.iter().map(|&k| CostedAccess::new(k, 1 + k % 4)).collect();
        let c2 = csopt_min_cost(&costed, 2, None).min_cost;
        let c3 = csopt_min_cost(&costed, 3, None).min_cost;
        prop_assert!(c3 <= c2, "more capacity cannot cost more: {} vs {}", c3, c2);
    }

    #[test]
    fn min_oracle_never_loses_to_lru_fully_associative(
        keys in prop::collection::vec(0u64..16, 1..300),
    ) {
        let run = |mut cache: SetAssocCache<_>| -> u64 {
            keys.iter().filter(|&&k| !cache.access(k, BlockKind::Data, false).hit).count() as u64
        };
        let min = SetAssocCache::new(CacheConfig::from_bytes(256, 4), MinOracle::from_trace(&keys));
        let lru = SetAssocCache::new(CacheConfig::from_bytes(256, 4), TrueLru::new());
        let min_misses =
            keys.iter().fold((min, 0u64), |(mut c, m), &k| {
                let hit = c.access(k, BlockKind::Data, false).hit;
                (c, m + u64::from(!hit))
            }).1;
        let lru_misses = run(lru);
        prop_assert!(min_misses <= lru_misses, "MIN {} vs LRU {}", min_misses, lru_misses);
    }

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        keys in prop::collection::vec(0u64..1024, 1..500),
        writes in prop::collection::vec(any::<bool>(), 500),
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::from_bytes(1024, 4), TrueLru::new());
        for (&k, &w) in keys.iter().zip(&writes) {
            cache.access(k, BlockKind::Data, w);
            prop_assert!(cache.occupancy() <= 16);
        }
        // Every dirty write is either resident or was evicted with its
        // dirty bit intact (writeback conservation).
        let resident_dirty = cache.resident_lines().filter(|l| l.dirty).count() as u64;
        let evicted_dirty = cache.stats().total().writebacks;
        let writes_issued = keys.iter().zip(&writes).filter(|&(_, &w)| w).count() as u64;
        prop_assert!(resident_dirty + evicted_dirty <= writes_issued);
    }

    #[test]
    fn layout_metadata_regions_disjoint_from_data(
        mem_pages in 16u64..4096,
        block in 0u64..1_000_000,
    ) {
        let cfg = SecureConfig::poison_ivy(mem_pages * 4096);
        let layout = Layout::new(cfg);
        let data = BlockAddr::new(block % layout.data_blocks());
        let counter = layout.counter_block_of(data);
        let hash = layout.hash_block_of(data);
        prop_assert!(counter.index() >= layout.data_blocks());
        prop_assert!(hash.index() > counter.index() || layout.counter_blocks() == 0);
        prop_assert_eq!(layout.kind_of(data), BlockKind::Data);
        prop_assert_eq!(layout.kind_of(counter), BlockKind::Counter);
        prop_assert_eq!(layout.kind_of(hash), BlockKind::Hash);
        // The tree walk ascends strictly and terminates.
        let path: Vec<_> = layout.tree_path_of_counter(counter).collect();
        prop_assert!(path.len() <= 12);
        for (i, node) in path.iter().enumerate() {
            prop_assert_eq!(layout.kind_of(*node), BlockKind::Tree(i as u8));
        }
    }

    #[test]
    fn layout_counter_mapping_is_consistent(
        mem_pages in 16u64..1024,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let layout = Layout::new(SecureConfig::poison_ivy(mem_pages * 4096));
        let da = BlockAddr::new(a % layout.data_blocks());
        let db = BlockAddr::new(b % layout.data_blocks());
        let same_page = da.page() == db.page();
        let same_counter = layout.counter_block_of(da) == layout.counter_block_of(db);
        // Split counters: same page <=> same counter block.
        prop_assert_eq!(same_page, same_counter);
        // Hash blocks group exactly eight consecutive data blocks.
        let same_hash = layout.hash_block_of(da) == layout.hash_block_of(db);
        prop_assert_eq!(da.index() / 8 == db.index() / 8, same_hash);
    }
}
