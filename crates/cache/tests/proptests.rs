//! Property tests for the cache substrate and its policies.

use maps_cache::policy::{AnyPolicy, Policy, TrueLru};
use maps_cache::{belady_misses, CacheConfig, Partition, SetAssocCache};
use maps_trace::BlockKind;
use proptest::prelude::*;

fn run_hits<P: Policy>(cache: &mut SetAssocCache<P>, keys: &[u64]) -> u64 {
    keys.iter()
        .filter(|&&k| cache.access(k, BlockKind::Data, false).hit)
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn hit_iff_recently_resident(keys in prop::collection::vec(0u64..64, 1..300)) {
        // Reference model: fully-associative LRU as an ordered list.
        let mut cache = SetAssocCache::new(CacheConfig::from_bytes(512, 8), TrueLru::new());
        let mut model: Vec<u64> = Vec::new();
        for &k in &keys {
            let expect_hit = model.contains(&k);
            let got = cache.access(k, BlockKind::Data, false);
            prop_assert_eq!(got.hit, expect_hit, "key {}", k);
            model.retain(|&m| m != k);
            model.push(k);
            if model.len() > 8 {
                let victim = model.remove(0);
                prop_assert_eq!(got.evicted.map(|l| l.key), Some(victim));
            }
        }
    }

    #[test]
    fn lru_inclusion_property_fully_associative(
        keys in prop::collection::vec(0u64..128, 1..400),
    ) {
        let mut small = SetAssocCache::new(CacheConfig::from_bytes(256, 4), TrueLru::new());
        let mut large = SetAssocCache::new(CacheConfig::from_bytes(1024, 16), TrueLru::new());
        for &k in &keys {
            let hs = small.access(k, BlockKind::Data, false).hit;
            let hl = large.access(k, BlockKind::Data, false).hit;
            prop_assert!(!hs || hl, "inclusion violated for key {}", k);
        }
    }

    #[test]
    fn belady_dominates_every_online_policy(
        keys in prop::collection::vec(0u64..24, 1..200),
    ) {
        let online = [
            AnyPolicy::true_lru(),
            AnyPolicy::pseudo_lru(),
            AnyPolicy::fifo(),
            AnyPolicy::random(3),
            AnyPolicy::srrip(),
        ];
        let optimal = belady_misses(&keys, 4);
        for policy in online {
            let mut cache = SetAssocCache::new(CacheConfig::from_bytes(256, 4), policy);
            let hits = run_hits(&mut cache, &keys);
            let misses = keys.len() as u64 - hits;
            prop_assert!(
                misses >= optimal,
                "{} beat Belady: {} < {}",
                cache.policy().name(),
                misses,
                optimal
            );
        }
    }

    #[test]
    fn stats_balance_for_every_policy(
        keys in prop::collection::vec(0u64..256, 1..300),
        seed in 0u64..10,
    ) {
        for policy in [
            AnyPolicy::true_lru(),
            AnyPolicy::pseudo_lru(),
            AnyPolicy::random(seed),
            AnyPolicy::eva(),
            AnyPolicy::srrip(),
        ] {
            let mut cache = SetAssocCache::new(CacheConfig::from_bytes(1024, 4), policy);
            for &k in &keys {
                cache.access(k, BlockKind::Data, k % 3 == 0);
            }
            let t = cache.stats().total();
            prop_assert_eq!(t.accesses, keys.len() as u64);
            prop_assert_eq!(t.accesses, t.hits + t.misses);
            prop_assert_eq!(
                cache.occupancy() as u64 + t.evictions,
                t.misses,
                "fills = evictions + residents"
            );
        }
    }

    #[test]
    fn partition_confines_counters_and_hashes(
        counters in prop::collection::vec(0u64..512, 1..150),
        hashes in prop::collection::vec(512u64..1024, 1..150),
        split in 1usize..8,
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::from_bytes(512, 8), TrueLru::new());
        cache.set_partition(Some(Partition::counter_ways(split)));
        for (&c, &h) in counters.iter().zip(hashes.iter().cycle()) {
            cache.access(c, BlockKind::Counter, false);
            cache.access(h, BlockKind::Hash, false);
        }
        let resident_counters =
            cache.resident_lines().filter(|l| l.kind == BlockKind::Counter).count();
        let resident_hashes =
            cache.resident_lines().filter(|l| l.kind == BlockKind::Hash).count();
        prop_assert!(resident_counters <= split, "{} counters > {} ways", resident_counters, split);
        prop_assert!(resident_hashes <= 8 - split);
    }

    #[test]
    fn placeholder_masks_accumulate_monotonically(
        slots in prop::collection::vec(0u8..8, 1..20),
    ) {
        let mut cache = SetAssocCache::new(CacheConfig::from_bytes(64, 1), TrueLru::new());
        cache.insert_placeholder(1, BlockKind::Hash, slots[0], None);
        let mut prev = cache.line(1).expect("resident").valid_mask;
        for &s in &slots[1..] {
            let mask = cache.mark_valid(1, s).expect("still resident");
            prop_assert_eq!(mask & prev, prev, "bits must never clear");
            prop_assert_ne!(mask & (1 << s), 0);
            prev = mask;
        }
    }

    #[test]
    fn invalidate_then_access_misses(keys in prop::collection::vec(0u64..32, 1..100)) {
        let mut cache = SetAssocCache::new(CacheConfig::from_bytes(2048, 8), TrueLru::new());
        for &k in &keys {
            cache.access(k, BlockKind::Data, false);
        }
        let target = keys[keys.len() / 2];
        prop_assert!(cache.invalidate(target).is_some());
        prop_assert!(!cache.access(target, BlockKind::Data, false).hit);
    }
}
