//! Property tests for the secure-memory layout and counter state.

use maps_secure::{CounterMode, CounterStore, Layout, SecureConfig, WriteOutcome};
use maps_trace::{BlockAddr, BlockKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_block_classifies_into_exactly_one_region(
        mem_pages in 16u64..2048,
        probe in 0u64..5_000_000,
    ) {
        let layout = Layout::new(SecureConfig::poison_ivy(mem_pages * 4096));
        let total = layout.data_blocks() + layout.metadata_blocks();
        let block = BlockAddr::new(probe % total);
        // kind_of must not panic for any in-range block, and regions are
        // recovered consistently.
        let kind = layout.kind_of(block);
        match kind {
            BlockKind::Data => prop_assert!(block.index() < layout.data_blocks()),
            BlockKind::Counter | BlockKind::Hash | BlockKind::Tree(_) => {
                prop_assert!(block.index() >= layout.data_blocks());
            }
        }
    }

    #[test]
    fn tree_paths_ascend_levels_and_shrink(
        mem_pages in 64u64..4096,
        data in 0u64..1_000_000,
    ) {
        let layout = Layout::new(SecureConfig::poison_ivy(mem_pages * 4096));
        let ctr = layout.counter_block_of(BlockAddr::new(data % layout.data_blocks()));
        let path: Vec<_> = layout.tree_path_of_counter(ctr).collect();
        prop_assert_eq!(path.len(), layout.tree_levels());
        for (level, node) in path.iter().enumerate() {
            let (l, off) = layout.tree_position(*node);
            prop_assert_eq!(l, level);
            prop_assert!(off < layout.tree_level_size(level));
        }
        // Level sizes shrink by the arity.
        for l in 1..layout.tree_levels() {
            prop_assert!(layout.tree_level_size(l) < layout.tree_level_size(l - 1));
        }
    }

    #[test]
    fn siblings_converge_to_shared_ancestors(
        mem_pages in 64u64..1024,
        a in 0u64..500_000,
        b in 0u64..500_000,
    ) {
        let layout = Layout::new(SecureConfig::poison_ivy(mem_pages * 4096));
        let ca = layout.counter_block_of(BlockAddr::new(a % layout.data_blocks()));
        let cb = layout.counter_block_of(BlockAddr::new(b % layout.data_blocks()));
        let pa: Vec<_> = layout.tree_path_of_counter(ca).collect();
        let pb: Vec<_> = layout.tree_path_of_counter(cb).collect();
        // Once the paths meet they must stay together (tree property).
        let mut met = false;
        for (x, y) in pa.iter().zip(&pb) {
            if met {
                prop_assert_eq!(x, y, "paths diverged after meeting");
            }
            met = met || x == y;
        }
    }

    #[test]
    fn data_protected_grows_with_tree_level(
        mem_pages in 256u64..4096,
        level in 0u8..4,
    ) {
        for cfg in [
            SecureConfig::poison_ivy(mem_pages * 4096),
            SecureConfig::sgx(mem_pages * 4096),
        ] {
            let layout = Layout::new(cfg);
            let child = layout.data_protected_by(BlockKind::Tree(level));
            let parent = layout.data_protected_by(BlockKind::Tree(level + 1));
            prop_assert_eq!(parent, 8 * child);
        }
    }

    #[test]
    fn split_counter_overflows_exactly_every_128_writes(
        block in 0u64..10_000,
        extra in 1u64..127,
    ) {
        let mut store = CounterStore::new(CounterMode::SplitPi);
        let b = BlockAddr::new(block);
        let mut overflows = 0;
        for _ in 0..(256 + extra) {
            if matches!(store.record_write(b), WriteOutcome::PageOverflow { .. }) {
                overflows += 1;
            }
        }
        prop_assert_eq!(overflows, store.overflows());
        prop_assert_eq!(overflows, 2);
        prop_assert_eq!(store.block_counter(b), extra);
    }

    #[test]
    fn sgx_counter_is_exact_write_count(
        writes in prop::collection::vec(0u64..64, 1..300),
    ) {
        let mut store = CounterStore::new(CounterMode::SgxMonolithic);
        for &w in &writes {
            prop_assert_eq!(store.record_write(BlockAddr::new(w)), WriteOutcome::Incremented);
        }
        for target in 0u64..64 {
            let expect = writes.iter().filter(|&&w| w == target).count() as u64;
            prop_assert_eq!(store.block_counter(BlockAddr::new(target)), expect);
        }
    }

    #[test]
    fn hash_slots_partition_data_blocks(data in 0u64..1_000_000u64) {
        let layout = Layout::new(SecureConfig::poison_ivy(256 << 20));
        let block = BlockAddr::new(data % layout.data_blocks());
        let slot = layout.hash_slot_of(block);
        prop_assert!(slot < 8);
        prop_assert_eq!(u64::from(slot), block.index() % 8);
    }
}
