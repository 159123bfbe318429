//! Property tests for the workload generators.

use maps_trace::TraceStats;
use maps_workloads::{Benchmark, RandomGen, StreamGen, Workload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generators_are_deterministic_per_seed(seed in 0u64..1000) {
        for bench in [Benchmark::Canneal, Benchmark::Fft, Benchmark::Perl] {
            let mut a = bench.build(seed);
            let mut b = bench.build(seed);
            for _ in 0..200 {
                prop_assert_eq!(a.next_access(), b.next_access());
            }
        }
    }

    #[test]
    fn accesses_stay_in_footprint_for_every_profile(
        seed in 0u64..100,
        n in 100usize..1000,
    ) {
        for bench in Benchmark::ALL {
            let mut wl = bench.build(seed);
            let footprint = wl.footprint_bytes();
            for _ in 0..n {
                let a = wl.next_access();
                prop_assert!(a.addr.bytes() < footprint, "{}: out of bounds", bench);
                prop_assert!(a.icount >= 1, "{}: zero instruction gap", bench);
            }
        }
    }

    #[test]
    fn stream_visits_every_block_once_per_lap(
        blocks in 8u64..256,
        seed in 0u64..50,
    ) {
        let mut g = StreamGen::new("s", seed, blocks * 64, 1, 0.0, 4);
        let mut seen = vec![false; blocks as usize];
        for _ in 0..blocks {
            let b = g.next_access().addr.block().index();
            prop_assert!(!seen[b as usize], "block {} revisited within a lap", b);
            seen[b as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn write_fraction_converges(target in 0.0f64..1.0, seed in 0u64..20) {
        let mut g = RandomGen::new("r", seed, 1 << 20, target, 4, 0.0, 1);
        let mut stats = TraceStats::new();
        for _ in 0..20_000 {
            stats.record(&g.next_access());
        }
        prop_assert!((stats.write_fraction() - target).abs() < 0.03);
    }

    #[test]
    fn memory_intensive_profiles_have_large_footprints(seed in 0u64..10) {
        for bench in Benchmark::memory_intensive() {
            let wl = bench.build(seed);
            // Must exceed the 2 MB LLC to sustain MPKI > 10.
            prop_assert!(
                wl.footprint_bytes() > 2 << 20,
                "{}: footprint too small",
                bench
            );
        }
    }
}
