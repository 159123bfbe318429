//! Property tests for the analysis primitives.

use maps_analysis::{geometric_mean, Cdf, ClassCounts, Fenwick, ReuseClass, ReuseProfiler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fenwick_matches_naive_prefix_sums(
        updates in prop::collection::vec((0usize..256, -50i64..50), 1..200),
    ) {
        let mut f = Fenwick::new();
        let mut naive = vec![0i64; 256];
        for &(i, d) in &updates {
            f.add(i, d);
            naive[i] += d;
        }
        let mut run = 0;
        for (i, &v) in naive.iter().enumerate() {
            run += v;
            prop_assert_eq!(f.prefix_sum(i), run);
        }
        prop_assert_eq!(f.total(), run);
    }

    #[test]
    fn fenwick_range_sums_consistent(
        updates in prop::collection::vec((0usize..128, 0i64..10), 1..100),
        lo in 0usize..128,
        hi in 0usize..128,
    ) {
        let mut f = Fenwick::new();
        for &(i, d) in &updates {
            f.add(i, d);
        }
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let split = (lo + hi) / 2;
        prop_assert_eq!(
            f.range_sum(lo, hi),
            f.range_sum(lo, split) + f.range_sum(split + 1, hi)
        );
    }

    #[test]
    fn cdf_is_monotone_and_normalized(samples in prop::collection::vec(0u64..10_000, 1..300)) {
        let cdf = Cdf::from_values(samples.iter().copied());
        let max = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(cdf.fraction_at_or_below(max), 1.0);
        let mut prev = 0.0;
        for x in (0..=max).step_by((max as usize / 17).max(1)) {
            let f = cdf.fraction_at_or_below(x);
            prop_assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn cdf_quantiles_are_inverse_of_fractions(
        samples in prop::collection::vec(0u64..1000, 1..200),
        q in 0.01f64..1.0,
    ) {
        let cdf = Cdf::from_values(samples.iter().copied());
        let v = cdf.quantile(q).expect("non-empty");
        prop_assert!(cdf.fraction_at_or_below(v) >= q - 1e-9);
    }

    #[test]
    fn class_fractions_sum_to_one(distances in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut c = ClassCounts::new();
        for &d in &distances {
            c.add_distance(d);
        }
        let total: f64 = ReuseClass::ALL.iter().map(|&cl| c.fraction(cl)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(c.warm_total(), distances.len() as u64);
    }

    #[test]
    fn profiler_total_accounting(keys in prop::collection::vec(0u64..50, 1..400)) {
        let mut p = ReuseProfiler::new();
        for &k in &keys {
            p.observe(k);
        }
        prop_assert_eq!(
            p.accesses(),
            p.cold_misses() + p.distances().len() as u64
        );
        // The CDF and class counts see exactly the warm accesses.
        prop_assert_eq!(p.cdf().len(), p.distances().len());
        prop_assert_eq!(p.class_counts().warm_total(), p.distances().len() as u64);
    }

    #[test]
    fn geometric_mean_between_min_and_max(values in prop::collection::vec(0.1f64..1000.0, 1..50)) {
        let g = geometric_mean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min * 0.999 && g <= max * 1.001, "{} not in [{}, {}]", g, min, max);
    }
}
