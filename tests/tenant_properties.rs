//! Property tests for tenant attribution: the per-tenant ledger must
//! conserve the global metadata-cache counters for arbitrary access
//! interleavings, across both structural designs and every partition
//! mode; partitions must additionally bound each tenant's occupancy by
//! its static share.

use maps::cache::{CacheStats, TenantPartition};
use maps::sim::{MdcConfig, MdcDesign, MetadataCache, PartitionMode, SecureSim, SimConfig};
use maps::trace::{BlockKind, TenantId};
use maps_oracle::diff::{OpsWorkload, TraceOp};
use proptest::prelude::*;

fn kind_of(sel: u8) -> BlockKind {
    match sel % 4 {
        0 => BlockKind::Counter,
        1 => BlockKind::Hash,
        2 => BlockKind::Tree(0),
        _ => BlockKind::Tree(1),
    }
}

fn small_cfg(mdc: MdcConfig) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.l1_bytes = 1024;
    cfg.l2_bytes = 2048;
    cfg.llc_bytes = 4096;
    cfg.mdc = mdc;
    cfg.warmup_fraction = 0.0;
    cfg
}

fn ops_trace(accesses: &[(u16, bool)]) -> Vec<TraceOp> {
    accesses
        .iter()
        .map(|&(block, write)| {
            let b = u64::from(block);
            if write {
                TraceOp::Write(b)
            } else {
                TraceOp::Read(b)
            }
        })
        .collect()
}

// Σ per-tenant booked stats and occupancy against the report's rows.
fn tenant_sums(report: &maps::sim::SimReport) -> (CacheStats, u64) {
    let mut sum = CacheStats::default();
    let mut occupancy = 0;
    for row in &report.tenants {
        sum.accumulate(&row.meta);
        occupancy += row.occupancy;
    }
    (sum, occupancy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Driving a bare [`MetadataCache`] with arbitrary interleavings of
    // tenants, kinds, and partial writes: the tenant table's combined
    // stats equal the global counters bucket-for-bucket, and per-tenant
    // occupancy sums to exactly the resident line count — for both
    // designs and every partition mode.
    #[test]
    fn tenant_table_conserves_global_cache_stats(
        // One op per element: `((block, kind selector, write), (tenant,
        // partial, slot))` — nested pairs because tuple strategies top
        // out at four elements.
        ops in prop::collection::vec(
            ((0u64..192, 0u8..4, any::<bool>()), (0u8..4, any::<bool>(), 0u8..8)),
            30..200,
        ),
        design in prop::sample::select(vec![
            MdcDesign::SetAssoc,
            MdcDesign::Randomized { seed: 0x5EED },
            MdcDesign::Randomized { seed: 0xA11CE },
        ]),
        partition in prop::sample::select(vec![
            PartitionMode::None,
            PartitionMode::PerTenant { tenants: 2 },
            PartitionMode::PerTenant { tenants: 3 },
        ]),
        partial_writes in any::<bool>(),
    ) {
        let mut cfg = MdcConfig::paper_default()
            .with_size(4096)
            .with_design(design)
            .with_partition(partition);
        cfg.partial_writes = partial_writes;
        let mut mdc = MetadataCache::new(&cfg).expect("non-zero cache");

        for &((block, sel, write), (tenant, partial, slot)) in &ops {
            let kind = kind_of(sel);
            // Disjoint key spaces per kind, like the real block layout.
            let key = block + u64::from(sel % 4) * 4096;
            let tenant = TenantId(tenant);
            let hash_or_tree = !matches!(kind, BlockKind::Counter);
            if partial && hash_or_tree && mdc.partial_writes_enabled() {
                mdc.write_partial(key, kind, slot, tenant);
            } else {
                mdc.access(key, kind, write, tenant);
            }
        }

        let table = mdc.tenant_stats();
        prop_assert_eq!(
            table.combined(),
            *mdc.stats(),
            "per-tenant stats must sum to the global counters"
        );
        let resident = mdc.resident_lines().count() as u64;
        let booked: u64 = table.tenants().map(|t| table.occupancy(t)).sum();
        prop_assert_eq!(booked, resident, "occupancy ledger must cover every resident line");
        prop_assert_eq!(mdc.occupancy() as u64, resident);
    }

    // In shared designs (no partition), tenant attribution is pure
    // observation: re-labelling the same access stream across 1..=4
    // tenants changes nothing the simulator measures — engine counters,
    // hierarchy, cycles, energy — and the per-tenant rows of every
    // labelling sum to the same totals.
    #[test]
    fn shared_design_attribution_is_observation_only(
        accesses in prop::collection::vec((0u16..1024, any::<bool>()), 20..100),
        tenants in 2usize..=4,
        design in prop::sample::select(vec![
            MdcDesign::SetAssoc,
            MdcDesign::Randomized { seed: 0x7AB1E },
        ]),
        mdc_size in prop::sample::select(vec![2048u64, 65536]),
    ) {
        let trace = ops_trace(&accesses);
        let n = accesses.len() as u64 * 3;
        let cfg = small_cfg(
            MdcConfig::paper_default().with_size(mdc_size).with_design(design),
        );
        let run = |k: usize| {
            SecureSim::new(cfg.clone(), OpsWorkload::with_tenants(&trace, k)).run(n)
        };
        let single = run(1);
        let multi = run(tenants);

        prop_assert_eq!(&multi.engine, &single.engine, "engine counters moved with labelling");
        prop_assert_eq!(&multi.hierarchy, &single.hierarchy);
        prop_assert_eq!(multi.cycles, single.cycles);
        prop_assert_eq!(&multi.energy, &single.energy);

        let (multi_sum, multi_occ) = tenant_sums(&multi);
        let (single_sum, single_occ) = tenant_sums(&single);
        prop_assert_eq!(multi_sum, single_sum, "attributed totals must not depend on labelling");
        prop_assert_eq!(multi_occ, single_occ);
    }

    // Under a per-tenant partition with as many tenants as the
    // interleaving uses, each tenant's end-of-run occupancy respects its
    // static share — way range × sets for the set-associative design,
    // frame quota for the randomized one — and the rows stay internally
    // conserved.
    #[test]
    fn per_tenant_partitions_bound_occupancy_by_share(
        accesses in prop::collection::vec((0u16..1024, any::<bool>()), 30..120),
        tenants in 2usize..=4,
        design in prop::sample::select(vec![
            MdcDesign::SetAssoc,
            MdcDesign::Randomized { seed: 0xB0B },
        ]),
    ) {
        let trace = ops_trace(&accesses);
        let n = accesses.len() as u64 * 3;
        let mdc = MdcConfig::paper_default()
            .with_size(4096)
            .with_design(design)
            .with_partition(PartitionMode::PerTenant { tenants });
        let ways = mdc.ways;
        let capacity = (mdc.size_bytes / 64) as usize;
        let sets = capacity / ways;
        let cfg = small_cfg(mdc);
        let report =
            SecureSim::new(cfg, OpsWorkload::with_tenants(&trace, tenants)).run(n);

        let split = TenantPartition::new(tenants, ways).expect("valid split");
        let mut total_occupancy = 0;
        for row in &report.tenants {
            let total = row.meta.total();
            prop_assert_eq!(total.accesses, total.hits + total.misses);
            let share = match design {
                MdcDesign::SetAssoc => {
                    let (lo, hi) = split.ways_for(row.tenant, ways);
                    (hi - lo) * sets
                }
                MdcDesign::Randomized { .. } => split.frame_quota(capacity),
            };
            prop_assert!(
                row.occupancy <= share as u64,
                "tenant {} occupies {} lines, above its share of {}",
                row.tenant,
                row.occupancy,
                share
            );
            total_occupancy += row.occupancy;
        }
        prop_assert!(total_occupancy <= capacity as u64);
    }
}
