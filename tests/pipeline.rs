//! End-to-end pipeline tests: every workload profile through the full
//! secure-memory simulation, with cross-crate consistency invariants.

use maps::sim::{CacheContents, MdcConfig, MdcDesign, PartitionMode, SecureSim, SimConfig};
use maps::trace::MetaGroup;
use maps::workloads::{Benchmark, TenantMix, TenantSchedule};

const N: u64 = 30_000;

fn run(cfg: &SimConfig, bench: Benchmark) -> maps::sim::SimReport {
    SecureSim::new(cfg.clone(), bench.build(99)).run(N)
}

#[test]
fn every_benchmark_completes_with_consistent_totals() {
    let cfg = SimConfig::paper_default();
    for bench in Benchmark::ALL {
        let r = run(&cfg, bench);
        assert_eq!(r.workload, bench.name());
        assert!(r.instructions > 0, "{bench}: no instructions");
        assert!(
            r.cycles >= r.instructions,
            "{bench}: cycles below CPI-1 floor"
        );
        let meta = r.engine.meta.metadata_total();
        assert_eq!(
            meta.accesses,
            meta.hits + meta.misses,
            "{bench}: meta counts"
        );
        // Every data read miss produces at least a hash and counter access.
        assert!(
            meta.accesses >= 2 * r.engine.reads,
            "{bench}: too few metadata accesses for {} reads",
            r.engine.reads
        );
        assert!(r.energy.total_pj() > 0.0, "{bench}: no energy accounted");
    }
}

#[test]
fn memory_intensity_classification_matches_profiles() {
    // A longer window than the other tests: the small working sets need
    // their compulsory misses amortized before steady-state MPKI emerges.
    let cfg = SimConfig::paper_default();
    for bench in Benchmark::ALL {
        let r = SecureSim::new(cfg.clone(), bench.build(99)).run(5 * N);
        if bench.is_memory_intensive() {
            assert!(
                r.llc_mpki() > 10.0,
                "{bench}: expected MPKI > 10, got {:.1}",
                r.llc_mpki()
            );
        } else {
            assert!(
                r.llc_mpki() < 15.0,
                "{bench}: expected modest MPKI, got {:.1}",
                r.llc_mpki()
            );
        }
    }
}

#[test]
fn secure_memory_strictly_costs_more_than_insecure() {
    for bench in [Benchmark::Libquantum, Benchmark::Canneal, Benchmark::Fft] {
        let secure = run(&SimConfig::paper_default(), bench);
        let insecure = run(&SimConfig::insecure_baseline(), bench);
        assert!(secure.cycles >= insecure.cycles, "{bench}: cycles");
        assert!(
            secure.energy.total_pj() > insecure.energy.total_pj(),
            "{bench}: energy"
        );
        assert!(secure.ed2() > insecure.ed2(), "{bench}: ED^2");
    }
}

#[test]
fn metadata_cache_monotonically_reduces_dram_traffic() {
    let base = SimConfig::paper_default();
    for bench in [Benchmark::Libquantum, Benchmark::Leslie3d] {
        let sizes = [0u64, 16 << 10, 256 << 10];
        let traffic: Vec<u64> = sizes
            .iter()
            .map(|&s| {
                let cfg = base.with_mdc(if s == 0 {
                    MdcConfig::disabled()
                } else {
                    base.mdc.with_size(s)
                });
                run(&cfg, bench).engine.dram_meta.total()
            })
            .collect();
        assert!(
            traffic[0] > traffic[1] && traffic[1] >= traffic[2],
            "{bench}: metadata DRAM traffic not decreasing: {traffic:?}"
        );
    }
}

#[test]
fn counter_hit_rate_benefits_from_page_coverage() {
    // Split counters: one block covers a 4 KB page, so page-local streams
    // hit on 63 of 64 accesses even with a tiny cache.
    let cfg = SimConfig::paper_default().with_mdc(MdcConfig::paper_default().with_size(16 << 10));
    let r = run(&cfg, Benchmark::Libquantum);
    let ctr = r.engine.meta.kind(maps::trace::BlockKind::Counter);
    assert!(
        ctr.hits as f64 > 0.9 * ctr.accesses as f64,
        "counter hit rate too low: {}/{}",
        ctr.hits,
        ctr.accesses
    );
}

#[test]
fn excluding_a_type_forces_all_its_accesses_to_memory() {
    let base = SimConfig::paper_default();
    let cfg = base.with_mdc(base.mdc.with_contents(CacheContents::COUNTERS_ONLY));
    let r = run(&cfg, Benchmark::Fft);
    let hash = r.engine.meta.kind(maps::trace::BlockKind::Hash);
    assert_eq!(hash.hits, 0, "hashes must never hit when not cacheable");
    assert!(r.group_mpki(MetaGroup::Hash) > 0.0);
}

#[test]
fn deterministic_across_runs() {
    let cfg = SimConfig::paper_default();
    let a = run(&cfg, Benchmark::Mcf);
    let b = run(&cfg, Benchmark::Mcf);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.engine.dram_meta.total(), b.engine.dram_meta.total());
    assert_eq!(
        a.engine.meta.metadata_total().misses,
        b.engine.meta.metadata_total().misses
    );
}

#[test]
fn tree_walks_only_follow_counter_misses() {
    let r = run(&SimConfig::paper_default(), Benchmark::Gups);
    let ctr_misses = r.engine.meta.kind(maps::trace::BlockKind::Counter).misses;
    assert!(
        r.engine.tree_walks <= ctr_misses,
        "walks {} exceed counter misses {}",
        r.engine.tree_walks,
        ctr_misses
    );
    assert!(r.engine.tree_walks > 0, "gups must miss counters");
}

#[test]
fn two_tenant_ledger_rows_are_pinned() {
    // gups (tenant 0) and mcf (tenant 1) interleaved per access. Each
    // case pins the report's per-tenant rows as compact JSON, so any
    // change to how the metadata cache books accesses, evictions or
    // line owners shows up here.
    let set = MdcDesign::SetAssoc;
    let rand = MdcDesign::Randomized { seed: 0x5EED };
    let shared = PartitionMode::None;
    let split = PartitionMode::PerTenant { tenants: 2 };
    let cases = [
        (set, shared, false, SET_SHARED),
        (set, shared, true, SET_SHARED),
        (set, split, false, SET_SPLIT),
        (set, split, true, SET_SPLIT_PARTIAL),
        (rand, shared, false, RAND_SHARED),
        (rand, shared, true, RAND_SHARED),
        (rand, split, false, RAND_SPLIT),
        (rand, split, true, RAND_SPLIT),
    ];
    for (design, partition, partial_writes, want) in cases {
        let mut cfg = SimConfig::paper_default();
        cfg.mdc = cfg.mdc.with_design(design).with_partition(partition);
        cfg.mdc.partial_writes = partial_writes;
        let mix = TenantMix::new(
            vec![Benchmark::Gups.build(99), Benchmark::Mcf.build(99)],
            TenantSchedule::CoreSharded,
        );
        let report = SecureSim::new(cfg, mix).run(20_000);
        let rows = report.to_json().get("tenants").map(|t| t.to_compact());
        assert_eq!(
            rows.as_deref(),
            Some(want),
            "{design:?} {partition:?} partial_writes={partial_writes}"
        );
    }
}

const SET_SHARED: &str = r#"[{"tenant":0,"meta":{"buckets":[[0,0,0,0,0],[8970,62,8908,9074,12],[8970,5,8965,9218,11],[23612,8922,14690,14271,39]]},"occupancy":517},{"tenant":1,"meta":{"buckets":[[0,0,0,0,0],[8987,107,8880,8702,4],[8987,8,8979,8720,5],[22064,8889,13175,13612,20]]},"occupancy":507}]"#;
const SET_SPLIT: &str = r#"[{"tenant":0,"meta":{"buckets":[[0,0,0,0,0],[8970,58,8912,8917,12],[8970,6,8964,8967,12],[23807,8937,14870,14862,51]]},"occupancy":512},{"tenant":1,"meta":{"buckets":[[0,0,0,0,0],[8987,109,8878,8872,5],[8987,7,8980,8972,5],[22074,8882,13192,13206,9]]},"occupancy":512}]"#;
const SET_SPLIT_PARTIAL: &str = r#"[{"tenant":0,"meta":{"buckets":[[0,0,0,0,0],[8970,58,8912,8917,12],[8970,6,8964,8967,12],[23806,8937,14869,14861,51]]},"occupancy":512},{"tenant":1,"meta":{"buckets":[[0,0,0,0,0],[8987,109,8878,8872,5],[8987,7,8980,8972,5],[22075,8882,13193,13207,9]]},"occupancy":512}]"#;
const RAND_SHARED: &str = r#"[{"tenant":0,"meta":{"buckets":[[0,0,0,0,0],[8970,66,8904,9185,14],[8970,8,8962,9194,8],[24748,8918,15830,15317,30]]},"occupancy":534},{"tenant":1,"meta":{"buckets":[[0,0,0,0,0],[8987,107,8880,8616,2],[8987,7,8980,8760,8],[23275,8899,14376,14860,40]]},"occupancy":490}]"#;
const RAND_SPLIT: &str = r#"[{"tenant":0,"meta":{"buckets":[[0,0,0,0,0],[8970,67,8903,8888,12],[8970,7,8963,8965,12],[24861,8923,15938,15951,48]]},"occupancy":512},{"tenant":1,"meta":{"buckets":[[0,0,0,0,0],[8987,111,8876,8888,4],[8987,9,8978,8970,4],[23239,8875,14364,14360,17]]},"occupancy":512}]"#;
