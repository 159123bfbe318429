//! Bounded differential tier: production `SecureSim` vs the executable
//! specification in `maps-oracle`, in lockstep, across every replacement
//! policy × {secure split-counter, secure SGX, metadata-cache-off} plus
//! partition modes, partial writes, and the adversarial workload
//! generators.
//!
//! Trace lengths are sized to keep the whole suite well under a minute in
//! `cargo test -q`; setting `MAPS_DEEP_DIFF=1` multiplies them 50× for the
//! nightly long-fuzz tier. Any divergence is automatically minimized and
//! dumped as a replayable artifact under `results/failures/` (see
//! `maps_oracle::diff`).
//!
//! `SecureSim` hands each core access's LLC events to
//! `MetadataEngine::handle_batch`, the same kernel capture replay runs, so
//! the lockstep checks the kernel every sweep uses. A second differential
//! axis lives here too: capture replay vs the direct `SecureSim` run of the
//! same workload, across the same policy × mode matrix and the adversarial
//! storm generators at batch sizes chosen to straddle cascade and overflow
//! bursts.

use maps_cache::Partition;
use maps_oracle::diff::{
    check_case, failures_dir, ops_from_workload, random_ops, replay_artifact, scaled_len, DiffCase,
};
use maps_secure::CounterMode;
use maps_sim::{
    CacheContents, CapturedTrace, MdcConfig, MdcDesign, PartitionMode, PolicyChoice, ReplaySim,
    SecureSim, SimConfig, DEFAULT_BATCH_EVENTS,
};
use maps_workloads::{Benchmark, CascadeDeepGen, OverflowHeavyGen, PartitionBoundaryGen, Workload};

/// Small hierarchy + small MDC so conflict misses, evictions, and cascades
/// happen within short traces.
fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.l1_bytes = 1024;
    cfg.l2_bytes = 2048;
    cfg.llc_bytes = 4096;
    cfg.memory_bytes = 1 << 20;
    cfg.mdc = MdcConfig::paper_default().with_size(2048);
    cfg
}

/// Every runtime-selectable replacement policy. `Min`/`TraceMin` carry the
/// empty-trace sentinel: the harness derives their oracle trace from the
/// case deterministically.
fn all_policies() -> Vec<PolicyChoice> {
    vec![
        PolicyChoice::PseudoLru,
        PolicyChoice::TrueLru,
        PolicyChoice::Fifo,
        PolicyChoice::Random(0xD1FF),
        PolicyChoice::Srrip,
        PolicyChoice::Eva,
        PolicyChoice::Min(Vec::new()),
        PolicyChoice::TraceMin(Vec::new()),
        PolicyChoice::CostAware(5),
        PolicyChoice::Drrip,
        PolicyChoice::EvaPerType,
    ]
}

fn run(label: &str, seed: u64, cfg: SimConfig, ops: Vec<maps_oracle::TraceOp>) {
    run_tenants(label, seed, cfg, ops, 1);
}

fn run_tenants(
    label: &str,
    seed: u64,
    cfg: SimConfig,
    ops: Vec<maps_oracle::TraceOp>,
    tenants: usize,
) {
    let case = DiffCase {
        label: label.to_string(),
        seed,
        cfg,
        ops,
        tenants,
    };
    if let Err(e) = check_case(&case) {
        panic!("{e}");
    }
}

#[test]
fn every_policy_secure_split_counters() {
    let n = scaled_len(500);
    for (i, policy) in all_policies().into_iter().enumerate() {
        let seed = 0x5EC0 + i as u64;
        let mut cfg = base_cfg();
        let label = format!("policy-{}-pi", policy.name());
        cfg.mdc.policy = policy;
        run(&label, seed, cfg, random_ops(seed, 2048, n, 40));
    }
}

#[test]
fn every_policy_secure_sgx() {
    let n = scaled_len(400);
    for (i, policy) in all_policies().into_iter().enumerate() {
        let seed = 0x5360 + i as u64;
        let mut cfg = base_cfg();
        cfg.counter_mode = CounterMode::SgxMonolithic;
        let label = format!("policy-{}-sgx", policy.name());
        cfg.mdc.policy = policy;
        run(&label, seed, cfg, random_ops(seed, 2048, n, 40));
    }
}

#[test]
fn metadata_cache_off() {
    // Without an MDC the policy is irrelevant; cover both counter modes
    // and the insecure baseline.
    let n = scaled_len(500);
    let mut cfg = base_cfg();
    cfg.mdc = MdcConfig::disabled();
    run(
        "mdc-off-pi",
        0x0FF,
        cfg.clone(),
        random_ops(0x0FF, 2048, n, 40),
    );
    cfg.counter_mode = CounterMode::SgxMonolithic;
    run("mdc-off-sgx", 0x0FE, cfg, random_ops(0x0FE, 2048, n, 40));
    let insecure = SimConfig::insecure_baseline();
    run("insecure", 0x0FD, insecure, random_ops(0x0FD, 2048, n, 40));
}

#[test]
fn contents_subsets_and_partial_writes() {
    let n = scaled_len(400);
    for (i, contents) in [
        CacheContents::COUNTERS_ONLY,
        CacheContents::COUNTERS_AND_HASHES,
        CacheContents::NONE,
    ]
    .into_iter()
    .enumerate()
    {
        let seed = 0xC0 + i as u64;
        let mut cfg = base_cfg();
        cfg.mdc.contents = contents;
        run(
            &format!("contents-{}", contents.label().replace('+', "-")),
            seed,
            cfg,
            random_ops(seed, 2048, n, 40),
        );
    }
    let mut cfg = base_cfg();
    cfg.mdc.partial_writes = true;
    run("partial-writes", 0xA7, cfg, random_ops(0xA7, 2048, n, 50));
}

#[test]
fn partition_modes() {
    let n = scaled_len(400);
    let mut cfg = base_cfg();
    cfg.mdc.partition = PartitionMode::Static(Partition::counter_ways(3));
    run(
        "partition-static",
        0x57A,
        cfg,
        random_ops(0x57A, 2048, n, 40),
    );

    let mut cfg = base_cfg();
    cfg.mdc.partition = PartitionMode::Dynamic {
        a: Partition::counter_ways(2),
        b: Partition::counter_ways(6),
        leaders_per_side: 1,
    };
    run(
        "partition-dynamic",
        0xD7A,
        cfg,
        random_ops(0xD7A, 2048, n, 40),
    );
}

#[test]
fn randomized_design_every_policy_and_mode() {
    // The randomized fully-associative backend ignores the replacement
    // policy, but the policy still shapes the surrounding config plumbing
    // (MIN sentinel materialization included), so sweep the whole matrix:
    // every policy × both counter modes against the naive spec.
    let n = scaled_len(350);
    for (i, policy) in all_policies().into_iter().enumerate() {
        for (mode, tag) in [
            (CounterMode::SplitPi, "pi"),
            (CounterMode::SgxMonolithic, "sgx"),
        ] {
            let seed = 0x7A4D + (i as u64) * 2 + u64::from(mode == CounterMode::SgxMonolithic);
            let mut cfg = base_cfg();
            cfg.counter_mode = mode;
            let label = format!("rand-{}-{}", policy.name(), tag);
            cfg.mdc.policy = policy.clone();
            cfg.mdc = cfg.mdc.with_design(MdcDesign::Randomized {
                seed: 0x11CE + i as u64,
            });
            run(&label, seed, cfg, random_ops(seed, 2048, n, 40));
        }
    }
}

#[test]
fn randomized_design_partial_writes_and_contents() {
    let n = scaled_len(400);
    let mut cfg = base_cfg();
    cfg.mdc = cfg.mdc.with_design(MdcDesign::Randomized { seed: 0xBEE });
    cfg.mdc.partial_writes = true;
    run(
        "rand-partial-writes",
        0xB1,
        cfg,
        random_ops(0xB1, 2048, n, 50),
    );
    let mut cfg = base_cfg();
    cfg.mdc = cfg.mdc.with_design(MdcDesign::Randomized { seed: 0xBEF });
    cfg.mdc.contents = CacheContents::COUNTERS_ONLY;
    run(
        "rand-counters-only",
        0xB2,
        cfg,
        random_ops(0xB2, 2048, n, 40),
    );
}

#[test]
fn multi_tenant_shared_and_partitioned() {
    // Tenant attribution must not perturb simulated behavior in a shared
    // cache, and per-tenant way splits / randomized quotas must agree
    // with the spec under an interleaved multi-tenant stream.
    let n = scaled_len(500);
    run_tenants(
        "tenants-shared",
        0x7E0,
        base_cfg(),
        random_ops(0x7E0, 2048, n, 40),
        3,
    );

    let mut cfg = base_cfg();
    cfg.mdc = cfg
        .mdc
        .with_partition(PartitionMode::PerTenant { tenants: 2 });
    run_tenants(
        "tenants-split-setassoc",
        0x7E1,
        cfg,
        random_ops(0x7E1, 2048, n, 40),
        2,
    );

    let mut cfg = base_cfg();
    cfg.mdc = cfg
        .mdc
        .with_design(MdcDesign::Randomized { seed: 0x9A })
        .with_partition(PartitionMode::PerTenant { tenants: 2 });
    run_tenants(
        "tenants-quota-randomized",
        0x7E2,
        cfg,
        random_ops(0x7E2, 2048, n, 40),
        2,
    );

    // More tenants than the round-robin stream strictly needs: ids above
    // the partition count still land somewhere legal via wrap-around.
    let mut cfg = base_cfg();
    cfg.mdc = cfg
        .mdc
        .with_partition(PartitionMode::PerTenant { tenants: 4 });
    run_tenants(
        "tenants-wraparound",
        0x7E3,
        cfg,
        random_ops(0x7E3, 2048, n, 40),
        7,
    );
}

#[test]
fn adversarial_generators() {
    let n = scaled_len(600);
    run(
        "adv-overflow",
        11,
        base_cfg(),
        ops_from_workload(OverflowHeavyGen::new(11, 4, 2), n),
    );
    run(
        "adv-cascade",
        12,
        base_cfg(),
        ops_from_workload(CascadeDeepGen::new(12, 64, 4), n),
    );
    let mut cfg = base_cfg();
    cfg.mdc.partition = PartitionMode::Dynamic {
        a: Partition::counter_ways(2),
        b: Partition::counter_ways(6),
        leaders_per_side: 1,
    };
    run(
        "adv-partition",
        13,
        cfg,
        ops_from_workload(PartitionBoundaryGen::new(13, 32, 150), n),
    );
}

#[test]
fn benchmark_profile_trace() {
    // One realistic (non-adversarial) stream to cover locality patterns
    // the uniform generator misses.
    let n = scaled_len(800);
    run(
        "bench-gups",
        21,
        base_cfg(),
        ops_from_workload(Benchmark::Gups.build(21), n),
    );
}

/// Asserts replaying `trace` at every batch size in `batches` reproduces
/// the direct `SecureSim` run of `workload` (the workload `trace` was
/// recorded from) bit-for-bit — full [`maps_sim::SimReport`] equality,
/// cycles included.
fn replay_matches_direct<W: Workload>(
    label: &str,
    cfg: &SimConfig,
    trace: &CapturedTrace,
    workload: W,
    batches: &[usize],
) {
    let direct = SecureSim::new(cfg.clone(), workload).run(trace.accesses());
    for &batch in batches {
        let replayed = ReplaySim::new(cfg.clone(), trace)
            .with_batch_size(batch)
            .run();
        assert_eq!(
            replayed, direct,
            "{label}: replay at batch size {batch} diverged from direct"
        );
    }
}

#[test]
fn batched_replay_every_policy_and_mode() {
    // A capture depends only on the front end, so one recording serves
    // every back-end point: all policies × both counter modes, MDC-off,
    // and the insecure baseline.
    let accesses = scaled_len(4_000) as u64;
    let base = base_cfg();
    let workload = || Benchmark::Gups.build(0xBA7C);
    let trace = CapturedTrace::record(&base, workload(), accesses);
    let check = |label: &str, cfg: &SimConfig| {
        replay_matches_direct(label, cfg, &trace, workload(), &[DEFAULT_BATCH_EVENTS]);
    };
    for (i, policy) in all_policies().into_iter().enumerate() {
        for (mode, tag) in [
            (CounterMode::SplitPi, "pi"),
            (CounterMode::SgxMonolithic, "sgx"),
        ] {
            let mut cfg = base.clone();
            cfg.mdc.policy = policy.clone();
            cfg.counter_mode = mode;
            check(&format!("batch-{}-{}-{}", i, policy.name(), tag), &cfg);
        }
    }
    let mut off = base.clone();
    off.mdc = MdcConfig::disabled();
    check("batch-mdc-off", &off);
    let mut insecure = base.clone();
    insecure.secure = false;
    insecure.mdc = MdcConfig::disabled();
    check("batch-insecure", &insecure);
}

#[test]
fn batched_replay_boundary_straddling_storms() {
    // Overflow re-encryption bursts and deep BMT cascades must not care
    // where a batch boundary falls: every batch size — including ones
    // guaranteed to split a cascade mid-storm — reproduces the direct
    // report exactly.
    let accesses = scaled_len(3_000) as u64;
    let base = base_cfg();
    let batches = [1usize, 3, 8, 255, 256, 511, 512];
    let overflow = || OverflowHeavyGen::new(11, 4, 2);
    let cascade = || CascadeDeepGen::new(12, 64, 4);
    let trace = CapturedTrace::record(&base, overflow(), accesses);
    replay_matches_direct("storm-overflow", &base, &trace, overflow(), &batches);
    let trace = CapturedTrace::record(&base, cascade(), accesses);
    replay_matches_direct("storm-cascade", &base, &trace, cascade(), &batches);
}

#[test]
fn replay_failure_artifacts() {
    // Any artifact present under results/failures/ must still parse and
    // replay; this is also the entry point named in artifact headers.
    let dir = failures_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no failures directory: nothing to replay
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "trace") {
            // The artifact documents a historical divergence; replay must
            // at minimum parse and execute. A passing replay means the bug
            // it captured has been fixed (fine); a parse error means the
            // artifact format broke (not fine).
            let _divergence =
                replay_artifact(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
}
