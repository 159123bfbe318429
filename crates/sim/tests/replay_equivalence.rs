//! Capture/replay equivalence: a [`ReplaySim`] pass over a recorded front
//! end must reproduce the direct [`SecureSim`] report **bit-identically**
//! (every counter, every energy term) across benchmarks and engine
//! configurations. This is what licenses the sweep harnesses to replay one
//! capture at every back-end point.

use maps_secure::CounterMode;
use maps_sim::{
    CapturedTrace, MdcConfig, RecordingObserver, ReplaySim, SecureSim, SimConfig, SimReport,
};
use maps_workloads::Benchmark;

const SEED: u64 = 0x4D415053;
const ACCESSES: u64 = 25_000;

const BENCHES: [Benchmark; 5] = [
    Benchmark::Canneal,
    Benchmark::Gups,
    Benchmark::Libquantum,
    Benchmark::Mcf,
    Benchmark::Fft,
];

fn direct(cfg: &SimConfig, bench: Benchmark) -> SimReport {
    SecureSim::new(cfg.clone(), bench.build(SEED)).run(ACCESSES)
}

fn replayed(cfg: &SimConfig, bench: Benchmark) -> SimReport {
    let trace = CapturedTrace::record(cfg, bench.build(SEED), ACCESSES);
    ReplaySim::new(cfg.clone(), &trace).run()
}

fn assert_equivalent(cfg: &SimConfig, label: &str) {
    for bench in BENCHES {
        let d = direct(cfg, bench);
        let r = replayed(cfg, bench);
        assert_eq!(
            d, r,
            "{label}/{bench}: replay diverged from direct simulation"
        );
        // Belt and braces on the derived metrics the figures consume.
        assert_eq!(
            d.metadata_mpki().to_bits(),
            r.metadata_mpki().to_bits(),
            "{label}/{bench}"
        );
        assert_eq!(d.ed2().to_bits(), r.ed2().to_bits(), "{label}/{bench}");
    }
}

#[test]
fn secure_default_matches() {
    assert_equivalent(&SimConfig::paper_default(), "secure");
}

#[test]
fn insecure_baseline_matches() {
    assert_equivalent(&SimConfig::insecure_baseline(), "insecure");
}

#[test]
fn mdc_disabled_matches() {
    let cfg = SimConfig::paper_default().with_mdc(MdcConfig::disabled());
    assert_equivalent(&cfg, "mdc-disabled");
}

#[test]
fn sgx_counter_mode_matches() {
    let mut cfg = SimConfig::paper_default();
    cfg.counter_mode = CounterMode::SgxMonolithic;
    assert_equivalent(&cfg, "sgx");
}

#[test]
fn zero_warmup_matches() {
    // The edges of the warm-up split: none, the whole run, and a fraction
    // above 1, which both paths clamp to the whole run.
    for fraction in [0.0, 1.0, 1.5] {
        let mut cfg = SimConfig::paper_default();
        cfg.warmup_fraction = fraction;
        assert_equivalent(&cfg, &format!("warmup-{fraction}"));
    }
}

#[test]
fn one_capture_serves_many_backends() {
    // The point of the layer: one front-end recording, every back-end
    // variation replayed on top of it, each matching its direct twin.
    let base = SimConfig::paper_default();
    let trace = CapturedTrace::record(&base, Benchmark::Canneal.build(SEED), ACCESSES);
    let variants = [
        base.clone(),
        base.with_mdc(base.mdc.with_size(1 << 20)),
        base.with_mdc(MdcConfig::disabled()),
        SimConfig {
            speculation: false,
            ..base.clone()
        },
        SimConfig::insecure_baseline(),
    ];
    for cfg in variants {
        let d = direct(&cfg, Benchmark::Canneal);
        let r = ReplaySim::new(cfg.clone(), &trace).run();
        assert_eq!(
            d, r,
            "shared-capture replay diverged (mdc {})",
            cfg.mdc.size_bytes
        );
    }
}

#[test]
fn observed_replay_sees_identical_metadata_stream() {
    let cfg = SimConfig::paper_default();
    for bench in [Benchmark::Libquantum, Benchmark::Gups] {
        let mut direct_rec = RecordingObserver::new();
        SecureSim::new(cfg.clone(), bench.build(SEED)).run_observed(ACCESSES, &mut direct_rec);
        let trace = CapturedTrace::record(&cfg, bench.build(SEED), ACCESSES);
        let mut replay_rec = RecordingObserver::new();
        ReplaySim::new(cfg.clone(), &trace).run_observed(&mut replay_rec);
        assert_eq!(direct_rec.records, replay_rec.records, "{bench}");
    }
}

#[test]
fn every_batch_size_matches_direct() {
    // Equivalence must hold wherever batch boundaries fall, including
    // size 1 (degenerate), sizes around the default, the maximum, and an
    // out-of-range request (clamped to the maximum).
    let cfg = SimConfig::paper_default();
    let trace = CapturedTrace::record(&cfg, Benchmark::Mcf.build(SEED), ACCESSES);
    let reference = direct(&cfg, Benchmark::Mcf);
    for batch in [1usize, 2, 7, 64, 255, 256, 257, 511, 512, usize::MAX] {
        let b = ReplaySim::new(cfg.clone(), &trace)
            .with_batch_size(batch)
            .run();
        assert_eq!(b, reference, "batch size {batch} diverged from direct");
    }
}
