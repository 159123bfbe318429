//! Record/replay: capture a workload's access trace to the portable text
//! format, reload it, and replay it through the secure-memory pipeline —
//! verifying that the replayed run reproduces the original's behaviour
//! exactly. This is how external traces (e.g. from another simulator) can
//! be driven through MAPS.
//!
//! Run: `cargo run --release --example record_replay`

use maps::sim::{SecureSim, SimConfig};
use maps::trace::{read_trace, write_trace};
use maps::workloads::{Benchmark, ReplayWorkload, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 50_000u64;

    // 1. Record: pull a trace out of a synthetic benchmark.
    let mut source = Benchmark::Fft.build(7);
    let trace: Vec<_> = (0..n).map(|_| source.next_access()).collect();
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &trace)?;
    println!(
        "recorded {} accesses ({} bytes in text format)",
        trace.len(),
        encoded.len()
    );

    // 2. Reload and replay through the full pipeline.
    let decoded = read_trace(&encoded[..])?;
    assert_eq!(decoded, trace, "text round-trip must be lossless");
    let mut cfg = SimConfig::paper_default();
    cfg.warmup_fraction = 0.0;

    let mut original = SecureSim::new(cfg.clone(), ReplayWorkload::new("fft-trace", trace));
    let mut replayed = SecureSim::new(cfg, ReplayWorkload::new("fft-trace", decoded));
    let a = original.run(n);
    let b = replayed.run(n);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.engine.dram_meta.total(), b.engine.dram_meta.total());
    println!(
        "replay reproduced the run exactly: {} cycles, {} metadata transfers",
        b.cycles,
        b.engine.dram_meta.total()
    );
    Ok(())
}
