//! Synthetic workload generators standing in for the paper's PARSEC,
//! SPLASH2, and SPEC 2006 benchmarks.
//!
//! We cannot redistribute the benchmark suites or their memory traces, so
//! each [`Benchmark`] profile synthesizes an address stream reproducing the
//! published access-pattern properties the MAPS analysis depends on:
//! footprint, page-level spatial locality, streaming vs. random access, and
//! write fraction (e.g. *fft* ≈ 20 % writes, *leslie3d* ≈ 5 %, *canneal*
//! large-footprint low-locality, *libquantum* streaming over a 4 MB array).
//! DESIGN.md documents the substitution argument in full.
//!
//! Generators are deterministic for a given seed, so every figure harness
//! is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use maps_workloads::Benchmark;
//!
//! let mut wl = Benchmark::Libquantum.build(42);
//! let a = wl.next_access();
//! assert!(a.addr.bytes() < wl.footprint_bytes());
//! ```

pub mod adversarial;
pub mod compose;
pub mod engines;
pub mod profiles;
pub mod replay;

/// The vendored deterministic PRNG (SplitMix64 behind a `SmallRng`-style
/// wrapper) every workload generator draws from. Lives in `maps-trace` so
/// the cache policies can share it, re-exported here as the canonical
/// import path for workload code.
pub use maps_trace::rng;

pub use adversarial::{CascadeDeepGen, OccupancyProbe, OverflowHeavyGen, PartitionBoundaryGen};
pub use compose::{PhasedWorkload, TenantMix, TenantSchedule};
pub use engines::{
    FftGen, HotColdGen, PointerChaseGen, RandomGen, StencilGen, StreamGen, TiledPassGen,
    TreeWalkGen, Workload,
};
pub use profiles::Benchmark;
pub use replay::ReplayWorkload;
