//! The MAPS secure-memory simulator: a cache hierarchy over synthetic
//! workloads, a memory controller with counter-mode encryption and Bonsai
//! Merkle Tree verification, and the unified **metadata cache** whose
//! access patterns the paper characterizes.
//!
//! The pipeline is:
//!
//! ```text
//! workload -> L1 -> L2 -> LLC -> MetadataEngine (counters/hashes/tree)
//!                                     |-- metadata cache (all types)
//!                                     '-- DRAM (timing + energy)
//! ```
//!
//! [`SecureSim`] ties the stages together and produces a [`SimReport`]
//! with MPKI, energy/delay, and per-type statistics. The metadata access
//! stream can be observed (for reuse-distance profiling, Figures 3–5) or
//! recorded (to feed Belady's MIN its oracle trace, Figure 6).
//!
//! # Examples
//!
//! ```
//! use maps_sim::{SecureSim, SimConfig};
//! use maps_workloads::Benchmark;
//!
//! let cfg = SimConfig::paper_default();
//! let mut sim = SecureSim::new(cfg, Benchmark::Libquantum.build(1));
//! let report = sim.run(20_000);
//! assert!(report.instructions > 0);
//! ```

pub mod capture;
pub mod config;
pub mod engine;
pub mod hierarchy;
pub mod itermin;
pub mod mdcache;
pub mod probe;
pub mod report;
pub mod sim;

pub use capture::{
    CapturedEvent, CapturedTrace, EventCursor, FrontEndKey, ReplaySim, TraceBuilder,
    DEFAULT_BATCH_EVENTS, MAX_BATCH_EVENTS,
};
pub use config::{CacheContents, MdcConfig, MdcDesign, PartitionMode, PolicyChoice, SimConfig};
pub use engine::{EngineStats, MetaObserver, MetadataEngine, NullObserver, RecordingObserver};
pub use hierarchy::{Hierarchy, HierarchyStats, MemEvent};
pub use mdcache::MetadataCache;
pub use probe::MetricsProbe;
pub use report::{SimReport, TenantMdcStats, REPORT_SCHEMA_VERSION};
pub use sim::SecureSim;
