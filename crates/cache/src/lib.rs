//! Set-associative cache simulation with pluggable replacement policies,
//! way partitioning, set dueling, and offline optimal-replacement searches.
//!
//! This crate provides the cache substrate for the MAPS study:
//!
//! * [`SetAssocCache`] — a generic set-associative cache over 64 B block
//!   keys, parameterized by a [`Policy`]. It powers both the L1/L2/LLC data
//!   hierarchy and the unified metadata cache.
//! * [`policy`] — replacement policies evaluated in the paper: true LRU,
//!   tree pseudo-LRU, FIFO, random, SRRIP, EVA, and a Belady MIN oracle fed
//!   with future knowledge from a recorded trace.
//! * [`partition`] — static way-partitioning between counters and hashes
//!   plus the set-dueling machinery from Section V-C.
//! * [`tenant`] — per-tenant way partitioning ([`TenantPartition`]) and
//!   per-tenant stats/occupancy accounting ([`TenantStatsTable`]) for the
//!   multi-tenant scenario layer.
//! * [`randomized`] — a MIRAGE-style fully-associative randomized cache
//!   ([`RandomizedCache`]) with keyed tag indexing and global-random
//!   eviction, the alternative metadata-cache backend.
//! * [`csopt`] — the Jeong–Dubois cost-sensitive optimal replacement search
//!   (breadth-first over eviction choices with dominance pruning) discussed
//!   in Section V-B.
//!
//! # Examples
//!
//! ```
//! use maps_cache::{CacheConfig, SetAssocCache};
//! use maps_cache::policy::TrueLru;
//! use maps_trace::BlockKind;
//!
//! let cfg = CacheConfig::from_bytes(4096, 4); // 4 KB, 4-way, 64 B blocks
//! let mut cache = SetAssocCache::new(cfg, TrueLru::new());
//! assert!(!cache.access(0x10, BlockKind::Data, false).hit);
//! assert!(cache.access(0x10, BlockKind::Data, false).hit);
//! ```

pub mod cache;
pub mod config;
pub mod csopt;
pub mod line;
pub mod partition;
pub mod policy;
pub mod psel;
pub mod randomized;
pub mod stats;
pub mod tenant;

pub use cache::{AccessResult, SetAssocCache};
pub use config::{CacheConfig, GeometryError};
pub use csopt::{belady_misses, csopt_min_cost, CostedAccess, CsoptOutcome};
pub use line::{Line, SetView};
pub use partition::{DuelingController, Partition, PartitionError, SetRole};
pub use policy::Policy;
pub use psel::{PselCounter, PSEL_MAX};
pub use randomized::{derive_keys, keyed_index, RandomizedCache, SKEWS};
pub use stats::{CacheStats, KindStats};
pub use tenant::{TenantPartition, TenantPartitionError, TenantStatsTable};
