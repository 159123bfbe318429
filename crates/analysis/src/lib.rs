//! Analysis tooling for the MAPS characterization study: reuse-distance
//! profiling, distribution summaries, and plain-text table output used by
//! the figure-regeneration harnesses.
//!
//! The central type is [`ReuseProfiler`], an *O(log n)*-per-access LRU
//! stack-distance profiler built on a Fenwick tree. Reuse distances feed the
//! paper's Figures 3–5: per-metadata-type CDFs ([`Cdf`]), the bimodal class
//! breakdown ([`ReuseClass`]), and the request-type transition split
//! ([`Transition`]).
//!
//! # Examples
//!
//! ```
//! use maps_analysis::ReuseProfiler;
//!
//! let mut p = ReuseProfiler::new();
//! // Stream: A B C A  -> A's reuse distance is 2 distinct blocks (B, C).
//! assert_eq!(p.observe(0xA), None);
//! assert_eq!(p.observe(0xB), None);
//! assert_eq!(p.observe(0xC), None);
//! assert_eq!(p.observe(0xA), Some(2));
//! ```

pub mod cdf;
pub mod classes;
pub mod fenwick;
pub mod reuse;
pub mod stats;
pub mod table;
pub mod transition;

pub use cdf::Cdf;
pub use classes::{ClassCounts, ReuseClass};
pub use fenwick::Fenwick;
pub use reuse::{GroupedReuseProfiler, ReuseProfiler};
pub use stats::{geometric_mean, mean};
pub use table::fmt_bytes;
pub use table::Table;
pub use transition::Transition;
