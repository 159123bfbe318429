//! Observability for the MAPS reproduction: a metrics registry, scoped
//! phase timers, and schema-versioned JSON run manifests.
//!
//! MAPS is a characterization study — its value is in *measured* metadata
//! access patterns — so the instrumentation itself deserves the same care
//! as the simulator. This crate provides the pieces the rest of the stack
//! composes:
//!
//! * [`Metrics`] — named counters, gauges, and fixed-log₂-bucket
//!   [`Histogram`]s with deterministic (sorted) iteration order and a
//!   `merge` operation, so parallel sweep workers can aggregate.
//! * [`MetricSink`] — the push-side trait with an inert [`NullSink`].
//!   Instrumented code is generic over the sink and monomorphizes; with
//!   `NullSink` every recording call compiles to nothing, mirroring the
//!   `MetaObserver`/`NullObserver` pattern `maps-sim` already uses on its
//!   hot path. That is the disabled-path guarantee: not "cheap", *absent*.
//! * [`Phases`] — scoped wall-clock phase timers with nesting
//!   (`capture/record`, `sweep/replay`, …).
//! * [`Json`] / [`Manifest`] — a dependency-free JSON value type (writer
//!   *and* parser) and the schema-versioned run manifest every
//!   `maps-bench` binary emits.
//! * [`CodecError`] — the one error of every boundary decoder (frames,
//!   checkpoints, jobs, reports, campaign documents), with the typed
//!   field readers on [`Json`] they are built from.
//! * [`write_atomic`] / [`Checkpoint`] / [`CheckpointJournal`] —
//!   crash-safe result publication (temp file + rename) and the
//!   schema-versioned, append-only sweep checkpoint that lets an
//!   interrupted figure run resume bit-identically.
//!
//! Nothing in this crate feeds back into simulation state, so instrumented
//! runs are bit-identical to bare runs by construction.
//!
//! # Examples
//!
//! ```
//! use maps_obs::{Metrics, MetricSink};
//!
//! fn hot_loop<S: MetricSink>(sink: &mut S) {
//!     for i in 0..100u64 {
//!         sink.counter_add("loop.iterations", 1);
//!         sink.hist_record("loop.value", i);
//!     }
//! }
//!
//! let mut m = Metrics::new();
//! hot_loop(&mut m); // recording sink
//! assert_eq!(m.counter_value("loop.iterations"), 100);
//! hot_loop(&mut maps_obs::NullSink); // compiles to an empty loop
//! ```

pub mod atomic;
pub mod checkpoint;
pub mod codec;
pub mod frame;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod sink;
pub mod timer;

pub use atomic::write_atomic;
pub use checkpoint::{fingerprint64, Checkpoint, CheckpointJournal, CHECKPOINT_SCHEMA_VERSION};
pub use codec::CodecError;
pub use frame::{read_frame, write_frame, FRAME_MAGIC, MAX_FRAME_BYTES};
pub use json::{Json, JsonParseError};
pub use manifest::{git_describe, validate_manifest, Manifest, MANIFEST_SCHEMA_VERSION};
pub use metrics::{Histogram, Metrics};
pub use sink::{MetricSink, NullSink};
pub use timer::{PhaseGuard, Phases};
