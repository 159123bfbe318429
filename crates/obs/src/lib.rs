//! Observability for the MAPS reproduction: a metrics registry,
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
//! * [`Phases`] — wall-clock time accumulated per named phase
//!   (`profile`, `sweep`, …).
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
//! runs are bit-identical to bare runs by construction. Model types export
//! their statistics into a [`Metrics`] only after a run finishes, and only
//! when metrics are enabled, so a run with metrics off records nothing.

pub mod atomic;
pub mod checkpoint;
pub mod codec;
pub mod frame;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod timer;

pub use atomic::write_atomic;
pub use checkpoint::{fingerprint64, Checkpoint, CheckpointJournal, CHECKPOINT_SCHEMA_VERSION};
pub use codec::CodecError;
pub use frame::{read_frame, write_frame, FRAME_MAGIC, MAX_FRAME_BYTES};
pub use json::{Json, JsonParseError};
pub use manifest::{git_describe, validate_manifest, Manifest, MANIFEST_SCHEMA_VERSION};
pub use metrics::{Histogram, Metrics};
pub use timer::Phases;
