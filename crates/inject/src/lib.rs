//! `maps-inject`: deterministic, seeded fault injection for the MAPS
//! reproduction.
//!
//! The integrity machinery the paper characterizes — split counters,
//! per-block HMACs, the Bonsai Merkle Tree — exists to *detect* faults,
//! and the experiment pipeline around it must *survive* them. This crate
//! probes both, on three planes:
//!
//! * **Model faults** ([`model`]) attack the stored state of
//!   [`maps_secure::SecureMemoryModel`]: bit flips in data, HMACs,
//!   counter-block fingerprints, and BMT nodes at every tree level;
//!   consistent rollback (replay) of snapshots; counter-overflow storms
//!   mid-trace. Every trial asserts detection *and* localization to the
//!   right check, cross-checked in lockstep against `maps_oracle`'s
//!   value-level BMT.
//! * **Infrastructure faults** ([`infra`]) corrupt the bytes of result
//!   artifacts (manifests, checkpoints, serialized reports)
//!   and fail writes at seeded offsets, asserting every consumer returns
//!   a typed error — never panics, never silently accepts a torn file.
//! * **Daemon-protocol faults** ([`farmd`]) attack the `maps-farmd` wire
//!   surface: torn headers and payloads, flipped magic bytes, oversized
//!   length prefixes, garbage and schema-drifted payloads, trailing
//!   noise, and clean mid-stream disconnects. Every trial asserts the
//!   frame decoder returns a typed error (or a clean EOF, for
//!   disconnects) — never a panic, never a silently mis-decoded frame.
//!   Process-level faults (SIGKILLed, stalled, torn-writing workers) are
//!   driven end-to-end via the `MAPS_FARMD_FAULT_*` hooks and pinned by
//!   `crates/farm/tests/farmd_e2e.rs`.
//!
//! [`campaign`] bundles trials into named campaigns (`smoke`, `full`)
//! that are pure functions of `(spec, seed)` with a reproducible
//! fingerprint; the `maps-inject` binary runs them from the command line
//! and CI. See DESIGN.md §11 for the fault model.

pub mod campaign;
pub mod farmd;
pub mod infra;
pub mod model;

pub use campaign::{by_name, run_campaign, CampaignReport, CampaignSpec, FULL, SMOKE};
pub use farmd::{run_farmd_trial, FarmdFaultClass, FarmdOutcome, FarmdTrialOutcome};
pub use infra::{
    run_infra_trial, Artifact, FaultyWriter, InfraFaultClass, InfraOutcome, InfraTrialOutcome,
    WriterFaultMode,
};
pub use model::{run_model_trial, ModelFaultClass, ModelTrialOutcome, OracleMirror};
