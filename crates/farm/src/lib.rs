//! `maps-farm` — a resumable, deduplicated sweep-campaign orchestrator.
//!
//! The ten figure binaries each sweep their own grid of simulation
//! points, and many of those points coincide: fig2 and fig7 replay the
//! same front-end captures, the ablations share baselines, and every
//! figure re-simulates its paper-default corner. The farm runs any subset
//! of figures as one *campaign* over a shared job queue:
//!
//! * **Identity.** Every sweep point is a [`maps_bench::SimJob`]; its
//!   identity is a 64-bit fingerprint of the full configuration,
//!   workload, seed, access count, execution kind, and the git revision
//!   ([`maps_bench::point_fingerprint`]). Two figures that declare the
//!   same physical point — whatever they call it locally — map to one
//!   fingerprint and one simulation.
//! * **Queue.** [`maps_bench::Farm`] — the same fingerprint-keyed queue
//!   every standalone figure binary runs on — drained by an in-process
//!   worker pool ([`maps_bench::figures::run_local`]) or by `maps-farmd`'s
//!   supervised worker processes. Figure drivers run on their own threads
//!   and block per phase; workers pull points in submission order, so
//!   independent figures interleave.
//! * **Resume.** Each finished point is committed under its fingerprint
//!   to a schema-versioned, append-only checkpoint journal
//!   ([`maps_obs::CheckpointJournal`]): one synced record append plus an
//!   in-place count update, so a commit costs the same at the first point
//!   and the thousandth. A killed campaign re-invoked with the same
//!   parameters restores finished points bit-exactly and re-simulates
//!   only the rest; the checkpoint is removed when the campaign completes.
//! * **Capture sharing.** Jobs funnel through [`maps_bench::exec_job`],
//!   so the process-wide front-end capture memo deduplicates trace
//!   recording across figures: fig2 and fig7 replay one recorded trace
//!   per shared (workload, front-end config, seed, accesses) key.
//!
//! The per-figure artifacts (TSV tables, run manifests) are written by the
//! same [`maps_bench::FigureHost`] the standalone binaries use, and are
//! byte-identical to theirs under `MAPS_DETERMINISTIC=1` — pinned by the
//! farm e2e suite.

pub mod campaign;
pub mod client;
pub mod daemon;
pub mod proto;
pub mod run;
pub mod status;
pub mod supervision;
pub mod worker;

pub use campaign::{
    load_campaign, plan_campaign, CampaignDoc, CampaignPlan, PlannedFigure, PlannedPoint,
    CAMPAIGN_SCHEMA_VERSION,
};
pub use client::StreamOutcome;
pub use daemon::{serve, DaemonConfig};
pub use proto::{Frame, FrameReader, PROTO_VERSION};
pub use run::{run_campaign, write_plan, RunSummary};
pub use status::{campaign_status, CampaignStatus};
pub use supervision::Supervision;
pub use worker::run_worker;

/// Why a farm operation failed. Every fallible path in the crate returns
/// this instead of panicking (PANIC-001): bad CLI usage, unreadable or
/// malformed campaign documents, and figure/point failures all surface as
/// typed errors the CLI maps to exit codes.
#[derive(Debug)]
pub enum FarmError {
    /// The command line is malformed (CLI exit code 2).
    Usage(String),
    /// Reading or writing a campaign artifact failed.
    Io {
        /// The file involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A campaign document exists but cannot be understood.
    Parse {
        /// The file involved.
        path: String,
        /// What was wrong with it.
        what: String,
    },
    /// A figure driver or one of its sweep points failed.
    Figure(String),
}

impl FarmError {
    /// Convenience constructor for [`FarmError::Io`].
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        FarmError::Io {
            path: path.into(),
            source,
        }
    }

    /// Convenience constructor for [`FarmError::Parse`].
    pub fn parse(path: impl Into<String>, what: impl Into<String>) -> Self {
        FarmError::Parse {
            path: path.into(),
            what: what.into(),
        }
    }
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Usage(msg) => write!(f, "usage: {msg}"),
            FarmError::Io { path, source } => write!(f, "{path}: {source}"),
            FarmError::Parse { path, what } => write!(f, "{path}: {what}"),
            FarmError::Figure(msg) => write!(f, "figure failed: {msg}"),
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
