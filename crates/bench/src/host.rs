//! The sweep-host abstraction every figure driver runs against.
//!
//! Every figure lives in [`crate::figures`] as a `drive(&mut dyn
//! SweepHost)` function that declares its sweep points as [`SimJob`]s and
//! consumes the resulting [`SimReport`]s. *Where* those jobs execute is
//! the host's business:
//!
//! * [`FigureHost`] wraps a [`RunContext`] (parameters, phases, TSV,
//!   manifest) and sends every sweep through a [`Farm`] queue. A figure
//!   binary is a one-figure local campaign on such a queue; `maps-farm`
//!   and `maps-farmd` drive many figures on one shared queue. Standalone
//!   hosts print tables and notes; campaign hosts buffer them quietly.
//! * [`PlanHost`] records the jobs without running anything and hands
//!   back deterministic placeholder reports — `maps-farm plan` uses it to
//!   enumerate and deduplicate a campaign.
//!
//! Because every point funnels through one [`exec_job`] dispatcher and one
//! fingerprint scheme, a campaign's TSV/manifest artifacts are
//! byte-identical to the standalone binaries' under `MAPS_DETERMINISTIC=1`
//! (pinned by the farm e2e suite).

use std::path::Path;

use maps_sim::itermin::{run_iter_min_on, run_min_on};
use maps_sim::{SimConfig, SimReport};
use maps_workloads::Benchmark;

use crate::context::RunContext;
use crate::queue::Farm;
use crate::{captured_trace, run_sim_cached, CaptureKey};

/// How a sweep point turns its configuration into a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Replay the captured front end through the metadata engine
    /// (the overwhelmingly common case; [`run_sim_cached`]).
    Replay,
    /// Belady MIN fed the recorded trace (`run_min_on`).
    Min,
    /// Iterative MIN with a fixed iteration budget (`run_iter_min_on`).
    IterMin {
        /// Maximum refinement iterations.
        iterations: usize,
    },
    /// Two-tenant occupancy-channel run ([`crate::run_occupancy`]): an
    /// MDC-filling probe attacker sharded against a random victim of the
    /// given footprint. The job's `bench` field is ignored — the workload
    /// is synthesized from the configuration and this parameter.
    Occupancy {
        /// Victim working-set size in 4 KB pages.
        victim_pages: u64,
    },
}

impl JobKind {
    /// Stable tag used in fingerprints and campaign manifests.
    pub fn tag(&self) -> String {
        match self {
            JobKind::Replay => "replay".to_string(),
            JobKind::Min => "min".to_string(),
            JobKind::IterMin { iterations } => format!("itermin{iterations}"),
            JobKind::Occupancy { victim_pages } => format!("occupancy{victim_pages}"),
        }
    }
}

/// One sweep point: everything needed to simulate it anywhere.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Human-readable name *within* the figure's phase, shown in progress
    /// lines. Presentation only: the queue keys points by
    /// [`SimJob::identity`].
    pub key: String,
    /// Full simulation configuration for this point.
    pub cfg: SimConfig,
    /// Workload profile.
    pub bench: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Core accesses to simulate.
    pub accesses: u64,
    /// Execution mode.
    pub kind: JobKind,
}

impl SimJob {
    /// A plain replay job (the common case).
    pub fn replay(key: impl Into<String>, cfg: SimConfig, bench: Benchmark, accesses: u64) -> Self {
        SimJob {
            key: key.into(),
            cfg,
            bench,
            seed: crate::SEED,
            accesses,
            kind: JobKind::Replay,
        }
    }

    /// An occupancy-channel job (`bench` is a placeholder; the workload is
    /// the synthesized attacker/victim tenant mix).
    pub fn occupancy(
        key: impl Into<String>,
        cfg: SimConfig,
        victim_pages: u64,
        seed: u64,
        accesses: u64,
    ) -> Self {
        SimJob {
            key: key.into(),
            cfg,
            bench: Benchmark::Gups,
            seed,
            accesses,
            kind: JobKind::Occupancy { victim_pages },
        }
    }

    /// The capture-cache key this job's front end resolves to. Jobs
    /// sharing it replay one recorded trace, across figures and
    /// binaries alike.
    pub fn capture_key(&self) -> CaptureKey {
        CaptureKey::of(&self.cfg, self.bench, self.seed, self.accesses)
    }

    /// Canonical identity string: every field that can change the
    /// simulated numbers, in a stable order, with the configuration in its
    /// one lossless encoding. Farm fingerprints hash this (together with
    /// the git revision). The key is presentation and stays out.
    pub fn identity(&self) -> String {
        let SimJob {
            key: _,
            cfg,
            bench,
            seed,
            accesses,
            kind,
        } = self;
        format!(
            "cfg={};bench={};seed={};accesses={};kind={}",
            crate::wire::config_to_json(cfg).to_compact(),
            bench.name(),
            seed,
            accesses,
            kind.tag()
        )
    }
}

/// Executes one sweep point. Every host funnels through this dispatcher,
/// so a job means the same thing locally and on the farm.
pub fn exec_job(job: &SimJob) -> SimReport {
    match job.kind {
        JobKind::Replay => run_sim_cached(&job.cfg, job.bench, job.seed, job.accesses),
        JobKind::Min => run_min_on(
            &job.cfg,
            &captured_trace(&job.cfg, job.bench, job.seed, job.accesses),
        ),
        JobKind::IterMin { iterations } => {
            run_iter_min_on(
                &job.cfg,
                &captured_trace(&job.cfg, job.bench, job.seed, job.accesses),
                iterations,
            )
            .report
        }
        JobKind::Occupancy { victim_pages } => {
            crate::run_occupancy(&job.cfg, job.seed, job.accesses, victim_pages)
        }
    }
}

/// The execution surface a figure driver sees. Implementations decide
/// where jobs run and where tables/claims go; drivers stay host-agnostic.
pub trait SweepHost {
    /// Records an integer run parameter (manifest identity).
    fn param_u64(&mut self, key: &str, value: u64);
    /// Records a string run parameter (manifest identity).
    fn param_str(&mut self, key: &str, value: &str);
    /// Records the central simulation configuration (manifest identity).
    fn set_config(&mut self, cfg: &SimConfig);
    /// Runs (or schedules) a sweep phase; results arrive in job order.
    fn sweep(&mut self, phase: &str, jobs: Vec<SimJob>) -> Vec<SimReport>;
    /// Merges a report's counters under `{label}.*` (metrics-gated).
    fn record_report(&mut self, label: &str, report: &SimReport);
    /// Emits a result table.
    fn emit(&mut self, table: &maps_analysis::Table);
    /// Free-form narrative line (figure headers and annotations).
    fn note(&mut self, text: &str);
    /// Asserts a qualitative paper claim (in `--check` mode).
    fn claim(&mut self, ok: bool, description: &str);
}

/// The figure host: artifacts through a [`RunContext`], sweep points
/// through a [`Farm`] queue.
pub struct FigureHost<'f> {
    ctx: RunContext,
    farm: &'f Farm,
    /// Campaign hosts buffer tables and drop notes (many figures share
    /// one stdout); standalone hosts print them.
    quiet: bool,
}

impl<'f> FigureHost<'f> {
    /// A standalone host: tables and notes go to stdout, artifacts where
    /// `ctx` resolved them.
    pub fn standalone(ctx: RunContext, farm: &'f Farm) -> Self {
        FigureHost {
            ctx,
            farm,
            quiet: false,
        }
    }

    /// A campaign host: `<figure>.tsv` and `<figure>.manifest.json` in
    /// `dir`, nothing printed.
    pub fn campaign(figure: &str, farm: &'f Farm, dir: &Path) -> Self {
        let ctx = RunContext::with_paths(
            figure,
            dir.join(format!("{figure}.manifest.json")),
            Some(dir.join(format!("{figure}.tsv"))),
        );
        FigureHost {
            ctx,
            farm,
            quiet: true,
        }
    }

    /// Writes the figure's TSV and manifest artifacts.
    pub fn finish(self) {
        self.ctx.finish();
    }
}

impl SweepHost for FigureHost<'_> {
    fn param_u64(&mut self, key: &str, value: u64) {
        self.ctx.param_u64(key, value);
    }

    fn param_str(&mut self, key: &str, value: &str) {
        self.ctx.param_str(key, value);
    }

    fn set_config(&mut self, cfg: &SimConfig) {
        self.ctx.set_config(cfg);
    }

    fn sweep(&mut self, phase: &str, jobs: Vec<SimJob>) -> Vec<SimReport> {
        let farm = self.farm;
        let label = format!("{}/{phase}", self.ctx.name());
        self.ctx
            .phase(phase, || match farm.run_labeled(&label, jobs) {
                Ok(reports) => reports,
                // Panic the driver thread: the figure runner reports the
                // figure as failed without hanging the others.
                Err(e) => panic!("{label}: {e}"),
            })
    }

    fn record_report(&mut self, label: &str, report: &SimReport) {
        self.ctx.record_report(label, report);
    }

    fn emit(&mut self, table: &maps_analysis::Table) {
        if self.quiet {
            self.ctx.emit_quiet(table);
        } else {
            self.ctx.emit(table);
        }
    }

    fn note(&mut self, text: &str) {
        if !self.quiet {
            println!("{text}");
        }
    }

    fn claim(&mut self, ok: bool, description: &str) {
        crate::claim(ok, &format!("{}: {description}", self.ctx.name()));
    }
}

/// Enumeration-only host: records every sweep without simulating, handing
/// back deterministic placeholder reports so drivers complete. Claims and
/// tables are discarded — a plan is about *which points exist*, not what
/// they measure. Figures whose later phases depend on earlier results
/// (fig7's average-best split) plan those phases against the placeholder
/// values; their campaign point lists are estimates, marked `dynamic`.
#[derive(Default)]
pub struct PlanHost {
    /// Every sweep the driver declared, in call order.
    pub phases: Vec<(String, Vec<SimJob>)>,
    /// Parameters recorded by the driver, in call order.
    pub params: Vec<(String, String)>,
}

impl PlanHost {
    /// An empty plan recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The placeholder report handed to drivers for every planned point.
    pub fn placeholder_report() -> SimReport {
        SimReport {
            workload: "plan".to_string(),
            instructions: 1,
            cycles: 1,
            hierarchy: Default::default(),
            engine: Default::default(),
            tenants: Vec::new(),
            energy: maps_mem::EnergyDelay::new(),
        }
    }
}

impl SweepHost for PlanHost {
    fn param_u64(&mut self, key: &str, value: u64) {
        self.params.push((key.to_string(), value.to_string()));
    }

    fn param_str(&mut self, key: &str, value: &str) {
        self.params.push((key.to_string(), value.to_string()));
    }

    fn set_config(&mut self, _cfg: &SimConfig) {}

    fn sweep(&mut self, phase: &str, jobs: Vec<SimJob>) -> Vec<SimReport> {
        let n = jobs.len();
        self.phases.push((phase.to_string(), jobs));
        (0..n).map(|_| Self::placeholder_report()).collect()
    }

    fn record_report(&mut self, _label: &str, _report: &SimReport) {}

    fn emit(&mut self, _table: &maps_analysis::Table) {}

    fn note(&mut self, _text: &str) {}

    fn claim(&mut self, _ok: bool, _description: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_identity_separates_kinds_and_configs() {
        let cfg = SimConfig::paper_default();
        let a = SimJob::replay("k", cfg.clone(), Benchmark::Gups, 1000);
        let mut b = a.clone();
        b.kind = JobKind::Min;
        assert_ne!(a.identity(), b.identity());
        let mut c = a.clone();
        c.cfg = cfg.with_llc_bytes(cfg.llc_bytes * 2);
        assert_ne!(a.identity(), c.identity());
        // The key is presentation, not identity.
        let mut d = a.clone();
        d.key = "other".to_string();
        assert_eq!(a.identity(), d.identity());
    }

    #[test]
    fn exec_job_replay_matches_run_sim_cached() {
        let cfg = SimConfig::paper_default();
        let job = SimJob::replay("k", cfg.clone(), Benchmark::Gups, 2_000);
        let direct = crate::run_sim(&cfg, Benchmark::Gups, crate::SEED, 2_000);
        assert_eq!(exec_job(&job), direct);
    }

    #[test]
    fn plan_host_records_phases_without_running() {
        let mut plan = PlanHost::new();
        let cfg = SimConfig::paper_default();
        let jobs = vec![SimJob::replay("a", cfg.clone(), Benchmark::Gups, 100)];
        let reports = plan.sweep("phase1", jobs);
        assert_eq!(reports.len(), 1);
        assert_eq!(plan.phases.len(), 1);
        assert_eq!(plan.phases[0].0, "phase1");
        assert_eq!(plan.phases[0].1[0].key, "a");
    }
}
