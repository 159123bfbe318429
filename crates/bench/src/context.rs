//! Per-run observability context for the figure/table binaries.
//!
//! Every binary opens a [`RunContext`] at the top of `main` (the figure
//! drivers get one inside their [`crate::FigureHost`]), records its
//! parameters and configuration, wraps heavy stages in
//! [`RunContext::phase`], emits tables through [`RunContext::emit`], and
//! calls [`RunContext::finish`] last. The context writes a
//! schema-versioned JSON manifest (`results/<name>.manifest.json`, or the
//! `--manifest <path>` override) describing the run: config, seed, git
//! revision, wall/phase timings, and the metrics snapshot.
//!
//! Sweeps are not run here: the figure drivers' points go through the
//! checkpointed [`crate::Farm`] queue, which owns resume, retries, the
//! watchdog and the fault-injection hook.
//!
//! `MAPS_DETERMINISTIC=1` strips volatile manifest fields (creation time,
//! wall/phase seconds) so repeated — or killed and resumed — runs are
//! byte-identical.
//!
//! Metric *collection* is gated by `MAPS_METRICS` (off by default): with it
//! unset, [`RunContext::record_report`] returns immediately and the
//! manifest's `metrics` section is an empty object, so the instrumented
//! binaries stay within noise of their un-instrumented cost. Metrics can
//! never steer a simulation — sinks only observe — so enabling them cannot
//! change any simulated number.

use std::path::PathBuf;
use std::time::Instant;

use maps_obs::{Json, Manifest, Metrics, Phases};
use maps_sim::{SimConfig, SimReport};

/// Whether `MAPS_METRICS` enables metric collection (any value but `0`).
pub fn metrics_enabled() -> bool {
    std::env::var_os("MAPS_METRICS").is_some_and(|v| v != "0")
}

/// Whether `MAPS_DETERMINISTIC` strips volatile manifest fields (any value
/// but `0`), making repeated runs byte-identical.
pub fn deterministic_mode() -> bool {
    std::env::var_os("MAPS_DETERMINISTIC").is_some_and(|v| v != "0")
}

/// Resolves a `--flag <path>` / `--flag=<path>` override from the command
/// line, falling back to `default`.
fn path_flag(flag: &str, default: PathBuf) -> PathBuf {
    let eq = format!("{flag}=");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            if let Some(p) = args.next() {
                return PathBuf::from(p);
            }
        } else if let Some(p) = a.strip_prefix(&eq) {
            return PathBuf::from(p);
        }
    }
    default
}

/// Resolves the manifest path: `--manifest <path>` / `--manifest=<path>`,
/// else `results/<name>.manifest.json`.
fn manifest_path(name: &str) -> PathBuf {
    path_flag(
        "--manifest",
        PathBuf::from("results").join(format!("{name}.manifest.json")),
    )
}

/// Resolves a figure binary's checkpoint path: `--ckpt <path>` /
/// `--ckpt=<path>`, else `results/<name>.ckpt`.
pub(crate) fn ckpt_path(name: &str) -> PathBuf {
    path_flag(
        "--ckpt",
        PathBuf::from("results").join(format!("{name}.ckpt")),
    )
}

/// Resolves the TSV output file: `--tsv=<path>` writes the emitted tables
/// there atomically at [`RunContext::finish`] (bare `--tsv` keeps printing
/// TSV to stdout and writes no file).
fn tsv_file() -> Option<PathBuf> {
    std::env::args().find_map(|a| a.strip_prefix("--tsv=").map(PathBuf::from))
}

/// Run-lifetime observability: parameters, phases, metrics, TSV,
/// manifest.
pub struct RunContext {
    manifest: Manifest,
    phases: Phases,
    metrics: Metrics,
    started: Instant,
    path: PathBuf,
    tsv_path: Option<PathBuf>,
    tsv: Vec<String>,
}

impl RunContext {
    /// Opens the context for the named binary, stamping the start time and
    /// resolving the manifest/TSV paths from the command line.
    pub fn new(name: &str) -> Self {
        Self::with_paths(name, manifest_path(name), tsv_file())
    }

    /// Opens the context with explicit artifact paths instead of reading
    /// the command line (campaign figure hosts and test harnesses).
    pub fn with_paths(name: &str, manifest: PathBuf, tsv: Option<PathBuf>) -> Self {
        RunContext {
            manifest: Manifest::new(name),
            phases: Phases::new(),
            metrics: Metrics::new(),
            started: Instant::now(),
            path: manifest,
            tsv_path: tsv,
            tsv: Vec::new(),
        }
    }

    /// The run name (artifact stem) the context was opened with.
    pub fn name(&self) -> &str {
        self.manifest.name()
    }

    /// Records an integer run parameter.
    pub fn param_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.manifest.param(key, Json::UInt(value));
        self
    }

    /// Records a string run parameter.
    pub fn param_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.manifest.param(key, Json::Str(value.to_string()));
        self
    }

    /// Records the simulation configuration the run centres on.
    pub fn set_config(&mut self, cfg: &SimConfig) -> &mut Self {
        self.manifest.set_config(crate::wire::config_to_json(cfg));
        self
    }

    /// Times `f` under the named phase (re-entry accumulates).
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.phases.add(name, start.elapsed());
        result
    }

    /// Prints a table in the selected format (like the free [`crate::emit`])
    /// and, when `--tsv=<path>` was given, buffers its TSV form for the
    /// atomic file write in [`RunContext::finish`].
    pub fn emit(&mut self, table: &maps_analysis::Table) {
        crate::emit(table);
        self.emit_quiet(table);
    }

    /// Buffers a table for the TSV artifact without printing it (campaign
    /// figure hosts, where many figures share one stdout).
    pub fn emit_quiet(&mut self, table: &maps_analysis::Table) {
        if self.tsv_path.is_some() {
            self.tsv.push(table.to_tsv());
        }
    }

    /// Merges a report's counters and gauges under `{label}.*`. A no-op
    /// unless `MAPS_METRICS` is set, keeping the disabled path free.
    pub fn record_report(&mut self, label: &str, report: &SimReport) -> &mut Self {
        if metrics_enabled() {
            report.export(label, &mut self.metrics);
        }
        self
    }

    /// Direct access to the metrics registry (callers should check
    /// [`metrics_enabled`] before doing expensive derivations).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Stamps the wall clock, assembles the manifest, and writes the
    /// buffered TSV file (if `--tsv=<path>`) and the manifest atomically.
    /// Write failures are reported on stderr but never fail the run —
    /// observability must not break figure regeneration.
    pub fn finish(mut self) {
        self.manifest
            .set_wall(self.started.elapsed())
            .set_phases(&self.phases)
            .set_metrics(&self.metrics);
        if deterministic_mode() {
            self.manifest.strip_volatile();
        }
        if let Some(tsv_path) = &self.tsv_path {
            let mut body = self.tsv.join("\n");
            body.push('\n');
            match maps_obs::write_atomic(tsv_path, body.as_bytes()) {
                Ok(()) => eprintln!("[tsv] {}", tsv_path.display()),
                Err(e) => eprintln!("[tsv] write failed ({}): {e}", tsv_path.display()),
            }
        }
        match self.manifest.write_to(&self.path) {
            Ok(()) => eprintln!("[manifest] {}", self.path.display()),
            Err(e) => eprintln!("[manifest] write failed ({}): {e}", self.path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("maps-bench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn default_paths_derive_from_name() {
        assert_eq!(
            manifest_path("figX"),
            PathBuf::from("results/figX.manifest.json")
        );
        assert_eq!(ckpt_path("figX"), PathBuf::from("results/figX.ckpt"));
    }

    #[test]
    fn phases_accumulate_through_closures() {
        let mut ctx = RunContext::new("test");
        let v = ctx.phase("stage", || 41) + ctx.phase("stage", || 1);
        assert_eq!(v, 42);
        assert!(ctx.phases.elapsed("stage").is_some());
        let (_, _, entries) = ctx.phases.snapshot().next().unwrap();
        assert_eq!(entries, 2);
    }

    #[test]
    fn finished_manifest_validates() {
        let dir = tmp_dir("ctx");
        let path = dir.join("test.manifest.json");
        let mut ctx = RunContext::new("test");
        ctx.path = path.clone();
        ctx.param_u64("accesses", 1000)
            .param_str("mode", "unit-test")
            .set_config(&SimConfig::paper_default());
        ctx.phase("noop", || ());
        ctx.finish();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(maps_obs::validate_manifest(&doc).is_empty());
        assert_eq!(
            doc.get("config")
                .unwrap()
                .get("llc_bytes")
                .unwrap()
                .as_u64(),
            Some(2 << 20)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
