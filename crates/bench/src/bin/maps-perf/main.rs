//! `maps-perf` — the performance ledger: one benchmark for replay, figure
//! sweeps and campaigns, end to end and layer by layer.
//!
//! ```text
//! maps-perf run [--rounds N] [--seed S] [--workloads a,b] [--out FILE] [--trace]
//! maps-perf bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! maps-perf compare BASE.json NEW.json
//! ```
//!
//! Build everything it drives with `cargo build --release --workspace`,
//! then run `target/release/maps-perf run`. `run` executes every workload
//! once per round, interleaved (default 3 rounds, seed 3), each in a fresh
//! re-exec of this binary so memory and allocator state start clean; it
//! prints `workload metric value unit` lines with the median, spread and
//! sample count, and writes one JSON result (default
//! `target/maps-perf/result.json`). `compare` prints, per workload and
//! end-to-end metric, both medians and quartiles over rounds, the delta,
//! the bound and a verdict, and exits 1 on any "worse"; a "better" verdict
//! needs ten rounds on each side (`run --rounds 10`). `bench` runs one
//! workload and ends with one JSON line; it is the entry point of
//! `BENCHMARK.json` (through `bench.sh`, which builds first). With
//! `--seconds T` it repeats until T seconds were measured, and at least
//! one round of five replay passes or one figure/campaign run; `run` uses
//! T = 0. Scratch artifacts live in a run directory under
//! `target/maps-perf/`.
//!
//! All load comes from one process tree with at most two workers, so it
//! fits a 2-vCPU host: replay runs in this process on one thread; `fig2`,
//! `maps-farm run` and `maps-farmd` run with two workers.
//!
//! # Workloads
//!
//! Replay workloads use `SimConfig::paper_default()` (64 KB 8-way PLRU
//! metadata cache, "MDC") and replay each capture five times per round
//! through `ReplaySim::run`; their seed is `--seed`. The figure and
//! campaign workloads run the paper's own fixed-seed inputs.
//!
//! | workload | input | why |
//! |---|---|---|
//! | `replay-miss` | canneal + mcf, 1M accesses each | reads dominate, ~4.5 MDC accesses and ~1 tree walk per event: engine and MDC at full load |
//! | `replay-hit` | libquantum + lbm, 3M accesses each | streaming, ~2 MDC accesses per event, nearly all hits: a miss-path speedup that taxes hits shows here |
//! | `replay-write` | gups, 1M accesses | 33% read-modify-write events: counter increments, dirty writebacks, lazy tree-update cascades |
//! | `sweep-fig2` | `fig2 --check` at 200k accesses | 350 points over 56 captures on `LocalHost` / `RunContext::sweep`, the headline figure as users run it |
//! | `campaign-farmd` | fresh `maps-farmd --workers 2`, `maps-farm submit --figures fig2,fig7 --accesses 200000` | 446 points in two supervised workers: queue, frames, worker round trips |
//! | `campaign-tiny` | `maps-farm run --all --workers 2` at 2k accesses | 708 sub-millisecond points: checkpoint, codec, queue and driver overhead dominate; engine changes should leave it unchanged |
//!
//! # End-to-end metrics (untraced runs)
//!
//! * `wall_s` — host seconds of the fastest repetition: one replay of
//!   every capture, or the client from launch to exit (for
//!   `campaign-farmd` the daemon is already listening). Other tenants of a
//!   shared host only ever add time, so the minimum is the steadiest
//!   estimate; the median and tail are printed beside it.
//! * `setup_s` — median of at least three set-ups (more while they take
//!   under a second, up to fifty): recording the captures
//!   (`CapturedTrace::record`); `fig2` at zero accesses (loading the
//!   binary and its fixed per-run cost); `maps-farm plan --all`; or
//!   starting `maps-farmd` until it listens.
//! * `peak_rss_mb` — `VmHWM` of the simulating process: this one for
//!   replay, polled from `/proc/<pid>/status` for `fig2`, `maps-farm run`
//!   and the daemon's worker processes.
//! * `ns_per_event` (replay, `run` only) — the fastest pass's geometric
//!   mean over captures of ns per replayed LLC event.
//! * `failed_frac` (`run` only) — failed operations over attempted.
//!
//! Every metric line also gives the median plus the highest percentile
//! with at least ten samples beyond it, or min/max with fewer samples,
//! always with the sample count.
//!
//! # Output checks
//!
//! Every replay report must equal a direct `SecureSim` run of the same
//! benchmark, seed and access count (run once, outside the timed region),
//! every round must yield the same report digest, and every recording of
//! a capture must be identical. `fig2` runs with `--check`; campaigns must
//! exit 0, complete every announced point and write no `failures.json`;
//! output TSVs must be byte-identical across repetitions, and under `run`,
//! `campaign-farmd`'s `fig2.tsv` must equal `sweep-fig2`'s. Digests of all
//! reports and TSVs are printed. Failures count into `failed_frac` and the
//! exit status.
//!
//! # Traced runs and per-layer metrics
//!
//! `--trace` records in-memory spans around this binary's calls into each
//! layer, writes them as Chrome trace-event JSON
//! (`target/maps-perf/trace-<workload>-seed<S>.json`), and reports self
//! time per span (`trace.self_ms.<span>`) and `trace.overhead_frac` (a
//! traced repetition over an untraced one, minus 1). End-to-end metrics
//! always come from untraced runs. The sim layers are measured on the
//! workload's captures — for the figure and campaign workloads, on fig2's
//! canneal capture at the workload's access count — and printed per
//! capture with a `.<bench>` suffix and as a geometric mean without one.
//!
//! | layer metric | measured by timing | should move |
//! |---|---|---|
//! | `workloads.ns_per_access`, `sim.hierarchy.ns_per_access`, `sim.capture.record_ns_per_access`, `sim.capture.encode_ns_per_access` | `Benchmark::build`+`next_access`; `Hierarchy::access_from` on pre-generated accesses; `CapturedTrace::record` (encode = the residual) | `setup_s` on replay-\*; `wall_s` on sweep-fig2 and campaign-farmd |
//! | `sim.capture.decode_ns_per_event` | `EventCursor::next_events` | `ns_per_event` (~2% share) |
//! | `sim.engine.ns_per_event`, `sim.engine.self_ns_per_event` | `MetadataEngine::handle_batch` on pre-decoded events, engine built as `ReplaySim::new` builds it, stats reset at the warm-up boundary; self = engine − MDC share | `ns_per_event`, mostly replay-write |
//! | `sim.mdcache.ns_per_access`, `cache.ns_per_access`, `sim.mdcache.self_ns_per_access` | the `RecordingObserver` stream through `MetadataCache::access`/`write_partial` and through `SetAssocCache::access_with`/`access_mark_valid`; self = the difference | `ns_per_event` on replay-miss and replay-write; `wall_s` on sweep-fig2 and campaign-farmd; not campaign-tiny |
//! | `secure.counters.ns_per_write` | `CounterStore::record_write` over write events | `ns_per_event` on replay-write |
//! | `sim.replay.ns_per_event`, `sim.replay.residual_ns_per_event` | `ReplaySim::run`; residual = replay − decode − engine, signed | the per-capture view of `ns_per_event` |
//! | counts (exact): `sim.mdcache.accesses_per_event`, `.miss_ratio`, `.writebacks_per_event`, `sim.engine.walk_levels_per_event`, `sim.capture.events_per_access`, `.bytes_per_event` | engine and MDC stats | explain `ns_per_event`; a perf change must not move them |
//! | `obs.report_json.encode_us`, `.decode_us`; `bench.wire.job_roundtrip_us`; `obs.frame.roundtrip_us` | `SimReport::to_json().to_pretty()`; `Json::parse`+`SimReport::from_json`; `job_to_json`/`job_from_json`; `write_frame`/`read_frame` of a JobResult-shaped payload | `wall_s` on campaign-tiny, then campaign-farmd |
//! | `obs.checkpoint.save_ms.n350/.n446/.n708`, `obs.checkpoint.campaign_s.n708` | `Checkpoint::save` with N real reports; an insert+save loop for k = 1..708, as the farm does | `wall_s` on campaign-tiny (most), sweep-fig2, campaign-farmd |
//! | `farm.point_gap_ms.p50/.p<hi>`, `farm.gap_growth` (campaigns) | timestamps of `[farm] n/m` stderr lines and farmd `point-done` events; growth = time span of the last tenth of completions ÷ span of the first tenth | `wall_s` on campaign-\* |
//! | `bench.sweep.phase_s.<phase>` (sweep-fig2) | `fig2`'s manifest phases | `wall_s` on sweep-fig2 |
//!
//! Every isolated layer doubles as a check: the engine, `MetadataCache`
//! and `SetAssocCache` replays must reproduce the replay's
//! `EngineStats`/`CacheStats` exactly.
//!
//! Exit codes: 0 success, 1 a failed check (or a "worse" verdict), 2 usage
//! or a missing sibling binary.

mod layers;
mod ledger;
mod procs;
mod replay;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use maps_obs::Json;
use maps_sim::SimConfig;
use maps_workloads::Benchmark;

use crate::spec::{Kind, Workload, END_TO_END, LAYERS, WORKLOADS};
use crate::stats::Summary;
use crate::trace::Tracer;

const USAGE: &str = "\
USAGE:
  maps-perf run [--rounds N] [--seed S] [--workloads a,b] [--out FILE] [--trace]
      Run every workload once per round, interleaved (default: 3 rounds,
      seed 3, all workloads), print `workload metric value unit` lines and
      write one JSON result (default: target/maps-perf/result.json).
      --trace adds one traced run per workload with per-layer metrics.
  maps-perf bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
      Run one workload for T seconds (default 10) and end with one JSON
      line: end-to-end metrics, or per-layer metrics when traced.
  maps-perf compare BASE.json NEW.json
      Judge every end-to-end metric of NEW against BASE; exit 1 if any is
      worse than its bound. Claiming a gain needs --rounds 10 on both.

Workloads: replay-miss, replay-hit, replay-write, sweep-fig2,
campaign-farmd, campaign-tiny. The sweep and campaign workloads drive the
fig2, maps-farm and maps-farmd binaries beside this one; build them with
`cargo build --release --workspace`.";

/// Default workload seed.
const DEFAULT_SEED: u64 = 3;

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end samples by metric.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Per-layer values `(name, value, unit)`.
    pub layers: Vec<(String, f64, String)>,
    /// Output digests `(name, fingerprint)`.
    pub digests: Vec<(String, String)>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// A description of every failure.
    pub problems: Vec<String>,
    /// The Chrome trace written by a traced run.
    pub trace_file: Option<String>,
}

impl Outcome {
    /// Counts one checked operation; records `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
        ok
    }

    /// The value of a fallible step, counting an error as a failure.
    pub fn ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    /// Adds an end-to-end sample.
    pub fn sample(&mut self, metric: &str, value: f64) {
        match self.samples.iter_mut().find(|(m, _)| m == metric) {
            Some((_, v)) => v.push(value),
            None => self.samples.push((metric.to_string(), vec![value])),
        }
    }

    /// The samples of one metric.
    pub fn samples_of(&self, metric: &str) -> Option<&[f64]> {
        self.samples
            .iter()
            .find(|(m, _)| m == metric)
            .map(|(_, v)| v.as_slice())
    }

    /// Adds a per-layer value.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.layers.push((name.into(), value, unit.to_string()));
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("attempted".to_string(), Json::UInt(self.attempted)),
            ("failed".to_string(), Json::UInt(self.failed)),
            ("problems".to_string(), strs(&self.problems)),
            (
                "samples".to_string(),
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.clone(),
                                Json::Arr(v.iter().map(|&x| Json::Float(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            ("layers".to_string(), layers_json(&self.layers)),
            (
                "digests".to_string(),
                Json::Obj(
                    self.digests
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "trace_file".to_string(),
                self.trace_file.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Option<Outcome> {
        let obj = |key: &str| match doc.get(key) {
            Some(Json::Obj(pairs)) => Some(pairs.as_slice()),
            _ => None,
        };
        let problems = match doc.get("problems") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|p| Some(p.as_str()?.to_string()))
                .collect(),
            _ => Vec::new(),
        };
        Some(Outcome {
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            problems,
            samples: obj("samples")?
                .iter()
                .map(|(m, v)| {
                    let values = match v {
                        Json::Arr(xs) => xs.iter().filter_map(Json::as_f64).collect(),
                        _ => Vec::new(),
                    };
                    (m.clone(), values)
                })
                .collect(),
            layers: obj("layers")?
                .iter()
                .filter_map(|(name, v)| {
                    Some((
                        name.clone(),
                        v.get("value")?.as_f64()?,
                        v.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect(),
            digests: obj("digests")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
            trace_file: doc
                .get("trace_file")
                .and_then(Json::as_str)
                .map(str::to_string),
        })
    }
}

fn layers_json(layers: &[(String, f64, String)]) -> Json {
    Json::Obj(
        layers
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Float(*value)),
                        ("unit".to_string(), Json::Str(unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `target/maps-perf`: beside the build's profile directory, so it follows
/// `CARGO_TARGET_DIR`.
fn perf_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("maps-perf")))
        .unwrap_or_else(|| PathBuf::from("target/maps-perf"))
}

/// The per-layer capture of a figure or campaign workload: fig2's canneal
/// capture at the workload's access count. Replay workloads use their own.
fn layer_capture(kind: Kind) -> Option<(Benchmark, u64, u64)> {
    match kind {
        Kind::Sweep(n) | Kind::Farmd(n) | Kind::FarmRun(n) => {
            Some((Benchmark::Canneal, maps_bench::SEED, n))
        }
        Kind::Replay(_) => None,
    }
}

/// Runs one workload in this process.
fn bench(w: &Workload, seed: u64, seconds: f64, traced: bool, dir: &Path) -> Outcome {
    let cfg = SimConfig::paper_default();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(traced);
    tr.begin(&format!("workload.{}", w.name));
    let mut caps = match w.kind {
        Kind::Replay(captures) => replay::run(&cfg, captures, seed, seconds, &mut tr, &mut out),
        kind => {
            procs::run(kind, dir, seconds, &mut tr, &mut out);
            Vec::new()
        }
    };
    if traced {
        tr.begin("layers");
        if let Some((bench, seed, accesses)) = layer_capture(w.kind) {
            let trace = maps_sim::CapturedTrace::record(&cfg, bench.build(seed), accesses);
            caps.push(layers::Capture::new(&cfg, bench, seed, trace));
        }
        let per: Vec<(Benchmark, layers::Layers)> = caps
            .iter()
            .map(|c| (c.bench, layers::measure(&cfg, c, &mut tr, &mut out)))
            .collect();
        layers::emit(&per, &mut out);
        if let Some(first) = caps.first() {
            layers::measure_codecs(&cfg, first, &mut tr, &mut out);
        }
        layers::measure_checkpoints(&cfg, seed, dir, &mut tr, &mut out);
        tr.end();
    }
    tr.end();
    if traced {
        for (span, ms) in tr.self_ms() {
            out.layer(format!("trace.self_ms.{span}"), ms, "ms");
        }
        let path = perf_dir().join(format!("trace-{}-seed{seed}.json", w.name));
        let written = tr
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()));
        if out.ok(written).is_some() {
            out.trace_file = Some(path.display().to_string());
        }
    }
    out
}

/// Formats a finite number with all its digits (JSON has no NaN).
fn num(v: f64) -> Option<String> {
    v.is_finite().then(|| format!("{v}"))
}

/// The single JSON line `bench` ends with.
fn result_line(out: &mut Outcome, traced: bool) -> String {
    let wanted: Vec<(String, Option<f64>, &str)> = if traced {
        LAYERS
            .iter()
            .map(|m| {
                let v = out
                    .layers
                    .iter()
                    .find(|(n, ..)| n == m.name)
                    .map(|(_, v, _)| *v);
                (m.name.to_string(), v, m.unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    out.samples_of(m.name).map(|v| m.stat.of(v)),
                    m.unit,
                )
            })
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, value, unit) in wanted {
        match value.and_then(num) {
            Some(v) => metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            None => {
                out.check(false, || format!("metric {name} was not measured"));
            }
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Command-line arguments, consumed as they are read.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let found = self.0.iter().position(|a| a == name);
        found.map(|i| self.0.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} requires a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        Ok(Some(v))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v.parse().map_err(|_| format!("bad {name} value {v:?}")),
            None => Ok(default),
        }
    }

    fn done(&self) -> Result<(), String> {
        match self.0.first() {
            Some(a) => Err(format!("unknown argument {a:?}")),
            None => Ok(()),
        }
    }
}

/// A command failure and its exit code.
struct Failure(u8, String);

fn usage(msg: String) -> Failure {
    Failure(2, format!("{msg}\n{USAGE}"))
}

fn find_workload(name: &str) -> Result<&'static Workload, Failure> {
    spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        usage(format!(
            "unknown workload {name:?}; known: {}",
            known.join(", ")
        ))
    })
}

/// Exit 2 naming every sibling binary the workloads need but that is not
/// built.
fn require_siblings(workloads: &[&Workload]) -> Result<(), Failure> {
    let mut missing: Vec<&str> = workloads
        .iter()
        .flat_map(|w| procs::siblings_of(w.kind).iter().copied())
        .filter(|name| !procs::sibling(name).is_file())
        .collect();
    missing.sort_unstable();
    missing.dedup();
    if missing.is_empty() {
        return Ok(());
    }
    Err(Failure(
        2,
        format!(
            "missing sibling binaries beside {}: {} (build them with \
             `cargo build --release --workspace`; plain `cargo build --release` \
             builds only the root crate)",
            procs::sibling("").display(),
            missing.join(", ")
        ),
    ))
}

fn bench_cmd(mut args: Args) -> Result<(), Failure> {
    let name = args.value("--workload").map_err(usage)?;
    let seed = args.parsed("--seed", DEFAULT_SEED).map_err(usage)?;
    let seconds: f64 = args.parsed("--seconds", 10.0).map_err(usage)?;
    let traced = match args.value("--trace").map_err(usage)?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(usage(format!("--trace takes 0 or 1, not {other:?}"))),
    };
    let report = args.value("--report").map_err(usage)?;
    args.done().map_err(usage)?;
    let w = find_workload(&name.ok_or_else(|| usage("--workload is required".to_string()))?)?;
    require_siblings(&[w])?;

    let dir = perf_dir().join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Err(Failure(1, format!("cannot create {}: {e}", dir.display())));
    }
    let mut out = bench(w, seed, seconds, traced, &dir);

    for (metric, samples) in &out.samples {
        let Some(m) = spec::find(metric) else {
            continue;
        };
        let s = Summary::of(samples);
        println!(
            "{} {metric} {} {} {}",
            w.name,
            m.stat.of(samples),
            m.unit,
            s.describe()
        );
    }
    for (name, value, unit) in &out.layers {
        println!("{} {name} {value} {unit}", w.name);
    }
    for (name, digest) in &out.digests {
        println!("{} digest {name} {digest}", w.name);
    }
    let line = result_line(&mut out, traced);
    for p in &out.problems {
        eprintln!("maps-perf: {}: {p}", w.name);
    }
    if let Some(path) = report {
        let written =
            maps_obs::write_atomic(Path::new(&path), out.to_json().to_pretty().as_bytes());
        if let Err(e) = written {
            return Err(Failure(1, format!("{path}: {e}")));
        }
    }
    if out.failed == 0 {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        eprintln!("maps-perf: artifacts kept in {}", dir.display());
    }
    println!("{line}");
    if out.failed == 0 {
        Ok(())
    } else {
        Err(Failure(
            1,
            format!("{} of {} checks failed", out.failed, out.attempted),
        ))
    }
}

/// Runs `bench` for one workload in a fresh re-exec of this binary.
fn child(w: &Workload, seed: u64, traced: bool, tag: &str) -> Outcome {
    let report = perf_dir().join(format!("{}-{tag}-{}.json", w.name, std::process::id()));
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("maps-perf"));
    let status = Command::new(exe)
        .args(["bench", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if traced { "1" } else { "0" }])
        .arg("--report")
        .arg(&report)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status();
    let parsed = std::fs::read_to_string(&report)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|doc| Outcome::from_json(&doc));
    let _ = std::fs::remove_file(&report);
    parsed.unwrap_or_else(|| {
        let mut out = Outcome::default();
        out.check(false, || {
            format!("{} run produced no report ({status:?})", w.name)
        });
        out
    })
}

/// `nproc`, CPU model and revision of this host and build.
fn provenance(seed: u64, rounds: usize, traced: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::Obj(vec![
        ("nproc".to_string(), Json::UInt(nproc as u64)),
        ("cpu_model".to_string(), Json::Str(cpu)),
        ("git".to_string(), Json::Str(maps_obs::git_describe())),
        ("seed".to_string(), Json::UInt(seed)),
        ("rounds".to_string(), Json::UInt(rounds as u64)),
        ("trace".to_string(), Json::Bool(traced)),
    ])
}

fn accesses_json(kind: Kind) -> Json {
    match kind {
        Kind::Replay(caps) => Json::Obj(
            caps.iter()
                .map(|(b, n)| (b.name().to_string(), Json::UInt(*n)))
                .collect(),
        ),
        Kind::Sweep(n) | Kind::Farmd(n) | Kind::FarmRun(n) => Json::UInt(n),
    }
}

fn run_cmd(mut args: Args) -> Result<(), Failure> {
    let rounds: usize = args.parsed("--rounds", 3).map_err(usage)?;
    let seed = args.parsed("--seed", DEFAULT_SEED).map_err(usage)?;
    let names = args.value("--workloads").map_err(usage)?;
    let out_path = args
        .value("--out")
        .map_err(usage)?
        .map_or_else(|| perf_dir().join("result.json"), PathBuf::from);
    let traced = args.flag("--trace");
    args.done().map_err(usage)?;
    if rounds == 0 {
        return Err(usage("--rounds must be at least 1".to_string()));
    }
    let workloads: Vec<&Workload> = match names {
        Some(list) => list
            .split(',')
            .filter(|n| !n.is_empty())
            .map(find_workload)
            .collect::<Result<_, _>>()?,
        None => WORKLOADS.iter().collect(),
    };
    require_siblings(&workloads)?;
    let prov = provenance(seed, rounds, traced);
    println!(
        "# maps-perf {}",
        prov.to_pretty()
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut results: Vec<(Vec<Outcome>, Option<Outcome>)> =
        workloads.iter().map(|_| (Vec::new(), None)).collect();
    for round in 0..rounds {
        for (w, (outs, _)) in workloads.iter().zip(&mut results) {
            let t = Instant::now();
            let out = child(w, seed, false, &format!("round{round}"));
            eprintln!(
                "[perf] round {}/{rounds} {}: {:.1}s, {} failed",
                round + 1,
                w.name,
                t.elapsed().as_secs_f64(),
                out.failed
            );
            outs.push(out);
        }
    }
    if traced {
        for (w, (_, trace)) in workloads.iter().zip(&mut results) {
            *trace = Some(child(w, seed, true, "trace"));
        }
    }
    cross_check(&workloads, &mut results);

    let mut any_failed = false;
    let mut entries = Vec::new();
    for (w, (outs, trace)) in workloads.iter().zip(&results) {
        let series = ledger::series(outs);
        for s in &series {
            println!("{}", ledger::describe(w.name, s));
        }
        let (attempted, failed) = outs
            .iter()
            .chain(trace)
            .fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed));
        any_failed |= failed > 0;
        for o in outs.iter().chain(trace) {
            for p in &o.problems {
                eprintln!("maps-perf: {}: {p}", w.name);
            }
        }
        let digests = outs.first().map(|o| o.digests.clone()).unwrap_or_default();
        for (name, d) in &digests {
            println!("{} digest {name} {d}", w.name);
        }
        let mut fields = vec![
            ("name".to_string(), Json::Str(w.name.to_string())),
            ("why".to_string(), Json::Str(w.why.to_string())),
            ("accesses".to_string(), accesses_json(w.kind)),
            ("attempted".to_string(), Json::UInt(attempted)),
            ("failed".to_string(), Json::UInt(failed)),
            (
                "metrics".to_string(),
                Json::Obj(
                    series
                        .iter()
                        .map(|s| (s.metric.name.to_string(), ledger::series_json(s)))
                        .collect(),
                ),
            ),
            (
                "digests".to_string(),
                Json::Obj(
                    digests
                        .into_iter()
                        .map(|(k, v)| (k, Json::Str(v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(t) = trace {
            for (name, value, unit) in &t.layers {
                println!("{} {name} {value} {unit}", w.name);
            }
            fields.push(("layers".to_string(), layers_json(&t.layers)));
            if let Some(file) = &t.trace_file {
                println!("{} trace_file {file}", w.name);
                fields.push(("trace_file".to_string(), Json::Str(file.clone())));
            }
        }
        entries.push(Json::Obj(fields));
    }
    let doc = Json::Obj(vec![
        (
            "schema_version".to_string(),
            Json::UInt(ledger::SCHEMA_VERSION),
        ),
        (
            "kind".to_string(),
            Json::Str("maps-perf-result".to_string()),
        ),
        ("provenance".to_string(), prov),
        ("workloads".to_string(), Json::Arr(entries)),
    ]);
    if let Err(e) = maps_obs::write_atomic(&out_path, doc.to_pretty().as_bytes()) {
        return Err(Failure(1, format!("{}: {e}", out_path.display())));
    }
    println!("# wrote {}", out_path.display());
    if any_failed {
        Err(Failure(1, "some checks failed".to_string()))
    } else {
        Ok(())
    }
}

/// The two executors must agree: `campaign-farmd`'s `fig2.tsv` is
/// byte-identical to `sweep-fig2`'s.
fn cross_check(workloads: &[&Workload], results: &mut [(Vec<Outcome>, Option<Outcome>)]) {
    let digest = |name: &str| {
        let i = workloads.iter().position(|w| w.name == name)?;
        results[i]
            .0
            .first()?
            .digests
            .iter()
            .find(|(f, _)| f == "fig2.tsv")
            .map(|(_, d)| d.clone())
    };
    let (Some(sweep), Some(farmd)) = (digest("sweep-fig2"), digest("campaign-farmd")) else {
        return;
    };
    let i = workloads
        .iter()
        .position(|w| w.name == "campaign-farmd")
        .expect("digest found above");
    if let Some(first) = results[i].0.first_mut() {
        first.check(sweep == farmd, || {
            format!("campaign-farmd fig2.tsv {farmd} differs from sweep-fig2's {sweep}")
        });
    }
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty()
        || raw
            .iter()
            .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return if raw.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let command = raw.remove(0);
    let args = Args(raw);
    let result = match command.as_str() {
        "run" => run_cmd(args),
        "bench" => bench_cmd(args),
        "compare" => match args.0.as_slice() {
            [base, new] => match ledger::compare(base, new) {
                Ok(false) => Ok(()),
                Ok(true) => Err(Failure(1, "a metric is worse than its bound".to_string())),
                Err(e) => Err(Failure(2, e)),
            },
            _ => Err(usage("compare takes BASE.json NEW.json".to_string())),
        },
        other => Err(usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure(code, msg)) => {
            eprintln!("maps-perf: {msg}");
            ExitCode::from(code)
        }
    }
}
