//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary (`fig1` … `fig7`, `table2`, `csopt_demo`) prints the rows
//! of the corresponding paper figure/table and supports:
//!
//! * `MAPS_ACCESSES=<n>` — core accesses per simulation run (default is
//!   figure-specific; larger values sharpen the statistics).
//! * `--check` — instead of only printing, assert the qualitative claims
//!   the paper makes about the figure and exit non-zero on violation
//!   (integration tests drive this mode).
//! * `--tsv` — machine-readable tab-separated output.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use maps_sim::{CapturedTrace, FrontEndKey, ReplaySim, SecureSim, SimConfig, SimReport};
use maps_trace::PAGE_BYTES;
use maps_workloads::{Benchmark, OccupancyProbe, RandomGen, TenantMix, TenantSchedule, Workload};

pub mod context;
pub mod error;
pub mod figures;
pub mod fingerprint;
pub mod host;
pub mod queue;
pub mod retry;
pub mod wire;

pub use context::{deterministic_mode, metrics_enabled, RunContext};
pub use error::{report_error, BenchError};
pub use fingerprint::point_fingerprint;
pub use host::{exec_job, FigureHost, JobKind, PlanHost, SimJob, SweepHost};
pub use queue::{panic_text, Farm, FarmStats};
pub use retry::RetryPolicy;
pub use wire::{job_from_json, job_to_json};

/// Number of core accesses per run: `MAPS_ACCESSES` or the given default.
pub fn n_accesses(default: u64) -> u64 {
    std::env::var("MAPS_ACCESSES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether `--check` was passed.
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Whether `--tsv` was passed.
pub fn tsv_mode() -> bool {
    std::env::args().any(|a| a == "--tsv")
}

/// Prints a table in the selected format.
pub fn emit(table: &maps_analysis::Table) {
    if tsv_mode() {
        println!("{}", table.to_tsv());
    } else {
        println!("{table}");
    }
}

/// Asserts a qualitative claim in `--check` mode; always logs it.
///
/// # Panics
///
/// Panics when the claim fails under `--check`.
pub fn claim(ok: bool, description: &str) {
    let mark = if ok { "ok " } else { "VIOLATED" };
    eprintln!("[claim {mark}] {description}");
    if check_mode() {
        assert!(ok, "claim violated: {description}");
    }
}

/// Runs one simulation directly (no capture reuse).
pub fn run_sim(cfg: &SimConfig, bench: Benchmark, seed: u64, accesses: u64) -> SimReport {
    SecureSim::new(cfg.clone(), bench.build(seed)).run(accesses)
}

/// Attacker tenant ID in occupancy-channel runs ([`run_occupancy`]).
pub const OCCUPANCY_ATTACKER: u8 = 0;

/// Victim tenant ID in occupancy-channel runs.
pub const OCCUPANCY_VICTIM: u8 = 1;

/// Runs the two-tenant occupancy-channel scenario: tenant 0 is an
/// [`OccupancyProbe`] attacker whose probe set is sized to exactly fill
/// the configured metadata cache (one counter block per probed page), and
/// tenant 1 is a uniform-random victim over `victim_pages` pages. The two
/// streams interleave core-sharded; the attacker's per-tenant metadata
/// miss ratio in the report is the channel readout.
///
/// Runs direct (no capture memo): the capture cache is keyed on
/// [`Benchmark`] profiles, which this synthesized mix is not.
pub fn run_occupancy(cfg: &SimConfig, seed: u64, accesses: u64, victim_pages: u64) -> SimReport {
    let probe_pages = (cfg.mdc.size_bytes / maps_trace::BLOCK_BYTES).max(1);
    let attacker: Box<dyn Workload> = Box::new(OccupancyProbe::new(seed, probe_pages));
    let victim: Box<dyn Workload> = Box::new(RandomGen::new(
        "occ-victim",
        seed ^ 0x007E_4A17,
        victim_pages.max(1) * PAGE_BYTES,
        0.3,
        2,
        0.0,
        1,
    ));
    let mix = TenantMix::new(vec![attacker, victim], TenantSchedule::CoreSharded);
    SecureSim::new(cfg.clone(), mix).run(accesses)
}

/// Front-end identity of one simulation run; all sweep points sharing it
/// can replay one [`CapturedTrace`]. This is *the* capture key: every
/// consumer (figure binaries, `mdcsim`, the farm) derives it through
/// [`CaptureKey::of`], so identical front-end configurations hit the same
/// cache entry no matter which driver asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CaptureKey {
    /// Workload profile.
    pub bench: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Core accesses recorded.
    pub accesses: u64,
    /// Front-end geometry (L1/L2/LLC + warm-up); back-end-only fields of
    /// the configuration are deliberately excluded.
    pub front_end: FrontEndKey,
}

impl CaptureKey {
    /// The capture key a run with this configuration resolves to.
    pub fn of(cfg: &SimConfig, bench: Benchmark, seed: u64, accesses: u64) -> Self {
        CaptureKey {
            bench,
            seed,
            accesses,
            front_end: FrontEndKey::of(cfg),
        }
    }
}

/// A per-key once-cell: workers needing the same capture block on the
/// single in-flight recording instead of racing to duplicate it.
type CaptureCell = Arc<OnceLock<Arc<CapturedTrace>>>;

/// The process-wide capture memo. The outer map lock is only held for the
/// entry lookup, never during a recording.
static CAPTURES: OnceLock<Mutex<HashMap<CaptureKey, CaptureCell>>> = OnceLock::new();

/// Number of front-end recordings actually performed by this process
/// (capture-memo misses). Cache hits do not move it, so `requests -
/// recordings` is the dedup win; the farm reports it per campaign.
static CAPTURE_RECORDINGS: AtomicU64 = AtomicU64::new(0);

/// Total front-end recordings performed so far in this process.
pub fn capture_recordings() -> u64 {
    CAPTURE_RECORDINGS.load(Ordering::Relaxed)
}

/// Whether `MAPS_NO_CAPTURE` disables the capture/replay memo (used to
/// measure the direct-path baseline; any value but `0` disables).
pub fn capture_disabled() -> bool {
    std::env::var_os("MAPS_NO_CAPTURE").is_some_and(|v| v != "0")
}

/// Returns the shared capture for this front end, recording it on first
/// use. Thread-safe: parallel sweep workers hitting the same key block on
/// one in-flight recording and then share the result via `Arc`.
pub fn captured_trace(
    cfg: &SimConfig,
    bench: Benchmark,
    seed: u64,
    accesses: u64,
) -> Arc<CapturedTrace> {
    let key = CaptureKey::of(cfg, bench, seed, accesses);
    let cell = {
        let mut map = CAPTURES
            .get_or_init(Default::default)
            .lock()
            .expect("capture memo poisoned");
        map.entry(key).or_default().clone()
    };
    cell.get_or_init(|| {
        CAPTURE_RECORDINGS.fetch_add(1, Ordering::Relaxed);
        Arc::new(CapturedTrace::record(cfg, bench.build(seed), accesses))
    })
    .clone()
}

/// Runs one simulation through the capture/replay memo: the front end
/// (workload + L1/L2/LLC) is recorded once per `{benchmark, seed,
/// accesses, geometry}` key and every configuration sharing it replays the
/// event stream. Reports are bit-identical to [`run_sim`]'s (proven by the
/// `replay_equivalence` suite). Set `MAPS_NO_CAPTURE=1` to force the
/// direct path.
pub fn run_sim_cached(cfg: &SimConfig, bench: Benchmark, seed: u64, accesses: u64) -> SimReport {
    if capture_disabled() {
        return run_sim(cfg, bench, seed, accesses);
    }
    let trace = captured_trace(cfg, bench, seed, accesses);
    ReplaySim::new(cfg.clone(), &trace).run()
}

/// [`run_sim_cached`] with a [`MetricsProbe`](maps_sim::MetricsProbe) on the
/// measured metadata stream. Observers only record — they cannot steer the
/// engine — so the report is bit-identical to the unprobed run's (asserted
/// by the instrumented-equivalence test).
pub fn run_sim_cached_probed(
    cfg: &SimConfig,
    bench: Benchmark,
    seed: u64,
    accesses: u64,
) -> (SimReport, maps_sim::MetricsProbe) {
    let mut probe = maps_sim::MetricsProbe::new();
    let report = if capture_disabled() {
        SecureSim::new(cfg.clone(), bench.build(seed)).run_observed(accesses, &mut probe)
    } else {
        let trace = captured_trace(cfg, bench, seed, accesses);
        ReplaySim::new(cfg.clone(), &trace).run_observed(&mut probe)
    };
    (report, probe)
}

/// A send-only slot claimed by exactly one worker.
struct Slot<V>(UnsafeCell<Option<V>>);

// SAFETY: workers access disjoint slots — each index is claimed exactly
// once via the atomic cursor, so no slot is touched by two threads.
unsafe impl<V: Send> Sync for Slot<V> {}

/// Maps `f` over `items` on all available cores, preserving order.
///
/// Work distribution is a single atomic cursor over a shared slice — no
/// per-job locking. A panicking job aborts the sweep and re-raises with
/// the failing job's index.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, usize::MAX, f)
}

/// [`parallel_map`] with an explicit worker-count ceiling (the farm's
/// `--workers N`). The effective count is still bounded by the machine's
/// parallelism and the number of items; a ceiling of 0 means 1.
pub fn parallel_map_with<T, R, F>(items: Vec<T>, max_workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs: Vec<Slot<T>> = items
        .into_iter()
        .map(|t| Slot(UnsafeCell::new(Some(t))))
        .collect();
    let results: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let workers = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(n.max(1))
        .min(max_workers.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i` came from the shared cursor, so this thread
                // is the only one ever touching jobs[i]/results[i].
                let item = unsafe { &mut *jobs[i].0.get() }
                    .take()
                    .expect("job claimed twice");
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => {
                        // SAFETY: same disjoint-index claim as the take
                        // above — this thread exclusively owns results[i].
                        *unsafe { &mut *results[i].0.get() } = Some(r);
                    }
                    Err(payload) => {
                        let mut slot = failure.lock().expect("failure slot poisoned");
                        if slot.is_none() {
                            *slot = Some((i, payload));
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some((i, payload)) = failure.into_inner().expect("failure slot poisoned") {
        panic!("parallel_map job {i} panicked: {}", panic_text(payload));
    }
    results
        .into_iter()
        .map(|slot| slot.0.into_inner().expect("worker produced no result"))
        .collect()
}

/// The metadata-cache size sweep used by Figures 1 and 2.
pub const MDC_SIZES: [u64; 6] = [16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20];

/// The LLC size sweep used by Figure 2.
pub const LLC_SIZES: [u64; 4] = [512 << 10, 1 << 20, 2 << 20, 4 << 20];

/// Deterministic seed base for all figure harnesses.
pub const SEED: u64 = 0x4D415053; // "MAPS"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x: u64| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_fine() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn accesses_default_when_env_missing() {
        std::env::remove_var("MAPS_ACCESSES");
        assert_eq!(n_accesses(123), 123);
    }

    #[test]
    fn parallel_map_surfaces_panic_with_job_index() {
        let err = std::panic::catch_unwind(|| {
            parallel_map((0..8).collect(), |x: u64| {
                assert!(x != 5, "boom");
                x
            })
        })
        .expect_err("a job panicked");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("job 5"), "missing index: {msg}");
    }

    #[test]
    fn cached_run_matches_direct_run_exactly() {
        let cfg = SimConfig::paper_default();
        let direct = run_sim(&cfg, Benchmark::Gups, SEED, 8_000);
        let cached = run_sim_cached(&cfg, Benchmark::Gups, SEED, 8_000);
        let cached_again = run_sim_cached(&cfg, Benchmark::Gups, SEED, 8_000);
        assert_eq!(direct, cached);
        assert_eq!(direct, cached_again);
    }

    #[test]
    fn captures_are_shared_across_callers() {
        let cfg = SimConfig::paper_default();
        let a = captured_trace(&cfg, Benchmark::Mcf, SEED, 6_000);
        // A back-end-only change must hit the same capture.
        let b = captured_trace(
            &cfg.with_mdc(cfg.mdc.with_size(1 << 20)),
            Benchmark::Mcf,
            SEED,
            6_000,
        );
        assert!(Arc::ptr_eq(&a, &b));
        // A front-end change must not.
        let c = captured_trace(
            &cfg.with_llc_bytes(cfg.llc_bytes * 2),
            Benchmark::Mcf,
            SEED,
            6_000,
        );
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn concurrent_same_key_requests_share_one_recording() {
        let cfg = SimConfig::paper_default().with_llc_bytes(1 << 20);
        let traces = parallel_map((0..8).collect(), |_: u64| {
            captured_trace(&cfg, Benchmark::Canneal, SEED + 1, 5_000)
        });
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }
}
