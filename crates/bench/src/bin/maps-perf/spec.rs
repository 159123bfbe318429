//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics a traced run reports.
//! `BENCHMARK.json` at the repository root mirrors these tables; a unit
//! test keeps the two in step. Every metric here is lower-is-better.

use maps_workloads::Benchmark;

/// How one workload exercises the system. Subprocess workloads carry the
/// core-access count of every simulated point (`MAPS_ACCESSES`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process `ReplaySim::run` over captures of these benchmarks, each
    /// recorded at the given core-access count.
    Replay(&'static [(Benchmark, u64)]),
    /// The standalone `fig2` binary (`LocalHost` / `RunContext::sweep`).
    Sweep(u64),
    /// A fresh `maps-farmd --workers 2` serving `maps-farm submit
    /// --figures fig2,fig7`.
    Farmd(u64),
    /// `maps-farm run --all --workers 2`.
    FarmRun(u64),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Every workload, in the order `run` interleaves them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "replay-miss",
        why: "canneal+mcf replay: read-dominated, frequent metadata-cache misses and tree walks",
        kind: Kind::Replay(&[(Benchmark::Canneal, 1_000_000), (Benchmark::Mcf, 1_000_000)]),
    },
    Workload {
        name: "replay-hit",
        why: "libquantum+lbm replay: streaming, nearly all metadata-cache hits; catches hit-path taxes",
        kind: Kind::Replay(&[
            (Benchmark::Libquantum, 3_000_000),
            (Benchmark::Lbm, 3_000_000),
        ]),
    },
    Workload {
        name: "replay-write",
        why: "gups replay: random read-modify-write drives counters, dirty writebacks and update cascades",
        kind: Kind::Replay(&[(Benchmark::Gups, 1_000_000)]),
    },
    Workload {
        name: "sweep-fig2",
        why: "fig2 binary at 200k accesses: 350 points over 56 captures, the headline figure as users run it",
        kind: Kind::Sweep(200_000),
    },
    Workload {
        name: "campaign-farmd",
        why: "fig2+fig7 through maps-farmd with two worker processes: queue, frames and worker round trips",
        kind: Kind::Farmd(200_000),
    },
    Workload {
        name: "campaign-tiny",
        why: "maps-farm run --all at 2k accesses: 708 sub-millisecond points, so checkpoint and codec costs dominate",
        kind: Kind::FarmRun(2_000),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run's samples of a metric become its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The fastest repetition. Other tenants of a shared host only ever add
    /// time (on a shared 2-vCPU host a replay pass's CPU time tracked its
    /// wall time, yet medians of 10 s runs drifted by up to 2x), so the
    /// minimum is the steadiest estimate of the program's own cost. The
    /// median and tail are printed beside it.
    Min,
    /// The median.
    Median,
}

impl Stat {
    /// The value of `samples` under this statistic.
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Stat::Min => samples.iter().copied().fold(f64::INFINITY, f64::min),
            Stat::Median => crate::stats::median(samples),
        }
    }
}

/// A metric with its unit and, for end-to-end metrics, the share of the
/// base value by which it may worsen before a change is a regression.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Regression bound as a share of the base (end-to-end only).
    pub bound: f64,
    /// How a run's samples become its value.
    pub stat: Stat,
}

const fn metric(name: &'static str, unit: &'static str, bound: f64, stat: Stat) -> Metric {
    Metric {
        name,
        unit,
        bound,
        stat,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, 0.0, Stat::Median)
}

/// The end-to-end metrics every workload reports, from untraced runs.
/// Bounds come from the quartile spread of ten runs per workload on a
/// shared 2-vCPU host. Memory spread up to 4.4% (which of the two daemon
/// workers records more captures varies), so its bound is 15%. Time
/// spread 4–16%: fastest-pass replay times stayed under 5%, but the
/// two-worker figure and campaign runs slow down by up to 50% for minutes
/// at a time when the host is busy, so times get 25%.
pub const END_TO_END: [Metric; 3] = [
    // Host seconds of the fastest repetition: one replay of each capture,
    // or one run of the figure/campaign client from launch to exit.
    metric("wall_s", "s", 0.25, Stat::Min),
    // Several set-ups per run; see `main.rs` for what set-up means per
    // workload.
    metric("setup_s", "s", 0.25, Stat::Median),
    // VmHWM of the simulating process.
    metric("peak_rss_mb", "MB", 0.15, Stat::Median),
];

/// Metrics `run` adds for some workloads; `compare` judges them too. They
/// stay out of `BENCHMARK.json`, whose end-to-end metrics every workload
/// must report and none may read zero.
pub const RUN_ONLY: [Metric; 2] = [
    // Replay workloads only: per pass, the geometric mean over captures of
    // host ns per replayed LLC event.
    metric("ns_per_event", "ns", 0.25, Stat::Min),
    // Failed operations over attempted; any increase is a regression.
    metric("failed_frac", "ratio", 0.0, Stat::Median),
];

/// Whether a run takes another set-up after `done` of them took `secs`:
/// at least three, and more while under a second (up to fifty), so that
/// millisecond set-ups still give a steady median.
pub fn another_setup(done: usize, secs: f64) -> bool {
    done < 3 || (secs < 1.0 && done < 50)
}

/// The per-layer metrics every traced run reports (no bounds). Metrics
/// over captures are geometric means across the workload's layer
/// captures; the traced run also prints each per capture under a
/// `.<bench>` suffix, plus campaign gaps and sweep phases where the
/// workload has them.
pub const LAYERS: [Metric; 28] = [
    layer("sim.replay.ns_per_event", "ns"),
    layer("sim.replay.residual_ns_per_event", "ns"),
    layer("sim.capture.decode_ns_per_event", "ns"),
    layer("sim.engine.ns_per_event", "ns"),
    layer("sim.engine.self_ns_per_event", "ns"),
    layer("sim.mdcache.ns_per_access", "ns"),
    layer("sim.mdcache.self_ns_per_access", "ns"),
    layer("cache.ns_per_access", "ns"),
    layer("secure.counters.ns_per_write", "ns"),
    layer("workloads.ns_per_access", "ns"),
    layer("sim.hierarchy.ns_per_access", "ns"),
    layer("sim.capture.record_ns_per_access", "ns"),
    layer("sim.capture.encode_ns_per_access", "ns"),
    layer("sim.mdcache.accesses_per_event", "count"),
    layer("sim.mdcache.miss_ratio", "ratio"),
    layer("sim.mdcache.writebacks_per_event", "count"),
    layer("sim.engine.walk_levels_per_event", "count"),
    layer("sim.capture.events_per_access", "count"),
    layer("sim.capture.bytes_per_event", "bytes"),
    layer("obs.report_json.encode_us", "us"),
    layer("obs.report_json.decode_us", "us"),
    layer("bench.wire.job_roundtrip_us", "us"),
    layer("obs.frame.roundtrip_us", "us"),
    layer("obs.checkpoint.save_ms.n350", "ms"),
    layer("obs.checkpoint.save_ms.n446", "ms"),
    layer("obs.checkpoint.save_ms.n708", "ms"),
    layer("obs.checkpoint.campaign_s.n708", "s"),
    layer("trace.overhead_frac", "ratio"),
];

/// A known metric by name (`.<bench>` suffixes allowed).
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&RUN_ONLY).chain(&LAYERS).find(|m| {
        name == m.name
            || name
                .strip_prefix(m.name)
                .is_some_and(|r| r.starts_with('.'))
    })
}

/// The unit of a known metric name (`.<bench>` suffixes allowed).
pub fn unit_of(name: &str) -> &'static str {
    find(name).map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_obs::Json;

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("{key} is not an array"),
        }
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap()
    }

    /// `BENCHMARK.json` is what the benchmark driver reads; it must list
    /// exactly the workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((field(entry, "name"), field(entry, "why")), (w.name, w.why));
        }
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (field(entry, "name"), field(entry, "unit")),
                (m.name, m.unit)
            );
            assert_eq!(field(entry, "better"), "lower");
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (entry, m) in layers.iter().zip(&LAYERS) {
            assert_eq!(
                (field(entry, "name"), field(entry, "unit")),
                (m.name, m.unit)
            );
            assert_eq!(field(entry, "better"), "lower");
        }
    }

    #[test]
    fn units_resolve_through_bench_suffixes() {
        assert_eq!(unit_of("sim.engine.ns_per_event.canneal"), "ns");
        assert_eq!(unit_of("sim.engine.ns_per_event"), "ns");
        assert_eq!(unit_of("wall_s"), "s");
        assert_eq!(unit_of("sim.engine.ns_per_eventually"), "");
    }
}
