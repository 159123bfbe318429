//! Replay workloads: `ReplaySim::run` over captures recorded in-process,
//! the engine and metadata cache at full load with no I/O or farm code.

use std::time::Instant;

use maps_obs::fingerprint64;
use maps_sim::{CapturedTrace, ReplaySim, SimConfig, SimReport};
use maps_workloads::Benchmark;

use crate::layers::Capture;
use crate::spec::another_setup;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::Outcome;

/// Replays of each capture per round.
const PASSES_PER_ROUND: usize = 5;

fn digest(report: &SimReport) -> String {
    format!("{:016x}", fingerprint64(&report.to_json().to_pretty()))
}

/// Replays every capture once, checking each report against the direct
/// run; returns the pass's seconds per capture and its reports.
fn pass(
    cfg: &SimConfig,
    caps: &[Capture],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<SimReport>) {
    caps.iter()
        .map(|cap| {
            tr.begin(&format!("sim.replay.{}", cap.bench.name()));
            let t = Instant::now();
            let report = ReplaySim::new(cfg.clone(), &cap.trace).run();
            let secs = t.elapsed().as_secs_f64();
            tr.end();
            out.check(report == cap.reference, || {
                format!(
                    "{}: replay report differs from the direct SecureSim run",
                    cap.bench
                )
            });
            (secs, report)
        })
        .unzip()
}

/// Records the captures as often as [`another_setup`] asks (checking every
/// recording is identical), runs the direct reference once, then replays at least one
/// round of [`PASSES_PER_ROUND`] passes and on until `seconds` of replay
/// have been measured — or, when traced, a round of untraced and traced
/// passes in alternation. Returns the captures for the layer suite.
pub fn run(
    cfg: &SimConfig,
    captures: &[(Benchmark, u64)],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Capture> {
    let mut traces: Vec<CapturedTrace> = Vec::new();
    let (mut setups, mut setup_secs) = (0, 0.0);
    while another_setup(setups, setup_secs) {
        tr.begin("bench.setup");
        let t = Instant::now();
        let fresh: Vec<CapturedTrace> = captures
            .iter()
            .map(|&(bench, accesses)| {
                tr.span(&format!("sim.capture.record.{bench}"), || {
                    CapturedTrace::record(cfg, bench.build(seed), accesses)
                })
            })
            .collect();
        let secs = t.elapsed().as_secs_f64();
        out.sample("setup_s", secs);
        (setups, setup_secs) = (setups + 1, setup_secs + secs);
        tr.end();
        if traces.is_empty() {
            traces = fresh;
        } else {
            out.check(traces == fresh, || {
                "re-recording changed a capture".to_string()
            });
        }
    }

    tr.begin("bench.reference");
    let caps: Vec<Capture> = captures
        .iter()
        .zip(traces)
        .map(|(&(bench, _), trace)| Capture::new(cfg, bench, seed, trace))
        .collect();
    tr.end();
    let want: Vec<String> = caps.iter().map(|c| digest(&c.reference)).collect();
    for (cap, d) in caps.iter().zip(&want) {
        out.digests
            .push((format!("report.{}", cap.bench), d.clone()));
    }

    let events: Vec<f64> = caps.iter().map(|c| c.trace.total_events() as f64).collect();
    let ns_per_event = |secs: &[f64]| {
        geomean(
            &secs
                .iter()
                .zip(&events)
                .map(|(s, e)| s * 1e9 / e)
                .collect::<Vec<_>>(),
        )
    };
    if tr.on() {
        // Alternating untraced and traced passes, so drift in host load
        // falls on both sides.
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..PASSES_PER_ROUND {
            let (secs, _) = pass(cfg, &caps, &mut Tracer::new(false), out);
            untraced.push(secs.iter().sum::<f64>());
            let (secs, _) = pass(cfg, &caps, tr, out);
            traced.push(secs.iter().sum::<f64>());
        }
        out.layer(
            "trace.overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            "ratio",
        );
        return caps;
    }
    let mut measured = 0.0;
    let mut passes = 0;
    while passes < PASSES_PER_ROUND || measured < seconds {
        let (secs, reports) = pass(cfg, &caps, &mut Tracer::new(false), out);
        let wall: f64 = secs.iter().sum();
        measured += wall;
        out.sample("wall_s", wall);
        out.sample("ns_per_event", ns_per_event(&secs));
        if passes % PASSES_PER_ROUND == 0 {
            let got: Vec<String> = reports.iter().map(digest).collect();
            out.check(got == want, || format!("round digests {got:?} != {want:?}"));
        }
        passes += 1;
    }
    if let Some(kb) = crate::procs::vm_hwm_kb("self") {
        out.sample("peak_rss_mb", kb as f64 / 1024.0);
    }
    caps
}
