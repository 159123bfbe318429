//! Farm scheduling properties.
//!
//! * However campaign specs overlap, the farm never schedules one
//!   fingerprint twice: executions == unique fingerprints.
//! * Capture-cache hits never change replay output: the shared-capture
//!   execution path ([`maps_bench::exec_job`]) is a differential twin of
//!   a fresh, uncached simulation.

#![recursion_limit = "256"]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use maps_bench::{exec_job, point_fingerprint, run_sim, Farm, PlanHost, SimJob, SEED};
use maps_sim::{SimConfig, SimReport};
use maps_trace::DetHashSet;
use maps_workloads::Benchmark;
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_ckpt() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("maps-farm-prop-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("campaign.ckpt")
}

/// Builds a job from a compact generated tuple.
fn job_of((llc_shift, mdc_shift, bench_idx): (u64, u64, usize)) -> SimJob {
    let bench = Benchmark::ALL[bench_idx % Benchmark::ALL.len()];
    let base = SimConfig::paper_default();
    let cfg = base
        .with_llc_bytes(base.llc_bytes >> llc_shift)
        .with_mdc(base.mdc.with_size(base.mdc.size_bytes >> mdc_shift));
    SimJob::replay(
        format!("llc{llc_shift}/mdc{mdc_shift}/{}", bench.name()),
        cfg,
        bench,
        256,
    )
}

/// Synthetic executor: deterministic in the job, no simulator involved.
fn fake_exec(job: &SimJob) -> SimReport {
    let mut report = PlanHost::placeholder_report();
    report.workload = job.key.clone();
    report.cycles = job.cfg.llc_bytes + job.cfg.mdc.size_bytes;
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Overlapping submissions — any split of any job list, duplicates
    // included — execute every unique fingerprint exactly once, and
    // every submitter receives the right report for every job.
    #[test]
    fn overlapping_specs_never_schedule_a_fingerprint_twice(
        specs in prop::collection::vec((0u64..4, 0u64..4, 0usize..16), 1..24),
        split in 0usize..24,
    ) {
        let jobs: Vec<SimJob> = specs.iter().map(|&s| job_of(s)).collect();
        let split = split % (jobs.len() + 1);
        let unique: DetHashSet<u64> = jobs.iter().map(point_fingerprint).collect();

        let ckpt = tmp_ckpt();
        let farm = Farm::new("prop", 1, ckpt.clone());
        let executions = AtomicUsize::new(0);
        let exec = |j: &SimJob| {
            executions.fetch_add(1, Ordering::Relaxed);
            fake_exec(j)
        };
        let (first, second) = std::thread::scope(|s| {
            let worker = s.spawn(|| farm.worker_loop(&exec));
            let first = farm.run_labeled("first", jobs[..split].to_vec());
            let second = farm.run_labeled("second", jobs[split..].to_vec());
            farm.close();
            worker.join().expect("worker");
            (first, second)
        });
        let reports: Vec<SimReport> = first
            .expect("first half")
            .into_iter()
            .chain(second.expect("second half"))
            .collect();

        prop_assert_eq!(executions.load(Ordering::Relaxed), unique.len());
        prop_assert_eq!(reports.len(), jobs.len());
        for (job, report) in jobs.iter().zip(&reports) {
            // Equal-identity jobs share one report; its payload matches
            // the job's configuration even when the key differs.
            prop_assert_eq!(report.cycles, job.cfg.llc_bytes + job.cfg.mdc.size_bytes);
        }
        std::fs::remove_file(&ckpt).ok();
    }

    // The shared-capture path is a differential twin of a fresh
    // simulation: replaying the memoized front-end capture yields
    // bitwise the same report as simulating from scratch.
    #[test]
    fn capture_cache_hits_never_change_replay_output(
        llc_shift in 0u64..3,
        bench_idx in 0usize..16,
        accesses in 200u64..500,
    ) {
        let bench = Benchmark::ALL[bench_idx % Benchmark::ALL.len()];
        let base = SimConfig::paper_default();
        let cfg = base.with_llc_bytes(base.llc_bytes >> llc_shift);
        let job = SimJob::replay("diff", cfg.clone(), bench, accesses);
        // First call may record the capture; the second is a guaranteed
        // cache hit. Both must equal the uncached direct simulation.
        let fresh = run_sim(&cfg, bench, SEED, accesses);
        prop_assert_eq!(&exec_job(&job), &fresh);
        prop_assert_eq!(&exec_job(&job), &fresh);
    }
}

/// Campaign plans are deterministic and collision-free at the fingerprint
/// level: planning the same figures twice yields the same unique point
/// set, and distinct job identities never collide (over the real planned
/// corpus rather than synthetic jobs).
#[test]
fn planned_fingerprints_are_stable_and_collision_free() {
    use maps_bench::figures::figure;
    let defs = [
        figure("fig2").expect("fig2 registered"),
        figure("fig7").expect("fig7 registered"),
    ];
    let mut identities: Vec<(u64, String)> = Vec::new();
    for def in defs {
        let mut plan = PlanHost::new();
        (def.drive)(&mut plan);
        for (_, jobs) in plan.phases {
            for job in jobs {
                identities.push((point_fingerprint(&job), job.identity()));
            }
        }
    }
    for (fp_a, id_a) in &identities {
        for (fp_b, id_b) in &identities {
            assert_eq!(
                fp_a == fp_b,
                id_a == id_b,
                "fingerprint equality must track identity equality"
            );
        }
    }
}
