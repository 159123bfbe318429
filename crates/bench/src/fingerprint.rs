//! Sweep-point identity.
//!
//! A point's fingerprint hashes everything that can change its simulated
//! numbers: the full [`maps_sim::SimConfig`] in its one lossless encoding
//! (the text manifests embed and the farm wire carries, so policy
//! parameters and DRAM energy terms are covered), workload, seed, access
//! count, execution kind (replay / MIN / iterative MIN / occupancy), and
//! the git revision of the simulator itself. Figures naming the same
//! physical point therefore collide onto one fingerprint — the queue's
//! deduplication and checkpoint key — while any change to the code or the
//! configuration separates them, so a stale checkpoint can never be
//! resumed into wrong results.

use maps_obs::{fingerprint64, git_describe};

use crate::SimJob;

/// The queue-wide identity of one sweep point.
pub fn point_fingerprint(job: &SimJob) -> u64 {
    fingerprint64(&format!("{}|git={}", job.identity(), git_describe()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_sim::{PolicyChoice, SimConfig};
    use maps_workloads::Benchmark;

    #[test]
    fn fingerprint_ignores_presentation_but_not_identity() {
        let cfg = SimConfig::paper_default();
        let a = SimJob::replay("fig2-name", cfg.clone(), Benchmark::Gups, 1000);
        let mut renamed = a.clone();
        renamed.key = "fig7-name".to_string();
        assert_eq!(point_fingerprint(&a), point_fingerprint(&renamed));

        let mut other_cfg = a.clone();
        other_cfg.cfg = cfg.with_llc_bytes(cfg.llc_bytes * 2);
        assert_ne!(point_fingerprint(&a), point_fingerprint(&other_cfg));

        let mut other_seed = a.clone();
        other_seed.seed += 1;
        assert_ne!(point_fingerprint(&a), point_fingerprint(&other_seed));

        // Policy parameters and DRAM energy terms change the simulated
        // numbers, so they separate points too.
        let with = |edit: fn(&mut SimConfig)| {
            let mut job = a.clone();
            edit(&mut job.cfg);
            point_fingerprint(&job)
        };
        assert_ne!(
            with(|c| c.mdc.policy = PolicyChoice::CostAware(1)),
            with(|c| c.mdc.policy = PolicyChoice::CostAware(64))
        );
        assert_ne!(
            with(|c| c.mdc.policy = PolicyChoice::Random(1)),
            with(|c| c.mdc.policy = PolicyChoice::Random(2))
        );
        assert_ne!(
            with(|c| c.dram.energy_per_bit_pj = 150.0),
            with(|c| c.dram.energy_per_bit_pj = 300.0)
        );
        assert_ne!(
            with(|c| c.dram.background_pj_per_cycle = 50.0),
            with(|c| c.dram.background_pj_per_cycle = 75.0)
        );
    }
}
