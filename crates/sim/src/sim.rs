//! The end-to-end secure-memory simulation.

use maps_mem::{DramCounters, EnergyDelay, SramModel};
use maps_secure::SecureConfig;
use maps_workloads::Workload;

use crate::engine::{MetaObserver, MetadataEngine, NullObserver};
use crate::hierarchy::{Hierarchy, HierarchyStats, MemEvent};
use crate::{SimConfig, SimReport};

/// The memory side the direct and replay simulations share: the metadata
/// engine when memory is secure, bare DRAM accounting for the insecure
/// baseline. The direct [`SecureSim`] path hands it one core access's LLC
/// events at a time and [`ReplaySim`](crate::ReplaySim) a decoded batch;
/// either way every event enters through [`MetadataEngine::handle_batch`],
/// and the report is assembled in one place, so the two produce
/// bit-identical reports from identical inputs.
pub(crate) struct Controller {
    engine: Option<MetadataEngine>,
    /// DRAM transfers in insecure mode (no engine to count them).
    insecure_dram: DramCounters,
    /// Stall of an insecure demand read: the bare DRAM fetch.
    dram_latency: u64,
}

impl Controller {
    /// Builds the memory side for a workload of `footprint_bytes`:
    /// protected memory is grown to the footprint when the configured size
    /// is smaller.
    pub(crate) fn new(cfg: &SimConfig, footprint_bytes: u64) -> Self {
        let memory_bytes = cfg.memory_bytes.max(footprint_bytes).max(4096);
        let secure_cfg = SecureConfig::new(
            memory_bytes.next_multiple_of(maps_trace::PAGE_BYTES),
            cfg.counter_mode,
        );
        let engine = cfg.secure.then(|| {
            MetadataEngine::with_speculation_window(
                secure_cfg,
                &cfg.mdc,
                cfg.dram.latency_cycles,
                cfg.hash_latency,
                cfg.speculation,
                cfg.speculation_window,
            )
        });
        Self {
            engine,
            insecure_dram: DramCounters::default(),
            dram_latency: cfg.dram.latency_cycles,
        }
    }

    /// The metadata engine (if secure memory is enabled).
    pub(crate) fn engine(&self) -> Option<&MetadataEngine> {
        self.engine.as_ref()
    }

    /// Handles LLC events in order, returning the summed demand-read
    /// stalls.
    pub(crate) fn handle<O: MetaObserver + ?Sized>(
        &mut self,
        events: &[MemEvent],
        obs: &mut O,
    ) -> u64 {
        match &mut self.engine {
            Some(engine) => engine.handle_batch(events, obs),
            None => {
                let mut stall = 0;
                for event in events {
                    match event {
                        MemEvent::Write(..) => self.insecure_dram.writes += 1,
                        MemEvent::Read(..) => {
                            self.insecure_dram.reads += 1;
                            stall += self.dram_latency;
                        }
                    }
                }
                stall
            }
        }
    }

    /// Resets statistics at the warm-up boundary (cache and counter state
    /// persist).
    pub(crate) fn reset_stats(&mut self) {
        if let Some(engine) = &mut self.engine {
            engine.reset_stats();
        }
        self.insecure_dram = DramCounters::default();
    }

    /// Flushes the metadata cache, feeding `obs` the final writeback
    /// stream.
    pub(crate) fn flush<O: MetaObserver + ?Sized>(&mut self, obs: &mut O) {
        if let Some(engine) = &mut self.engine {
            engine.flush(obs);
        }
    }

    /// Assembles the measured-window report: cycles, hierarchy counters,
    /// engine statistics, and the full energy model. Instructions come from
    /// the hierarchy counters — the single source of truth for
    /// retired-instruction counts.
    pub(crate) fn report(
        &self,
        cfg: &SimConfig,
        workload: &str,
        cycles: u64,
        hierarchy: &HierarchyStats,
    ) -> SimReport {
        let engine = self.engine.as_ref();
        let engine_stats = engine.map(|e| *e.stats()).unwrap_or_default();
        let mut energy = EnergyDelay::new();
        energy.add_cycles(cycles);

        // DRAM dynamic energy: every block transfer at 150 pJ/bit, plus
        // background power over the window.
        let dram_transfers = if engine.is_some() {
            engine_stats.dram_total()
        } else {
            self.insecure_dram.total()
        };
        energy.add_dram_pj(dram_transfers as f64 * cfg.dram.block_transfer_energy_pj());
        energy.add_static_pj(cfg.dram.background_energy_pj(cycles));

        // SRAM dynamic energy per level: accesses × capacity-scaled cost.
        let l1 = SramModel::new(cfg.l1_bytes);
        let l2 = SramModel::new(cfg.l2_bytes);
        let llc = SramModel::new(cfg.llc_bytes);
        energy.add_sram_pj(hierarchy.accesses as f64 * l1.block_access_energy_pj());
        energy.add_sram_pj(hierarchy.l1_misses as f64 * l2.block_access_energy_pj());
        energy.add_sram_pj(hierarchy.l2_misses as f64 * llc.block_access_energy_pj());
        energy.add_static_pj(llc.leakage_energy_pj(cycles));
        if cfg.mdc.size_bytes > 0 && engine.is_some() {
            let mdc = SramModel::new(cfg.mdc.size_bytes);
            let meta_accesses = engine_stats.meta.metadata_total().accesses;
            energy.add_sram_pj(meta_accesses as f64 * mdc.block_access_energy_pj());
            energy.add_static_pj(mdc.leakage_energy_pj(cycles));
        }

        // Per-tenant breakdown: one row per tenant that touched the
        // metadata cache, ascending by id (the table iterates in id order,
        // so capture and direct paths serialize identical rows).
        let tenants = engine
            .and_then(MetadataEngine::mdc)
            .map(|mdc| {
                let table = mdc.tenant_stats();
                table
                    .tenants()
                    .map(|t| crate::TenantMdcStats {
                        tenant: t,
                        meta: table.stats(t),
                        occupancy: table.occupancy(t),
                    })
                    .collect()
            })
            .unwrap_or_default();

        SimReport {
            workload: workload.to_string(),
            instructions: hierarchy.instructions,
            cycles,
            hierarchy: *hierarchy,
            engine: engine_stats,
            tenants,
            energy,
        }
    }
}

/// Drives a workload through the hierarchy and metadata engine, producing
/// a [`SimReport`].
///
/// The run is split into a warm-up phase (statistics discarded, observer
/// muted) and a measured phase, mirroring the paper's 50 M-instruction
/// cache warm-up.
///
/// # Examples
///
/// ```
/// use maps_sim::{SecureSim, SimConfig};
/// use maps_workloads::Benchmark;
///
/// let mut sim = SecureSim::new(SimConfig::paper_default(), Benchmark::Gups.build(7));
/// let report = sim.run(10_000);
/// assert!(report.metadata_mpki() > 0.0);
/// ```
pub struct SecureSim<W> {
    cfg: SimConfig,
    workload: W,
    hierarchy: Hierarchy,
    controller: Controller,
    cycles: u64,
    events: Vec<MemEvent>,
}

impl<W: Workload> SecureSim<W> {
    /// Builds a simulation; protected memory is automatically grown to the
    /// workload's footprint when the configured size is smaller.
    pub fn new(cfg: SimConfig, workload: W) -> Self {
        Self {
            hierarchy: Hierarchy::new(&cfg),
            controller: Controller::new(&cfg, workload.footprint_bytes()),
            cfg,
            workload,
            cycles: 0,
            events: Vec::with_capacity(8),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The metadata engine (if secure memory is enabled).
    pub fn engine(&self) -> Option<&MetadataEngine> {
        self.controller.engine()
    }

    /// Executes one core access outside [`SecureSim::run`]'s
    /// warm-up/measure framing, feeding `obs` the metadata stream. This is
    /// the lockstep hook the differential oracle drives: the oracle
    /// executes the same access on its side and cross-checks the observed
    /// streams, cycles, and statistics after every step.
    pub fn step_observed<O: MetaObserver + ?Sized>(&mut self, obs: &mut O) {
        self.step(obs);
    }

    /// Cycles accumulated so far (differential lockstep hook).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Flushes the metadata engine's cache, feeding `obs` the final
    /// writeback stream (differential lockstep hook).
    pub fn flush_observed<O: MetaObserver + ?Sized>(&mut self, obs: &mut O) {
        self.controller.flush(obs);
    }

    /// Hierarchy statistics so far (differential lockstep hook).
    pub fn hierarchy_stats(&self) -> &HierarchyStats {
        self.hierarchy.stats()
    }

    /// Runs `accesses` core accesses (including warm-up) and reports.
    pub fn run(&mut self, accesses: u64) -> SimReport {
        self.run_observed(accesses, &mut NullObserver)
    }

    /// Runs with an observer on the measured phase's metadata stream.
    pub fn run_observed<O: MetaObserver + ?Sized>(
        &mut self,
        accesses: u64,
        obs: &mut O,
    ) -> SimReport {
        let warmup = self.cfg.warmup_accesses(accesses);
        for _ in 0..warmup {
            self.step(&mut NullObserver);
        }
        self.hierarchy.reset_stats();
        self.controller.reset_stats();
        self.cycles = 0;
        for _ in warmup..accesses {
            self.step(obs);
        }
        self.controller.report(
            &self.cfg,
            self.workload.name(),
            self.cycles,
            self.hierarchy.stats(),
        )
    }

    /// Executes one core access.
    fn step<O: MetaObserver + ?Sized>(&mut self, obs: &mut O) {
        let access = self.workload.next_access();
        let tenant = self.workload.current_tenant();
        self.cycles += u64::from(access.icount); // base CPI of 1
        self.hierarchy
            .access_from(&access, tenant, &mut self.events);
        // Writebacks first (they are buffered off the critical path),
        // then the demand read contributes its stall.
        self.cycles += self.controller.handle(&self.events, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheContents, MdcConfig};
    use maps_workloads::Benchmark;

    fn quick(cfg: SimConfig, bench: Benchmark, n: u64) -> SimReport {
        SecureSim::new(cfg, bench.build(11)).run(n)
    }

    #[test]
    fn memory_intensive_workloads_exceed_mpki_threshold() {
        // Section III: the paper focuses on benchmarks with LLC MPKI > 10.
        for bench in [Benchmark::Canneal, Benchmark::Gups, Benchmark::Mcf] {
            let r = quick(SimConfig::paper_default(), bench, 60_000);
            assert!(r.llc_mpki() > 10.0, "{bench}: LLC MPKI {:.1}", r.llc_mpki());
        }
    }

    #[test]
    fn cache_resident_workload_has_low_mpki() {
        let r = quick(SimConfig::paper_default(), Benchmark::Perl, 60_000);
        assert!(r.llc_mpki() < 10.0, "perl LLC MPKI {:.1}", r.llc_mpki());
    }

    #[test]
    fn secure_memory_costs_energy_and_time() {
        let secure = quick(SimConfig::paper_default(), Benchmark::Gups, 40_000);
        let insecure = quick(SimConfig::insecure_baseline(), Benchmark::Gups, 40_000);
        assert!(secure.energy.total_pj() > insecure.energy.total_pj());
        assert!(secure.cycles >= insecure.cycles);
        assert!(secure.ed2() > insecure.ed2());
    }

    #[test]
    fn metadata_cache_reduces_dram_traffic() {
        let with = quick(SimConfig::paper_default(), Benchmark::Libquantum, 60_000);
        let without = quick(
            SimConfig::paper_default().with_mdc(MdcConfig::disabled()),
            Benchmark::Libquantum,
            60_000,
        );
        assert!(
            with.engine.dram_meta.total() < without.engine.dram_meta.total() / 2,
            "with: {}, without: {}",
            with.engine.dram_meta.total(),
            without.engine.dram_meta.total()
        );
    }

    #[test]
    fn bigger_metadata_cache_never_hurts_misses_much() {
        let small = quick(
            SimConfig::paper_default().with_mdc(MdcConfig::paper_default().with_size(16 << 10)),
            Benchmark::Libquantum,
            60_000,
        );
        let large = quick(
            SimConfig::paper_default().with_mdc(MdcConfig::paper_default().with_size(1 << 20)),
            Benchmark::Libquantum,
            60_000,
        );
        assert!(large.metadata_mpki() <= small.metadata_mpki() * 1.05);
    }

    #[test]
    fn caching_all_types_beats_counters_only_for_streaming() {
        let base = SimConfig::paper_default();
        let all = quick(
            base.with_mdc(
                base.mdc
                    .with_contents(CacheContents::ALL)
                    .with_size(64 << 10),
            ),
            Benchmark::Libquantum,
            60_000,
        );
        let ctrs = quick(
            base.with_mdc(
                base.mdc
                    .with_contents(CacheContents::COUNTERS_ONLY)
                    .with_size(64 << 10),
            ),
            Benchmark::Libquantum,
            60_000,
        );
        assert!(
            all.metadata_mpki() < ctrs.metadata_mpki(),
            "all-types {:.1} vs counters-only {:.1}",
            all.metadata_mpki(),
            ctrs.metadata_mpki()
        );
    }

    #[test]
    fn observer_sees_measured_phase_stream() {
        use maps_analysis::GroupedReuseProfiler;
        let mut sim = SecureSim::new(
            SimConfig::paper_default().with_mdc(MdcConfig::disabled()),
            Benchmark::Libquantum.build(3),
        );
        let mut profiler = GroupedReuseProfiler::new();
        sim.run_observed(30_000, &mut profiler);
        assert!(profiler.combined().accesses() > 0);
    }

    #[test]
    fn report_totals_are_consistent() {
        let r = quick(SimConfig::paper_default(), Benchmark::Fft, 30_000);
        let meta = r.engine.meta.metadata_total();
        assert_eq!(meta.accesses, meta.hits + meta.misses);
        assert!(r.instructions > 0);
        assert!(r.cycles >= r.instructions);
    }
}
