//! Analytic DRAM model.

use maps_trace::BLOCK_BYTES;

/// Fixed-latency DRAM with per-bit transfer energy.
///
/// The characterization results of the paper depend on *how many* DRAM
/// transfers occur, not on bank-level scheduling detail, so this model
/// charges a constant access latency and a constant per-block energy
/// (DESIGN.md records the substitution for DRAMSim2).
///
/// # Examples
///
/// ```
/// use maps_mem::DramModel;
/// let dram = DramModel::paper_default();
/// // 150 pJ/bit * 512 bits = 76.8 nJ per 64 B block.
/// assert!((dram.block_transfer_energy_pj() - 76_800.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Access latency in processor cycles.
    pub latency_cycles: u64,
    /// Transfer energy in picojoules per bit.
    pub energy_per_bit_pj: f64,
    /// Background (refresh + standby) power in picojoules per cycle.
    pub background_pj_per_cycle: f64,
}

impl DramModel {
    /// Model matching Table I's 3 GHz core with commodity DDR3: ~200 cycle
    /// access latency and the 150 pJ/bit the paper cites \[14\].
    pub const fn paper_default() -> Self {
        Self {
            latency_cycles: 200,
            energy_per_bit_pj: 150.0,
            background_pj_per_cycle: 50.0,
        }
    }

    /// Creates a model with explicit latency and energy.
    pub const fn new(latency_cycles: u64, energy_per_bit_pj: f64) -> Self {
        Self {
            latency_cycles,
            energy_per_bit_pj,
            background_pj_per_cycle: 0.0,
        }
    }

    /// Energy to transfer one 64 B block, in picojoules.
    pub fn block_transfer_energy_pj(&self) -> f64 {
        self.energy_per_bit_pj * (BLOCK_BYTES * 8) as f64
    }

    /// Background energy over a cycle span, in picojoules.
    pub fn background_energy_pj(&self, cycles: u64) -> f64 {
        self.background_pj_per_cycle * cycles as f64
    }
}

impl Default for DramModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Read/write transfer counters for one DRAM channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramCounters {
    /// Block reads served.
    pub reads: u64,
    /// Block writes served.
    pub writes: u64,
}

impl DramCounters {
    /// Total block transfers.
    pub const fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Dynamic transfer energy at a given model, in picojoules.
    pub fn energy_pj(&self, model: &DramModel) -> f64 {
        self.total() as f64 * model.block_transfer_energy_pj()
    }

    /// Exports read/write transfer counts under `{prefix}.reads` and
    /// `{prefix}.writes`.
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        sink.counter_add(&format!("{prefix}.reads"), self.reads);
        sink.counter_add(&format!("{prefix}.writes"), self.writes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_energy_matches_cited_constant() {
        let m = DramModel::paper_default();
        assert!((m.block_transfer_energy_pj() - 150.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = DramCounters::default();
        c.reads += 3;
        c.writes += 2;
        assert_eq!(c.total(), 5);
        let e = c.energy_pj(&DramModel::new(100, 1.0));
        assert!((e - 5.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn background_energy_scales_with_time() {
        let m = DramModel::paper_default();
        assert!(m.background_energy_pj(1000) > m.background_energy_pj(10));
        assert_eq!(DramModel::new(1, 1.0).background_energy_pj(1000), 0.0);
    }
}
