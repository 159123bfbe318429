//! Energy–delay accounting.

use std::fmt;

/// Accumulates execution cycles and energy, and derives the E·D² metric
/// used in Figures 2 and 7.
///
/// Energy is tracked in picojoules, split by source so reports can show
/// where the secure-memory overhead lands.
///
/// # Examples
///
/// ```
/// use maps_mem::EnergyDelay;
/// let mut ed = EnergyDelay::new();
/// ed.add_cycles(100);
/// ed.add_dram_pj(500.0);
/// ed.add_sram_pj(5.0);
/// assert_eq!(ed.cycles(), 100);
/// assert!((ed.total_pj() - 505.0).abs() < 1e-12);
/// assert!((ed.ed2() - 505.0 * 100.0 * 100.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyDelay {
    cycles: u64,
    dram_pj: f64,
    sram_pj: f64,
    static_pj: f64,
}

impl EnergyDelay {
    /// Creates a zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds execution cycles.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Adds DRAM dynamic energy.
    pub fn add_dram_pj(&mut self, pj: f64) {
        self.dram_pj += pj;
    }

    /// Adds SRAM dynamic energy.
    pub fn add_sram_pj(&mut self, pj: f64) {
        self.sram_pj += pj;
    }

    /// Adds static/leakage/background energy.
    pub fn add_static_pj(&mut self, pj: f64) {
        self.static_pj += pj;
    }

    /// Total cycles.
    pub const fn cycles(&self) -> u64 {
        self.cycles
    }

    /// DRAM dynamic energy in picojoules.
    pub const fn dram_pj(&self) -> f64 {
        self.dram_pj
    }

    /// SRAM dynamic energy in picojoules.
    pub const fn sram_pj(&self) -> f64 {
        self.sram_pj
    }

    /// Static energy in picojoules.
    pub const fn static_pj(&self) -> f64 {
        self.static_pj
    }

    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.sram_pj + self.static_pj
    }

    /// Energy × delay² in pJ·cycles².
    pub fn ed2(&self) -> f64 {
        self.total_pj() * (self.cycles as f64) * (self.cycles as f64)
    }

    /// Energy × delay in pJ·cycles.
    pub fn ed(&self) -> f64 {
        self.total_pj() * self.cycles as f64
    }

    /// Exports the breakdown under `{prefix}.*`: a cycle counter plus
    /// per-source energy gauges in picojoules (energy stays floating-point
    /// so sub-pJ SRAM contributions are not truncated away).
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        sink.counter_add(&format!("{prefix}.cycles"), self.cycles);
        sink.gauge_set(&format!("{prefix}.dram_pj"), self.dram_pj);
        sink.gauge_set(&format!("{prefix}.sram_pj"), self.sram_pj);
        sink.gauge_set(&format!("{prefix}.static_pj"), self.static_pj);
        sink.gauge_set(&format!("{prefix}.total_pj"), self.total_pj());
    }

    /// Rebuilds an accumulator from its raw parts — the inverse of the
    /// field accessors. Exists for serialization (the sweep checkpoint
    /// codec); normal accumulation goes through the `add_*` methods.
    pub const fn from_parts(cycles: u64, dram_pj: f64, sram_pj: f64, static_pj: f64) -> Self {
        EnergyDelay {
            cycles,
            dram_pj,
            sram_pj,
            static_pj,
        }
    }

    /// Sums two accumulators (disjoint execution windows).
    pub fn combine(&self, other: &EnergyDelay) -> EnergyDelay {
        EnergyDelay {
            cycles: self.cycles + other.cycles,
            dram_pj: self.dram_pj + other.dram_pj,
            sram_pj: self.sram_pj + other.sram_pj,
            static_pj: self.static_pj + other.static_pj,
        }
    }
}

impl fmt::Display for EnergyDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {:.1} nJ (dram {:.1}, sram {:.1}, static {:.1})",
            self.cycles,
            self.total_pj() / 1000.0,
            self.dram_pj / 1000.0,
            self.sram_pj / 1000.0,
            self.static_pj / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed2_dominated_by_delay() {
        let mut fast = EnergyDelay::new();
        fast.add_cycles(100);
        fast.add_dram_pj(1000.0);
        let mut slow = EnergyDelay::new();
        slow.add_cycles(200);
        slow.add_dram_pj(500.0);
        // Half the energy but double the delay: ED^2 is 2x worse.
        assert!(slow.ed2() > fast.ed2());
        assert!((slow.ed2() / fast.ed2() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn combine_sums_fields() {
        let mut a = EnergyDelay::new();
        a.add_cycles(10);
        a.add_sram_pj(1.0);
        let mut b = EnergyDelay::new();
        b.add_cycles(20);
        b.add_static_pj(2.0);
        let c = a.combine(&b);
        assert_eq!(c.cycles(), 30);
        assert!((c.total_pj() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!EnergyDelay::new().to_string().is_empty());
    }

    #[test]
    fn export_covers_every_source() {
        let mut e = EnergyDelay::new();
        e.add_cycles(42);
        e.add_dram_pj(10.0);
        e.add_sram_pj(0.25);
        e.add_static_pj(1.0);
        let mut m = maps_obs::Metrics::new();
        e.export("energy", &mut m);
        assert_eq!(m.counter_value("energy.cycles"), 42);
        assert_eq!(m.gauge_value("energy.sram_pj"), Some(0.25));
        assert_eq!(m.gauge_value("energy.total_pj"), Some(11.25));
    }
}
