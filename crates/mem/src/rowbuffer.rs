//! Open-page DRAM row-buffer model.
//!
//! The analytic [`crate::DramModel`] charges a fixed latency per access,
//! which is all the MAPS characterization needs. This model adds one level
//! of realism for ablation studies: banks with open rows, where an access
//! to the currently-open row is fast (CAS only) and a row conflict pays
//! precharge + activate. It quantifies a side effect the paper's traffic
//! counts imply but never measure: metadata accesses interleave poorly
//! with data accesses and *degrade DRAM row locality*.
//!
//! # Examples
//!
//! ```
//! use maps_mem::RowBufferDram;
//! let mut dram = RowBufferDram::paper_default();
//! let a = dram.access(0);        // row miss: activate
//! let b = dram.access(64);       // same row: fast
//! assert!(b < a);
//! ```

use maps_trace::BLOCK_BYTES;

/// Per-bank open-row state and hit/miss latency accounting.
#[derive(Debug, Clone)]
pub struct RowBufferDram {
    banks: usize,
    row_bytes: u64,
    hit_latency: u64,
    miss_latency: u64,
    open_rows: Vec<Option<u64>>,
    hits: u64,
    misses: u64,
    /// Misses that closed a different open row in the bank (vs. cold
    /// activations of an idle bank).
    conflicts: u64,
}

impl RowBufferDram {
    /// DDR3-like defaults: 8 banks, 8 KB rows, 100-cycle row hits,
    /// 250-cycle row misses (precharge + activate + CAS at 3 GHz core
    /// clock, Table I).
    pub fn paper_default() -> Self {
        Self::new(8, 8 << 10, 100, 250)
    }

    /// Creates a model with explicit geometry and latencies.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is zero, or if the hit latency
    /// exceeds the miss latency.
    pub fn new(banks: usize, row_bytes: u64, hit_latency: u64, miss_latency: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(
            row_bytes >= BLOCK_BYTES,
            "rows must hold at least one block"
        );
        assert!(
            hit_latency <= miss_latency,
            "row hits cannot be slower than misses"
        );
        Self {
            banks,
            row_bytes,
            hit_latency,
            miss_latency,
            open_rows: vec![None; banks],
            hits: 0,
            misses: 0,
            conflicts: 0,
        }
    }

    /// Services one block access at a byte address; returns its latency in
    /// cycles and updates the bank's open row.
    pub fn access(&mut self, addr_bytes: u64) -> u64 {
        let row = addr_bytes / self.row_bytes;
        // Interleave consecutive rows across banks (row-interleaved
        // mapping, the common default).
        let bank = (row % self.banks as u64) as usize;
        if self.open_rows[bank] == Some(row) {
            self.hits += 1;
            self.hit_latency
        } else {
            if self.open_rows[bank].is_some() {
                self.conflicts += 1;
            }
            self.open_rows[bank] = Some(row);
            self.misses += 1;
            self.miss_latency
        }
    }

    /// Row-buffer hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Row-buffer miss (activate) count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Bank conflicts: misses that displaced a different open row (the
    /// row-locality damage metadata interleaving inflicts; cold activates
    /// of an idle bank are excluded).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Row-buffer hit ratio (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Average access latency so far (miss latency when idle).
    pub fn average_latency(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return self.miss_latency as f64;
        }
        (self.hits as f64 * self.hit_latency as f64 + self.misses as f64 * self.miss_latency as f64)
            / total as f64
    }

    /// Closes all rows and clears statistics.
    pub fn reset(&mut self) {
        self.open_rows = vec![None; self.banks];
        self.hits = 0;
        self.misses = 0;
        self.conflicts = 0;
    }

    /// Exports row-buffer behaviour under `{prefix}.row_buffer.*`:
    /// hit/miss/conflict counters plus the hit-ratio gauge.
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        sink.counter_add(&format!("{prefix}.row_buffer.hits"), self.hits);
        sink.counter_add(&format!("{prefix}.row_buffer.misses"), self.misses);
        sink.counter_add(&format!("{prefix}.row_buffer.conflicts"), self.conflicts);
        sink.gauge_set(&format!("{prefix}.row_buffer.hit_ratio"), self.hit_ratio());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_hits_the_row_buffer() {
        let mut d = RowBufferDram::paper_default();
        for block in 0..128u64 {
            d.access(block * 64);
        }
        // 8 KB rows hold 128 blocks: one activate, 127 hits.
        assert_eq!(d.misses(), 1);
        assert_eq!(d.hits(), 127);
        assert!(d.hit_ratio() > 0.99);
    }

    #[test]
    fn row_strided_stream_always_misses() {
        let mut d = RowBufferDram::new(4, 4096, 100, 250);
        // Stride by banks*row so every access reuses bank 0 with a new row.
        for i in 0..50u64 {
            d.access(i * 4 * 4096);
        }
        assert_eq!(d.hits(), 0);
        assert!((d.average_latency() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn bank_interleaving_keeps_adjacent_rows_independent() {
        let mut d = RowBufferDram::new(2, 4096, 100, 250);
        d.access(0); // row 0, bank 0
        d.access(4096); // row 1, bank 1
                        // Returning to row 0 still hits because bank 1 held row 1.
        assert_eq!(d.access(64), 100);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = RowBufferDram::paper_default();
        d.access(0);
        d.access(64);
        d.reset();
        assert_eq!(d.hits() + d.misses(), 0);
        assert_eq!(d.access(64), 250, "rows must be closed after reset");
    }

    #[test]
    #[should_panic(expected = "slower")]
    fn inverted_latencies_rejected() {
        RowBufferDram::new(4, 4096, 300, 200);
    }

    #[test]
    fn conflicts_exclude_cold_activations() {
        let mut d = RowBufferDram::new(2, 4096, 100, 250);
        d.access(0); // row 0, bank 0: cold activate, no conflict
        d.access(4096); // row 1, bank 1: cold activate
        d.access(2 * 4096); // row 2, bank 0: closes row 0 -> conflict
        d.access(2 * 4096 + 64); // row 2 again: hit
        assert_eq!(d.misses(), 3);
        assert_eq!(d.conflicts(), 1);
        d.reset();
        assert_eq!(d.conflicts(), 0);
    }

    #[test]
    fn export_reports_counters_and_ratio() {
        let mut d = RowBufferDram::new(2, 4096, 100, 250);
        d.access(0);
        d.access(64);
        let mut m = maps_obs::Metrics::new();
        d.export("dram", &mut m);
        assert_eq!(m.counter_value("dram.row_buffer.hits"), 1);
        assert_eq!(m.counter_value("dram.row_buffer.misses"), 1);
        assert_eq!(m.gauge_value("dram.row_buffer.hit_ratio"), Some(0.5));
    }
}
