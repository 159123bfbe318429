//! Metrics-collecting engine observer.
//!
//! [`MetricsProbe`] implements [`MetaObserver`] with flat fixed-size
//! arrays on the hot path — no string formatting, no map lookups — and
//! converts to a named [`maps_obs::Metrics`] snapshot only at
//! [`MetricsProbe::export`] time. Because it observes the engine
//! through the same hooks `NullObserver` compiles away, attaching it
//! cannot change simulation outcomes, only record them; the
//! instrumented-replay-equivalence test pins that property.

use maps_trace::{AccessKind, BlockKind, MetaAccess};

use crate::engine::MetaObserver;

/// Tree depth the probe tracks per level; deeper levels (which a 16 TB
/// footprint would need before exceeding) fold into the last bucket.
const MAX_TREE_LEVELS: usize = 24;

/// Per-event metric accumulator for one engine run.
///
/// # Examples
///
/// ```
/// use maps_sim::MetricsProbe;
/// use maps_sim::engine::MetaObserver;
/// let mut probe = MetricsProbe::new();
/// probe.walk_complete(2, 5);
/// probe.speculation(120, 30);
/// let mut metrics = maps_obs::Metrics::new();
/// probe.export("engine", &mut metrics);
/// assert_eq!(metrics.counter_value("engine.speculation.hidden_cycles"), 120);
/// ```
#[derive(Debug, Clone)]
pub struct MetricsProbe {
    /// Reads then writes for data / counter / hash / tree.
    kind_reads: [u64; 4],
    kind_writes: [u64; 4],
    /// Accesses per BMT level (leaf = 0); the paper's Figure 6 quantity.
    tree_level_accesses: [u64; MAX_TREE_LEVELS],
    walk_depth: maps_obs::Histogram,
    cascade_depth: maps_obs::Histogram,
    walks: u64,
    cascades: u64,
    hidden_cycles: u64,
    exposed_cycles: u64,
    speculations: u64,
}

impl MetricsProbe {
    /// Creates an empty probe.
    pub fn new() -> Self {
        Self {
            kind_reads: [0; 4],
            kind_writes: [0; 4],
            tree_level_accesses: [0; MAX_TREE_LEVELS],
            walk_depth: maps_obs::Histogram::new(),
            cascade_depth: maps_obs::Histogram::new(),
            walks: 0,
            cascades: 0,
            hidden_cycles: 0,
            exposed_cycles: 0,
            speculations: 0,
        }
    }

    fn kind_index(kind: BlockKind) -> usize {
        match kind {
            BlockKind::Data => 0,
            BlockKind::Counter => 1,
            BlockKind::Hash => 2,
            BlockKind::Tree(_) => 3,
        }
    }

    /// Total metadata accesses observed.
    pub fn observed(&self) -> u64 {
        self.kind_reads.iter().sum::<u64>() + self.kind_writes.iter().sum::<u64>()
    }

    /// Converts the accumulated state into named metrics under `prefix`.
    ///
    /// Zero counters are skipped so snapshots stay proportional to what
    /// the run actually exercised.
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        const KIND_NAMES: [&str; 4] = ["data", "counter", "hash", "tree"];
        for (name, (&reads, &writes)) in KIND_NAMES
            .iter()
            .zip(self.kind_reads.iter().zip(&self.kind_writes))
        {
            if reads != 0 {
                sink.counter_add(&format!("{prefix}.access.{name}.reads"), reads);
            }
            if writes != 0 {
                sink.counter_add(&format!("{prefix}.access.{name}.writes"), writes);
            }
        }
        for (level, &count) in self.tree_level_accesses.iter().enumerate() {
            if count != 0 {
                sink.counter_add(&format!("{prefix}.tree_level.{level}.accesses"), count);
            }
        }
        for (value, count) in [
            ("walks", self.walks),
            ("cascades", self.cascades),
            ("speculation.events", self.speculations),
            ("speculation.hidden_cycles", self.hidden_cycles),
            ("speculation.exposed_cycles", self.exposed_cycles),
        ] {
            if count != 0 {
                sink.counter_add(&format!("{prefix}.{value}"), count);
            }
        }
        for (name, hist) in [
            ("walk_depth", &self.walk_depth),
            ("cascade_depth", &self.cascade_depth),
        ] {
            if hist.count() != 0 {
                sink.hist_merge(&format!("{prefix}.{name}"), hist);
            }
        }
    }
}

impl Default for MetricsProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaObserver for MetricsProbe {
    #[inline]
    fn observe(&mut self, access: &MetaAccess) {
        let idx = Self::kind_index(access.kind);
        match access.access {
            AccessKind::Read => self.kind_reads[idx] += 1,
            AccessKind::Write => self.kind_writes[idx] += 1,
        }
        if let BlockKind::Tree(level) = access.kind {
            let slot = (level as usize).min(MAX_TREE_LEVELS - 1);
            self.tree_level_accesses[slot] += 1;
        }
    }

    #[inline]
    fn walk_complete(&mut self, levels_fetched: u64, _path_len: u64) {
        self.walks += 1;
        self.walk_depth.record(levels_fetched);
    }

    #[inline]
    fn cascade_complete(&mut self, depth: u64) {
        self.cascades += 1;
        self.cascade_depth.record(depth);
    }

    #[inline]
    fn speculation(&mut self, hidden_cycles: u64, exposed_cycles: u64) {
        self.speculations += 1;
        self.hidden_cycles += hidden_cycles;
        self.exposed_cycles += exposed_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_trace::BlockAddr;

    fn access(kind: BlockKind, access: AccessKind) -> MetaAccess {
        MetaAccess::new(BlockAddr::new(0), kind, access)
    }

    #[test]
    fn kinds_and_levels_are_bucketed() {
        let mut p = MetricsProbe::new();
        p.observe(&access(BlockKind::Counter, AccessKind::Read));
        p.observe(&access(BlockKind::Tree(0), AccessKind::Read));
        p.observe(&access(BlockKind::Tree(3), AccessKind::Write));
        assert_eq!(p.observed(), 3);
        let mut m = maps_obs::Metrics::new();
        p.export("e", &mut m);
        assert_eq!(m.counter_value("e.access.counter.reads"), 1);
        assert_eq!(m.counter_value("e.access.tree.reads"), 1);
        assert_eq!(m.counter_value("e.access.tree.writes"), 1);
        assert_eq!(m.counter_value("e.tree_level.0.accesses"), 1);
        assert_eq!(m.counter_value("e.tree_level.3.accesses"), 1);
    }

    #[test]
    fn deep_tree_levels_fold_into_last_bucket() {
        let mut p = MetricsProbe::new();
        p.observe(&access(BlockKind::Tree(200), AccessKind::Read));
        let mut m = maps_obs::Metrics::new();
        p.export("e", &mut m);
        let last = MAX_TREE_LEVELS - 1;
        assert_eq!(m.counter_value(&format!("e.tree_level.{last}.accesses")), 1);
    }

    #[test]
    fn walk_and_cascade_histograms_survive_export() {
        let mut p = MetricsProbe::new();
        p.walk_complete(0, 4);
        p.walk_complete(3, 4);
        p.cascade_complete(2);
        p.speculation(100, 7);
        let mut m = maps_obs::Metrics::new();
        p.export("e", &mut m);
        assert_eq!(m.counter_value("e.walks"), 2);
        assert_eq!(m.counter_value("e.cascades"), 1);
        assert_eq!(m.counter_value("e.speculation.hidden_cycles"), 100);
        assert_eq!(m.counter_value("e.speculation.exposed_cycles"), 7);
        let h = m.histogram("e.walk_depth").expect("histogram exported");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn empty_probe_exports_nothing() {
        let p = MetricsProbe::new();
        let mut m = maps_obs::Metrics::new();
        p.export("e", &mut m);
        assert_eq!(m.counters().count(), 0);
    }
}
