//! Three-level data cache hierarchy.

use maps_cache::policy::TrueLru;
use maps_cache::{CacheConfig, SetAssocCache};
use maps_trace::{AccessKind, BlockAddr, BlockKind, MemAccess, TenantId};

use crate::SimConfig;

/// A memory-controller event produced by the hierarchy, tagged with the
/// tenant whose access produced it. Attribution is requester-pays: a
/// writeback is charged to the tenant whose demand access (or flush)
/// evicted the dirty line, not to the tenant that originally dirtied it —
/// the same convention hardware QoS counters use, and the only one that
/// needs no per-line owner state in the data hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// Demand fill of a data block (LLC read miss).
    Read(BlockAddr, TenantId),
    /// Writeback of a dirty data block (LLC eviction).
    Write(BlockAddr, TenantId),
}

impl MemEvent {
    /// The block the event moves.
    pub const fn block(&self) -> BlockAddr {
        let (MemEvent::Read(b, _) | MemEvent::Write(b, _)) = *self;
        b
    }

    /// The tenant charged for the event.
    pub const fn tenant(&self) -> TenantId {
        let (MemEvent::Read(_, t) | MemEvent::Write(_, t)) = *self;
        t
    }
}

/// Counters for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Core accesses observed.
    pub accesses: u64,
    /// Instructions retired (sum of icount).
    pub instructions: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// LLC demand misses (memory reads).
    pub llc_demand_misses: u64,
    /// Dirty LLC evictions (memory writes).
    pub llc_writebacks: u64,
}

impl HierarchyStats {
    /// LLC demand misses per thousand instructions.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_demand_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Exports the front-end counters under `{prefix}.*`.
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        for (name, value) in [
            ("accesses", self.accesses),
            ("instructions", self.instructions),
            ("l1_misses", self.l1_misses),
            ("l2_misses", self.l2_misses),
            ("llc_demand_misses", self.llc_demand_misses),
            ("llc_writebacks", self.llc_writebacks),
        ] {
            if value != 0 {
                sink.counter_add(&format!("{prefix}.{name}"), value);
            }
        }
    }
}

/// L1 → L2 → LLC write-back hierarchy with write-allocate demand paths.
///
/// Dirty evictions are installed into the next level without a demand
/// fetch (the full block is in hand); only LLC dirty evictions reach
/// memory. All three levels use true LRU — the paper varies only the
/// *metadata* cache's policy.
///
/// # Examples
///
/// ```
/// use maps_sim::{Hierarchy, MemEvent, SimConfig};
/// use maps_trace::{AccessKind, MemAccess, PhysAddr};
///
/// let mut h = Hierarchy::new(&SimConfig::paper_default());
/// let mut events = Vec::new();
/// h.access(&MemAccess::new(PhysAddr::new(0), AccessKind::Read, 1), &mut events);
/// assert_eq!(
///     events,
///     vec![MemEvent::Read(PhysAddr::new(0).block(), maps_trace::TenantId::HOST)]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: SetAssocCache<TrueLru>,
    l2: SetAssocCache<TrueLru>,
    llc: SetAssocCache<TrueLru>,
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Builds the hierarchy from a simulation configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            l1: SetAssocCache::new(
                CacheConfig::from_bytes(cfg.l1_bytes, cfg.l1_ways),
                TrueLru::new(),
            ),
            l2: SetAssocCache::new(
                CacheConfig::from_bytes(cfg.l2_bytes, cfg.l2_ways),
                TrueLru::new(),
            ),
            llc: SetAssocCache::new(
                CacheConfig::from_bytes(cfg.llc_bytes, cfg.llc_ways),
                TrueLru::new(),
            ),
            stats: HierarchyStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Resets statistics (cache contents persist) for post-warm-up runs.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    /// Runs one core access through the hierarchy as [`TenantId::HOST`],
    /// appending memory events to `events` (cleared first). Returns
    /// `true` on an LLC demand miss.
    pub fn access(&mut self, access: &MemAccess, events: &mut Vec<MemEvent>) -> bool {
        self.access_from(access, TenantId::HOST, events)
    }

    /// Runs one core access through the hierarchy on behalf of `tenant`,
    /// appending memory events to `events` (cleared first). Returns
    /// `true` on an LLC demand miss. Every emitted event is charged to
    /// `tenant` (requester-pays, including victim writebacks).
    pub fn access_from(
        &mut self,
        access: &MemAccess,
        tenant: TenantId,
        events: &mut Vec<MemEvent>,
    ) -> bool {
        events.clear();
        self.stats.accesses += 1;
        self.stats.instructions += u64::from(access.icount);
        let block = access.addr.block();
        let write = access.kind == AccessKind::Write;

        let r1 = self.l1.access(block.index(), BlockKind::Data, write);
        if let Some(victim) = r1.evicted {
            if victim.dirty {
                self.writeback_to_l2(BlockAddr::new(victim.key), tenant, events);
            }
        }
        if r1.hit {
            return false;
        }
        self.stats.l1_misses += 1;

        // Demand fetch through L2.
        let r2 = self.l2.access(block.index(), BlockKind::Data, false);
        if let Some(victim) = r2.evicted {
            if victim.dirty {
                self.writeback_to_llc(BlockAddr::new(victim.key), tenant, events);
            }
        }
        if r2.hit {
            return false;
        }
        self.stats.l2_misses += 1;

        let r3 = self.llc.access(block.index(), BlockKind::Data, false);
        if let Some(victim) = r3.evicted {
            if victim.dirty {
                self.stats.llc_writebacks += 1;
                events.push(MemEvent::Write(BlockAddr::new(victim.key), tenant));
            }
        }
        if r3.hit {
            return false;
        }
        self.stats.llc_demand_misses += 1;
        events.push(MemEvent::Read(block, tenant));
        true
    }

    fn writeback_to_l2(&mut self, block: BlockAddr, tenant: TenantId, events: &mut Vec<MemEvent>) {
        let r = self.l2.access(block.index(), BlockKind::Data, true);
        if let Some(victim) = r.evicted {
            if victim.dirty {
                self.writeback_to_llc(BlockAddr::new(victim.key), tenant, events);
            }
        }
    }

    fn writeback_to_llc(&mut self, block: BlockAddr, tenant: TenantId, events: &mut Vec<MemEvent>) {
        let r = self.llc.access(block.index(), BlockKind::Data, true);
        if let Some(victim) = r.evicted {
            if victim.dirty {
                self.stats.llc_writebacks += 1;
                events.push(MemEvent::Write(BlockAddr::new(victim.key), tenant));
            }
        }
    }

    /// Flushes every dirty block in the hierarchy to memory, appending the
    /// final writebacks to `events`. Used at end-of-simulation accounting;
    /// flush traffic is charged to [`TenantId::HOST`].
    pub fn flush(&mut self, events: &mut Vec<MemEvent>) {
        events.clear();
        // Push L1 dirty lines down through L2 into the LLC, then drain it.
        let l1_lines = self.l1.drain();
        for line in l1_lines.into_iter().filter(|l| l.dirty) {
            self.writeback_to_l2(BlockAddr::new(line.key), TenantId::HOST, events);
        }
        let l2_lines = self.l2.drain();
        for line in l2_lines.into_iter().filter(|l| l.dirty) {
            self.writeback_to_llc(BlockAddr::new(line.key), TenantId::HOST, events);
        }
        for line in self.llc.drain().into_iter().filter(|l| l.dirty) {
            self.stats.llc_writebacks += 1;
            events.push(MemEvent::Write(BlockAddr::new(line.key), TenantId::HOST));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_trace::PhysAddr;

    fn acc(block: u64, kind: AccessKind) -> MemAccess {
        MemAccess::new(PhysAddr::new(block * 64), kind, 4)
    }

    #[test]
    fn first_touch_misses_everywhere() {
        let mut h = Hierarchy::new(&SimConfig::paper_default());
        let mut ev = Vec::new();
        assert!(h.access(&acc(1, AccessKind::Read), &mut ev));
        assert_eq!(ev, vec![MemEvent::Read(BlockAddr::new(1), TenantId::HOST)]);
        assert_eq!(h.stats().llc_demand_misses, 1);
    }

    #[test]
    fn rereference_hits_l1_silently() {
        let mut h = Hierarchy::new(&SimConfig::paper_default());
        let mut ev = Vec::new();
        h.access(&acc(1, AccessKind::Read), &mut ev);
        assert!(!h.access(&acc(1, AccessKind::Read), &mut ev));
        assert!(ev.is_empty());
        assert_eq!(h.stats().l1_misses, 1);
    }

    #[test]
    fn dirty_data_eventually_written_back() {
        let mut cfg = SimConfig::paper_default();
        // Tiny hierarchy so evictions happen quickly.
        cfg.l1_bytes = 512;
        cfg.l2_bytes = 1024;
        cfg.llc_bytes = 2048;
        let mut h = Hierarchy::new(&cfg);
        let mut ev = Vec::new();
        let mut writes = 0;
        // Write a streaming pattern much larger than the LLC.
        for i in 0..10_000u64 {
            h.access(&acc(i, AccessKind::Write), &mut ev);
            writes += ev
                .iter()
                .filter(|e| matches!(e, MemEvent::Write(..)))
                .count();
        }
        assert!(writes > 5_000, "only {writes} writebacks observed");
    }

    #[test]
    fn writes_do_not_lose_dirty_state_across_levels() {
        let mut cfg = SimConfig::paper_default();
        cfg.l1_bytes = 128; // 2 blocks
        cfg.l1_ways = 2;
        cfg.l2_bytes = 256;
        cfg.l2_ways = 2;
        cfg.llc_bytes = 512;
        cfg.llc_ways = 2;
        let mut h = Hierarchy::new(&cfg);
        let mut ev = Vec::new();
        h.access(&acc(1, AccessKind::Write), &mut ev);
        // Evict block 1 from every level by streaming conflicting blocks.
        for i in 2..200u64 {
            h.access(&acc(i, AccessKind::Read), &mut ev);
            if ev.contains(&MemEvent::Write(BlockAddr::new(1), TenantId::HOST)) {
                return; // dirty block reached memory
            }
        }
        // If it never surfaced, flush must produce it.
        h.flush(&mut ev);
        assert!(ev.contains(&MemEvent::Write(BlockAddr::new(1), TenantId::HOST)));
    }

    #[test]
    fn flush_drains_all_dirty_lines() {
        let mut h = Hierarchy::new(&SimConfig::paper_default());
        let mut ev = Vec::new();
        for i in 0..32u64 {
            h.access(&acc(i, AccessKind::Write), &mut ev);
        }
        h.flush(&mut ev);
        let writes = ev
            .iter()
            .filter(|e| matches!(e, MemEvent::Write(..)))
            .count();
        assert_eq!(writes, 32);
    }

    #[test]
    fn llc_mpki_reflects_misses() {
        let mut h = Hierarchy::new(&SimConfig::paper_default());
        let mut ev = Vec::new();
        for i in 0..1000u64 {
            h.access(&acc(i * 999, AccessKind::Read), &mut ev);
        }
        assert!(h.stats().llc_mpki() > 100.0);
    }
}
