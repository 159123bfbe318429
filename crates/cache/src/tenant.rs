//! Per-tenant way partitioning and accounting.
//!
//! Production secure memory serves several mutually distrusting tenants
//! through one metadata cache. This module carries the two pieces the
//! multi-tenant scenarios need from the cache layer:
//!
//! * [`TenantPartition`] — an even static split of a set-associative
//!   cache's ways among N tenants, generalizing the two-sided
//!   counter/hash [`Partition`](crate::Partition) to a per-requester
//!   dimension. Fills are confined to the requester's way range via
//!   [`SetAssocCache::access_in_ways`](crate::SetAssocCache::access_in_ways);
//!   hits are range-unrestricted (shared metadata such as upper tree
//!   levels stays usable by everyone, exactly like way-based DRAM cache
//!   partitioning in real parts).
//! * [`TenantStatsTable`] — per-tenant [`CacheStats`] plus an occupancy
//!   ledger. The caller books each access, and the eviction it caused,
//!   straight to the requesting tenant, so the per-tenant counters sum to
//!   the cache's own counters as long as every access is booked. Line
//!   owners live in a per-frame column: a fill that replaces a victim
//!   reuses the victim's frame, so the column names the tenant to debit.
//!
//! Everything here is deterministic, hash-free and O(1) per access; the
//! access path allocates only when a tenant id is seen for the first
//! time.

use std::fmt;

use maps_trace::BlockKind;

use crate::{CacheStats, Line};

/// An invalid tenant split: every tenant must get at least one way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPartitionError {
    /// Requested tenant count.
    pub tenants: usize,
    /// Cache associativity it was checked against.
    pub ways: usize,
}

impl fmt::Display for TenantPartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenant partition of {} tenant(s) over {} way(s) must give every tenant at least one way",
            self.tenants, self.ways
        )
    }
}

impl std::error::Error for TenantPartitionError {}

/// An even static split of `ways` among `tenants` requesters.
///
/// Tenant `i` owns the half-open way range returned by
/// [`TenantPartition::ways_for`]; when `ways` is not a multiple of
/// `tenants` the first `ways % tenants` tenants get one extra way.
///
/// # Examples
///
/// ```
/// use maps_cache::TenantPartition;
/// let p = TenantPartition::new(3, 8).unwrap();
/// assert_eq!(p.ways_for(0, 8), (0, 3));
/// assert_eq!(p.ways_for(1, 8), (3, 6));
/// assert_eq!(p.ways_for(2, 8), (6, 8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantPartition {
    tenants: usize,
}

impl TenantPartition {
    /// A checked split: requires `1 <= tenants <= ways` so every tenant
    /// owns at least one way.
    ///
    /// # Errors
    ///
    /// [`TenantPartitionError`] when a tenant would be starved.
    pub fn new(tenants: usize, ways: usize) -> Result<Self, TenantPartitionError> {
        if tenants >= 1 && tenants <= ways {
            Ok(Self { tenants })
        } else {
            Err(TenantPartitionError { tenants, ways })
        }
    }

    /// Number of tenants in the split.
    pub const fn tenants(&self) -> usize {
        self.tenants
    }

    /// Half-open way range `[lo, hi)` owned by `tenant` at associativity
    /// `ways`. Tenant ids at or above the tenant count wrap (`id %
    /// tenants`), so callers can pass raw ids without pre-clamping.
    pub fn ways_for(&self, tenant: u8, ways: usize) -> (usize, usize) {
        let t = (tenant as usize) % self.tenants;
        let base = ways / self.tenants;
        let rem = ways % self.tenants;
        let lo = t * base + t.min(rem);
        let hi = lo + base + usize::from(t < rem);
        (lo, hi.min(ways))
    }

    /// Frame quota for the fully-associative randomized design: the even
    /// share of `capacity` frames, never below one frame.
    pub fn frame_quota(&self, capacity: usize) -> usize {
        (capacity / self.tenants).max(1)
    }
}

/// Per-tenant statistics and occupancy for one cache.
///
/// Stats rows grow on demand as tenant ids appear; tenants that never
/// accessed the cache occupy no row and report zeroed stats. Occupancy
/// is kept through an owner column with one byte per cache frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatsTable {
    stats: Vec<CacheStats>,
    occupancy: Vec<u64>,
    /// Owning tenant per cache frame. Meaningful only while the frame is
    /// occupied: a drained frame keeps its last owner until the next fill
    /// overwrites it.
    owners: Vec<u8>,
}

impl TenantStatsTable {
    /// An empty table for a cache of `frames` line frames.
    pub fn new(frames: usize) -> Self {
        Self {
            stats: Vec::new(),
            occupancy: Vec::new(),
            owners: vec![0; frames],
        }
    }

    fn slot(&mut self, tenant: u8) -> usize {
        let t = tenant as usize;
        if t >= self.stats.len() {
            self.stats.resize(t + 1, CacheStats::default());
            self.occupancy.resize(t + 1, 0);
        }
        t
    }

    /// Books one access of `kind` by `tenant` (a hit, a miss, or a
    /// statistics-only probe) and the eviction it caused, if any —
    /// exactly what the cache recorded in its own stats for that access.
    pub fn book(&mut self, tenant: u8, kind: BlockKind, hit: bool, evicted: Option<&Line>) {
        let t = self.slot(tenant);
        let s = &mut self.stats[t];
        s.record_access(kind, hit);
        if let Some(victim) = evicted {
            s.record_eviction(victim.kind, victim.dirty);
        }
    }

    /// Records that `tenant` filled `frame`. `replaced` says the fill
    /// evicted the frame's previous line, whose owner is debited first;
    /// otherwise the frame was empty.
    pub fn note_fill(&mut self, frame: usize, tenant: u8, replaced: bool) {
        let t = self.slot(tenant);
        let Some(owner) = self.owners.get_mut(frame) else {
            debug_assert!(false, "frame {frame} outside the owner column");
            return;
        };
        if replaced {
            // The column starts at tenant 0 and every owner written since
            // went through `slot`, so the previous owner's row exists.
            let prev = &mut self.occupancy[*owner as usize];
            *prev = prev.saturating_sub(1);
        }
        *owner = tenant;
        self.occupancy[t] += 1;
    }

    /// Records that every resident line left the cache.
    pub fn note_drain(&mut self) {
        self.occupancy.fill(0);
    }

    /// Accumulated stats for `tenant` (zeroes if never seen).
    pub fn stats(&self, tenant: u8) -> CacheStats {
        self.stats.get(tenant as usize).copied().unwrap_or_default()
    }

    /// Current resident-line count owned by `tenant`.
    pub fn occupancy(&self, tenant: u8) -> u64 {
        self.occupancy.get(tenant as usize).copied().unwrap_or(0)
    }

    /// Tenant ids, in ascending order, that were booked an access since
    /// the last [`TenantStatsTable::reset_stats`] or own a resident line
    /// (a tenant whose lines survive from warm-up is listed).
    pub fn tenants(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX)
            .zip(self.stats.iter().zip(&self.occupancy))
            .filter(|(_, (s, &occ))| s.total().accesses != 0 || occ != 0)
            .map(|(t, _)| t)
    }

    /// Sum of all per-tenant stats (equals the cache's global stats over
    /// the same interval when every access was booked).
    pub fn combined(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for s in &self.stats {
            sum.accumulate(s);
        }
        sum
    }

    /// Clears per-tenant counters (e.g. after warm-up) while keeping the
    /// occupancy ledger, mirroring
    /// [`SetAssocCache::reset_stats`](crate::SetAssocCache::reset_stats).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_all_ways_disjointly() {
        for tenants in 1..=8 {
            let p = TenantPartition::new(tenants, 8).unwrap();
            let mut covered = [false; 8];
            for t in 0..tenants as u8 {
                let (lo, hi) = p.ways_for(t, 8);
                assert!(lo < hi, "tenant {t} starved");
                for (w, c) in covered.iter_mut().enumerate().take(hi).skip(lo) {
                    assert!(!*c, "way {w} double-assigned");
                    *c = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "split {tenants} leaves gaps");
        }
    }

    #[test]
    fn uneven_remainder_goes_to_low_tenants() {
        let p = TenantPartition::new(3, 8).unwrap();
        assert_eq!(p.ways_for(0, 8), (0, 3));
        assert_eq!(p.ways_for(1, 8), (3, 6));
        assert_eq!(p.ways_for(2, 8), (6, 8));
        // Out-of-range ids wrap instead of panicking or starving.
        assert_eq!(p.ways_for(3, 8), p.ways_for(0, 8));
    }

    #[test]
    fn starving_splits_are_rejected() {
        assert!(TenantPartition::new(0, 8).is_err());
        assert!(TenantPartition::new(9, 8).is_err());
        let err = TenantPartition::new(16, 8).unwrap_err();
        assert!(err.to_string().contains("at least one way"));
    }

    #[test]
    fn frame_quota_never_zero() {
        let p = TenantPartition::new(4, 8).unwrap();
        assert_eq!(p.frame_quota(1024), 256);
        assert_eq!(p.frame_quota(2), 1);
    }

    #[test]
    fn booked_accesses_sum_to_global() {
        let mut global = CacheStats::default();
        let mut table = TenantStatsTable::new(8);
        for i in 0..100u64 {
            let tenant = (i % 3) as u8;
            let hit = i % 2 == 0;
            global.record_access(BlockKind::Counter, hit);
            let victim = (i % 5 == 0).then(|| {
                let mut line = Line::filled(i, BlockKind::Hash, i);
                line.dirty = i % 10 == 0;
                global.record_eviction(line.kind, line.dirty);
                line
            });
            table.book(tenant, BlockKind::Counter, hit, victim.as_ref());
        }
        assert_eq!(table.combined(), global);
        assert_eq!(table.tenants().count(), 3);
    }

    #[test]
    fn occupancy_ledger_tracks_fills_and_replacements() {
        let mut table = TenantStatsTable::new(4);
        table.note_fill(0, 1, false);
        table.note_fill(1, 1, false);
        table.note_fill(2, 2, false);
        assert_eq!(table.occupancy(1), 2);
        assert_eq!(table.occupancy(2), 1);
        // Tenant 2 replaces tenant 1's line in frame 0.
        table.note_fill(0, 2, true);
        assert_eq!(table.occupancy(1), 1);
        assert_eq!(table.occupancy(2), 2);
        // Reset keeps the occupancy ledger.
        table.book(1, BlockKind::Counter, false, None);
        table.reset_stats();
        assert_eq!(table.occupancy(1), 1);
        assert_eq!(table.stats(1), CacheStats::default());
        table.note_drain();
        assert_eq!((table.occupancy(1), table.occupancy(2)), (0, 0));
        // A drained frame is refilled as empty: nobody is debited.
        table.note_fill(0, 1, false);
        assert_eq!((table.occupancy(1), table.occupancy(2)), (1, 0));
    }

    #[test]
    fn tenant_255_keeps_every_row() {
        let mut table = TenantStatsTable::new(4);
        table.book(255, BlockKind::Counter, false, None);
        table.note_fill(0, 255, false);
        table.book(0, BlockKind::Counter, false, None);
        table.note_fill(1, 0, false);
        assert_eq!(table.tenants().collect::<Vec<_>>(), vec![0, 255]);
        assert_eq!(table.occupancy(255), 1);
    }
}
