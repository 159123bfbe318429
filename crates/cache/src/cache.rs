//! The set-associative cache core.

use maps_trace::BlockKind;

use crate::line::{LineMeta, SetView, FULL_MASK};
use crate::{CacheConfig, CacheStats, Line, Partition, Policy};

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Line evicted to make room, if any.
    pub evicted: Option<Line>,
    /// The frame that holds the key after the call: the one that hit, or
    /// the one the fill used. Set-associative frames are
    /// `set * ways + way`; randomized ones index the data store.
    pub frame: usize,
}

/// Tag value marking an empty frame in the packed tag array. Block keys
/// are region-local block indices (memory bytes / 64), so `u64::MAX` can
/// never collide with a real key.
const EMPTY_TAG: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache over block keys.
///
/// Keys are block-granular addresses; the set index is `key % sets` and the
/// full key is stored as the tag. The cache allocates on miss and returns
/// the evicted line (if any) so the caller can propagate writebacks.
///
/// # Examples
///
/// ```
/// use maps_cache::{CacheConfig, SetAssocCache};
/// use maps_cache::policy::TrueLru;
/// use maps_trace::BlockKind;
///
/// let mut c = SetAssocCache::new(CacheConfig::from_bytes(1024, 4), TrueLru::new());
/// c.access(7, BlockKind::Data, true); // write miss: allocate dirty
/// let stats = c.stats().kind(BlockKind::Data);
/// assert_eq!((stats.misses, stats.hits), (1, 0));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    cfg: CacheConfig,
    /// Each frame's key (`EMPTY_TAG` when the frame is empty). Tag matching
    /// is the innermost loop of the simulator; the line state is split into
    /// struct-of-arrays columns (`tags`/`stamps`/`inserts`/`meta`) so the
    /// probe scans a contiguous `u64` run and the hit path touches only the
    /// columns it updates, instead of pulling whole `Option<Line>` structs
    /// through the host cache.
    tags: Vec<u64>,
    /// Last-touch timestamp per frame (the LRU column).
    stamps: Vec<u64>,
    /// Fill timestamp per frame.
    inserts: Vec<u64>,
    /// Kind / dirty / partial-write validity per frame.
    meta: Vec<LineMeta>,
    policy: P,
    partition: Option<Partition>,
    stats: CacheStats,
    time: u64,
    /// `[0, 1, …, ways-1]`, sliced per partition when choosing victims so
    /// the eviction path never allocates a candidate list.
    way_ids: Vec<usize>,
}

impl<P: Policy> SetAssocCache<P> {
    /// Creates a cache with the given geometry and replacement policy.
    pub fn new(cfg: CacheConfig, mut policy: P) -> Self {
        policy.init(cfg.sets(), cfg.ways());
        Self {
            cfg,
            tags: vec![EMPTY_TAG; cfg.blocks()],
            stamps: vec![0; cfg.blocks()],
            inserts: vec![0; cfg.blocks()],
            meta: vec![LineMeta::EMPTY; cfg.blocks()],
            policy,
            partition: None,
            stats: CacheStats::default(),
            time: 0,
            way_ids: (0..cfg.ways()).collect(),
        }
    }

    /// Materializes the line in frame `idx` (caller has established the
    /// frame is occupied).
    #[inline]
    fn line_at(&self, idx: usize) -> Line {
        debug_assert_ne!(self.tags[idx], EMPTY_TAG, "line_at on an empty frame");
        let m = self.meta[idx];
        Line {
            key: self.tags[idx],
            kind: m.kind,
            dirty: m.dirty,
            valid_mask: m.valid_mask,
            insert_at: self.inserts[idx],
            last_at: self.stamps[idx],
        }
    }

    /// Scatters `line` into frame `idx`'s columns.
    #[inline]
    fn store_line(&mut self, idx: usize, line: &Line) {
        self.tags[idx] = line.key;
        self.stamps[idx] = line.last_at;
        self.inserts[idx] = line.insert_at;
        self.meta[idx] = LineMeta::of(line);
    }

    /// Cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics (e.g. after cache warm-up) without touching
    /// contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The replacement policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Installs a static way partition used for every subsequent access.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        if let Some(p) = &partition {
            p.validate(self.cfg.ways());
        }
        self.partition = partition;
    }

    /// Number of accesses performed (the policy time base).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The frame holding `key` (`set * ways + way`), if resident (no
    /// state change).
    pub fn frame_of(&self, key: u64) -> Option<usize> {
        let set = self.cfg.set_of(key);
        let way = self.find_way(set, key)?;
        Some(set * self.cfg.ways() + way)
    }

    /// Prefetches the tag and timestamp rows of `key`'s set into the host
    /// cache. Purely a performance hint for the batched replay path; has no
    /// architectural effect on the simulation.
    #[inline]
    pub fn prefetch_set(&self, key: u64) {
        let base = self.cfg.set_of(key) * self.cfg.ways();
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both pointers are derived from in-bounds indices of live
        // allocations, and `_mm_prefetch` is architecturally a hint that
        // cannot fault or observably change state even on a bad address.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.tags.as_ptr().add(base).cast::<i8>(), _MM_HINT_T0);
            _mm_prefetch(self.stamps.as_ptr().add(base).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = base;
    }

    /// Accesses `key`, allocating on miss; uses the static partition.
    #[inline]
    pub fn access(&mut self, key: u64, kind: BlockKind, write: bool) -> AccessResult {
        self.access_with(key, kind, write, None)
    }

    /// Accesses `key` with an optional per-access partition override (used
    /// by the set-dueling controller, which varies the partition between
    /// leader and follower sets).
    #[inline]
    pub fn access_with(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        partition_override: Option<&Partition>,
    ) -> AccessResult {
        let range = self.allowed_ways(kind, partition_override);
        self.access_ranged(key, kind, write, range)
    }

    /// Accesses `key` with fills confined to the explicit way range
    /// `[lo, hi)` — the per-tenant partitioning entry point. Hits are
    /// range-unrestricted (a line filled by another requester still
    /// hits), matching way-based cache partitioning in real hardware;
    /// only the *fill* is confined.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the range is empty or escapes the
    /// associativity.
    #[inline]
    pub fn access_in_ways(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        ways: (usize, usize),
    ) -> AccessResult {
        debug_assert!(
            ways.0 < ways.1 && ways.1 <= self.cfg.ways(),
            "way range ({}, {}) invalid for {} ways",
            ways.0,
            ways.1,
            self.cfg.ways()
        );
        self.access_ranged(key, kind, write, ways)
    }

    #[inline]
    fn access_ranged(
        &mut self,
        key: u64,
        kind: BlockKind,
        write: bool,
        range: (usize, usize),
    ) -> AccessResult {
        let t = self.time;
        self.time += 1;
        self.policy.begin_access(t, key);
        let set = self.cfg.set_of(key);

        let (hit_way, first_empty) = self.scan_set(set, key);
        if let Some(way) = hit_way {
            let idx = set * self.cfg.ways() + way;
            self.stamps[idx] = t;
            if write {
                // Dirty only: sub-block validity is managed by the slot
                // writes.
                self.meta[idx].dirty = true;
            }
            self.policy.on_hit(set, way, t, kind);
            self.stats.record_access(kind, true);
            return AccessResult {
                hit: true,
                evicted: None,
                frame: idx,
            };
        }

        self.stats.record_access(kind, false);
        let mut new_line = Line::filled(key, kind, t);
        new_line.dirty = write;
        let (frame, evicted) = self.fill(set, new_line, range, first_empty);
        AccessResult {
            hit: false,
            evicted,
            frame,
        }
    }

    /// Probes without allocating: records a hit/miss and refreshes recency
    /// on hit, but never fills. Used for access streams whose kind is not
    /// cacheable under the current contents configuration.
    #[inline]
    pub fn probe(&mut self, key: u64, kind: BlockKind) -> bool {
        let set = self.cfg.set_of(key);
        let hit = self.find_way(set, key).is_some();
        self.stats.record_access(kind, hit);
        hit
    }

    /// Writes 8 B sub-entry `slot` of `key` with one tag search (the
    /// partial-write path). A hit is a write hit that also marks the slot
    /// valid, exactly like [`SetAssocCache::access_mark_valid`]. A miss
    /// records the miss and fills a placeholder holding only `slot`, at
    /// the current time and without advancing it, so the policy sees no
    /// access for the fill.
    ///
    /// Debug builds panic if `slot >= 8`.
    #[inline]
    pub fn write_slot(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        partition_override: Option<&Partition>,
    ) -> AccessResult {
        let range = self.allowed_ways(kind, partition_override);
        self.write_slot_ranged(key, kind, slot, range)
    }

    /// [`SetAssocCache::write_slot`] with the fill confined to the
    /// explicit way range `[lo, hi)` (per-tenant partitioning).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `slot >= 8` or the way range is empty or out
    /// of range.
    #[inline]
    pub fn write_slot_in_ways(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        ways: (usize, usize),
    ) -> AccessResult {
        debug_assert!(
            ways.0 < ways.1 && ways.1 <= self.cfg.ways(),
            "way range ({}, {}) invalid for {} ways",
            ways.0,
            ways.1,
            self.cfg.ways()
        );
        self.write_slot_ranged(key, kind, slot, ways)
    }

    fn write_slot_ranged(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        range: (usize, usize),
    ) -> AccessResult {
        debug_assert!(slot < 8, "sub-block slot {slot} out of range");
        let set = self.cfg.set_of(key);
        let (hit_way, first_empty) = self.scan_set(set, key);
        if let Some(way) = hit_way {
            return AccessResult {
                hit: true,
                evicted: None,
                frame: self.slot_hit(set, way, key, kind, slot),
            };
        }
        self.stats.record_access(kind, false);
        let placeholder = Line::placeholder(key, kind, self.time, slot);
        let (frame, evicted) = self.fill(set, placeholder, range, first_empty);
        AccessResult {
            hit: false,
            evicted,
            frame,
        }
    }

    /// Hit path of a slot write: behaves exactly like a write
    /// [`SetAssocCache::access`] that also marks `slot` valid, with a
    /// single tag search. Returns the updated mask, or `None` (no state
    /// change) when `key` is not resident.
    ///
    /// Debug builds panic if `slot >= 8`; release builds wrap the shift,
    /// so slot `s` marks sub-entry `s % 8` rather than aborting a replay.
    pub fn access_mark_valid(&mut self, key: u64, kind: BlockKind, slot: u8) -> Option<u8> {
        debug_assert!(slot < 8, "sub-block slot {slot} out of range");
        let set = self.cfg.set_of(key);
        let way = self.find_way(set, key)?;
        let idx = self.slot_hit(set, way, key, kind, slot);
        Some(self.meta[idx].valid_mask)
    }

    /// A slot write that hit `way` of `set`: a write hit, then the slot's
    /// valid bit. Returns the frame.
    #[inline]
    fn slot_hit(&mut self, set: usize, way: usize, key: u64, kind: BlockKind, slot: u8) -> usize {
        let t = self.time;
        self.time += 1;
        self.policy.begin_access(t, key);
        let idx = set * self.cfg.ways() + way;
        self.stamps[idx] = t;
        self.meta[idx].dirty = true;
        // The policy observes a plain write hit: the sub-entry bit lands
        // only after `on_hit`.
        self.policy.on_hit(set, way, t, kind);
        self.stats.record_access(kind, true);
        self.meta[idx].valid_mask |= 1 << slot;
        idx
    }

    /// Marks every sub-entry of the line in `frame` valid (after a
    /// completing fill read), returning whether any was missing. Completing
    /// sets the dirty bit, as a slot write does; a complete line is left
    /// untouched.
    pub fn complete_frame(&mut self, frame: usize) -> bool {
        debug_assert_ne!(
            self.tags[frame], EMPTY_TAG,
            "complete_frame on an empty frame"
        );
        let m = &mut self.meta[frame];
        if m.valid_mask == FULL_MASK {
            return false;
        }
        m.valid_mask = FULL_MASK;
        m.dirty = true;
        true
    }

    /// Removes `key` if resident, returning the line.
    pub fn invalidate(&mut self, key: u64) -> Option<Line> {
        let set = self.cfg.set_of(key);
        let way = self.find_way(set, key)?;
        let idx = set * self.cfg.ways() + way;
        let line = self.line_at(idx);
        self.tags[idx] = EMPTY_TAG;
        self.policy.on_evict(set, way, &line, self.time);
        Some(line)
    }

    /// Drains every resident line (e.g. to account for final writebacks).
    pub fn drain(&mut self) -> Vec<Line> {
        let mut out = Vec::new();
        for idx in 0..self.tags.len() {
            if self.tags[idx] != EMPTY_TAG {
                out.push(self.line_at(idx));
                self.tags[idx] = EMPTY_TAG;
            }
        }
        out
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY_TAG).count()
    }

    /// Iterates over resident lines (materialized from the column store).
    pub fn resident_lines(&self) -> impl Iterator<Item = Line> + '_ {
        (0..self.tags.len())
            .filter(|&idx| self.tags[idx] != EMPTY_TAG)
            .map(|idx| self.line_at(idx))
    }

    #[inline]
    fn find_way(&self, set: usize, key: u64) -> Option<usize> {
        self.scan_set(set, key).0
    }

    /// One pass over a set's tag row, returning the way holding `key` and
    /// the first empty way. Tag matching is the innermost loop of the
    /// simulator: the common 8-way geometry is pinned to a fixed-size array
    /// and scanned branchlessly into bit masks (which the compiler can
    /// unroll and vectorize), instead of a runtime-length `position` scan
    /// with a bounds check and branch per way — and the miss path reuses
    /// the empty mask instead of re-scanning the row.
    #[inline]
    fn scan_set(&self, set: usize, key: u64) -> (Option<usize>, Option<usize>) {
        #[inline]
        fn first(mask: u32) -> Option<usize> {
            (mask != 0).then(|| mask.trailing_zeros() as usize)
        }
        let base = set * self.cfg.ways();
        let tags = &self.tags[base..base + self.cfg.ways()];
        if let Ok(tags8) = <&[u64; 8]>::try_from(tags) {
            let (mut hit, mut empty) = (0u32, 0u32);
            for (w, &t) in tags8.iter().enumerate() {
                hit |= u32::from(t == key) << w;
                empty |= u32::from(t == EMPTY_TAG) << w;
            }
            return (first(hit), first(empty));
        }
        let (mut hit, mut empty) = (0u32, 0u32);
        for (w, &t) in tags.iter().enumerate() {
            hit |= u32::from(t == key) << w;
            empty |= u32::from(t == EMPTY_TAG) << w;
        }
        (first(hit), first(empty))
    }

    fn allowed_ways(
        &self,
        kind: BlockKind,
        partition_override: Option<&Partition>,
    ) -> (usize, usize) {
        let p = partition_override.or(self.partition.as_ref());
        match p {
            Some(p) => p.ways_for(kind, self.cfg.ways()),
            None => (0, self.cfg.ways()),
        }
    }

    /// `first_empty` is the set's first empty way as returned by
    /// [`SetAssocCache::scan_set`] (reused when no partition narrows the
    /// ways, so the fill path does not re-scan the tag row). The fill is
    /// confined to the resolved way range `[lo, hi)`. Returns the frame
    /// filled and the victim it held, if any.
    fn fill(
        &mut self,
        set: usize,
        new_line: Line,
        (lo, hi): (usize, usize),
        first_empty: Option<usize>,
    ) -> (usize, Option<Line>) {
        let base = set * self.cfg.ways();
        debug_assert_ne!(
            new_line.key, EMPTY_TAG,
            "key collides with the empty-frame sentinel"
        );

        // Prefer an invalid frame within the allowed ways.
        let empty = if lo == 0 && hi == self.cfg.ways() {
            first_empty
        } else {
            (lo..hi).find(|&w| self.tags[base + w] == EMPTY_TAG)
        };
        if let Some(way) = empty {
            self.store_line(base + way, &new_line);
            self.policy.on_fill(set, way, &new_line);
            return (base + way, None);
        }

        let way = match self
            .policy
            .choose_victim_fast(set, &self.way_ids[lo..hi], self.time)
        {
            Some(way) => way,
            None => {
                // Built inline (not via a `&self` helper) so the immutable
                // column borrows stay disjoint from `&mut self.policy`.
                let end = base + self.cfg.ways();
                let view = SetView::from_soa(
                    &self.tags[base..end],
                    &self.meta[base..end],
                    &self.stamps[base..end],
                    &self.inserts[base..end],
                );
                self.policy
                    .choose_victim(set, &self.way_ids[lo..hi], &view, self.time)
            }
        };
        debug_assert!(
            (lo..hi).contains(&way),
            "policy chose non-candidate way {way}"
        );
        let victim = self.line_at(base + way);
        self.policy.on_evict(set, way, &victim, self.time);
        self.stats.record_eviction(victim.kind, victim.dirty);
        self.store_line(base + way, &new_line);
        self.policy.on_fill(set, way, &new_line);
        (base + way, Some(victim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::TrueLru;

    fn small() -> SetAssocCache<TrueLru> {
        SetAssocCache::new(CacheConfig::from_bytes(512, 4), TrueLru::new()) // 2 sets
    }

    #[test]
    fn write_allocates_dirty() {
        let mut c = small();
        let r = c.access(1, BlockKind::Data, true);
        assert!(!r.hit);
        let line = c.resident_lines().next().unwrap();
        assert!(line.dirty);
        assert!(line.is_complete());
    }

    #[test]
    fn read_hit_preserves_dirty() {
        let mut c = small();
        c.access(1, BlockKind::Data, true);
        c.access(1, BlockKind::Data, false);
        assert!(c.resident_lines().next().unwrap().dirty);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small(); // 2 sets: even keys -> set 0, odd -> set 1
        for k in [0u64, 2, 4, 6] {
            c.access(k, BlockKind::Data, false);
        }
        // Set 0 is full; an odd key must not evict.
        let r = c.access(1, BlockKind::Data, false);
        assert!(r.evicted.is_none());
        // Another even key must evict from set 0.
        let r = c.access(8, BlockKind::Data, false);
        assert_eq!(r.evicted.unwrap().key, 0);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = SetAssocCache::new(CacheConfig::from_bytes(64, 1), TrueLru::new());
        c.access(1, BlockKind::Data, true);
        let r = c.access(2, BlockKind::Data, false);
        let ev = r.evicted.unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().kind(BlockKind::Data).writebacks, 1);
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = small();
        assert!(!c.probe(5, BlockKind::Hash));
        assert_eq!(c.frame_of(5), None);
        assert_eq!(c.stats().kind(BlockKind::Hash).misses, 1);
    }

    #[test]
    fn slot_writes_fill_placeholders_and_coalesce() {
        let mut c = small();
        let r = c.write_slot(3, BlockKind::Hash, 2, None);
        assert!(!r.hit && r.evicted.is_none());
        assert_eq!(c.frame_of(3), Some(r.frame));
        // The placeholder fill is not an access: time stays put.
        assert_eq!(c.time(), 0);
        let r2 = c.write_slot(3, BlockKind::Hash, 5, None);
        assert!(r2.hit);
        assert_eq!(r2.frame, r.frame);
        assert_eq!(
            c.access_mark_valid(3, BlockKind::Hash, 0),
            Some(0b0010_0101)
        );
        assert_eq!(c.access_mark_valid(99, BlockKind::Hash, 0), None);
        let s = c.stats().kind(BlockKind::Hash);
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!(c.complete_frame(r.frame));
        assert!(!c.complete_frame(r.frame), "a complete line stays as it is");
        let line = c.resident_lines().next().unwrap();
        assert!(line.dirty && line.is_complete());
    }

    #[test]
    fn reported_frames_hold_the_key() {
        let mut c = small();
        for k in 0..40u64 {
            let r = if k % 3 == 0 {
                c.write_slot(k % 11, BlockKind::Hash, (k % 8) as u8, None)
            } else {
                c.access(k % 13, BlockKind::Counter, k % 2 == 0)
            };
            assert_eq!(
                c.frame_of(if k % 3 == 0 { k % 11 } else { k % 13 }),
                Some(r.frame)
            );
        }
    }

    #[test]
    fn invalidate_and_drain() {
        let mut c = small();
        c.access(1, BlockKind::Data, true);
        c.access(2, BlockKind::Data, false);
        let inv = c.invalidate(1).unwrap();
        assert!(inv.dirty);
        assert_eq!(c.occupancy(), 1);
        let drained = c.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_capped_by_capacity() {
        let mut c = small();
        for k in 0..100u64 {
            c.access(k, BlockKind::Data, false);
        }
        assert_eq!(c.occupancy(), 8);
    }
}
