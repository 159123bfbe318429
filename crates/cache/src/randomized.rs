//! A fully-associative randomized metadata cache in the MIRAGE style.
//!
//! [`RandomizedCache`] decouples *where a tag lives* from *where the data
//! lives*, following MIRAGE (Saileshwar & Qureshi, USENIX Security '21)
//! as revisited by the debate pair in `PAPERS.md` (arXiv 2303.15673,
//! arXiv 2508.10431):
//!
//! * The **tag store** has two skews, each a power-of-two array of sets
//!   indexed by a *keyed* hash of the block key ([`keyed_index`]) with a
//!   per-skew secret seed. Tag capacity is provisioned at ~2x the data
//!   capacity so that set-conflict (tag) evictions are vanishingly rare
//!   and installs follow the power-of-two-choices rule: the incoming
//!   line goes to whichever skew's candidate set has more empty slots.
//! * The **data store** is one flat pool of frames with a free list.
//!   When no frame is free the victim is chosen *globally at random*
//!   (every resident line equally likely), which removes the set-conflict
//!   eviction channel that set-associative caches leak through.
//!
//! Replacement-policy state, kind-based way partitions, and set dueling
//! are structurally meaningless here — there are no ways to partition
//! and eviction is global-random by design — so the surrounding
//! [`MetadataCache`](../maps_sim) treats policy and partition knobs as
//! no-ops under this backend. Multi-tenant isolation instead uses a
//! *frame quota*: a tenant at its quota evicts one of its own frames
//! (chosen uniformly) before installing, so one tenant's footprint
//! cannot displace another's beyond the rare tag-conflict case.
//!
//! Determinism: all randomness comes from one [`SmallRng`] seeded from
//! the design seed, and every install draws at most once, in a fixed
//! decision order (tag conflict → quota eviction → global eviction).
//! The executable specification in `maps-oracle` re-implements the same
//! decision procedure over naive storage and must draw identically; the
//! differential tests hold the two bit-equal.

use maps_trace::rng::{SmallRng, SplitMix64};
use maps_trace::{BlockKind, BLOCK_BYTES};

use crate::cache::AccessResult;
use crate::line::LineMeta;
use crate::{CacheStats, Line};

/// Number of tag-store skews (MIRAGE uses two).
pub const SKEWS: usize = 2;

/// Tag value marking an empty slot/frame (block keys are region-local
/// indices, so `u64::MAX` can never collide with a real key).
const EMPTY_TAG: u64 = u64::MAX;

/// Keyed tag-to-set index: a SplitMix64-finalizer hash of `key` under
/// `seed`, reduced to `sets` (a power of two). Full 64-bit avalanche, so
/// set indices are unpredictable to a tenant that does not know the
/// seed — the property the MIRAGE tag store relies on. Exported so the
/// oracle's specification mirror indexes identically.
#[inline]
#[must_use]
pub fn keyed_index(seed: u64, key: u64, sets: usize) -> usize {
    debug_assert!(sets.is_power_of_two());
    let mut z = key.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as usize) & (sets - 1)
}

/// The derived per-instance keys: two skew seeds and the eviction-RNG
/// seed, all drawn from one SplitMix64 stream over the design seed.
/// Exported so the oracle mirror derives the identical keys.
#[must_use]
pub fn derive_keys(seed: u64) -> ([u64; SKEWS], u64) {
    let mut sm = SplitMix64::new(seed);
    ([sm.next_u64(), sm.next_u64()], sm.next_u64())
}

/// A fully-associative randomized cache over block keys, interface-
/// compatible with [`SetAssocCache`](crate::SetAssocCache) at the call
/// sites the metadata cache uses (access / probe / placeholder / partial
/// writes / invalidate / drain / occupancy).
#[derive(Debug, Clone)]
pub struct RandomizedCache {
    size_bytes: u64,
    ways: usize,
    /// Sets per skew (power of two).
    sets: usize,
    /// Data-store capacity in frames.
    capacity: usize,
    seeds: [u64; SKEWS],
    rng: SmallRng,
    /// Tag store, `SKEWS * sets * ways` slots: resident key (or
    /// [`EMPTY_TAG`]) and the frame it points to.
    tag_keys: Vec<u64>,
    tag_frames: Vec<u32>,
    /// Data store, struct-of-arrays like the set-associative core:
    /// per-frame key (EMPTY_TAG when free), timestamps, line meta, the
    /// back-pointer to the frame's tag slot, and the owning tenant.
    fkeys: Vec<u64>,
    fstamps: Vec<u64>,
    finserts: Vec<u64>,
    fmeta: Vec<LineMeta>,
    fslot: Vec<u32>,
    fowner: Vec<u8>,
    /// Free-frame stack; initialized reversed so pops hand out frames in
    /// ascending order.
    free: Vec<u32>,
    /// Per-tenant frame quota (None: unpartitioned).
    quota: Option<usize>,
    /// Live frames per tenant (grown on demand).
    counts: Vec<u64>,
    stats: CacheStats,
    time: u64,
}

impl RandomizedCache {
    /// Creates a randomized cache holding `size_bytes / 64` frames, with
    /// a tag store of two skews of `ways`-slot sets provisioned at >= 2x
    /// the frame count. `seed` keys the skew hashes and the eviction RNG.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of `ways * 64`
    /// (same geometry contract as
    /// [`CacheConfig::from_bytes`](crate::CacheConfig::from_bytes)).
    pub fn new(size_bytes: u64, ways: usize, seed: u64) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert_eq!(
            size_bytes % (ways as u64 * BLOCK_BYTES),
            0,
            "capacity {size_bytes} is not a multiple of ways*block ({ways}*{BLOCK_BYTES})"
        );
        let capacity = (size_bytes / BLOCK_BYTES) as usize;
        assert!(capacity > 0, "cache must have at least one frame");
        let sets = capacity.div_ceil(ways).next_power_of_two();
        let (seeds, rng_seed) = derive_keys(seed);
        let slots = SKEWS * sets * ways;
        Self {
            size_bytes,
            ways,
            sets,
            capacity,
            seeds,
            rng: SmallRng::seed_from_u64(rng_seed),
            tag_keys: vec![EMPTY_TAG; slots],
            tag_frames: vec![0; slots],
            fkeys: vec![EMPTY_TAG; capacity],
            fstamps: vec![0; capacity],
            finserts: vec![0; capacity],
            fmeta: vec![LineMeta::EMPTY; capacity],
            fslot: vec![0; capacity],
            fowner: vec![0; capacity],
            free: (0..capacity as u32).rev().collect(),
            quota: None,
            counts: Vec::new(),
            stats: CacheStats::default(),
            time: 0,
        }
    }

    /// Installs a per-tenant frame quota of `capacity / tenants` frames
    /// (minimum one): a tenant at its quota evicts one of its own frames
    /// before installing.
    pub fn set_tenant_quota(&mut self, tenants: usize) {
        assert!(tenants >= 1, "tenant count must be positive");
        self.quota = Some((self.capacity / tenants).max(1));
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Data-store capacity in frames.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of accesses performed (the time base for line ages).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Live frames owned by `tenant`.
    pub fn tenant_occupancy(&self, tenant: u8) -> u64 {
        self.counts.get(tenant as usize).copied().unwrap_or(0)
    }

    /// Returns `true` if `key` is resident (no state change).
    pub fn contains(&self, key: u64) -> bool {
        self.locate(key).is_some()
    }

    /// The resident line for `key`, if any (no state change).
    pub fn line(&self, key: u64) -> Option<Line> {
        let (_, frame) = self.locate(key)?;
        Some(self.line_at(frame))
    }

    /// Iterates over resident lines in frame order (the deterministic
    /// drain/writeback order).
    pub fn resident_lines(&self) -> impl Iterator<Item = Line> + '_ {
        (0..self.capacity)
            .filter(|&f| self.fkeys[f] != EMPTY_TAG)
            .map(|f| self.line_at(f))
    }

    /// The data-store frame holding `key`, if resident (no state
    /// change).
    pub fn frame_of(&self, key: u64) -> Option<usize> {
        self.locate(key).map(|(_, frame)| frame)
    }

    /// Accesses `key` as `tenant`, allocating on miss.
    pub fn access(&mut self, key: u64, kind: BlockKind, write: bool, tenant: u8) -> AccessResult {
        let t = self.time;
        self.time += 1;
        if let Some((_, frame)) = self.locate(key) {
            self.fstamps[frame] = t;
            if write {
                self.fmeta[frame].dirty = true;
            }
            self.stats.record_access(kind, true);
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }
        self.stats.record_access(kind, false);
        let mut new_line = Line::filled(key, kind, t);
        new_line.dirty = write;
        let evicted = self.install(new_line, tenant);
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Probes without allocating: records a hit/miss but never fills or
    /// refreshes recency (same contract as the set-associative probe).
    pub fn probe(&mut self, key: u64, kind: BlockKind) -> bool {
        let hit = self.locate(key).is_some();
        self.stats.record_access(kind, hit);
        hit
    }

    /// Inserts a partial-write placeholder holding only sub-entry
    /// `slot`. Misses only; the caller must have established
    /// non-residency.
    ///
    /// Debug builds panic if `key` is already resident or `slot >= 8`.
    pub fn insert_placeholder(
        &mut self,
        key: u64,
        kind: BlockKind,
        slot: u8,
        tenant: u8,
    ) -> Option<Line> {
        debug_assert!(
            self.locate(key).is_none(),
            "placeholder insert for resident key {key}"
        );
        let t = self.time;
        self.install(Line::placeholder(key, kind, t, slot), tenant)
    }

    /// Fused write-hit + mark-valid (the partial-write hit path); returns
    /// the updated mask, or `None` (no state change) when `key` is not
    /// resident.
    ///
    /// Debug builds panic if `slot >= 8`.
    pub fn access_mark_valid(&mut self, key: u64, kind: BlockKind, slot: u8) -> Option<u8> {
        debug_assert!(slot < 8, "sub-block slot {slot} out of range");
        let (_, frame) = self.locate(key)?;
        let t = self.time;
        self.time += 1;
        self.fstamps[frame] = t;
        self.fmeta[frame].dirty = true;
        self.stats.record_access(kind, true);
        self.fmeta[frame].valid_mask |= 1 << slot;
        Some(self.fmeta[frame].valid_mask)
    }

    /// Marks an additional valid sub-entry on a resident line; returns
    /// the updated mask, or `None` if not resident.
    pub fn mark_valid(&mut self, key: u64, slot: u8) -> Option<u8> {
        debug_assert!(slot < 8, "sub-block slot {slot} out of range");
        let (_, frame) = self.locate(key)?;
        let m = &mut self.fmeta[frame];
        m.valid_mask |= 1 << slot;
        m.dirty = true;
        Some(m.valid_mask)
    }

    /// Removes `key` if resident, returning the line.
    pub fn invalidate(&mut self, key: u64) -> Option<Line> {
        let (_, frame) = self.locate(key)?;
        Some(self.evict_frame(frame))
    }

    /// Drains every resident line in frame order (e.g. to account for
    /// final writebacks), resetting the free list to its initial order.
    pub fn drain(&mut self) -> Vec<Line> {
        let mut out = Vec::new();
        for f in 0..self.capacity {
            if self.fkeys[f] != EMPTY_TAG {
                out.push(self.line_at(f));
                self.tag_keys[self.fslot[f] as usize] = EMPTY_TAG;
                self.fkeys[f] = EMPTY_TAG;
            }
        }
        self.free = (0..self.capacity as u32).rev().collect();
        self.counts.clear();
        out
    }

    /// Materializes the line in `frame` (caller has established the
    /// frame is occupied).
    #[inline]
    fn line_at(&self, frame: usize) -> Line {
        debug_assert_ne!(self.fkeys[frame], EMPTY_TAG, "line_at on a free frame");
        let m = self.fmeta[frame];
        Line {
            key: self.fkeys[frame],
            kind: m.kind,
            dirty: m.dirty,
            valid_mask: m.valid_mask,
            insert_at: self.finserts[frame],
            last_at: self.fstamps[frame],
        }
    }

    /// Finds `key`'s tag slot and frame, scanning skew 0 then skew 1.
    #[inline]
    fn locate(&self, key: u64) -> Option<(usize, usize)> {
        for skew in 0..SKEWS {
            let set = keyed_index(self.seeds[skew], key, self.sets);
            let base = (skew * self.sets + set) * self.ways;
            for slot in base..base + self.ways {
                if self.tag_keys[slot] == key {
                    return Some((slot, self.tag_frames[slot] as usize));
                }
            }
        }
        None
    }

    /// Frees `frame`: clears its tag slot, returns the line, pushes the
    /// frame onto the free stack, and releases the owner's quota count.
    fn evict_frame(&mut self, frame: usize) -> Line {
        let line = self.line_at(frame);
        self.tag_keys[self.fslot[frame] as usize] = EMPTY_TAG;
        self.fkeys[frame] = EMPTY_TAG;
        let owner = self.fowner[frame] as usize;
        if let Some(c) = self.counts.get_mut(owner) {
            *c = c.saturating_sub(1);
        }
        self.free.push(frame as u32);
        line
    }

    /// The install decision procedure. At most one victim per install,
    /// and at most one RNG draw, in a fixed order the oracle mirror
    /// reproduces exactly:
    ///
    /// 1. *Tag slot.* Count empty slots in the two candidate sets. Both
    ///    zero is a tag conflict: one draw over the `2 * ways` candidate
    ///    slots (skew 0's set then skew 1's) picks the victim slot, whose
    ///    frame is freed. Otherwise the skew with more empty slots wins
    ///    (tie -> skew 0) and the first empty slot is used.
    /// 2. *Frame.* If no victim yet: a tenant at its quota evicts one of
    ///    its own frames (one draw over its live frames in frame order);
    ///    else if the free list is empty, global random eviction (one
    ///    draw over all frames). The freed frame is the top of the free
    ///    stack either way.
    ///
    /// Tag conflicts bypass the tenant quota (the victim may belong to
    /// another tenant); with ~2x tag provisioning they are rare enough
    /// that the quota drift is negligible, mirroring MIRAGE's security
    /// argument for set-conflict evictions.
    fn install(&mut self, new_line: Line, tenant: u8) -> Option<Line> {
        debug_assert_ne!(
            new_line.key, EMPTY_TAG,
            "key collides with the empty-frame sentinel"
        );
        let mut victim = None;

        let mut bases = [0usize; SKEWS];
        let mut empties = [0usize; SKEWS];
        let mut first_empty = [usize::MAX; SKEWS];
        for skew in 0..SKEWS {
            let set = keyed_index(self.seeds[skew], new_line.key, self.sets);
            let base = (skew * self.sets + set) * self.ways;
            bases[skew] = base;
            for w in 0..self.ways {
                if self.tag_keys[base + w] == EMPTY_TAG {
                    empties[skew] += 1;
                    if first_empty[skew] == usize::MAX {
                        first_empty[skew] = base + w;
                    }
                }
            }
        }
        let [empties_left, empties_right] = empties;
        let [first_left, first_right] = first_empty;
        let slot = if empties_left == 0 && empties_right == 0 {
            let r = self.rng.gen_range(0..SKEWS * self.ways);
            let s = bases[r / self.ways] + (r % self.ways);
            victim = Some(self.evict_frame(self.tag_frames[s] as usize));
            s
        } else if empties_right > empties_left {
            first_right
        } else {
            first_left
        };

        if victim.is_none() {
            let over_quota = self
                .quota
                .is_some_and(|q| self.tenant_occupancy(tenant) >= q as u64);
            if over_quota {
                victim = Some(self.evict_own_frame(tenant));
            } else if self.free.is_empty() {
                let f = self.rng.gen_range(0..self.capacity);
                victim = Some(self.evict_frame(f));
            }
        }

        let Some(frame) = self.free.pop().map(|f| f as usize) else {
            // Unreachable by construction: every eviction above pushes a
            // frame, and capacity > 0.
            debug_assert!(false, "free list empty after eviction");
            return victim;
        };
        self.fkeys[frame] = new_line.key;
        self.fstamps[frame] = new_line.last_at;
        self.finserts[frame] = new_line.insert_at;
        self.fmeta[frame] = LineMeta::of(&new_line);
        self.fslot[frame] = slot as u32;
        self.fowner[frame] = tenant;
        let t = tenant as usize;
        if t >= self.counts.len() {
            self.counts.resize(t + 1, 0);
        }
        self.counts[t] += 1;
        self.tag_keys[slot] = new_line.key;
        self.tag_frames[slot] = frame as u32;
        if let Some(v) = &victim {
            self.stats.record_eviction(v.kind, v.dirty);
        }
        victim
    }

    /// Evicts a uniformly random live frame owned by `tenant` (the
    /// quota-enforcement path). One draw over the tenant's live-frame
    /// count; the r-th owned frame in frame order is the victim.
    fn evict_own_frame(&mut self, tenant: u8) -> Line {
        let count = self.tenant_occupancy(tenant);
        debug_assert!(count > 0, "quota eviction for a tenant with no frames");
        let r = self.rng.gen_range(0..count.max(1));
        let mut seen = 0u64;
        let mut chosen = None;
        for f in 0..self.capacity {
            if self.fkeys[f] != EMPTY_TAG && self.fowner[f] == tenant {
                chosen = Some(f);
                if seen == r {
                    break;
                }
                seen += 1;
            }
        }
        // counts[] tracks exactly the live frames per owner, so the scan
        // always lands on the r-th owned frame; a desynced ledger is
        // debug-checked and falls back to frame 0 instead of aborting.
        debug_assert!(chosen.is_some(), "tenant occupancy ledger out of sync");
        self.evict_frame(chosen.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(frames: usize) -> RandomizedCache {
        RandomizedCache::new(frames as u64 * 64, 8, 0xC0FFEE)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut c = cache(64);
        let r = c.access(7, BlockKind::Counter, true, 0);
        assert!(!r.hit && r.evicted.is_none());
        let r = c.access(7, BlockKind::Counter, false, 0);
        assert!(r.hit);
        let s = c.stats().kind(BlockKind::Counter);
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(c.line(7).unwrap().dirty);
    }

    #[test]
    fn occupancy_is_capped_and_evictions_are_global() {
        let mut c = cache(64);
        let mut evicted = 0;
        for k in 0..1000u64 {
            if c.access(k, BlockKind::Data, false, 0).evicted.is_some() {
                evicted += 1;
            }
        }
        assert_eq!(c.occupancy(), 64);
        assert_eq!(evicted, 1000 - 64);
        assert_eq!(c.stats().total().evictions, 1000 - 64);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut c = cache(32);
            let mut log = Vec::new();
            for k in 0..500u64 {
                let r = c.access(k % 70, BlockKind::Counter, k % 3 == 0, (k % 2) as u8);
                log.push((r.hit, r.evicted.map(|l| l.key)));
            }
            (log, c.drain())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let mut a = RandomizedCache::new(64 * 64, 8, 1);
        let mut b = RandomizedCache::new(64 * 64, 8, 2);
        let mut diverged = false;
        for k in 0..200u64 {
            let ra = a.access(k % 90, BlockKind::Data, false, 0);
            let rb = b.access(k % 90, BlockKind::Data, false, 0);
            if ra.evicted.map(|l| l.key) != rb.evicted.map(|l| l.key) {
                diverged = true;
            }
        }
        assert!(diverged, "seeds must key the layout");
    }

    #[test]
    fn tenant_quota_confines_footprints() {
        let mut c = cache(64);
        c.set_tenant_quota(2); // 32 frames each
        for k in 0..500u64 {
            c.access(k, BlockKind::Data, false, 0);
        }
        assert_eq!(c.tenant_occupancy(0), 32);
        // Tenant 1 still gets its full share: tenant 0 cannot displace it.
        for k in 10_000..10_500u64 {
            c.access(k, BlockKind::Data, false, 1);
        }
        assert_eq!(c.tenant_occupancy(0), 32);
        assert_eq!(c.tenant_occupancy(1), 32);
    }

    #[test]
    fn placeholders_and_partial_writes_match_set_assoc_contract() {
        let mut c = cache(16);
        assert!(c.insert_placeholder(3, BlockKind::Hash, 2, 0).is_none());
        assert!(c.contains(3));
        assert_eq!(c.mark_valid(3, 5), Some(0b0010_0100));
        assert_eq!(
            c.access_mark_valid(3, BlockKind::Hash, 0),
            Some(0b0010_0101)
        );
        assert_eq!(c.mark_valid(99, 0), None);
        assert_eq!(c.access_mark_valid(99, BlockKind::Hash, 0), None);
        let inv = c.invalidate(3).unwrap();
        assert!(inv.dirty && !inv.is_complete());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "resident key")]
    fn placeholder_for_resident_key_panics() {
        let mut c = cache(16);
        c.access(3, BlockKind::Hash, false, 0);
        c.insert_placeholder(3, BlockKind::Hash, 0, 0);
    }

    #[test]
    fn drain_returns_frame_order_and_resets() {
        let mut c = cache(16);
        for k in [5u64, 9, 1] {
            c.access(k, BlockKind::Counter, true, 0);
        }
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        // Frame order == install order here (free stack pops ascending).
        assert_eq!(
            drained.iter().map(|l| l.key).collect::<Vec<_>>(),
            vec![5, 9, 1]
        );
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.tenant_occupancy(0), 0);
        // Refills reuse frames deterministically after a drain.
        c.access(2, BlockKind::Counter, false, 0);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn keyed_index_depends_on_seed_and_key() {
        let sets = 64;
        let a: Vec<_> = (0..100).map(|k| keyed_index(1, k, sets)).collect();
        let b: Vec<_> = (0..100).map(|k| keyed_index(2, k, sets)).collect();
        assert_ne!(a, b);
        assert!(a.iter().all(|&s| s < sets));
        // Stable: the oracle mirror depends on this exact mapping.
        assert_eq!(keyed_index(1, 0, sets), keyed_index(1, 0, sets));
    }

    #[test]
    fn tag_conflicts_still_install() {
        // 1-way tag sets with a tiny set count force tag conflicts; the
        // cache must keep absorbing accesses without leaking occupancy.
        let mut c = RandomizedCache::new(4 * 64, 1, 7);
        for k in 0..200u64 {
            c.access(k, BlockKind::Data, false, 0);
            assert!(c.contains(k), "freshly installed key must be resident");
        }
        assert!(c.occupancy() <= 4);
    }
}
